# ISA hygiene of the AVX2 copy of the mf element kernel (fem/mf_kernel.h):
# the object may define no symbol with external or vague linkage besides
# its entry point. A weak inline or template definition in it could be the
# one the linker keeps for baseline callers, and would fault on a CPU
# without AVX2.
#
#   cmake -DNM=<nm> -DOBJECTS=<object files> -DENTRY=<entry name part>
#         -P check_isa_symbols.cmake
#   cmake -DSKIP_REASON=<why there is no object> -P check_isa_symbols.cmake
#
# Flags every defined symbol whose nm type is global (upper case: T, D, B,
# R, W, V, ...) or unique (u) or an indirect function (i), except one T
# whose name contains ENTRY, and fails unless that entry is present.
if(SKIP_REASON)
  message("SKIP: ${SKIP_REASON}")
  return()
endif()

set(entries 0)
set(bad "")
foreach(obj IN LISTS OBJECTS)
  execute_process(COMMAND "${NM}" --defined-only "${obj}"
                  OUTPUT_VARIABLE out RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NM} --defined-only ${obj} failed (${rc})")
  endif()
  string(REPLACE "\n" ";" lines "${out}")
  foreach(line IN LISTS lines)
    if(NOT line MATCHES "^[0-9a-fA-F]* *([A-Za-z]) (.+)$")
      continue()
    endif()
    set(type "${CMAKE_MATCH_1}")
    set(name "${CMAKE_MATCH_2}")
    if(type STREQUAL "T" AND name MATCHES "${ENTRY}")
      math(EXPR entries "${entries} + 1")
    elseif(type MATCHES "^[A-Zui]$")
      string(APPEND bad "  ${type} ${name}\n")
    endif()
  endforeach()
endforeach()

if(NOT bad STREQUAL "")
  message(FATAL_ERROR "symbols with external or vague linkage besides "
                      "${ENTRY} in ${OBJECTS}:\n${bad}")
endif()
if(NOT entries EQUAL 1)
  message(FATAL_ERROR "expected one T symbol matching ${ENTRY} in "
                      "${OBJECTS}, found ${entries}")
endif()
message("OK: ${OBJECTS} exports only ${ENTRY}")

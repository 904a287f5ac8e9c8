#!/usr/bin/env bash
# The one-command CI gate: optimized build + tier-1 test suite (twice:
# default format and PROM_MATRIX=csr), the same suite again on an AVX2 +
# FMA build and under Address/UB sanitizers, the
# ThreadSanitizer race gate (ci/tsan.sh), then the perfbench build and
# smoke runs (ci/perfbench_smoke.sh). Everything a PR must pass.
#
# By default only tier-1 tests run (`ctest -L tier1`) — the fast PR gate.
# Pass --full to also run slow-labelled tests in every configuration, the
# nightly-style full lane.
set -euo pipefail
cd "$(dirname "$0")/.."

label_args=(-L tier1)
if [[ "${1:-}" == "--full" ]]; then
  label_args=()
  shift
fi

# Doc-only short-circuit: a committed diff that touches nothing but
# documentation cannot change a build or a test, so skip the whole gate.
# Only taken when the working tree is clean (local uncommitted edits are
# exactly what a local run wants checked) and a comparison base exists;
# PROM_CI_NO_DOC_SKIP=1 forces the full gate regardless.
if [[ "${PROM_CI_NO_DOC_SKIP:-0}" != "1" && -z "$(git status --porcelain 2>/dev/null)" ]]; then
  base="$(git merge-base HEAD origin/main 2>/dev/null ||
          git rev-parse HEAD~1 2>/dev/null || true)"
  if [[ -n "${base}" && "${base}" != "$(git rev-parse HEAD)" ]]; then
    changed="$(git diff --name-only "${base}" HEAD)"
    if [[ -n "${changed}" ]] &&
       ! grep -qvE '(\.md|\.txt|^LICENSE)$' <<<"${changed}"; then
      echo "ci/check.sh: doc-only diff ${base:0:12}..HEAD — skipping gate"
      exit 0
    fi
  fi
fi

# ccache visibility: print hit/miss stats after every build step so cache
# effectiveness (and a cold or thrashing CI cache) shows up in the log.
ccache_epilogue() {
  if command -v ccache >/dev/null 2>&1; then
    echo "--- ccache stats after $1 build ---"
    ccache -s || true
  fi
}

cmake --preset release
cmake --build --preset release -j"$(nproc)"
ccache_epilogue release
ctest --test-dir build-release --output-on-failure -j"$(nproc)" \
  "${label_args[@]}"
# Elasticity solves default to node blocks (bsr3); the tier-1 suite again
# under PROM_MATRIX=csr keeps the scalar CSR elasticity path covered in
# every test that takes the environment default.
PROM_MATRIX=csr ctest --test-dir build-release --output-on-failure \
  -j"$(nproc)" -L tier1

# The same tier-1 suite built for AVX2 + FMA: the bitwise suites must
# hold on the wider ISA too (no FMA contraction, see CMakeLists.txt).
cmake --preset avx2
cmake --build --preset avx2 -j"$(nproc)"
ccache_epilogue avx2
ctest --preset avx2 -j"$(nproc)" "${label_args[@]}"

cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j"$(nproc)"
ccache_epilogue asan-ubsan
ctest --preset asan-ubsan -j"$(nproc)" "${label_args[@]}"

# The matrix-free equivalence battery gets an explicit direct run under
# ASan/UBSan on top of the labelled ctest pass: it exercises the SIMD
# element kernel's raw slot gathers and the DistMf ghost indexing —
# exactly where an out-of-bounds lane would hide.
./build-asan-ubsan/tests/test_mf_equiv

./ci/tsan.sh
ccache_epilogue tsan

# The SolveService benchmark compiles against the solver surface from its
# own CMake package; build it and smoke every workload.
./ci/perfbench_smoke.sh

echo "ci/check.sh: OK"

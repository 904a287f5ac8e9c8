// Distributed (row-block) vectors over the parx runtime. A distributed
// vector is owned in contiguous global index ranges described by a
// RowDist; each rank holds only its local block. Reductions (dot, norm)
// are allreduce operations (ParxBackend, dla/parx_backend.h) — exactly
// the communication pattern whose cost §6's communication efficiency
// measures.
#pragma once

#include <span>
#include <vector>

#include "common/config.h"
#include "la/multivec.h"
#include "parx/runtime.h"

namespace prom::dla {

/// Ownership map: rank r owns global indices [offsets[r], offsets[r+1]).
struct RowDist {
  std::vector<idx> offsets;  // size nranks + 1

  int nranks() const { return static_cast<int>(offsets.size()) - 1; }
  idx global_size() const { return offsets.back(); }
  idx begin(int rank) const { return offsets[rank]; }
  idx end(int rank) const { return offsets[rank + 1]; }
  idx local_size(int rank) const { return end(rank) - begin(rank); }

  /// Owner of global index gid (binary search).
  int owner(idx gid) const;

  /// Even contiguous split of [0, n) over nranks.
  static RowDist block(idx n, int nranks);

  /// Split of [0, n) where index i belongs to rank owner_of[i]; requires
  /// owners to be non-decreasing (i.e. indices pre-permuted by owner).
  static RowDist from_sorted_owners(std::span<const idx> owner_of,
                                    int nranks);
};

/// Gathers k distributed vectors to full copies on every rank with a
/// single allgatherv (each rank contributes its column-major local
/// block), into `full` (reshaped to global size x k; a held `full` keeps
/// its capacity across calls).
void dist_gather_all_mv(parx::Comm& comm, const RowDist& dist,
                        const la::MultiVec& local, la::MultiVec& full);

}  // namespace prom::dla

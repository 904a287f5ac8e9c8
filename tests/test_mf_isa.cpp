// The two compiled copies of the matrix-free element kernel
// (fem/mf_kernel.h) must write the same bits: the AVX2 copy that
// fem::MfCore picks on an AVX2 host and the baseline copy every other host
// runs. Randomized hex and tet batches cover B-bar on and off, cells
// without B-bar (Neo-Hookean) next to cells with it, constrained slots and
// a padded last batch. A trace records which copy MfCore::build picked.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.h"
#include "fem/matrix_free.h"
#include "fem/mf_kernel.h"
#include "mesh/generate.h"
#include "mesh/refine.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace prom {
namespace {

/// A 3 x 3 x 1 hex box (9 cells, so the last batch is padded) with
/// jittered vertices and random materials of all three models.
mesh::Mesh jittered_box(Rng& rng) {
  const mesh::Mesh box = mesh::box_hex(3, 3, 1, {0, 0, 0}, {1.5, 1.2, 0.4});
  std::vector<Vec3> coords = box.coords();
  for (Vec3& p : coords) {
    for (int i = 0; i < 3; ++i) p[i] += 0.06 * (2 * rng.next_real() - 1);
  }
  std::vector<idx> cells;
  std::vector<idx> mats;
  for (idx e = 0; e < box.num_cells(); ++e) {
    for (idx v : box.cell(e)) cells.push_back(v);
    mats.push_back(static_cast<idx>(rng.next_below(3)));
  }
  return mesh::Mesh(box.kind(), std::move(coords), std::move(cells),
                    std::move(mats));
}

std::vector<fem::Material> random_materials(Rng& rng) {
  std::vector<fem::Material> mats(3);
  mats[1].model = fem::MaterialModel::kNeoHookean;
  mats[2].model = fem::MaterialModel::kJ2Plasticity;
  for (fem::Material& m : mats) {
    m.youngs = 0.5 + 10 * rng.next_real();
    m.poisson = 0.1 + 0.38 * rng.next_real();
  }
  return mats;
}

TEST(MfKernelIsa, Avx2CopyWritesTheBaselineBits) {
  if (!fem::MfCore::avx2_kernel_available()) {
    GTEST_SKIP() << "this CPU has no AVX2 (or the build holds no AVX2 "
                    "kernel): only the baseline copy runs";
  }
  Rng rng(0x15A);
  const mesh::Mesh hex = jittered_box(rng);
  const std::vector<fem::Material> mats = random_materials(rng);
  for (const mesh::Mesh& m : {hex, mesh::hex_to_tet(hex)}) {
    ASSERT_NE(m.num_cells() % fem::detail::kSimdLanes, 0);
    for (bool bbar : {true, false}) {
      const int nen = mesh::nodes_per_cell(m.kind());
      std::vector<idx> elements(static_cast<std::size_t>(m.num_cells()));
      for (idx e = 0; e < m.num_cells(); ++e) elements[e] = e;
      // One slot per vertex dof; about one in five is constrained.
      const idx nslots = 3 * m.num_vertices();
      std::vector<bool> fixed(static_cast<std::size_t>(nslots));
      for (std::size_t s = 0; s < fixed.size(); ++s) {
        fixed[s] = rng.next_below(5) == 0;
      }
      fem::MfCore core = fem::MfCore::build(
          m, mats, bbar, elements, nslots, nslots,
          [&](idx e, int a, int c) -> fem::MfCore::Dof {
            const idx s = 3 * m.cell(e)[a] + c;
            if (fixed[s]) return {};
            return {s, s};
          });
      ASSERT_EQ(core.kernel(), fem::MfCore::Kernel::kAvx2);
      std::vector<real> x(static_cast<std::size_t>(nslots));
      for (real& v : x) v = 2 * rng.next_real() - 1;

      core.pass_a(x);
      const std::vector<real> fe_avx2(core.fe().begin(), core.fe().end());
      core.set_kernel(fem::MfCore::Kernel::kBaseline);
      core.pass_a(x);
      ASSERT_EQ(core.fe().size(), fe_avx2.size());
      EXPECT_EQ(std::memcmp(core.fe().data(), fe_avx2.data(),
                            fe_avx2.size() * sizeof(real)),
                0)
          << (nen == 8 ? "hex" : "tet") << ", bbar " << bbar;
    }
  }
}

TEST(MfKernelIsa, BuildRecordsTheChosenKernelAsAGauge) {
  obs::Tracer& tracer = obs::Tracer::instance();
  const bool was = tracer.enabled();
  tracer.set_enabled(true);
  const std::int64_t mark = obs::Tracer::now_ns();
  const mesh::Mesh m = mesh::box_hex(2, 1, 1, {0, 0, 0}, {1, 1, 1});
  const std::vector<idx> elements = {0, 1};
  const fem::MfCore core = fem::MfCore::build(
      m, std::vector<fem::Material>(1), true, elements, 3 * m.num_vertices(),
      3 * m.num_vertices(), [&](idx e, int a, int c) -> fem::MfCore::Dof {
        const idx s = 3 * m.cell(e)[a] + c;
        return {s, s};
      });
  const obs::Report rep = obs::build_report(mark);
  tracer.set_enabled(was);
  const bool avx2 = fem::MfCore::avx2_kernel_available();
  EXPECT_EQ(core.kernel() == fem::MfCore::Kernel::kAvx2, avx2);
  EXPECT_EQ(rep.gauge("mf.kernel_avx2"), avx2 ? 1.0 : 0.0);
}

}  // namespace
}  // namespace prom

// The Pass A element kernel; see fem/mf_kernel.h for why it is compiled
// twice and why nothing here may have external or vague linkage besides
// the entry point.
#include "fem/mf_kernel.h"

#include <cstddef>
#include <cstring>

// src/CMakeLists.txt defines PROM_MF_KERNEL_AVX2 for the -mavx2 copy.
#ifdef PROM_MF_KERNEL_AVX2
#define PROM_MF_PASS_A mf_pass_a_avx2
#else
#define PROM_MF_PASS_A mf_pass_a_baseline
#endif

namespace prom::fem::detail {
namespace {

/// kSimdLanes doubles, one per element of a batch (GCC/Clang vector
/// extension): arithmetic is per lane, and a scalar operand broadcasts.
typedef real Pack __attribute__((vector_size(kSimdLanes * sizeof(real))));

/// r = the kSimdLanes doubles at p. An out parameter, not a return value:
/// a 256-bit vector return has a different ABI with and without AVX.
void load(Pack& r, const real* p) { std::memcpy(&r, p, sizeof(r)); }

/// y(0..2) += m * x for a row-major 3x3 operand held per entry in a pack:
/// each lane is an independent 3x3 op on one element.
void block3_madd(const Pack* m, const Pack* x, Pack* y) {
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) y[r] += m[r * 3 + c] * x[c];
  }
}

/// One batch: gathers u, integrates the elastic-at-zero stress, and
/// writes the nodal forces to the batch's fe slice. Every lane is a pure
/// per-element function.
void pass_a_batch(const MfBatches& m, const real* geo, const real* mean,
                  const real* lam, const real* two_mu, const real* bdil,
                  const idx* slots, const real* x, real* fe) {
  const int nen = m.nen;
  const int edof = 3 * nen;

  Pack u[24];
  for (int d = 0; d < edof; ++d) {
    Pack v = {};
    for (int l = 0; l < kSimdLanes; ++l) {
      const idx s = slots[d * kSimdLanes + l];
      if (s != kInvalidIdx) v[l] = x[s];
    }
    u[d] = v;
  }
  Pack plam, p2mu, pdil;
  load(plam, lam);
  load(p2mu, two_mu);
  load(pdil, bdil);

  Pack acc[24];
  for (int d = 0; d < edof; ++d) acc[d] = Pack{};

  for (int q = 0; q < m.nqp; ++q) {
    const real* gq = geo + static_cast<std::size_t>(q) * kGeoPerQp * kSimdLanes;
    Pack w;
    load(w, gq);
    Pack ji[9];
    for (int k = 0; k < 9; ++k) load(ji[k], gq + (1 + k) * kSimdLanes);

    // Physical gradients g_a = J^{-T} dN_a/dxi (per lane; dN/dxi are
    // mesh-independent scalars broadcast across the lanes).
    Pack g[8][3];
    for (int a = 0; a < nen; ++a) {
      const real* gx = m.ref_grad[q][a];
      for (int j = 0; j < 3; ++j) {
        g[a][j] = ji[0 * 3 + j] * gx[0] + ji[1 * 3 + j] * gx[1] +
                  ji[2 * 3 + j] * gx[2];
      }
    }

    // Displacement gradient H_il = sum_a u_{a,i} g_a[l], the B-bar
    // per-qp deviation gm_a = (mean_grad_a - g_a) / 3 (zero for non-B-bar
    // lanes via the 0-or-1/3 factor), and the dilatation correction
    // dil = sum_{a,k} gm_{a,k} u_{a,k}.
    Pack h[9];
    for (int k = 0; k < 9; ++k) h[k] = Pack{};
    Pack gm[8][3];
    Pack dil = {};
    for (int a = 0; a < nen; ++a) {
      for (int i = 0; i < 3; ++i) {
        const Pack ua = u[a * 3 + i];
        for (int l = 0; l < 3; ++l) h[i * 3 + l] += ua * g[a][l];
        Pack mg;
        load(mg, mean + (a * 3 + i) * kSimdLanes);
        gm[a][i] = (mg - g[a][i]) * pdil;
        dil += gm[a][i] * ua;
      }
    }

    // sigma = lambda tr(eps_bar) I + 2 mu eps_bar with
    // eps_bar = sym(H) + dil I.
    const Pack tr_eps = h[0] + h[4] + h[8] + (dil + dil + dil);
    const Pack press = plam * tr_eps;
    Pack sigma[9];
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) {
        Pack e = real{0.5} * (h[i * 3 + j] + h[j * 3 + i]);
        if (i == j) e += dil;
        Pack s = p2mu * e;
        if (i == j) s += press;
        sigma[i * 3 + j] = s;
      }
    }
    const Pack tr_sig = sigma[0] + sigma[4] + sigma[8];

    // Nodal forces: y_{a,k} += w ((sigma g_a)_k + gm_{a,k} tr sigma).
    for (int a = 0; a < nen; ++a) {
      Pack sv[3] = {};
      block3_madd(sigma, g[a], sv);
      for (int k = 0; k < 3; ++k) {
        acc[a * 3 + k] += w * (sv[k] + gm[a][k] * tr_sig);
      }
    }
  }

  for (int d = 0; d < edof; ++d) {
    std::memcpy(fe + static_cast<std::size_t>(d) * kSimdLanes, &acc[d],
                sizeof(Pack));
  }
}

}  // namespace

void PROM_MF_PASS_A(const MfBatches& m, const real* x, idx b0, idx b1) {
  const std::size_t edof_lanes =
      static_cast<std::size_t>(3 * m.nen) * kSimdLanes;
  const std::size_t geo_stride =
      static_cast<std::size_t>(m.nqp) * kGeoPerQp * kSimdLanes;
  for (idx b = b0; b < b1; ++b) {
    const std::size_t eb = static_cast<std::size_t>(b) * edof_lanes;
    const std::size_t sb = static_cast<std::size_t>(b) * kSimdLanes;
    pass_a_batch(m, m.geo + static_cast<std::size_t>(b) * geo_stride,
                 m.mean + eb, m.lam + sb, m.two_mu + sb, m.bdil + sb,
                 m.slots + eb, x, m.fe + eb);
  }
}

}  // namespace prom::fem::detail

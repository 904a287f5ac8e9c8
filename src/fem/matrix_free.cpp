#include "fem/matrix_free.h"

#include <algorithm>
#include <array>
#include <limits>

#include "common/error.h"
#include "common/flops.h"
#include "common/parallel.h"
#include "fem/quadrature.h"
#include "fem/shape.h"
#include "geom/mat3.h"
#include "la/simd.h"
#include "obs/trace.h"

namespace prom::fem {
namespace {

using la::kSimdLanes;
using la::RealPack;

/// Batches per Pass A chunk and rows per Pass B chunk. Fixed constants:
/// the chunk decomposition is part of the bit-determinism contract
/// (common/parallel.h) — it may depend on the operator but never on the
/// thread count. One batch is kSimdLanes elements, so 4 batches span the
/// same element count as fem/assembly.cpp's kCellGrain / 4.
constexpr idx kBatchGrain = 4;
constexpr idx kRowGrain = 1024;

/// y(0..2) += m * x for a row-major 3x3 operand held per entry in a pack:
/// each lane is an independent 3x3 op on one element.
void block3_madd(const RealPack* m, const RealPack* x, RealPack* y) {
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) y[r] += m[r * 3 + c] * x[c];
  }
}

/// Reals per quadrature point in the geo_ stream: w = gauss_w * detJ plus
/// the row-major J^{-1}.
constexpr int kGeoPerQp = 10;

/// The quadrature rule and reference-space shape gradients for one cell
/// kind, evaluated once (they are mesh-independent compile-time data).
struct RefRule {
  int nen = 0;
  int nqp = 0;
  std::array<real, 8> w{};                    ///< gauss weights
  std::array<std::array<Vec3, 8>, 8> grad{};  ///< [qp][node] dN/dxi
};

const RefRule& ref_rule(int nen) {
  static const RefRule hex = [] {
    RefRule r;
    r.nen = 8;
    const auto rule = hex_gauss_8();
    r.nqp = static_cast<int>(rule.size());
    for (int q = 0; q < r.nqp; ++q) {
      r.w[q] = rule[q].w;
      const ShapeEval s = hex8_shape(rule[q].xi);
      for (int a = 0; a < 8; ++a) r.grad[q][a] = s.grad_xi[a];
    }
    return r;
  }();
  static const RefRule tet = [] {
    RefRule r;
    r.nen = 4;
    const auto rule = tet_gauss_4();
    r.nqp = static_cast<int>(rule.size());
    for (int q = 0; q < r.nqp; ++q) {
      r.w[q] = rule[q].w;
      const ShapeEval s = tet4_shape(rule[q].xi);
      for (int a = 0; a < 4; ++a) r.grad[q][a] = s.grad_xi[a];
    }
    return r;
  }();
  return nen == 8 ? hex : tet;
}

/// Per-element geometry at the reference configuration: per quadrature
/// point w = gauss_w * detJ and J^{-1}, plus the B-bar element-mean
/// physical gradients (the same mean-dilatation average as
/// fem/element.cpp). Serial and distributed setups call this identical
/// code on identical coordinates, a prerequisite of the bitwise
/// serial-vs-distributed apply guarantee.
struct ElementGeo {
  std::array<real, 8 * kGeoPerQp> geo{};   ///< [qp][{w, Jinv row-major}]
  std::array<Vec3, 8> mean_grad{};         ///< zeros unless B-bar
};

ElementGeo element_geometry(const RefRule& rule, std::span<const Vec3> coords,
                            bool bbar) {
  ElementGeo out;
  real vol = 0;
  for (int q = 0; q < rule.nqp; ++q) {
    Mat3 jac = Mat3::zero();
    for (int a = 0; a < rule.nen; ++a) {
      const Vec3& gx = rule.grad[q][a];
      for (int i = 0; i < 3; ++i) {
        jac(i, 0) += coords[a][i] * gx.x;
        jac(i, 1) += coords[a][i] * gx.y;
        jac(i, 2) += coords[a][i] * gx.z;
      }
    }
    const real detj = det(jac);
    PROM_CHECK_MSG(detj > 0, "matrix-free setup: inverted element");
    const Mat3 jinv = inverse(jac);
    real* g = out.geo.data() + q * kGeoPerQp;
    const real w = rule.w[q] * detj;
    g[0] = w;
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) g[1 + i * 3 + j] = jinv(i, j);
    }
    if (bbar) {
      vol += w;
      const Mat3 jinv_t = transpose(jinv);
      for (int a = 0; a < rule.nen; ++a) {
        out.mean_grad[a] += matvec(jinv_t, rule.grad[q][a]) * w;
      }
    }
  }
  if (bbar) {
    const real inv_vol = real{1} / vol;
    for (int a = 0; a < rule.nen; ++a) out.mean_grad[a] *= inv_vol;
  }
  return out;
}

/// One Pass A batch: gathers u, integrates the elastic-at-zero stress,
/// scatters nodal forces to the batch's fe slice. Every lane is a pure
/// per-element function; inert padding lanes (zero geometry, invalid
/// slots) produce exact zeros.
void pass_a_batch(const RefRule& rule, const real* geo, const real* mean,
                  const real* lam, const real* two_mu, const real* bdil,
                  const idx* slots, std::span<const real> x, real* fe) {
  const int nen = rule.nen;
  const int edof = 3 * nen;

  RealPack u[24];
  for (int d = 0; d < edof; ++d) {
    RealPack v = la::pack_zero();
    for (int l = 0; l < kSimdLanes; ++l) {
      const idx s = slots[d * kSimdLanes + l];
      if (s != kInvalidIdx) la::pack_set_lane(v, l, x[s]);
    }
    u[d] = v;
  }
  const RealPack plam = la::pack_load(lam);
  const RealPack p2mu = la::pack_load(two_mu);
  const RealPack pdil = la::pack_load(bdil);
  const RealPack half = la::pack_broadcast(real{0.5});

  RealPack acc[24];
  for (int d = 0; d < edof; ++d) acc[d] = la::pack_zero();

  for (int q = 0; q < rule.nqp; ++q) {
    const real* gq = geo + static_cast<std::size_t>(q) * kGeoPerQp * kSimdLanes;
    const RealPack w = la::pack_load(gq);
    RealPack ji[9];
    for (int m = 0; m < 9; ++m) {
      ji[m] = la::pack_load(gq + (1 + m) * kSimdLanes);
    }

    // Physical gradients g_a = J^{-T} dN_a/dxi (per lane; dN/dxi are
    // compile-time scalars broadcast across the lanes).
    RealPack g[8][3];
    for (int a = 0; a < nen; ++a) {
      const Vec3& gx = rule.grad[q][a];
      for (int j = 0; j < 3; ++j) {
        g[a][j] = ji[0 * 3 + j] * la::pack_broadcast(gx.x) +
                  ji[1 * 3 + j] * la::pack_broadcast(gx.y) +
                  ji[2 * 3 + j] * la::pack_broadcast(gx.z);
      }
    }

    // Displacement gradient H_il = sum_a u_{a,i} g_a[l], the B-bar
    // per-qp deviation gm_a = (mean_grad_a - g_a) / 3 (zero for non-B-bar
    // lanes via the 0-or-1/3 factor), and the dilatation correction
    // dil = sum_{a,k} gm_{a,k} u_{a,k}.
    RealPack h[9];
    for (int m = 0; m < 9; ++m) h[m] = la::pack_zero();
    RealPack gm[8][3];
    RealPack dil = la::pack_zero();
    for (int a = 0; a < nen; ++a) {
      for (int i = 0; i < 3; ++i) {
        const RealPack ua = u[a * 3 + i];
        for (int l = 0; l < 3; ++l) h[i * 3 + l] += ua * g[a][l];
        const RealPack m =
            la::pack_load(mean + (a * 3 + i) * kSimdLanes);
        gm[a][i] = (m - g[a][i]) * pdil;
        dil += gm[a][i] * ua;
      }
    }

    // sigma = lambda tr(eps_bar) I + 2 mu eps_bar with
    // eps_bar = sym(H) + dil I.
    const RealPack tr_eps =
        h[0] + h[4] + h[8] + (dil + dil + dil);
    const RealPack press = plam * tr_eps;
    RealPack sigma[9];
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) {
        RealPack e = half * (h[i * 3 + j] + h[j * 3 + i]);
        if (i == j) e += dil;
        RealPack s = p2mu * e;
        if (i == j) s += press;
        sigma[i * 3 + j] = s;
      }
    }
    const RealPack tr_sig = sigma[0] + sigma[4] + sigma[8];

    // Nodal forces: y_{a,k} += w ((sigma g_a)_k + gm_{a,k} tr sigma).
    for (int a = 0; a < nen; ++a) {
      RealPack sv[3] = {la::pack_zero(), la::pack_zero(), la::pack_zero()};
      block3_madd(sigma, g[a], sv);
      for (int k = 0; k < 3; ++k) {
        acc[a * 3 + k] += w * (sv[k] + gm[a][k] * tr_sig);
      }
    }
  }

  for (int d = 0; d < edof; ++d) {
    la::pack_store(fe + static_cast<std::size_t>(d) * kSimdLanes, acc[d]);
  }
}

}  // namespace

MfCore MfCore::build(const mesh::Mesh& mesh,
                     std::span<const Material> materials, bool bbar,
                     std::span<const idx> elements, idx num_slots,
                     idx num_rows, idx first_ghost_slot,
                     const std::function<Dof(idx e, int a, int c)>& dof_of) {
  const obs::Span span("mf.setup");
  MfCore core;
  const int nen = mesh::nodes_per_cell(mesh.kind());
  const int edof = 3 * nen;
  const RefRule& rule = ref_rule(nen);
  core.nen_ = nen;
  core.nqp_ = rule.nqp;
  core.nrows_ = num_rows;
  core.nslots_ = num_slots;

  const idx ne = static_cast<idx>(elements.size());
  // Per listed element: its dofs and its interior/boundary group.
  std::vector<Dof> dofs(static_cast<std::size_t>(ne) * edof);
  std::vector<char> boundary(static_cast<std::size_t>(ne), 0);
  idx n_interior = 0;
  for (idx t = 0; t < ne; ++t) {
    PROM_CHECK_MSG(t == 0 || elements[t] > elements[t - 1],
                   "mf elements must be ascending global cell ids");
    bool bd = false;
    for (int a = 0; a < nen; ++a) {
      for (int c = 0; c < 3; ++c) {
        const Dof d = dof_of(elements[t], a, c);
        PROM_CHECK(d.gather_slot == kInvalidIdx ||
                   (d.gather_slot >= 0 && d.gather_slot < num_slots));
        PROM_CHECK(d.scatter_row == kInvalidIdx ||
                   (d.scatter_row >= 0 && d.scatter_row < num_rows));
        dofs[static_cast<std::size_t>(t) * edof + a * 3 + c] = d;
        bd = bd || (d.gather_slot != kInvalidIdx &&
                    d.gather_slot >= first_ghost_slot);
      }
    }
    boundary[t] = bd ? 1 : 0;
    if (!bd) ++n_interior;
  }

  // Batch placement: interior batches first, then boundary batches, each
  // group in ascending global-element order with inert padding lanes in
  // its final batch.
  const idx nb_int = (n_interior + kSimdLanes - 1) / kSimdLanes;
  const idx nb_bnd = (ne - n_interior + kSimdLanes - 1) / kSimdLanes;
  core.nbatch_interior_ = nb_int;
  core.nbatch_ = nb_int + nb_bnd;
  const idx nb = core.nbatch_;

  const std::size_t geo_stride =
      static_cast<std::size_t>(rule.nqp) * kGeoPerQp * kSimdLanes;
  core.geo_.assign(static_cast<std::size_t>(nb) * geo_stride, 0);
  core.mean_.assign(static_cast<std::size_t>(nb) * edof * kSimdLanes, 0);
  core.lam_.assign(static_cast<std::size_t>(nb) * kSimdLanes, 0);
  core.two_mu_.assign(static_cast<std::size_t>(nb) * kSimdLanes, 0);
  core.bdil_.assign(static_cast<std::size_t>(nb) * kSimdLanes, 0);
  core.slots_.assign(static_cast<std::size_t>(nb) * edof * kSimdLanes,
                     kInvalidIdx);
  core.fe_.assign(static_cast<std::size_t>(nb) * edof * kSimdLanes, 0);
  PROM_CHECK_MSG(core.fe_.size() <
                     static_cast<std::size_t>(std::numeric_limits<idx>::max()),
                 "mf fe buffer exceeds 32-bit row-source indexing");

  std::vector<Vec3> coords(static_cast<std::size_t>(nen));
  std::vector<idx> lane_of(static_cast<std::size_t>(ne));
  std::vector<idx> batch_of(static_cast<std::size_t>(ne));
  idx next_int = 0, next_bnd = 0;
  for (idx t = 0; t < ne; ++t) {
    // Boundary lanes start at the first boundary *batch*, past the
    // interior group's padding — a boundary element must never share a
    // batch that runs before the halo exchange lands.
    const idx pos =
        boundary[t] ? nb_int * kSimdLanes + next_bnd++ : next_int++;
    const idx b = pos / kSimdLanes;
    const int l = static_cast<int>(pos % kSimdLanes);
    batch_of[t] = b;
    lane_of[t] = l;

    const idx e = elements[t];
    const auto verts = mesh.cell(e);
    for (int a = 0; a < nen; ++a) coords[a] = mesh.coord(verts[a]);
    const Material& mat = materials[mesh.material(e)];
    // Neo-Hookean cells assemble through the total-Lagrangian kernel,
    // which has no B-bar; everything else follows FeProblem's bbar flag.
    const bool cell_bbar =
        bbar && mat.model != MaterialModel::kNeoHookean;
    const ElementGeo eg = element_geometry(rule, coords, cell_bbar);

    real* geo = core.geo_.data() + static_cast<std::size_t>(b) * geo_stride;
    for (int q = 0; q < rule.nqp; ++q) {
      for (int f = 0; f < kGeoPerQp; ++f) {
        geo[(static_cast<std::size_t>(q) * kGeoPerQp + f) * kSimdLanes + l] =
            eg.geo[q * kGeoPerQp + f];
      }
    }
    real* mean =
        core.mean_.data() + static_cast<std::size_t>(b) * edof * kSimdLanes;
    for (int a = 0; a < nen; ++a) {
      for (int k = 0; k < 3; ++k) {
        mean[(a * 3 + k) * kSimdLanes + l] = eg.mean_grad[a][k];
      }
    }
    core.lam_[static_cast<std::size_t>(b) * kSimdLanes + l] = mat.lambda();
    core.two_mu_[static_cast<std::size_t>(b) * kSimdLanes + l] = 2 * mat.mu();
    core.bdil_[static_cast<std::size_t>(b) * kSimdLanes + l] =
        cell_bbar ? real{1} / 3 : real{0};
    idx* slots =
        core.slots_.data() + static_cast<std::size_t>(b) * edof * kSimdLanes;
    for (int d = 0; d < edof; ++d) {
      slots[d * kSimdLanes + l] =
          dofs[static_cast<std::size_t>(t) * edof + d].gather_slot;
    }
  }

  // Row adjacency: walk the input element list (ascending global ids) and
  // append each valid scatter row's fe source — every row accumulates its
  // incident elements in global order, independent of batching and of the
  // rank layout.
  std::vector<nnz_t> cnt(static_cast<std::size_t>(num_rows) + 1, 0);
  for (idx t = 0; t < ne; ++t) {
    for (int d = 0; d < edof; ++d) {
      const idx row = dofs[static_cast<std::size_t>(t) * edof + d].scatter_row;
      if (row != kInvalidIdx) ++cnt[row + 1];
    }
  }
  for (idx r = 0; r < num_rows; ++r) cnt[r + 1] += cnt[r];
  core.row_ptr_ = cnt;
  core.row_src_.resize(static_cast<std::size_t>(core.row_ptr_[num_rows]));
  std::vector<nnz_t> next(core.row_ptr_.begin(), core.row_ptr_.end() - 1);
  for (idx t = 0; t < ne; ++t) {
    const std::size_t fe_base =
        (static_cast<std::size_t>(batch_of[t]) * edof) * kSimdLanes +
        lane_of[t];
    for (int d = 0; d < edof; ++d) {
      const idx row = dofs[static_cast<std::size_t>(t) * edof + d].scatter_row;
      if (row == kInvalidIdx) continue;
      core.row_src_[next[row]++] =
          static_cast<idx>(fe_base + static_cast<std::size_t>(d) * kSimdLanes);
    }
  }

  // Pass A flop model per batch (all lanes): gradients, H/gm/dil, the
  // stress update, and the nodal-force scatter per quadrature point.
  core.flops_per_batch_ = static_cast<std::int64_t>(rule.nqp) * kSimdLanes *
                          (nen * 72 + 40);
  return core;
}

void MfCore::pass_a(std::span<const real> x, idx bb, idx be) const {
  PROM_CHECK(static_cast<idx>(x.size()) == nslots_ && bb >= 0 && be <= nbatch_);
  const RefRule& rule = ref_rule(nen_);
  const int edof = 3 * nen_;
  const std::size_t geo_stride =
      static_cast<std::size_t>(nqp_) * kGeoPerQp * kSimdLanes;
  common::parallel_for(bb, be, kBatchGrain, [&](idx b0, idx b1) {
    for (idx b = b0; b < b1; ++b) {
      const std::size_t eb = static_cast<std::size_t>(b) * edof * kSimdLanes;
      const std::size_t sb = static_cast<std::size_t>(b) * kSimdLanes;
      pass_a_batch(rule, geo_.data() + static_cast<std::size_t>(b) * geo_stride,
                   mean_.data() + eb, lam_.data() + sb, two_mu_.data() + sb,
                   bdil_.data() + sb, slots_.data() + eb, x, fe_.data() + eb);
    }
  });
  count_flops((be - bb) * flops_per_batch_);
}

void MfCore::pass_b_apply(std::span<real> y) const {
  PROM_CHECK(static_cast<idx>(y.size()) == nrows_);
  common::parallel_for(0, nrows_, kRowGrain, [&](idx rb, idx re) {
    for (idx r = rb; r < re; ++r) {
      real acc = 0;
      for (nnz_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
        acc += fe_[row_src_[k]];
      }
      y[r] = acc;
    }
  });
  count_flops(static_cast<std::int64_t>(row_src_.size()));
}

void MfCore::pass_b_apply_rows(std::span<real> y,
                               std::span<const idx> rows) const {
  PROM_CHECK(static_cast<idx>(y.size()) == nrows_);
  const idx n = static_cast<idx>(rows.size());
  common::parallel_for(0, n, kRowGrain, [&](idx tb, idx te) {
    for (idx t = tb; t < te; ++t) {
      const idx r = rows[t];
      real acc = 0;
      for (nnz_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
        acc += fe_[row_src_[k]];
      }
      y[r] = acc;
    }
  });
}

void MfCore::pass_b_residual(std::span<const real> b,
                             std::span<real> r) const {
  PROM_CHECK(static_cast<idx>(b.size()) == nrows_ &&
             static_cast<idx>(r.size()) == nrows_);
  common::parallel_for(0, nrows_, kRowGrain, [&](idx rb, idx re) {
    for (idx row = rb; row < re; ++row) {
      real acc = 0;
      for (nnz_t k = row_ptr_[row]; k < row_ptr_[row + 1]; ++k) {
        acc += fe_[row_src_[k]];
      }
      r[row] = b[row] - acc;
    }
  });
  count_flops(static_cast<std::int64_t>(row_src_.size()) + nrows_);
}

void MfCore::pass_b_residual_rows(std::span<const real> b, std::span<real> r,
                                  std::span<const idx> rows) const {
  PROM_CHECK(static_cast<idx>(b.size()) == nrows_ &&
             static_cast<idx>(r.size()) == nrows_);
  const idx n = static_cast<idx>(rows.size());
  common::parallel_for(0, n, kRowGrain, [&](idx tb, idx te) {
    for (idx t = tb; t < te; ++t) {
      const idx row = rows[t];
      real acc = 0;
      for (nnz_t k = row_ptr_[row]; k < row_ptr_[row + 1]; ++k) {
        acc += fe_[row_src_[k]];
      }
      r[row] = b[row] - acc;
    }
  });
}

double MfCore::apply_bytes_per_row() const {
  if (nrows_ == 0) return 0;
  const double bytes =
      static_cast<double>(geo_.size() + mean_.size() + lam_.size() +
                          two_mu_.size() + bdil_.size()) *
          sizeof(real) +
      static_cast<double>(slots_.size()) * sizeof(idx) +
      2.0 * static_cast<double>(fe_.size()) * sizeof(real) +  // write + read
      static_cast<double>(row_ptr_.size()) * sizeof(nnz_t) +
      static_cast<double>(row_src_.size()) * sizeof(idx) +
      static_cast<double>(nslots_ + nrows_) * sizeof(real);  // x + y
  return bytes / static_cast<double>(nrows_);
}

MatrixFreeOperator MatrixFreeOperator::build(const mesh::Mesh& mesh,
                                             std::span<const Material>
                                                 materials,
                                             const DofMap& dofmap,
                                             bool bbar) {
  PROM_CHECK(dofmap.num_vertices() == mesh.num_vertices());
  std::vector<idx> elements(static_cast<std::size_t>(mesh.num_cells()));
  for (idx e = 0; e < mesh.num_cells(); ++e) elements[e] = e;
  const idx nfree = dofmap.num_free();
  MfCore core = MfCore::build(
      mesh, materials, bbar, elements, nfree, nfree,
      /*first_ghost_slot=*/nfree, [&](idx e, int a, int c) {
        const idx v = mesh.cell(e)[a];
        const idx f = dofmap.free_index(DofMap::dof_of(v, c));
        return MfCore::Dof{f, f};
      });
  return MatrixFreeOperator(std::move(core));
}

void MatrixFreeOperator::apply(std::span<const real> x,
                               std::span<real> y) const {
  const obs::Span span("mf.apply");
  core_.pass_a(x, 0, core_.num_batches());
  core_.pass_b_apply(y);
}

void MatrixFreeOperator::residual(std::span<const real> b,
                                  std::span<const real> x,
                                  std::span<real> r) const {
  const obs::Span span("mf.apply");
  core_.pass_a(x, 0, core_.num_batches());
  core_.pass_b_residual(b, r);
}

void MatrixFreeOperator::apply_rows(std::span<const real> x, std::span<real> y,
                                    std::span<const idx> rows) const {
  const obs::Span span("mf.apply");
  core_.pass_a(x, 0, core_.num_batches());
  core_.pass_b_apply_rows(y, rows);
}

void MatrixFreeOperator::residual_rows(std::span<const real> b,
                                       std::span<const real> x,
                                       std::span<real> r,
                                       std::span<const idx> rows) const {
  const obs::Span span("mf.apply");
  core_.pass_a(x, 0, core_.num_batches());
  core_.pass_b_residual_rows(b, r, rows);
}

std::vector<real> mf_element_apply(const Material& mat,
                                   std::span<const Vec3> coords,
                                   std::span<const real> u, bool bbar) {
  const int nen = static_cast<int>(coords.size());
  PROM_CHECK(nen == 8 || nen == 4);
  PROM_CHECK(static_cast<int>(u.size()) == 3 * nen);
  std::vector<idx> cell(static_cast<std::size_t>(nen));
  for (int a = 0; a < nen; ++a) cell[a] = a;
  const mesh::Mesh mesh(nen == 8 ? mesh::CellKind::kHex8
                                 : mesh::CellKind::kTet4,
                        std::vector<Vec3>(coords.begin(), coords.end()),
                        std::move(cell), {0});
  const DofMap dofmap(nen);  // nothing fixed: all 3*nen dofs free
  const std::vector<Material> mats = {mat};
  const MatrixFreeOperator op =
      MatrixFreeOperator::build(mesh, mats, dofmap, bbar);
  std::vector<real> y(static_cast<std::size_t>(3 * nen));
  op.apply(u, y);
  return y;
}

}  // namespace prom::fem

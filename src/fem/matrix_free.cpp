#include "fem/matrix_free.h"

#include <algorithm>
#include <array>
#include <limits>

#include "common/error.h"
#include "common/flops.h"
#include "common/parallel.h"
#include "fem/mf_kernel.h"
#include "fem/quadrature.h"
#include "fem/shape.h"
#include "geom/mat3.h"
#include "obs/trace.h"

namespace prom::fem {
namespace {

using detail::kGeoPerQp;
using detail::kSimdLanes;

/// Batches per Pass A chunk and rows per Pass B chunk. Fixed constants:
/// the chunk decomposition is part of the bit-determinism contract
/// (common/parallel.h) — it may depend on the operator but never on the
/// thread count. One batch is kSimdLanes elements, so 4 batches span the
/// same element count as fem/assembly.cpp's kCellGrain / 4.
constexpr idx kBatchGrain = 4;
constexpr idx kRowGrain = 1024;

/// The quadrature rule and reference-space shape gradients for one cell
/// kind, evaluated once (they are mesh-independent compile-time data).
struct RefRule {
  int nen = 0;
  int nqp = 0;
  std::array<real, 8> w{};  ///< gauss weights
  real grad[8][8][3]{};     ///< [qp][node] dN/dxi, the kernel's ref_grad
};

/// dN_a/dxi at quadrature point q.
Vec3 grad_xi(const RefRule& rule, int q, int a) {
  const real* g = rule.grad[q][a];
  return {g[0], g[1], g[2]};
}

const RefRule& ref_rule(int nen) {
  static const RefRule hex = [] {
    RefRule r;
    r.nen = 8;
    const auto rule = hex_gauss_8();
    r.nqp = static_cast<int>(rule.size());
    for (int q = 0; q < r.nqp; ++q) {
      r.w[q] = rule[q].w;
      const ShapeEval s = hex8_shape(rule[q].xi);
      for (int a = 0; a < 8; ++a) {
        for (int j = 0; j < 3; ++j) r.grad[q][a][j] = s.grad_xi[a][j];
      }
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
      for (int a = 0; a < 4; ++a) {
        for (int j = 0; j < 3; ++j) r.grad[q][a][j] = s.grad_xi[a][j];
      }
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
      const Vec3 gx = grad_xi(rule, q, a);
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
        out.mean_grad[a] += matvec(jinv_t, grad_xi(rule, q, a)) * w;
      }
    }
  }
  if (bbar) {
    const real inv_vol = real{1} / vol;
    for (int a = 0; a < rule.nen; ++a) out.mean_grad[a] *= inv_vol;
  }
  return out;
}

}  // namespace

MfCore MfCore::build(const mesh::Mesh& mesh,
                     std::span<const Material> materials, bool bbar,
                     std::span<const idx> elements, idx num_slots,
                     idx num_rows,
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
  if (avx2_kernel_available()) core.kernel_ = Kernel::kAvx2;
  obs::gauge_set("mf.kernel_avx2", core.kernel_ == Kernel::kAvx2 ? 1 : 0);

  const idx ne = static_cast<idx>(elements.size());
  std::vector<Dof> dofs(static_cast<std::size_t>(ne) * edof);
  for (idx t = 0; t < ne; ++t) {
    PROM_CHECK_MSG(t == 0 || elements[t] > elements[t - 1],
                   "mf elements must be ascending global cell ids");
    for (int a = 0; a < nen; ++a) {
      for (int c = 0; c < 3; ++c) {
        const Dof d = dof_of(elements[t], a, c);
        PROM_CHECK(d.gather_slot == kInvalidIdx ||
                   (d.gather_slot >= 0 && d.gather_slot < num_slots));
        PROM_CHECK(d.scatter_row == kInvalidIdx ||
                   (d.scatter_row >= 0 && d.scatter_row < num_rows));
        dofs[static_cast<std::size_t>(t) * edof + a * 3 + c] = d;
      }
    }
  }

  // Batch placement: element t of the list is lane t % kSimdLanes of
  // batch t / kSimdLanes, with inert padding lanes in the final batch.
  core.nbatch_ = (ne + kSimdLanes - 1) / kSimdLanes;
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
  for (idx t = 0; t < ne; ++t) {
    const idx b = t / kSimdLanes;
    const int l = static_cast<int>(t % kSimdLanes);
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
        (static_cast<std::size_t>(t / kSimdLanes) * edof) * kSimdLanes +
        static_cast<std::size_t>(t % kSimdLanes);
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

bool MfCore::avx2_kernel_available() {
#ifdef PROM_HAVE_MF_AVX2
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

void MfCore::set_kernel(Kernel k) {
  PROM_CHECK_MSG(k == Kernel::kBaseline || avx2_kernel_available(),
                 "the AVX2 mf kernel is not built or the CPU lacks AVX2");
  kernel_ = k;
}

void MfCore::pass_a(std::span<const real> x) const {
  PROM_CHECK(static_cast<idx>(x.size()) == nslots_);
  const detail::MfBatches batches{
      .nen = nen_,
      .nqp = nqp_,
      .ref_grad = ref_rule(nen_).grad,
      .geo = geo_.data(),
      .mean = mean_.data(),
      .lam = lam_.data(),
      .two_mu = two_mu_.data(),
      .bdil = bdil_.data(),
      .slots = slots_.data(),
      .fe = fe_.data(),
  };
  auto* kernel = &detail::mf_pass_a_baseline;
#ifdef PROM_HAVE_MF_AVX2
  if (kernel_ == Kernel::kAvx2) kernel = &detail::mf_pass_a_avx2;
#endif
  common::parallel_for(0, nbatch_, kBatchGrain, [&](idx b0, idx b1) {
    kernel(batches, x.data(), b0, b1);
  });
  count_flops(nbatch_ * flops_per_batch_);
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
  dofmap.require_dofs_per_vertex(kDofPerVertex,
                                 "MatrixFreeOperator::build (elasticity)");
  std::vector<idx> elements(static_cast<std::size_t>(mesh.num_cells()));
  for (idx e = 0; e < mesh.num_cells(); ++e) elements[e] = e;
  const idx nfree = dofmap.num_free();
  MfCore core = MfCore::build(
      mesh, materials, bbar, elements, nfree, nfree,
      [&](idx e, int a, int c) {
        const idx v = mesh.cell(e)[a];
        const idx f = dofmap.free_index(kDofPerVertex * v + c);
        return MfCore::Dof{f, f};
      });
  return MatrixFreeOperator(std::move(core));
}

void MatrixFreeOperator::apply(std::span<const real> x,
                               std::span<real> y) const {
  const obs::Span span("mf.apply");
  core_.pass_a(x);
  core_.pass_b_apply(y);
}

void MatrixFreeOperator::residual(std::span<const real> b,
                                  std::span<const real> x,
                                  std::span<real> r) const {
  const obs::Span span("mf.apply");
  core_.pass_a(x);
  core_.pass_b_residual(b, r);
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

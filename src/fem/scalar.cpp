#include "fem/scalar.h"

#include <cmath>
#include <optional>
#include <utility>

#include "common/error.h"
#include "common/parallel.h"
#include "fem/quadrature.h"
#include "fem/shape.h"
#include "la/dense.h"
#include "obs/trace.h"

namespace prom::fem {
namespace {

/// Same fixed chunking as the elasticity assembly (fem/assembly.cpp): the
/// chunk decomposition — and with it the merged triplet ordering — never
/// depends on the thread count.
constexpr idx kCellGrain = 64;

std::span<const GaussPoint> rule_for(mesh::CellKind kind) {
  return kind == mesh::CellKind::kHex8 ? hex_gauss_8() : tet_gauss_4();
}

ShapeEval shape_for(mesh::CellKind kind, const Vec3& xi) {
  return kind == mesh::CellKind::kHex8 ? hex8_shape(xi) : tet4_shape(xi);
}

/// Element characteristic length from the centroid Jacobian: the cube
/// root of the element volume (reference volume 1/6 for the unit simplex,
/// 8 for [-1,1]^3). Exact for affine tets; the usual approximation for
/// trilinear hexes.
real element_length(mesh::CellKind kind, real detj_centroid) {
  const real refvol = kind == mesh::CellKind::kHex8 ? real{8} : real{1} / 6;
  return std::cbrt(detj_centroid * refvol);
}

/// Optimal SUPG parameter tau = h/(2|v|) (coth Pe - 1/Pe) with the element
/// Peclet number Pe = |v| h / (2 kappa), kappa the diffusion along the
/// flow direction. The small-Pe limit (coth Pe - 1/Pe -> Pe/3) is taken
/// explicitly to avoid catastrophic cancellation.
real supg_tau(const Vec3& v, const Mat3& k, real h) {
  const real vnorm = norm(v);
  if (!(vnorm > 0) || !(h > 0)) return 0;
  const real kappa = dot(v, matvec(k, v)) / (vnorm * vnorm);
  real zeta;  // coth(Pe) - 1/Pe, the "doubly asymptotic" upwind function
  if (kappa > 0) {
    const real pe = vnorm * h / (2 * kappa);
    zeta = pe < real{0.01} ? pe / 3 : 1 / std::tanh(pe) - 1 / pe;
  } else {
    zeta = 1;  // pure advection: full upwinding
  }
  return h / (2 * vnorm) * zeta;
}

}  // namespace

ScalarAssembly assemble_scalar(const mesh::Mesh& mesh, const DofMap& dofmap,
                               const ScalarCoefficients& coeffs) {
  PROM_CHECK(dofmap.num_vertices() == mesh.num_vertices());
  // One dof per vertex: the scatter below indexes the map by vertex id.
  dofmap.require_dofs_per_vertex(1, "assemble_scalar");
  PROM_CHECK_MSG(static_cast<bool>(coeffs.diffusion),
                 "ScalarCoefficients::diffusion is required");
  const int npc = mesh::nodes_per_cell(mesh.kind());
  const std::span<const GaussPoint> rule = rule_for(mesh.kind());
  const Vec3 xi_centroid = mesh.kind() == mesh::CellKind::kHex8
                               ? Vec3{}
                               : Vec3{real{0.25}, real{0.25}, real{0.25}};

  ScalarAssembly out;
  out.load.assign(static_cast<std::size_t>(dofmap.num_free()), 0);
  out.bc_coupling.assign(static_cast<std::size_t>(dofmap.num_free()), 0);

  // Cell-chunk-parallel assembly with chunk-order merge, exactly the
  // elasticity pattern (same spans, same one chunked triplet merge):
  // bit-identical results at any thread count.
  struct ChunkOut {
    std::vector<std::pair<idx, real>> load_contrib;  // (free row, value)
    std::vector<std::pair<idx, real>> bc_contrib;    // (free row, value)
  };
  const idx nchunks = common::chunk_count(0, mesh.num_cells(), kCellGrain);
  std::vector<ChunkOut> outs(static_cast<std::size_t>(nchunks));
  std::vector<std::vector<la::Triplet>> triplets(
      static_cast<std::size_t>(nchunks));

  std::optional<obs::Span> phase(std::in_place, "assembly.elements");
  common::parallel_for(0, mesh.num_cells(), kCellGrain, [&](idx eb, idx ee) {
    ChunkOut& co = outs[eb / kCellGrain];
    std::vector<la::Triplet>& trip = triplets[eb / kCellGrain];
    trip.reserve(static_cast<std::size_t>(ee - eb) * npc * npc);
    la::DenseMatrix ke(npc, npc);
    std::vector<real> fe(static_cast<std::size_t>(npc));
    std::vector<Vec3> coords(static_cast<std::size_t>(npc));

    for (idx e = eb; e < ee; ++e) {
      const auto verts = mesh.cell(e);
      for (int a = 0; a < npc; ++a) coords[a] = mesh.coord(verts[a]);
      for (int a = 0; a < npc; ++a) {
        fe[a] = 0;
        for (int b = 0; b < npc; ++b) ke(a, b) = 0;
      }

      // SUPG data from the element centroid (element-constant tau).
      real tau = 0;
      if (coeffs.supg && coeffs.velocity) {
        const ShapeEval sc = shape_for(mesh.kind(), xi_centroid);
        const PhysicalGrads pc = physical_gradients(sc, coords);
        const Vec3 xc = interpolate_position(sc, coords);
        tau = supg_tau(coeffs.velocity(e, xc), coeffs.diffusion(e, xc),
                       element_length(mesh.kind(), pc.detJ));
      }

      for (const GaussPoint& gp : rule) {
        const ShapeEval shape = shape_for(mesh.kind(), gp.xi);
        const PhysicalGrads pg = physical_gradients(shape, coords);
        const Vec3 x = interpolate_position(shape, coords);
        const real wdet = gp.w * pg.detJ;

        const Mat3 k = coeffs.diffusion(e, x);
        const Vec3 v = coeffs.velocity ? coeffs.velocity(e, x) : Vec3{};
        const real c = coeffs.reaction ? coeffs.reaction(e, x) : 0;
        const real f = coeffs.source ? coeffs.source(e, x) : 0;

        for (int a = 0; a < npc; ++a) {
          const Vec3& ga = pg.grad[a];
          // SUPG augments the test function N_a by tau v.grad N_a on the
          // advective/reaction residual; the P1 diffusion residual has no
          // second derivatives, so the Galerkin diffusion term is all
          // that remains of it.
          const real wa_stab = tau * dot(v, ga);
          for (int b = 0; b < npc; ++b) {
            const Vec3& gb = pg.grad[b];
            const real adv = dot(v, gb);
            real kab = dot(ga, matvec(k, gb)) +
                       shape.value[a] * adv +
                       c * shape.value[a] * shape.value[b];
            if (tau != 0) kab += wa_stab * (adv + c * shape.value[b]);
            ke(a, b) += wdet * kab;
          }
          fe[a] += wdet * f * (shape.value[a] + wa_stab);
        }
      }

      // Scatter to free dofs (recorded, merged below in cell order).
      for (int a = 0; a < npc; ++a) {
        const idx row = dofmap.free_index(verts[a]);
        if (row == kInvalidIdx) continue;
        co.load_contrib.emplace_back(row, fe[a]);
        for (int b = 0; b < npc; ++b) {
          const idx col = dofmap.free_index(verts[b]);
          if (col == kInvalidIdx) {
            co.bc_contrib.emplace_back(row,
                                       ke(a, b) * dofmap.bc_value(verts[b]));
          } else {
            trip.push_back({row, col, ke(a, b)});
          }
        }
      }
    }
  });

  phase.emplace("assembly.merge");
  for (const ChunkOut& co : outs) {
    for (const auto& [row, v] : co.load_contrib) out.load[row] += v;
    for (const auto& [row, v] : co.bc_contrib) out.bc_coupling[row] += v;
  }
  out.stiffness = la::Csr::from_triplets(dofmap.num_free(), dofmap.num_free(),
                                         triplets);
  return out;
}

LinearSystem assemble_scalar_system(const mesh::Mesh& mesh,
                                    const DofMap& dofmap,
                                    const ScalarCoefficients& coeffs) {
  ScalarAssembly a = assemble_scalar(mesh, dofmap, coeffs);
  LinearSystem sys;
  sys.stiffness = std::move(a.stiffness);
  sys.rhs.resize(a.load.size());
  for (std::size_t i = 0; i < sys.rhs.size(); ++i) {
    sys.rhs[i] = a.load[i] - a.bc_coupling[i];
  }
  return sys;
}

real scalar_l2_error(const mesh::Mesh& mesh, std::span<const real> u_full,
                     const std::function<real(const Vec3&)>& exact) {
  PROM_CHECK(static_cast<idx>(u_full.size()) == mesh.num_vertices());
  const int npc = mesh::nodes_per_cell(mesh.kind());
  const std::span<const GaussPoint> rule = rule_for(mesh.kind());
  std::vector<Vec3> coords(static_cast<std::size_t>(npc));
  real err2 = 0;
  for (idx e = 0; e < mesh.num_cells(); ++e) {
    const auto verts = mesh.cell(e);
    for (int a = 0; a < npc; ++a) coords[a] = mesh.coord(verts[a]);
    for (const GaussPoint& gp : rule) {
      const ShapeEval shape = shape_for(mesh.kind(), gp.xi);
      const PhysicalGrads pg = physical_gradients(shape, coords);
      const Vec3 x = interpolate_position(shape, coords);
      real uh = 0;
      for (int a = 0; a < npc; ++a) uh += shape.value[a] * u_full[verts[a]];
      const real d = uh - exact(x);
      err2 += gp.w * pg.detJ * d * d;
    }
  }
  return std::sqrt(err2);
}

}  // namespace prom::fem

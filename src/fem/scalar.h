// Scalar (block-size-1) equation assembly: one dof per vertex, P1/trilinear
// discretization of
//
//   -div(K grad u) + v . grad u + c u = f
//
// with per-element coefficient callbacks — the diffusion tensor K covers
// jump-coefficient Poisson problems, the velocity field v (with optional
// SUPG stabilization) covers advection–diffusion. The constraints come in
// a fem::DofMap with one dof per vertex (the dof is the vertex id), and
// the assembled free-dof operator is a plain la::Csr that the same
// multigrid stack consumes: mg::Hierarchy::build reads the block size 1
// from that map.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "common/config.h"
#include "fem/assembly.h"
#include "geom/mat3.h"
#include "geom/vec3.h"
#include "la/csr.h"
#include "mesh/mesh.h"

namespace prom::fem {

/// Coefficient callbacks for the scalar equation, evaluated per quadrature
/// point with the owning cell id (jump coefficients key off the cell or
/// its material, manufactured solutions off the position). `diffusion` is
/// required; a null `velocity` / `reaction` / `source` means zero.
struct ScalarCoefficients {
  std::function<Mat3(idx cell, const Vec3& x)> diffusion;
  std::function<Vec3(idx cell, const Vec3& x)> velocity;
  std::function<real(idx cell, const Vec3& x)> reaction;
  std::function<real(idx cell, const Vec3& x)> source;
  /// Streamline-upwind Petrov–Galerkin stabilization: adds the
  /// residual-weighted tau (v.grad w) test-function term with the standard
  /// optimal tau = h/(2|v|) (coth Pe - 1/Pe). Consistent (the exact
  /// solution still satisfies the discrete system), so MMS convergence
  /// orders are preserved; essential once the element Peclet number
  /// exceeds 1, where plain Galerkin oscillates.
  bool supg = false;
};

struct ScalarAssembly {
  la::Csr stiffness;            ///< free x free operator
  std::vector<real> load;       ///< source load vector on free dofs
  std::vector<real> bc_coupling;  ///< K_fc * u_c on free dofs
};

/// Assembles the scalar operator, the source load, and the Dirichlet
/// coupling on the free dofs of `dofmap`, which must carry one dof per
/// vertex (prom::Error otherwise). TET4 uses the 4-point rule, HEX8 the
/// 2x2x2 rule. Deterministic for any kernel-thread count (same fixed cell
/// chunking + chunk-order merge as FeProblem::assemble).
ScalarAssembly assemble_scalar(const mesh::Mesh& mesh, const DofMap& dofmap,
                               const ScalarCoefficients& coeffs);

/// Convenience: the linear system K_ff u_f = load - K_fc u_c.
LinearSystem assemble_scalar_system(const mesh::Mesh& mesh,
                                    const DofMap& dofmap,
                                    const ScalarCoefficients& coeffs);

/// L2-norm error ||u_h - u_exact|| over the mesh, quadrature of the same
/// order as assembly. `u_full` is the per-vertex solution (constrained
/// values inserted). Test/MMS helper.
real scalar_l2_error(const mesh::Mesh& mesh, std::span<const real> u_full,
                     const std::function<real(const Vec3&)>& exact);

}  // namespace prom::fem

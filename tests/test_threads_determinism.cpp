// The regression gate for the intra-rank threading layer (ISSUE 1): every
// parallelized kernel must produce BIT-identical results for 1, 2, and 8
// kernel threads. The contract (common/parallel.h) is that the work
// decomposition depends only on range and grain, never on the thread
// count — these tests catch any kernel whose merge order leaks the
// scheduling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/flops.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "fem/assembly.h"
#include "la/csr.h"
#include "la/operator.h"
#include "la/vec.h"
#include "mesh/generate.h"
#include "mg/hierarchy.h"
#include "mg/level_solve.h"
#include "partition/greedy.h"

namespace prom {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

/// Runs `fn` under `t` kernel threads, restoring the default after.
template <typename Fn>
auto with_threads(int t, const Fn& fn) {
  common::set_kernel_threads(t);
  auto out = fn();
  common::set_kernel_threads(0);
  return out;
}

template <typename T>
void expect_bitwise_equal(const std::vector<T>& a, const std::vector<T>& b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(T)), 0)
      << what << ": results differ bitwise across thread counts";
}

/// Random diagonally dominant symmetric matrix (valid smoother operator).
la::Csr random_spd(Rng& rng, idx n, idx off_diag_per_row) {
  std::vector<la::Triplet> trip;
  std::vector<real> diag(static_cast<std::size_t>(n), real{1});
  for (idx i = 0; i < n; ++i) {
    for (idx k = 0; k < off_diag_per_row; ++k) {
      const idx j = static_cast<idx>(rng.next_below(n));
      if (j == i) continue;
      const real v = rng.next_real() - 0.5;
      trip.push_back({i, j, v});
      trip.push_back({j, i, v});
      diag[i] += std::abs(v) + 1;
      diag[j] += std::abs(v) + 1;
    }
  }
  for (idx i = 0; i < n; ++i) trip.push_back({i, i, diag[i]});
  return la::Csr::from_triplets(n, n, trip);
}

la::Csr random_restriction(Rng& rng, idx ncoarse, idx nfine) {
  std::vector<la::Triplet> trip;
  for (idx c = 0; c < ncoarse; ++c) {
    trip.push_back({c, static_cast<idx>(rng.next_below(nfine)), 1.0});
    for (int k = 0; k < 4; ++k) {
      trip.push_back({c, static_cast<idx>(rng.next_below(nfine)),
                      rng.next_real()});
    }
  }
  return la::Csr::from_triplets(ncoarse, nfine, trip);
}

std::vector<real> random_vector(Rng& rng, idx n) {
  std::vector<real> x(static_cast<std::size_t>(n));
  for (real& v : x) v = 2 * rng.next_real() - 1;
  return x;
}

TEST(ThreadsDeterminism, ParallelForCoversEveryIndexOnce) {
  for (int t : kThreadCounts) {
    for (idx n : {0, 1, 7, 8192, 100001}) {
      std::vector<int> visited(static_cast<std::size_t>(n), 0);
      with_threads(t, [&] {
        common::parallel_for(0, n, 1024, [&](idx b, idx e) {
          for (idx i = b; i < e; ++i) visited[i]++;
        });
        return 0;
      });
      for (idx i = 0; i < n; ++i) {
        ASSERT_EQ(visited[i], 1) << "n=" << n << " t=" << t << " i=" << i;
      }
    }
  }
}

TEST(ThreadsDeterminism, ParallelReduceIsThreadCountInvariant) {
  Rng rng(0xDE7);
  const std::vector<real> x = random_vector(rng, 123457);
  const real base = with_threads(1, [&] {
    return common::parallel_reduce(0, static_cast<idx>(x.size()), 4096,
                                   [&](idx b, idx e) {
                                     real s = 0;
                                     for (idx i = b; i < e; ++i) s += x[i];
                                     return s;
                                   });
  });
  for (int t : kThreadCounts) {
    const real got = with_threads(t, [&] {
      return common::parallel_reduce(0, static_cast<idx>(x.size()), 4096,
                                     [&](idx b, idx e) {
                                       real s = 0;
                                       for (idx i = b; i < e; ++i) s += x[i];
                                       return s;
                                     });
    });
    EXPECT_EQ(std::memcmp(&got, &base, sizeof(real)), 0) << "t=" << t;
  }
}

TEST(ThreadsDeterminism, SpmvFamilyBitIdentical) {
  Rng rng(0x51);
  const la::Csr a = random_spd(rng, 20000, 6);
  const std::vector<real> x = random_vector(rng, a.ncols);
  const std::vector<real> xt = random_vector(rng, a.nrows);

  auto run = [&](int t) {
    return with_threads(t, [&] {
      std::vector<std::vector<real>> out;
      std::vector<real> y(a.nrows);
      a.spmv(x, y);
      out.push_back(y);
      std::vector<real> z(a.ncols);
      a.spmv_transpose(xt, z);
      out.push_back(z);
      return out;
    });
  };
  const auto base = run(1);
  for (int t : kThreadCounts) {
    const auto got = run(t);
    expect_bitwise_equal(got[0], base[0], "spmv");
    expect_bitwise_equal(got[1], base[1], "spmv_transpose");
  }
}

TEST(ThreadsDeterminism, Blas1BitIdentical) {
  Rng rng(0xB1A5);
  const std::vector<real> x = random_vector(rng, 300000);
  const std::vector<real> y0 = random_vector(rng, 300000);
  auto run = [&](int t) {
    return with_threads(t, [&] {
      std::vector<real> y = y0, w(y0.size());
      la::axpy(0.37, x, y);
      la::aypx(-1.21, x, y);
      la::waxpby(0.5, x, 2.25, y, w);
      const real d = la::dot(x, w);
      const real n2 = la::nrm2(w);
      w.push_back(d);
      w.push_back(n2);
      return w;
    });
  };
  const auto base = run(1);
  for (int t : kThreadCounts) {
    expect_bitwise_equal(run(t), base, "blas1");
  }
}

TEST(ThreadsDeterminism, SmoothersBitIdentical) {
  Rng rng(0x5300);
  const la::Csr a = random_spd(rng, 6000, 5);
  const std::vector<real> b = random_vector(rng, a.nrows);
  const std::vector<real> x0 = random_vector(rng, a.nrows);

  // Two steps of the shared level smoother on the whole of `a`.
  const la::CsrOperator op(a);
  const auto two_steps = [&](const mg::LevelSolve& s) {
    la::MultiVec bm(a.nrows, 1), xm(a.nrows, 1);
    std::copy(b.begin(), b.end(), bm.col_data(0));
    std::copy(x0.begin(), x0.end(), xm.col_data(0));
    mg::SolveScratch ws;
    s.smooth_mv(la::SerialBackend{}, op, bm, xm, ws);
    s.smooth_mv(la::SerialBackend{}, op, bm, xm, ws);
    return std::vector<real>(xm.col(0).begin(), xm.col(0).end());
  };
  const auto built = [&](mg::SmootherKind kind, real omega, int degree) {
    mg::MgOptions mo;
    mo.smoother = kind;
    mo.omega = omega;
    mo.cheby_degree = degree;
    mg::LevelSolve s;
    s.build_smoother(la::SerialBackend{}, op, a, 0, mo);
    return s;
  };
  auto run = [&](int t) {
    return with_threads(t, [&] {
      std::vector<std::vector<real>> out;
      out.push_back(two_steps(built(mg::SmootherKind::kJacobi, 0.7, 3)));
      // Setup included: the power-iteration eigenvalue estimate must
      // itself be thread-count invariant.
      out.push_back(two_steps(built(mg::SmootherKind::kChebyshev, 0.6, 4)));
      mg::LevelSolve bj;
      bj.set_block_jacobi(a, partition::contiguous_blocks(a.nrows, 37), 0.6);
      out.push_back(two_steps(bj));
      return out;
    });
  };
  const auto base = run(1);
  for (int t : kThreadCounts) {
    const auto got = run(t);
    expect_bitwise_equal(got[0], base[0], "jacobi");
    expect_bitwise_equal(got[1], base[1], "chebyshev");
    expect_bitwise_equal(got[2], base[2], "block jacobi");
  }
}

TEST(ThreadsDeterminism, GalerkinTripleProductBitIdentical) {
  Rng rng(0x6A1);
  const la::Csr a = random_spd(rng, 12000, 6);
  const la::Csr r = random_restriction(rng, 3000, a.nrows);
  auto run = [&](int t) {
    return with_threads(t, [&] { return la::galerkin_product(r, a); });
  };
  const la::Csr base = run(1);
  for (int t : kThreadCounts) {
    const la::Csr got = run(t);
    ASSERT_EQ(got.nrows, base.nrows);
    ASSERT_EQ(got.rowptr, base.rowptr) << "t=" << t;
    ASSERT_EQ(got.colidx, base.colidx) << "t=" << t;
    expect_bitwise_equal(got.vals, base.vals, "galerkin vals");
  }
}

TEST(ThreadsDeterminism, FeAssemblyBitIdentical) {
  const mesh::Mesh mesh = mesh::box_hex(6, 6, 6, {0, 0, 0}, {1, 1, 1});
  fem::DofMap dofmap(mesh.num_vertices());
  dofmap.fix_all(
      mesh.vertices_where([](const Vec3& p) { return p.z < 1e-12; }), 0);
  dofmap.finalize();
  Rng rng(0xA55E);
  const std::vector<real> u = random_vector(rng, dofmap.num_dofs());

  auto run = [&](int t) {
    return with_threads(t, [&] {
      fem::FeProblem prob(mesh, {fem::Material{}}, dofmap);
      return prob.assemble(u, /*want_stiffness=*/true);
    });
  };
  const fem::AssemblyResult base = run(1);
  for (int t : kThreadCounts) {
    const fem::AssemblyResult got = run(t);
    ASSERT_EQ(got.stiffness.rowptr, base.stiffness.rowptr) << "t=" << t;
    ASSERT_EQ(got.stiffness.colidx, base.stiffness.colidx) << "t=" << t;
    expect_bitwise_equal(got.stiffness.vals, base.stiffness.vals,
                         "stiffness vals");
    expect_bitwise_equal(got.f_int, base.f_int, "f_int");
    expect_bitwise_equal(got.bc_coupling, base.bc_coupling, "bc_coupling");
  }
}

TEST(ThreadsDeterminism, FlopAccountingIsThreadCountInvariant) {
  Rng rng(0xF20);
  const la::Csr a = random_spd(rng, 20000, 6);
  const std::vector<real> x = random_vector(rng, a.ncols);
  std::vector<real> y(a.nrows);
  std::int64_t base = -1;
  for (int t : kThreadCounts) {
    with_threads(t, [&] {
      const FlopWindow w;
      a.spmv(x, y);
      la::dot(x, x);
      const std::int64_t f = w.flops();
      if (base < 0) base = f;
      EXPECT_EQ(f, base) << "flop count drifted at t=" << t;
      return 0;
    });
  }
  // And the absolute count is what the kernels advertise.
  EXPECT_EQ(base, 2 * a.nnz() + 2 * static_cast<std::int64_t>(x.size()));
}

}  // namespace
}  // namespace prom

// The solve service: fingerprint-keyed hierarchy caching (hit/miss/LRU
// eviction semantics) and column-blocked multi-RHS solves. The bitwise
// gates are the determinism contract: column j of a k-RHS solve is
// identical to a standalone solve of that RHS at any kernel-thread count,
// rank count, and matrix format.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "app/service.h"
#include "common/error.h"
#include "common/parallel.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace prom::app {
namespace {

/// Restores the process-wide knobs a test changes: kernel threads and,
/// when one was named, an environment variable.
class EnvGuard {
 public:
  EnvGuard() = default;
  explicit EnvGuard(const char* var) : var_(var) {
    if (const char* old = std::getenv(var)) saved_ = old;
  }
  ~EnvGuard() {
    common::set_kernel_threads(0);
    if (var_ == nullptr) return;
    if (saved_) {
      ::setenv(var_, saved_->c_str(), 1);
    } else {
      ::unsetenv(var_);
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* var_ = nullptr;
  std::optional<std::string> saved_;
};

constexpr int kThreadCounts[] = {1, 2, 8};

ServiceConfig small_config(int nranks, mg::MatrixFormat format) {
  ServiceConfig sc;
  sc.nranks = nranks;
  sc.format = format;
  sc.mg.coarsest_max_dofs = 60;  // multi-level hierarchy on a small box
  return sc;
}

/// Distinct, smoothly varying right-hand sides so the columns converge at
/// different iteration counts (exercises per-column masking).
la::MultiVec make_rhs_block(idx n, int k) {
  la::MultiVec b(n, k);
  for (int j = 0; j < k; ++j) {
    real* bj = b.col_data(j);
    for (idx i = 0; i < n; ++i) {
      bj[i] = std::sin(real{0.01} * static_cast<real>(i + 1) *
                       static_cast<real>(j + 1)) +
              real{0.1} * static_cast<real>(j + 1);
    }
  }
  return b;
}

void expect_bitwise_equal(std::span<const real> a, std::span<const real> b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(real)), 0);
}

void expect_csr_bitwise(const la::Csr& a, const la::Csr& b) {
  EXPECT_EQ(a.nrows, b.nrows);
  EXPECT_EQ(a.ncols, b.ncols);
  EXPECT_EQ(a.rowptr, b.rowptr);
  EXPECT_EQ(a.colidx, b.colidx);
  expect_bitwise_equal(a.vals, b.vals);
}

/// Solves each column of `rhs` standalone and checks the k-RHS solve of
/// the full block reproduces every column bitwise (solutions and Krylov
/// results alike).
void check_blocked_matches_single(SolveService& service,
                                  const la::MultiVec& rhs) {
  SolveRequest req;
  req.mesh_id = "box";
  const int k = rhs.cols();

  std::vector<SolveResponse> singles;
  for (int j = 0; j < k; ++j) {
    req.rhs = la::MultiVec(rhs.rows(), 1);
    std::copy(rhs.col(j).begin(), rhs.col(j).end(), req.rhs.col(0).begin());
    singles.push_back(service.solve(req));
  }

  req.rhs = rhs;
  const SolveResponse multi = service.solve(req);
  ASSERT_EQ(multi.results.size(), static_cast<std::size_t>(k));
  for (int j = 0; j < k; ++j) {
    SCOPED_TRACE("column " + std::to_string(j));
    EXPECT_EQ(multi.results[j].iterations, singles[j].results[0].iterations);
    EXPECT_EQ(multi.results[j].converged, singles[j].results[0].converged);
    EXPECT_EQ(multi.results[j].final_relres,
              singles[j].results[0].final_relres);
    expect_bitwise_equal(multi.solutions.col(j),
                         singles[j].solutions.col(0));
  }
}

TEST(ServiceCache, HitMissAndFingerprintSemantics) {
  SolveService service(small_config(2, mg::MatrixFormat::kCsr));
  service.register_problem("box", make_box_problem(4));

  const EntryHandle first = service.acquire("box");
  EXPECT_EQ(service.cache_misses(), 1);
  EXPECT_EQ(service.cache_hits(), 0);
  const EntryHandle second = service.acquire("box");
  EXPECT_EQ(service.cache_misses(), 1);
  EXPECT_EQ(service.cache_hits(), 1);
  EXPECT_EQ(first.get(), second.get());  // same cached setup
  EXPECT_EQ(service.cache_size(), 1u);

  // Any option that shapes the hierarchy must change the key: distinct
  // options resolve to distinct cache entries.
  const std::string base = service.fingerprint("box");
  EXPECT_NE(base, service.fingerprint("other-mesh"));
  using Change = std::pair<const char*, void (*)(ServiceConfig&)>;
  const Change changes[] = {
      {"format", [](ServiceConfig& c) { c.format = mg::MatrixFormat::kBsr3; }},
      {"ranks", [](ServiceConfig& c) { c.nranks = 4; }},
      {"cycle", [](ServiceConfig& c) { c.cycle = mg::CycleKind::kV; }},
      {"smoother",
       [](ServiceConfig& c) { c.mg.smoother = mg::SmootherKind::kChebyshev; }},
      {"seed", [](ServiceConfig& c) { c.mg.coarsen.seed ^= 1; }},
      {"face tol", [](ServiceConfig& c) { c.mg.coarsen.face.tol = 0.9; }},
      {"inside eps",
       [](ServiceConfig& c) { c.mg.coarsen.restriction.inside_eps = 0.03; }},
      {"near hops",
       [](ServiceConfig& c) { c.mg.coarsen.restriction.near_hops = 4; }},
      {"long edge factor",
       [](ServiceConfig& c) {
         c.mg.coarsen.restriction.long_edge_factor = 3.0;
       }},
      // Reals key at round-trip precision: 6 significant digits would
      // print both as 0.6.
      {"omega", [](ServiceConfig& c) { c.mg.omega = 0.6000001; }},
  };
  for (const auto& [name, change] : changes) {
    ServiceConfig sc = small_config(2, mg::MatrixFormat::kCsr);
    change(sc);
    EXPECT_NE(base, SolveService(sc).fingerprint("box")) << name;
  }
  // The identical config reproduces the identical key.
  EXPECT_EQ(base,
            SolveService(small_config(2, mg::MatrixFormat::kCsr))
                .fingerprint("box"));
}

TEST(ServiceCache, SolveReportsHitAndReusesSetup) {
  SolveService service(small_config(2, mg::MatrixFormat::kCsr));
  service.register_problem("box", make_box_problem(4));

  SolveRequest req;
  req.mesh_id = "box";
  const SolveResponse cold = service.solve(req);
  EXPECT_FALSE(cold.cache_hit);
  const SolveResponse warm = service.solve(req);
  EXPECT_TRUE(warm.cache_hit);
  // Same setup, same rhs, workspace reuse: bitwise repeatable.
  ASSERT_EQ(cold.results.size(), 1u);
  ASSERT_EQ(warm.results.size(), 1u);
  EXPECT_TRUE(cold.results[0].converged);
  EXPECT_EQ(cold.results[0].iterations, warm.results[0].iterations);
  expect_bitwise_equal(cold.solutions.col(0), warm.solutions.col(0));
}

TEST(ServiceCache, CachedRequestSkipsSetupPhases) {
  SolveService service(small_config(2, mg::MatrixFormat::kCsr));
  service.register_problem("box", make_box_problem(4));
  SolveRequest req;
  req.mesh_id = "box";
  service.solve(req);  // cold: populates the cache

  obs::Tracer& tracer = obs::Tracer::instance();
  const bool was_tracing = obs::tracing();
  tracer.set_enabled(true);
  const std::int64_t mark = obs::Tracer::now_ns();
  const SolveResponse warm = service.solve(req);
  tracer.set_enabled(was_tracing);
  const obs::Report rep = obs::build_report(mark);

  EXPECT_TRUE(warm.cache_hit);
  // A cached request runs no setup at all: none of the setup phases may
  // appear in its tracing window, while the solve phase must.
  EXPECT_EQ(rep.phase("partition"), nullptr);
  EXPECT_EQ(rep.phase("fine_grid"), nullptr);
  EXPECT_EQ(rep.phase("mesh_setup"), nullptr);
  EXPECT_EQ(rep.phase("matrix_setup"), nullptr);
  EXPECT_NE(rep.phase("solve"), nullptr);
}

TEST(ServiceCache, EvictionLeavesInFlightHandlesValid) {
  ServiceConfig sc = small_config(2, mg::MatrixFormat::kCsr);
  sc.cache_capacity = 1;
  SolveService service(sc);
  service.register_problem("a", make_box_problem(4));
  service.register_problem("b", make_box_problem(5));

  const EntryHandle a = service.acquire("a");
  SolveRequest req_a;
  req_a.mesh_id = "a";
  const SolveResponse before = service.solve_with(a, req_a);

  // Acquiring "b" evicts "a" from the capacity-1 cache...
  service.acquire("b");
  EXPECT_EQ(service.cache_size(), 1u);
  EXPECT_EQ(service.fingerprint("b"), (*service.acquire("b")).key);

  // ...but the held handle still carries a fully valid setup.
  const SolveResponse after = service.solve_with(a, req_a);
  EXPECT_EQ(before.results[0].iterations, after.results[0].iterations);
  expect_bitwise_equal(before.solutions.col(0), after.solutions.col(0));

  // Re-acquiring "a" is a rebuild, not a resurrection.
  const std::int64_t misses = service.cache_misses();
  const EntryHandle a2 = service.acquire("a");
  EXPECT_EQ(service.cache_misses(), misses + 1);
  EXPECT_NE(a.get(), a2.get());
}

TEST(ServiceSolve, BlockedMatchesSinglePerFormatAndThreads) {
  const EnvGuard guard;
  const mg::MatrixFormat formats[] = {
      mg::MatrixFormat::kCsr, mg::MatrixFormat::kBsr3, mg::MatrixFormat::kMf};
  for (const mg::MatrixFormat format : formats) {
    SCOPED_TRACE("format " + std::to_string(static_cast<int>(format)));
    SolveService service(small_config(2, format));
    service.register_problem("box", make_box_problem(5));
    const idx n = service.acquire("box")->unknowns;
    const la::MultiVec rhs = make_rhs_block(n, 4);
    for (const int t : kThreadCounts) {
      SCOPED_TRACE("threads " + std::to_string(t));
      common::set_kernel_threads(t);
      check_blocked_matches_single(service, rhs);
    }
  }
}

TEST(ServiceSolve, BlockedMatchesSingleAcrossRanks) {
  const EnvGuard guard;
  for (const int p : {1, 2, 4}) {
    SCOPED_TRACE("ranks " + std::to_string(p));
    for (const mg::MatrixFormat format :
         {mg::MatrixFormat::kCsr, mg::MatrixFormat::kBsr3,
          mg::MatrixFormat::kMf}) {
      SCOPED_TRACE("format " + std::to_string(static_cast<int>(format)));
      SolveService service(small_config(p, format));
      service.register_problem("box", make_box_problem(4));
      const idx n = service.acquire("box")->unknowns;
      check_blocked_matches_single(service, make_rhs_block(n, 3));
    }
  }
}

TEST(ServiceRefine, FingerprintSeparatesRefineRounds) {
  SolveService service(small_config(2, mg::MatrixFormat::kCsr));
  service.register_problem("box", make_box_problem(4));
  const std::string base = service.fingerprint("box");
  // Refinement shapes the grids, so it must be part of the cache key.
  EXPECT_NE(base.find("|ref="), std::string::npos);
  EXPECT_NE(base, service.fingerprint("box", 2));
  EXPECT_NE(service.fingerprint("box", 1), service.fingerprint("box", 2));
  // A request's default (-1) resolves to the config's refine_rounds.
  {
    ServiceConfig sc = small_config(2, mg::MatrixFormat::kCsr);
    sc.refine_rounds = 2;
    SolveService with_default(sc);
    with_default.register_problem("box", make_box_problem(4));
    EXPECT_EQ(with_default.fingerprint("box"),
              with_default.fingerprint("box", 2));
    EXPECT_EQ(with_default.fingerprint("box", 2),
              service.fingerprint("box", 2));
  }
  // The marking fraction shapes which cells refine: distinct key too.
  {
    ServiceConfig sc = small_config(2, mg::MatrixFormat::kCsr);
    sc.refine_fraction = 0.25;
    SolveService other(sc);
    other.register_problem("box", make_box_problem(4));
    EXPECT_NE(service.fingerprint("box", 2), other.fingerprint("box", 2));
  }
}

TEST(ServiceRefine, DistinctRoundsAreDistinctEntries) {
  SolveService service(small_config(2, mg::MatrixFormat::kCsr));
  service.register_problem("box", make_box_problem(4));

  const EntryHandle plain = service.acquire("box");
  const EntryHandle refined = service.acquire("box", 2);
  EXPECT_EQ(service.cache_misses(), 2);
  EXPECT_NE(plain.get(), refined.get());
  EXPECT_EQ(service.cache_size(), 2u);
  // Two bisection rounds grow the unknown count past the unrefined box.
  EXPECT_GT(refined->unknowns, plain->unknowns);

  // A request carrying refine_rounds hits the refined entry and solves on
  // the refined free-dof space.
  SolveRequest req;
  req.mesh_id = "box";
  req.refine_rounds = 2;
  const SolveResponse resp = service.solve(req);
  EXPECT_TRUE(resp.cache_hit);
  ASSERT_EQ(resp.results.size(), 1u);
  EXPECT_TRUE(resp.results[0].converged);
  EXPECT_EQ(resp.solutions.rows(), refined->unknowns);
}

TEST(ServiceRefine, RefinedScalarSolveConverges) {
  ServiceConfig sc = small_config(2, mg::MatrixFormat::kCsr);
  sc.refine_rounds = 1;
  SolveService service(sc);
  service.register_problem("het", make_poisson_het_problem(4, 1e3));
  SolveRequest req;
  req.mesh_id = "het";
  const SolveResponse resp = service.solve(req);
  ASSERT_EQ(resp.results.size(), 1u);
  EXPECT_TRUE(resp.results[0].converged);
}

TEST(ServiceRefine, EmitsImbalanceGauges) {
  SolveService service(small_config(4, mg::MatrixFormat::kCsr));
  service.register_problem("box", make_box_problem(4));

  obs::Tracer& tracer = obs::Tracer::instance();
  const bool was_tracing = obs::tracing();
  tracer.set_enabled(true);
  const std::int64_t mark = obs::Tracer::now_ns();
  service.acquire("box", 2);
  tracer.set_enabled(was_tracing);
  const obs::Report rep = obs::build_report(mark);

  EXPECT_NE(rep.phase("refine"), nullptr);
  const double inherited = rep.gauge("refine.imbalance.inherited");
  const double rebalanced = rep.gauge("refine.imbalance.rebalanced");
  ASSERT_FALSE(std::isnan(inherited));
  ASSERT_FALSE(std::isnan(rebalanced));
  EXPECT_GE(inherited, 1.0);
  // The acceptance bar: the fresh RCB cut stays within 1.2 of perfect.
  EXPECT_GE(rebalanced, 1.0);
  EXPECT_LE(rebalanced, 1.2);
  EXPECT_LE(rebalanced, inherited + 1e-12);
}

TEST(ServiceRefine, ScalarRejectsNodeBlockFormats) {
  // mf is built around the elasticity element kernels; the scalar classes
  // must be rejected at entry with a message naming the combination, not
  // silently downgraded to CSR. A rejected build leaves the cache as it
  // was, so the service stays usable. (bsr3 is supported for them: their
  // 1x1 node blocks are the CSR rows, see ServiceFormat below.)
  for (const mg::MatrixFormat format : {mg::MatrixFormat::kMf}) {
    SCOPED_TRACE("format " + std::to_string(static_cast<int>(format)));
    SolveService service(small_config(2, format));
    service.register_problem("het", make_poisson_het_problem(4, 1e3));
    service.register_problem("adv", make_advdiff_problem(4, 10.0));
    EXPECT_THROW(service.acquire("het"), prom::Error);
    EXPECT_EQ(service.cache_size(), 0u);
    EXPECT_THROW(service.acquire("adv"), prom::Error);
    EXPECT_EQ(service.cache_size(), 0u);
    EXPECT_THROW(service.acquire("unregistered"), prom::Error);
    EXPECT_EQ(service.cache_size(), 0u);
    try {
      service.acquire("het");
      FAIL() << "scalar + non-CSR format must throw";
    } catch (const prom::Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("scalar equation classes"), std::string::npos)
          << what;
      EXPECT_NE(what.find(format == mg::MatrixFormat::kBsr3 ? "bsr3" : "mf"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("elasticity-only"), std::string::npos) << what;
    }
    EXPECT_EQ(service.cache_size(), 0u);
    // Elasticity keeps working in the same format: one build, then a hit.
    service.register_problem("box", make_box_problem(4));
    SolveRequest box;
    box.mesh_id = "box";
    const SolveResponse first = service.solve(box);
    EXPECT_TRUE(first.results[0].converged);
    EXPECT_FALSE(first.cache_hit);
    EXPECT_EQ(service.cache_size(), 1u);
    const SolveResponse second = service.solve(box);
    EXPECT_TRUE(second.results[0].converged);
    EXPECT_TRUE(second.cache_hit);
    EXPECT_EQ(service.cache_size(), 1u);
    EXPECT_EQ(service.cache_hits(), 1);
  }
  // The supported scalar configuration still solves.
  SolveService csr(small_config(2, mg::MatrixFormat::kCsr));
  csr.register_problem("het", make_poisson_het_problem(4, 1e3));
  EXPECT_TRUE(csr.solve({.mesh_id = "het"}).results[0].converged);
}

/// One request's outcome, with the level views its entry was built with.
struct FormatOutcome {
  SolveResponse resp;
  std::vector<bool> has_bsr;  ///< per level of rank 0's hierarchy
};

FormatOutcome solve_in_format(int p, mg::MatrixFormat format,
                              const std::string& id, ModelProblem problem,
                              const la::MultiVec& rhs) {
  ServiceConfig sc = small_config(p, format);
  sc.mg = default_mg_options(problem.equation);
  sc.mg.coarsest_max_dofs = 60;
  SolveService service(sc);
  service.register_problem(id, std::move(problem));
  FormatOutcome out;
  const EntryHandle entry = service.acquire(id);
  const dla::DistHierarchy& h = entry->per_rank[0];
  for (int l = 0; l < h.num_levels(); ++l) {
    out.has_bsr.push_back(h.level(l).a_bsr != nullptr);
  }
  SolveRequest req;
  req.mesh_id = id;
  req.rhs = rhs;
  out.resp = service.solve_with(entry, req);
  return out;
}

void expect_same_solve(const SolveResponse& a, const SolveResponse& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t j = 0; j < a.results.size(); ++j) {
    SCOPED_TRACE("column " + std::to_string(j));
    EXPECT_TRUE(a.results[j].converged);
    EXPECT_EQ(a.results[j].iterations, b.results[j].iterations);
    EXPECT_EQ(a.results[j].final_relres, b.results[j].final_relres);
    expect_bitwise_equal(a.solutions.col(static_cast<int>(j)),
                         b.solutions.col(static_cast<int>(j)));
  }
}

// Elasticity under kBsr3 (the default) runs node blocks on every level
// but the coarsest, and its solves are the CSR reference's bit for bit.
TEST(ServiceFormat, ElasticityNodeBlocksMatchCsrBitwise) {
  for (const int p : {1, 2, 4}) {
    SCOPED_TRACE("ranks " + std::to_string(p));
    const idx n = make_box_problem(4).dofmap.num_free();
    const la::MultiVec rhs = make_rhs_block(n, 3);
    const FormatOutcome bsr = solve_in_format(p, mg::MatrixFormat::kBsr3,
                                              "box", make_box_problem(4), rhs);
    const FormatOutcome csr = solve_in_format(p, mg::MatrixFormat::kCsr,
                                              "box", make_box_problem(4), rhs);
    ASSERT_GE(bsr.has_bsr.size(), 2u);
    // Every level but the coarsest, whose direct solve reads the gathered
    // CSR operator.
    const std::size_t coarsest = bsr.has_bsr.size() - 1;
    for (std::size_t l = 0; l < bsr.has_bsr.size(); ++l) {
      EXPECT_EQ(bsr.has_bsr[l], l != coarsest) << "level " << l;
      EXPECT_FALSE(csr.has_bsr[l]) << "level " << l;
    }
    expect_same_solve(bsr.resp, csr.resp);
  }
}

// A scalar class under bsr3 runs its 1x1 node blocks, which are its CSR
// rows: no level builds node blocks, and PCG (poisson_het) and GMRES
// (advdiff) solve bitwise as under csr.
TEST(ServiceFormat, ScalarClassesUnderBsr3SolveAsCsr) {
  for (const bool het : {true, false}) {
    SCOPED_TRACE(het ? "poisson_het" : "advdiff");
    const auto make = [&] {
      return het ? make_poisson_het_problem(4, 1e3)
                 : make_advdiff_problem(4, 10.0);
    };
    const idx n = make().dofmap.num_free();
    const la::MultiVec rhs = make_rhs_block(n, 2);
    const FormatOutcome bsr =
        solve_in_format(2, mg::MatrixFormat::kBsr3, "scalar", make(), rhs);
    const FormatOutcome csr =
        solve_in_format(2, mg::MatrixFormat::kCsr, "scalar", make(), rhs);
    ASSERT_GE(bsr.has_bsr.size(), 2u);
    for (std::size_t l = 0; l < bsr.has_bsr.size(); ++l) {
      EXPECT_FALSE(bsr.has_bsr[l]) << "level " << l;
    }
    expect_same_solve(bsr.resp, csr.resp);
  }
}

TEST(ServiceSolve, ChunkingCoversWideBlocks) {
  // 5 right-hand sides with PROM_RHS_BLOCK defaulting to 8 runs one
  // chunk; the chunked path is the same code either way, so just check
  // every column converges and matches its standalone solve.
  const EnvGuard guard;
  SolveService service(small_config(2, mg::MatrixFormat::kCsr));
  service.register_problem("box", make_box_problem(4));
  const idx n = service.acquire("box")->unknowns;
  check_blocked_matches_single(service, make_rhs_block(n, 5));
}

TEST(ServiceSolve, ReportCountsUnconvergedColumnsOnce) {
  // A traced three-column request cut to one iteration leaves every
  // column unconverged: the report counts each column once, however many
  // ranks solved it. A default request counts none.
  SolveService service(small_config(2, mg::MatrixFormat::kCsr));
  service.register_problem("box", make_box_problem(4));
  const idx n = service.acquire("box")->unknowns;
  SolveRequest cut;
  cut.mesh_id = "box";
  cut.rhs = make_rhs_block(n, 3);
  cut.max_iters = 1;
  SolveRequest plain;
  plain.mesh_id = "box";

  obs::Tracer& tracer = obs::Tracer::instance();
  const bool was_tracing = obs::tracing();
  tracer.set_enabled(true);
  const std::int64_t cut_mark = obs::Tracer::now_ns();
  const SolveResponse cut_resp = service.solve(cut);
  const obs::Report cut_rep = obs::build_report(cut_mark);
  const std::int64_t plain_mark = obs::Tracer::now_ns();
  const SolveResponse plain_resp = service.solve(plain);
  const obs::Report plain_rep = obs::build_report(plain_mark);
  tracer.set_enabled(was_tracing);

  for (const la::KrylovResult& r : cut_resp.results) {
    EXPECT_FALSE(r.converged);
  }
  EXPECT_TRUE(plain_resp.results[0].converged);
  EXPECT_EQ(cut_rep.counter("solve.not_converged"), 3);
  EXPECT_EQ(cut_rep.counter("solve.breakdown"), 0);
  EXPECT_EQ(plain_rep.counter("solve.not_converged"), 0);
  EXPECT_EQ(plain_rep.counter("solve.breakdown"), 0);
}

TEST(ServiceSolve, NonFiniteRhsIsRejectedBeforeTheCache) {
  SolveService service(small_config(2, mg::MatrixFormat::kCsr));
  service.register_problem("box", make_box_problem(4));
  const EntryHandle entry = service.acquire("box");
  const idx n = entry->unknowns;
  SolveRequest req;
  req.mesh_id = "box";
  for (const real bad : {std::numeric_limits<real>::quiet_NaN(),
                         std::numeric_limits<real>::infinity(),
                         -std::numeric_limits<real>::infinity()}) {
    req.rhs = make_rhs_block(n, 3);
    req.rhs.col(1)[n / 2] = bad;
    try {
      service.solve(req);
      ADD_FAILURE() << "a right-hand side holding " << bad << " was solved";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("column 1"), std::string::npos)
          << e.what();
    }
    EXPECT_THROW(service.solve_with(entry, req), Error);
  }
  EXPECT_EQ(service.cache_misses(), 1);
  EXPECT_EQ(service.cache_hits(), 0);
  EXPECT_EQ(service.cache_size(), 1u);

  // The cache is still good: a finite request hits it and matches a
  // fresh service's solve bitwise.
  req.rhs = make_rhs_block(n, 3);
  const SolveResponse cached = service.solve(req);
  EXPECT_TRUE(cached.cache_hit);
  SolveService fresh(small_config(2, mg::MatrixFormat::kCsr));
  fresh.register_problem("box", make_box_problem(4));
  const SolveResponse want = fresh.solve(req);
  EXPECT_FALSE(want.cache_hit);
  for (int j = 0; j < 3; ++j) {
    EXPECT_EQ(cached.results[j].iterations, want.results[j].iterations);
    expect_bitwise_equal(cached.solutions.col(j), want.solutions.col(j));
  }
}

TEST(ServiceSolve, RhsBlockEnvIsParsedStrictly) {
  const EnvGuard guard("PROM_RHS_BLOCK");
  ::unsetenv("PROM_RHS_BLOCK");
  EXPECT_EQ(rhs_block_from_env(), 8);
  ::setenv("PROM_RHS_BLOCK", "", 1);
  EXPECT_EQ(rhs_block_from_env(), 8);
  ::setenv("PROM_RHS_BLOCK", "3", 1);
  EXPECT_EQ(rhs_block_from_env(), 3);

  SolveService service(small_config(2, mg::MatrixFormat::kCsr));
  service.register_problem("box", make_box_problem(4));
  service.register_problem("cold", make_box_problem(4));
  const EntryHandle entry = service.acquire("box");
  SolveRequest req;
  req.mesh_id = "box";
  for (const char* bad : {"8abc", "abc", "4.5", "0", "17", "-2"}) {
    SCOPED_TRACE(bad);
    ::setenv("PROM_RHS_BLOCK", bad, 1);
    EXPECT_THROW(rhs_block_from_env(), Error);
    // The solve fails before any rank launches: no solve phase is
    // recorded, and a cold request builds nothing.
    obs::Tracer& tracer = obs::Tracer::instance();
    const bool was_tracing = obs::tracing();
    tracer.set_enabled(true);
    const std::int64_t mark = obs::Tracer::now_ns();
    EXPECT_THROW(service.solve_with(entry, req), Error);
    SolveRequest cold = req;
    cold.mesh_id = "cold";
    EXPECT_THROW(service.solve(cold), Error);
    tracer.set_enabled(was_tracing);
    const obs::Report rep = obs::build_report(mark);
    EXPECT_EQ(rep.phase("solve"), nullptr);
    EXPECT_EQ(rep.phase("matrix_setup"), nullptr);
  }
  EXPECT_EQ(service.cache_misses(), 1);
  EXPECT_EQ(service.cache_size(), 1u);
}

TEST(ServiceEntry, HoldsItsFineStiffnessOnce) {
  // The grids lend the fine stiffness to the distributed build and hand
  // it back: after acquire their level 0 holds no entries, the entry's
  // system is bitwise a fresh assembly of the same problem, and a cache
  // hit solves exactly as the cold request did.
  struct Case {
    const char* name;
    bool scalar;
    mg::MatrixFormat format;
    int refine_rounds;
  };
  const Case cases[] = {
      {"elasticity csr", false, mg::MatrixFormat::kCsr, 0},
      {"elasticity bsr3", false, mg::MatrixFormat::kBsr3, 0},
      {"elasticity mf", false, mg::MatrixFormat::kMf, 0},
      {"poisson_het", true, mg::MatrixFormat::kBsr3, 0},
      {"elasticity refined", false, mg::MatrixFormat::kBsr3, 1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ServiceConfig sc = small_config(2, c.format);
    sc.refine_rounds = c.refine_rounds;
    SolveService service(sc);
    const ModelProblem problem =
        c.scalar ? make_poisson_het_problem(4, 1e3) : make_box_problem(4);
    service.register_problem("p", problem);
    SolveRequest req;
    req.mesh_id = "p";
    const SolveResponse cold = service.solve(req);
    ASSERT_FALSE(cold.cache_hit);
    ASSERT_TRUE(cold.results[0].converged);

    const EntryHandle entry = service.acquire("p");
    EXPECT_EQ(entry->grids.level(0).a.nnz(), 0);
    EXPECT_TRUE(entry->grids.level(0).a.vals.empty());
    EXPECT_TRUE(entry->grids.level(0).a.colidx.empty());

    la::Csr fresh;
    if (c.refine_rounds > 0) {
      ASSERT_NE(entry->refined, nullptr);
      fem::FeProblem fe(entry->refined->final_mesh(), problem.materials,
                        entry->refined->final_dofmap());
      fresh = fem::assemble_linear_system(fe).stiffness;
    } else if (c.scalar) {
      fresh = fem::assemble_scalar_system(problem.mesh, problem.dofmap,
                                          problem.coeffs)
                  .stiffness;
    } else {
      fem::FeProblem fe(problem.mesh, problem.materials, problem.dofmap);
      fresh = fem::assemble_linear_system(fe).stiffness;
    }
    expect_csr_bitwise(entry->sys.stiffness, fresh);
    EXPECT_EQ(entry->unknowns, fresh.nrows);

    const SolveResponse warm = service.solve(req);
    EXPECT_TRUE(warm.cache_hit);
    EXPECT_EQ(warm.results[0].iterations, cold.results[0].iterations);
    expect_bitwise_equal(warm.solutions.col(0), cold.solutions.col(0));
  }
}

}  // namespace
}  // namespace prom::app

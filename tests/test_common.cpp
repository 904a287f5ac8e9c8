#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <thread>

#include "common/error.h"
#include "common/flops.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/timer.h"

namespace prom {
namespace {

TEST(Error, CheckThrowsWithMessage) {
  EXPECT_THROW(PROM_CHECK(false), Error);
  try {
    PROM_CHECK_MSG(1 == 2, "one is not two");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("one is not two"),
              std::string::npos);
  }
  EXPECT_NO_THROW(PROM_CHECK(true));
}

TEST(Flops, CountsPerThread) {
  reset_thread_flops();
  count_flops(10);
  count_flops(32);
  EXPECT_EQ(thread_flops(), 42);
  FlopWindow window;
  count_flops(8);
  EXPECT_EQ(window.flops(), 8);
  EXPECT_EQ(thread_flops(), 50);
  reset_thread_flops();
  EXPECT_EQ(thread_flops(), 0);
}

TEST(Flops, ThreadLocalIsolation) {
  reset_thread_flops();
  count_flops(5);
  std::int64_t other_thread_flops = -1;
  std::thread t([&] {
    reset_thread_flops();
    count_flops(100);
    other_thread_flops = thread_flops();
  });
  t.join();
  EXPECT_EQ(other_thread_flops, 100);
  EXPECT_EQ(thread_flops(), 5);
}

TEST(Rng, DeterministicAndSeedSensitive) {
  Rng a(1), b(1), c(2);
  const std::uint64_t a1 = a.next_u64();
  EXPECT_EQ(a1, b.next_u64());
  EXPECT_NE(a1, c.next_u64());
}

TEST(Rng, RealsInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_real();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, BelowBoundRespected) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t v = rng.next_below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit over 200 draws
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  EXPECT_GE(t.seconds(), 0.0);
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

TEST(PhaseTimers, AccumulatesNamedPhases) {
  PhaseTimers timers;
  timers.add("solve", 1.5);
  timers.add("solve", 0.5);
  timers.add("setup", 0.25);
  EXPECT_DOUBLE_EQ(timers.total("solve"), 2.0);
  EXPECT_DOUBLE_EQ(timers.total("setup"), 0.25);
  EXPECT_DOUBLE_EQ(timers.total("missing"), 0.0);
  { ScopedPhase phase(timers, "scoped"); }
  EXPECT_GE(timers.total("scoped"), 0.0);
  timers.clear();
  EXPECT_DOUBLE_EQ(timers.total("solve"), 0.0);
}

TEST(KernelThreads, EnvIsParsedStrictly) {
  // Parses the variable only; no pool starts at any of these widths.
  std::optional<std::string> saved;
  if (const char* old = std::getenv("PROM_THREADS")) saved = old;
  ::unsetenv("PROM_THREADS");
  EXPECT_EQ(common::threads_from_env(), 0);
  ::setenv("PROM_THREADS", "", 1);
  EXPECT_EQ(common::threads_from_env(), 0);
  ::setenv("PROM_THREADS", "4", 1);
  EXPECT_EQ(common::threads_from_env(), 4);
  for (const char* bad : {"8abc", "abc", "-3", "0", "99999999999"}) {
    SCOPED_TRACE(bad);
    ::setenv("PROM_THREADS", bad, 1);
    try {
      common::threads_from_env();
      ADD_FAILURE() << "accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("PROM_THREADS"),
                std::string::npos);
    }
  }
  if (saved) {
    ::setenv("PROM_THREADS", saved->c_str(), 1);
  } else {
    ::unsetenv("PROM_THREADS");
  }
}

}  // namespace
}  // namespace prom

// Unit tests for the support library.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>
#include <vector>

#include "support/csv.hpp"
#include "support/math.hpp"
#include "support/rng.hpp"
#include "support/single_flight.hpp"
#include "support/status.hpp"
#include "support/str.hpp"

namespace kspec {
namespace {

TEST(Math, CeilDiv) {
  EXPECT_EQ(CeilDiv(0, 4), 0);
  EXPECT_EQ(CeilDiv(1, 4), 1);
  EXPECT_EQ(CeilDiv(4, 4), 1);
  EXPECT_EQ(CeilDiv(5, 4), 2);
  EXPECT_EQ(CeilDiv(8u, 3u), 3u);
}

TEST(Math, AlignUpDown) {
  EXPECT_EQ(AlignUp(0, 16), 0);
  EXPECT_EQ(AlignUp(1, 16), 16);
  EXPECT_EQ(AlignUp(16, 16), 16);
  EXPECT_EQ(AlignUp(17, 16), 32);
  EXPECT_EQ(AlignDown(17, 16), 16);
  EXPECT_EQ(AlignDown(15, 16), 0);
}

TEST(Math, Pow2Helpers) {
  EXPECT_TRUE(IsPow2(1));
  EXPECT_TRUE(IsPow2(64));
  EXPECT_FALSE(IsPow2(0));
  EXPECT_FALSE(IsPow2(48));
  EXPECT_EQ(ILog2(1), 0u);
  EXPECT_EQ(ILog2(64), 6u);
  EXPECT_EQ(ILog2(65), 6u);
  EXPECT_EQ(NextPow2(1), 1u);
  EXPECT_EQ(NextPow2(33), 64u);
}

TEST(Str, SplitTrimJoin) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Join({"x", "y"}, "--"), "x--y");
}

TEST(Str, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("kernel.cu", "kern"));
  EXPECT_FALSE(StartsWith("k", "kern"));
  EXPECT_TRUE(EndsWith("kernel.cu", ".cu"));
  EXPECT_FALSE(EndsWith("cu", ".cu"));
}

TEST(Str, Format) {
  EXPECT_EQ(Format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(Format("%.2f", 1.5), "1.50");
}

TEST(Str, Fnv1aDistinguishes) {
  EXPECT_NE(Fnv1a("a"), Fnv1a("b"));
  EXPECT_EQ(Fnv1a("same"), Fnv1a("same"));
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(Rng, UniformRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    double v = r.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    auto n = r.NextInt(3, 9);
    EXPECT_GE(n, 3);
    EXPECT_LE(n, 9);
  }
}

TEST(Csv, EscapingAndLayout) {
  EXPECT_EQ(CsvEscape("plain"), "plain");
  EXPECT_EQ(CsvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvEscape("q\"q"), "\"q\"\"q\"");

  Table t({"name", "value"});
  t.Row() << "x" << 1.25;
  t.Row() << "y" << std::int64_t{42};
  std::ostringstream csv;
  t.WriteCsv(csv);
  EXPECT_EQ(csv.str(), "name,value\nx,1.25\ny,42\n");

  std::ostringstream ascii;
  t.WriteAscii(ascii);
  EXPECT_NE(ascii.str().find("| name | value |"), std::string::npos);
}

TEST(Status, CheckThrowsInternalError) {
  EXPECT_THROW(KSPEC_CHECK_MSG(false, "boom"), InternalError);
  EXPECT_NO_THROW(KSPEC_CHECK(true));
  try {
    KSPEC_CHECK_MSG(1 == 2, "context");
    FAIL() << "should have thrown";
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("context"), std::string::npos);
  }
}


}  // namespace
}  // namespace kspec

#include "apps/cpu_model.hpp"

namespace kspec::apps {
namespace {

TEST(CpuModel, ScalesWithWorkAndCores) {
  CpuModel m;
  EXPECT_GT(m.Millis(2e6, 1), m.Millis(1e6, 1));          // more work, more time
  EXPECT_GT(m.Millis(1e6, 1), m.Millis(1e6, 4));          // more cores, less time
  EXPECT_DOUBLE_EQ(m.Millis(1e6, 8), m.Millis(1e6, 4));   // capped at physical cores
  EXPECT_DOUBLE_EQ(m.Millis(0, 4), 0.0);
}

TEST(CpuModel, FlopCountsScaleWithProblem) {
  EXPECT_GT(MatchingFlops(200, 400), MatchingFlops(100, 400));
  EXPECT_GT(PivFlops(10, 49, 256), PivFlops(10, 25, 256));
  EXPECT_GT(BackprojFlops(1000, 20), BackprojFlops(1000, 10));
}

// Callers of one key that arrive while its call runs share that call. Each
// thread counts itself in just before Do, and the call holds on until all
// have, so every other caller finds it running.
TEST(SingleFlight, ConcurrentCallersShareOneRun) {
  constexpr int kThreads = 8;
  SingleFlight<int> flight;
  std::atomic<int> arrived{0};
  std::atomic<int> runs{0};
  std::vector<int> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      arrived.fetch_add(1);
      results[t] = flight.Do("key", [&] {
        runs.fetch_add(1);
        while (arrived.load() < kThreads) std::this_thread::yield();
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return 42;
      });
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(runs.load(), 1);
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(results[t], 42) << "thread " << t;
}

TEST(SingleFlight, ErrorReachesEveryWaiterAndIsNotLatched) {
  constexpr int kThreads = 8;
  SingleFlight<int> flight;
  std::atomic<int> arrived{0};
  std::atomic<int> runs{0};
  std::atomic<int> caught{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      arrived.fetch_add(1);
      try {
        flight.Do("key", [&]() -> int {
          runs.fetch_add(1);
          while (arrived.load() < kThreads) std::this_thread::yield();
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          throw Error("call blew up");
        });
      } catch (const Error&) {
        caught.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(caught.load(), kThreads);

  // The key was forgotten: the next call runs fn again.
  EXPECT_EQ(flight.Do("key", [&] {
              runs.fetch_add(1);
              return 7;
            }),
            7);
  EXPECT_EQ(runs.load(), 2);
}

// Each call waits (bounded) until both are inside fn, which only happens if
// distinct keys run concurrently.
TEST(SingleFlight, DistinctKeysRunConcurrently) {
  SingleFlight<int> flight;
  std::atomic<int> inside{0};
  const auto fn = [&] {
    inside.fetch_add(1);
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (inside.load() < 2 && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    return inside.load();
  };
  int a = 0;
  int b = 0;
  std::thread ta([&] { a = flight.Do("a", fn); });
  std::thread tb([&] { b = flight.Do("b", fn); });
  ta.join();
  tb.join();
  EXPECT_EQ(a, 2);
  EXPECT_EQ(b, 2);
}

}  // namespace
}  // namespace kspec

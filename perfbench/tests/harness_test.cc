// Tests of the benchmark harness's own helpers: the tail-percentile rule,
// due-time accounting of the open-loop generator, and metric naming.
#include <gtest/gtest.h>

#include <regex>
#include <set>
#include <thread>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

bool ValidName(const std::string& name) {
  static const std::regex kName("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  return std::regex_match(name, kName);
}

TEST(Tail, PicksHighestLadderRungWithTenSamplesBeyond) {
  // 10000 samples: p99.9 leaves exactly 10 beyond, so it is the tail.
  EXPECT_EQ(SamplesBeyond(10000, 99.9), 10u);
  EXPECT_DOUBLE_EQ(TailPercentile(10000), 99.9);
  // One sample fewer leaves only 9 beyond p99.9: fall back to p99.
  EXPECT_EQ(SamplesBeyond(9999, 99.9), 9u);
  EXPECT_DOUBLE_EQ(TailPercentile(9999), 99.0);
  EXPECT_DOUBLE_EQ(TailPercentile(1000), 99.0);
  EXPECT_DOUBLE_EQ(TailPercentile(999), 90.0);
  EXPECT_DOUBLE_EQ(TailPercentile(100), 90.0);
  EXPECT_DOUBLE_EQ(TailPercentile(99), 50.0);
  // Too few samples for any rung: the median is the best there is.
  EXPECT_DOUBLE_EQ(TailPercentile(5), 50.0);
  // Never above the top rung, however many samples there are.
  EXPECT_DOUBLE_EQ(TailPercentile(100000000), 99.9);
}

TEST(Tail, SummaryReadsTheChosenRung) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(1001 - i);  // unsorted 1..1000
  const auto s = Summarize(v);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.p50, 500.0);
  EXPECT_DOUBLE_EQ(s.tail_percentile, 99.0);
  EXPECT_DOUBLE_EQ(s.tail, 990.0);  // exactly 10 samples (991..1000) beyond
}

TEST(Grouped, ReportsMediansOverFullGroupsWithAFixedTailRung) {
  const auto t0 = Clock::now();
  const auto at = [&](int ms) { return t0 + std::chrono::milliseconds(ms); };
  GroupedRecorder g(t0, 1000);
  // Three groups of 1000 operations, one per second; the middle group is
  // 100x slower. Then half a group that must not count.
  for (int k = 0; k < 3; ++k) {
    for (int i = 1; i <= 1000; ++i) g.Add(at(k * 1000 + i), (k == 1 ? 100.0 : 1.0) * i);
  }
  for (int i = 1; i <= 500; ++i) g.Add(at(3000 + i), 1e9);
  EXPECT_EQ(g.groups(), 3u);
  const auto s = g.Summary();
  EXPECT_EQ(s.windows, 3);
  EXPECT_EQ(s.samples_per_window, 1000u);
  // 1000 samples per group: p99 leaves exactly 10 beyond, whatever the rate.
  EXPECT_DOUBLE_EQ(s.tail_percentile, 99.0);
  EXPECT_DOUBLE_EQ(s.p50, 500.0);   // median of 500, 50000, 500
  EXPECT_DOUBLE_EQ(s.tail, 990.0);  // median of 990, 99000, 990
  EXPECT_NEAR(s.rate_per_s, 1000.0, 1e-6);
  EXPECT_NEAR(s.window_s, 1.0, 1e-9);
}

TEST(OpenLoop, ServerStallInflatesLaterRequestsFromTheirDueTime) {
  // One request every 2 ms; request 5 stalls the "server" for 200 ms. The
  // margins tolerate scheduler hiccups of tens of milliseconds on a busy box.
  std::vector<double> due;
  for (int i = 0; i < 150; ++i) due.push_back(0.002 * i);
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const auto r = RunOpenLoop(due, start, start + std::chrono::seconds(2), [](std::size_t i) {
    if (i == 5) std::this_thread::sleep_for(std::chrono::milliseconds(200));
    return true;
  });
  ASSERT_EQ(r.attempted, 150u);
  ASSERT_EQ(r.latency_us.size(), 150u);
  EXPECT_LT(r.latency_us[2], 50000.0);
  EXPECT_GE(r.latency_us[5], 200000.0);
  // Request 6 was due 2 ms after request 5 but could only leave when the
  // stall ended: its latency counts the wait (~198 ms), not just service.
  EXPECT_GE(r.latency_us[6], 195000.0);
  EXPECT_GE(r.late_us[6], 195000.0);
  // Each later request waited a little less; request 50, due 90 ms after
  // request 5, still waited about 110 ms.
  EXPECT_GE(r.latency_us[50], 105000.0);
  // The backlog drains: request 149 was due long after the stall ended.
  EXPECT_LT(r.latency_us[149], 50000.0);
}

TEST(OpenLoop, StopsAtTheFirstDueTimePastStopAndCountsFailures) {
  const std::vector<double> due = {0.0, 0.001, 0.002, 10.0};
  const auto start = Clock::now();
  const auto r = RunOpenLoop(due, start, start + std::chrono::milliseconds(100),
                             [](std::size_t i) { return i != 1; });
  EXPECT_EQ(r.attempted, 3u);
  EXPECT_EQ(r.failed, 1u);
  EXPECT_EQ(r.latency_us.size(), 2u);
}

TEST(Names, EveryWorkloadAndMetricNameIsValidAndUnique) {
  std::set<std::string> names;
  for (const char* w : WorkloadNames()) {
    EXPECT_TRUE(ValidName(w)) << w;
    EXPECT_TRUE(names.insert(w).second) << w;
  }
  bool has_setup = false;
  for (const auto& m : EndToEndMetrics()) {
    EXPECT_TRUE(ValidName(m.name)) << m.name;
    EXPECT_TRUE(names.insert(m.name).second) << m.name;
    has_setup |= std::string(m.name) == "setup_s" && std::string(m.unit) == "s";
  }
  EXPECT_TRUE(has_setup);
  for (const auto& m : PerLayerMetrics()) {
    EXPECT_TRUE(ValidName(m.name)) << m.name;
    EXPECT_TRUE(names.insert(m.name).second) << m.name;
  }
  EXPECT_FALSE(ValidName(""));
  EXPECT_FALSE(ValidName("_x"));
  EXPECT_FALSE(ValidName("a b"));
  EXPECT_FALSE(ValidName(std::string(65, 'a')));
}

TEST(Zipf, QuantileSizesAreHeavyTailedAndSeedFree) {
  const auto sizes = ZipfQuantileSizes(2000, 1.5, 20000);
  ASSERT_EQ(sizes.size(), 2000u);
  EXPECT_GE(sizes.front(), sizes.back());
  EXPECT_EQ(sizes.back(), 1);
  EXPECT_GT(sizes.front(), 1000);
  EXPECT_EQ(sizes, ZipfQuantileSizes(2000, 1.5, 20000));
}

}  // namespace
}  // namespace perfbench

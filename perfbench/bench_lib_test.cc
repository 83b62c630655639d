// Tests of the benchmark's own measurement rules on synthetic inputs:
// the percentile rule, intended-start latency charging, the rate
// ladder's sustained-rate decision and span self-time arithmetic.

#include "bench_lib.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace perfbench {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1, 2, ..., n
  return v;
}

TEST(PercentileRule, NearestRankOnARamp) {
  std::vector<double> v = Ramp(1000);
  std::reverse(v.begin(), v.end());  // order must not matter
  EXPECT_EQ(Percentile(v, 50), 500);
  EXPECT_EQ(Percentile(v, 99), 990);
  EXPECT_EQ(Percentile(v, 99.9), 999);
  EXPECT_EQ(Percentile(v, 100), 1000);
  EXPECT_EQ(Percentile({}, 99), 0);
}

TEST(PercentileRule, MedianAveragesTheMiddlePair) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(PercentileRule, HighestPercentileWithTenSamplesBeyond) {
  // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
  Tail tail = TailPercentile(Ramp(1000));
  EXPECT_EQ(tail.pct, 99);
  EXPECT_EQ(tail.value, 990);
  EXPECT_EQ(tail.samples, 1000u);

  // 999 samples: p99 is rank 990, 9 beyond -> fall back to p90.
  tail = TailPercentile(Ramp(999));
  EXPECT_EQ(tail.pct, 90);
  EXPECT_EQ(tail.samples, 999u);

  // 10000 samples allow p99.9 (10 beyond) but not p99.99.
  EXPECT_EQ(TailPercentile(Ramp(10000)).pct, 99.9);
  EXPECT_EQ(TailPercentile(Ramp(100000)).pct, 99.99);

  // Too few for even the median.
  tail = TailPercentile(Ramp(15));
  EXPECT_EQ(tail.pct, 0);
  EXPECT_EQ(tail.samples, 15u);
  EXPECT_EQ(TailPercentile(Ramp(20)).pct, 50);
}

TEST(PercentileRule, AllowedCountsSamplesStrictlyBeyond) {
  EXPECT_TRUE(PercentileAllowed(1000, 99));
  EXPECT_FALSE(PercentileAllowed(999, 99));
  EXPECT_TRUE(PercentileAllowed(999, 99, 9));
  EXPECT_FALSE(PercentileAllowed(0, 50));
}

TEST(PercentileRule, WindowedPercentileIgnoresOneSpoiledWindow) {
  std::vector<double> samples(6000, 1.0);
  // A stall spoils the second window's tail.
  for (size_t i = 1000; i < 1100; ++i) samples[i] = 50.0;
  EXPECT_EQ(Percentile(samples, 99), 50.0);
  EXPECT_EQ(WindowedPercentile(samples, 6, 99), 1.0);
  // Spoil four of six windows and the median window is spoiled too.
  for (size_t w : {0, 2, 3}) {
    for (size_t i = w * 1000; i < w * 1000 + 100; ++i) samples[i] = 50.0;
  }
  EXPECT_EQ(WindowedPercentile(samples, 6, 99), 50.0);
  EXPECT_EQ(WindowedPercentile({1, 2}, 3, 99), 0);
}

// One generator serving ops in order on the schedule (op i starts no
// sooner than it is due, nor before op i-1 is done) with the given
// service times; returns each op's charged latency in ms.
std::vector<double> SimulateOpenLoopLatencies(
    double ops_per_sec, const std::vector<double>& service_ms) {
  const Clock::time_point start{};
  Clock::time_point free_at = start;
  std::vector<double> latencies;
  for (size_t i = 0; i < service_ms.size(); ++i) {
    Clock::time_point intended = IntendedStart(start, ops_per_sec, i);
    Clock::time_point begin = std::max(intended, free_at);
    free_at = begin + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double, std::milli>(
                              service_ms[i]));
    latencies.push_back(ChargedLatencyMs(intended, free_at));
  }
  return latencies;
}

TEST(LatencyCharge, IntendedStartFollowsTheSchedule) {
  const Clock::time_point start{};
  EXPECT_EQ(IntendedStart(start, 1000, 0), start);
  EXPECT_EQ(IntendedStart(start, 1000, 250) - start,
            std::chrono::milliseconds(250));
  EXPECT_DOUBLE_EQ(
      ChargedLatencyMs(start, start + std::chrono::microseconds(1500)), 1.5);
}

TEST(LatencyCharge, StallIsChargedToTheOpsQueuedBehindIt) {
  // 1000 ops/s, 0.1 ms service, but op 0 stalls for 10.05 ms: ops
  // 1..10 were due while it ran, and each is charged its wait.
  std::vector<double> service(20, 0.1);
  service[0] = 10.05;
  std::vector<double> latency = SimulateOpenLoopLatencies(1000, service);
  EXPECT_NEAR(latency[0], 10.05, 1e-6);
  EXPECT_NEAR(latency[1], 10.05 + 0.1 - 1, 1e-6);  // due at 1 ms
  EXPECT_NEAR(latency[5], 10.05 + 0.5 - 5, 1e-6);
  for (size_t i = 1; i < 10; ++i) EXPECT_GT(latency[i], latency[i + 1]);
  // Once the backlog drains, ops see only their service time again.
  EXPECT_NEAR(latency[15], 0.1, 1e-6);
}

TEST(LatencyCharge, ClosedLoopChargeWouldHideTheStall) {
  // The same stall measured from actual send time (a closed loop's
  // view) charges only op 0; the open-loop charge keeps the queue.
  std::vector<double> service(10, 0.1);
  service[0] = 5.0;
  std::vector<double> latency = SimulateOpenLoopLatencies(1000, service);
  size_t over_one_ms = std::count_if(latency.begin(), latency.end(),
                                     [](double ms) { return ms > 1.0; });
  EXPECT_EQ(over_one_ms, 5u);  // ops 0..4 were due before op 0 finished
}

StepResult Step(double rate, bool pass) {
  StepResult step;
  step.rate = rate;
  step.scheduled = step.completed = 1000;
  step.achieved = rate * 0.999;
  step.p99_ms = pass ? 1.0 : 25.0;
  return step;
}

TEST(RateLadderDecision, StepPassNeedsEveryCondition) {
  StepResult ok = Step(1000, true);
  EXPECT_TRUE(StepPasses(ok, 10));
  StepResult failed = ok;
  failed.failed = 1;
  EXPECT_FALSE(StepPasses(failed, 10));
  StepResult lost = ok;
  lost.completed = 999;
  EXPECT_FALSE(StepPasses(lost, 10));
  StepResult slow = ok;
  slow.p99_ms = 10.5;
  EXPECT_FALSE(StepPasses(slow, 10));
  StepResult backlog = ok;
  backlog.end_late_ms = 12;
  EXPECT_FALSE(StepPasses(backlog, 10));
  EXPECT_FALSE(StepPasses(StepResult(), 10));
}

// Drives a ladder against a system whose capacity is `capacity`;
// `flaky` lists rates whose first attempt fails anyway.
RateLadder Climb(double capacity, std::vector<double> flaky = {}) {
  RateLadder::Options options;
  options.start_rate = 1000;
  RateLadder ladder(options);
  while (!ladder.done()) {
    double rate = ladder.NextRate();
    auto it = std::find(flaky.begin(), flaky.end(), rate);
    bool pass = rate <= capacity && it == flaky.end();
    if (it != flaky.end()) flaky.erase(it);
    ladder.Record(Step(rate, pass));
  }
  return ladder;
}

// Lowest rate the ladder tried that lies above its sustained rate.
double NextTriedAbove(const RateLadder& ladder) {
  double next = 0;
  for (const StepResult& s : ladder.steps()) {
    if (s.rate > ladder.Sustained().rate && (next == 0 || s.rate < next)) {
      next = s.rate;
    }
  }
  return next;
}

TEST(RateLadderDecision, BisectsToTheHighestPassingStep) {
  RateLadder ladder = Climb(2500);
  // Climb: 1000 and 2000 pass, 4000 fails twice. Bisection at the
  // geometric mean: 2828.4 fails twice, 2378.4 passes, 2593.6 fails
  // twice, 2483.7 passes, 2538.1 fails twice; 2538.1 / 2483.7 <= 1.04,
  // so 2538.1 is run a third time, fails, and the ladder ends.
  const double fail1 = std::sqrt(2000.0 * 4000.0);  // 2828.4
  const double pass1 = std::sqrt(2000.0 * fail1);   // 2378.4
  const double fail2 = std::sqrt(pass1 * fail1);    // 2593.6
  EXPECT_TRUE(ladder.finished());
  EXPECT_DOUBLE_EQ(ladder.Sustained().rate, std::sqrt(pass1 * fail2));
  EXPECT_EQ(ladder.steps().size(), 13u);
  EXPECT_DOUBLE_EQ(ladder.NextRate(), 0);
}

TEST(RateLadderDecision, AdjacentStepsAroundTheResultAreWithinTenPercent) {
  for (double capacity : {700.0, 1000.0, 2500.0, 5000.0, 31000.0, 1e6}) {
    RateLadder ladder = Climb(capacity);
    const double sustained = ladder.Sustained().rate;
    EXPECT_TRUE(ladder.finished()) << capacity;
    EXPECT_LE(sustained, capacity);
    EXPECT_GT(sustained, capacity / 1.04);
    const double next = NextTriedAbove(ladder);
    EXPECT_GT(next, capacity);
    EXPECT_LE(next / sustained, 1.04);
  }
}

TEST(RateLadderDecision, StepCountGrowsWithTheLogOfCapacity) {
  // A thousand times the capacity costs ten more climb steps, not a
  // longer run per step.
  const size_t small = Climb(2500).steps().size();
  const size_t large = Climb(2.5e6).steps().size();
  EXPECT_LE(large, small + 12);
  EXPECT_LT(large, static_cast<size_t>(RateLadder::kMaxSteps));
}

TEST(RateLadderDecision, OneFlakyStepIsRetriedNotFatal) {
  RateLadder ladder = Climb(2500, {2000});
  EXPECT_DOUBLE_EQ(ladder.Sustained().rate, Climb(2500).Sustained().rate);
  EXPECT_EQ(ladder.steps().size(), Climb(2500).steps().size() + 1);
}

TEST(RateLadderDecision, AFalseBracketIsRetestedAndLeftBehind) {
  // 2000 fails twice although the capacity is 2500, so bisection first
  // closes in on 2000 from below; the re-test of 2000 passes and the
  // climb goes on to the true capacity.
  RateLadder ladder = Climb(2500, {2000, 2000});
  EXPECT_TRUE(ladder.finished());
  EXPECT_DOUBLE_EQ(ladder.Sustained().rate, Climb(2500).Sustained().rate);
}

TEST(RateLadderDecision, StepsDownWhenTheStartRateFails) {
  // Capacity 300 under a start of 1000: 1000 and 500 each fail twice,
  // 250 passes, and bisection between 250 and 500 closes in on 300.
  RateLadder ladder = Climb(300);
  EXPECT_TRUE(ladder.finished());
  EXPECT_LE(ladder.Sustained().rate, 300);
  EXPECT_GT(ladder.Sustained().rate, 300 / 1.04);
  // A system that never passes ends at the floor with nothing sustained:
  // 1000, 500, 250, 125 and 62.5 each fail twice.
  ladder = Climb(0);
  EXPECT_TRUE(ladder.finished());
  EXPECT_EQ(ladder.Sustained().rate, 0);
  EXPECT_EQ(ladder.steps().size(), 10u);
}

TEST(RateLadderDecision, StepCapEndsALadderUnfinished) {
  // Every step passes, so the climb never brackets a capacity.
  RateLadder ladder = Climb(std::numeric_limits<double>::infinity());
  EXPECT_TRUE(ladder.done());
  EXPECT_FALSE(ladder.finished());
  EXPECT_FALSE(ladder.bracketed());
  EXPECT_EQ(ladder.steps().size(),
            static_cast<size_t>(RateLadder::kMaxSteps));
  EXPECT_DOUBLE_EQ(ladder.NextRate(), 0);
}

Span MakeSpan(uint64_t id, uint64_t parent, int64_t start, int64_t end) {
  return Span{id, parent, 1, "span", start, end};
}

TEST(SpanSelfTime, SubtractsTheUnionOfChildren) {
  Span parent = MakeSpan(1, 0, 0, 100);
  EXPECT_EQ(SelfTimeNs(parent, {}), 100);
  EXPECT_EQ(SelfTimeNs(parent, {MakeSpan(2, 1, 10, 30)}), 80);
  // Overlapping children count once: [10,30) U [20,50) = 40.
  EXPECT_EQ(SelfTimeNs(parent, {MakeSpan(2, 1, 10, 30), MakeSpan(3, 1, 20, 50)}),
            60);
  // Child time outside the parent is clipped: only [90,100) counts.
  EXPECT_EQ(SelfTimeNs(parent, {MakeSpan(2, 1, 90, 130)}), 90);
  // A child nested in another child still counts once.
  EXPECT_EQ(SelfTimeNs(parent, {MakeSpan(2, 1, 0, 100), MakeSpan(3, 1, 5, 6)}),
            0);
}

TEST(SpanSelfTime, TotalsByNameUseDirectChildrenOnly) {
  // op [0,100) -> call [10,90) -> parse [20,30), execute [30,70).
  std::vector<Span> spans = {
      Span{1, 0, 7, "op", 0, 100},
      Span{2, 1, 7, "call", 10, 90},
      Span{3, 2, 7, "parse", 20, 30},
      Span{4, 2, 7, "execute", 30, 70},
      Span{5, 0, 8, "op", 200, 250},
  };
  std::map<std::string, double> self = SelfTimesMs(spans);
  EXPECT_DOUBLE_EQ(self["op"], (20 + 50) / 1e6);
  EXPECT_DOUBLE_EQ(self["call"], 30 / 1e6);
  EXPECT_DOUBLE_EQ(self["parse"], 10 / 1e6);
  EXPECT_DOUBLE_EQ(self["execute"], 40 / 1e6);
  // Self times of a tree add up to the roots' durations.
  double total = 0;
  for (const auto& [name, ms] : self) total += ms;
  EXPECT_DOUBLE_EQ(total, 150 / 1e6);
}

TEST(SpanSelfTime, TracerRecordsOnlyWhenEnabled) {
  Tracer off(false);
  EXPECT_EQ(off.Add("x", 0, 1, 0, 10), 0u);
  EXPECT_TRUE(off.spans().empty());
  Tracer on(true);
  uint64_t root = on.ReserveId();
  uint64_t child = on.Add("child", root, 3, 5, 8);
  on.AddWithId(root, "root", 0, 3, 0, 10);
  ASSERT_EQ(on.spans().size(), 2u);
  EXPECT_NE(root, child);
  EXPECT_EQ(on.spans()[0].parent, root);
  EXPECT_EQ(SelfTimesMs(on.spans())["root"], 7 / 1e6);
}

TEST(ResultLine, HasExactlyTheContractKeys) {
  std::string line = ResultLine(true, 12, 0,
                                {{"setup_s", 0.8127, "s"},
                                 {"latency_ms", 1.2034, "ms"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, "
            "\"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, "
            "\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}}}");
  EXPECT_EQ(JsonNumber(0.1 + 0.2), "0.30000000000000004");
  EXPECT_EQ(JsonQuote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
}

}  // namespace
}  // namespace perfbench

// Helpers of the KBForge benchmark that carry its measurement rules:
// the percentile rule, the open-loop latency charge, the rate ladder
// that finds sustained throughput, the in-memory span tracer and the
// result line. Pure functions and small classes, so that
// bench_lib_test.cc can check each rule on synthetic inputs.
#ifndef KBFORGE_PERFBENCH_BENCH_LIB_H_
#define KBFORGE_PERFBENCH_BENCH_LIB_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

// ---- Percentiles ---------------------------------------------------

/// Nearest-rank percentile of `samples` (need not be sorted); `pct` in
/// (0, 100]. 0 for an empty input.
double Percentile(std::vector<double> samples, double pct);

/// Median of `samples` (mean of the two middle values for even sizes);
/// 0 for an empty input.
double Median(std::vector<double> samples);

/// The tail the percentile rule allows: the highest of the ladder
/// percentiles 50, 90, 99, 99.9 and 99.99 that has at least
/// `min_beyond` samples strictly above its nearest rank.
struct Tail {
  double pct = 0;      ///< 0 when even p50 lacks `min_beyond` samples
  double value = 0;    ///< the percentile's value
  size_t samples = 0;  ///< sample count the rule was applied to
};
Tail TailPercentile(const std::vector<double>& samples,
                    size_t min_beyond = 10);

/// True if the nearest-rank `pct` percentile of `n` samples has at
/// least `min_beyond` samples beyond it.
bool PercentileAllowed(size_t n, double pct, size_t min_beyond = 10);

/// Splits `samples` (in arrival order) into `windows` consecutive
/// equal slices, takes the `pct` percentile of each, and returns the
/// median of those. A stall of the machine the benchmark shares spoils
/// the windows it overlaps, not the figure. 0 when there are fewer
/// samples than windows.
double WindowedPercentile(const std::vector<double>& samples, size_t windows,
                          double pct);

// ---- Open-loop latency charge --------------------------------------

/// The schedule loadgen::RunOpenLoop follows: op i is due at
/// start + i * interval, the interval truncated to the clock's tick
/// exactly as RunOpenLoop truncates it.
Clock::duration OpenLoopInterval(double ops_per_sec);
Clock::time_point IntendedStart(Clock::time_point start, double ops_per_sec,
                                uint64_t op_index);

/// Milliseconds from an op's intended start to its completion. Time
/// the op spent waiting behind earlier ops counts: that is the
/// coordinated-omission-safe charge.
double ChargedLatencyMs(Clock::time_point intended, Clock::time_point done);

// ---- Rate ladder ---------------------------------------------------

/// What one ladder step observed.
struct StepResult {
  double rate = 0;           ///< offered ops/s
  uint64_t scheduled = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;       ///< errors, sheds and wrong answers
  double p99_ms = 0;         ///< of ops charged from intended start
  double achieved = 0;       ///< completed / wall seconds
  double end_late_ms = 0;    ///< generator lateness over the last tenth
};

/// A step passes when no op failed or went missing, p99 stays under
/// the limit, and the generator was not still running late at the end
/// (a growing backlog).
bool StepPasses(const StepResult& step, double p99_limit_ms);

/// Finds the highest offered rate that passes. A geometric climb
/// (doubling from the start rate) brackets the capacity between a
/// passing and a failing rate; bisection (at the geometric mean) then
/// narrows the bracket until the two are at most 4% apart, so adjacent
/// steps around the result are well within 10%. The number of steps
/// grows with the logarithm of the capacity, so a faster server does
/// not need a longer run. A failing step is retried once before it
/// counts, and the failing end of a closed bracket is run a third time:
/// if it then passes, the search goes on above it, so a hiccup of a
/// shared machine does not cap the result. If even the start rate
/// fails, the climb first halves the rate (to no lower than
/// start_rate / 16) until a step passes.
class RateLadder {
 public:
  struct Options {
    double start_rate = 500;
    double p99_limit_ms = 10;
  };
  /// Steps after which a ladder stops unfinished (done() but not
  /// finished()); the climb and bisection need far fewer.
  static constexpr int kMaxSteps = 64;

  explicit RateLadder(const Options& options);

  /// Rate of the next step to run; 0 once the ladder is done.
  double NextRate() const;
  /// Records the step just run at NextRate().
  void Record(const StepResult& step);
  bool done() const { return done_; }
  /// True when the ladder ended by its own rule, not by kMaxSteps.
  bool finished() const { return finished_; }
  /// True once a failing rate bounds the search from above.
  bool bracketed() const { return FailBound() > 0; }

  /// Highest passing step; a zero rate when no step passed.
  const StepResult& Sustained() const { return best_; }
  const std::vector<StepResult>& steps() const { return steps_; }

 private:
  void Finish();
  /// Lowest rate above the best pass that failed twice; 0 if none.
  double FailBound() const;

  Options options_;
  bool retrying_ = false;
  bool confirming_ = false;
  bool done_ = false;
  bool finished_ = false;
  double next_ = 0;
  std::vector<double> failed_rates_;  ///< rates that failed twice
  StepResult best_;
  std::vector<StepResult> steps_;
};

// ---- Tracing -------------------------------------------------------

/// One recorded interval. Spans of one op share `op`; `parent` is the
/// id of the enclosing span (0 = root).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t op = 0;
  std::string name;
  int64_t start_ns = 0;  ///< since the tracer's epoch
  int64_t end_ns = 0;
};

/// Records spans in memory (thread-safe); written out at exit. A
/// disabled tracer records nothing and returns id 0.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  int64_t NowNs() const;
  int64_t ToNs(Clock::time_point t) const;

  /// Records a finished span; returns its id.
  uint64_t Add(const std::string& name, uint64_t parent, uint64_t op,
               int64_t start_ns, int64_t end_ns);
  /// Reserves an id for a span whose children are recorded before it
  /// ends; finish it with AddWithId.
  uint64_t ReserveId();
  void AddWithId(uint64_t id, const std::string& name, uint64_t parent,
                 uint64_t op, int64_t start_ns, int64_t end_ns);

  std::vector<Span> spans() const;
  /// Writes {"spans":[{"id","parent","op","name","start_ns","end_ns"}]}.
  bool WriteJson(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;     // guarded by mu_
  std::vector<Span> spans_;  // guarded by mu_
};

/// A span's self time: its duration minus the part of it that its
/// direct children cover (overlapping children count once; child time
/// outside the parent does not count).
int64_t SelfTimeNs(const Span& span, const std::vector<Span>& children);

/// Total self time per span name, in ms, over every span.
std::map<std::string, double> SelfTimesMs(const std::vector<Span>& spans);

// ---- Result line ---------------------------------------------------

/// One named metric with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The benchmark's last stdout line: {"correct","attempted","failed",
/// "metrics":{name:{"value","unit"}}}, numbers with full precision.
std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

/// JSON string literal (quotes and escapes).
std::string JsonQuote(const std::string& s);

/// A double rendered with all its significant digits (JSON-safe:
/// non-finite values become 0).
std::string JsonNumber(double v);

/// Peak resident set of this process in MiB (VmHWM), since the start
/// or the last ResetPeakRss().
double PeakRssMb();
/// Current resident set of this process in MiB (VmRSS).
double RssMb();
/// Resets the peak resident set to the current one (Linux clear_refs);
/// false if the kernel refused.
bool ResetPeakRss();

}  // namespace perfbench

#endif  // KBFORGE_PERFBENCH_BENCH_LIB_H_

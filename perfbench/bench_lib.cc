#include "bench_lib.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace perfbench {

namespace {

// Nearest rank (1-based) of `pct` among `n` samples. The epsilon keeps
// 99% of 1000 at rank 990 despite 0.99 * 1000 rounding up in binary.
size_t NearestRank(size_t n, double pct) {
  double rank = std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

constexpr double kLadderPercentiles[] = {50, 90, 99, 99.9, 99.99};

// Rate ladder: the climb's factor, and the passing/failing ratio at
// which bisection stops.
constexpr double kClimbRatio = 2.0;
constexpr double kBracketRatio = 1.04;

}  // namespace

double Percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0;
  size_t rank = NearestRank(samples.size(), pct);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

bool PercentileAllowed(size_t n, double pct, size_t min_beyond) {
  if (n == 0) return false;
  return n - NearestRank(n, pct) >= min_beyond;
}

double WindowedPercentile(const std::vector<double>& samples, size_t windows,
                          double pct) {
  if (windows == 0 || samples.size() < windows) return 0;
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    const size_t begin = samples.size() * w / windows;
    const size_t end = samples.size() * (w + 1) / windows;
    per_window.push_back(Percentile(
        std::vector<double>(samples.begin() + begin, samples.begin() + end),
        pct));
  }
  return Median(per_window);
}

Tail TailPercentile(const std::vector<double>& samples, size_t min_beyond) {
  Tail tail;
  tail.samples = samples.size();
  for (double pct : kLadderPercentiles) {
    if (!PercentileAllowed(samples.size(), pct, min_beyond)) break;
    tail.pct = pct;
  }
  if (tail.pct > 0) tail.value = Percentile(samples, tail.pct);
  return tail;
}

Clock::duration OpenLoopInterval(double ops_per_sec) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / ops_per_sec));
}

Clock::time_point IntendedStart(Clock::time_point start, double ops_per_sec,
                                uint64_t op_index) {
  return start +
         OpenLoopInterval(ops_per_sec) * static_cast<int64_t>(op_index);
}

double ChargedLatencyMs(Clock::time_point intended, Clock::time_point done) {
  return std::chrono::duration<double, std::milli>(done - intended).count();
}

bool StepPasses(const StepResult& step, double p99_limit_ms) {
  return step.failed == 0 && step.completed == step.scheduled &&
         step.scheduled > 0 && step.p99_ms <= p99_limit_ms &&
         step.end_late_ms <= p99_limit_ms;
}

RateLadder::RateLadder(const Options& options)
    : options_(options), next_(options.start_rate) {}

double RateLadder::NextRate() const { return done_ ? 0 : next_; }

void RateLadder::Finish() {
  done_ = true;
  finished_ = true;
}

double RateLadder::FailBound() const {
  double bound = 0;
  for (double rate : failed_rates_) {
    if (rate > best_.rate && (bound == 0 || rate < bound)) bound = rate;
  }
  return bound;
}

void RateLadder::Record(const StepResult& step) {
  steps_.push_back(step);
  const bool passed = StepPasses(step, options_.p99_limit_ms);
  if (passed) {
    retrying_ = false;
    if (step.rate > best_.rate) best_ = step;
  } else if (confirming_) {
    Finish();  // the closed bracket's failing end failed a third time
    return;
  } else if (!retrying_) {
    retrying_ = true;  // run the same rate once more
    if (static_cast<int>(steps_.size()) >= kMaxSteps) done_ = true;
    return;
  } else {
    retrying_ = false;
    failed_rates_.push_back(step.rate);
  }
  confirming_ = false;
  const double bound = FailBound();
  if (best_.rate == 0) {
    // Nothing has passed: the start is above capacity, so step down.
    next_ = bound / kClimbRatio;
    if (next_ < options_.start_rate / 16) Finish();
  } else if (bound == 0) {
    next_ = best_.rate * kClimbRatio;
  } else if (bound / best_.rate <= kBracketRatio) {
    // The bracket is closed. Its failing end is run once more: if it now
    // passes, its two failures were a hiccup of the machine and the
    // search goes on above it.
    next_ = bound;
    confirming_ = true;
  } else {
    next_ = std::sqrt(best_.rate * bound);
  }
  if (!done_ && static_cast<int>(steps_.size()) >= kMaxSteps) done_ = true;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

int64_t Tracer::NowNs() const { return ToNs(Clock::now()); }

int64_t Tracer::ToNs(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

uint64_t Tracer::ReserveId() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

uint64_t Tracer::Add(const std::string& name, uint64_t parent, uint64_t op,
                     int64_t start_ns, int64_t end_ns) {
  uint64_t id = ReserveId();
  AddWithId(id, name, parent, op, start_ns, end_ns);
  return id;
}

void Tracer::AddWithId(uint64_t id, const std::string& name, uint64_t parent,
                       uint64_t op, int64_t start_ns, int64_t end_ns) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{id, parent, op, name, start_ns, end_ns});
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"spans\":[";
  bool first = true;
  for (const Span& s : spans()) {
    out << (first ? "\n" : ",\n") << "{\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op
        << ",\"name\":" << JsonQuote(s.name) << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}";
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

int64_t SelfTimeNs(const Span& span, const std::vector<Span>& children) {
  std::vector<std::pair<int64_t, int64_t>> covered;
  for (const Span& child : children) {
    int64_t lo = std::max(child.start_ns, span.start_ns);
    int64_t hi = std::min(child.end_ns, span.end_ns);
    if (hi > lo) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  int64_t covered_ns = 0, reach = span.start_ns;
  for (const auto& [lo, hi] : covered) {
    int64_t from = std::max(lo, reach);
    if (hi > from) covered_ns += hi - from;
    reach = std::max(reach, hi);
  }
  return (span.end_ns - span.start_ns) - covered_ns;
}

std::map<std::string, double> SelfTimesMs(const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<Span>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(s);
  }
  static const std::vector<Span> kNone;
  std::map<std::string, double> self_ms;
  for (const Span& s : spans) {
    auto it = children.find(s.id);
    self_ms[s.name] +=
        SelfTimeNs(s, it == children.end() ? kNone : it->second) / 1e6;
  }
  return self_ms;
}

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonQuote(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonQuote(metrics[i].unit) + "}";
  }
  return out + "}}";
}

namespace {

// A "VmHWM:"-style line of /proc/self/status, in MiB; 0 if absent.
double StatusMb(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, key.size(), key) == 0 && line.size() > key.size() &&
        line[key.size()] == ':') {
      return std::strtod(line.c_str() + key.size() + 1, nullptr) / 1024.0;
    }
  }
  return 0;
}

}  // namespace

double PeakRssMb() { return StatusMb("VmHWM"); }

double RssMb() { return StatusMb("VmRSS"); }

bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

}  // namespace perfbench

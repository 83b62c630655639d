// The three workloads of the KBForge benchmark and the record they
// fill. kbbench.cc parses the command line, runs one workload and
// prints the record; offline.cc and serving.cc hold the workloads.
#ifndef KBFORGE_PERFBENCH_WORKLOADS_H_
#define KBFORGE_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_lib.h"

namespace perfbench {

/// Command-line settings of one run.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/run";  ///< fixtures, traces, results
  /// Digest of the sources built; keys records one run leaves for the
  /// next run of the same code.
  std::string source_digest;
};

/// Everything one run measured and checked. Metric values are keyed by
/// the names in kEndToEnd / kPerLayer; a metric the workload does not
/// exercise is reported as 0 (per-layer only — every workload fills
/// every end-to-end metric).
struct RunRecord {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> values;
  /// Facts about the run that are not metrics (fixture sizes, thread
  /// counts, tail percentiles with their sample counts), each value
  /// already rendered as JSON.
  std::map<std::string, std::string> info;
  std::vector<std::string> errors;

  /// Records a failed output check: the run prints correct=false and
  /// exits non-zero.
  void Fail(const std::string& message);
  void Set(const std::string& name, double value) { values[name] = value; }
  void Info(const std::string& key, const std::string& value) {
    info[key] = JsonQuote(value);
  }
  void Info(const std::string& key, double value);
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, printed by every untraced run (BENCHMARK.json
/// "end_to_end" lists the same names).
extern const std::vector<MetricDef> kEndToEnd;
/// Per-layer metrics, printed by every traced run (BENCHMARK.json
/// "per_layer").
extern const std::vector<MetricDef> kPerLayer;

/// Fixed sizes and thread counts, recorded in every result.
inline constexpr size_t kOfflinePersons = 2000;
inline constexpr size_t kServingPersons = 10000;
inline constexpr int kServerIoThreads = 1;
inline constexpr int kServerWorkers = 2;
inline constexpr int kGeneratorThreads = 2;  ///< one connection each

void RunOffline(const RunArgs& args, Tracer* tracer, RunRecord* record);
/// `hot` selects serve_hot, otherwise serve_mixed.
void RunServing(const RunArgs& args, bool hot, Tracer* tracer,
                RunRecord* record);

/// Milliseconds elapsed since `start`.
double MsSince(Clock::time_point start);

}  // namespace perfbench

#endif  // KBFORGE_PERFBENCH_WORKLOADS_H_

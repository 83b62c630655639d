// kbbench: the KBForge benchmark program. Runs one workload, checks its
// outputs, prints every metric by name with its unit, and ends stdout
// with one JSON line:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 1 when an output check fails, 2 on bad usage.
//
// Usage (perfbench/run.py builds the binary and passes provenance):
//   kbbench --workload offline|serve_hot|serve_mixed --seed N
//           --seconds S --trace 0|1 [--out-dir DIR]
//           --source-digest HEX [--git-head SHA --dirty 0|1]
//   kbbench --list-metrics

#include <sched.h>
#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "workloads.h"

namespace perfbench {

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"throughput_per_s", "1/s"},
    {"ok_ratio", "ratio"},
    {"precision", "ratio"},
    {"recall", "ratio"},
};

const std::vector<MetricDef> kPerLayer = {
    // offline: construction pipeline stages (HarvestStats) and I/O.
    {"corpus.generate_ms", "ms"},
    {"nlp.annotate_ms", "ms"},
    {"extraction.extract_ms", "ms"},
    {"reasoning.reason_ms", "ms"},
    {"core.assemble_ms", "ms"},
    {"self.harvest_ms", "ms"},
    {"core.snapshot_write_ms", "ms"},
    {"reasoning.accept_ratio", "ratio"},
    {"reasoning.candidate_facts", "count"},
    {"reasoning.accepted_facts", "count"},
    // offline + serving: snapshot boot.
    {"core.snapshot_boot_ms", "ms"},
    {"core.snapshot_bytes_per_triple", "B"},
    // offline: analytics jobs.
    {"analytics.job_p50_ms", "ms"},
    {"analytics.job_p99_ms", "ms"},
    {"analytics.pagerank_ms", "ms"},
    {"analytics.pagerank_iterations", "count"},
    {"analytics.pagerank_edges", "count"},
    {"analytics.pagerank_pool_speedup", "ratio"},
    {"analytics.pagerank_threads", "count"},
    {"analytics.class_stats_ms", "ms"},
    // serving: result cache and server core.
    {"server.result_cache_hit_ratio", "ratio"},
    {"server.result_cache_hits", "count"},
    {"server.result_cache_misses", "count"},
    {"server.result_cache_evictions", "count"},
    {"server.cached_read_p50_ms", "ms"},
    {"server.request_p99_ms", "ms"},
    {"server.transport_p50_ms", "ms"},
    {"server.epoll_wakeups_per_req", "ratio"},
    {"server.rejected", "count"},
    // serving: query engine, from in-process replays and counters.
    {"query.parse_us", "us"},
    {"query.execute_us.lookup", "us"},
    {"query.execute_us.two_hop", "us"},
    {"query.execute_us.entity_agg", "us"},
    {"query.execute_us.dashboard", "us"},
    {"query.execute_us.type_scan", "us"},
    {"query.render_us", "us"},
    {"query.rows_examined_per_row", "ratio"},
    {"query.plan_cache_hit_ratio", "ratio"},
    {"query.bloom_pass_ratio", "ratio"},
    {"query.bloom_probes", "count"},
    {"core.delta_triples", "count"},
    // serving: the client's view at the reference rate (open loop, from
    // intended start; p99 is the median of six window p99s), then split
    // by op kind.
    {"client.p50_ms", "ms"},
    {"client.p99_ms", "ms"},
    {"client.read_p50_ms", "ms"},
    {"client.read_p99_ms", "ms"},
    {"client.write_p50_ms", "ms"},
    {"client.write_p99_ms", "ms"},
    // serving: span self times.
    {"self.op_wait_us", "us"},
    {"self.client_call_us", "us"},
    // load generator validity and tracing cost.
    {"loadgen.late_p99_ms", "ms"},
    {"loadgen.threads", "count"},
    {"loadgen.connections", "count"},
    {"trace.overhead_ms", "ms"},
    {"trace.spans", "count"},
};

void RunRecord::Fail(const std::string& message) {
  correct = false;
  errors.push_back(message);
  std::fprintf(stderr, "CHECK FAILED: %s\n", message.c_str());
}

void RunRecord::Info(const std::string& key, double value) {
  info[key] = JsonNumber(value);
}

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace perfbench

namespace {

using namespace perfbench;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload offline|serve_hot|serve_mixed "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR] "
               "--source-digest HEX [--git-head SHA --dirty 0|1]\n"
               "       %s --list-metrics\n",
               argv0, argv0);
  return 2;
}

bool MakeDirs(const std::string& path) {
  for (size_t pos = 0; pos != std::string::npos;) {
    pos = path.find('/', pos + 1);
    std::string prefix = path.substr(0, pos);
    if (!prefix.empty() && ::mkdir(prefix.c_str(), 0755) != 0 &&
        errno != EEXIST) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  std::string git_head, dirty;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--list-metrics") {
      for (const MetricDef& m : kEndToEnd) {
        std::printf("end_to_end %s %s\n", m.name, m.unit);
      }
      for (const MetricDef& m : kPerLayer) {
        std::printf("per_layer %s %s\n", m.name, m.unit);
      }
      return 0;
    }
    if (i + 1 >= argc) return Usage(argv[0]);
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     args.seconds > 0 && args.seconds <= 120;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--git-head") {
      git_head = value;
    } else if (flag == "--dirty") {
      dirty = value;
    } else if (flag == "--source-digest") {
      args.source_digest = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!have_seed || !have_seconds || !have_trace ||
      (args.workload != "offline" && args.workload != "serve_hot" &&
       args.workload != "serve_mixed")) {
    return Usage(argv[0]);
  }
  if (args.source_digest.empty()) {
    std::fprintf(stderr, "need --source-digest (provenance)\n");
    return 2;
  }
  if (!MakeDirs(args.out_dir + "/traces") ||
      !MakeDirs(args.out_dir + "/results")) {
    std::fprintf(stderr, "cannot create %s\n", args.out_dir.c_str());
    return 2;
  }

  RunRecord record;
  // What nproc(1) reports: the CPUs this process may run on.
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int nproc = ::sched_getaffinity(0, sizeof(cpus), &cpus) == 0
                        ? CPU_COUNT(&cpus)
                        : static_cast<int>(std::thread::hardware_concurrency());
  record.Info("workload", args.workload);
  record.Info("seed", static_cast<double>(args.seed));
  record.Info("seconds", args.seconds);
  record.Info("trace", args.trace ? 1.0 : 0.0);
  record.Info("nproc", static_cast<double>(nproc));
  // The sources are identified by content, and by commit in a git
  // checkout.
  record.Info("source_digest", args.source_digest);
  if (!git_head.empty()) {
    record.Info("git_head", git_head);
    record.info["git_dirty"] = dirty == "1" ? "true" : "false";
  }

  record.Info("server_io_threads", kServerIoThreads);
  record.Info("server_workers", kServerWorkers);
  record.Info("generator_threads", kGeneratorThreads);
  record.Info("generator_connections", kGeneratorThreads);
  // Generator validity: the load generator must not need more threads
  // than there are CPUs, or its own scheduling delays pose as latency.
  if (kGeneratorThreads > nproc) {
    record.Fail("generator threads (" + std::to_string(kGeneratorThreads) +
                ") exceed nproc (" + std::to_string(nproc) + ")");
  }

  Tracer tracer(args.trace);
  if (args.workload == "offline") {
    RunOffline(args, &tracer, &record);
  } else {
    RunServing(args, args.workload == "serve_hot", &tracer, &record);
  }

  const std::string tag = args.workload + "-seed" +
                          std::to_string(args.seed) + "-trace" +
                          (args.trace ? "1" : "0");
  if (args.trace) {
    const std::string trace_path = args.out_dir + "/traces/" + tag + ".json";
    if (!tracer.WriteJson(trace_path)) {
      record.Fail("cannot write " + trace_path);
    }
    record.Info("trace_file", trace_path);
  }

  // Human-readable lines first: every metric the run measured, by name
  // with its unit, then the provenance; the result line comes last.
  std::vector<Metric> printed;
  for (const auto* table : {&kEndToEnd, &kPerLayer}) {
    const bool selected = (table == &kPerLayer) == args.trace;
    for (const MetricDef& def : *table) {
      auto it = record.values.find(def.name);
      double value = it == record.values.end() ? 0.0 : it->second;
      if (it != record.values.end()) {
        std::printf("%-34s %14.6g %s%s\n", def.name, value, def.unit,
                    selected ? "" : "   (not reported by this run)");
      }
      if (selected) printed.push_back(Metric{def.name, value, def.unit});
    }
  }
  std::string info = "{";
  for (const auto& [key, value] : record.info) {
    if (info.size() > 1) info += ", ";
    info += JsonQuote(key) + ": " + value;
  }
  info += "}";
  std::printf("provenance %s\n", info.c_str());

  std::string errors = "[";
  for (const std::string& error : record.errors) {
    errors += (errors.size() > 1 ? ", " : "") + JsonQuote(error);
  }
  errors += "]";
  const std::string line =
      ResultLine(record.correct, record.attempted, record.failed, printed);
  std::ofstream(args.out_dir + "/results/" + tag + ".json")
      << "{\"info\": " << info << ",\n\"errors\": " << errors
      << ",\n\"result\": " << line << "}\n";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return record.correct ? 0 : 1;
}

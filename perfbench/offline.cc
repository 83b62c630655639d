// The `offline` workload: the construction half. A seeded corpus is
// harvested into a KB with kbforge_serve's default pipeline, written as
// a snapshot, booted back, and analysed with PageRank and class
// statistics. Serving code does no work here.

#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <thread>

#include "analytics/class_stats.h"
#include "analytics/pagerank.h"
#include "core/harvester.h"
#include "core/kb_snapshot.h"
#include "extraction/evaluation.h"
#include "rdf/namespaces.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace kb;

// Output floors for the harvest against the gold world. The default
// pipeline at this corpus size lands well above both; a drop below
// them is a broken pipeline, not noise.
constexpr double kMinPrecision = 0.85;
constexpr double kMinRecall = 0.5;

// Set-ups per run; their median is setup_s.
constexpr int kSetups = 9;
// Share of the run spent on builds; analytics jobs get the rest.
constexpr double kBuildShare = 0.6;
constexpr size_t kMinBuilds = 2;
constexpr size_t kMinJobs = 1000;  // p99 needs >= 10 samples beyond it
constexpr int kPoolRounds = 5;

struct Build {
  double wall_ms = 0;  ///< harvest + snapshot write
  double write_ms = 0;
  core::HarvestStats stats;
  size_t triples = 0;
  size_t accepted = 0;
};

// Spans for one traced build: the build root, the harvest with its four
// stages (laid end to end from the harvest start with HarvestStats
// durations — the stages run in sequence), and the snapshot write.
void TraceBuild(Tracer* tracer, uint64_t op, int64_t start_ns,
                int64_t harvest_end_ns, int64_t end_ns,
                const core::HarvestStats& stats) {
  uint64_t root = tracer->ReserveId();
  uint64_t harvest =
      tracer->Add("harvest", root, op, start_ns, harvest_end_ns);
  int64_t at = start_ns;
  for (const auto& [name, ms] :
       {std::pair<const char*, double>{"harvest.annotate", stats.annotate_ms},
        {"harvest.extract", stats.extract_ms},
        {"harvest.reason", stats.reason_ms},
        {"harvest.assemble", stats.assemble_ms}}) {
    int64_t end = at + static_cast<int64_t>(ms * 1e6);
    tracer->Add(name, harvest, op, at, end);
    at = end;
  }
  tracer->Add("snapshot_write", root, op, harvest_end_ns, end_ns);
  tracer->AddWithId(root, "build", 0, op, start_ns, end_ns);
}

template <typename T>
double MedianOf(const std::vector<Build>& builds, T field) {
  std::vector<double> values;
  for (const Build& b : builds) values.push_back(field(b));
  return Median(values);
}

analytics::PageRankOptions PageRankSettings(const core::KnowledgeBase& kb) {
  // The server's analytics endpoint settings: entity links only.
  const rdf::Dictionary& dict = kb.store().dict();
  analytics::PageRankOptions options;
  options.iri_objects_only = &dict;
  for (std::string_view iri : {rdf::kRdfType, rdf::kRdfsSubClassOf,
                               rdf::kRdfsLabel, rdf::kOwlSameAs}) {
    rdf::TermId id = dict.Lookup(rdf::Term::Iri(std::string(iri)));
    if (id != rdf::kInvalidTermId) options.exclude_predicates.push_back(id);
  }
  return options;
}

analytics::ClassStatsOptions ClassStatsSettings(const core::KnowledgeBase& kb) {
  const rdf::Dictionary& dict = kb.store().dict();
  analytics::ClassStatsOptions options;
  options.type_predicate =
      dict.Lookup(rdf::Term::Iri(std::string(rdf::kRdfType)));
  options.subclass_predicate =
      dict.Lookup(rdf::Term::Iri(std::string(rdf::kRdfsSubClassOf)));
  return options;
}

}  // namespace

void RunOffline(const RunArgs& args, Tracer* tracer, RunRecord* record) {
  const double budget_ms = args.seconds * 1000;
  corpus::WorldOptions world_options;
  world_options.seed = args.seed;
  world_options.num_persons = kOfflinePersons;
  corpus::CorpusOptions corpus_options;
  corpus_options.seed = args.seed + 1;

  // Spans are recorded outside every timed window, so tracing cannot
  // move a timed figure; what it adds to the run is the time spent
  // recording them, summed here as trace.overhead_ms.
  double trace_ms = 0;
  auto trace = [&](const auto& record_spans) {
    if (!args.trace) return;
    const Clock::time_point start = Clock::now();
    record_spans();
    trace_ms += MsSince(start);
  };

  // ---- Set-up: corpus generation, kSetups times ------------------
  std::vector<double> setup_ms;
  corpus::Corpus corpus;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point start = Clock::now();
    const int64_t start_ns = tracer->NowNs();
    corpus = corpus::BuildCorpus(world_options, corpus_options);
    setup_ms.push_back(MsSince(start));
    const int64_t end_ns = tracer->NowNs();
    trace([&] { tracer->Add("corpus", 0, 0, start_ns, end_ns); });
  }
  const double docs = static_cast<double>(corpus.docs.size());
  record->Set("setup_s", Median(setup_ms) / 1000);
  record->Set("corpus.generate_ms", Median(setup_ms));
  record->Info("offline_persons", static_cast<double>(kOfflinePersons));
  record->Info("offline_docs", docs);

  // ---- Builds: harvest + snapshot write, repeated ----------------
  const std::string snapshot_path =
      args.out_dir + "/offline-seed" + std::to_string(args.seed) + "-" +
      std::to_string(::getpid()) + ".kbsnap";
  core::Harvester harvester;  // default options, as kbforge_serve uses
  std::vector<Build> builds;
  std::vector<extraction::ExtractedFact> accepted;
  uint64_t failed_docs = 0;
  const Clock::time_point builds_start = Clock::now();
  // Another build starts only if it should end inside the builds' share.
  while (builds.size() < kMinBuilds ||
         MsSince(builds_start) + builds.back().wall_ms <=
             kBuildShare * budget_ms) {
    Build build;
    const Clock::time_point start = Clock::now();
    const int64_t start_ns = tracer->ToNs(start);
    core::HarvestResult result = harvester.Harvest(corpus);
    const Clock::time_point harvested = Clock::now();
    Status written = core::WriteKbSnapshot(nullptr, snapshot_path, result.kb);
    build.write_ms = MsSince(harvested);
    build.wall_ms = MsSince(start);
    const int64_t end_ns = tracer->NowNs();
    trace([&] {
      TraceBuild(tracer, builds.size() + 1, start_ns, tracer->ToNs(harvested),
                 end_ns, result.stats);
    });
    build.stats = result.stats;
    build.triples = result.kb.NumTriples();
    build.accepted = result.accepted.size();
    failed_docs += result.stats.failed_documents;
    if (!result.status.ok()) {
      record->Fail("harvest: " + result.status.ToString());
    }
    if (!written.ok()) record->Fail("snapshot write: " + written.ToString());
    if (!builds.empty() && (build.triples != builds.front().triples ||
                            build.accepted != builds.front().accepted)) {
      record->Fail("harvest of one seed not deterministic: " +
                   std::to_string(build.triples) + " vs " +
                   std::to_string(builds.front().triples) + " triples");
    }
    accepted = std::move(result.accepted);
    builds.push_back(build);
  }
  const size_t triples = builds.front().triples;
  record->Info("offline_triples", static_cast<double>(triples));
  // Across runs too: the first run of a seed on these sources records
  // its triple count, later runs of the same seed and sources must match
  // it. Other sources (a changed harvest) keep a record of their own.
  const std::string count_path =
      args.out_dir + "/offline-seed" + std::to_string(args.seed) + "-" +
      args.source_digest.substr(0, 16) + ".triples";
  size_t recorded = 0;
  if (std::ifstream(count_path) >> recorded) {
    if (recorded != triples) {
      record->Fail("seed " + std::to_string(args.seed) + " built " +
                   std::to_string(triples) + " triples, an earlier run " +
                   std::to_string(recorded));
    }
  } else {
    std::ofstream(count_path) << triples << "\n";
  }
  record->Info("offline_builds", static_cast<double>(builds.size()));
  const double build_ms = MedianOf(builds, [](const Build& b) {
    return b.wall_ms;
  });
  record->Set("throughput_per_s", docs / (build_ms / 1000));
  record->Set("nlp.annotate_ms", MedianOf(builds, [](const Build& b) {
                return b.stats.annotate_ms;
              }));
  record->Set("extraction.extract_ms", MedianOf(builds, [](const Build& b) {
                return b.stats.extract_ms;
              }));
  record->Set("reasoning.reason_ms", MedianOf(builds, [](const Build& b) {
                return b.stats.reason_ms;
              }));
  record->Set("core.assemble_ms", MedianOf(builds, [](const Build& b) {
                return b.stats.assemble_ms;
              }));
  record->Set("core.snapshot_write_ms",
              MedianOf(builds, [](const Build& b) { return b.write_ms; }));
  const core::HarvestStats& stats = builds.back().stats;
  record->Set("reasoning.candidate_facts",
              static_cast<double>(stats.candidate_facts));
  record->Set("reasoning.accepted_facts",
              static_cast<double>(stats.accepted_facts));
  record->Set("reasoning.accept_ratio",
              stats.candidate_facts == 0
                  ? 0
                  : static_cast<double>(stats.accepted_facts) /
                        static_cast<double>(stats.candidate_facts));

  // ---- Quality against the gold world ----------------------------
  PrecisionRecall quality = extraction::EvaluateFacts(
      corpus.world, accepted, extraction::ExpressedFacts(corpus.docs));
  record->Set("precision", quality.precision());
  record->Set("recall", quality.recall());
  if (quality.precision() < kMinPrecision || quality.recall() < kMinRecall) {
    record->Fail("fact quality below floor: precision " +
                 JsonNumber(quality.precision()) + ", recall " +
                 JsonNumber(quality.recall()));
  }

  // ---- Boot the snapshot -----------------------------------------
  std::vector<double> boot_ms;
  std::unique_ptr<core::KnowledgeBase> kb;
  for (int i = 0; i < kSetups; ++i) {
    kb.reset();
    const Clock::time_point start = Clock::now();
    const int64_t start_ns = tracer->ToNs(start);
    auto snapshot = core::OpenKbSnapshot(nullptr, snapshot_path);
    if (!snapshot.ok()) {
      record->Fail("snapshot open: " + snapshot.status().ToString());
      return;
    }
    kb = core::KnowledgeBase::FromSnapshot(std::move(*snapshot));
    boot_ms.push_back(MsSince(start));
    const int64_t end_ns = tracer->NowNs();
    trace([&] { tracer->Add("boot", 0, 0, start_ns, end_ns); });
  }
  if (kb->NumTriples() != triples) {
    record->Fail("booted snapshot holds " + std::to_string(kb->NumTriples()) +
                 " triples, built " + std::to_string(triples));
  }
  struct stat file {};
  if (::stat(snapshot_path.c_str(), &file) == 0 && triples > 0) {
    record->Set("core.snapshot_bytes_per_triple",
                static_cast<double>(file.st_size) /
                    static_cast<double>(triples));
  }
  ::unlink(snapshot_path.c_str());
  record->Set("core.snapshot_boot_ms", Median(boot_ms));

  // ---- Analytics jobs: one PageRank plus one class-stats pass ----
  const analytics::PageRankOptions pagerank_options = PageRankSettings(*kb);
  const analytics::ClassStatsOptions class_options = ClassStatsSettings(*kb);
  const analytics::PageRankResult reference =
      analytics::ComputePageRank(kb->store(), pagerank_options, nullptr);
  const analytics::ClassStatsResult class_reference =
      analytics::ComputeClassStats(kb->store(), class_options, nullptr);
  double rank_sum = 0;
  for (double r : reference.ranks) rank_sum += r;
  if (reference.nodes.empty() || std::abs(rank_sum - 1.0) > 1e-6 ||
      class_reference.num_classes == 0) {
    record->Fail("analytics reference is degenerate: " +
                 std::to_string(reference.nodes.size()) + " nodes, rank sum " +
                 JsonNumber(rank_sum));
  }
  std::vector<double> job_ms, pagerank_ms, class_ms;
  uint64_t bad_jobs = 0;
  const Clock::time_point jobs_start = Clock::now();
  while (job_ms.size() < kMinJobs || MsSince(builds_start) < budget_ms) {
    const uint64_t op = job_ms.size() + 1;
    const Clock::time_point start = Clock::now();
    const int64_t start_ns = tracer->ToNs(start);
    analytics::PageRankResult pagerank =
        analytics::ComputePageRank(kb->store(), pagerank_options, nullptr);
    const Clock::time_point ranked = Clock::now();
    analytics::ClassStatsResult classes =
        analytics::ComputeClassStats(kb->store(), class_options, nullptr);
    const Clock::time_point end = Clock::now();
    job_ms.push_back(ChargedLatencyMs(start, end));
    pagerank_ms.push_back(ChargedLatencyMs(start, ranked));
    class_ms.push_back(ChargedLatencyMs(ranked, end));
    trace([&] {
      uint64_t root = tracer->ReserveId();
      tracer->Add("pagerank", root, op, start_ns, tracer->ToNs(ranked));
      tracer->Add("class_stats", root, op, tracer->ToNs(ranked),
                  tracer->ToNs(end));
      tracer->AddWithId(root, "analytics_job", 0, op, start_ns,
                        tracer->ToNs(end));
    });
    if (pagerank.ranks != reference.ranks ||
        classes.counts != class_reference.counts) {
      ++bad_jobs;
    }
  }
  record->Info("analytics_jobs", static_cast<double>(job_ms.size()));
  record->Info("analytics_s", MsSince(jobs_start) / 1000);
  if (bad_jobs > 0) {
    record->Fail(std::to_string(bad_jobs) +
                 " analytics jobs disagreed with the reference result");
  }
  const Tail tail = TailPercentile(job_ms);
  record->Info("p99_samples", static_cast<double>(tail.samples));
  record->Info("tail_rule_pct", tail.pct);
  record->Set("analytics.job_p50_ms", Median(job_ms));
  record->Set("analytics.job_p99_ms", Percentile(job_ms, 99));
  record->Set("analytics.pagerank_ms", Median(pagerank_ms));
  record->Set("analytics.class_stats_ms", Median(class_ms));
  record->Set("analytics.pagerank_iterations", reference.iterations);
  record->Set("analytics.pagerank_edges",
              static_cast<double>(reference.num_edges));

  // Pool speed-up: the sharded PageRank must equal the serial one.
  const size_t threads = std::max(2u, std::thread::hardware_concurrency());
  ThreadPool pool(threads);
  std::vector<double> serial_ms, pool_ms;
  for (int round = 0; round < kPoolRounds; ++round) {
    Clock::time_point start = Clock::now();
    analytics::ComputePageRank(kb->store(), pagerank_options, nullptr);
    serial_ms.push_back(MsSince(start));
    start = Clock::now();
    analytics::PageRankResult pooled =
        analytics::ComputePageRank(kb->store(), pagerank_options, &pool);
    pool_ms.push_back(MsSince(start));
    // Chunked partial sums reorder float additions, so the pooled
    // ranks match the serial ones to rounding, not bit for bit.
    bool same = pooled.ranks.size() == reference.ranks.size();
    for (size_t i = 0; same && i < pooled.ranks.size(); ++i) {
      same = std::abs(pooled.ranks[i] - reference.ranks[i]) <= 1e-12;
    }
    if (!same) {
      record->Fail("pooled PageRank differs from serial");
      break;
    }
  }
  record->Set("analytics.pagerank_pool_speedup",
              Median(serial_ms) / Median(pool_ms));
  record->Set("analytics.pagerank_threads", static_cast<double>(threads));

  // Self time of the harvest outside its four stages, per build.
  if (args.trace) {
    std::map<std::string, double> self = SelfTimesMs(tracer->spans());
    record->Set("self.harvest_ms",
                self["harvest"] / static_cast<double>(builds.size()));
    record->Set("trace.spans", static_cast<double>(tracer->spans().size()));
    record->Set("trace.overhead_ms", trace_ms);
  }

  // ---- Totals ----------------------------------------------------
  const uint64_t doc_ops = builds.size() * corpus.docs.size();
  record->attempted = doc_ops + job_ms.size();
  record->failed = failed_docs + bad_jobs;
  record->Set("ok_ratio", 1.0 - static_cast<double>(record->failed) /
                                    static_cast<double>(record->attempted));
  record->Set("peak_rss_mb", PeakRssMb());
}

}  // namespace perfbench

// The serving workloads. A seeded ~95k-triple KB is harvested in a
// child process and written as a snapshot (input generation: neither
// timed nor counted in this process's memory), then booted behind an
// in-process server::KbServer and driven open-loop over two client
// connections:
//   serve_hot    read-only, Zipfian over 32 fixed queries, so after
//                warm-up every read is a result-cache hit;
//   serve_mixed  point lookups, 2-hop joins and per-entity aggregates
//                spread uniformly over every person, plus 10% inserts
//                of facts about fresh entities, so every write bumps
//                the epoch and the cache is bypassed.
// Each run measures a fixed reference rate below capacity, then climbs
// a rate ladder to the highest rate that holds the p99 limit.
//
// The generators pipeline: a request is sent when it is due, not when
// the previous answer is back. With one blocking call per thread (as
// loadgen::RunOpenLoop drives it) two connections can carry only two
// requests at a time, so capacity tracked the wake-up latency of idle
// CPUs, which on a shared VM swings several-fold from minute to minute.

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <deque>
#include <memory>
#include <set>
#include <thread>
#include <unordered_map>

#include "core/harvester.h"
#include "core/kb_snapshot.h"
#include "loadgen/key_chooser.h"
#include "rdf/namespaces.h"
#include "server/json.h"
#include "server/kb_server.h"
#include "server/protocol.h"
#include "server/wire_fact.h"
#include "util/metrics_registry.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace kb;

constexpr int kSetups = 9;              // median of these is setup_s
constexpr double kHotRefRate = 10000;   // ops/s, well below capacity
constexpr double kMixedRefRate = 5000;  // ops/s, well below capacity
constexpr double kRefShare = 0.4;       // of the run: reference rate
constexpr size_t kRefWindows = 6;       // p99 = median of window p99s
constexpr double kP99LimitMs = 10;      // ladder's latency limit
constexpr double kClimbStepS = 0.3;     // ladder step before the bracket
constexpr double kBisectStepS = 0.5;    // and once bisection narrows it
constexpr size_t kStepWindows = 5;      // ladder step p99 = median window
constexpr double kWriteShare = 0.10;    // serve_mixed inserts
constexpr size_t kHotQueries = 32;
constexpr size_t kReplayEvery = 16;     // traced reads replayed in-process
constexpr size_t kWarmupReads = 64;
// Read-back of acknowledged inserts checks answers, not latency, so it
// is offered far above capacity and runs as fast as kMaxInFlight lets
// it: its time does not grow with the rates the ladder reaches.
constexpr double kReadBackRate = 1e7;
// Unanswered requests a generator keeps on its connection. The server's
// queue holds both connections' worth, so the benchmark's own pipelining
// is never shed; it stays under the server's per-connection read pause
// (max_pipeline, 128).
constexpr size_t kMaxInFlight = 64;
constexpr size_t kServerQueueDepth = kGeneratorThreads * kMaxInFlight;

enum class Shape : uint8_t {
  kLookup,
  kTwoHop,
  kEntityAgg,
  kDashboard,
  kTypeScan,
};
constexpr const char* kShapeNames[] = {"lookup", "two_hop", "entity_agg",
                                       "dashboard", "type_scan"};

struct Query {
  Shape shape = Shape::kLookup;
  std::string sparql;
  size_t expected_rows = 0;  ///< the oracle's answer
};

/// One scheduled op: a read of queries[query], or an insert of the two
/// facts of fresh entity `write_id`.
struct Op {
  bool write = false;
  uint32_t query = 0;
  uint64_t write_id = 0;
};

/// What one op observed (each slot written by one generator thread).
struct OpRecord {
  double latency_ms = 0;  ///< intended start -> done
  double rtt_ms = 0;      ///< client call
  double late_ms = 0;     ///< generator lateness: intended -> send
  Clock::time_point sent_at;
  int64_t rows = -1;
  bool write = false;
  bool answered = false;  ///< a response frame came back
  bool ok = false;        ///< the response was "ok" (any row count)
  bool wrong = false;     ///< answered, but not the oracle's answer
  bool cached = false;
  bool replay = false;    ///< traced read sampled for in-process replay
};

std::string Iri(const rdf::Dictionary& dict, rdf::TermId id) {
  return "<" + std::string(dict.term(id).value()) + ">";
}

std::string FreshSubject(uint64_t seed, uint64_t write_id) {
  return "kbbench_s" + std::to_string(seed) + "_" + std::to_string(write_id);
}

std::vector<server::WireFact> FreshFacts(uint64_t seed, uint64_t write_id) {
  server::WireFact works;
  works.s = FreshSubject(seed, write_id);
  works.p = "worksFor";
  works.o = "kbbench_o" + std::to_string(seed) + "_" + std::to_string(write_id);
  server::WireFact year;
  year.s = works.s;
  year.p = "foundedYear";
  year.has_year = true;
  year.year = 1900 + static_cast<int32_t>(write_id % 100);
  return {works, year};
}

std::string ReadBackQuery(uint64_t seed, uint64_t write_id) {
  return "SELECT ?p ?o WHERE { <" +
         rdf::EntityIri(FreshSubject(seed, write_id)) + "> ?p ?o . }";
}

// ---- Fixture -------------------------------------------------------

/// Harvests the serving KB in a child process and writes it to `path`.
/// Returns the child's wall time in ms, or a negative value on failure.
double BuildFixture(uint64_t seed, const std::string& path) {
  const Clock::time_point start = Clock::now();
  std::fflush(nullptr);
  pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    corpus::WorldOptions world_options;
    world_options.seed = seed;
    world_options.num_persons = kServingPersons;
    corpus::CorpusOptions corpus_options;
    corpus_options.seed = seed + 1;
    corpus::Corpus corpus = corpus::BuildCorpus(world_options, corpus_options);
    core::HarvestResult result = core::Harvester().Harvest(corpus);
    bool ok = result.status.ok() &&
              core::WriteKbSnapshot(nullptr, path, result.kb).ok();
    std::fflush(nullptr);
    ::_exit(ok ? 0 : 1);
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return -1;
  return MsSince(start);
}

// ---- Inputs and oracle ---------------------------------------------

/// The queries of one workload with their expected row counts, derived
/// from the snapshot by brute-force scans that share no code with the
/// query engine beyond the triple scan itself.
struct Inputs {
  std::vector<Query> queries;
  size_t base_triples = 0;
  size_t persons = 0;
};

Inputs MakeInputs(const core::KnowledgeBase& kb, bool hot, uint64_t seed) {
  const rdf::Dictionary& dict = kb.store().dict();
  auto term = [&](std::string iri) {
    return dict.Lookup(rdf::Term::Iri(std::move(iri)));
  };
  const rdf::TermId type = term(std::string(rdf::kRdfType));
  const rdf::TermId born_in = term(rdf::PropertyIri("bornIn"));
  const rdf::TermId located_in = term(rdf::PropertyIri("locatedIn"));
  const rdf::TermId works_for = term(rdf::PropertyIri("worksFor"));
  const rdf::TermId member_of = term(rdf::PropertyIri("memberOf"));

  std::unordered_map<rdf::TermId, size_t> out_degree;
  std::unordered_map<rdf::TermId, std::set<rdf::TermId>> predicates;
  std::unordered_map<rdf::TermId, std::vector<rdf::TermId>> birthplace;
  std::unordered_map<rdf::TermId, size_t> located_count;
  std::unordered_map<rdf::TermId, size_t> class_size;
  std::map<rdf::TermId, std::set<rdf::TermId>> groups;  // predicate -> objects
  size_t triples = 0;
  kb.store().Scan({rdf::kAnyTerm, rdf::kAnyTerm, rdf::kAnyTerm},
                  [&](const rdf::Triple& t) {
                    ++triples;
                    ++out_degree[t.s];
                    predicates[t.s].insert(t.p);
                    if (t.p == born_in) birthplace[t.s].push_back(t.o);
                    if (t.p == located_in) ++located_count[t.s];
                    if (t.p == type) ++class_size[t.o];
                    if (t.p == works_for || t.p == born_in ||
                        t.p == member_of) {
                      groups[t.p].insert(t.o);
                    }
                    return true;
                  });
  // Persons: every subject with a birthplace, in term-id order.
  std::vector<rdf::TermId> persons;
  for (const auto& [s, cities] : birthplace) persons.push_back(s);
  std::sort(persons.begin(), persons.end());

  Inputs inputs;
  inputs.base_triples = triples;
  inputs.persons = persons.size();
  auto lookup = [&](rdf::TermId s) {
    return Query{Shape::kLookup,
                 "SELECT ?p ?o WHERE { " + Iri(dict, s) + " ?p ?o . }",
                 out_degree[s]};
  };
  if (!hot) {
    for (rdf::TermId s : persons) {
      inputs.queries.push_back(lookup(s));
      size_t two_hop = 0;
      for (rdf::TermId city : birthplace[s]) two_hop += located_count[city];
      inputs.queries.push_back(
          Query{Shape::kTwoHop,
                "SELECT ?c ?k WHERE { " + Iri(dict, s) + " " +
                    Iri(dict, born_in) + " ?c . ?c " + Iri(dict, located_in) +
                    " ?k . }",
                two_hop});
      inputs.queries.push_back(
          Query{Shape::kEntityAgg,
                "SELECT ?p (COUNT(?o) AS ?n) WHERE { " + Iri(dict, s) +
                    " ?p ?o . } GROUP BY ?p",
                predicates[s].size()});
    }
    return inputs;
  }

  // serve_hot: three top-10 dashboards, three LIMITed type scans over
  // the largest classes, and lookups of persons drawn by the seed. The
  // hottest (Zipf rank 0) query is the first dashboard.
  constexpr size_t kTopK = 10, kScanLimit = 50;
  for (rdf::TermId p : {works_for, born_in, member_of}) {
    inputs.queries.push_back(Query{
        Shape::kDashboard,
        "SELECT ?g (COUNT(?x) AS ?n) WHERE { ?x " + Iri(dict, p) +
            " ?g . } GROUP BY ?g ORDER BY DESC(?n) LIMIT " +
            std::to_string(kTopK),
        std::min(kTopK, groups[p].size())});
  }
  std::vector<std::pair<size_t, rdf::TermId>> classes;
  for (const auto& [cls, n] : class_size) classes.emplace_back(n, cls);
  std::sort(classes.rbegin(), classes.rend());
  for (size_t i = 0; i < 3 && i < classes.size(); ++i) {
    inputs.queries.push_back(
        Query{Shape::kTypeScan,
              "SELECT ?x WHERE { ?x " + Iri(dict, type) + " " +
                  Iri(dict, classes[i].second) + " . } LIMIT " +
                  std::to_string(kScanLimit),
              std::min(kScanLimit, classes[i].first)});
  }
  Rng rng(seed * 7919 + 1);
  while (inputs.queries.size() < kHotQueries && !persons.empty()) {
    inputs.queries.push_back(lookup(persons[rng.Uniform(persons.size())]));
  }
  return inputs;
}

/// Seeded op stream. serve_hot draws queries Zipfian by index;
/// serve_mixed draws reads uniformly and makes kWriteShare of the ops
/// inserts with consecutive fresh write ids.
class OpSource {
 public:
  OpSource(bool hot, size_t num_queries, uint64_t seed)
      : hot_(hot),
        zipf_(std::max<size_t>(num_queries, 1)),
        uniform_(std::max<size_t>(num_queries, 1)),
        seed_(seed) {}

  std::vector<Op> Make(size_t n, uint64_t stream) {
    Rng rng(seed_ * 1000003 + stream);
    std::vector<Op> ops(n);
    for (Op& op : ops) {
      if (!hot_ && rng.Bernoulli(kWriteShare)) {
        op.write = true;
        op.write_id = next_write_id_++;
      } else {
        op.query = static_cast<uint32_t>(hot_ ? zipf_.Next(rng)
                                              : uniform_.Next(rng));
      }
    }
    return ops;
  }

 private:
  const bool hot_;
  loadgen::ZipfianChooser zipf_;
  loadgen::UniformChooser uniform_;
  const uint64_t seed_;
  uint64_t next_write_id_ = 0;
};

// ---- The serving stack ---------------------------------------------

struct Stack {
  std::unique_ptr<core::KnowledgeBase> kb;
  std::unique_ptr<server::KbServer> server;
  std::vector<int> fds;  ///< one connection per generator thread
};

/// The request frame for one op, as server::KbClient would send it.
std::string RequestFor(const Op& op, const std::vector<Query>& queries,
                       uint64_t seed) {
  using server::Json;
  Json request = Json::Object();
  if (!op.write) {
    request.Set("op", Json::Str("query"));
    request.Set("sparql", Json::Str(queries[op.query].sparql));
    return request.Dump();
  }
  Json facts = Json::Array();
  for (const server::WireFact& wire : FreshFacts(seed, op.write_id)) {
    Json fact = Json::Object();
    fact.Set("s", Json::Str(wire.s));
    fact.Set("p", Json::Str(wire.p));
    if (wire.has_year) {
      fact.Set("year", Json::Number(wire.year));
    } else {
      fact.Set("o", Json::Str(wire.o));
    }
    facts.Append(std::move(fact));
  }
  request.Set("op", Json::Str("insert_facts"));
  request.Set("facts", std::move(facts));
  return request.Dump();
}

/// Decodes one answer and checks it against the oracle: a read must
/// return exactly the oracle's row count, an insert two new facts.
void CheckAnswer(const std::string& payload, const Op& op,
                 const std::vector<Query>& queries, OpRecord* rec) {
  rec->write = op.write;
  auto answer = server::Json::Parse(payload);
  rec->ok = answer.ok() && answer->GetString("status") == "ok";
  if (!rec->ok) return;
  if (op.write) {
    rec->rows = static_cast<int64_t>(answer->GetNumber("inserted", -1));
    rec->wrong = rec->rows != 2;
    return;
  }
  rec->cached = answer->GetBool("cached");
  rec->rows = static_cast<int64_t>((*answer)["rows"].items().size());
  rec->wrong = answer->GetBool("truncated") ||
               rec->rows != static_cast<int64_t>(queries[op.query].expected_rows);
}

/// One blocking round trip, checked against the oracle.
void Call(int fd, const Op& op, const std::vector<Query>& queries,
          uint64_t seed, OpRecord* rec) {
  std::string payload;
  rec->answered = server::WriteFrame(fd, RequestFor(op, queries, seed)).ok() &&
                  server::ReadFrame(fd, &payload).ok();
  if (rec->answered) CheckAnswer(payload, op, queries, rec);
}

/// Opens one blocking, Nagle-free connection to the local server.
StatusOr<int> Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IOError("connect failed");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

StatusOr<Stack> SetUp(const std::string& path, const std::vector<Op>& warm_ops,
                      const std::vector<Query>& queries, uint64_t seed,
                      size_t* wrong) {
  Stack stack;
  auto snapshot = core::OpenKbSnapshot(nullptr, path);
  if (!snapshot.ok()) return snapshot.status();
  stack.kb = core::KnowledgeBase::FromSnapshot(std::move(*snapshot));
  server::KbServer::Options options;
  options.io_threads = kServerIoThreads;
  options.num_workers = kServerWorkers;
  options.queue_depth = kServerQueueDepth;
  stack.server = std::make_unique<server::KbServer>(stack.kb.get(), options);
  Status started = stack.server->Start();
  if (!started.ok()) return started;
  for (int t = 0; t < kGeneratorThreads; ++t) {
    auto fd = Connect(stack.server->port());
    if (!fd.ok()) return fd.status();
    stack.fds.push_back(*fd);
  }
  for (size_t i = 0; i < warm_ops.size(); ++i) {
    OpRecord rec;
    Call(stack.fds[i % stack.fds.size()], warm_ops[i], queries, seed, &rec);
    if (!rec.ok) return Status::IOError("warm-up op failed");
    if (rec.wrong) ++*wrong;
  }
  return stack;
}

void TearDown(Stack* stack) {
  for (int fd : stack->fds) ::close(fd);
  stack->fds.clear();
  if (stack->server != nullptr) stack->server->Stop();
  stack->server.reset();
  stack->kb.reset();
}

// ---- Phases ----------------------------------------------------------

struct Phase {
  std::vector<std::string> requests;  ///< one frame per op, built up front
  std::vector<OpRecord> records;
  uint64_t scheduled = 0;
  uint64_t completed = 0;  ///< answered correctly
  uint64_t errors = 0;     ///< answered with an error or a wrong answer
  double wall_seconds = 0;
};

/// Generator thread `t`: owns connection `fd` and ops t, t+T, ... of the
/// schedule. Each op is sent when due without waiting for earlier
/// answers (up to kMaxInFlight unanswered), and answers are matched in
/// order, which is the order the server guarantees per connection.
void DriveConnection(int fd, size_t t, Clock::time_point start, double rate,
                     const std::vector<Op>& ops,
                     const std::vector<Query>& queries, Tracer* tracer,
                     uint64_t op_base, Phase* phase) {
  const std::vector<std::string>& requests = phase->requests;
  std::deque<size_t> in_flight;
  size_t next = t;
  std::string payload;
  while (next < ops.size() || !in_flight.empty()) {
    Clock::time_point now = Clock::now();
    while (next < ops.size() && in_flight.size() < kMaxInFlight &&
           IntendedStart(start, rate, next) <= now) {
      phase->records[next].sent_at = now;
      if (!server::WriteFrame(fd, requests[next]).ok()) return;
      in_flight.push_back(next);
      next += kGeneratorThreads;
      now = Clock::now();
    }
    // Sleep until an answer arrives or the next op is due.
    timespec timeout{};
    timespec* wait = nullptr;
    if (next < ops.size() && in_flight.size() < kMaxInFlight) {
      auto until = IntendedStart(start, rate, next) - Clock::now();
      int64_t ns = std::max<int64_t>(
          0, std::chrono::duration_cast<std::chrono::nanoseconds>(until)
                 .count());
      timeout.tv_sec = ns / 1000000000;
      timeout.tv_nsec = ns % 1000000000;
      wait = &timeout;
    }
    pollfd readable{fd, POLLIN, 0};
    const int ready = ::ppoll(&readable, 1, wait, nullptr);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    if (!server::ReadFrame(fd, &payload).ok()) return;
    const size_t i = in_flight.front();
    in_flight.pop_front();
    const Clock::time_point done = Clock::now();
    const Clock::time_point intended = IntendedStart(start, rate, i);
    OpRecord& rec = phase->records[i];
    CheckAnswer(payload, ops[i], queries, &rec);
    rec.answered = true;
    rec.latency_ms = ChargedLatencyMs(intended, done);
    rec.rtt_ms = ChargedLatencyMs(rec.sent_at, done);
    rec.late_ms = ChargedLatencyMs(intended, rec.sent_at);
    if (tracer->enabled()) {
      const uint64_t op = op_base + i;
      const uint64_t root = tracer->ReserveId();
      tracer->Add("client_call", root, op, tracer->ToNs(rec.sent_at),
                  tracer->ToNs(done));
      tracer->AddWithId(root, "op", 0, op, tracer->ToNs(intended),
                        tracer->ToNs(done));
      rec.replay = !rec.write && i % kReplayEvery == 0;
    }
  }
}

/// The request frames and empty records of a phase over `ops`. Built
/// before the phase runs, so neither costs time nor memory inside it.
Phase PreparePhase(const std::vector<Op>& ops,
                   const std::vector<Query>& queries, uint64_t seed) {
  Phase phase;
  phase.requests.reserve(ops.size());
  for (const Op& op : ops) {
    phase.requests.push_back(RequestFor(op, queries, seed));
  }
  phase.records.resize(ops.size());
  phase.scheduled = ops.size();
  return phase;
}

/// Open loop over the stack's connections: op i is due at
/// start + i / rate and is charged from then until its answer.
void RunPhase(Stack* stack, const std::vector<Op>& ops, double rate,
              const std::vector<Query>& queries, Tracer* tracer,
              uint64_t op_base, Phase* phase) {
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < kGeneratorThreads; ++t) {
    threads.emplace_back(DriveConnection, stack->fds[t],
                         static_cast<size_t>(t), start, rate, std::cref(ops),
                         std::cref(queries), tracer, op_base, phase);
  }
  for (std::thread& thread : threads) thread.join();
  phase->wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  for (const OpRecord& r : phase->records) {
    if (!r.answered) continue;
    ++(r.ok && !r.wrong ? phase->completed : phase->errors);
  }
}

/// Latencies (ms) of answered ops, optionally filtered by kind.
std::vector<double> Latencies(const Phase& phase, int write_filter) {
  std::vector<double> out;
  for (const OpRecord& r : phase.records) {
    if (!r.ok) continue;
    if (write_filter >= 0 && r.write != (write_filter == 1)) continue;
    out.push_back(r.latency_ms);
  }
  return out;
}

struct Counters {
  MetricsSnapshot snap;
  uint64_t operator()(const char* name) const { return snap.counter(name); }
};

Counters ReadCounters() {
  return Counters{MetricsRegistry::Default().Snapshot()};
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// User + system CPU time of the whole process, in ms.
double ProcessCpuMs() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& t) { return t.tv_sec * 1e3 + t.tv_usec / 1e3; };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

}  // namespace

void RunServing(const RunArgs& args, bool hot, Tracer* tracer,
                RunRecord* record) {
  const double ref_rate = hot ? kHotRefRate : kMixedRefRate;
  // Generator threads wait in ppoll() until each op is due; the default
  // 50 us timer slack would add that much lateness to every charge.
  // Threads created from here on inherit the 1 ns slack.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  record->Info("serving_persons", static_cast<double>(kServingPersons));
  record->Info("reference_rate", ref_rate);
  record->Info("p99_limit_ms", kP99LimitMs);

  // ---- Input generation (not timed) ------------------------------
  const std::string path = args.out_dir + "/serve-seed" +
                           std::to_string(args.seed) + "-" +
                           std::to_string(::getpid()) + ".kbsnap";
  struct RemoveOnExit {
    const std::string& path;
    ~RemoveOnExit() { ::unlink(path.c_str()); }
  } remove_fixture{path};
  const double fixture_ms = BuildFixture(args.seed, path);
  if (fixture_ms < 0) {
    record->Fail("fixture harvest failed");
    return;
  }
  record->Info("fixture_build_s", fixture_ms / 1000);
  Inputs inputs;
  {
    auto snapshot = core::OpenKbSnapshot(nullptr, path);
    if (!snapshot.ok()) {
      record->Fail("fixture open: " + snapshot.status().ToString());
      return;
    }
    auto kb = core::KnowledgeBase::FromSnapshot(std::move(*snapshot));
    inputs = MakeInputs(*kb, hot, args.seed);
  }
  const std::vector<Query>& queries = inputs.queries;
  record->Info("fixture_triples", static_cast<double>(inputs.base_triples));
  record->Info("fixture_persons", static_cast<double>(inputs.persons));
  record->Info("queries", static_cast<double>(queries.size()));
  if (queries.empty()) {
    record->Fail("fixture has no persons to query");
    return;
  }
  OpSource source(hot, queries.size(), args.seed);
  uint64_t stream = 0;
  // Warm-up reads only: the insert check counts every triple a stack's
  // KB gained against the inserts a measured phase acknowledged.
  std::vector<Op> warm_ops = source.Make(kWarmupReads, stream++);
  warm_ops.erase(std::remove_if(warm_ops.begin(), warm_ops.end(),
                                [](const Op& op) { return op.write; }),
                 warm_ops.end());
  if (hot) {  // every hot query once fills the result cache
    for (uint32_t q = 0; q < queries.size(); ++q) {
      warm_ops.push_back(Op{false, q, 0});
    }
  }

  uint64_t attempted = 0, failed = 0;
  uint64_t reads = 0, reads_right = 0;
  double rows_expected = 0, rows_matched = 0;
  std::vector<uint64_t> acked_writes;
  auto account = [&](const std::vector<Op>& ops, const Phase& phase) {
    for (size_t i = 0; i < ops.size(); ++i) {
      const OpRecord& r = phase.records[i];
      ++attempted;
      if (!r.ok || r.wrong) ++failed;
      if (r.write) {
        if (r.ok && !r.wrong) acked_writes.push_back(ops[i].write_id);
        continue;
      }
      const double expected =
          static_cast<double>(queries[ops[i].query].expected_rows);
      rows_expected += expected;
      if (!r.ok) continue;
      ++reads;
      reads_right += r.wrong ? 0 : 1;
      rows_matched += std::min(expected, static_cast<double>(r.rows));
    }
    if (phase.completed + phase.errors != phase.scheduled) {
      record->Fail("open-loop schedule lost ops: " +
                   std::to_string(phase.completed) + " + " +
                   std::to_string(phase.errors) +
                   " != " + std::to_string(phase.scheduled));
    }
  };
  // Before a stack is dropped: it must have grown by exactly the
  // acknowledged inserts, and each must read back through the server.
  Tracer off(false);
  size_t total_acked = 0;
  auto verify_inserts = [&](Stack* s) {
    const size_t delta = s->kb->NumTriples() - inputs.base_triples;
    if (delta != 2 * acked_writes.size()) {
      record->Fail("KB grew by " + std::to_string(delta) + " triples for " +
                   std::to_string(acked_writes.size()) + " two-fact inserts");
    }
    std::vector<Query> read_back;
    std::vector<Op> ops;
    for (uint64_t id : acked_writes) {
      ops.push_back(Op{false, static_cast<uint32_t>(read_back.size()), 0});
      read_back.push_back(
          Query{Shape::kLookup, ReadBackQuery(args.seed, id), 2});
    }
    Phase phase = PreparePhase(ops, read_back, args.seed);
    RunPhase(s, ops, kReadBackRate, read_back, &off, 0, &phase);
    size_t missing = phase.scheduled - phase.completed;
    for (const OpRecord& r : phase.records) {
      ++attempted;
      rows_expected += 2;
      if (r.ok) rows_matched += std::min<double>(2, r.rows);
    }
    failed += missing;
    if (missing > 0) {
      record->Fail(std::to_string(missing) +
                   " acknowledged inserts not read back");
    }
    total_acked += acked_writes.size();
    acked_writes.clear();
  };

  // Boot alone, for the per-layer split of set-up.
  std::vector<double> boot_ms;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point start = Clock::now();
    auto snapshot = core::OpenKbSnapshot(nullptr, path);
    if (snapshot.ok()) {
      auto kb = core::KnowledgeBase::FromSnapshot(std::move(*snapshot));
      boot_ms.push_back(MsSince(start));
    }
  }
  record->Set("core.snapshot_boot_ms", Median(boot_ms));
  struct stat file {};
  if (::stat(path.c_str(), &file) == 0) {
    record->Set("core.snapshot_bytes_per_triple",
                static_cast<double>(file.st_size) /
                    static_cast<double>(inputs.base_triples));
  }

  // The reference phase's ops and request frames. Untraced runs measure
  // the whole reference share untraced; traced runs measure half
  // untraced and half traced, for the overhead.
  const double ref_s = kRefShare * args.seconds / (args.trace ? 2 : 1);
  const size_t ref_ops = static_cast<size_t>(ref_rate * ref_s);
  const std::vector<Op> ref = source.Make(ref_ops, stream++);
  const std::vector<Op> traced_ops =
      args.trace ? source.Make(ref_ops, stream++) : std::vector<Op>();
  Phase untraced = PreparePhase(ref, queries, args.seed);
  Phase traced = PreparePhase(traced_ops, queries, args.seed);

  // peak_rss_mb is the serving stack's memory: the peak from here on,
  // less what the benchmark itself holds now (oracle, ops, frames).
  ::malloc_trim(0);
  if (!ResetPeakRss()) {
    record->Fail("cannot reset the peak resident set (clear_refs)");
  }
  const double harness_mb = RssMb();
  record->Info("harness_rss_mb", harness_mb);

  // ---- Set-up, kSetups times: boot, start, connect, warm up ------
  std::vector<double> setup_ms;
  Stack stack;
  size_t warm_wrong = 0;
  for (int i = 0; i < kSetups; ++i) {
    TearDown(&stack);
    const Clock::time_point start = Clock::now();
    const int64_t start_ns = tracer->ToNs(start);
    auto built = SetUp(path, warm_ops, queries, args.seed, &warm_wrong);
    if (!built.ok()) {
      record->Fail("set-up: " + built.status().ToString());
      return;
    }
    stack = std::move(*built);
    setup_ms.push_back(MsSince(start));
    tracer->Add("setup", 0, 0, start_ns, tracer->NowNs());
  }
  record->Set("setup_s", Median(setup_ms) / 1000);

  // ---- Reference rate --------------------------------------------
  Histogram& server_request_ms =
      MetricsRegistry::Default().histogram("server.request_ms");
  server_request_ms.Reset();
  Counters before = ReadCounters();
  const double cpu_before = ProcessCpuMs();
  RunPhase(&stack, ref, ref_rate, queries, &off, 0, &untraced);
  const double cpu_ms = ProcessCpuMs() - cpu_before;
  Counters after = ReadCounters();
  // Client and server CPU together: both run in this process.
  record->Info("cpu_us_per_op",
               1e3 * cpu_ms / static_cast<double>(ref.size()));
  account(ref, untraced);
  if (args.trace) {
    server_request_ms.Reset();
    before = ReadCounters();
    RunPhase(&stack, traced_ops, ref_rate, queries, tracer, ref_ops, &traced);
    after = ReadCounters();
    account(traced_ops, traced);
  }
  const Phase& measured = args.trace ? traced : untraced;
  const std::vector<Op>& measured_ops = args.trace ? traced_ops : ref;
  // Peak RSS is taken here, after a fixed amount of work: the ladder's
  // op count grows with the capacity found.
  const double peak_mb = PeakRssMb();
  record->Info("stack_peak_rss_mb", peak_mb);
  record->Set("peak_rss_mb", peak_mb - harness_mb);
  record->Set("core.delta_triples", static_cast<double>(
                                        stack.kb->NumTriples() -
                                        inputs.base_triples));

  // p99 is taken per window of the reference phase and the median
  // window reported: the machine's stalls spoil single windows.
  const std::vector<double> all = Latencies(untraced, -1);
  const Tail tail = TailPercentile(all);
  record->Info("p99_samples_per_window",
               static_cast<double>(all.size() / kRefWindows));
  record->Info("p99_windows", static_cast<double>(kRefWindows));
  record->Info("tail_rule_pct", tail.pct);
  record->Info("tail_rule_ms", tail.value);
  if (!PercentileAllowed(all.size() / kRefWindows, 99)) {
    record->Fail("too few reference samples per window for p99: " +
                 std::to_string(all.size() / kRefWindows));
  }
  record->Set("client.p50_ms", Median(all));
  record->Set("client.p99_ms", WindowedPercentile(all, kRefWindows, 99));
  uint64_t ref_bad = 0;
  for (const OpRecord& r : untraced.records) ref_bad += r.ok && !r.wrong ? 0 : 1;
  record->Set("ok_ratio", 1.0 - Ratio(static_cast<double>(ref_bad),
                                      static_cast<double>(ref.size())));

  // Per-layer numbers come from the measured (traced, if tracing) half.
  {
    const std::vector<double> reads_ms = Latencies(measured, 0);
    const std::vector<double> writes_ms = Latencies(measured, 1);
    record->Set("client.read_p50_ms", Median(reads_ms));
    record->Set("client.read_p99_ms", Percentile(reads_ms, 99));
    record->Set("client.write_p50_ms", Median(writes_ms));
    record->Set("client.write_p99_ms", Percentile(writes_ms, 99));
    std::vector<double> cached_rtt, rtt, late;
    for (const OpRecord& r : measured.records) {
      late.push_back(r.late_ms);
      if (!r.ok) continue;
      rtt.push_back(r.rtt_ms);
      if (r.cached) cached_rtt.push_back(r.rtt_ms);
    }
    record->Set("loadgen.late_p99_ms", Percentile(late, 99));
    record->Set("server.cached_read_p50_ms", Median(cached_rtt));
    const double hits = static_cast<double>(
        after("server.result_cache_hits") - before("server.result_cache_hits"));
    const double misses =
        static_cast<double>(after("server.result_cache_misses") -
                            before("server.result_cache_misses"));
    record->Set("server.result_cache_hits", hits);
    record->Set("server.result_cache_misses", misses);
    record->Set("server.result_cache_hit_ratio", Ratio(hits, hits + misses));
    record->Set("server.result_cache_evictions",
                static_cast<double>(after("server.result_cache_evictions") -
                                    before("server.result_cache_evictions")));
    const double requests = static_cast<double>(after("server.requests") -
                                                before("server.requests"));
    record->Set("server.epoll_wakeups_per_req",
                Ratio(static_cast<double>(after("server.epoll_wakeups") -
                                          before("server.epoll_wakeups")),
                      requests));
    const double server_p50 = server_request_ms.Quantile(0.5);
    record->Set("server.request_p99_ms", server_request_ms.Quantile(0.99));
    record->Set("server.transport_p50_ms", Median(rtt) - server_p50);
    const double plan_hits = static_cast<double>(
        after("query.plan_cache_hits") - before("query.plan_cache_hits"));
    const double plan_misses = static_cast<double>(
        after("query.plan_cache_misses") - before("query.plan_cache_misses"));
    record->Set("query.plan_cache_hit_ratio",
                Ratio(plan_hits, plan_hits + plan_misses));
    const double probes = static_cast<double>(after("query.bloom_probes") -
                                              before("query.bloom_probes"));
    record->Set("query.bloom_probes", probes);
    record->Set("query.bloom_pass_ratio",
                Ratio(static_cast<double>(after("query.bloom_hits") -
                                          before("query.bloom_hits")),
                      probes));
    if (args.trace) {
      record->Set("trace.overhead_ms",
                  Median(Latencies(measured, -1)) - Median(all));
    }
  }

  // ---- In-process replays of sampled traced reads ----------------
  if (args.trace) {
    std::map<Shape, std::vector<double>> execute_us;
    std::vector<double> parse_us, render_us;
    double examined = 0, streamed = 0;
    for (size_t i = 0; i < measured_ops.size(); ++i) {
      if (!measured.records[i].replay) continue;
      const Query& q = queries[measured_ops[i].query];
      const uint64_t op = ref_ops + i;
      const uint64_t root = tracer->ReserveId();
      const int64_t t0 = tracer->NowNs();
      auto parsed = stack.kb->ParseQuery(q.sparql);
      const int64_t t1 = tracer->NowNs();
      if (!parsed.ok()) {
        record->Fail("replay parse: " + parsed.status().ToString());
        break;
      }
      query::QueryStats stats;
      std::vector<query::Binding> rows =
          stack.kb->Execute(*parsed, query::ExecutionOptions(), &stats);
      const int64_t t2 = tracer->NowNs();
      // Render the way the server's query endpoint does: abbreviated
      // IRIs, literal values, and aggregate counts as numbers.
      server::Json body = server::Json::Array();
      const rdf::Dictionary& dict = stack.kb->store().dict();
      for (const query::Binding& row : rows) {
        server::Json cells = server::Json::Array();
        for (const auto& [var, id] : row) {
          if (parsed->agg.enabled() && var == parsed->agg.out_name) {
            cells.Append(server::Json::Number(static_cast<double>(id)));
            continue;
          }
          const rdf::Term& term = dict.term(id);
          cells.Append(server::Json::Str(term.is_iri()
                                             ? rdf::Abbreviate(term.value())
                                             : std::string(term.value())));
        }
        body.Append(std::move(cells));
      }
      const std::string rendered = body.Dump();
      const int64_t t3 = tracer->NowNs();
      tracer->Add("replay.parse", root, op, t0, t1);
      tracer->Add("replay.execute", root, op, t1, t2);
      tracer->Add("replay.render", root, op, t2, t3);
      tracer->AddWithId(root, "replay", 0, op, t0, t3);
      parse_us.push_back((t1 - t0) / 1e3);
      execute_us[q.shape].push_back((t2 - t1) / 1e3);
      render_us.push_back((t3 - t2) / 1e3);
      examined += static_cast<double>(stats.intermediate_rows);
      streamed += static_cast<double>(stats.rows_streamed);
      if (rows.size() != q.expected_rows) {
        record->Fail("replay of '" + q.sparql + "' returned " +
                     std::to_string(rows.size()) + " rows, oracle " +
                     std::to_string(q.expected_rows));
      }
    }
    record->Set("query.parse_us", Median(parse_us));
    record->Set("query.render_us", Median(render_us));
    for (const auto& [shape, us] : execute_us) {
      record->Set(std::string("query.execute_us.") +
                      kShapeNames[static_cast<int>(shape)],
                  Median(us));
    }
    record->Set("query.rows_examined_per_row", Ratio(examined, streamed));
  }

  verify_inserts(&stack);

  // ---- Rate ladder -----------------------------------------------
  // Every step runs on a freshly booted stack, so a step's capacity does
  // not depend on how many inserts the steps before it left in the delta.
  // The ladder ends by its own rule, not by the clock: its step count
  // grows with the log of the capacity, so a faster server is measured
  // in about the same time.
  RateLadder::Options ladder_options;
  ladder_options.start_rate = 2 * ref_rate;
  ladder_options.p99_limit_ms = kP99LimitMs;
  RateLadder ladder(ladder_options);
  uint64_t op_base = 10 * ref_ops;
  const Clock::time_point ladder_start = Clock::now();
  while (!ladder.done()) {
    TearDown(&stack);
    auto built = SetUp(path, warm_ops, queries, args.seed, &warm_wrong);
    if (!built.ok()) {
      record->Fail("set-up: " + built.status().ToString());
      return;
    }
    stack = std::move(*built);
    const double rate = ladder.NextRate();
    const double step_s = ladder.bracketed() ? kBisectStepS : kClimbStepS;
    const std::vector<Op> ops =
        source.Make(static_cast<size_t>(rate * step_s), stream++);
    Phase phase = PreparePhase(ops, queries, args.seed);
    RunPhase(&stack, ops, rate, queries, &off, op_base, &phase);
    op_base += ops.size();
    account(ops, phase);
    StepResult step;
    step.rate = rate;
    step.scheduled = phase.scheduled;
    step.completed = phase.completed;
    step.failed = phase.errors;
    step.achieved = static_cast<double>(phase.completed) / phase.wall_seconds;
    step.p99_ms = WindowedPercentile(Latencies(phase, -1), kStepWindows, 99);
    std::vector<double> end_late;
    for (size_t i = ops.size() - ops.size() / 10; i < ops.size(); ++i) {
      end_late.push_back(phase.records[i].late_ms);
    }
    step.end_late_ms = Median(end_late);
    ladder.Record(step);
    verify_inserts(&stack);
    std::fprintf(stderr,
                 "ladder: offered %.0f/s achieved %.0f/s p99 %.3f ms "
                 "end-late %.3f ms -> %s\n",
                 rate, step.achieved, step.p99_ms, step.end_late_ms,
                 StepPasses(step, kP99LimitMs) ? "pass" : "fail");
  }
  record->Info("ladder_s", MsSince(ladder_start) / 1000);
  if (!ladder.finished()) {
    record->Fail("rate ladder stopped after " +
                 std::to_string(ladder.steps().size()) +
                 " steps without bracketing the capacity");
  }
  const Counters ladder_after = ReadCounters();
  const StepResult& sustained = ladder.Sustained();
  record->Set("throughput_per_s", sustained.achieved);
  record->Info("sustained_offered_rate", sustained.rate);
  record->Info("ladder_steps", static_cast<double>(ladder.steps().size()));
  record->Set("server.rejected",
              static_cast<double>(ladder_after("server.rejected") -
                                  before("server.rejected")));
  if (sustained.rate == 0) record->Fail("no ladder step met the p99 limit");
  if (warm_wrong > 0) {
    record->Fail(std::to_string(warm_wrong) + " warm-up reads disagreed "
                 "with the oracle");
  }
  record->Info("acknowledged_inserts", static_cast<double>(total_acked));
  if (args.trace) {
    std::map<std::string, double> self = SelfTimesMs(tracer->spans());
    const double n = static_cast<double>(measured.records.size());
    record->Set("self.op_wait_us", 1e3 * self["op"] / n);
    record->Set("self.client_call_us", 1e3 * self["client_call"] / n);
    record->Set("trace.spans", static_cast<double>(tracer->spans().size()));
  }
  TearDown(&stack);

  if (reads_right != reads) {
    record->Fail(std::to_string(reads - reads_right) +
                 " reads disagreed with the oracle");
  }
  record->Set("precision", Ratio(static_cast<double>(reads_right),
                                 static_cast<double>(reads)));
  record->Set("recall", Ratio(rows_matched, rows_expected));
  record->Set("loadgen.threads", kGeneratorThreads);
  record->Set("loadgen.connections", kGeneratorThreads);
  record->attempted = attempted;
  record->failed = failed;
}

}  // namespace perfbench

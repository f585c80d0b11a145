// The timed process of the benchmark. It runs one workload through the
// library's public API for about --seconds seconds and prints its raw
// samples as one JSON object on stdout; perfbench/run.py builds it, makes
// its input, and turns the samples into the reported metrics.
//
//   perfbench_run --workload lj-count|serve-feeds|churn-dynamic
//                 --inputs A.tris[,B.tris...] --triangles TAU_A[,TAU_B...]
//                 --tolerance F --seed N --seconds S --trace 0|1
//                 --scratch DIR [--inject-failure 1]
//
// A pass is one whole stream: set up, stream, final answer, answer check.
// Passes cycle through the inputs. A first warm-up pass is not measured;
// then untraced passes repeat until the next one would overrun --seconds
// (at least one runs). With --trace 1 each untraced pass is followed by a
// traced pass of the same input, whose layer times are reported and whose
// estimates must be bit-identical to the untraced pass's.
// --inject-failure corrupts the expected answer, so every answer check
// fails: the benchmark's own tests use it to prove failures are counted.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "engine/estimators.h"
#include "engine/feed_client.h"
#include "engine/serve.h"
#include "engine/session.h"
#include "engine/stream_engine.h"
#include "graph/edge_list.h"
#include "stream/edge_source.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace engine = tristream::engine;
namespace stream = tristream::stream;
using tristream::Status;

// Workload parameters (see README.md for why each was chosen).
constexpr std::uint64_t kCountEstimators = 131072;  // lj-count: r
constexpr std::uint32_t kCountShards = 3;           // + ingest thread = 4
constexpr std::uint64_t kServeEstimators = 4096;    // serve-feeds: r
constexpr std::size_t kServeBatch = 8192;
constexpr std::size_t kServeWorkers = 2;
constexpr int kServeFeeds = 3;
constexpr std::uint64_t kServeQueryEvery = 16384;
constexpr std::uint64_t kServeCheckpointEvery = 1 << 18;
constexpr std::uint32_t kDynamicGroups = 16;  // churn-dynamic
constexpr double kDynamicSampleProbability = 0.5;
// A query at each eighth of the stream; the last eighth ends with the
// final answer.
constexpr int kChurnQueries = 8;

struct Args {
  std::string workload;
  /// The workload's input streams and their exact triangle counts; passes
  /// cycle through them.
  std::vector<std::string> inputs;
  std::vector<double> triangles;
  std::string scratch;
  double tolerance = 0.0;
  double seconds = 1.0;
  std::uint64_t seed = 1;
  bool trace = false;
  bool inject_failure = false;
};

/// The estimates one answer carries: what `count` prints and what a TRIR
/// frame holds.
struct Answer {
  std::uint64_t edges = 0;
  double triangles = 0.0;
  double wedges = 0.0;
  double transitivity = 0.0;

  bool SameBits(const Answer& o) const {
    return edges == o.edges &&
           std::memcmp(&triangles, &o.triangles, sizeof(double)) == 0 &&
           std::memcmp(&wedges, &o.wedges, sizeof(double)) == 0 &&
           std::memcmp(&transitivity, &o.transitivity, sizeof(double)) == 0;
  }
};

Answer ReadAnswer(engine::StreamingEstimator& estimator) {
  Answer a;
  a.edges = estimator.edges_processed();
  a.triangles = estimator.EstimateTriangles();
  if (estimator.has_wedge_estimates()) {
    a.wedges = estimator.EstimateWedges();
    a.transitivity = estimator.EstimateTransitivity();
  }
  return a;
}

template <typename Snapshot>
Answer FromSnapshot(const Snapshot& s) {
  Answer a;
  a.edges = s.edges;
  a.triangles = s.triangles;
  if (s.has_wedges) {
    a.wedges = s.wedges;
    a.transitivity = s.transitivity;
  }
  return a;
}

/// Everything one run measured; printed as JSON at the end.
struct Report {
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<double> finish_ms;
  std::vector<double> throughput_meps;
  std::vector<double> query_ms;
  std::vector<double> age_ms;
  /// One value per traced pass, by per-layer metric name.
  std::map<std::string, std::vector<double>> layers;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  double estimate = 0.0;

  void Fail(const std::string& what) {
    ++failed;
    failures.push_back(what);
    std::fprintf(stderr, "perfbench_run: FAILED: %s\n", what.c_str());
  }
  void Layer(const std::string& name, double value) {
    layers[name].push_back(value);
  }
  void DropSamples() {
    for (std::vector<double>* v : {&setup_s, &wall_s, &finish_ms,
                                   &throughput_meps, &query_ms, &age_ms}) {
      v->clear();
    }
    layers.clear();
  }
};

/// Checks an estimate against the exact count of input `input` within the
/// tolerance.
void CheckAccuracy(const Args& args, std::size_t input, double estimate,
                   const char* what, Report* report) {
  const double exact = args.inject_failure ? 2.0 * args.triangles[input]
                                           : args.triangles[input];
  const double error = std::fabs(estimate - exact) / exact;
  report->estimate = estimate;
  if (!(error <= args.tolerance)) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s estimate %.0f is %.4f off the exact %.0f (tolerance "
                  "%.4f)",
                  what, estimate, error, exact, args.tolerance);
    report->Fail(buf);
  }
}

double Ms(double seconds) { return seconds * 1e3; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Runs `pass` once as a warm-up whose samples are dropped (answer checks
/// still count), then repeats it until the next one would overrun
/// `seconds` (at least once).
template <typename Pass>
void RepeatFor(double seconds, Pass pass, Report* report) {
  pass();
  report->DropSamples();
  const double start = Now();
  int passes = 0;
  double spent = 0.0;
  do {
    pass();
    ++passes;
    spent = Now() - start;
  } while (spent + spent / passes <= seconds);
}

// ------------------------------------------------------------- sources

/// The source chain of `count`: OpenEdgeSource with mmap and dedup on,
/// with a decorator outside it that stamps each batch. A traced chain
/// builds the same DedupEdgeStream-over-reader pair by hand so a second
/// decorator can sit between the dedup filter and the raw reader.
struct Source {
  std::unique_ptr<TimedEdgeStream> outer;
  const TimedEdgeStream* raw = nullptr;             // traced only
  const stream::DedupFilter* filter = nullptr;      // traced only
  std::uint64_t total = 0;  // events in the file, before dedup
};

Status OpenSource(const std::string& path, bool traced, Source* out) {
  stream::EdgeSourceOptions options;
  options.prefer_mmap = true;
  options.dedup = !traced;
  stream::EdgeSourceInfo info;
  auto opened = stream::OpenEdgeSource(path, options, &info);
  if (!opened.ok()) return opened.status();
  out->total = info.total_edges;
  if (!traced) {
    out->outer = std::make_unique<TimedEdgeStream>(std::move(*opened));
    return Status::Ok();
  }
  auto raw = std::make_unique<TimedEdgeStream>(std::move(*opened));
  out->raw = raw.get();
  // Same expected-size rule as OpenEdgeSource's own dedup wrapper.
  auto dedup = std::make_unique<stream::DedupEdgeStream>(
      std::move(raw),
      std::max<std::size_t>(static_cast<std::size_t>(info.total_edges),
                            1 << 12));
  out->filter = &dedup->filter();
  out->outer = std::make_unique<TimedEdgeStream>(std::move(dedup));
  return Status::Ok();
}

/// Layer self times of one traced pass on a single ingest thread.
/// `engine_calls_s` is the time spent inside the engine calls (Run, or every
/// Step), `core_in_engine` the estimator time inside them, `core` all
/// estimator time up to the final answer, `wall_s` the pass's wall time
/// from the first offer to the final answer.
void RecordIngestLayers(const Source& source,
                        const TimedEstimator::Times& core_in_engine,
                        const TimedEstimator::Times& core,
                        double engine_calls_s, double wall_s,
                        std::uint64_t steps, std::size_t state_bytes,
                        Report* report) {
  const double stream_s = source.raw->busy_seconds();
  const double dedup_s = source.outer->busy_seconds() - stream_s;
  const double engine_s =
      engine_calls_s - source.outer->busy_seconds() - core_in_engine.total();
  const double attributed = stream_s + dedup_s + engine_s + core.total();
  report->Layer("stream.read_s", stream_s);
  report->Layer("stream.batches", static_cast<double>(source.raw->batches()));
  report->Layer("dedup.self_s", dedup_s);
  report->Layer("dedup.offered",
                static_cast<double>(source.filter->offered()));
  report->Layer("dedup.admitted",
                static_cast<double>(source.filter->admitted()));
  report->Layer("engine.self_s", engine_s);
  report->Layer("engine.steps", static_cast<double>(steps));
  report->Layer("core.absorb_s", core.absorb);
  report->Layer("core.flush_s", core.flush);
  report->Layer("core.estimate_s", core.estimate);
  report->Layer("core.state_mb",
                static_cast<double>(state_bytes) / (1 << 20));
  report->Layer("trace.wall_s", wall_s);
  report->Layer("trace.unattributed_pct",
                100.0 * (wall_s - attributed) / wall_s);
}

// ------------------------------------------------------------ lj-count

struct CountPass {
  bool ok = false;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double finish_s = 0.0;
  std::uint64_t events = 0;
  Answer answer;
};

/// One `count` run: OpenEdgeSource (mmap + dedup) into StreamEngine with
/// `algo` at r = kCountEstimators, then the typed estimates `count`
/// prints.
CountPass RunCountPass(const Args& args, const char* algo,
                       std::uint32_t threads, bool traced, Report* report) {
  CountPass pass;
  const double setup_start = Now();
  Source source;
  if (Status s = OpenSource(args.inputs[0], traced, &source); !s.ok()) {
    report->Fail("open: " + s.ToString());
    return pass;
  }
  engine::EstimatorConfig config;
  config.num_estimators = kCountEstimators;
  config.num_threads = threads;
  config.seed = args.seed;
  auto made = engine::MakeEstimator(algo, config);
  if (!made.ok()) {
    report->Fail("estimator: " + made.status().ToString());
    return pass;
  }
  std::optional<TimedEstimator> timed;
  if (traced) timed.emplace(**made);
  engine::StreamingEstimator& estimator =
      traced ? static_cast<engine::StreamingEstimator&>(*timed) : **made;
  engine::StreamEngine runner;
  const Status streamed = runner.Run(estimator, *source.outer);
  const double run_end = Now();
  const TimedEstimator::Times in_run =
      traced ? timed->times() : TimedEstimator::Times{};
  pass.answer = ReadAnswer(estimator);
  const double answered = Now();

  const double first = source.outer->first_call();
  pass.setup_s = first - setup_start;
  pass.wall_s = answered - first;
  pass.finish_s = answered - source.outer->last_offer();
  pass.events = estimator.edges_processed();
  if (!streamed.ok()) {
    report->Fail(std::string(algo) + " run: " + streamed.ToString());
    return pass;
  }
  pass.ok = true;
  if (traced) {
    RecordIngestLayers(source, in_run, timed->times(), run_end - first,
                       pass.wall_s, runner.metrics().batches,
                       estimator.approx_memory_bytes(), report);
  }
  return pass;
}

void RunLjCount(const Args& args, Report* report) {
  std::optional<Answer> first;
  auto untraced = [&] {
    const CountPass pass =
        RunCountPass(args, "tsb", kCountShards, false, report);
    ++report->ops;
    if (!pass.ok) return pass;
    report->setup_s.push_back(pass.setup_s);
    report->wall_s.push_back(pass.wall_s);
    report->finish_ms.push_back(Ms(pass.finish_s));
    // `count` answers one query, the final one, so its query latency and
    // result age are the finish time.
    report->query_ms.push_back(Ms(pass.finish_s));
    report->age_ms.push_back(Ms(pass.finish_s));
    report->throughput_meps.push_back(pass.events / pass.wall_s / 1e6);
    CheckAccuracy(args, 0, pass.answer.triangles, "tsb", report);
    if (!first) first = pass.answer;
    if (!pass.answer.SameBits(*first)) {
      report->Fail("tsb estimates differ between passes of one input");
    }
    return pass;
  };
  RepeatFor(args.seconds, [&] {
    const CountPass plain = untraced();
    if (!args.trace || !plain.ok) return;
    const CountPass traced =
        RunCountPass(args, "tsb", kCountShards, true, report);
    ++report->ops;
    if (!traced.ok) return;
    if (!traced.answer.SameBits(plain.answer)) {
      report->Fail("traced tsb estimates differ from the untraced run");
    }
    report->Layer("trace.overhead_pct",
                  100.0 * (traced.wall_s - plain.wall_s) / plain.wall_s);
  }, report);
  if (args.trace) {
    // The honest 1-thread baseline for parallel claims: the same stream
    // and ingest, serial `bulk` at the same r.
    const CountPass bulk = RunCountPass(args, "bulk", 1, false, report);
    ++report->ops;
    if (bulk.ok) {
      CheckAccuracy(args, 0, bulk.answer.triangles, "bulk", report);
      report->Layer("core.bulk_1t_meps", bulk.events / bulk.wall_s / 1e6);
    }
  }
}

// -------------------------------------------------------- churn-dynamic

/// One turnstile run: OpenEdgeSource (mmap + dedup with live-set
/// semantics) into `dynamic`, driven step by step through a Session with a
/// RequestSnapshot query at each eighth of the stream.
void RunChurnPass(const Args& args, std::size_t input, bool traced,
                  Report* report, std::optional<Answer>* untraced_answer) {
  const double setup_start = Now();
  Source source;
  if (Status s = OpenSource(args.inputs[input], traced, &source); !s.ok()) {
    report->Fail("open: " + s.ToString());
    return;
  }
  engine::EstimatorConfig config;
  config.dynamic_groups = kDynamicGroups;
  config.sample_probability = kDynamicSampleProbability;
  config.seed = args.seed;
  auto made = engine::MakeEstimator("dynamic", config);
  if (!made.ok()) {
    report->Fail("estimator: " + made.status().ToString());
    return;
  }
  std::optional<TimedEstimator> timed;
  if (traced) timed.emplace(**made);
  engine::StreamingEstimator& estimator =
      traced ? static_cast<engine::StreamingEstimator&>(*timed) : **made;
  engine::Session session(estimator, *source.outer);
  const double t0 = Now();  // the first Step's set-up runs before the offer

  double engine_calls_s = 0.0;
  std::uint64_t steps = 0;
  auto step = [&] {
    const double start = Now();
    session.Step();
    engine_calls_s += Now() - start;
    ++steps;
  };
  std::vector<double> query_ms, age_ms;
  int next_mark = 1;
  while (!session.done()) {
    step();
    const std::uint64_t position = session.metrics().edges;
    if (session.done() || next_mark >= kChurnQueries ||
        position * kChurnQueries < next_mark * source.total) {
      continue;
    }
    while (next_mark < kChurnQueries &&
           position * kChurnQueries >= next_mark * source.total) {
      ++next_mark;
    }
    const double asked = Now();
    session.RequestSnapshot();
    engine::SessionSnapshot snap;
    do {
      step();
      snap = session.snapshot();
    } while (!(snap.valid && snap.edges >= position) && !session.done());
    const double answered = Now();
    query_ms.push_back(Ms(answered - asked));
    age_ms.push_back(Ms(answered - source.outer->OfferTime(snap.edges)));
  }
  const engine::SessionSnapshot final_snap = session.snapshot();
  const double answered = Now();
  report->ops += 1 + query_ms.size();
  if (!session.status().ok() || !final_snap.final_result) {
    report->Fail("dynamic session: " + session.status().ToString());
    return;
  }
  const Answer answer = FromSnapshot(final_snap);
  const double first = source.outer->first_call();
  const double wall_s = answered - first;
  engine_calls_s -= first - t0;
  if (traced) {
    if (!*untraced_answer || !answer.SameBits(**untraced_answer)) {
      report->Fail("traced dynamic estimates differ from the untraced run");
    }
    RecordIngestLayers(source, timed->times(), timed->times(), engine_calls_s,
                       wall_s, steps, estimator.approx_memory_bytes(),
                       report);
    report->Layer("trace.overhead_pct",
                  100.0 * (wall_s - report->wall_s.back()) /
                      report->wall_s.back());
    return;
  }
  if (*untraced_answer && !answer.SameBits(**untraced_answer)) {
    report->Fail("dynamic estimates differ between passes of one input");
  }
  *untraced_answer = answer;
  CheckAccuracy(args, input, answer.triangles, "dynamic", report);
  const double finish_s = answered - source.outer->last_offer();
  report->setup_s.push_back(first - setup_start);
  report->wall_s.push_back(wall_s);
  report->finish_ms.push_back(Ms(finish_s));
  report->throughput_meps.push_back(answer.edges / wall_s / 1e6);
  report->query_ms.insert(report->query_ms.end(), query_ms.begin(),
                          query_ms.end());
  report->age_ms.insert(report->age_ms.end(), age_ms.begin(), age_ms.end());
  report->age_ms.push_back(Ms(finish_s));
}

void RunChurnDynamic(const Args& args, Report* report) {
  std::vector<std::optional<Answer>> answers(args.inputs.size());
  std::size_t next = 0;
  RepeatFor(args.seconds, [&] {
    const std::size_t input = next++ % args.inputs.size();
    const std::uint64_t failed = report->failed;
    RunChurnPass(args, input, false, report, &answers[input]);
    if (args.trace && report->failed == failed) {
      RunChurnPass(args, input, true, report, &answers[input]);
    }
  }, report);
}

// ---------------------------------------------------------- serve-feeds

/// One feed connection: the in-memory stream behind a stamping decorator,
/// and what the feed saw.
struct Feed {
  explicit Feed(const tristream::graph::EdgeList& edges)
      : memory(edges), source(memory) {}

  struct Query {
    double time = 0.0;
    std::uint64_t sent = 0;   // events sent when the TRIQ went out
    std::uint64_t edges = 0;  // events the TRIR reflects
    bool valid = false;
  };

  stream::MemoryEdgeStream memory;
  TimedEdgeStream source;
  std::vector<Query> queries;
  double start = 0.0;
  double end = 0.0;
  Status status;
  engine::FeedResult result;
};

/// What the server reported about its sessions through on_session_end.
struct SessionTotals {
  std::mutex mu;
  double compute_s = 0.0;
  double io_s = 0.0;
  double checkpoint_s = 0.0;
  std::uint64_t checkpoints = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t batches = 0;
};

engine::ServeOptions MakeServeOptions(const Args& args,
                                      const std::string& dir) {
  engine::ServeOptions options;
  options.algo = "bulk";
  options.config.num_estimators = kServeEstimators;
  options.config.seed = args.seed;
  options.config.batch_size = kServeBatch;
  options.batch_size = kServeBatch;
  options.num_workers = kServeWorkers;
  options.checkpoint_dir = dir;
  options.checkpoint_every_edges = kServeCheckpointEvery;
  return options;
}

/// The answer every session must reproduce bit for bit: a standalone
/// Session with the same algorithm, r, seed and batch over the same edges.
Answer StandaloneAnswer(const Args& args,
                        const tristream::graph::EdgeList& edges) {
  engine::EstimatorConfig config;
  config.num_estimators = kServeEstimators;
  config.seed = args.seed;
  config.batch_size = kServeBatch;
  auto made = engine::MakeEstimator("bulk", config);
  if (!made.ok()) return Answer{};
  stream::MemoryEdgeStream memory(edges);
  engine::SessionOptions options;
  options.batch_size = kServeBatch;
  engine::Session session(**made, memory, options);
  while (!session.done()) session.Step();
  Answer answer = FromSnapshot(session.snapshot());
  if (args.inject_failure) answer.triangles += 1.0;
  return answer;
}

void RunServeRound(const Args& args, const tristream::graph::EdgeList& edges,
                   const Answer& expected, bool traced, int round,
                   Report* report) {
  const double setup_start = Now();
  const std::string dir = args.scratch + "/serve-" +
                          std::to_string(::getpid()) + "-" +
                          std::to_string(round);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  SessionTotals totals;
  engine::ServeOptions options = MakeServeOptions(args, dir);
  if (traced) {
    options.on_session_end = [&totals](engine::Session& session,
                                       const Status&) {
      const engine::SessionMetrics& m = session.metrics();
      std::error_code size_ec;
      const auto bytes = std::filesystem::file_size(
          session.options().checkpoint_path, size_ec);
      std::lock_guard<std::mutex> lock(totals.mu);
      totals.compute_s += m.compute_seconds;
      totals.io_s += m.io_seconds;
      totals.checkpoint_s += m.checkpoint_seconds;
      totals.checkpoints += m.checkpoints;
      totals.batches += m.batches;
      if (!size_ec) totals.checkpoint_bytes += bytes * m.checkpoints;
    };
  }
  std::optional<engine::Server> server;
  server.emplace(std::move(options));
  auto port = server->Start();
  if (!port.ok()) {
    report->Fail("serve start: " + port.status().ToString());
    return;
  }
  const double started = Now();

  std::vector<std::unique_ptr<Feed>> feeds;
  for (int i = 0; i < kServeFeeds; ++i) {
    feeds.push_back(std::make_unique<Feed>(edges));
  }
  std::vector<std::thread> threads;
  for (int i = 0; i < kServeFeeds; ++i) {
    Feed* feed = feeds[i].get();
    engine::FeedClientOptions client;
    client.port = *port;
    client.stream_id = static_cast<std::uint64_t>(i + 1);
    client.query_every_edges = kServeQueryEvery;
    client.on_query = [feed](const engine::SnapshotWire& snap,
                             std::uint64_t sent) {
      feed->queries.push_back({Now(), sent, snap.edges, snap.valid});
    };
    threads.emplace_back([feed, client] {
      feed->start = Now();
      auto result = engine::RunFeedClient(feed->source, client);
      feed->end = Now();
      if (result.ok()) {
        feed->result = *result;
      } else {
        feed->status = result.status();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Set-up is the server's start plus the fastest feed's connect and
  // hello, up to its first offer; the feed threads' own start is not the
  // program's.
  double first = feeds[0]->source.first_call();
  double connect_s = first - feeds[0]->start;
  double answered = 0.0;
  for (const auto& feed : feeds) {
    first = std::min(first, feed->source.first_call());
    connect_s = std::min(connect_s, feed->source.first_call() - feed->start);
    answered = std::max(answered, feed->end);
  }
  server->Stop();
  server->Wait();
  const engine::ServerStats stats = server->stats();
  server.reset();
  std::filesystem::remove_all(dir, ec);

  std::uint64_t events = 0;
  double source_s = 0.0, query_wait_s = 0.0, feed_wall_s = 0.0;
  std::uint64_t reconnects = 0;
  std::vector<double> finish_ms, query_ms, age_ms;
  for (const auto& feed : feeds) {
    report->ops += 1 + feed->queries.size();
    if (!feed->status.ok()) {
      report->Fail("feed: " + feed->status.ToString());
      continue;
    }
    const Answer got = FromSnapshot(feed->result.final_snapshot);
    if (!feed->result.final_snapshot.final_result ||
        feed->result.events_sent != edges.size() ||
        !got.SameBits(expected)) {
      char buf[200];
      std::snprintf(buf, sizeof(buf),
                    "session final TRIR (%llu events, %.17g triangles) is "
                    "not bit-identical to the standalone session (%llu, "
                    "%.17g)",
                    static_cast<unsigned long long>(got.edges),
                    got.triangles,
                    static_cast<unsigned long long>(expected.edges),
                    expected.triangles);
      report->Fail(buf);
    }
    report->estimate = got.triangles;
    const TimedEdgeStream& source = feed->source;
    events += feed->result.events_sent;
    reconnects += feed->result.reconnects;
    source_s += source.busy_seconds();
    feed_wall_s += feed->end - feed->start;
    finish_ms.push_back(Ms(feed->end - source.last_return()));
    age_ms.push_back(Ms(feed->end - source.last_offer()));
    for (const Feed::Query& q : feed->queries) {
      const double wait = q.time - source.OfferTime(q.sent);
      query_wait_s += wait;
      query_ms.push_back(Ms(wait));
      if (q.valid && q.edges > 0) {
        age_ms.push_back(Ms(q.time - source.OfferTime(q.edges)));
      }
    }
  }
  if (stats.refused > 0 || stats.failed > 0) {
    report->Fail("server refused " + std::to_string(stats.refused) +
                 " and failed " + std::to_string(stats.failed) +
                 " sessions");
  }
  if (finish_ms.size() != static_cast<std::size_t>(kServeFeeds)) return;

  const double wall_s = answered - first;
  if (traced) {
    const double blocked_s = feed_wall_s - source_s - query_wait_s;
    report->Layer("feed.source_s", source_s);
    report->Layer("feed.query_wait_s", query_wait_s);
    report->Layer("feed.blocked_s", blocked_s);
    report->Layer("feed.reconnects", static_cast<double>(reconnects));
    report->Layer("serve.accepted", static_cast<double>(stats.accepted));
    report->Layer("serve.refused", static_cast<double>(stats.refused));
    report->Layer("serve.failed", static_cast<double>(stats.failed));
    report->Layer("serve.session_compute_s", totals.compute_s);
    report->Layer("serve.session_io_s", totals.io_s);
    report->Layer("ckpt.saves", static_cast<double>(totals.checkpoints));
    report->Layer("ckpt.save_s", totals.checkpoint_s);
    report->Layer("ckpt.bytes", static_cast<double>(totals.checkpoint_bytes));
    report->Layer("engine.steps", static_cast<double>(totals.batches));
    report->Layer("trace.wall_s", feed_wall_s);
    report->Layer("trace.unattributed_pct",
                  100.0 * (feed_wall_s - source_s - query_wait_s -
                           blocked_s) / feed_wall_s);
    report->Layer("trace.overhead_pct",
                  100.0 * (wall_s - report->wall_s.back()) /
                      report->wall_s.back());
    return;
  }
  report->setup_s.push_back(started - setup_start + connect_s);
  report->wall_s.push_back(wall_s);
  report->throughput_meps.push_back(events / wall_s / 1e6);
  report->finish_ms.insert(report->finish_ms.end(), finish_ms.begin(),
                           finish_ms.end());
  report->query_ms.insert(report->query_ms.end(), query_ms.begin(),
                          query_ms.end());
  report->age_ms.insert(report->age_ms.end(), age_ms.begin(), age_ms.end());
}

void RunServeFeeds(const Args& args, Report* report) {
  // The feeds stream from memory: the file is read before any timing.
  tristream::graph::EdgeList edges;
  {
    stream::EdgeSourceOptions options;
    auto opened = stream::OpenEdgeSource(args.inputs[0], options);
    if (!opened.ok()) {
      report->Fail("open: " + opened.status().ToString());
      return;
    }
    std::vector<tristream::Edge> batch;
    while ((*opened)->NextBatch(1 << 16, &batch) > 0) {
      for (const tristream::Edge& e : batch) edges.Add(e);
    }
  }
  const Answer expected = StandaloneAnswer(args, edges);
  int round = 0;
  RepeatFor(args.seconds, [&] {
    const std::uint64_t failed = report->failed;
    RunServeRound(args, edges, expected, false, round++, report);
    if (args.trace && report->failed == failed) {
      RunServeRound(args, edges, expected, true, round++, report);
    }
  }, report);
}

// ---------------------------------------------------------------- main

void PrintArray(const char* name, const std::vector<double>& values) {
  std::printf("\"%s\": [", name);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::printf("%s%.9g", i == 0 ? "" : ", ", values[i]);
  }
  std::printf("]");
}

void PrintReport(const Args& args, const Report& report) {
  std::printf("{\"workload\": \"%s\", ", args.workload.c_str());
  PrintArray("setup_s", report.setup_s);
  std::printf(", ");
  PrintArray("wall_s", report.wall_s);
  std::printf(", ");
  PrintArray("finish_ms", report.finish_ms);
  std::printf(", ");
  PrintArray("throughput_meps", report.throughput_meps);
  std::printf(", ");
  PrintArray("query_ms", report.query_ms);
  std::printf(", ");
  PrintArray("age_ms", report.age_ms);
  std::printf(", \"layers\": {");
  bool first = true;
  for (const auto& [name, values] : report.layers) {
    std::printf("%s", first ? "" : ", ");
    PrintArray(name.c_str(), values);
    first = false;
  }
  std::printf("}, \"peak_rss_mb\": %.9g, \"estimate\": %.17g, "
              "\"ops\": %llu, \"ops_failed\": %llu, \"failures\": [",
              PeakRssMb(), report.estimate,
              static_cast<unsigned long long>(report.ops),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    std::string escaped;
    for (const char c : report.failures[i]) {
      if (c == '"' || c == '\\') escaped.push_back('\\');
      escaped.push_back(c == '\n' ? ' ' : c);
    }
    std::printf("%s\"%s\"", i == 0 ? "" : ", ", escaped.c_str());
  }
  std::printf("]}\n");
}

std::vector<std::string> SplitList(const std::string& list) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = std::min(list.find(',', start), list.size());
    items.push_back(list.substr(start, comma - start));
    start = comma + 1;
  }
  return items;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--inputs") {
      args->inputs = SplitList(value);
    } else if (flag == "--scratch") {
      args->scratch = value;
    } else if (flag == "--triangles") {
      for (const std::string& t : SplitList(value)) {
        args->triangles.push_back(std::strtod(t.c_str(), nullptr));
      }
    } else if (flag == "--tolerance") {
      args->tolerance = std::strtod(value, nullptr);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--inject-failure") {
      args->inject_failure = std::strcmp(value, "0") != 0;
    } else {
      return false;
    }
  }
  return !args->inputs.empty() &&
         args->triangles.size() == args->inputs.size() &&
         std::all_of(args->triangles.begin(), args->triangles.end(),
                     [](double t) { return t > 0.0; }) &&
         !args->scratch.empty() && args->seconds > 0.0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_run --workload W --inputs F[,F...] "
                 "--triangles T[,T...] "
                 "--tolerance E --seed N --seconds S --trace 0|1 --scratch "
                 "DIR [--inject-failure 1]\n");
    return 2;
  }
  Report report;
  if (args.workload == "lj-count") {
    RunLjCount(args, &report);
  } else if (args.workload == "serve-feeds") {
    RunServeFeeds(args, &report);
  } else if (args.workload == "churn-dynamic") {
    RunChurnDynamic(args, &report);
  } else {
    std::fprintf(stderr, "perfbench_run: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  PrintReport(args, report);
  return report.failed == 0 ? 0 : 1;
}

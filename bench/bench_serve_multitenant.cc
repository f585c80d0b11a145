// Multi-tenant serve-mode scaling: aggregate ingest throughput and query
// latency as the number of concurrent sessions grows.
//
// One in-process engine::Server (epoll front end + Session/Scheduler
// substrate), S client threads each streaming the SAME edge list over its
// own TCP connection while firing periodic TRIQ queries. For each S in
// {1, 8, 64, 256} the bench reports:
//   * wall seconds until every session's final TRIR arrives;
//   * aggregate throughput (S * m edges / seconds, in Meps);
//   * p50/p99 TRIQ round-trip latency (queries are answered from the
//     cached snapshot, so this measures the event loop, not a Flush).
//
// Doubles as the serve-mode bit-identity gate: every session's final
// triangle estimate must equal, to the last bit, one isolated
// StreamEngine::Run over the same (algo, config, batch) -- scheduling
// interleave, ragged client chunking, and concurrent queries must all be
// invisible to the estimate. Exits nonzero on divergence.
//
// Knobs on top of the standard bench env vars:
//   TRISTREAM_BENCH_SERVE_EDGES     edges per session    (default 60000)
//   TRISTREAM_BENCH_R               estimators/session   (default 1024)
//   TRISTREAM_BENCH_SERVE_WORKERS   scheduler workers    (default 4)
//   TRISTREAM_BENCH_SERVE_MAX       largest session tier (default 256)
//
// Output: human-readable table on stderr, one JSON document on stdout.

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "engine/serve.h"
#include "gen/erdos_renyi.h"
#include "stream/binary_io.h"
#include "stream/socket_stream.h"

namespace {

using namespace tristream;

struct BenchConfig {
  std::uint64_t edges_per_session;
  std::uint64_t num_estimators;
  std::size_t workers;
  std::size_t max_tier;
  std::size_t batch = 1024;
  std::uint64_t seed;
};

engine::ServeOptions MakeServeOptions(const BenchConfig& cfg,
                                      std::size_t sessions) {
  engine::ServeOptions options;
  options.algo = "bulk";
  options.config.num_estimators = cfg.num_estimators;
  options.config.seed = cfg.seed;
  // Pin the counter's self-batching to the session pump batch so
  // mid-stream snapshots are refreshable at every quantum boundary (the
  // isolated reference uses the identical config -- same trajectory).
  options.config.batch_size = cfg.batch;
  options.batch_size = cfg.batch;
  options.num_workers = cfg.workers;
  options.max_sessions = sessions;
  options.max_accepts = sessions;  // server drains itself after the tier
  options.queue_capacity = 1 << 14;
  return options;
}

double IsolatedReference(const BenchConfig& cfg, const graph::EdgeList& el) {
  auto opts = MakeServeOptions(cfg, 1);
  auto est = engine::MakeEstimator(opts.algo, opts.config);
  TRISTREAM_CHECK(est.ok()) << est.status();
  stream::MemoryEdgeStream source(el);
  engine::SessionOptions engine_options;
  engine_options.batch_size = cfg.batch;
  engine::StreamEngine eng(engine_options);
  const Status s = eng.Run(**est, source);
  TRISTREAM_CHECK(s.ok()) << s;
  return (*est)->EstimateTriangles();
}

Status RecvAll(int fd, void* out, std::size_t size) {
  char* p = static_cast<char*>(out);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, p + got, size - got, 0);
    if (n == 0) return Status::CorruptData("peer closed mid-reply");
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("recv failed");
    }
    got += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

/// Reads one server reply; only the TRIR snapshot path is expected here.
Result<engine::SnapshotWire> ReadSnapshotReply(int fd) {
  char header[stream::kTrisHeaderBytes];
  TRISTREAM_RETURN_IF_ERROR(RecvAll(fd, header, sizeof(header)));
  std::uint64_t count = 0;
  std::memcpy(&count, header + 8, sizeof(count));
  if (std::memcmp(header, engine::kServeSnapshotMagic, 4) != 0) {
    std::string body(static_cast<std::size_t>(
                         std::min<std::uint64_t>(count, 1 << 12)),
                     '\0');
    if (!body.empty()) RecvAll(fd, body.data(), body.size());
    return Status::Internal("server replied TRIE: " + body);
  }
  char body[engine::kSnapshotBodyBytes];
  if (count != engine::kSnapshotBodyBytes) {
    return Status::CorruptData("bad TRIR body size");
  }
  TRISTREAM_RETURN_IF_ERROR(RecvAll(fd, body, sizeof(body)));
  return engine::DecodeSnapshotBody(body, sizeof(body));
}

Status SendQuery(int fd) {
  char header[stream::kTrisHeaderBytes];
  std::memcpy(header, engine::kServeQueryMagic, 4);
  std::memcpy(header + 4, &stream::kTrisVersion, sizeof(stream::kTrisVersion));
  const std::uint64_t zero = 0;
  std::memcpy(header + 8, &zero, sizeof(zero));
  if (::send(fd, header, sizeof(header), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(sizeof(header))) {
    return Status::IoError("query send failed");
  }
  return Status::Ok();
}

struct ClientResult {
  Status status = Status::Ok();
  double triangles = 0.0;
  std::vector<double> query_millis;
};

/// One tenant: stream the edges in ragged frames with a lockstep TRIQ
/// every `query_every` edges, half-close, wait for the final TRIR.
ClientResult RunClient(std::uint16_t port, const graph::EdgeList& el,
                       std::size_t salt, std::uint64_t query_every) {
  using clock = std::chrono::steady_clock;
  ClientResult out;
  auto fd = stream::ConnectToLoopback(port);
  if (!fd.ok()) {
    out.status = fd.status();
    return out;
  }
  const std::span<const Edge> edges(el.edges());
  const std::size_t stride = 997 + 131 * (salt % 29);
  std::size_t offset = 0;
  std::uint64_t next_query = query_every;
  while (offset < edges.size()) {
    const std::size_t take = std::min(stride, edges.size() - offset);
    if (Status s = stream::WriteEdgeFrame(*fd, edges.subspan(offset, take));
        !s.ok()) {
      out.status = s;
      ::close(*fd);
      return out;
    }
    offset += take;
    if (query_every != 0 && offset >= next_query) {
      next_query += query_every;
      const auto t0 = clock::now();
      if (Status s = SendQuery(*fd); !s.ok()) {
        out.status = s;
        ::close(*fd);
        return out;
      }
      auto reply = ReadSnapshotReply(*fd);
      if (!reply.ok()) {
        out.status = reply.status();
        ::close(*fd);
        return out;
      }
      out.query_millis.push_back(
          std::chrono::duration<double, std::milli>(clock::now() - t0)
              .count());
    }
  }
  ::shutdown(*fd, SHUT_WR);
  while (true) {
    auto reply = ReadSnapshotReply(*fd);
    if (!reply.ok()) {
      out.status = reply.status();
      break;
    }
    if (reply->final_result) {
      out.triangles = reply->triangles;
      break;
    }
  }
  ::close(*fd);
  return out;
}

struct TierResult {
  std::size_t sessions = 0;
  double seconds = 0.0;
  double aggregate_meps = 0.0;
  double query_p50_ms = 0.0;
  double query_p99_ms = 0.0;
  std::uint64_t queries = 0;
  bool bit_identical = true;
};

double Percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

TierResult RunTier(const BenchConfig& cfg, const graph::EdgeList& el,
                   double reference_triangles, std::size_t sessions,
                   int trials) {
  std::vector<double> seconds_per_trial;
  TierResult tier;
  tier.sessions = sessions;
  std::vector<double> all_queries;
  // Query cadence: ~8 queries per session per run, independent of scale.
  const std::uint64_t query_every =
      std::max<std::uint64_t>(el.size() / 8, 1);
  for (int trial = 0; trial < trials; ++trial) {
    engine::Server server(MakeServeOptions(cfg, sessions));
    auto port = server.Start();
    TRISTREAM_CHECK(port.ok()) << port.status();
    std::vector<ClientResult> results(sessions);
    WallTimer timer;
    {
      std::vector<std::thread> clients;
      clients.reserve(sessions);
      for (std::size_t i = 0; i < sessions; ++i) {
        clients.emplace_back([&, i] {
          results[i] = RunClient(*port, el, i, query_every);
        });
      }
      for (auto& t : clients) t.join();
    }
    const double secs = timer.Seconds();
    server.Wait();
    seconds_per_trial.push_back(secs);
    for (auto& r : results) {
      if (!r.status.ok()) {
        std::fprintf(stderr, "FATAL: session failed: %s\n",
                     r.status.ToString().c_str());
        std::exit(1);
      }
      if (r.triangles != reference_triangles) tier.bit_identical = false;
      all_queries.insert(all_queries.end(), r.query_millis.begin(),
                         r.query_millis.end());
    }
  }
  tier.seconds = Median(seconds_per_trial);
  if (tier.seconds > 0.0) {
    tier.aggregate_meps = static_cast<double>(el.size()) *
                          static_cast<double>(sessions) / tier.seconds / 1e6;
  }
  tier.queries = all_queries.size();
  tier.query_p50_ms = Percentile(all_queries, 0.50);
  tier.query_p99_ms = Percentile(all_queries, 0.99);
  return tier;
}

}  // namespace

int main() {
  using namespace tristream;
  BenchConfig cfg;
  cfg.edges_per_session =
      bench::EnvU64("TRISTREAM_BENCH_SERVE_EDGES", 60000);
  cfg.num_estimators = bench::EnvU64("TRISTREAM_BENCH_R", 1024);
  cfg.workers = static_cast<std::size_t>(
      bench::EnvU64("TRISTREAM_BENCH_SERVE_WORKERS", 4));
  cfg.max_tier = static_cast<std::size_t>(
      bench::EnvU64("TRISTREAM_BENCH_SERVE_MAX", 256));
  cfg.seed = bench::BenchSeed();
  const int trials = bench::BenchTrials();

  const VertexId n = static_cast<VertexId>(
      std::max<std::uint64_t>(cfg.edges_per_session / 16, 64));
  const graph::EdgeList el =
      gen::GnmRandom(n, cfg.edges_per_session, cfg.seed * 7919 + 3);
  const double reference = IsolatedReference(cfg, el);

  std::fprintf(stderr,
               "serve multitenant bench: m=%llu/session, r=%llu, "
               "workers=%zu, trials=%d, reference triangles=%.0f\n\n",
               static_cast<unsigned long long>(el.size()),
               static_cast<unsigned long long>(cfg.num_estimators),
               cfg.workers, trials, reference);
  std::fprintf(stderr, "%9s | %9s | %12s | %10s | %10s | %8s\n", "sessions",
               "seconds", "agg Meps", "q p50 ms", "q p99 ms", "queries");
  std::fprintf(stderr,
               "----------+-----------+--------------+------------+--------"
               "----+---------\n");

  std::vector<TierResult> tiers;
  bool all_identical = true;
  for (std::size_t sessions : {std::size_t{1}, std::size_t{8},
                               std::size_t{64}, std::size_t{256}}) {
    if (sessions > cfg.max_tier) break;
    TierResult tier = RunTier(cfg, el, reference, sessions, trials);
    all_identical = all_identical && tier.bit_identical;
    std::fprintf(stderr, "%9zu | %9.4f | %12.3f | %10.4f | %10.4f | %8llu\n",
                 tier.sessions, tier.seconds, tier.aggregate_meps,
                 tier.query_p50_ms, tier.query_p99_ms,
                 static_cast<unsigned long long>(tier.queries));
    tiers.push_back(tier);
  }
  if (!all_identical) {
    std::fprintf(stderr,
                 "\nERROR: a serve session diverged from the isolated "
                 "reference estimate\n");
  }

  std::printf("{\n");
  std::printf("  \"bench\": \"serve_multitenant\",\n");
  std::printf("  \"edges_per_session\": %llu,\n",
              static_cast<unsigned long long>(el.size()));
  std::printf("  \"estimators\": %llu,\n",
              static_cast<unsigned long long>(cfg.num_estimators));
  std::printf("  \"workers\": %zu,\n", cfg.workers);
  std::printf("  \"trials\": %d,\n", trials);
  std::printf("  \"reference_triangles\": %.17g,\n", reference);
  std::printf("  \"bit_identical\": %s,\n", all_identical ? "true" : "false");
  std::printf("  \"results\": [\n");
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    const TierResult& t = tiers[i];
    std::printf("    {\"sessions\": %zu, \"seconds\": %.6f, "
                "\"aggregate_meps\": %.3f, \"query_p50_ms\": %.4f, "
                "\"query_p99_ms\": %.4f, \"queries\": %llu}%s\n",
                t.sessions, t.seconds, t.aggregate_meps, t.query_p50_ms,
                t.query_p99_ms, static_cast<unsigned long long>(t.queries),
                i + 1 < tiers.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return all_identical ? 0 : 1;
}

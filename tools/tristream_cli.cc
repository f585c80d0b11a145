// tristream command-line tool: stream graphs from files or generators
// through the library without writing any code.
//
//   tristream_cli generate --dataset dblp --scale 0.02 --output g.tris
//   tristream_cli generate --dataset dblp --output g.tris --churn 0.1
//   tristream_cli inspect  g.tris
//   tristream_cli stats    --input g.tris
//   tristream_cli count    --input g.tris --estimators 131072 [--threads 2]
//   tristream_cli count    --input g.tris --algo colorful --colors 16
//   tristream_cli window   --input g.tris --window 100000
//   tristream_cli live     --listen 7433 --window 100000
//   tristream_cli serve    --listen 7433 --max-sessions 64
//   tristream_cli feed     --connect 7433 --input g.tris [--query-every N]
//   tristream_cli sample   --input g.tris -k 10 --max-degree 500
//   tristream_cli convert  --input edges.txt --output edges.tris
//
// File inputs go through stream::OpenEdgeSource: the format is sniffed
// from the file's magic bytes (TRIS binary vs. SNAP-style text), not its
// extension, and duplicates/self-loops are filtered on ingest. Binary
// inputs are memory-mapped by default; `count --mmap 0` falls back to
// buffered FILE reads. Output format still follows the extension
// (".tris" = binary).
//
// `count --algo` selects any estimator behind the unified engine --
// the paper's algorithm (tsb) or one of the baseline algorithms it is
// evaluated against -- all driven by the same engine::StreamEngine, so
// every algorithm sees identical ingest, batching, and failure
// propagation.
//
// Every command declares the flags it reads; any other flag (a typo, or
// one this tool no longer has) exits 2 naming it, instead of running with
// the flag silently ignored.
//
// `serve` is the multi-tenant network mode (engine/serve.h): one process
// accepts any number of TRIS connections, each mapped to its own
// estimator session, all multiplexed over a shared scheduler worker pool
// with per-session admission control and backpressure. `feed` is the
// matching client: it streams an edge file to a serve (or live) port as
// TRIS frames, optionally interleaving TRIQ queries, and prints the final
// estimates in count-compatible lines.
//
// `live` takes no file at all: it accepts one TCP connection on
// 127.0.0.1:PORT, consumes TRIS-framed edge chunks and tracks the
// sliding-window triangle estimate as it arrives, printing a progress row
// every --report edges. It is the single-session special case of serve
// (max_accepts = 1 over the same event loop and scheduler). A producer
// failure (disconnect mid-frame, bad frame) exits nonzero -- a live
// estimate over a silently truncated feed is worse than no estimate.

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/checkpoint.h"
#include "core/triangle_sampler.h"
#include "engine/estimators.h"
#include "engine/feed_client.h"
#include "engine/serve.h"
#include "engine/stream_engine.h"
#include "gen/churn.h"
#include "gen/datasets.h"
#include "graph/degree_stats.h"
#include "stream/binary_io.h"
#include "stream/dedup.h"
#include "stream/edge_source.h"
#include "stream/socket_stream.h"
#include "stream/text_io.h"
#include "util/simd.h"
#include "util/timer.h"

#include <sys/socket.h>
#include <unistd.h>

namespace {

using namespace tristream;

int Usage() {
  std::fprintf(
      stderr,
      "usage: tristream_cli <command> [flags]\n"
      "commands:\n"
      "  generate --dataset NAME --output FILE [--scale F] [--seed N]\n"
      "           [--churn F] [--churn-schedule mixed|tail|window]\n"
      "           [--churn-window W]\n"
      "           NAME: amazon dblp youtube livejournal orkut syndreg\n"
      "                 hepth syn3reg\n"
      "           --churn F expands the graph into a turnstile event\n"
      "           stream (inserts + deletes, TRIS v2): 'mixed' interleaves\n"
      "           deletes of a fraction-F subset, 'tail' deletes them all\n"
      "           at the end, 'window' keeps only the last W edges live.\n"
      "  inspect  FILE  (or --input FILE)\n"
      "           prints the TRIS header (version, count) and event mix\n"
      "           without running any estimator; works on text lists too.\n"
      "  stats    --input FILE\n"
      "  count    --input FILE [--algo A] [--estimators N] [--seed N]\n"
      "           [--batch W] [--threads T] [--pin 0|1]\n"
      "           [--simd auto|off|avx2|avx512]\n"
      "           [--mmap 0|1] [--median-of-means]\n"
      "           [--checkpoint PATH [--checkpoint-every N]] [--resume PATH]\n"
      "           [--vertices N (buriol)] [--max-degree D (jg)]\n"
      "           [--colors C (colorful)]\n"
      "           [--groups G --sample-prob P (dynamic)]\n"
      "           A: tsb (default) bulk dynamic buriol colorful jg\n"
      "              first-edge\n"
      "           dynamic is the turnstile estimator: the only algo that\n"
      "           accepts TRIS v2 inputs with delete events; every other\n"
      "           algo fails them with a diagnostic.\n"
      "           --checkpoint writes a crash-safe snapshot every N edges\n"
      "           (default 10000000; previous generation kept at\n"
      "           PATH.prev); --resume restores one, seeks the input\n"
      "           forward, and continues to estimates bit-identical to an\n"
      "           uninterrupted run with the same flags. tsb, bulk and\n"
      "           dynamic only.\n"
      "           --pin 1 binds tsb worker k to its planned core\n"
      "           (round-robin across NUMA nodes). Pinning never changes\n"
      "           estimates, only where the work runs.\n"
      "           --simd picks the vector ISA for the tsb/bulk estimator\n"
      "           sweep (auto = widest the CPU supports; every ISA is\n"
      "           bit-identical, so this only changes throughput).\n"
      "  window   --input FILE --window W [--estimators N] [--seed N]\n"
      "  live     --listen PORT --window W [--estimators N] [--seed N]\n"
      "           [--report EDGES]\n"
      "  serve    --listen PORT [--algo A] [--estimators N] [--seed N]\n"
      "           [--batch W] [--simd auto|off|avx2|avx512]\n"
      "           [--workers N] [--max-sessions N]\n"
      "           [--memory-budget-mb M] [--queue-capacity EDGES]\n"
      "           [--idle-timeout-ms N] [--accepts N] [--window W]\n"
      "           [--vertices N] [--max-degree D] [--colors C]\n"
      "           multi-tenant: every TRIS connection gets its own\n"
      "           session (own estimator, own status), multiplexed over\n"
      "           --workers scheduler threads. Estimates per session are\n"
      "           bit-identical to a standalone run with the same flags.\n"
      "           --accepts N exits cleanly after N connections drain.\n"
      "           [--checkpoint-dir DIR [--checkpoint-every EDGES]\n"
      "            [--checkpoint-sync-every N]]\n"
      "           --checkpoint-dir enables the self-healing plane for\n"
      "           named sessions (clients that open with a stream id):\n"
      "           per-session snapshots in DIR every --checkpoint-every\n"
      "           edges (fsynced every Nth save), checkpoint-then-evict\n"
      "           of parked sessions under memory pressure, transparent\n"
      "           restore on reconnect.\n"
      "  feed     --connect PORT --input FILE [--frame EDGES]\n"
      "           [--query-every EDGES] [--stream-id ID [--retry N]]\n"
      "           [--chaos-kill-after N[,N...]]\n"
      "           streams FILE to a serve/live port as TRIS frames;\n"
      "           the estimator (and its --simd ISA) lives server-side --\n"
      "           pass --simd to `serve`, not here;\n"
      "           --query-every sends a TRIQ mid-ingest snapshot query\n"
      "           (reply on stderr); prints the final server estimates\n"
      "           in count-compatible lines. Nonzero exit on a server\n"
      "           TRIE diagnostic or transport failure.\n"
      "           --stream-id opens a TRIH resume handshake under a\n"
      "           durable identity; --retry N reconnects up to N times on\n"
      "           transport failure, resuming from the server's ack so no\n"
      "           event is ever delivered twice. --chaos-kill-after\n"
      "           hard-closes the client's own socket at the listed event\n"
      "           counts (deterministic crash/resume exercise).\n"
      "  sample   --input FILE -k K --max-degree D [--estimators N]\n"
      "  convert  --input FILE --output FILE\n");
  return 2;
}

/// Parses --simd into `*out` (left untouched when the flag is absent).
/// Unknown names get a diagnostic and false; whether the host supports an
/// explicitly requested ISA is MakeEstimator's call, not the parser's.
bool ParseSimdFlagInto(const std::map<std::string, std::string>& flags,
                       SimdMode* out) {
  const auto it = flags.find("simd");
  if (it == flags.end()) return true;
  if (const auto mode = ParseSimdMode(it->second); mode.has_value()) {
    *out = *mode;
    return true;
  }
  std::fprintf(stderr, "flag --simd expects auto|off|avx2|avx512, got '%s'\n",
               it->second.c_str());
  return false;
}

/// How a flag is spelled on the command line (everything is --name except
/// the sample command's -k).
std::string FlagSpelling(const std::string& name) {
  return name == "k" ? "-k" : "--" + name;
}

/// Flags that take no value.
bool IsBooleanFlag(const std::string& key) { return key == "median-of-means"; }

using Flags = std::map<std::string, std::string>;

/// One subcommand: its handler and every flag it reads.
struct Command {
  const char* name;
  int (*run)(const Flags&);
  std::vector<std::string_view> flags;
};

/// Minimal flag map: --name value pairs (plus -k and boolean flags). A
/// flag `command` does not read exits 2 naming it.
Flags ParseFlags(int argc, char** argv, int first, const Command& command) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) {
      key = key.substr(2);
    } else if (key == "-k") {
      key = "k";
    } else {
      std::fprintf(stderr, "unexpected argument '%s'\n", argv[i]);
      std::exit(2);
    }
    if (std::find(command.flags.begin(), command.flags.end(), key) ==
        command.flags.end()) {
      std::fprintf(stderr, "unknown flag %s for '%s'\n",
                   FlagSpelling(key).c_str(), command.name);
      std::exit(2);
    }
    if (IsBooleanFlag(key)) {
      flags[key] = "1";
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag %s needs a value\n",
                   FlagSpelling(key).c_str());
      std::exit(2);
    }
    flags[key] = argv[++i];
  }
  return flags;
}

/// Strict non-negative integer parse. A typo'd or out-of-range value
/// ("--window 10x", "--listen banana", 21-digit counts) gets a
/// diagnostic and the usage text instead of being silently misread.
/// True when `text` is a non-empty run of decimal digits. Checked before
/// every strtoull, which alone is too forgiving: it skips whitespace,
/// accepts a sign (wrapping "-1" to 2^64-1), and stops at the first bad
/// character.
bool IsDigits(const std::string& text) {
  return !text.empty() &&
         text.find_first_not_of("0123456789") == std::string::npos;
}

std::uint64_t FlagU64(const std::map<std::string, std::string>& flags,
                      const std::string& name, std::uint64_t fallback) {
  const auto it = flags.find(name);
  if (it == flags.end()) return fallback;
  const std::string& text = it->second;
  if (!IsDigits(text)) {
    std::fprintf(stderr, "flag %s expects a non-negative integer, got '%s'\n",
                 FlagSpelling(name).c_str(), text.c_str());
    std::exit(Usage());
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno == ERANGE || end != text.c_str() + text.size()) {
    std::fprintf(stderr, "flag %s value '%s' is out of range\n",
                 FlagSpelling(name).c_str(), text.c_str());
    std::exit(Usage());
  }
  return value;
}

/// Strict finite-double parse, same contract as FlagU64.
double FlagDouble(const std::map<std::string, std::string>& flags,
                  const std::string& name, double fallback) {
  const auto it = flags.find(name);
  if (it == flags.end()) return fallback;
  const std::string& text = it->second;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() ||
      !std::isfinite(value) || errno == ERANGE) {
    std::fprintf(stderr, "flag %s expects a finite number, got '%s'\n",
                 FlagSpelling(name).c_str(), text.c_str());
    std::exit(Usage());
  }
  return value;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Opens `path` through the one-door ingest front end, exiting with a
/// diagnostic on failure.
std::unique_ptr<stream::EdgeStream> OpenSourceOrDie(
    const std::string& path, const stream::EdgeSourceOptions& options) {
  auto source = stream::OpenEdgeSource(path, options);
  if (!source.ok()) {
    std::fprintf(stderr, "cannot load '%s': %s\n", path.c_str(),
                 source.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*source);
}

/// Loads a whole edge file into memory (format sniffed by magic),
/// enforcing simplicity.
graph::EdgeList LoadEdges(const std::string& path) {
  stream::DedupEdgeStream source(OpenSourceOrDie(path, {}));
  graph::EdgeList clean;
  std::vector<Edge> batch;
  while (source.NextBatch(1 << 16, &batch) > 0) {
    for (const Edge& e : batch) clean.Add(e);
  }
  if (!source.status().ok()) {
    std::fprintf(stderr, "cannot load '%s': %s\n", path.c_str(),
                 source.status().ToString().c_str());
    std::exit(1);
  }
  const auto dropped = source.filter().offered() - source.filter().admitted();
  if (dropped > 0) {
    std::fprintf(stderr, "note: filtered %llu duplicate/self-loop edges\n",
                 static_cast<unsigned long long>(dropped));
  }
  return clean;
}

Result<gen::DatasetId> DatasetByName(const std::string& name) {
  if (name == "amazon") return gen::DatasetId::kAmazon;
  if (name == "dblp") return gen::DatasetId::kDblp;
  if (name == "youtube") return gen::DatasetId::kYoutube;
  if (name == "livejournal") return gen::DatasetId::kLiveJournal;
  if (name == "orkut") return gen::DatasetId::kOrkut;
  if (name == "syndreg") return gen::DatasetId::kSynDRegular;
  if (name == "hepth") return gen::DatasetId::kHepTh;
  if (name == "syn3reg") return gen::DatasetId::kSyn3Regular;
  return Status::InvalidArgument("unknown dataset '" + name + "'");
}

int CmdGenerate(const std::map<std::string, std::string>& flags) {
  const auto it = flags.find("dataset");
  const auto out = flags.find("output");
  if (it == flags.end() || out == flags.end()) return Usage();
  auto id = DatasetByName(it->second);
  if (!id.ok()) {
    std::fprintf(stderr, "%s\n", id.status().ToString().c_str());
    return 1;
  }
  const double scale = FlagDouble(flags, "scale", 0.02);
  const auto seed = FlagU64(flags, "seed", 1);
  const auto el = gen::MakeDataset(*id, scale, seed);
  if (flags.count("churn") || flags.count("churn-schedule")) {
    gen::ChurnOptions churn;
    churn.delete_fraction = FlagDouble(flags, "churn", 0.1);
    if (churn.delete_fraction < 0.0 || churn.delete_fraction > 1.0) {
      std::fprintf(stderr, "--churn expects a fraction in [0, 1]\n");
      return Usage();
    }
    churn.window_size = FlagU64(flags, "churn-window", 1 << 16);
    churn.seed = seed;
    const std::string schedule = flags.count("churn-schedule")
                                     ? flags.at("churn-schedule")
                                     : std::string("mixed");
    if (schedule == "mixed") {
      churn.schedule = gen::ChurnSchedule::kMixed;
    } else if (schedule == "tail") {
      churn.schedule = gen::ChurnSchedule::kAdversarialTail;
    } else if (schedule == "window") {
      churn.schedule = gen::ChurnSchedule::kWindow;
    } else {
      std::fprintf(stderr,
                   "--churn-schedule expects mixed, tail or window, got "
                   "'%s'\n",
                   schedule.c_str());
      return Usage();
    }
    const EdgeEventList events = gen::MakeChurnStream(el, churn);
    if (Status s = stream::WriteBinaryEvents(out->second, events); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::size_t deletes = 0;
    for (const EdgeOp op : events.ops) {
      if (op == EdgeOp::kDelete) ++deletes;
    }
    std::printf("wrote %zu events (%zu inserts, %zu deletes) to %s\n",
                events.size(), events.size() - deletes, deletes,
                out->second.c_str());
    return 0;
  }
  if (Status s = stream::WriteBinaryEdges(out->second, el); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu edges to %s\n", el.size(), out->second.c_str());
  return 0;
}

/// Loads a whole edge/event file (any TRIS version or text) into memory
/// through the dedup filter's live-map semantics, exiting on failure.
EdgeEventList LoadEvents(const std::string& path) {
  stream::DedupEdgeStream source(OpenSourceOrDie(path, {}));
  EdgeEventList events;
  stream::EventScratch scratch;
  while (true) {
    const EventBatchView view = source.NextEventBatchView(1 << 16, &scratch);
    if (view.empty()) break;
    for (std::size_t i = 0; i < view.size(); ++i) {
      events.Add(view.edges[i], view.op(i));
    }
  }
  if (!source.status().ok()) {
    std::fprintf(stderr, "cannot load '%s': %s\n", path.c_str(),
                 source.status().ToString().c_str());
    std::exit(1);
  }
  return events;
}

int CmdInspect(const std::map<std::string, std::string>& flags) {
  const auto it = flags.find("input");
  if (it == flags.end()) return Usage();
  const std::string& path = it->second;

  // Raw header peek first: inspect reports what is *in the file*, before
  // any reader-side filtering or validation beyond the header itself.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open '%s': %s\n", path.c_str(),
                 std::strerror(errno));
    return 1;
  }
  unsigned char header[stream::kTrisHeaderBytes];
  const std::size_t got = std::fread(header, 1, sizeof(header), f);
  if (got >= 4 && std::memcmp(header, stream::kTrisMagic, 4) == 0) {
    if (got < sizeof(header)) {
      std::fclose(f);
      std::fprintf(stderr, "'%s': truncated TRIS header (%zu of %d bytes)\n",
                   path.c_str(), got, stream::kTrisHeaderBytes);
      return 1;
    }
    std::uint32_t version = 0;
    std::uint64_t count = 0;
    std::memcpy(&version, header + 4, sizeof(version));
    std::memcpy(&count, header + 8, sizeof(count));
    std::fseek(f, 0, SEEK_END);
    const long file_bytes = std::ftell(f);
    std::fclose(f);
    std::printf("format      : TRIS binary\n");
    std::printf("version     : %u (%s)\n", version,
                version == stream::kTrisVersion    ? "insert-only edges"
                : version == stream::kTrisVersion2 ? "turnstile events"
                                                   : "unknown");
    std::printf("magic       : TRIS\n");
    std::printf("count       : %llu %s\n",
                static_cast<unsigned long long>(count),
                version == stream::kTrisVersion2 ? "events" : "edges");
    std::printf("file bytes  : %ld\n", file_bytes);
    if (version != stream::kTrisVersion &&
        version != stream::kTrisVersion2) {
      std::fprintf(stderr, "unsupported TRIS version %u\n", version);
      return 1;
    }
    const std::uint64_t expect =
        stream::kTrisHeaderBytes +
        count * (version == stream::kTrisVersion2 ? stream::kTrisEventBytes
                                                  : sizeof(Edge));
    if (file_bytes >= 0 &&
        static_cast<std::uint64_t>(file_bytes) != expect) {
      std::printf("note        : expected %llu bytes for %llu records\n",
                  static_cast<unsigned long long>(expect),
                  static_cast<unsigned long long>(count));
    }
    if (version == stream::kTrisVersion2) {
      auto events = stream::ReadBinaryEvents(path);
      if (!events.ok()) {
        std::fprintf(stderr, "cannot read events: %s: %s\n",
                     StatusCodeToken(events.status().code()),
                     events.status().message().c_str());
        return 1;
      }
      std::size_t deletes = 0;
      for (const EdgeOp op : events->ops) {
        if (op == EdgeOp::kDelete) ++deletes;
      }
      std::printf("inserts     : %zu\n", events->size() - deletes);
      std::printf("deletes     : %zu\n", deletes);
    }
    return 0;
  }
  std::fclose(f);

  // Not TRIS: treat as a text edge/event list.
  auto events = stream::ReadTextEvents(path);
  if (!events.ok()) {
    std::fprintf(stderr, "'%s' is neither TRIS nor a readable text edge "
                 "list: %s: %s\n",
                 path.c_str(), StatusCodeToken(events.status().code()),
                 events.status().message().c_str());
    return 1;
  }
  std::size_t deletes = 0;
  for (const EdgeOp op : events->ops) {
    if (op == EdgeOp::kDelete) ++deletes;
  }
  std::printf("format      : text edge list\n");
  std::printf("count       : %zu events\n", events->size());
  std::printf("inserts     : %zu\n", events->size() - deletes);
  std::printf("deletes     : %zu\n", deletes);
  return 0;
}

int CmdStats(const std::map<std::string, std::string>& flags) {
  const auto it = flags.find("input");
  if (it == flags.end()) return Usage();
  const auto el = LoadEdges(it->second);
  const auto s = graph::Summarize(el);
  std::printf("n (active vertices) : %llu\n",
              static_cast<unsigned long long>(s.num_vertices));
  std::printf("m (edges)           : %llu\n",
              static_cast<unsigned long long>(s.num_edges));
  std::printf("max degree          : %llu\n",
              static_cast<unsigned long long>(s.max_degree));
  std::printf("triangles (exact)   : %llu\n",
              static_cast<unsigned long long>(s.triangles));
  std::printf("wedges              : %llu\n",
              static_cast<unsigned long long>(s.wedges));
  std::printf("transitivity        : %.6f\n", s.transitivity);
  std::printf("m*maxdeg/triangles  : %.1f\n", s.m_delta_over_tau);
  return 0;
}

int CmdCount(const std::map<std::string, std::string>& flags) {
  const auto it = flags.find("input");
  if (it == flags.end()) return Usage();
  const std::string algo =
      flags.count("algo") ? flags.at("algo") : std::string("tsb");
  if (algo == "window") {
    // A windowed estimate describes only the last W edges; printing it in
    // count's whole-stream format would mislead. The window/live commands
    // own that output.
    std::fprintf(stderr,
                 "count estimates the whole stream; use the 'window' (or "
                 "'live') command for sliding-window estimates\n");
    return 2;
  }
  engine::EstimatorConfig config;
  config.num_estimators = FlagU64(flags, "estimators", 1 << 17);
  config.num_threads =
      static_cast<std::uint32_t>(FlagU64(flags, "threads", 1));
  config.seed = FlagU64(flags, "seed", 1);
  config.batch_size = static_cast<std::size_t>(FlagU64(flags, "batch", 0));
  config.num_vertices =
      static_cast<VertexId>(FlagU64(flags, "vertices", 0));
  config.max_degree_bound = FlagU64(flags, "max-degree", 0);
  config.num_colors =
      static_cast<std::uint32_t>(FlagU64(flags, "colors", 8));
  config.dynamic_groups =
      static_cast<std::uint32_t>(FlagU64(flags, "groups", 16));
  config.sample_probability = FlagDouble(flags, "sample-prob", 0.5);
  if (flags.count("median-of-means")) {
    config.aggregation = core::Aggregation::kMedianOfMeans;
  }
  // tsb only: --pin binds worker k to its planned core.
  config.pin_threads = FlagU64(flags, "pin", 0) != 0;
  if (!ParseSimdFlagInto(flags, &config.simd)) return Usage();
  auto estimator = engine::MakeEstimator(algo, config);
  if (!estimator.ok()) {
    std::fprintf(stderr, "%s\n", estimator.status().ToString().c_str());
    return 2;
  }

  // count never materializes the file: edges stream from the source
  // straight into the estimator through the engine, overlapping I/O with
  // absorption. (The dedup wrapper compacts admitted edges into the
  // engine's batch buffers, so the mapping is zero-copy up to the filter;
  // drop dedup-free ingest via the library API for the fully zero-copy
  // path.)
  stream::EdgeSourceOptions source_options;
  source_options.prefer_mmap = FlagU64(flags, "mmap", 1) != 0;
  source_options.dedup = true;
  stream::EdgeSourceInfo source_info;
  auto opened = stream::OpenEdgeSource(it->second, source_options,
                                       &source_info);
  if (!opened.ok()) {
    std::fprintf(stderr, "cannot load '%s': %s\n", it->second.c_str(),
                 opened.status().ToString().c_str());
    return 1;
  }
  const auto source = std::move(*opened);

  engine::SessionOptions engine_options;
  engine_options.batch_size = config.batch_size;

  const bool has_checkpoint = flags.count("checkpoint") != 0;
  const bool has_resume = flags.count("resume") != 0;
  if (flags.count("checkpoint-every") && !has_checkpoint) {
    std::fprintf(stderr, "--checkpoint-every needs --checkpoint PATH\n");
    return Usage();
  }
  if ((has_checkpoint || has_resume) && !(*estimator)->checkpointable()) {
    std::fprintf(stderr,
                 "algo '%s' is not checkpointable (tsb, bulk and dynamic "
                 "are)\n",
                 (*estimator)->name());
    return 2;
  }
  if (has_checkpoint) {
    engine_options.checkpoint_path = flags.at("checkpoint");
    engine_options.checkpoint_every_edges =
        FlagU64(flags, "checkpoint-every", 10000000);
    if (engine_options.checkpoint_every_edges == 0) {
      std::fprintf(stderr, "--checkpoint-every must be positive\n");
      return Usage();
    }
  }
  if (has_resume) {
    const std::string& resume_path = flags.at("resume");
    auto info = ckpt::LoadCheckpoint(resume_path, **estimator);
    if (info.ok()) {
      // Batch boundaries must replay exactly; the snapshot records the
      // original run's fetch size, which overrides any default here.
      if (flags.count("batch") && config.batch_size != info->batch_size) {
        std::fprintf(stderr,
                     "--batch %zu conflicts with the checkpoint's batch "
                     "size %llu\n",
                     config.batch_size,
                     static_cast<unsigned long long>(info->batch_size));
        return 2;
      }
      engine_options.batch_size =
          static_cast<std::size_t>(info->batch_size);
      if (Status s = ckpt::SkipToCheckpoint(*source, *info); !s.ok()) {
        std::fprintf(stderr, "cannot seek '%s' to the checkpoint position: "
                     "%s\n", it->second.c_str(), s.ToString().c_str());
        return 1;
      }
      std::fprintf(stderr, "resumed from '%s' at edge %llu\n",
                   resume_path.c_str(),
                   static_cast<unsigned long long>(info->edges_processed));
    } else if (info.status().code() == StatusCode::kUnavailable) {
      std::fprintf(stderr, "%s; starting fresh\n",
                   info.status().message().c_str());
    } else {
      std::fprintf(stderr, "cannot resume from '%s': %s\n",
                   resume_path.c_str(), info.status().ToString().c_str());
      return 1;
    }
  }

  engine::StreamEngine engine(engine_options);
  const Status streamed = engine.Run(**estimator, *source);
  if (!streamed.ok()) {
    std::fprintf(stderr, "stream failed mid-read: %s\n",
                 streamed.ToString().c_str());
    return 1;
  }
  const double tau = (*estimator)->EstimateTriangles();
  const engine::SessionMetrics& m = engine.metrics();
  std::printf("algo            : %s\n", (*estimator)->name());
  // The estimator's total, not m.edges: identical on a fresh run, but a
  // resumed run's metrics cover only the post-resume edges.
  std::printf("edges           : %llu\n",
              static_cast<unsigned long long>(
                  (*estimator)->edges_processed()));
  std::printf("triangles (est) : %.0f\n", tau);
  if ((*estimator)->has_wedge_estimates()) {
    std::printf("wedges (est)    : %.0f\n", (*estimator)->EstimateWedges());
    std::printf("transitivity    : %.6f\n",
                (*estimator)->EstimateTransitivity());
  }
  const std::string algo_name = (*estimator)->name();
  if (algo_name == "tsb" || algo_name == "bulk") {
    // Echo what actually ran, not just what was asked for: benchmark
    // harnesses scrape this line to record the dispatched ISA.
    std::printf("simd            : %s (%s kernels)\n",
                SimdModeName(config.simd),
                SimdIsaName(*ResolveSimdIsa(config.simd)));
  }
  std::string substrate;
  if (auto* tsb =
          dynamic_cast<engine::ParallelEstimator*>(estimator->get())) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), ", %u shard(s)%s",
                  tsb->counter().num_shards(),
                  tsb->counter().pinned() ? ", pinned" : "");
    substrate = buf;
  }
  std::printf("time            : %.3f s  (%.2f M edges/s%s)\n",
              m.total_seconds, m.edges_per_second() / 1e6,
              substrate.c_str());
  std::printf("batches         : %llu x %zu edges\n",
              static_cast<unsigned long long>(m.batches), m.batch_size);
  std::printf("io/compute time : %.3f s / %.3f s (%s ingest)\n",
              m.io_seconds, m.compute_seconds, source_info.reader_name());
  if (m.checkpoints > 0) {
    std::printf("checkpoints     : %llu written (%.3f s)\n",
                static_cast<unsigned long long>(m.checkpoints),
                m.checkpoint_seconds);
  }
  return 0;
}

int CmdWindow(const std::map<std::string, std::string>& flags) {
  const auto it = flags.find("input");
  if (it == flags.end() || !flags.count("window")) return Usage();
  const auto el = LoadEdges(it->second);
  core::SlidingWindowOptions options;
  options.window_size = FlagU64(flags, "window", 1 << 16);
  options.num_estimators = FlagU64(flags, "estimators", 4096);
  options.seed = FlagU64(flags, "seed", 1);
  engine::SlidingWindowEstimator estimator(options);
  stream::MemoryEdgeStream source(el);
  engine::StreamEngine engine;
  if (Status s = engine.Run(estimator, source); !s.ok()) {
    std::fprintf(stderr, "stream failed mid-read: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  const core::SlidingWindowTriangleCounter& counter = estimator.counter();
  std::printf("window edges        : %llu\n",
              static_cast<unsigned long long>(counter.window_edge_count()));
  std::printf("window triangles    : %.0f\n", counter.EstimateTriangles());
  std::printf("window transitivity : %.6f\n",
              counter.EstimateTransitivity());
  std::printf("mean chain length   : %.2f\n", counter.MeanChainLength());
  return 0;
}

int CmdLive(const std::map<std::string, std::string>& flags) {
  if (!flags.count("listen") || !flags.count("window")) return Usage();
  const std::uint64_t port = FlagU64(flags, "listen", 0);
  if (port > 65535) {
    std::fprintf(stderr, "--listen %llu is not a valid TCP port\n",
                 static_cast<unsigned long long>(port));
    return 2;
  }

  // live is the single-session special case of serve: one accepted
  // connection, one window session, the same event loop, queue
  // backpressure, and scheduler the multi-tenant mode uses -- the
  // bespoke accept-one/SocketEdgeStream loop this command used to carry
  // is gone. Output and exit codes are unchanged.
  engine::ServeOptions options;
  options.port = static_cast<std::uint16_t>(port);
  options.algo = "window";
  options.config.window_size = FlagU64(flags, "window", 1 << 16);
  options.config.num_estimators = FlagU64(flags, "estimators", 4096);
  options.config.seed = FlagU64(flags, "seed", 1);
  options.max_accepts = 1;
  options.max_sessions = 1;
  options.num_workers = 1;
  options.report_every_edges = FlagU64(flags, "report", 100000);
  options.on_report = [](engine::StreamingEstimator& est,
                         const engine::SessionMetrics&) {
    std::printf("%12llu  %16.0f  %14.6f\n",
                static_cast<unsigned long long>(est.edges_processed()),
                est.EstimateTriangles(), est.EstimateTransitivity());
  };

  // Filled on the event-loop thread when the session ends; read only
  // after Wait() joins it.
  struct LiveOutcome {
    bool seen = false;
    Status status;
    std::uint64_t edges_seen = 0;
    std::uint64_t window_edges = 0;
    double triangles = 0.0;
    double transitivity = 0.0;
  } outcome;
  options.on_session_end = [&outcome](engine::Session& session,
                                      const Status& status) {
    outcome.seen = true;
    outcome.status = status;
    auto* est = dynamic_cast<engine::SlidingWindowEstimator*>(
        &session.estimator());
    if (est != nullptr) {
      const core::SlidingWindowTriangleCounter& counter = est->counter();
      outcome.edges_seen = counter.edges_seen();
      outcome.window_edges = counter.window_edge_count();
      outcome.triangles = counter.EstimateTriangles();
      outcome.transitivity = counter.EstimateTransitivity();
    }
  };

  engine::Server server(std::move(options));
  auto started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "cannot listen: %s\n",
                 started.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "listening on 127.0.0.1:%u for TRIS frames "
               "(window=%llu, estimators=%llu)\n",
               *started, FlagU64(flags, "window", 1 << 16),
               FlagU64(flags, "estimators", 4096));
  std::printf("%12s  %16s  %14s\n", "edge#", "window triangles",
              "transitivity");
  server.Wait();
  if (!outcome.seen) {
    std::fprintf(stderr, "live stream ended without a session\n");
    return 1;
  }
  if (!outcome.status.ok()) {
    std::fprintf(stderr, "live stream failed after %llu edges: %s\n",
                 static_cast<unsigned long long>(outcome.edges_seen),
                 outcome.status.ToString().c_str());
    return 1;
  }
  std::printf("feed closed cleanly after %llu edges\n",
              static_cast<unsigned long long>(outcome.edges_seen));
  std::printf("window edges        : %llu\n",
              static_cast<unsigned long long>(outcome.window_edges));
  std::printf("window triangles    : %.0f\n", outcome.triangles);
  std::printf("window transitivity : %.6f\n", outcome.transitivity);
  return 0;
}

int CmdServe(const std::map<std::string, std::string>& flags) {
  if (!flags.count("listen")) return Usage();
  const std::uint64_t port = FlagU64(flags, "listen", 0);
  if (port > 65535) {
    std::fprintf(stderr, "--listen %llu is not a valid TCP port\n",
                 static_cast<unsigned long long>(port));
    return 2;
  }
  engine::ServeOptions options;
  options.port = static_cast<std::uint16_t>(port);
  options.algo =
      flags.count("algo") ? flags.at("algo") : std::string("bulk");
  options.config.num_estimators = FlagU64(flags, "estimators", 1 << 17);
  options.config.seed = FlagU64(flags, "seed", 1);
  options.config.num_threads =
      static_cast<std::uint32_t>(FlagU64(flags, "threads", 1));
  options.config.window_size = FlagU64(flags, "window", 1 << 16);
  options.config.num_vertices =
      static_cast<VertexId>(FlagU64(flags, "vertices", 0));
  options.config.max_degree_bound = FlagU64(flags, "max-degree", 0);
  options.config.num_colors =
      static_cast<std::uint32_t>(FlagU64(flags, "colors", 8));
  options.config.dynamic_groups =
      static_cast<std::uint32_t>(FlagU64(flags, "groups", 16));
  options.config.sample_probability = FlagDouble(flags, "sample-prob", 0.5);
  if (!ParseSimdFlagInto(flags, &options.config.simd)) return Usage();
  options.batch_size = static_cast<std::size_t>(FlagU64(flags, "batch", 0));
  // Mirror `count`: --batch pins the estimator's internal batching too,
  // so serve results stay diffable against `count --batch W` and
  // mid-ingest queries can be answered at every pump boundary.
  options.config.batch_size = options.batch_size;
  options.num_workers = static_cast<std::size_t>(FlagU64(flags, "workers", 2));
  options.max_sessions =
      static_cast<std::size_t>(FlagU64(flags, "max-sessions", 64));
  options.memory_budget_bytes = static_cast<std::size_t>(
      FlagU64(flags, "memory-budget-mb", 0) * (std::uint64_t{1} << 20));
  options.queue_capacity =
      static_cast<std::size_t>(FlagU64(flags, "queue-capacity", 1 << 16));
  options.idle_timeout_millis =
      static_cast<int>(FlagU64(flags, "idle-timeout-ms", 0));
  options.max_accepts = FlagU64(flags, "accepts", 0);
  if (flags.count("checkpoint-dir")) {
    options.checkpoint_dir = flags.at("checkpoint-dir");
    options.checkpoint_every_edges =
        FlagU64(flags, "checkpoint-every", 1000000);
    options.checkpoint_sync_every =
        FlagU64(flags, "checkpoint-sync-every", 8);
  } else if (flags.count("checkpoint-every") ||
             flags.count("checkpoint-sync-every")) {
    std::fprintf(stderr,
                 "--checkpoint-every/--checkpoint-sync-every require "
                 "--checkpoint-dir\n");
    return 2;
  }

  // Sessions construct their estimator per connection; a config typo
  // would otherwise surface only as every connect being refused.
  if (auto probe = engine::MakeEstimator(options.algo, options.config);
      !probe.ok()) {
    std::fprintf(stderr, "%s\n", probe.status().ToString().c_str());
    return 2;
  }

  options.on_session_end = [](engine::Session& session,
                              const Status& status) {
    if (!status.ok()) {
      std::printf("session failed after %llu edges: %s\n",
                  static_cast<unsigned long long>(
                      session.estimator().edges_processed()),
                  status.ToString().c_str());
      return;
    }
    const engine::SessionSnapshot snap = session.snapshot();
    if (snap.has_wedges) {
      std::printf("session done: edges=%llu triangles=%.0f wedges=%.0f "
                  "transitivity=%.6f\n",
                  static_cast<unsigned long long>(snap.edges),
                  snap.triangles, snap.wedges, snap.transitivity);
    } else {
      std::printf("session done: edges=%llu triangles=%.0f\n",
                  static_cast<unsigned long long>(snap.edges),
                  snap.triangles);
    }
    std::fflush(stdout);
  };

  const SimdMode simd_mode = options.config.simd;
  engine::Server server(std::move(options));
  const auto started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "cannot listen: %s\n",
                 started.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "simd: %s (%s kernels)\n", SimdModeName(simd_mode),
               SimdIsaName(*ResolveSimdIsa(simd_mode)));
  std::fprintf(stderr,
               "serving on 127.0.0.1:%u (algo=%s, workers=%llu, "
               "max-sessions=%llu)\n",
               *started, flags.count("algo") ? flags.at("algo").c_str()
                                             : "bulk",
               static_cast<unsigned long long>(
                   FlagU64(flags, "workers", 2)),
               static_cast<unsigned long long>(
                   FlagU64(flags, "max-sessions", 64)));
  server.Wait();
  const engine::ServerStats stats = server.stats();
  std::printf("sessions        : %llu accepted, %llu refused, "
              "%llu ok, %llu failed\n",
              static_cast<unsigned long long>(stats.accepted),
              static_cast<unsigned long long>(stats.refused),
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.failed));
  if (stats.detached + stats.resumed + stats.evicted + stats.restored > 0) {
    std::printf("recovery        : %llu detached, %llu resumed, "
                "%llu evicted, %llu restored\n",
                static_cast<unsigned long long>(stats.detached),
                static_cast<unsigned long long>(stats.resumed),
                static_cast<unsigned long long>(stats.evicted),
                static_cast<unsigned long long>(stats.restored));
  }
  return 0;
}

/// Comma-separated u64 list for --chaos-kill-after. Empty string = empty
/// list; a malformed element reports itself and exits.
std::vector<std::uint64_t> ParseKillList(const std::string& text) {
  std::vector<std::uint64_t> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string item = text.substr(start, comma - start);
    if (!item.empty()) {
      const bool digits = IsDigits(item);
      errno = 0;
      const unsigned long long value =
          digits ? std::strtoull(item.c_str(), nullptr, 10) : 0;
      if (!digits || errno == ERANGE) {
        std::fprintf(stderr,
                     "--chaos-kill-after: '%s' is not an event count\n",
                     item.c_str());
        std::exit(2);
      }
      out.push_back(value);
    }
    start = comma + 1;
  }
  return out;
}

int CmdFeed(const std::map<std::string, std::string>& flags) {
  const auto it = flags.find("input");
  if (it == flags.end() || !flags.count("connect")) return Usage();
  const std::uint64_t port = FlagU64(flags, "connect", 0);
  if (port == 0 || port > 65535) {
    std::fprintf(stderr, "--connect %llu is not a valid TCP port\n",
                 static_cast<unsigned long long>(port));
    return 2;
  }

  engine::FeedClientOptions options;
  options.port = static_cast<std::uint16_t>(port);
  options.frame_edges =
      static_cast<std::size_t>(FlagU64(flags, "frame", 8192));
  options.stream_id = FlagU64(flags, "stream-id", 0);
  options.max_retries =
      static_cast<std::uint32_t>(FlagU64(flags, "retry", 0));
  if (options.max_retries > 0 && options.stream_id == 0) {
    // Resume is identity-based: without a stream id there is no server
    // ack, and a blind resend would double-count everything the dead
    // connection had already delivered.
    std::fprintf(stderr, "--retry requires --stream-id\n");
    return 2;
  }
  options.backoff.seed = options.stream_id != 0 ? options.stream_id : 1;
  options.query_every_edges = FlagU64(flags, "query-every", 0);
  if (options.query_every_edges > 0) {
    options.on_query = [](const engine::SnapshotWire& q,
                          std::uint64_t sent) {
      std::fprintf(stderr,
                   "query @%llu sent: valid=%d edges=%llu "
                   "triangles=%.0f transitivity=%.6f\n",
                   static_cast<unsigned long long>(sent), q.valid ? 1 : 0,
                   static_cast<unsigned long long>(q.edges), q.triangles,
                   q.transitivity);
    };
  }
  options.on_retry = [](std::uint32_t attempt, const Status& cause,
                        std::uint64_t delay_millis) {
    std::fprintf(stderr, "feed retry %u in %llu ms: %s: %s\n", attempt,
                 static_cast<unsigned long long>(delay_millis),
                 StatusCodeToken(cause.code()), cause.message().c_str());
  };
  if (flags.count("chaos-kill-after")) {
    options.kill_after_events = ParseKillList(flags.at("chaos-kill-after"));
  }

  // Same ingest front end (and dedup filter) as `count`, so the edge
  // sequence a serve session absorbs is identical to what a local run
  // over the same file would see -- that is what makes the server's
  // estimates diffable against `count` output. The dedup filter rebuilds
  // deterministically on Reset, so a resumed feed replays the identical
  // admitted sequence up to the server's ack.
  stream::EdgeSourceOptions source_options;
  source_options.dedup = true;
  auto source = OpenSourceOrDie(it->second, source_options);

  auto result = engine::RunFeedClient(*source, options);
  if (!result.ok()) {
    std::fprintf(stderr, "feed failed: %s: %s\n",
                 StatusCodeToken(result.status().code()),
                 result.status().message().c_str());
    return 1;
  }
  const engine::SnapshotWire& snap = result->final_snapshot;
  std::printf("edges           : %llu\n",
              static_cast<unsigned long long>(snap.edges));
  std::printf("triangles (est) : %.0f\n", snap.triangles);
  if (snap.has_wedges) {
    std::printf("wedges (est)    : %.0f\n", snap.wedges);
    std::printf("transitivity    : %.6f\n", snap.transitivity);
  }
  if (result->reconnects > 0) {
    std::fprintf(stderr, "reconnects      : %llu\n",
                 static_cast<unsigned long long>(result->reconnects));
  }
  return 0;
}

int CmdSample(const std::map<std::string, std::string>& flags) {
  const auto it = flags.find("input");
  if (it == flags.end() || !flags.count("max-degree")) return Usage();
  const auto el = LoadEdges(it->second);
  core::TriangleSamplerOptions options;
  options.num_estimators = FlagU64(flags, "estimators", 1 << 18);
  options.seed = FlagU64(flags, "seed", 1);
  options.max_degree_bound = FlagU64(flags, "max-degree", 0);
  core::TriangleSampler sampler(options);
  sampler.ProcessEdges(el.edges());
  const auto k = FlagU64(flags, "k", 1);
  auto result = sampler.Sample(k);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("held=%llu accepted=%llu\n",
              static_cast<unsigned long long>(result->held),
              static_cast<unsigned long long>(result->accepted));
  for (const core::Triangle& t : result->triangles) {
    std::printf("{%u, %u, %u}\n", t.a, t.b, t.c);
  }
  return 0;
}

int CmdConvert(const std::map<std::string, std::string>& flags) {
  const auto in = flags.find("input");
  const auto out = flags.find("output");
  if (in == flags.end() || out == flags.end()) return Usage();
  // Event-model load: an insert-only input round-trips through the v1
  // writers exactly as before (WriteBinaryEvents emits plain v1 when no
  // deletes are present), and a turnstile input converts to v2 instead of
  // dying in an edges-only reader.
  const EdgeEventList events = LoadEvents(in->second);
  const Status s = EndsWith(out->second, ".tris")
                       ? stream::WriteBinaryEvents(out->second, events)
                       : stream::WriteTextEvents(out->second, events);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu events to %s\n", events.size(),
              out->second.c_str());
  return 0;
}

const Command kCommands[] = {
    {"generate", CmdGenerate,
     {"dataset", "output", "scale", "seed", "churn", "churn-schedule",
      "churn-window"}},
    {"inspect", CmdInspect, {"input"}},
    {"stats", CmdStats, {"input"}},
    {"count", CmdCount,
     {"input", "algo", "estimators", "threads", "seed", "batch", "pin",
      "simd", "mmap", "median-of-means", "checkpoint", "checkpoint-every",
      "resume", "vertices", "max-degree", "colors", "groups",
      "sample-prob"}},
    {"window", CmdWindow, {"input", "window", "estimators", "seed"}},
    {"live", CmdLive, {"listen", "window", "estimators", "seed", "report"}},
    {"serve", CmdServe,
     {"listen", "algo", "estimators", "seed", "threads", "batch", "simd",
      "workers", "max-sessions", "memory-budget-mb", "queue-capacity",
      "idle-timeout-ms", "accepts", "window", "vertices", "max-degree",
      "colors", "groups", "sample-prob", "checkpoint-dir",
      "checkpoint-every", "checkpoint-sync-every"}},
    {"feed", CmdFeed,
     {"connect", "input", "frame", "query-every", "stream-id", "retry",
      "chaos-kill-after"}},
    {"sample", CmdSample, {"input", "k", "max-degree", "estimators", "seed"}},
    {"convert", CmdConvert, {"input", "output"}},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string name = argv[1];
  for (const Command& command : kCommands) {
    if (name != command.name) continue;
    // inspect takes its file as a bare positional ("inspect g.tris") for
    // quick interactive use; --input works too.
    if (name == "inspect" && argc >= 3 && argv[2][0] != '-') {
      return CmdInspect(Flags{{"input", argv[2]}});
    }
    return command.run(ParseFlags(argc, argv, 2, command));
  }
  return Usage();
}

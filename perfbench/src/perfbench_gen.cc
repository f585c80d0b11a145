// Builds one benchmark input and its exact answer, outside the timed
// process.
//
//   perfbench_gen --dataset NAME --scale F --seed N [--churn F]
//                 --output STREAM.tris --truth TRUTH.json
//
// The stream is made exactly as `tristream_cli generate` makes it
// (gen::MakeDataset, then gen::MakeChurnStream with the kMixed schedule
// when --churn is given). The truth file holds the exact triangle count of
// the graph the stream leaves live (for an insert-only stream, the whole
// graph), computed with the graph oracle. Both files are written under a
// temporary name and renamed into place, so an interrupted run never
// leaves a half-written cache entry behind.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>

#include "gen/churn.h"
#include "gen/datasets.h"
#include "graph/degree_stats.h"
#include "graph/edge_list.h"
#include "stream/binary_io.h"
#include "util/types.h"

namespace {

using tristream::Edge;
using tristream::EdgeEventList;
using tristream::EdgeOp;
namespace gen = tristream::gen;
namespace graph = tristream::graph;

bool DatasetByName(const std::string& name, gen::DatasetId* id) {
  if (name == "livejournal") {
    *id = gen::DatasetId::kLiveJournal;
  } else if (name == "dblp") {
    *id = gen::DatasetId::kDblp;
  } else {
    return false;
  }
  return true;
}

/// The graph an event stream leaves live: inserts minus deletes.
graph::EdgeList LiveGraph(const EdgeEventList& events) {
  std::unordered_map<std::uint64_t, Edge> live;
  live.reserve(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Edge& e = events.edges[i];
    if (events.op(i) == EdgeOp::kInsert) {
      live.emplace(e.Key(), e);
    } else {
      live.erase(e.Key());
    }
  }
  graph::EdgeList out;
  for (const auto& [key, e] : live) out.Add(e);
  return out;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench_gen: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dataset, output, truth;
  double scale = 0.0, churn = 0.0;
  std::uint64_t seed = 1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--dataset") {
      dataset = value;
    } else if (flag == "--scale") {
      scale = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--churn") {
      churn = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--output") {
      output = value;
    } else if (flag == "--truth") {
      truth = value;
    } else {
      return Fail("unknown flag " + flag);
    }
  }
  gen::DatasetId id;
  if (!DatasetByName(dataset, &id)) return Fail("unknown dataset " + dataset);
  if (output.empty() || truth.empty() || scale <= 0.0 || churn < 0.0 ||
      churn > 1.0) {
    return Fail("needs --dataset --scale --output --truth [--seed --churn]");
  }

  const graph::EdgeList base = gen::MakeDataset(id, scale, seed);
  EdgeEventList events;
  if (churn > 0.0) {
    gen::ChurnOptions options;
    options.schedule = gen::ChurnSchedule::kMixed;
    options.delete_fraction = churn;
    options.seed = seed;
    events = gen::MakeChurnStream(base, options);
  } else {
    events.edges = base.edges();
  }
  std::size_t deletes = 0;
  for (const EdgeOp op : events.ops) deletes += op == EdgeOp::kDelete;

  const std::string tmp_stream = output + ".tmp";
  const tristream::Status written =
      churn > 0.0 ? tristream::stream::WriteBinaryEvents(tmp_stream, events)
                  : tristream::stream::WriteBinaryEdges(tmp_stream, base);
  if (!written.ok()) return Fail(written.ToString());

  const graph::GraphSummary live =
      graph::Summarize(churn > 0.0 ? LiveGraph(events) : base);
  const std::string tmp_truth = truth + ".tmp";
  std::FILE* f = std::fopen(tmp_truth.c_str(), "w");
  if (f == nullptr) return Fail("cannot write " + tmp_truth);
  std::fprintf(f,
               "{\"events\": %zu, \"deletes\": %zu, \"live_edges\": %llu, "
               "\"max_degree\": %llu, \"triangles\": %llu, "
               "\"m_delta_over_tau\": %.3f}\n",
               events.size(), deletes,
               static_cast<unsigned long long>(live.num_edges),
               static_cast<unsigned long long>(live.max_degree),
               static_cast<unsigned long long>(live.triangles),
               live.m_delta_over_tau);
  if (std::fclose(f) != 0) return Fail("cannot write " + tmp_truth);
  if (std::rename(tmp_stream.c_str(), output.c_str()) != 0 ||
      std::rename(tmp_truth.c_str(), truth.c_str()) != 0) {
    return Fail("cannot move the input into place");
  }
  return 0;
}

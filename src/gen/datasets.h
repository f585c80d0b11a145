// Fitted synthetic stand-ins for the paper's evaluation datasets.
//
// The paper evaluates on six SNAP/social graphs plus two small baselines
// (Figure 3, Sec. 4.2). Those exact files are not redistributable inside
// this repository, so each dataset is replaced by a generator recipe that
// preserves the properties the algorithms are sensitive to: m, Δ, τ, the
// accuracy predictor mΔ/τ, and the degree-distribution shape (see
// DESIGN.md, "Substitutions"). Every recipe accepts a scale factor in
// (0, 1] that shrinks the instance for time-boxed benchmarking; reference
// values from the paper are carried alongside so benches can print
// paper-vs-measured tables.

#ifndef TRISTREAM_GEN_DATASETS_H_
#define TRISTREAM_GEN_DATASETS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/edge_list.h"
#include "util/types.h"

namespace tristream {
namespace gen {

/// The paper's evaluation datasets.
enum class DatasetId {
  kAmazon,        // co-purchase, small Δ, moderate triangles
  kDblp,          // collaboration cliques
  kYoutube,       // extreme Δ, triangle-poor (hardest case)
  kLiveJournal,   // large social graph
  kOrkut,         // largest social graph
  kSynDRegular,   // paper's synthetic uniform-degree graph
  kHepTh,         // Sec. 4.2 baseline-study graph
  kSyn3Regular,   // Sec. 4.2 exact 3-regular baseline graph
};

/// All datasets of Figure 3, in the paper's row order.
std::vector<DatasetId> Figure3Datasets();

/// Reference values the paper reports for the original dataset.
struct DatasetReference {
  std::string name;
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  std::uint64_t max_degree = 0;
  std::uint64_t triangles = 0;
  double m_delta_over_tau = 0.0;
};

/// The paper-reported numbers for `id` (Figure 3 / Sec. 4.2).
const DatasetReference& PaperReference(DatasetId id);

/// Builds the stand-in instance at the given scale (fraction of the
/// original size; 1.0 reproduces full paper scale). The arrival order is
/// already randomized (arbitrary-order adjacency stream). kSyn3Regular
/// ignores `scale`: the paper instance is exactly n=2000.
graph::EdgeList MakeDataset(DatasetId id, double scale, std::uint64_t seed);

}  // namespace gen
}  // namespace tristream

#endif  // TRISTREAM_GEN_DATASETS_H_

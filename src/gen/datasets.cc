#include "gen/datasets.h"

#include <algorithm>
#include <cmath>

#include "gen/chung_lu.h"
#include "gen/collaboration.h"
#include "gen/holme_kim.h"
#include "gen/triangle_regular.h"
#include "gen/uniform_degree.h"
#include "util/logging.h"
#include "util/rng.h"

namespace tristream {
namespace gen {
namespace {

VertexId ScaledN(std::uint64_t full_n, double scale, std::uint64_t floor_n) {
  const double scaled = static_cast<double>(full_n) * scale;
  return static_cast<VertexId>(
      std::max<double>(scaled, static_cast<double>(floor_n)));
}

graph::EdgeList Shuffled(graph::EdgeList el, std::uint64_t seed) {
  std::vector<Edge> edges = el.edges();
  Rng rng(seed ^ 0x5f5f5f5f5f5f5f5fULL);
  std::shuffle(edges.begin(), edges.end(), rng);
  return graph::EdgeList(std::move(edges));
}

}  // namespace

std::vector<DatasetId> Figure3Datasets() {
  return {DatasetId::kAmazon,      DatasetId::kDblp,
          DatasetId::kYoutube,     DatasetId::kLiveJournal,
          DatasetId::kOrkut,       DatasetId::kSynDRegular};
}

const DatasetReference& PaperReference(DatasetId id) {
  // Values from Figure 3 (left panel) and Sec. 4.2 of the paper.
  static const DatasetReference kAmazon{"Amazon", 335000, 926000, 549,
                                        667129, 761.9};
  static const DatasetReference kDblp{"DBLP", 317000, 1000000, 343, 2224385,
                                      161.9};
  static const DatasetReference kYoutube{"Youtube", 1130000, 3000000, 28754,
                                         3056386, 28107.1};
  static const DatasetReference kLiveJournal{"LiveJournal", 4000000, 34700000,
                                             14815, 177820130, 2889.4};
  static const DatasetReference kOrkut{"Orkut", 3070000, 117200000, 33313,
                                       633319568, 6164.0};
  static const DatasetReference kSynDReg{"Syn.~d-reg", 3070000, 121400000,
                                         114, 848519155, 16.3};
  static const DatasetReference kHepTh{"Hep-Th", 9877, 51971, 130, 90649,
                                       74.53};
  static const DatasetReference kSyn3Reg{"Syn.3-reg", 2000, 3000, 3, 1000,
                                         9.0};
  switch (id) {
    case DatasetId::kAmazon:
      return kAmazon;
    case DatasetId::kDblp:
      return kDblp;
    case DatasetId::kYoutube:
      return kYoutube;
    case DatasetId::kLiveJournal:
      return kLiveJournal;
    case DatasetId::kOrkut:
      return kOrkut;
    case DatasetId::kSynDRegular:
      return kSynDReg;
    case DatasetId::kHepTh:
      return kHepTh;
    case DatasetId::kSyn3Regular:
      return kSyn3Reg;
  }
  TRISTREAM_CHECK(false) << "unknown dataset";
  return kAmazon;  // unreachable
}

graph::EdgeList MakeDataset(DatasetId id, double scale, std::uint64_t seed) {
  TRISTREAM_CHECK(scale > 0.0 && scale <= 1.0);
  const DatasetReference& ref = PaperReference(id);
  switch (id) {
    case DatasetId::kAmazon: {
      // Co-purchase: power law with low hub degrees and moderate
      // clustering. Fitted: mΔ/τ ≈ 725 vs the paper's 762.
      const VertexId n = ScaledN(ref.n, scale, 4000);
      return Shuffled(HolmeKim(n, 3, /*triad_probability=*/0.55, seed), seed);
    }
    case DatasetId::kDblp: {
      // Collaboration cliques. Fitted: mΔ/τ ≈ 150 vs the paper's 162.
      CollaborationOptions opt;
      opt.num_authors = ScaledN(ref.n, scale, 4000);
      opt.num_papers = static_cast<std::uint64_t>(opt.num_authors) * 11 / 10;
      opt.mean_extra_authors = 1.4;
      opt.max_extra_authors = 10;
      opt.zipf_exponent = 0.40;
      return Shuffled(Collaboration(opt, seed), seed);
    }
    case DatasetId::kYoutube: {
      // Extremely skewed, triangle-poor: the paper's hardest case
      // (mΔ/τ = 28107).
      const VertexId n = ScaledN(ref.n, scale, 20000);
      const auto m = std::max<std::uint64_t>(
          static_cast<std::uint64_t>(static_cast<double>(ref.m) * scale),
          50000);
      // Exponent 2.6 keeps the scaled instance in the same extreme
      // regime (mΔ/τ in the tens of thousands; triangle counts shrink
      // superlinearly under downscaling, so the paper's exact 28107 is
      // not reachable at reduced m -- see EXPERIMENTS.md).
      return Shuffled(ChungLuPowerLaw(n, m, /*exponent=*/2.6, seed), seed);
    }
    case DatasetId::kLiveJournal: {
      const VertexId n = ScaledN(ref.n, scale, 20000);
      return Shuffled(HolmeKim(n, 9, /*triad_probability=*/0.45, seed), seed);
    }
    case DatasetId::kOrkut: {
      const VertexId n = ScaledN(ref.n, scale, 10000);
      return Shuffled(HolmeKim(n, 38, /*triad_probability=*/0.12, seed),
                      seed);
    }
    case DatasetId::kSynDRegular: {
      // A plain configuration model with degrees in [42,114] is locally
      // tree-like (Θ(1) triangles) and cannot reproduce the paper's
      // τ = 848M; the clustered variant (40-cliques + uniform background)
      // hits the same degree band with Δ = 114 exactly and
      // mΔ/τ ≈ 17.9 vs the paper's 16.3.
      const VertexId n = ScaledN(ref.n, scale, 10000);
      return Shuffled(ClusteredUniformDegreeGraph(n, 40, 3, 75, seed), seed);
    }
    case DatasetId::kHepTh: {
      // arXiv Hep-Th collaboration graph: heavy per-paper cliques drive
      // τ/m ≈ 1.7. Parameters calibrated so the full-scale instance hits
      // mΔ/τ ≈ 74.7 versus the paper's 74.5 (m ≈ 57K vs 52K, Δ ≈ 108 vs
      // 130, τ ≈ 83K vs 91K).
      CollaborationOptions opt;
      opt.num_authors = ScaledN(ref.n, scale, 2000);
      opt.num_papers = opt.num_authors;
      opt.mean_extra_authors = 1.4;
      opt.max_extra_authors = 25;
      opt.zipf_exponent = 0.25;
      return Shuffled(Collaboration(opt, seed), seed);
    }
    case DatasetId::kSyn3Regular:
      return PaperSyn3Regular(seed);
  }
  TRISTREAM_CHECK(false) << "unknown dataset";
  return graph::EdgeList();
}

}  // namespace gen
}  // namespace tristream

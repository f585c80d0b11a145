// Figure 3 reproduction: the dataset summary table (n, m, Δ, τ, mΔ/τ) and
// the degree-frequency panels (log-scale frequency vs degree).
//
// The paper's values describe the original SNAP graphs; ours describe the
// calibrated synthetic stand-ins at the configured scale (see
// src/gen/datasets.h). The property the evaluation depends on is the mΔ/τ
// ordering across datasets (Youtube-like hardest, Syn-d-regular easiest),
// which the stand-ins preserve.

#include <cstdio>

#include "bench/bench_util.h"
#include "gen/datasets.h"

int main() {
  using namespace tristream;
  using namespace tristream::bench;
  PrintBanner("Figure 3: dataset summary and degree distributions",
              "Figure 3 (evaluation datasets table + degree panels)");

  std::printf("\n%-14s | %10s %11s %8s %12s %10s | %s\n", "dataset",
              "n", "m", "max-deg", "triangles", "m*D/tau", "paper m*D/tau");
  std::printf("---------------+-----------------------------------------"
              "--------------+--------------\n");
  std::vector<gen::DatasetId> ids = gen::Figure3Datasets();
  ids.push_back(gen::DatasetId::kHepTh);
  ids.push_back(gen::DatasetId::kSyn3Regular);

  std::vector<DatasetInstance> instances;
  for (gen::DatasetId id : ids) {
    DatasetInstance inst = MakeInstance(id);
    const auto& ref = gen::PaperReference(id);
    std::printf("%-14s | %10s %11s %8llu %12s %10.1f | %10.1f\n",
                ref.name.c_str(), Pretty(inst.summary.num_vertices).c_str(),
                Pretty(inst.summary.num_edges).c_str(),
                static_cast<unsigned long long>(inst.summary.max_degree),
                Pretty(inst.summary.triangles).c_str(),
                inst.summary.m_delta_over_tau, ref.m_delta_over_tau);
    instances.push_back(std::move(inst));
  }

  std::printf("\npaper reference (original SNAP graphs, full scale):\n");
  std::printf("%-14s | %10s %11s %8s %12s\n", "dataset", "n", "m", "max-deg",
              "triangles");
  for (gen::DatasetId id : ids) {
    const auto& ref = gen::PaperReference(id);
    std::printf("%-14s | %10s %11s %8llu %12s\n", ref.name.c_str(),
                Pretty(ref.n).c_str(), Pretty(ref.m).c_str(),
                static_cast<unsigned long long>(ref.max_degree),
                Pretty(ref.triangles).c_str());
  }

  std::printf("\ndegree-frequency panels (log-scale frequency vs degree, "
              "as in Figure 3 right):\n");
  for (const DatasetInstance& inst : instances) {
    std::printf("\n--- %s ---\n", gen::PaperReference(inst.id).name.c_str());
    std::printf("%s", inst.summary.degree_histogram.ToAsciiPlot(64, 8).c_str());
  }
  return 0;
}

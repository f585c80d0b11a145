// Streaming 4-clique counting and sampling (Sec. 5.1, Theorems 5.5/5.7).
//
// 4-cliques are partitioned by the stream order of their first two edges
// f1, f2:
//   Type I  -- f1 and f2 share a vertex: three edges (r1, r2, r3) pin down
//              the four vertices; Algorithm 4 extends neighborhood sampling
//              with a third reservoir level over N(r1, r2) (edges after r2
//              adjacent to r1 or r2, excluding the unique wedge-closing
//              edge, which is collected passively). Estimator
//              X = c1·c2·m on a completed clique; E[X] = τ4^I (Lemma 5.3).
//   Type II -- f1 and f2 are vertex-disjoint: two independent level-1
//              reservoirs pin down all four vertices and the remaining four
//              edges are collected passively. E[Y] = τ4^II (Lemma 5.4).
//
// Deviation note: with two independent uniform reservoirs, a Type II
// clique is captured by BOTH assignments (rA,rB) = (f1,f2) and (f2,f1),
// i.e. with probability 2/m² rather than the 1/m² of Lemma 5.2, whose
// proof implicitly orders the pair. We therefore
// set Y = m²/2 on detection, restoring E[Y] = τ4^II exactly; the
// unbiasedness tests pin this down.

#ifndef TRISTREAM_CORE_CLIQUE_COUNTER_H_
#define TRISTREAM_CORE_CLIQUE_COUNTER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/triangle_counter.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/types.h"

namespace tristream {
namespace core {

/// A 4-clique reported by a sampler: vertices in ascending order.
struct Clique4 {
  VertexId a = kInvalidVertex;
  VertexId b = kInvalidVertex;
  VertexId c = kInvalidVertex;
  VertexId d = kInvalidVertex;

  friend constexpr bool operator==(const Clique4&, const Clique4&) = default;
};

/// One Type I estimator (Algorithm 4): three reservoir levels plus passive
/// collection of the closing edge and the two remaining new-vertex edges.
class TypeICliqueSampler {
 public:
  /// Processes the next stream edge.
  void Process(const Edge& e, Rng& rng);

  std::uint64_t edges_seen() const { return edges_seen_; }
  std::uint64_t c1() const { return c1_; }
  std::uint64_t c2() const { return c2_; }
  const StreamEdge& r1() const { return r1_; }
  const StreamEdge& r2() const { return r2_; }
  const StreamEdge& r3() const { return r3_; }

  /// True when all six clique edges have been seen (κ1 is a 4-clique).
  bool has_clique() const {
    return r3_.valid() && closer_found_ && d_found_[0] && d_found_[1];
  }

  /// The held 4-clique. Requires has_clique().
  Clique4 clique() const;

  /// Unbiased Type I estimate: X = c1·c2·m on a completed clique
  /// (Lemma 5.3), else 0.
  double Estimate() const {
    return has_clique() ? static_cast<double>(c1_) *
                              static_cast<double>(c2_) *
                              static_cast<double>(edges_seen_)
                        : 0.0;
  }

  void Reset();

 private:
  void ResetLevel2();
  void ResetLevel3();

  StreamEdge r1_, r2_, r3_;
  std::uint64_t c1_ = 0;       // |N(r1)|
  std::uint64_t c2_ = 0;       // |N(r1, r2)| (closing edge excluded)
  std::uint64_t edges_seen_ = 0;
  bool closer_found_ = false;  // wedge (r1, r2) closing edge collected
  Edge awaited_[2];            // the two new-vertex edges once r3 is set
  bool d_found_[2] = {false, false};
};

/// One Type II estimator: two independent level-1 reservoirs over the
/// whole stream plus passive collection of the other four clique edges.
class TypeIICliqueSampler {
 public:
  void Process(const Edge& e, Rng& rng);

  std::uint64_t edges_seen() const { return edges_seen_; }
  const StreamEdge& rA() const { return ra_; }
  const StreamEdge& rB() const { return rb_; }

  /// True when rA, rB are vertex-disjoint and the four cross edges all
  /// arrived after the later of the two.
  bool has_clique() const;

  /// The held 4-clique. Requires has_clique().
  Clique4 clique() const;

  /// Unbiased Type II estimate: Y = m²/2 on a completed clique (Lemma 5.4
  /// with the pair-symmetry correction; see header comment), else 0.
  double Estimate() const {
    const auto m = static_cast<double>(edges_seen_);
    return has_clique() ? 0.5 * m * m : 0.0;
  }

  void Reset();

 private:
  void ResetCollection();

  StreamEdge ra_, rb_;
  std::uint64_t edges_seen_ = 0;
  bool cross_found_[4] = {false, false, false, false};
};

/// Configuration for the combined 4-clique counter.
struct CliqueCounterOptions {
  /// Estimators per type (the algorithm runs this many Type I and this
  /// many Type II samplers).
  std::uint64_t num_estimators = 1 << 14;
  std::uint64_t seed = 0xc11c4e40f4c3ULL;
  Aggregation aggregation = Aggregation::kMean;
  std::uint32_t median_groups = 12;
};

/// Streaming (ε, δ)-estimator for τ4(G) = τ4^I + τ4^II (Theorem 5.5) and
/// uniform 4-clique sampler (Theorem 5.7 for ℓ = 4).
class CliqueCounter4 {
 public:
  explicit CliqueCounter4(const CliqueCounterOptions& options);

  void ProcessEdge(const Edge& e);
  void ProcessEdges(std::span<const Edge> edges);

  std::uint64_t edges_processed() const { return edges_processed_; }

  /// Aggregated estimate of the Type I clique count τ4^I.
  double EstimateTypeI() const;
  /// Aggregated estimate of the Type II clique count τ4^II.
  double EstimateTypeII() const;
  /// Aggregated estimate of τ4 = τ4^I + τ4^II (Theorem 5.5).
  double EstimateCliques() const { return EstimateTypeI() + EstimateTypeII(); }

  /// Draws up to `k` uniformly distributed 4-cliques by rejection: a held
  /// Type I clique survives with probability proportional to c1·c2 and a
  /// held Type II clique with a constant, equalizing every clique's output
  /// probability (Theorem 5.7 for ℓ = 4). Needs an upper bound on the
  /// maximum degree. Fails with FailedPrecondition when fewer than k
  /// survive.
  Result<std::vector<Clique4>> SampleCliques(std::uint64_t k,
                                             std::uint64_t max_degree_bound);

  /// Estimator access for tests.
  const std::vector<TypeICliqueSampler>& type1() const { return type1_; }
  const std::vector<TypeIICliqueSampler>& type2() const { return type2_; }

 private:
  CliqueCounterOptions options_;
  Rng rng_;
  Rng sample_rng_;
  std::vector<TypeICliqueSampler> type1_;
  std::vector<TypeIICliqueSampler> type2_;
  std::uint64_t edges_processed_ = 0;
};

}  // namespace core
}  // namespace tristream

#endif  // TRISTREAM_CORE_CLIQUE_COUNTER_H_

#include "engine/estimators.h"

namespace tristream {
namespace engine {

Result<std::unique_ptr<StreamingEstimator>> MakeEstimator(
    const std::string& algo, const EstimatorConfig& config) {
  if (!ResolveSimdIsa(config.simd).has_value()) {
    return Status::InvalidArgument(
        std::string("--simd ") + SimdModeName(config.simd) +
        " requested but this CPU does not support it (use --simd auto)");
  }
  if (algo == "tsb") {
    core::ParallelCounterOptions o;
    o.num_estimators = config.num_estimators;
    o.num_threads = config.num_threads;
    o.seed = config.seed;
    o.aggregation = config.aggregation;
    o.median_groups = config.median_groups;
    o.batch_size = config.batch_size;
    o.pin_threads = config.pin_threads;
    o.simd = config.simd;
    return std::unique_ptr<StreamingEstimator>(
        std::make_unique<ParallelEstimator>(o));
  }
  if (algo == "bulk") {
    core::TriangleCounterOptions o;
    o.num_estimators = config.num_estimators;
    o.seed = config.seed;
    o.aggregation = config.aggregation;
    o.median_groups = config.median_groups;
    o.batch_size = config.batch_size;
    o.simd = config.simd;
    return std::unique_ptr<StreamingEstimator>(
        std::make_unique<BulkEstimator>(o));
  }
  if (algo == "window") {
    core::SlidingWindowOptions o;
    o.window_size = config.window_size;
    o.num_estimators = config.num_estimators;
    o.seed = config.seed;
    o.aggregation = config.aggregation;
    o.median_groups = config.median_groups;
    return std::unique_ptr<StreamingEstimator>(
        std::make_unique<SlidingWindowEstimator>(o));
  }
  if (algo == "dynamic") {
    if (config.sample_probability <= 0.0 || config.sample_probability > 1.0) {
      return Status::InvalidArgument(
          "dynamic needs a sampling probability in (0, 1] "
          "(--sample-prob P)");
    }
    if (config.dynamic_groups == 0) {
      return Status::InvalidArgument("dynamic needs --groups G > 0");
    }
    core::DynamicCounterOptions o;
    o.num_groups = config.dynamic_groups;
    o.sample_probability = config.sample_probability;
    o.seed = config.seed;
    o.aggregation = config.aggregation;
    o.median_groups = config.median_groups;
    return std::unique_ptr<StreamingEstimator>(
        std::make_unique<DynamicEstimator>(o));
  }
  if (algo == "buriol") {
    if (config.num_vertices == 0) {
      return Status::InvalidArgument(
          "buriol needs the vertex universe in advance (--vertices N > 0); "
          "neighborhood sampling (tsb) has no such requirement");
    }
    baseline::BuriolCounter::Options o;
    o.num_estimators = config.num_estimators;
    o.seed = config.seed;
    o.num_vertices = config.num_vertices;
    return std::unique_ptr<StreamingEstimator>(
        std::make_unique<BuriolStreamEstimator>(o));
  }
  if (algo == "colorful") {
    if (config.num_colors == 0) {
      return Status::InvalidArgument("colorful needs --colors C > 0");
    }
    baseline::ColorfulTriangleCounter::Options o;
    o.num_colors = config.num_colors;
    o.seed = config.seed;
    return std::unique_ptr<StreamingEstimator>(
        std::make_unique<ColorfulStreamEstimator>(o));
  }
  if (algo == "jg") {
    if (config.max_degree_bound == 0) {
      return Status::InvalidArgument(
          "jg needs an a-priori degree bound (--max-degree D > 0)");
    }
    baseline::JowhariGhodsiCounter::Options o;
    o.num_estimators = config.num_estimators;
    o.seed = config.seed;
    o.max_degree_bound = config.max_degree_bound;
    return std::unique_ptr<StreamingEstimator>(
        std::make_unique<JowhariGhodsiStreamEstimator>(o));
  }
  if (algo == "first-edge") {
    baseline::FirstEdgeExhaustiveCounter::Options o;
    o.num_estimators = config.num_estimators;
    o.seed = config.seed;
    return std::unique_ptr<StreamingEstimator>(
        std::make_unique<FirstEdgeStreamEstimator>(o));
  }
  return Status::InvalidArgument("unknown algorithm '" + algo +
                                 "' (known: " + KnownAlgos() + ")");
}

const char* KnownAlgos() {
  return "tsb bulk window dynamic buriol colorful jg first-edge";
}

}  // namespace engine
}  // namespace tristream

#ifndef ADJ_CORE_OPTIONS_H_
#define ADJ_CORE_OPTIONS_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "dist/cluster.h"
#include "dist/hcube.h"
#include "wcoj/leapfrog.h"

namespace adj::core {

/// The five execution strategies compared in the paper's evaluation.
enum class Strategy {
  kCoOpt,            // ADJ: co-optimized pre-computing + one-round join
  kCommFirst,        // HCubeJ: communication-first one-round join
  kCachedCommFirst,  // HCubeJ+Cache: comm-first with CacheTrieJoin
  kBinaryJoin,       // SparkSQL: multi-round binary hash joins
  kBigJoin,          // BigJoin: multi-round parallel WCOJ
};

const char* StrategyName(Strategy s);

/// Inverse of StrategyName: resolves one of the five paper strategy
/// names ("ADJ", "HCubeJ", "HCubeJ+Cache", "SparkSQL", "BigJoin");
/// InvalidArgument for anything else. Strategies registered at runtime
/// have no enum value — look those up via core::StrategyRegistry.
StatusOr<Strategy> StrategyFromName(const std::string& name);

/// All five paper strategies, in the evaluation's canonical
/// multi-round-to-ADJ order (SparkSQL, BigJoin, HCubeJ, HCubeJ+Cache,
/// ADJ — the column order of Fig. 12).
const std::vector<Strategy>& AllStrategies();

struct EngineOptions {
  dist::ClusterConfig cluster;
  dist::HCubeVariant hcube_variant = dist::HCubeVariant::kPull;
  /// Sampling budget for the ADJ optimizer's cardinality estimation
  /// (the paper uses 10^5 at full scale; defaults are scaled down with
  /// the datasets).
  uint64_t num_samples = 1000;
  uint64_t seed = 42;
  /// Failure emulation: extension budget ≈ memory overflow, seconds ≈
  /// the paper's 12-hour timeout.
  wcoj::JoinLimits limits;
  /// Wall-clock budget for Engine::Plan itself (GHD search, sampling,
  /// calibration, plan search). When the budget runs out mid-planning,
  /// Plan returns DeadlineExceeded instead of a plan — the serve layer
  /// maps per-request deadlines here so a cold plan-cache miss fails
  /// fast rather than overshooting the deadline before the join even
  /// starts. Infinite (the default) preserves unbounded planning.
  double planning_budget_seconds = std::numeric_limits<double>::infinity();
  /// Ablations / testing hooks.
  bool use_exhaustive_planner = false;  // oracle plan search (Alg.2 off)
  bool use_exact_estimates = false;     // NaiveJoin-backed cardinalities
  /// Fixed extension rates replacing the measured calibration (>0 =
  /// use this value, skip measuring). Plan choice — notably the
  /// precompute-vs-inline decision — adapts to measured seek rates, so
  /// tests that assert a specific plan shape pin both rates to make
  /// planning deterministic on slow or instrumented hardware.
  double beta_precomputed_override = 0.0;
  double beta_raw_override = 0.0;
};

/// InvalidArgument when `options` cannot describe a run (a server
/// count below 1). Every entry point checks it before any work starts.
Status ValidateOptions(const EngineOptions& options);

}  // namespace adj::core

#endif  // ADJ_CORE_OPTIONS_H_

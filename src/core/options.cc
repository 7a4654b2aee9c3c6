#include "core/options.h"

namespace adj::core {

const char* StrategyName(Strategy s) {
  switch (s) {
    case Strategy::kCoOpt:
      return "ADJ";
    case Strategy::kCommFirst:
      return "HCubeJ";
    case Strategy::kCachedCommFirst:
      return "HCubeJ+Cache";
    case Strategy::kBinaryJoin:
      return "SparkSQL";
    case Strategy::kBigJoin:
      return "BigJoin";
  }
  return "?";
}

StatusOr<Strategy> StrategyFromName(const std::string& name) {
  for (Strategy s : AllStrategies()) {
    if (name == StrategyName(s)) return s;
  }
  return Status::InvalidArgument("unknown strategy: " + name);
}

Status ValidateOptions(const EngineOptions& options) {
  if (options.cluster.num_servers < 1) {
    return Status::InvalidArgument(
        "cluster.num_servers must be >= 1, got " +
        std::to_string(options.cluster.num_servers));
  }
  return Status::OK();
}

const std::vector<Strategy>& AllStrategies() {
  static const std::vector<Strategy>* kAll = new std::vector<Strategy>{
      Strategy::kBinaryJoin, Strategy::kBigJoin, Strategy::kCommFirst,
      Strategy::kCachedCommFirst, Strategy::kCoOpt};
  return *kAll;
}

}  // namespace adj::core

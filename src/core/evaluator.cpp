#include "core/evaluator.hpp"

#include <stdexcept>
#include <utility>

#include "core/plan.hpp"

namespace lens::core {

std::string deployment_kind_name(DeploymentKind kind) {
  switch (kind) {
    case DeploymentKind::kAllEdge: return "All-Edge";
    case DeploymentKind::kAllCloud: return "All-Cloud";
    case DeploymentKind::kPartitioned: return "Partitioned";
  }
  throw std::logic_error("deployment_kind_name: unknown kind");
}

std::vector<std::string> default_tier_names(std::size_t num_tiers) {
  if (num_tiers < 2) {
    throw std::invalid_argument("default_tier_names: need at least 2 tiers");
  }
  std::vector<std::string> names;
  names.reserve(num_tiers);
  names.emplace_back("edge");
  if (num_tiers == 3) {
    names.emplace_back("fog");
  } else {
    for (std::size_t k = 1; k + 1 < num_tiers; ++k) {
      names.push_back("fog" + std::to_string(k));
    }
  }
  names.emplace_back("cloud");
  return names;
}

std::string option_label(const DeploymentOption& option, const dnn::Architecture& arch,
                         const std::vector<std::string>& tier_names) {
  // Two-tier options (and hand-built legacy options without a cut vector)
  // keep the historical names so existing goldens and CSV consumers see no
  // change.
  if (option.cuts.size() <= 1) {
    switch (option.kind) {
      case DeploymentKind::kAllEdge: return "All-Edge";
      case DeploymentKind::kAllCloud: return "All-Cloud";
      case DeploymentKind::kPartitioned:
        return "split@" + arch.layers().at(option.split_after.value()).name;
    }
    throw std::logic_error("option_label: unknown kind");
  }
  if (tier_names.size() != option.cuts.size() + 1) {
    throw std::invalid_argument("option_label: tier name count does not match cuts");
  }
  const std::size_t n = arch.num_layers();
  std::string out;
  for (std::size_t k = 0; k < tier_names.size(); ++k) {
    const std::size_t begin = k == 0 ? 0 : option.cuts[k - 1];
    const std::size_t end = k == tier_names.size() - 1 ? n : option.cuts[k];
    if (begin == end) continue;  // tier holds no layers
    if (!out.empty()) out += '|';
    out += tier_names[k];
    if (begin != 0) out += '@' + std::to_string(begin);
  }
  return out;
}

std::string DeploymentOption::label(const dnn::Architecture& arch) const {
  if (cuts.size() <= 1) return option_label(*this, arch, {});
  return option_label(*this, arch, default_tier_names(cuts.size() + 1));
}

bool DeploymentEvaluation::has_all_edge() const {
  for (const DeploymentOption& o : options) {
    if (o.kind == DeploymentKind::kAllEdge) return true;
  }
  return false;
}

const DeploymentOption& DeploymentEvaluation::all_edge() const {
  for (const DeploymentOption& o : options) {
    if (o.kind == DeploymentKind::kAllEdge) return o;
  }
  throw std::logic_error("DeploymentEvaluation: missing All-Edge option");
}

const DeploymentOption& DeploymentEvaluation::all_cloud() const {
  for (const DeploymentOption& o : options) {
    if (o.kind == DeploymentKind::kAllCloud) return o;
  }
  throw std::logic_error("DeploymentEvaluation: missing All-Cloud option");
}

DeploymentEvaluator::DeploymentEvaluator(const perf::LayerPerformanceModel& model,
                                         comm::CommModel comm, dnn::DataSizeModel sizes)
    : DeploymentEvaluator(model, std::move(comm), EvaluatorConfig{sizes, 0}) {}

DeploymentEvaluator::DeploymentEvaluator(const perf::LayerPerformanceModel& model,
                                         comm::CommModel comm, EvaluatorConfig config)
    : topology_(TierTopology::two_tier(model, std::move(comm),
                                       config.edge_memory_budget_bytes, config.cloud_model)),
      config_(config) {}

DeploymentEvaluator::DeploymentEvaluator(TierTopology topology, dnn::DataSizeModel sizes)
    : topology_(std::move(topology)), config_() {
  config_.sizes = sizes;
  config_.edge_memory_budget_bytes = topology_.tier(0).memory_budget_bytes;
  config_.cloud_model = topology_.tier(topology_.num_tiers() - 1).model;
}

DeploymentEvaluation DeploymentEvaluator::evaluate(const dnn::Architecture& arch,
                                                   double tu_mbps) const {
  return compile(arch).price(tu_mbps);
}

}  // namespace lens::core

#include "core/plan.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace lens::core {

// ---------------------------------------------------------------------------
// Compilation: enumerate the nondecreasing cut-vector lattice
// (0 <= c_1 <= ... <= c_{K-1} <= n) in ascending lexicographic order and drop
// options that break a tier's memory budget. At K=2 the lattice is Algorithm
// 1's option list in its historical order (All-Cloud, each split, All-Edge),
// and the paper's candidate rule applies: a split must ship fewer bytes than
// the raw input. At K >= 3 the survivors are dominance-pruned in coefficient
// space instead — option B goes when some option A has a latency constant,
// every per-hop latency slope, an energy constant, and an energy slope that
// are all <= B's (then A is at least as good at *every* positive throughput
// vector, so nothing Pareto-optimal is ever dropped). All-Edge / All-Cloud
// anchors are exempt so DeploymentEvaluation::all_cloud() keeps its contract.
// The prune is not applied at K=2: it would drop options the paper lists.
// ---------------------------------------------------------------------------

namespace {

bool surface_dominates(const comm::MultiHopCurve& lat_a, const comm::MultiHopCurve& en_a,
                       const comm::MultiHopCurve& lat_b, const comm::MultiHopCurve& en_b) {
  if (lat_a.constant > lat_b.constant || en_a.constant > en_b.constant) return false;
  for (std::size_t h = 0; h < lat_a.per_inverse_tu.size(); ++h) {
    if (lat_a.per_inverse_tu[h] > lat_b.per_inverse_tu[h]) return false;
  }
  for (std::size_t h = 0; h < en_a.per_inverse_tu.size(); ++h) {
    if (en_a.per_inverse_tu[h] > en_b.per_inverse_tu[h]) return false;
  }
  return true;
}

/// Drop every partitioned option some other option dominates (first
/// occurrence wins exact ties; anchors exempt), keeping the order.
void dominance_prune(std::vector<DeploymentOption>& options,
                     std::vector<comm::MultiHopCurve>& latency,
                     std::vector<comm::MultiHopCurve>& energy) {
  const std::size_t m = options.size();
  std::vector<bool> pruned(m, false);
  for (std::size_t b = 0; b < m; ++b) {
    if (options[b].kind != DeploymentKind::kPartitioned) continue;
    for (std::size_t a = 0; a < m && !pruned[b]; ++a) {
      if (a == b || pruned[a]) continue;
      if (!surface_dominates(latency[a], energy[a], latency[b], energy[b])) continue;
      if (a < b || !surface_dominates(latency[b], energy[b], latency[a], energy[a])) {
        pruned[b] = true;
      }
    }
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < m; ++i) {
    if (pruned[i]) continue;
    if (kept != i) {
      options[kept] = std::move(options[i]);
      latency[kept] = std::move(latency[i]);
      energy[kept] = std::move(energy[i]);
    }
    ++kept;
  }
  options.resize(kept);
  latency.resize(kept);
  energy.resize(kept);
}

}  // namespace

DeploymentPlan DeploymentEvaluator::compile(const dnn::Architecture& arch) const {
  const std::size_t num_tiers = topology_.num_tiers();
  const std::size_t num_hops = topology_.num_hops();
  DeploymentPlan plan;
  plan.comm_ = topology_.hop(0);
  plan.later_hops_.assign(topology_.hops().begin() + 1, topology_.hops().end());
  plan.tier_names_ = topology_.tier_names();
  plan.num_tiers_ = num_tiers;
  const std::size_t n = arch.num_layers();

  // Lines 5-8: per-layer prediction on the edge tier (also the plan's layer
  // arrays). With the remote tiers' models below, these are the only
  // predictor calls of the whole compile/price pipeline.
  plan.layer_latency_ms_.reserve(n);
  plan.layer_energy_mj_.reserve(n);
  for (const dnn::LayerInfo& info : arch.layers()) {
    const perf::LayerMeasurement m = topology_.tier(0).model->predict(info.spec, info.input);
    plan.layer_latency_ms_.push_back(m.latency_ms);
    plan.layer_energy_mj_.push_back(m.energy_mj());
  }
  // Per-tier latency sums: prefix sums, so segment [a, b) costs
  // sums[b] - sums[a], except on the last tier, whose segment always ends at
  // n and is read straight off a suffix sum (the paper's cloud suffix).
  std::vector<std::vector<double>> tier_sums(num_tiers);
  for (std::size_t k = 0; k < num_tiers; ++k) {
    const perf::LayerPerformanceModel* model = topology_.tier(k).model;
    if (model == nullptr) continue;  // free tier: zero compute
    const auto layer_ms = [&](std::size_t i) {
      if (k == 0) return plan.layer_latency_ms_[i];
      const dnn::LayerInfo& info = arch.layers()[i];
      return model->predict(info.spec, info.input).latency_ms;
    };
    std::vector<double>& sums = tier_sums[k];
    sums.assign(n + 1, 0.0);
    if (k + 1 == num_tiers) {
      for (std::size_t i = n; i-- > 0;) sums[i] = sums[i + 1] + layer_ms(i);
    } else {
      for (std::size_t i = 0; i < n; ++i) sums[i + 1] = sums[i] + layer_ms(i);
    }
  }
  std::vector<double> edge_energy_prefix(n + 1, 0.0);
  std::vector<std::uint64_t> weight_prefix(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    edge_energy_prefix[i + 1] = edge_energy_prefix[i] + plan.layer_energy_mj_[i];
    weight_prefix[i + 1] = weight_prefix[i] + 4ULL * arch.layers()[i].params;
  }
  // Activation bytes crossing boundary b (before layer b); boundary 0 is the
  // raw model input.
  std::vector<std::uint64_t> boundary_bytes(n + 1, 0);
  boundary_bytes[0] = arch.input_bytes(config_.sizes);
  for (std::size_t i = 0; i < n; ++i) {
    boundary_bytes[i + 1] = arch.output_bytes(i, config_.sizes);
  }

  // Ascending lexicographic odometer over nondecreasing cut vectors.
  std::vector<std::size_t> cuts(num_hops, 0);
  while (true) {
    // Lines 9-12 at K=2: a split is a candidate only when its output is
    // smaller on the wire than the model input.
    bool feasible = num_hops > 1 || cuts[0] == 0 || cuts[0] == n ||
                    boundary_bytes[cuts[0]] < boundary_bytes[0];
    for (std::size_t k = 0; k < num_tiers && feasible; ++k) {
      const std::uint64_t tier_budget = topology_.tier(k).memory_budget_bytes;
      if (tier_budget == 0) continue;
      const std::size_t begin = k == 0 ? 0 : cuts[k - 1];
      const std::size_t end = k == num_tiers - 1 ? n : cuts[k];
      if (weight_prefix[end] - weight_prefix[begin] > tier_budget) feasible = false;
    }
    if (feasible) {
      DeploymentOption o;
      o.cuts = cuts;
      o.tier_latency_ms.assign(num_tiers, 0.0);
      for (std::size_t k = 0; k < num_tiers; ++k) {
        const std::vector<double>& sums = tier_sums[k];
        if (sums.empty()) continue;
        const std::size_t begin = k == 0 ? 0 : cuts[k - 1];
        o.tier_latency_ms[k] = k + 1 == num_tiers ? sums[begin] : sums[cuts[k]] - sums[begin];
      }
      o.hop_tx_bytes.assign(num_hops, 0);
      for (std::size_t h = 0; h < num_hops; ++h) {
        // Hop h carries the activation at boundary c_{h+1} whenever any
        // layer runs past tier h; an empty middle tier still relays.
        if (cuts[h] < n) o.hop_tx_bytes[h] = boundary_bytes[cuts[h]];
      }
      o.edge_latency_ms = o.tier_latency_ms[0];
      o.edge_energy_mj = edge_energy_prefix[cuts[0]];
      o.edge_weight_bytes = weight_prefix[cuts[0]];
      o.tx_bytes = o.hop_tx_bytes[0];
      double remote_ms = 0.0;
      for (std::size_t k = 1; k < num_tiers; ++k) remote_ms += o.tier_latency_ms[k];
      o.cloud_latency_ms = remote_ms;
      if (cuts.front() == n) {
        o.kind = DeploymentKind::kAllEdge;
      } else if (cuts.back() == 0) {
        o.kind = DeploymentKind::kAllCloud;
      } else {
        o.kind = DeploymentKind::kPartitioned;
        if (num_hops == 1) o.split_after = cuts[0] - 1;
      }

      comm::MultiHopCurve latency;
      latency.per_inverse_tu.assign(num_hops, 0.0);
      for (std::size_t k = 0; k < num_tiers; ++k) latency.constant += o.tier_latency_ms[k];
      for (std::size_t h = 0; h < num_hops; ++h) {
        if (o.hop_tx_bytes[h] == 0) continue;
        const comm::CostCurve hop_latency =
            topology_.hop(h).comm_latency_curve(o.hop_tx_bytes[h]);
        latency.constant += hop_latency.constant;
        latency.per_inverse_tu[h] = hop_latency.per_inverse_tu;
      }
      // Only the device radio (hop 0) draws from the battery; fog-to-cloud
      // transfers are not billed to the edge energy objective.
      comm::MultiHopCurve energy;
      energy.per_inverse_tu.assign(num_hops, 0.0);
      energy.constant = o.edge_energy_mj;
      if (o.hop_tx_bytes[0] > 0) {
        const comm::CostCurve tx_energy = plan.comm_.tx_energy_curve(o.hop_tx_bytes[0]);
        energy.constant += tx_energy.constant;
        energy.per_inverse_tu[0] = tx_energy.per_inverse_tu;
      }

      plan.options_.push_back(std::move(o));
      plan.latency_surfaces_.push_back(std::move(latency));
      plan.energy_surfaces_.push_back(std::move(energy));
    }

    // Advance the odometer.
    std::size_t i = num_hops;
    while (i > 0 && cuts[i - 1] == n) --i;
    if (i == 0) break;
    ++cuts[i - 1];
    for (std::size_t j = i; j < num_hops; ++j) cuts[j] = cuts[i - 1];
  }

  if (num_hops > 1) {
    dominance_prune(plan.options_, plan.latency_surfaces_, plan.energy_surfaces_);
    return plan;
  }
  // One-hop surfaces are the 1-D cost-vs-t_u curves.
  for (std::size_t i = 0; i < plan.options_.size(); ++i) {
    plan.latency_curves_.push_back(
        {plan.latency_surfaces_[i].constant, plan.latency_surfaces_[i].per_inverse_tu[0]});
    plan.energy_curves_.push_back(
        {plan.energy_surfaces_[i].constant, plan.energy_surfaces_[i].per_inverse_tu[0]});
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Pricing. Every entry point runs the one pipeline-order loop below (tier 0,
// hop 0, tier 1, hop 1, ...), so a K=2 option costs edge + comm + cloud in
// the order Algorithm 1 always added them; an All-Edge option adds its empty
// cloud segment as + 0.0, which is exact.
// ---------------------------------------------------------------------------

namespace {

/// Positive and finite; NaN fails.
bool valid_tu(double tu) { return tu > 0.0 && tu <= std::numeric_limits<double>::max(); }

void throw_bad_tu() {
  throw std::invalid_argument("DeploymentPlan: throughput must be positive and finite");
}

/// Lines 13-14: independent minima for each objective; the first option
/// wins ties.
void keep_best(PricedObjectives& best, std::size_t i, double latency, double energy) {
  if (i == 0 || latency < best.best_latency_ms) {
    best.best_latency_ms = latency;
    best.best_latency_option = i;
  }
  if (i == 0 || energy < best.best_energy_mj) {
    best.best_energy_mj = energy;
    best.best_energy_option = i;
  }
}

}  // namespace

const comm::CommModel& DeploymentPlan::hop(std::size_t h) const {
  if (h == 0) return comm_;
  return later_hops_.at(h - 1);
}

void DeploymentPlan::require_two_tier(const char* what) const {
  if (!later_hops_.empty()) {
    throw std::logic_error(std::string("DeploymentPlan: ") + what +
                           " needs a per-hop throughput vector on a K-tier plan");
  }
}

void DeploymentPlan::check_arity(std::span<const double> tu_mbps) const {
  if (tu_mbps.size() != num_hops()) {
    throw std::invalid_argument("DeploymentPlan: expected one throughput per hop");
  }
}

void DeploymentPlan::check_priceable(std::span<const double> tu_mbps) const {
  check_arity(tu_mbps);
  for (double tu : tu_mbps) {
    if (!valid_tu(tu)) throw_bad_tu();
  }
  if (options_.empty()) throw std::logic_error("DeploymentPlan: empty plan");
}

double DeploymentPlan::latency_at(const DeploymentOption& o,
                                  std::span<const double> tu_mbps) const {
  double latency = o.tier_latency_ms[0];
  for (std::size_t h = 0; h < tu_mbps.size(); ++h) {
    if (o.hop_tx_bytes[h] > 0) {
      latency += hop(h).comm_latency_ms(o.hop_tx_bytes[h], tu_mbps[h]);
    }
    latency += o.tier_latency_ms[h + 1];
  }
  return latency;
}

double DeploymentPlan::energy_at(const DeploymentOption& o,
                                 std::span<const double> tu_mbps) const {
  if (o.hop_tx_bytes[0] == 0) return o.edge_energy_mj;
  return o.edge_energy_mj + comm_.tx_energy_mj(o.hop_tx_bytes[0], tu_mbps[0]);
}

double DeploymentPlan::option_latency_ms(std::size_t index, double tu_mbps) const {
  require_two_tier("option_latency_ms(tu)");
  return latency_at(options_.at(index), {&tu_mbps, 1});
}

double DeploymentPlan::option_energy_mj(std::size_t index, double tu_mbps) const {
  require_two_tier("option_energy_mj(tu)");
  return energy_at(options_.at(index), {&tu_mbps, 1});
}

double DeploymentPlan::option_latency_ms(std::size_t index,
                                         const std::vector<double>& tu_mbps) const {
  check_arity(tu_mbps);
  return latency_at(options_.at(index), tu_mbps);
}

double DeploymentPlan::option_energy_mj(std::size_t index,
                                        const std::vector<double>& tu_mbps) const {
  check_arity(tu_mbps);
  return energy_at(options_.at(index), tu_mbps);
}

DeploymentEvaluation DeploymentPlan::price(double tu_mbps) const {
  DeploymentEvaluation result;
  price_into(tu_mbps, result);
  return result;
}

DeploymentEvaluation DeploymentPlan::price(const std::vector<double>& tu_mbps) const {
  DeploymentEvaluation result;
  price_into(tu_mbps, result);
  return result;
}

void DeploymentPlan::price_into(double tu_mbps, DeploymentEvaluation& out) const {
  require_two_tier("price(tu)");
  price_span_into({&tu_mbps, 1}, out);
}

void DeploymentPlan::price_into(const std::vector<double>& tu_mbps,
                                DeploymentEvaluation& out) const {
  price_span_into(tu_mbps, out);
}

void DeploymentPlan::price_span_into(std::span<const double> tu_mbps,
                                     DeploymentEvaluation& out) const {
  check_priceable(tu_mbps);
  out.options.assign(options_.begin(), options_.end());
  out.layer_latency_ms = layer_latency_ms_;
  out.layer_energy_mj = layer_energy_mj_;
  PricedObjectives best;
  for (std::size_t i = 0; i < out.options.size(); ++i) {
    DeploymentOption& o = out.options[i];
    o.latency_ms = latency_at(o, tu_mbps);
    o.energy_mj = energy_at(o, tu_mbps);
    keep_best(best, i, o.latency_ms, o.energy_mj);
  }
  out.best_latency_option = best.best_latency_option;
  out.best_energy_option = best.best_energy_option;
}

PricedObjectives DeploymentPlan::objectives_at(double tu_mbps) const {
  require_two_tier("objectives_at(tu)");
  return objectives_span({&tu_mbps, 1});
}

PricedObjectives DeploymentPlan::objectives_at(const std::vector<double>& tu_mbps) const {
  return objectives_span(tu_mbps);
}

PricedObjectives DeploymentPlan::objectives_span(std::span<const double> tu_mbps) const {
  check_priceable(tu_mbps);
  PricedObjectives best;
  for (std::size_t i = 0; i < options_.size(); ++i) {
    keep_best(best, i, latency_at(options_[i], tu_mbps), energy_at(options_[i], tu_mbps));
  }
  return best;
}

std::vector<comm::CostCurve> DeploymentPlan::collapsed_latency_curves(
    std::size_t free_hop, const std::vector<double>& fixed_tu_mbps) const {
  std::vector<comm::CostCurve> curves;
  collapse_latency_curves_into(free_hop, fixed_tu_mbps, curves);
  return curves;
}

std::vector<comm::CostCurve> DeploymentPlan::collapsed_energy_curves(
    std::size_t free_hop, const std::vector<double>& fixed_tu_mbps) const {
  std::vector<comm::CostCurve> curves;
  collapse_energy_curves_into(free_hop, fixed_tu_mbps, curves);
  return curves;
}

void DeploymentPlan::collapse_latency_curves_into(
    std::size_t free_hop, const std::vector<double>& fixed_tu_mbps,
    std::vector<comm::CostCurve>& out) const {
  out.resize(latency_surfaces_.size());
  for (std::size_t i = 0; i < latency_surfaces_.size(); ++i) {
    out[i] = latency_surfaces_[i].collapse(free_hop, fixed_tu_mbps);
  }
}

void DeploymentPlan::collapse_energy_curves_into(
    std::size_t free_hop, const std::vector<double>& fixed_tu_mbps,
    std::vector<comm::CostCurve>& out) const {
  out.resize(energy_surfaces_.size());
  for (std::size_t i = 0; i < energy_surfaces_.size(); ++i) {
    out[i] = energy_surfaces_[i].collapse(free_hop, fixed_tu_mbps);
  }
}

std::vector<PricedObjectives> DeploymentPlan::price_batch(
    const std::vector<double>& tus_mbps) const {
  std::vector<PricedObjectives> out(tus_mbps.size());
  price_batch_into(tus_mbps, out);
  return out;
}

void DeploymentPlan::price_batch_into(std::span<const double> tus_mbps,
                                      std::span<PricedObjectives> out) const {
  require_two_tier("price_batch(tus)");
  // Option-outer / throughput-inner sweep with running minima. Per option
  // the curve terms (edge costs, bits, cloud suffix, radio-power
  // coefficients) are hoisted once and the inner loop over throughputs is a
  // pure map — independent iterations the compiler vectorizes. Every
  // arithmetic expression below replicates the pricing loop above (via
  // CommModel's inline formulas) term-for-term at one hop, and the minima
  // are updated with the same strict-< in ascending option order, so the
  // result is bit-identical to the per-throughput objectives_at() loop —
  // which tests keep as the scalar oracle.
  const std::size_t m = tus_mbps.size();
  if (m == 0) return;
  if (out.size() != m) {
    throw std::invalid_argument("price_batch_into: output span length differs");
  }
  if (!valid_tu(tus_mbps.front())) throw_bad_tu();
  if (options_.empty()) throw std::logic_error("DeploymentPlan: empty plan");
  for (double tu : tus_mbps) {
    if (!valid_tu(tu)) throw_bad_tu();
  }

  const double rtt = comm_.round_trip_ms();
  const double alpha = comm_.power_model().alpha_mw_per_mbps;
  const double beta = comm_.power_model().beta_mw;
  std::fill(out.begin(), out.end(), PricedObjectives{});

  for (std::size_t opt = 0; opt < options_.size(); ++opt) {
    const DeploymentOption& o = options_[opt];
    if (o.tx_bytes == 0) {
      // Throughput-free option: one candidate value for the whole sweep.
      const double latency = o.edge_latency_ms;
      const double energy = o.edge_energy_mj;
      for (std::size_t t = 0; t < m; ++t) keep_best(out[t], opt, latency, energy);
      continue;
    }
    const double bits = static_cast<double>(o.tx_bytes) * 8.0;
    const double edge_latency = o.edge_latency_ms;
    const double cloud_latency = o.cloud_latency_ms;
    const double edge_energy = o.edge_energy_mj;
    for (std::size_t t = 0; t < m; ++t) {
      const double tu = tus_mbps[t];
      const double tx_ms = bits / (tu * 1e3);
      const double latency = edge_latency + (tx_ms + rtt) + cloud_latency;
      const double energy = edge_energy + (alpha * tu + beta) * (tx_ms / 1e3);
      keep_best(out[t], opt, latency, energy);
    }
  }
}

}  // namespace lens::core

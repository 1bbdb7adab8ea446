#pragma once
// Compiled deployment plans: Algorithm 1 split into compile(arch) / price(tu).
//
// compile() runs the per-layer performance predictors exactly once and
// precomputes everything that does not depend on the throughputs: per-tier
// latency sums, energy and weight prefix sums, the memory-feasible cut-point
// options, and the closed-form cost surface of every option (constant +
// sum_h per_inverse_tu[h] / t_h, with the comm algebra supplied by
// comm::CommModel). price() then produces a full DeploymentEvaluation in
// O(options) with zero predictor calls — and, via price_into / objectives_at,
// zero allocation — so multi-throughput consumers (robust evaluation,
// regional portfolios, threshold analysis, the serving simulator) pay the
// predictor pipeline once per architecture instead of once per query.
//
// Every hierarchy depth compiles through the same cut-vector lattice walk
// and prices through the same per-option loop, which takes one throughput
// per hop. The classic edge-cloud pair is its K=2, one-hop case: the options
// are All-Cloud, each split that ships fewer bytes than the raw input, and
// All-Edge, in that order, and the loop adds edge + comm + cloud in the order
// the paper's single-stage evaluation always did, so two-tier results are
// bit-identical to it (tests/test_plan.cpp keeps that evaluation as a frozen
// reference). K >= 3 plans are dominance-pruned. Plans stay
// throughput-independent — the NAS memo cache keyed by genotype alone is
// unaffected.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "comm/commcost.hpp"
#include "core/evaluator.hpp"

namespace lens::core {

/// The throughput-dependent summary of one priced plan: both objective
/// minima and their argmin options. Allocation-free.
struct PricedObjectives {
  double best_latency_ms = 0.0;
  double best_energy_mj = 0.0;
  std::size_t best_latency_option = 0;
  std::size_t best_energy_option = 0;
};

/// Throughput-independent compilation of Algorithm 1 for one architecture.
///
/// The stored options carry only the t_u-free fields (edge costs, tx bytes,
/// cloud suffix latency, resident weights); their latency_ms / energy_mj
/// fields stay zero until priced. A plan is self-contained — it copies the
/// communication model — so it can outlive the evaluator that compiled it
/// (e.g. inside the NAS driver's genotype-keyed cache).
class DeploymentPlan {
 public:
  DeploymentPlan() = default;

  std::size_t num_options() const { return options_.size(); }
  /// Option descriptors with unpriced (zero) latency_ms / energy_mj.
  const std::vector<DeploymentOption>& options() const { return options_; }
  const std::vector<double>& layer_latency_ms() const { return layer_latency_ms_; }
  const std::vector<double>& layer_energy_mj() const { return layer_energy_mj_; }
  /// Hop-0 communication model (the device radio).
  const comm::CommModel& comm() const { return comm_; }
  /// Communication model of hop `h` (0 = device radio).
  const comm::CommModel& hop(std::size_t h) const;

  /// Hierarchy shape this plan was compiled for (2 tiers / 1 hop for the
  /// classic edge-cloud pair and for default-constructed plans).
  std::size_t num_tiers() const { return num_tiers_; }
  std::size_t num_hops() const { return num_tiers_ - 1; }
  const std::vector<std::string>& tier_names() const { return tier_names_; }

  /// Closed-form cost-vs-t_u curve of each option, aligned with options():
  /// the one-hop surfaces' coefficients. Two-tier plans only; K >= 3 plans
  /// expose latency_surfaces() instead (these stay empty there).
  const std::vector<comm::CostCurve>& latency_curves() const { return latency_curves_; }
  const std::vector<comm::CostCurve>& energy_curves() const { return energy_curves_; }

  /// Per-option multi-hop cost surfaces, aligned with options(). Populated
  /// for every K (at K=2 they carry the same coefficients as the 1-D curves).
  const std::vector<comm::MultiHopCurve>& latency_surfaces() const { return latency_surfaces_; }
  const std::vector<comm::MultiHopCurve>& energy_surfaces() const { return energy_surfaces_; }

  /// 1-D curves in hop `free_hop` with every other hop pinned at
  /// `fixed_tu_mbps` (full per-hop vector; the free entry is ignored). The
  /// bridge that lets the 1-D threshold/deployer machinery drive K >= 3
  /// plans.
  std::vector<comm::CostCurve> collapsed_latency_curves(
      std::size_t free_hop, const std::vector<double>& fixed_tu_mbps) const;
  std::vector<comm::CostCurve> collapsed_energy_curves(
      std::size_t free_hop, const std::vector<double>& fixed_tu_mbps) const;

  /// Allocation-free collapse into caller-owned storage (resized to
  /// options().size()), same arithmetic as the allocating forms above. The
  /// fleet re-collapses per (step, region) when a regional backhaul fault
  /// stretches a hop, so this runs thousands of times per run. Note the
  /// energy surfaces only ever carry a hop-0 coefficient (backhaul
  /// transfers are not billed to the battery), so collapse_energy_curves_
  /// into yields the same curves for every backhaul vector.
  void collapse_latency_curves_into(std::size_t free_hop,
                                    const std::vector<double>& fixed_tu_mbps,
                                    std::vector<comm::CostCurve>& out) const;
  void collapse_energy_curves_into(std::size_t free_hop,
                                   const std::vector<double>& fixed_tu_mbps,
                                   std::vector<comm::CostCurve>& out) const;

  /// End-to-end cost of option `index` at radio throughput `tu_mbps`.
  /// Two-tier plans only (throws std::logic_error otherwise).
  double option_latency_ms(std::size_t index, double tu_mbps) const;
  double option_energy_mj(std::size_t index, double tu_mbps) const;

  /// Per-hop-throughput forms (one entry per hop, radio first); the scalar
  /// forms above are these at K=2.
  double option_latency_ms(std::size_t index, const std::vector<double>& tu_mbps) const;
  double option_energy_mj(std::size_t index, const std::vector<double>& tu_mbps) const;

  /// Full Algorithm-1 result at `tu_mbps`: O(options), no predictor calls.
  /// Two-tier plans only (throws std::logic_error otherwise).
  DeploymentEvaluation price(double tu_mbps) const;

  /// K-tier pricing: one positive, finite throughput per hop, tu_mbps[0]
  /// being the device radio.
  DeploymentEvaluation price(const std::vector<double>& tu_mbps) const;

  /// As price(), but reuses `out`'s storage — allocation-free once the
  /// vectors have grown to capacity (hot loops over throughput sweeps).
  void price_into(double tu_mbps, DeploymentEvaluation& out) const;
  void price_into(const std::vector<double>& tu_mbps, DeploymentEvaluation& out) const;

  /// Objective minima only — no DeploymentEvaluation materialized at all.
  PricedObjectives objectives_at(double tu_mbps) const;
  PricedObjectives objectives_at(const std::vector<double>& tu_mbps) const;

  /// objectives_at over a radio-throughput sweep (one result per input, in
  /// order). Two-tier plans only.
  std::vector<PricedObjectives> price_batch(const std::vector<double>& tus_mbps) const;

  /// Allocation-free core of price_batch: writes out[i] = objective minima
  /// at tus_mbps[i] into caller-owned storage (out.size() must match).
  /// price_batch delegates here; the fleet inner loop calls this directly
  /// with per-shard buffers so a million-device step allocates nothing.
  void price_batch_into(std::span<const double> tus_mbps,
                        std::span<PricedObjectives> out) const;

 private:
  friend class DeploymentEvaluator;

  void require_two_tier(const char* what) const;
  void check_arity(std::span<const double> tu_mbps) const;
  /// Throws std::invalid_argument unless there is one positive, finite
  /// throughput per hop, then std::logic_error on an empty plan.
  void check_priceable(std::span<const double> tu_mbps) const;
  /// The one pricing loop: option `o` at one throughput per hop, in
  /// pipeline order (tier 0, hop 0, tier 1, ...).
  double latency_at(const DeploymentOption& o, std::span<const double> tu_mbps) const;
  double energy_at(const DeploymentOption& o, std::span<const double> tu_mbps) const;
  void price_span_into(std::span<const double> tu_mbps, DeploymentEvaluation& out) const;
  PricedObjectives objectives_span(std::span<const double> tu_mbps) const;

  std::vector<DeploymentOption> options_;
  std::vector<comm::CostCurve> latency_curves_;
  std::vector<comm::CostCurve> energy_curves_;
  std::vector<comm::MultiHopCurve> latency_surfaces_;
  std::vector<comm::MultiHopCurve> energy_surfaces_;
  std::vector<double> layer_latency_ms_;
  std::vector<double> layer_energy_mj_;
  comm::CommModel comm_{comm::WirelessTechnology::kWifi, 0.0};
  /// Hops past the radio (empty at K=2); hop h >= 1 lives at index h-1.
  std::vector<comm::CommModel> later_hops_;
  std::vector<std::string> tier_names_;
  std::size_t num_tiers_ = 2;
};

}  // namespace lens::core

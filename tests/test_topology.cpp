// Tests for K-tier hierarchies: TierTopology validation, the multi-tier
// compile path and its dominance-pruned cut lattice, the shared cut-vector
// label formatter, per-hop threshold/deployer machinery, per-hop fault
// substreams, and the 3-tier serving simulation. The K=2 guarantees are
// frozen-reference checks: an evaluator built through TierTopology must be
// field-for-field identical to the historical two-argument evaluator, and
// the scalar and one-element vector price forms must agree bit for bit.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "comm/commcost.hpp"
#include "core/evaluator.hpp"
#include "core/plan.hpp"
#include "core/search_space.hpp"
#include "core/topology.hpp"
#include "dnn/presets.hpp"
#include "perf/predictor.hpp"
#include "runtime/deployer.hpp"
#include "runtime/threshold.hpp"
#include "sim/fault.hpp"
#include "sim/system.hpp"
#include "viz/ascii.hpp"

namespace lens::core {
namespace {

/// Exact (bitwise, via ==) field-for-field comparison of two evaluations,
/// including the K-tier vector fields.
void expect_identical(const DeploymentEvaluation& got, const DeploymentEvaluation& want) {
  ASSERT_EQ(got.options.size(), want.options.size());
  EXPECT_EQ(got.best_latency_option, want.best_latency_option);
  EXPECT_EQ(got.best_energy_option, want.best_energy_option);
  EXPECT_EQ(got.layer_latency_ms, want.layer_latency_ms);
  EXPECT_EQ(got.layer_energy_mj, want.layer_energy_mj);
  for (std::size_t i = 0; i < want.options.size(); ++i) {
    const DeploymentOption& g = got.options[i];
    const DeploymentOption& w = want.options[i];
    EXPECT_EQ(g.kind, w.kind) << "option " << i;
    EXPECT_EQ(g.split_after, w.split_after) << "option " << i;
    EXPECT_EQ(g.latency_ms, w.latency_ms) << "option " << i;
    EXPECT_EQ(g.energy_mj, w.energy_mj) << "option " << i;
    EXPECT_EQ(g.edge_latency_ms, w.edge_latency_ms) << "option " << i;
    EXPECT_EQ(g.edge_energy_mj, w.edge_energy_mj) << "option " << i;
    EXPECT_EQ(g.tx_bytes, w.tx_bytes) << "option " << i;
    EXPECT_EQ(g.edge_weight_bytes, w.edge_weight_bytes) << "option " << i;
    EXPECT_EQ(g.cloud_latency_ms, w.cloud_latency_ms) << "option " << i;
    EXPECT_EQ(g.cuts, w.cuts) << "option " << i;
    EXPECT_EQ(g.tier_latency_ms, w.tier_latency_ms) << "option " << i;
    EXPECT_EQ(g.hop_tx_bytes, w.hop_tx_bytes) << "option " << i;
  }
}

comm::ThroughputTrace flat_trace(double mbps, double interval_s = 100.0) {
  comm::ThroughputTrace trace;
  trace.samples_mbps = {mbps};
  trace.interval_s = interval_s;
  return trace;
}

class TopologyTest : public ::testing::Test {
 protected:
  TopologyTest()
      : edge_sim_(perf::jetson_tx2_gpu()),
        edge_(edge_sim_),
        fog_sim_(perf::datacenter_gpu()),
        fog_(fog_sim_),
        wifi_(comm::WirelessTechnology::kWifi, 5.0),
        lte_(comm::WirelessTechnology::kLte, 25.0) {}

  /// Built-in 3-tier preset over the fixture's models: wifi radio to the
  /// fog node, LTE-profiled backhaul to the cloud, free cloud compute.
  TierTopology three_tier(std::uint64_t edge_budget = 0,
                          std::uint64_t fog_budget = 0) const {
    EdgeFogCloudConfig config;
    config.radio = wifi_;
    config.backhaul = lte_;
    config.edge_memory_budget_bytes = edge_budget;
    config.fog_memory_budget_bytes = fog_budget;
    return edge_fog_cloud(edge_, fog_, nullptr, config);
  }

  /// Log-spaced throughput sweep over [0.05, 500] Mbps.
  static std::vector<double> tu_sweep() {
    std::vector<double> tus;
    for (double tu = 0.05; tu < 500.0; tu *= 2.3) tus.push_back(tu);
    return tus;
  }

  perf::DeviceSimulator edge_sim_;
  perf::SimulatorOracle edge_;
  perf::DeviceSimulator fog_sim_;
  perf::SimulatorOracle fog_;
  comm::CommModel wifi_;
  comm::CommModel lte_;
};

// ---------------------------------------------------------------------------
// TierTopology construction.
// ---------------------------------------------------------------------------

TEST_F(TopologyTest, TopologyValidatesShape) {
  const std::vector<TierSpec> good = {{"edge", &edge_, 0}, {"cloud", nullptr, 0}};
  EXPECT_NO_THROW(TierTopology(good, {wifi_}));

  EXPECT_THROW(TierTopology({{"edge", &edge_, 0}}, {}), std::invalid_argument);
  EXPECT_THROW(TierTopology(good, {wifi_, lte_}), std::invalid_argument);
  EXPECT_THROW(TierTopology({{"edge", nullptr, 0}, {"cloud", nullptr, 0}}, {wifi_}),
               std::invalid_argument);
  EXPECT_THROW(TierTopology({{"edge", &edge_, 0}, {"", nullptr, 0}}, {wifi_}),
               std::invalid_argument);
}

TEST_F(TopologyTest, EdgeFogCloudPresetShape) {
  const TierTopology topo = three_tier(1, 2);
  ASSERT_EQ(topo.num_tiers(), 3u);
  ASSERT_EQ(topo.num_hops(), 2u);
  EXPECT_EQ(topo.tier_names(), (std::vector<std::string>{"edge", "fog", "cloud"}));
  EXPECT_EQ(topo.tier(0).model, &edge_);
  EXPECT_EQ(topo.tier(1).model, &fog_);
  EXPECT_EQ(topo.tier(2).model, nullptr);
  EXPECT_EQ(topo.tier(0).memory_budget_bytes, 1u);
  EXPECT_EQ(topo.tier(1).memory_budget_bytes, 2u);
  EXPECT_EQ(topo.hop(0).round_trip_ms(), wifi_.round_trip_ms());
  EXPECT_EQ(topo.hop(1).round_trip_ms(), lte_.round_trip_ms());
}

// ---------------------------------------------------------------------------
// K=2 frozen-reference equivalence: a topology-built evaluator and the
// historical two-argument evaluator must agree bit for bit, and so must the
// scalar and one-element vector price forms.
// ---------------------------------------------------------------------------

TEST_F(TopologyTest, TwoTierTopologyIsBitIdenticalToLegacyEvaluator) {
  const std::uint64_t mb = 1ULL << 20;
  const std::uint64_t budgets[] = {0, 16 * mb};
  const perf::LayerPerformanceModel* clouds[] = {nullptr, &fog_};
  const dnn::Architecture arch = dnn::alexnet();

  for (std::uint64_t budget : budgets) {
    for (const perf::LayerPerformanceModel* cloud : clouds) {
      const DeploymentEvaluator legacy(edge_, wifi_, EvaluatorConfig{{}, budget, cloud});
      const DeploymentEvaluator via_topology(
          TierTopology::two_tier(edge_, wifi_, budget, cloud));
      const DeploymentPlan a = legacy.compile(arch);
      const DeploymentPlan b = via_topology.compile(arch);
      ASSERT_EQ(b.num_tiers(), 2u);
      for (double tu : tu_sweep()) {
        expect_identical(b.price(tu), a.price(tu));
        // A one-element throughput vector prices exactly as the scalar form.
        expect_identical(b.price(std::vector<double>{tu}), a.price(tu));
      }
    }
  }
}

TEST_F(TopologyTest, VectorFormsDelegateToScalarAtTwoTiers) {
  const DeploymentEvaluator evaluator(edge_, lte_);
  const DeploymentPlan plan = evaluator.compile(dnn::alexnet());
  for (double tu : tu_sweep()) {
    const std::vector<double> vec{tu};
    const PricedObjectives scalar = plan.objectives_at(tu);
    const PricedObjectives vector = plan.objectives_at(vec);
    EXPECT_EQ(vector.best_latency_ms, scalar.best_latency_ms);
    EXPECT_EQ(vector.best_energy_mj, scalar.best_energy_mj);
    EXPECT_EQ(vector.best_latency_option, scalar.best_latency_option);
    EXPECT_EQ(vector.best_energy_option, scalar.best_energy_option);
    for (std::size_t i = 0; i < plan.num_options(); ++i) {
      EXPECT_EQ(plan.option_latency_ms(i, vec), plan.option_latency_ms(i, tu));
      EXPECT_EQ(plan.option_energy_mj(i, vec), plan.option_energy_mj(i, tu));
    }
  }
  // At K=2 the surfaces carry the 1-D curve coefficients verbatim.
  ASSERT_EQ(plan.latency_surfaces().size(), plan.num_options());
  for (std::size_t i = 0; i < plan.num_options(); ++i) {
    ASSERT_EQ(plan.latency_surfaces()[i].num_hops(), 1u);
    EXPECT_EQ(plan.latency_surfaces()[i].constant, plan.latency_curves()[i].constant);
    EXPECT_EQ(plan.latency_surfaces()[i].per_inverse_tu[0],
              plan.latency_curves()[i].per_inverse_tu);
    EXPECT_EQ(plan.energy_surfaces()[i].constant, plan.energy_curves()[i].constant);
    EXPECT_EQ(plan.energy_surfaces()[i].per_inverse_tu[0],
              plan.energy_curves()[i].per_inverse_tu);
  }
}

// ---------------------------------------------------------------------------
// MultiHopCurve algebra.
// ---------------------------------------------------------------------------

TEST(MultiHopCurveTest, ValueAndCollapse) {
  const comm::MultiHopCurve curve{2.0, {10.0, 30.0}};
  EXPECT_DOUBLE_EQ(curve.value({5.0, 10.0}), 2.0 + 2.0 + 3.0);

  const comm::CostCurve in_hop0 = curve.collapse(0, {1.0, 10.0});
  EXPECT_DOUBLE_EQ(in_hop0.constant, 5.0);
  EXPECT_DOUBLE_EQ(in_hop0.per_inverse_tu, 10.0);
  const comm::CostCurve in_hop1 = curve.collapse(1, {5.0, 1.0});
  EXPECT_DOUBLE_EQ(in_hop1.constant, 4.0);
  EXPECT_DOUBLE_EQ(in_hop1.per_inverse_tu, 30.0);
  // Collapsing agrees with direct evaluation at the pinned throughputs.
  EXPECT_DOUBLE_EQ(in_hop0.value(5.0), curve.value({5.0, 10.0}));

  // The fixed entry of an unused hop (zero coefficient) is never read.
  const comm::MultiHopCurve radio_only{1.0, {8.0, 0.0}};
  EXPECT_DOUBLE_EQ(radio_only.collapse(0, {1.0, -1.0}).constant, 1.0);
}

TEST(MultiHopCurveTest, Validation) {
  const comm::MultiHopCurve curve{2.0, {10.0, 30.0}};
  EXPECT_THROW(curve.value({5.0}), std::invalid_argument);
  EXPECT_THROW(curve.value({5.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(curve.collapse(2, {1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(curve.collapse(0, {1.0}), std::invalid_argument);
  EXPECT_THROW(curve.collapse(0, {1.0, -2.0}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Shared cut-vector formatter.
// ---------------------------------------------------------------------------

TEST_F(TopologyTest, DefaultTierNames) {
  EXPECT_EQ(default_tier_names(2), (std::vector<std::string>{"edge", "cloud"}));
  EXPECT_EQ(default_tier_names(3), (std::vector<std::string>{"edge", "fog", "cloud"}));
  EXPECT_EQ(default_tier_names(4),
            (std::vector<std::string>{"edge", "fog1", "fog2", "cloud"}));
  EXPECT_THROW(default_tier_names(1), std::invalid_argument);
}

TEST_F(TopologyTest, TwoTierOptionsKeepLegacyLabels) {
  const dnn::Architecture arch = dnn::alexnet();
  const DeploymentEvaluator evaluator(edge_, wifi_);
  const DeploymentEvaluation eval = evaluator.evaluate(arch, 3.0);
  EXPECT_EQ(eval.all_cloud().label(arch), "All-Cloud");
  ASSERT_TRUE(eval.has_all_edge());
  EXPECT_EQ(eval.all_edge().label(arch), "All-Edge");
  for (const DeploymentOption& o : eval.options) {
    if (o.kind != DeploymentKind::kPartitioned) continue;
    ASSERT_TRUE(o.split_after.has_value());
    EXPECT_EQ(o.label(arch), "split@" + arch.layers()[*o.split_after].name);
  }
}

TEST_F(TopologyTest, MultiTierLabelsSkipEmptyTiers) {
  const dnn::Architecture arch = dnn::alexnet();
  const std::size_t n = arch.num_layers();
  const std::vector<std::string> names{"edge", "fog", "cloud"};
  ASSERT_GE(n, 6u);

  DeploymentOption o;
  o.cuts = {0, 0};
  EXPECT_EQ(option_label(o, arch, names), "cloud");
  o.cuts = {n, n};
  EXPECT_EQ(option_label(o, arch, names), "edge");
  o.cuts = {4, n};
  EXPECT_EQ(option_label(o, arch, names), "edge|fog@4");
  o.cuts = {0, 4};
  EXPECT_EQ(option_label(o, arch, names), "fog|cloud@4");
  o.cuts = {2, 5};
  EXPECT_EQ(option_label(o, arch, names), "edge|fog@2|cloud@5");
  // label() without explicit names falls back to the defaults.
  EXPECT_EQ(o.label(arch), "edge|fog@2|cloud@5");
  EXPECT_THROW(option_label(o, arch, {"a", "b"}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Multi-tier compilation: shape invariants and the dominance prune.
// ---------------------------------------------------------------------------

TEST_F(TopologyTest, ThreeTierPlanShape) {
  const dnn::Architecture arch = dnn::alexnet();
  const std::size_t n = arch.num_layers();
  const DeploymentEvaluator evaluator(three_tier());
  const DeploymentPlan plan = evaluator.compile(arch);

  EXPECT_EQ(plan.num_tiers(), 3u);
  EXPECT_EQ(plan.num_hops(), 2u);
  EXPECT_EQ(plan.tier_names(), (std::vector<std::string>{"edge", "fog", "cloud"}));
  // K >= 3 plans expose surfaces, not 1-D curves.
  EXPECT_TRUE(plan.latency_curves().empty());
  ASSERT_EQ(plan.latency_surfaces().size(), plan.num_options());
  ASSERT_EQ(plan.energy_surfaces().size(), plan.num_options());

  for (const DeploymentOption& o : plan.options()) {
    ASSERT_EQ(o.cuts.size(), 2u);
    EXPECT_LE(o.cuts[0], o.cuts[1]);
    EXPECT_LE(o.cuts[1], n);
    ASSERT_EQ(o.tier_latency_ms.size(), 3u);
    ASSERT_EQ(o.hop_tx_bytes.size(), 2u);
    // Legacy scalar fields mirror the vector fields.
    EXPECT_EQ(o.tx_bytes, o.hop_tx_bytes[0]);
    EXPECT_EQ(o.edge_latency_ms, o.tier_latency_ms[0]);
    // A hop past the deepest occupied tier carries nothing.
    if (o.cuts[1] == n) {
      EXPECT_EQ(o.hop_tx_bytes[1], 0u);
    }
  }

  // Anchors survive pruning, and priced results agree with the surfaces.
  const std::vector<double> tu{3.0, 40.0};
  const DeploymentEvaluation eval = plan.price(tu);
  EXPECT_NO_THROW(eval.all_cloud());
  EXPECT_TRUE(eval.has_all_edge());
  for (std::size_t i = 0; i < plan.num_options(); ++i) {
    EXPECT_NEAR(plan.option_latency_ms(i, tu), plan.latency_surfaces()[i].value(tu),
                1e-9 * std::max(1.0, plan.option_latency_ms(i, tu)));
    EXPECT_NEAR(plan.option_energy_mj(i, tu), plan.energy_surfaces()[i].value(tu),
                1e-9 * std::max(1.0, plan.option_energy_mj(i, tu)));
  }
}

/// One unpruned reference option: cost coefficients of a 3-tier cut pair.
struct RefSurface {
  double lat_const = 0.0;
  double lat_slope0 = 0.0;
  double lat_slope1 = 0.0;
  double en_const = 0.0;
  double en_slope0 = 0.0;

  double latency(double t0, double t1) const {
    return lat_const + lat_slope0 / t0 + lat_slope1 / t1;
  }
  double energy(double t0) const { return en_const + en_slope0 / t0; }
};

/// Frozen reference: the exhaustive, *unpruned* 3-tier cut lattice with the
/// multi-tier cost semantics (hop h ships boundary c_{h+1} iff c_{h+1} < n;
/// only the hop-0 radio is billed to the battery; free cloud).
std::vector<RefSurface> reference_lattice(const dnn::Architecture& arch,
                                          const perf::LayerPerformanceModel& edge,
                                          const perf::LayerPerformanceModel& fog,
                                          const comm::CommModel& radio,
                                          const comm::CommModel& backhaul,
                                          std::uint64_t edge_budget,
                                          std::uint64_t fog_budget) {
  const dnn::DataSizeModel sizes{};
  const std::size_t n = arch.num_layers();
  std::vector<double> edge_lat(n + 1, 0.0), edge_en(n + 1, 0.0), fog_lat(n + 1, 0.0);
  std::vector<std::uint64_t> weights(n + 1, 0), boundary(n + 1, 0);
  boundary[0] = arch.input_bytes(sizes);
  for (std::size_t i = 0; i < n; ++i) {
    const dnn::LayerInfo& info = arch.layers()[i];
    const perf::LayerMeasurement e = edge.predict(info.spec, info.input);
    edge_lat[i + 1] = edge_lat[i] + e.latency_ms;
    edge_en[i + 1] = edge_en[i] + e.energy_mj();
    fog_lat[i + 1] = fog_lat[i] + fog.predict(info.spec, info.input).latency_ms;
    weights[i + 1] = weights[i] + 4ULL * info.params;
    boundary[i + 1] = arch.output_bytes(i, sizes);
  }
  std::vector<RefSurface> all;
  for (std::size_t c1 = 0; c1 <= n; ++c1) {
    if (edge_budget != 0 && weights[c1] > edge_budget) continue;
    for (std::size_t c2 = c1; c2 <= n; ++c2) {
      if (fog_budget != 0 && weights[c2] - weights[c1] > fog_budget) continue;
      RefSurface s;
      s.lat_const = edge_lat[c1] + (fog_lat[c2] - fog_lat[c1]);
      s.en_const = edge_en[c1];
      if (c1 < n) {
        const comm::CostCurve l = radio.comm_latency_curve(boundary[c1]);
        s.lat_const += l.constant;
        s.lat_slope0 = l.per_inverse_tu;
        const comm::CostCurve e = radio.tx_energy_curve(boundary[c1]);
        s.en_const += e.constant;
        s.en_slope0 = e.per_inverse_tu;
      }
      if (c2 < n) {
        const comm::CostCurve l = backhaul.comm_latency_curve(boundary[c2]);
        s.lat_const += l.constant;
        s.lat_slope1 = l.per_inverse_tu;
      }
      all.push_back(s);
    }
  }
  return all;
}

TEST_F(TopologyTest, DominancePruneNeverDropsAParetoOptimalCut) {
  const SearchSpace space;
  std::mt19937_64 rng(77);
  std::uniform_real_distribution<double> log_tu(std::log(0.05), std::log(500.0));
  const std::uint64_t mb = 1ULL << 20;
  const std::uint64_t edge_budgets[] = {0, 50 * mb, 16 * mb};
  const std::uint64_t fog_budgets[] = {0, 32 * mb};

  for (int trial = 0; trial < 6; ++trial) {
    const dnn::Architecture arch = space.decode(space.random(rng));
    const std::uint64_t edge_budget = edge_budgets[trial % 3];
    const std::uint64_t fog_budget = fog_budgets[trial % 2];
    const DeploymentEvaluator evaluator(three_tier(edge_budget, fog_budget));
    const DeploymentPlan plan = evaluator.compile(arch);
    const std::vector<RefSurface> full = reference_lattice(
        arch, edge_, fog_, wifi_, lte_, edge_budget, fog_budget);
    ASSERT_FALSE(full.empty());
    // Pruning only removes options — and at every throughput vector the
    // kept set must still attain the full lattice's objective minima.
    EXPECT_LE(plan.num_options(), full.size());
    for (int probe = 0; probe < 12; ++probe) {
      const double t0 = std::exp(log_tu(rng));
      const double t1 = std::exp(log_tu(rng));
      double ref_lat = full[0].latency(t0, t1);
      double ref_en = full[0].energy(t0);
      for (const RefSurface& s : full) {
        ref_lat = std::min(ref_lat, s.latency(t0, t1));
        ref_en = std::min(ref_en, s.energy(t0));
      }
      const PricedObjectives got = plan.objectives_at({t0, t1});
      EXPECT_NEAR(got.best_latency_ms, ref_lat, 1e-9 * std::max(1.0, ref_lat))
          << "trial " << trial << " t0=" << t0 << " t1=" << t1;
      EXPECT_NEAR(got.best_energy_mj, ref_en, 1e-9 * std::max(1.0, ref_en))
          << "trial " << trial << " t0=" << t0 << " t1=" << t1;
    }
  }
}

TEST_F(TopologyTest, MultiTierErrorPaths) {
  const DeploymentEvaluator evaluator(three_tier());
  const DeploymentPlan plan = evaluator.compile(dnn::alexnet());
  // Scalar pricing is a two-tier API; K >= 3 plans demand the vector form.
  EXPECT_THROW(plan.price(3.0), std::logic_error);
  EXPECT_THROW(plan.objectives_at(3.0), std::logic_error);
  EXPECT_THROW(plan.option_latency_ms(0, 3.0), std::logic_error);
  // Wrong-arity vectors are rejected with the actionable message.
  EXPECT_THROW(plan.price(std::vector<double>{3.0}), std::invalid_argument);
  EXPECT_THROW(plan.price(std::vector<double>{3.0, 4.0, 5.0}), std::invalid_argument);
  EXPECT_THROW(plan.price(std::vector<double>{3.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(plan.price(std::vector<double>{3.0, std::nan("")}), std::invalid_argument);
  EXPECT_THROW(plan.objectives_at(std::vector<double>{std::nan(""), 4.0}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Runtime selection on a K-tier plan.
// ---------------------------------------------------------------------------

TEST_F(TopologyTest, CheapestEdgeOnlyOnThreeTierPlan) {
  const DeploymentEvaluator evaluator(three_tier());
  const DeploymentPlan plan = evaluator.compile(dnn::alexnet());
  const runtime::DynamicDeployer deployer(plan, runtime::OptimizeFor::kLatency,
                                          {3.0, 40.0});
  ASSERT_TRUE(deployer.cheapest_edge_only().has_value());
  const core::DeploymentOption& edge = deployer.options()[*deployer.cheapest_edge_only()];
  EXPECT_EQ(edge.tx_bytes, 0u);
  ASSERT_EQ(edge.hop_tx_bytes.size(), 2u);
  EXPECT_EQ(edge.hop_tx_bytes[0], 0u);
  EXPECT_EQ(edge.hop_tx_bytes[1], 0u);
}

// ---------------------------------------------------------------------------
// Per-hop fault injection.
// ---------------------------------------------------------------------------

TEST(HopFaultTest, BackhaulStreamsNeverPerturbHopZero) {
  sim::FaultScheduleConfig base;
  base.seed = 7;
  base.horizon_s = 400.0;
  base.link_outage_rate_hz = 1.0 / 40.0;
  base.cloud_outage_rate_hz = 1.0 / 90.0;
  base.rtt_spike_rate_hz = 1.0 / 50.0;
  base.edge_slowdown_rate_hz = 1.0 / 70.0;
  const sim::FaultSchedule plain = sim::FaultSchedule::generate(base);

  sim::FaultScheduleConfig with_backhaul = base;
  sim::HopFaultConfig hop1;
  hop1.outage_rate_hz = 1.0 / 30.0;
  hop1.outage_mean_s = 5.0;
  hop1.rtt_spike_rate_hz = 1.0 / 45.0;
  with_backhaul.extra_hops = {hop1};
  const sim::FaultSchedule mixed = sim::FaultSchedule::generate(with_backhaul);

  // The hop-0 (and hopless) episode stream is byte-identical: backhaul
  // classes draw from disjoint RNG substreams.
  std::vector<sim::FaultEpisode> hop0;
  std::size_t hop1_outages = 0, hop1_spikes = 0;
  for (const sim::FaultEpisode& e : mixed.episodes()) {
    if (e.hop == 0) {
      hop0.push_back(e);
    } else if (e.fault == sim::FaultClass::kLinkOutage) {
      ++hop1_outages;
    } else if (e.fault == sim::FaultClass::kRttSpike) {
      ++hop1_spikes;
    }
  }
  ASSERT_EQ(hop0.size(), plain.episodes().size());
  for (std::size_t i = 0; i < hop0.size(); ++i) {
    const sim::FaultEpisode& a = plain.episodes()[i];
    const sim::FaultEpisode& b = hop0[i];
    EXPECT_EQ(a.fault, b.fault) << "episode " << i;
    EXPECT_EQ(a.start_s, b.start_s) << "episode " << i;
    EXPECT_EQ(a.end_s, b.end_s) << "episode " << i;
    EXPECT_EQ(a.magnitude, b.magnitude) << "episode " << i;
  }
  EXPECT_GT(hop1_outages, 0u);
  EXPECT_GT(hop1_spikes, 0u);

  sim::FaultScheduleConfig bad = with_backhaul;
  bad.extra_hops[0].outage_rate_hz = -1.0;
  EXPECT_THROW(sim::FaultSchedule::generate(bad), std::invalid_argument);
}

TEST(HopFaultTest, InjectorQueriesAreHopScoped) {
  std::vector<sim::FaultEpisode> episodes;
  episodes.push_back({sim::FaultClass::kLinkOutage, 10.0, 20.0, 0.5, 1});
  episodes.push_back({sim::FaultClass::kLinkOutage, 30.0, 40.0, 0.25, 0});
  episodes.push_back({sim::FaultClass::kRttSpike, 5.0, 15.0, 100.0, 1});
  const sim::FaultInjector injector{sim::FaultSchedule(std::move(episodes))};

  EXPECT_DOUBLE_EQ(injector.link_factor(15.0), 1.0);  // hop 0 by default
  EXPECT_DOUBLE_EQ(injector.link_factor(15.0, 1), 0.5);
  EXPECT_DOUBLE_EQ(injector.link_factor(35.0), 0.25);
  EXPECT_DOUBLE_EQ(injector.link_factor(35.0, 1), 1.0);
  EXPECT_DOUBLE_EQ(injector.rtt_extra_ms(10.0), 0.0);
  EXPECT_DOUBLE_EQ(injector.rtt_extra_ms(10.0, 1), 100.0);
  // Boundaries are per hop: hop 1's next change is its own episode start,
  // even though hop 0's episode sorts later.
  EXPECT_DOUBLE_EQ(injector.next_link_boundary(0.0), 30.0);
  EXPECT_DOUBLE_EQ(injector.next_link_boundary(0.0, 1), 10.0);
  EXPECT_DOUBLE_EQ(injector.next_link_boundary(12.0, 1), 20.0);
}

// ---------------------------------------------------------------------------
// 3-tier serving simulation.
// ---------------------------------------------------------------------------

TEST_F(TopologyTest, ThreeTierSimulationRunsUnderBackhaulFaults) {
  const DeploymentEvaluator evaluator(three_tier());
  const DeploymentPlan plan = evaluator.compile(dnn::alexnet());

  sim::SimConfig config;
  config.duration_s = 60.0;
  config.arrival_rate_hz = 3.0;
  config.seed = 11;
  config.policy = sim::DispatchPolicy::kDynamic;
  config.backhaul_tu_mbps = {50.0};
  config.faults.link_outage_rate_hz = 1.0 / 30.0;
  config.faults.link_outage_mean_s = 3.0;
  sim::HopFaultConfig backhaul;
  backhaul.outage_rate_hz = 1.0 / 25.0;
  backhaul.outage_mean_s = 4.0;
  backhaul.rtt_spike_rate_hz = 1.0 / 40.0;
  config.faults.extra_hops = {backhaul};
  config.timeout_ms = 500.0;

  sim::EdgeCloudSystem system(plan, flat_trace(8.0), config);
  const sim::SimStats stats = system.run();
  EXPECT_GT(stats.completed, 0u);
  EXPECT_GT(stats.makespan_s, 0.0);
  EXPECT_GE(stats.availability, 0.0);
  EXPECT_LE(stats.availability, 1.0);

  // Same seed, same stats — the K-tier chain stays deterministic.
  sim::EdgeCloudSystem again(plan, flat_trace(8.0), config);
  const sim::SimStats repeat = again.run();
  EXPECT_EQ(stats.completed, repeat.completed);
  EXPECT_EQ(stats.mean_latency_ms, repeat.mean_latency_ms);
  EXPECT_EQ(stats.total_energy_mj, repeat.total_energy_mj);
  EXPECT_EQ(stats.timeouts, repeat.timeouts);

  // A K-tier plan demands one nominal rate per backhaul hop.
  sim::SimConfig missing = config;
  missing.backhaul_tu_mbps.clear();
  EXPECT_THROW(sim::EdgeCloudSystem(plan, flat_trace(8.0), missing),
               std::invalid_argument);
  sim::SimConfig negative = config;
  negative.backhaul_tu_mbps = {-1.0};
  EXPECT_THROW(sim::EdgeCloudSystem(plan, flat_trace(8.0), negative),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Tier-chain ASCII diagram.
// ---------------------------------------------------------------------------

TEST(TierDiagramTest, RendersOccupancyAndHopPayloads) {
  const std::vector<std::string> names{"edge", "fog", "cloud"};
  EXPECT_EQ(viz::tier_diagram(names, {4, 8}, 10, {1024, 2048}),
            "[edge: L0-L3] ==(1.0 KB)==> [fog: L4-L7] ==(2.0 KB)==> [cloud: L8-L9]");
  EXPECT_EQ(viz::tier_diagram(names, {10, 10}, 10, {0, 0}),
            "[edge: L0-L9] ----> [fog: idle] ----> [cloud: idle]");
  EXPECT_EQ(viz::tier_diagram(names, {0, 0}, 10, {147, 147}),
            "[edge: idle] ==(147 B)==> [fog: idle] ==(147 B)==> [cloud: L0-L9]");

  EXPECT_THROW(viz::tier_diagram({"edge"}, {}, 10, {}), std::invalid_argument);
  EXPECT_THROW(viz::tier_diagram(names, {4}, 10, {1024}), std::invalid_argument);
  EXPECT_THROW(viz::tier_diagram(names, {8, 4}, 10, {0, 0}), std::invalid_argument);
  EXPECT_THROW(viz::tier_diagram(names, {4, 11}, 10, {0, 0}), std::invalid_argument);
}

}  // namespace
}  // namespace lens::core

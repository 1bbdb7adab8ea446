// Tests for wireless power models, communication cost math, and traces.

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "comm/commcost.hpp"
#include "comm/trace.hpp"
#include "comm/wireless.hpp"

namespace lens::comm {
namespace {

TEST(PowerModel, PublishedConstants) {
  const RadioPowerModel wifi = power_model_for(WirelessTechnology::kWifi);
  EXPECT_DOUBLE_EQ(wifi.alpha_mw_per_mbps, 283.17);
  EXPECT_DOUBLE_EQ(wifi.beta_mw, 132.86);
  const RadioPowerModel lte = power_model_for(WirelessTechnology::kLte);
  EXPECT_DOUBLE_EQ(lte.alpha_mw_per_mbps, 438.39);
  EXPECT_DOUBLE_EQ(lte.beta_mw, 1288.04);
  const RadioPowerModel g3 = power_model_for(WirelessTechnology::k3G);
  EXPECT_DOUBLE_EQ(g3.alpha_mw_per_mbps, 868.98);
  EXPECT_DOUBLE_EQ(g3.beta_mw, 817.88);
}

TEST(PowerModel, LinearInThroughput) {
  const RadioPowerModel lte = power_model_for(WirelessTechnology::kLte);
  EXPECT_NEAR(lte.transmit_power_mw(1.0), 438.39 + 1288.04, 1e-9);
  EXPECT_NEAR(lte.transmit_power_mw(10.0), 4383.9 + 1288.04, 1e-9);
  EXPECT_THROW(lte.transmit_power_mw(0.0), std::invalid_argument);
  EXPECT_THROW(lte.transmit_power_mw(-1.0), std::invalid_argument);
}

TEST(PowerModel, LteCostlierThanWifiAtSameThroughput) {
  const RadioPowerModel wifi = power_model_for(WirelessTechnology::kWifi);
  const RadioPowerModel lte = power_model_for(WirelessTechnology::kLte);
  for (double tu : {0.5, 3.0, 16.1, 50.0}) {
    EXPECT_GT(lte.transmit_power_mw(tu), wifi.transmit_power_mw(tu));
  }
}

TEST(TechnologyName, AllValues) {
  EXPECT_EQ(technology_name(WirelessTechnology::kWifi), "WiFi");
  EXPECT_EQ(technology_name(WirelessTechnology::kLte), "LTE");
  EXPECT_EQ(technology_name(WirelessTechnology::k3G), "3G");
}

TEST(CommModel, TxLatencyMatchesHandComputation) {
  const CommModel model(WirelessTechnology::kWifi, 20.0);
  // 147 kB = 150528 B = 1204224 bits at 3 Mbps -> 401.408 ms.
  EXPECT_NEAR(model.tx_latency_ms(150528, 3.0), 401.408, 1e-9);
  EXPECT_NEAR(model.comm_latency_ms(150528, 3.0), 421.408, 1e-9);
}

TEST(CommModel, LatencyScalesInverselyWithThroughput) {
  const CommModel model(WirelessTechnology::kLte, 0.0);
  const double slow = model.tx_latency_ms(1000, 1.0);
  const double fast = model.tx_latency_ms(1000, 10.0);
  EXPECT_NEAR(slow / fast, 10.0, 1e-9);
}

TEST(CommModel, EnergyIsPowerTimesTime) {
  const CommModel model(WirelessTechnology::kWifi, 20.0);
  const double tu = 5.0;
  const std::uint64_t bytes = 36864;
  const double expected_mw = 283.17 * tu + 132.86;
  const double expected_s = static_cast<double>(bytes) * 8.0 / (tu * 1e6);
  EXPECT_NEAR(model.tx_energy_mj(bytes, tu), expected_mw * expected_s, 1e-9);
}

TEST(CommModel, ZeroBytesCostOnlyRoundTrip) {
  const CommModel model(WirelessTechnology::kWifi, 15.0);
  EXPECT_DOUBLE_EQ(model.tx_latency_ms(0, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(model.comm_latency_ms(0, 5.0), 15.0);
  EXPECT_DOUBLE_EQ(model.tx_energy_mj(0, 5.0), 0.0);
}

TEST(CommModel, Validation) {
  EXPECT_THROW(CommModel(WirelessTechnology::kWifi, -1.0), std::invalid_argument);
  EXPECT_THROW(CommModel(WirelessTechnology::kWifi, std::nan("")), std::invalid_argument);
  EXPECT_THROW(CommModel(WirelessTechnology::kWifi, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  const CommModel model(WirelessTechnology::kWifi, 10.0);
  EXPECT_THROW(model.tx_latency_ms(100, 0.0), std::invalid_argument);
  EXPECT_THROW(model.tx_energy_mj(100, -2.0), std::invalid_argument);
}

TEST(CommModel, EnergyNotMonotoneInThroughput) {
  // E(t) = alpha*Mb + beta*Mb/t: strictly decreasing in t, so faster links
  // always cost less energy for the same payload.
  const CommModel model(WirelessTechnology::kLte, 0.0);
  EXPECT_GT(model.tx_energy_mj(150528, 1.0), model.tx_energy_mj(150528, 2.0));
  EXPECT_GT(model.tx_energy_mj(150528, 2.0), model.tx_energy_mj(150528, 20.0));
}

TEST(Trace, StatsAndValidation) {
  ThroughputTrace trace;
  trace.samples_mbps = {2.0, 4.0, 6.0};
  EXPECT_DOUBLE_EQ(trace.mean_mbps(), 4.0);
  EXPECT_DOUBLE_EQ(trace.min_mbps(), 2.0);
  EXPECT_DOUBLE_EQ(trace.max_mbps(), 6.0);
  ThroughputTrace empty;
  EXPECT_THROW(empty.mean_mbps(), std::logic_error);
}

TEST(TraceGenerator, ValidatesConfig) {
  TraceGeneratorConfig bad;
  bad.mean_mbps = -1.0;
  EXPECT_THROW(TraceGenerator{bad}, std::invalid_argument);
  bad = {};
  bad.correlation = 1.0;
  EXPECT_THROW(TraceGenerator{bad}, std::invalid_argument);
  bad = {};
  bad.mean_mbps = std::nan("");
  EXPECT_THROW(TraceGenerator{bad}, std::invalid_argument);
  bad = {};
  bad.floor_mbps = std::nan("");
  EXPECT_THROW(TraceGenerator{bad}, std::invalid_argument);
  bad = {};
  bad.mean_mbps = std::numeric_limits<double>::infinity();
  EXPECT_THROW(TraceGenerator{bad}, std::invalid_argument);
  bad = {};
  bad.floor_mbps = std::numeric_limits<double>::infinity();
  EXPECT_THROW(TraceGenerator{bad}, std::invalid_argument);
  TraceGenerator ok;
  EXPECT_THROW(ok.generate(0), std::invalid_argument);
}

TEST(TraceGenerator, ProducesPositiveSamplesNearMean) {
  TraceGeneratorConfig config;
  config.mean_mbps = 12.0;
  config.seed = 9;
  TraceGenerator gen(config);
  const ThroughputTrace trace = gen.generate(2000, 300.0);
  EXPECT_EQ(trace.size(), 2000u);
  EXPECT_GE(trace.min_mbps(), config.floor_mbps);
  // Log-normal with mu = log(12): median ~12, mean slightly above.
  EXPECT_GT(trace.mean_mbps(), 8.0);
  EXPECT_LT(trace.mean_mbps(), 18.0);
}

TEST(TraceGenerator, Deterministic) {
  TraceGeneratorConfig config;
  config.seed = 33;
  const ThroughputTrace a = TraceGenerator(config).generate(40);
  const ThroughputTrace b = TraceGenerator(config).generate(40);
  EXPECT_EQ(a.samples_mbps, b.samples_mbps);
}

TEST(TraceGenerator, CorrelationProducesSmootherTraces) {
  // Lag-1 autocovariance should be clearly higher with correlation on.
  auto lag1 = [](const ThroughputTrace& t) {
    double mean = t.mean_mbps();
    double num = 0.0;
    double den = 0.0;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      num += (t.samples_mbps[i] - mean) * (t.samples_mbps[i + 1] - mean);
    }
    for (double v : t.samples_mbps) den += (v - mean) * (v - mean);
    return num / den;
  };
  TraceGeneratorConfig smooth;
  smooth.correlation = 0.9;
  smooth.seed = 4;
  TraceGeneratorConfig rough;
  rough.correlation = 0.0;
  rough.seed = 4;
  EXPECT_GT(lag1(TraceGenerator(smooth).generate(4000)),
            lag1(TraceGenerator(rough).generate(4000)) + 0.3);
}

// Parameterized: the power model scales correctly across technologies.
class TechSweepTest : public ::testing::TestWithParam<WirelessTechnology> {};

TEST_P(TechSweepTest, EnergyScalesLinearlyWithBytes) {
  const CommModel model(GetParam(), 10.0);
  const double e1 = model.tx_energy_mj(1000, 5.0);
  const double e2 = model.tx_energy_mj(2000, 5.0);
  EXPECT_NEAR(e2 / e1, 2.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Techs, TechSweepTest,
                         ::testing::Values(WirelessTechnology::kWifi,
                                           WirelessTechnology::kLte,
                                           WirelessTechnology::k3G));

}  // namespace
}  // namespace lens::comm

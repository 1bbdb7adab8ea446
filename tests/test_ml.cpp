// Tests for ridge regression, feature scaling, and regression metrics.

#include <cmath>
#include <random>

#include <gtest/gtest.h>

#include "ml/features.hpp"
#include "ml/metrics.hpp"
#include "ml/ridge.hpp"

namespace lens::ml {
namespace {

TEST(Ridge, RecoversExactLinearModel) {
  RidgeConfig config;
  config.lambda = 0.0;
  RidgeRegression model(config);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (double a = 0.0; a < 3.0; a += 0.5) {
    for (double b = -1.0; b < 1.0; b += 0.5) {
      x.push_back({a, b});
      y.push_back(2.0 * a - 3.0 * b + 1.0);
    }
  }
  model.fit(x, y);
  EXPECT_NEAR(model.weights()[0], 2.0, 1e-6);
  EXPECT_NEAR(model.weights()[1], -3.0, 1e-6);
  EXPECT_NEAR(model.intercept(), 1.0, 1e-6);
  EXPECT_NEAR(model.predict({1.5, 0.25}), 2.0 * 1.5 - 3.0 * 0.25 + 1.0, 1e-6);
}

TEST(Ridge, RegularizationShrinksWeights) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  std::mt19937_64 rng(7);
  std::normal_distribution<double> gauss(0.0, 1.0);
  for (int i = 0; i < 50; ++i) {
    const double a = gauss(rng);
    x.push_back({a});
    y.push_back(5.0 * a + 0.1 * gauss(rng));
  }
  RidgeRegression weak{RidgeConfig{.lambda = 1e-6}};
  RidgeRegression strong{RidgeConfig{.lambda = 100.0}};
  weak.fit(x, y);
  strong.fit(x, y);
  EXPECT_LT(std::abs(strong.weights()[0]), std::abs(weak.weights()[0]));
}

TEST(Ridge, InterceptIsNotPenalized) {
  // Constant-shifted data: heavy lambda must not shrink the intercept.
  RidgeRegression model{RidgeConfig{.lambda = 1000.0}};
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 20; ++i) {
    x.push_back({static_cast<double>(i % 3) * 1e-3});
    y.push_back(42.0);
  }
  model.fit(x, y);
  EXPECT_NEAR(model.predict(std::vector<double>{0.0}), 42.0, 1e-3);
}

TEST(Ridge, InputValidation) {
  EXPECT_THROW(RidgeRegression(RidgeConfig{.lambda = -1.0}), std::invalid_argument);
  RidgeRegression model;
  EXPECT_THROW(model.fit({}, {}), std::invalid_argument);
  EXPECT_THROW(model.fit({{1.0}}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(model.fit({{1.0}, {1.0, 2.0}}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(model.predict(std::vector<double>{1.0}), std::logic_error);  // unfitted
  model.fit({{1.0}, {2.0}}, {1.0, 2.0});
  EXPECT_THROW(model.predict({1.0, 2.0}), std::invalid_argument);
}

TEST(Ridge, RankDeficientDesignStillSolves) {
  // Duplicate columns: the jitter keeps the normal equations solvable.
  RidgeRegression model{RidgeConfig{.lambda = 1e-3}};
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 10; ++i) {
    const double a = static_cast<double>(i);
    x.push_back({a, a});
    y.push_back(4.0 * a);
  }
  EXPECT_NO_THROW(model.fit(x, y));
  EXPECT_NEAR(model.predict({5.0, 5.0}), 20.0, 0.1);
}

TEST(FeatureScaler, StandardizesColumns) {
  FeatureScaler scaler;
  scaler.fit({{0.0, 10.0}, {2.0, 30.0}, {4.0, 50.0}});
  const auto t = scaler.transform({2.0, 30.0});
  EXPECT_NEAR(t[0], 0.0, 1e-12);
  EXPECT_NEAR(t[1], 0.0, 1e-12);
  const auto hi = scaler.transform({4.0, 50.0});
  EXPECT_GT(hi[0], 0.9);
  EXPECT_GT(hi[1], 0.9);
}

TEST(FeatureScaler, ConstantColumnPassesThrough) {
  FeatureScaler scaler;
  scaler.fit({{5.0}, {5.0}, {5.0}});
  EXPECT_NEAR(scaler.transform(std::vector<double>{5.0})[0], 0.0, 1e-12);
  EXPECT_NEAR(scaler.transform(std::vector<double>{6.0})[0], 1.0, 1e-12);  // unit std fallback
}

TEST(FeatureScaler, Validation) {
  FeatureScaler scaler;
  EXPECT_THROW(scaler.fit({}), std::invalid_argument);
  EXPECT_THROW(scaler.transform(std::vector<double>{1.0}), std::logic_error);
  scaler.fit({{1.0, 2.0}});
  EXPECT_THROW(scaler.transform(std::vector<double>{1.0}), std::invalid_argument);
}

TEST(Features, Log1p) {
  EXPECT_DOUBLE_EQ(log1p_feature(0.0), 0.0);
  EXPECT_NEAR(log1p_feature(std::exp(1.0) - 1.0), 1.0, 1e-12);
  EXPECT_THROW(log1p_feature(-0.5), std::invalid_argument);
}

TEST(Metrics, R2PerfectAndMeanPredictor) {
  const std::vector<double> y = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(r2_score(y, y), 1.0);
  const std::vector<double> mean_pred = {2.0, 2.0, 2.0};
  EXPECT_NEAR(r2_score(y, mean_pred), 0.0, 1e-12);
}

TEST(Metrics, R2NegativeForBadFit) {
  EXPECT_LT(r2_score({1.0, 2.0, 3.0}, {3.0, 2.0, 1.0}), 0.0);
}

TEST(Metrics, Mape) {
  EXPECT_NEAR(mape({100.0, 200.0}, {110.0, 180.0}), 10.0, 1e-9);
  EXPECT_THROW(mape({0.0}, {1.0}), std::invalid_argument);  // all below eps
}

TEST(Metrics, SizeValidation) {
  EXPECT_THROW(r2_score({1.0}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(mape({}, {}), std::invalid_argument);
}

TEST(Spearman, PerfectAndInverseOrders) {
  EXPECT_DOUBLE_EQ(spearman_correlation({1.0, 2.0, 3.0}, {10.0, 20.0, 30.0}), 1.0);
  EXPECT_DOUBLE_EQ(spearman_correlation({1.0, 2.0, 3.0}, {30.0, 20.0, 10.0}), -1.0);
  // Monotone nonlinear transform preserves rank correlation exactly.
  EXPECT_DOUBLE_EQ(spearman_correlation({1.0, 2.0, 3.0, 4.0}, {1.0, 8.0, 27.0, 64.0}), 1.0);
}

TEST(Spearman, HandlesTies) {
  // Ties get average ranks; correlation stays defined and bounded.
  const double rho = spearman_correlation({1.0, 1.0, 2.0, 3.0}, {5.0, 6.0, 7.0, 8.0});
  EXPECT_GT(rho, 0.8);
  EXPECT_LE(rho, 1.0);
  // A constant vector carries no ranking signal.
  EXPECT_DOUBLE_EQ(spearman_correlation({1.0, 1.0, 1.0}, {1.0, 2.0, 3.0}), 0.0);
}

TEST(Spearman, UncorrelatedNearZero) {
  std::mt19937_64 rng(3);
  std::normal_distribution<double> gauss(0.0, 1.0);
  std::vector<double> a(400);
  std::vector<double> b(400);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = gauss(rng);
    b[i] = gauss(rng);
  }
  EXPECT_LT(std::abs(spearman_correlation(a, b)), 0.15);
}

TEST(Spearman, Validation) {
  EXPECT_THROW(spearman_correlation({1.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(spearman_correlation({1.0, 2.0}, {1.0}), std::invalid_argument);
}

TEST(Dataset, SplitPreservesAllSamples) {
  Dataset data;
  for (int i = 0; i < 100; ++i) data.add({static_cast<double>(i)}, i * 2.0);
  std::mt19937_64 rng(5);
  auto [train, test] = train_test_split(data, 0.25, rng);
  EXPECT_EQ(train.size() + test.size(), 100u);
  EXPECT_EQ(test.size(), 25u);
  // No sample duplicated: targets are unique, so the multiset union matches.
  std::vector<double> all = train.y;
  all.insert(all.end(), test.y.begin(), test.y.end());
  std::sort(all.begin(), all.end());
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(i)], i * 2.0);
}

TEST(Dataset, SplitValidation) {
  Dataset data;
  data.add({1.0}, 1.0);
  std::mt19937_64 rng(1);
  EXPECT_THROW(train_test_split(data, 0.0, rng), std::invalid_argument);
  EXPECT_THROW(train_test_split(data, 1.0, rng), std::invalid_argument);
}

// Property: ridge generalizes on noisy linear data across dimensions.
class RidgeGeneralizationTest : public ::testing::TestWithParam<int> {};

TEST_P(RidgeGeneralizationTest, HighR2OnHeldOut) {
  const int dim = GetParam();
  std::mt19937_64 rng(static_cast<unsigned>(dim) * 31 + 1);
  std::normal_distribution<double> gauss(0.0, 1.0);
  std::vector<double> true_weights(static_cast<std::size_t>(dim));
  // Guarantee signal: |w| >= 0.5 so the 0.05-sigma noise stays negligible.
  for (double& w : true_weights) {
    const double g = gauss(rng);
    w = (g < 0.0 ? -1.0 : 1.0) * (0.5 + std::abs(g));
  }

  Dataset data;
  for (int i = 0; i < 60 * dim; ++i) {
    std::vector<double> features(static_cast<std::size_t>(dim));
    double target = 0.5;
    for (int j = 0; j < dim; ++j) {
      features[static_cast<std::size_t>(j)] = gauss(rng);
      target += true_weights[static_cast<std::size_t>(j)] * features[static_cast<std::size_t>(j)];
    }
    target += 0.05 * gauss(rng);
    data.add(std::move(features), target);
  }
  auto [train, test] = train_test_split(data, 0.3, rng);
  RidgeRegression model{RidgeConfig{.lambda = 1e-4}};
  model.fit(train.x, train.y);
  EXPECT_GT(r2_score(test.y, model.predict(test.x)), 0.95);
}

INSTANTIATE_TEST_SUITE_P(Dims, RidgeGeneralizationTest, ::testing::Values(1, 2, 4, 8, 16));

}  // namespace
}  // namespace lens::ml

// Tests for the accuracy objective models (surrogate and statistics of the
// error landscape it induces).

#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>

#include <gtest/gtest.h>

#include "core/accuracy.hpp"
#include "core/search_space.hpp"

namespace lens::core {
namespace {

class SurrogateTest : public ::testing::Test {
 protected:
  SearchSpace space_;
  SurrogateAccuracyModel model_;
};

TEST_F(SurrogateTest, Deterministic) {
  std::mt19937_64 rng(1);
  const Genotype g = space_.random(rng);
  const dnn::Architecture arch = space_.decode(g);
  EXPECT_DOUBLE_EQ(model_.test_error_percent(g, arch), model_.test_error_percent(g, arch));
}

TEST_F(SurrogateTest, ErrorsWithinCalibratedBand) {
  std::mt19937_64 rng(2);
  for (int i = 0; i < 200; ++i) {
    const Genotype g = space_.random(rng);
    const double error = model_.test_error_percent(g, space_.decode(g));
    EXPECT_GE(error, 11.0);
    EXPECT_LE(error, 65.0);
  }
}

TEST_F(SurrogateTest, CapacityReducesErrorOnAverage) {
  // Compare the minimal and maximal architectures of the space.
  Genotype small(space_.num_dimensions(), 0);
  for (int b = 0; b < 4; ++b) small[static_cast<std::size_t>(4 * b + 3)] = 1;
  Genotype large = small;
  for (int b = 0; b < 5; ++b) {
    large[static_cast<std::size_t>(4 * b + 0)] = 2;  // depth 3
    large[static_cast<std::size_t>(4 * b + 2)] = 4;  // 128 filters
  }
  large[20] = 3;  // fc1 2048
  large[21] = 1;  // fc2 present
  const double small_error = model_.test_error_percent(small, space_.decode(small));
  const double large_error = model_.test_error_percent(large, space_.decode(large));
  EXPECT_LT(large_error, small_error - 5.0);
}

TEST_F(SurrogateTest, NoiseSeedChangesReplicates) {
  std::mt19937_64 rng(3);
  const Genotype g = space_.random(rng);
  const dnn::Architecture arch = space_.decode(g);
  SurrogateAccuracyConfig other;
  other.seed = 999;
  const SurrogateAccuracyModel replica(other);
  EXPECT_NE(model_.test_error_percent(g, arch), replica.test_error_percent(g, arch));
  // But both stay within the band.
  EXPECT_GE(replica.test_error_percent(g, arch), other.min_error);
}

TEST_F(SurrogateTest, ZeroNoiseIsMonotoneInDepthAtFixedWidth) {
  SurrogateAccuracyConfig config;
  config.noise_std = 0.0;
  const SurrogateAccuracyModel clean(config);
  Genotype shallow(space_.num_dimensions(), 0);
  for (int b = 0; b < 4; ++b) shallow[static_cast<std::size_t>(4 * b + 3)] = 1;
  Genotype deep = shallow;
  for (int b = 0; b < 5; ++b) deep[static_cast<std::size_t>(4 * b + 0)] = 2;
  EXPECT_LT(clean.test_error_percent(deep, space_.decode(deep)),
            clean.test_error_percent(shallow, space_.decode(shallow)));
}

TEST_F(SurrogateTest, OvercapacityPenaltyBites) {
  SurrogateAccuracyConfig config;
  config.noise_std = 0.0;
  config.overcapacity_knee = 6.0;   // artificially low knee
  config.overcapacity_slope = 30.0; // harsh under-training penalty
  const SurrogateAccuracyModel harsh(config);
  const SurrogateAccuracyModel normal(SurrogateAccuracyConfig{.noise_std = 0.0});
  // The largest architecture in the space exceeds the knee.
  Genotype huge(space_.num_dimensions(), 0);
  for (int b = 0; b < 5; ++b) {
    huge[static_cast<std::size_t>(4 * b + 0)] = 2;
    huge[static_cast<std::size_t>(4 * b + 2)] = 5;
    huge[static_cast<std::size_t>(4 * b + 3)] = 1;
  }
  huge[20] = 5;
  huge[21] = 1;
  huge[22] = 5;
  const dnn::Architecture arch = space_.decode(huge);
  EXPECT_GT(harsh.test_error_percent(huge, arch), normal.test_error_percent(huge, arch));
}

TEST(Surrogate, RejectsNegativeOrNonFiniteNoise) {
  for (const double bad : {-0.5, std::nan(""), std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(SurrogateAccuracyModel(SurrogateAccuracyConfig{.noise_std = bad}),
                 std::invalid_argument)
        << bad;
  }
  EXPECT_NO_THROW(SurrogateAccuracyModel(SurrogateAccuracyConfig{.noise_std = 0.0}));
}

TEST_F(SurrogateTest, ErrorLandscapeHasUsefulSpread) {
  // The search needs a non-degenerate error objective: across random
  // samples the spread should be large relative to the noise.
  std::mt19937_64 rng(5);
  double lo = 1e9;
  double hi = -1e9;
  for (int i = 0; i < 100; ++i) {
    const Genotype g = space_.random(rng);
    const double e = model_.test_error_percent(g, space_.decode(g));
    lo = std::min(lo, e);
    hi = std::max(hi, e);
  }
  EXPECT_GT(hi - lo, 10.0);
}

}  // namespace
}  // namespace lens::core

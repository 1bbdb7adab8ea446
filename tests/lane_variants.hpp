#pragma once
// Runs a test once per lane variant of the blocked GP kernels (opt/lanes.hpp)
// through the detail::use_lane_variant() seam. The four-lane run skips on a
// CPU without AVX2; every test restores the variant it started with.

#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "opt/lanes.hpp"

namespace lens::opt {

inline const LaneVariant kLaneVariants[] = {LaneVariant::kTwoLane, LaneVariant::kFourLaneAvx2};

/// "TwoLane" or "FourLaneAvx2": a test-name suffix.
inline std::string lane_variant_label(LaneVariant variant) {
  return variant == LaneVariant::kFourLaneAvx2 ? "FourLaneAvx2" : "TwoLane";
}

/// A parameterized fixture whose parameter is a LaneVariant or a tuple
/// holding one: SetUp selects it, TearDown restores the earlier variant.
template <typename Param = LaneVariant>
class LaneVariantTest : public ::testing::TestWithParam<Param> {
 protected:
  void SetUp() override {
    if (!detail::use_lane_variant(variant_of(this->GetParam()))) {
      GTEST_SKIP() << "this CPU cannot run the " << lane_variant_name(variant_of(this->GetParam()))
                   << " kernels";
    }
  }
  void TearDown() override { detail::use_lane_variant(before_); }

 private:
  static LaneVariant variant_of(LaneVariant variant) { return variant; }
  template <typename... T>
  static LaneVariant variant_of(const std::tuple<T...>& param) {
    return std::get<LaneVariant>(param);
  }

  const LaneVariant before_ = lane_variant();
};

}  // namespace lens::opt

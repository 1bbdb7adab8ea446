#include "opt/lanes.hpp"

#include <atomic>

namespace lens::opt {

namespace {
bool cpu_runs(LaneVariant variant) {
  if (variant == LaneVariant::kTwoLane) return true;
#if LENS_FOUR_LANE_AVX2
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

std::atomic<LaneVariant>& selected_variant() {
  static std::atomic<LaneVariant> variant{cpu_runs(LaneVariant::kFourLaneAvx2)
                                              ? LaneVariant::kFourLaneAvx2
                                              : LaneVariant::kTwoLane};
  return variant;
}
}  // namespace

LaneVariant lane_variant() { return selected_variant().load(std::memory_order_relaxed); }

const char* lane_variant_name(LaneVariant variant) {
  return variant == LaneVariant::kFourLaneAvx2 ? "four-lane avx2" : "two-lane";
}

bool detail::use_lane_variant(LaneVariant variant) {
  if (!cpu_runs(variant)) return false;
  selected_variant().store(variant, std::memory_order_relaxed);
  return true;
}

}  // namespace lens::opt

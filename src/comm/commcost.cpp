#include "comm/commcost.hpp"

#include <limits>
#include <stdexcept>

namespace lens::comm {

CommModel::CommModel(WirelessTechnology technology, double round_trip_ms)
    : CommModel(power_model_for(technology), round_trip_ms) {}

CommModel::CommModel(const RadioPowerModel& power_model, double round_trip_ms)
    : power_model_(power_model), round_trip_ms_(round_trip_ms) {
  // NaN fails too.
  if (!(round_trip_ms >= 0.0 && round_trip_ms <= std::numeric_limits<double>::max())) {
    throw std::invalid_argument("CommModel: round-trip latency must be finite and non-negative");
  }
}

CostCurve CommModel::comm_latency_curve(std::uint64_t bytes) const {
  // L_Tx = bits / (t_u * 1e3) ms.
  return {round_trip_ms_, static_cast<double>(bytes) * 8.0 / 1e3};
}

CostCurve CommModel::tx_energy_curve(std::uint64_t bytes) const {
  const double megabits = static_cast<double>(bytes) * 8.0 / 1e6;
  return {power_model_.alpha_mw_per_mbps * megabits, power_model_.beta_mw * megabits};
}

}  // namespace lens::comm

#include "sim/timeline.hpp"

#include <algorithm>
#include <stdexcept>

namespace lens::sim {

double ResourceTimeline::schedule(double ready_time_s, double duration_s) {
  if (!(duration_s >= 0.0)) {  // NaN fails too
    throw std::invalid_argument("ResourceTimeline: duration must be non-negative");
  }
  if (ready_time_s < last_ready_s_ - 1e-9) {
    throw std::invalid_argument("ResourceTimeline: jobs must arrive in FIFO order");
  }
  last_ready_s_ = std::max(last_ready_s_, ready_time_s);
  const double start = std::max(ready_time_s, busy_until_s_);
  busy_until_s_ = start + duration_s;
  total_busy_s_ += duration_s;
  ++jobs_;
  return busy_until_s_;
}

double ResourceTimeline::schedule_unordered(double ready_time_s, double duration_s) {
  if (!(duration_s >= 0.0)) {  // NaN fails too
    throw std::invalid_argument("ResourceTimeline: duration must be non-negative");
  }
  if (ready_time_s < 0.0) throw std::invalid_argument("ResourceTimeline: negative ready");
  const double start = std::max(ready_time_s, busy_until_s_);
  busy_until_s_ = start + duration_s;
  total_busy_s_ += duration_s;
  ++jobs_;
  return busy_until_s_;
}

}  // namespace lens::sim

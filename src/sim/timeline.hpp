#pragma once
// Serial-resource timeline for discrete-event simulation: a FIFO resource
// (the edge accelerator, the radio) that serves one job at a time.

#include <cstddef>

namespace lens::sim {

/// Tracks the completion horizon of a serial FIFO resource.
class ResourceTimeline {
 public:
  /// Schedule a job that becomes ready at `ready_time_s` and occupies the
  /// resource for `duration_s`. Returns its completion time. Jobs must be
  /// scheduled in ready-time order (FIFO); throws std::invalid_argument on
  /// negative or NaN durations or out-of-order scheduling beyond tolerance.
  double schedule(double ready_time_s, double duration_s);

  /// As schedule(), but without the FIFO ready-order check: the job queues
  /// behind everything scheduled so far even if its ready time lies in the
  /// past. Used for degraded-mode traffic injected out of arrival order
  /// (timeout fallbacks re-executing on the edge); throws on negative or NaN
  /// durations and on negative ready times.
  double schedule_unordered(double ready_time_s, double duration_s);

  /// Time until which the resource is busy (0 when never used).
  double busy_until() const { return busy_until_s_; }

  /// Total busy time accumulated (for utilization metrics).
  double total_busy() const { return total_busy_s_; }

  /// Jobs served.
  std::size_t jobs() const { return jobs_; }

 private:
  double busy_until_s_ = 0.0;
  double last_ready_s_ = 0.0;
  double total_busy_s_ = 0.0;
  std::size_t jobs_ = 0;
};

}  // namespace lens::sim

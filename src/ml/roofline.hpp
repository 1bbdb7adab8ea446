#pragma once
// Physically-informed piecewise regression for layer latency:
//   latency = max(flops * u, bytes * v) + c        (u = 1/rate_compute, ...)
// Fit by alternating assignment / least squares: each sample is assigned to
// the branch currently explaining it, then (u, v, c) are re-fit jointly by
// linear least squares on the assigned design. This is the per-layer-type
// prediction-model family Neurosurgeon-style methodologies use for devices
// whose kernels are either compute- or bandwidth-bound.

#include <cstddef>
#include <vector>

namespace lens::ml {

struct RooflineConfig {
  int max_iterations = 25;
  double lambda = 1e-12;  ///< tiny ridge term for numerical safety
};

/// Two-branch roofline latency regressor.
class RooflineRegression {
 public:
  explicit RooflineRegression(RooflineConfig config = {});

  /// Fit on parallel vectors of per-sample FLOPs, moved bytes, and measured
  /// latency. Throws on empty / mismatched input or non-positive targets.
  void fit(const std::vector<double>& flops, const std::vector<double>& bytes,
           const std::vector<double>& latency);

  /// Predicted latency for one (flops, bytes) pair.
  double predict(double flops, double bytes) const;

  /// True when the compute branch dominates for this workload.
  bool compute_bound(double flops, double bytes) const;

  bool is_fitted() const { return fitted_; }
  /// Effective compute rate (FLOP per latency-unit), i.e. 1/u.
  double compute_rate() const { return 1.0 / inv_compute_rate_; }
  /// Effective memory rate (bytes per latency-unit), i.e. 1/v.
  double memory_rate() const { return 1.0 / inv_memory_rate_; }
  double overhead() const { return overhead_; }

 private:
  RooflineConfig config_;
  bool fitted_ = false;
  double inv_compute_rate_ = 0.0;
  double inv_memory_rate_ = 0.0;
  double overhead_ = 0.0;
};

}  // namespace lens::ml

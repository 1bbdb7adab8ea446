#include "ml/roofline.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "opt/matrix.hpp"

namespace lens::ml {

RooflineRegression::RooflineRegression(RooflineConfig config) : config_(config) {
  if (config.max_iterations <= 0) {
    throw std::invalid_argument("RooflineRegression: max_iterations must be positive");
  }
}

void RooflineRegression::fit(const std::vector<double>& flops,
                             const std::vector<double>& bytes,
                             const std::vector<double>& latency) {
  const std::size_t n = latency.size();
  if (n == 0 || flops.size() != n || bytes.size() != n) {
    throw std::invalid_argument("RooflineRegression::fit: empty or mismatched data");
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (flops[i] <= 0.0 || bytes[i] <= 0.0 || latency[i] <= 0.0) {
      throw std::invalid_argument("RooflineRegression::fit: non-positive sample");
    }
  }

  // Initialize rates from the medians of latency/work ratios: an over-
  // estimate for the non-binding branch, but a sane starting assignment.
  auto median_ratio = [n](const std::vector<double>& work, const std::vector<double>& y) {
    std::vector<double> r(n);
    for (std::size_t i = 0; i < n; ++i) r[i] = y[i] / work[i];
    std::nth_element(r.begin(), r.begin() + static_cast<std::ptrdiff_t>(n / 2), r.end());
    return r[n / 2];
  };
  double u = median_ratio(flops, latency);  // latency per FLOP
  double v = median_ratio(bytes, latency);  // latency per byte
  double c = 0.0;

  std::vector<bool> assigned_compute(n);
  std::vector<bool> previous(n);
  for (int iteration = 0; iteration < config_.max_iterations; ++iteration) {
    for (std::size_t i = 0; i < n; ++i) {
      assigned_compute[i] = flops[i] * u >= bytes[i] * v;
    }
    if (iteration > 0 && assigned_compute == previous) break;
    previous = assigned_compute;

    // Joint least squares over [compute_work, memory_work, 1] where exactly
    // one work column is active per row. Rows are weighted by 1/latency so
    // the fit minimizes *relative* residuals — otherwise the handful of
    // largest layers dominate and the per-layer overhead of small layers is
    // fit arbitrarily badly.
    opt::Matrix design(n, 3);
    std::vector<double> target(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double weight = 1.0 / latency[i];
      design(i, 0) = (assigned_compute[i] ? flops[i] : 0.0) * weight;
      design(i, 1) = (assigned_compute[i] ? 0.0 : bytes[i]) * weight;
      design(i, 2) = weight;
      target[i] = 1.0;  // latency[i] * weight
    }
    // Column equilibration: the work columns are ~1e8x larger than the
    // intercept column, so a raw ridge term would crush the intercept.
    double scale[3] = {0.0, 0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i) {
      for (int j = 0; j < 3; ++j) scale[j] += design(i, j) * design(i, j);
    }
    for (int j = 0; j < 3; ++j) {
      scale[j] = std::sqrt(scale[j] / static_cast<double>(n));
      if (scale[j] < 1e-300) scale[j] = 1.0;  // empty branch column
      for (std::size_t i = 0; i < n; ++i) design(i, j) /= scale[j];
    }
    opt::Matrix gram = design.transposed().multiply(design);
    gram.add_diagonal(config_.lambda + 1e-9);
    const std::vector<double> rhs = design.transposed().multiply(target);
    std::vector<double> solution = opt::CholeskyFactor::factorize(gram).solve(rhs);
    for (int j = 0; j < 3; ++j) solution[static_cast<std::size_t>(j)] /= scale[j];
    // Keep parameters physical: rates and overhead never negative.
    u = std::max(solution[0], 1e-18);
    v = std::max(solution[1], 1e-18);
    c = std::max(solution[2], 0.0);
  }

  inv_compute_rate_ = u;
  inv_memory_rate_ = v;
  overhead_ = c;
  fitted_ = true;
}

double RooflineRegression::predict(double flops, double bytes) const {
  if (!fitted_) throw std::logic_error("RooflineRegression::predict: not fitted");
  return std::max(flops * inv_compute_rate_, bytes * inv_memory_rate_) + overhead_;
}

bool RooflineRegression::compute_bound(double flops, double bytes) const {
  if (!fitted_) throw std::logic_error("RooflineRegression::compute_bound: not fitted");
  return flops * inv_compute_rate_ >= bytes * inv_memory_rate_;
}

}  // namespace lens::ml

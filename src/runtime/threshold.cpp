#include "runtime/threshold.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace lens::runtime {

// The comm cost algebra is owned by comm::CommModel; these helpers only add
// the option's throughput-free edge/cloud constants on top.

CostCurve latency_curve(const core::DeploymentOption& option, const comm::CommModel& comm) {
  CostCurve c;
  c.constant = option.edge_latency_ms + option.cloud_latency_ms;
  if (option.tx_bytes > 0) {
    const CostCurve tx = comm.comm_latency_curve(option.tx_bytes);
    c.constant += tx.constant;
    c.per_inverse_tu = tx.per_inverse_tu;
  }
  return c;
}

CostCurve energy_curve(const core::DeploymentOption& option, const comm::CommModel& comm) {
  CostCurve c;
  c.constant = option.edge_energy_mj;
  if (option.tx_bytes > 0) {
    const CostCurve tx = comm.tx_energy_curve(option.tx_bytes);
    c.constant += tx.constant;
    c.per_inverse_tu = tx.per_inverse_tu;
  }
  return c;
}

CostCurve cost_curve(const core::DeploymentOption& option, const comm::CommModel& comm,
                     OptimizeFor metric) {
  return metric == OptimizeFor::kLatency ? latency_curve(option, comm)
                                         : energy_curve(option, comm);
}

std::optional<double> crossover_tu(const CostCurve& a, const CostCurve& b) {
  const double d_const = a.constant - b.constant;
  const double d_slope = b.per_inverse_tu - a.per_inverse_tu;
  // Degeneracy is relative to the coefficient magnitudes: an absolute
  // epsilon would miss crossings between large-valued curves (their
  // difference is legitimately big on an absolute scale) and fabricate
  // crossings between near-identical ones.
  const double const_scale = std::max(std::abs(a.constant), std::abs(b.constant));
  const double slope_scale = std::max(std::abs(a.per_inverse_tu), std::abs(b.per_inverse_tu));
  constexpr double kRelEps = 1e-12;
  if (std::abs(d_const) <= kRelEps * const_scale) return std::nullopt;
  if (std::abs(d_slope) <= kRelEps * slope_scale) return std::nullopt;
  const double tu = d_slope / d_const;
  if (tu <= 0.0 || !std::isfinite(tu)) return std::nullopt;
  return tu;
}

std::vector<DominanceInterval> dominance_intervals(const std::vector<CostCurve>& curves,
                                                   double tu_min, double tu_max) {
  if (curves.empty()) throw std::invalid_argument("dominance_intervals: no curves");
  if (!(tu_min > 0.0) || !(tu_max > tu_min)) {
    throw std::invalid_argument("dominance_intervals: bad throughput range");
  }
  // Breakpoints: all pairwise crossings inside the range.
  std::vector<double> edges = {tu_min, tu_max};
  for (std::size_t i = 0; i < curves.size(); ++i) {
    for (std::size_t j = i + 1; j < curves.size(); ++j) {
      if (const auto tu = crossover_tu(curves[i], curves[j])) {
        if (*tu > tu_min && *tu < tu_max) edges.push_back(*tu);
      }
    }
  }
  std::sort(edges.begin(), edges.end());
  // Merge breakpoints that coincide up to relative rounding error. All
  // edges are positive and sorted, so (b - a) <= eps * b is a symmetric-
  // enough relative test; an absolute epsilon would glue together distinct
  // crossings in the multi-hundred-Mbps regime and keep duplicates apart
  // in the sub-kbps one.
  constexpr double kRelDedup = 1e-9;
  edges.erase(std::unique(edges.begin(), edges.end(),
                          [](double a, double b) {
                            return std::abs(b - a) <= kRelDedup * std::max(a, b);
                          }),
              edges.end());

  auto best_at = [&](double tu) {
    std::size_t best = 0;
    double best_value = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < curves.size(); ++i) {
      const double v = curves[i].value(tu);
      if (v < best_value) {
        best_value = v;
        best = i;
      }
    }
    return best;
  };

  std::vector<DominanceInterval> intervals;
  for (std::size_t e = 0; e + 1 < edges.size(); ++e) {
    // Geometric midpoint: robust for hyperbolic curves across decades.
    const double mid = std::sqrt(edges[e] * edges[e + 1]);
    const std::size_t winner = best_at(mid);
    if (!intervals.empty() && intervals.back().option_index == winner) {
      intervals.back().tu_high = edges[e + 1];  // merge
    } else {
      intervals.push_back({winner, edges[e], edges[e + 1]});
    }
  }
  return intervals;
}

}  // namespace lens::runtime

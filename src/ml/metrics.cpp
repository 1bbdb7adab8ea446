#include "ml/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace lens::ml {

namespace {
void check_sizes(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size() || a.empty()) {
    throw std::invalid_argument("metrics: vectors must be equal-sized and non-empty");
  }
}
}  // namespace

double r2_score(const std::vector<double>& y_true, const std::vector<double>& y_pred) {
  check_sizes(y_true, y_pred);
  const double mean =
      std::accumulate(y_true.begin(), y_true.end(), 0.0) / static_cast<double>(y_true.size());
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (std::size_t i = 0; i < y_true.size(); ++i) {
    ss_res += (y_true[i] - y_pred[i]) * (y_true[i] - y_pred[i]);
    ss_tot += (y_true[i] - mean) * (y_true[i] - mean);
  }
  if (ss_tot < 1e-12) return ss_res < 1e-12 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

double mape(const std::vector<double>& y_true, const std::vector<double>& y_pred, double eps) {
  check_sizes(y_true, y_pred);
  double acc = 0.0;
  std::size_t counted = 0;
  for (std::size_t i = 0; i < y_true.size(); ++i) {
    if (std::abs(y_true[i]) < eps) continue;
    acc += std::abs((y_true[i] - y_pred[i]) / y_true[i]);
    ++counted;
  }
  if (counted == 0) throw std::invalid_argument("mape: all targets below eps");
  return 100.0 * acc / static_cast<double>(counted);
}

namespace {
/// Average ranks (1-based; ties share the mean of their positions).
std::vector<double> average_ranks(const std::vector<double>& values) {
  const std::size_t n = values.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return values[a] < values[b]; });
  std::vector<double> ranks(n);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && values[order[j + 1]] == values[order[i]]) ++j;
    const double mean_rank = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) ranks[order[k]] = mean_rank;
    i = j + 1;
  }
  return ranks;
}
}  // namespace

double spearman_correlation(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size() || a.size() < 2) {
    throw std::invalid_argument("spearman_correlation: need >=2 paired samples");
  }
  const std::vector<double> ra = average_ranks(a);
  const std::vector<double> rb = average_ranks(b);
  // Pearson correlation of the ranks (robust to ties).
  const double n = static_cast<double>(a.size());
  double mean_a = 0.0;
  double mean_b = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    mean_a += ra[i];
    mean_b += rb[i];
  }
  mean_a /= n;
  mean_b /= n;
  double cov = 0.0;
  double var_a = 0.0;
  double var_b = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    cov += (ra[i] - mean_a) * (rb[i] - mean_b);
    var_a += (ra[i] - mean_a) * (ra[i] - mean_a);
    var_b += (rb[i] - mean_b) * (rb[i] - mean_b);
  }
  if (var_a < 1e-12 || var_b < 1e-12) return 0.0;  // a constant ranking carries no signal
  return cov / std::sqrt(var_a * var_b);
}

void Dataset::add(std::vector<double> features, double target) {
  x.push_back(std::move(features));
  y.push_back(target);
}

std::pair<Dataset, Dataset> train_test_split(const Dataset& data, double test_fraction,
                                             std::mt19937_64& rng) {
  if (test_fraction <= 0.0 || test_fraction >= 1.0) {
    throw std::invalid_argument("train_test_split: test_fraction must be in (0,1)");
  }
  if (data.x.size() != data.y.size()) {
    throw std::invalid_argument("train_test_split: inconsistent dataset");
  }
  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);

  const auto test_count = static_cast<std::size_t>(
      std::round(test_fraction * static_cast<double>(data.size())));
  Dataset train;
  Dataset test;
  for (std::size_t i = 0; i < order.size(); ++i) {
    Dataset& target = i < test_count ? test : train;
    target.add(data.x[order[i]], data.y[order[i]]);
  }
  return {std::move(train), std::move(test)};
}

}  // namespace lens::ml

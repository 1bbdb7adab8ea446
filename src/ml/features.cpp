#include "ml/features.hpp"

#include <cmath>
#include <stdexcept>

namespace lens::ml {

void FeatureScaler::fit(const std::vector<std::vector<double>>& x) {
  if (x.empty()) throw std::invalid_argument("FeatureScaler::fit: empty design matrix");
  const std::size_t dim = x.front().size();
  mean_.assign(dim, 0.0);
  std_.assign(dim, 0.0);
  for (const auto& row : x) {
    if (row.size() != dim) throw std::invalid_argument("FeatureScaler::fit: ragged rows");
    for (std::size_t j = 0; j < dim; ++j) mean_[j] += row[j];
  }
  for (double& m : mean_) m /= static_cast<double>(x.size());
  for (const auto& row : x) {
    for (std::size_t j = 0; j < dim; ++j) {
      const double d = row[j] - mean_[j];
      std_[j] += d * d;
    }
  }
  for (double& s : std_) {
    s = std::sqrt(s / static_cast<double>(x.size()));
    if (s < 1e-12) s = 1.0;
  }
}

std::vector<double> FeatureScaler::transform(const std::vector<double>& x) const {
  if (!is_fitted()) throw std::logic_error("FeatureScaler::transform: not fitted");
  if (x.size() != mean_.size()) throw std::invalid_argument("FeatureScaler: size mismatch");
  std::vector<double> out(x.size());
  for (std::size_t j = 0; j < x.size(); ++j) out[j] = (x[j] - mean_[j]) / std_[j];
  return out;
}

std::vector<std::vector<double>> FeatureScaler::transform(
    const std::vector<std::vector<double>>& x) const {
  std::vector<std::vector<double>> out;
  out.reserve(x.size());
  for (const auto& row : x) out.push_back(transform(row));
  return out;
}

double log1p_feature(double v) {
  if (v < 0.0) throw std::invalid_argument("log1p_feature: negative value");
  return std::log1p(v);
}

}  // namespace lens::ml

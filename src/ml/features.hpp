#pragma once
// Feature engineering helpers for the layer-performance regression models
// (paper §IV-C: "Each prediction model would have its input features
// constructed as in [Neurosurgeon]").

#include <vector>

namespace lens::ml {

/// Standardizes feature columns to zero mean / unit variance. Columns with
/// (near-)zero variance pass through unscaled so constant features don't
/// explode.
class FeatureScaler {
 public:
  /// Learn column statistics from a design matrix (rows = samples).
  void fit(const std::vector<std::vector<double>>& x);

  /// Apply the learned scaling to one sample.
  std::vector<double> transform(const std::vector<double>& x) const;

  /// Apply to a whole design matrix.
  std::vector<std::vector<double>> transform(const std::vector<std::vector<double>>& x) const;

  bool is_fitted() const { return !mean_.empty(); }
  const std::vector<double>& mean() const { return mean_; }
  const std::vector<double>& std_dev() const { return std_; }

 private:
  std::vector<double> mean_;
  std::vector<double> std_;
};

/// log(1 + v) transform for heavy-tailed features (sizes, FLOP counts).
double log1p_feature(double v);

}  // namespace lens::ml

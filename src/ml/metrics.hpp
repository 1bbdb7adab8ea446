#pragma once
// Regression quality metrics and dataset split helpers.

#include <cstddef>
#include <random>
#include <utility>
#include <vector>

namespace lens::ml {

/// Coefficient of determination R^2 = 1 - SS_res / SS_tot. Returns 1.0 for a
/// perfect fit; can be negative for fits worse than the mean predictor.
double r2_score(const std::vector<double>& y_true, const std::vector<double>& y_pred);

/// Mean absolute percentage error (%); entries with |y_true| < eps are skipped.
double mape(const std::vector<double>& y_true, const std::vector<double>& y_pred,
            double eps = 1e-9);

/// Spearman rank correlation in [-1, 1]: correlation of the rank orders of
/// two paired samples (average ranks for ties). The right metric for "does
/// surrogate A rank candidates like evaluator B". Throws on mismatched or
/// short (<2) input.
double spearman_correlation(const std::vector<double>& a, const std::vector<double>& b);

/// A regression dataset: parallel design matrix and targets.
struct Dataset {
  std::vector<std::vector<double>> x;
  std::vector<double> y;

  std::size_t size() const { return y.size(); }
  void add(std::vector<double> features, double target);
};

/// Random train/test split; `test_fraction` in (0,1).
std::pair<Dataset, Dataset> train_test_split(const Dataset& data, double test_fraction,
                                             std::mt19937_64& rng);

}  // namespace lens::ml

#pragma once
// Frontier analysis for the paper's evaluation (Figs. 6-7):
// two-objective projections of search histories, post-hoc repartitioning of
// a baseline's Pareto set, domination fractions, and combined-front
// composition.

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/nas.hpp"
#include "opt/pareto.hpp"

namespace lens::core {

/// How to read a candidate's performance objectives when projecting.
enum class DeploymentPolicy {
  kAsSearched,      ///< the objective values the search itself used
  kAllEdge,         ///< force All-Edge costs
  kBestDeployment,  ///< force best-deployment (Alg. 1 minima)
};

/// A candidate's value for one objective under a policy.
double objective_value(const EvaluatedCandidate& candidate, Objective objective,
                       DeploymentPolicy policy);

/// Build the 2-D Pareto front of an entire search history over the objective
/// pair (a, b) under `policy`. ParetoPoint::id indexes the history.
opt::ParetoFront front_2d(const std::vector<EvaluatedCandidate>& history, Objective a,
                          Objective b, DeploymentPolicy policy = DeploymentPolicy::kAsSearched);

/// Re-evaluate exactly the members of `front` under best-deployment costs
/// and return the Pareto front of the re-evaluated points ("partitioning the
/// Traditional's Pareto set after the optimization", paper §V-A).
opt::ParetoFront repartition_front(const opt::ParetoFront& front,
                                   const std::vector<EvaluatedCandidate>& history, Objective a,
                                   Objective b);

/// Pairwise comparison of two fronts over the same objective pair.
struct FrontComparison {
  double a_dominates_b = 0.0;  ///< fraction of b's members dominated by a
  double b_dominates_a = 0.0;  ///< fraction of a's members dominated by b
  opt::CombinedFrontStats combined;
};

FrontComparison compare_fronts(const opt::ParetoFront& a, const opt::ParetoFront& b);

/// Count history candidates satisfying a predicate (Fig. 7 criteria).
std::size_t count_satisfying(const std::vector<EvaluatedCandidate>& history,
                             const std::function<bool(const EvaluatedCandidate&)>& predicate);

/// Knee-point selection: the front member minimizing the normalized
/// distance to the ideal point (component-wise minimum over the front).
/// The standard way to pick "the" model from a Pareto set when no explicit
/// preference is given. Throws std::invalid_argument on an empty front.
const opt::ParetoPoint& knee_point(const opt::ParetoFront& front);

}  // namespace lens::core

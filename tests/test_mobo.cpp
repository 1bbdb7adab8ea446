// Tests for the acquisition layer and the MOBO engine (paper Alg. 2).

#include <cmath>
#include <random>

#include <gtest/gtest.h>

#include "opt/acquisition.hpp"
#include "opt/hypervolume.hpp"
#include "opt/mobo.hpp"

namespace lens::opt {
namespace {

std::vector<GaussianProcess> fit_single_objective_gp(const std::vector<double>& centers) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (double c : centers) {
    x.push_back({c});
    y.push_back((c - 0.5) * (c - 0.5));  // minimum at 0.5
  }
  GpConfig config;
  config.tune_hyperparameters = false;
  config.length_scale = 0.3;
  config.noise_variance = 1e-6;
  std::vector<GaussianProcess> gps;
  gps.emplace_back(config);
  gps.front().fit(x, y);
  return gps;
}

TEST(Acquisition, RejectsEmptyInput) {
  std::vector<GaussianProcess> gps;
  ObjectiveNormalizer norm(1);
  std::mt19937_64 rng(1);
  EXPECT_THROW(select_candidate(gps, {{0.5}}, norm, {}, rng), std::invalid_argument);
  gps.emplace_back();
  EXPECT_THROW(select_candidate(gps, {}, norm, {}, rng), std::invalid_argument);
}

TEST(Acquisition, MeanScalarizedPicksPosteriorMinimum) {
  auto gps = fit_single_objective_gp({0.0, 0.2, 0.4, 0.6, 0.8, 1.0});
  ObjectiveNormalizer norm(1);
  norm.observe({0.0});
  norm.observe({0.25});
  const std::vector<std::vector<double>> pool = {{0.05}, {0.5}, {0.95}};
  AcquisitionConfig config;
  config.kind = AcquisitionKind::kMeanScalarized;
  std::mt19937_64 rng(7);
  EXPECT_EQ(select_candidate(gps, pool, norm, config, rng), 1u);
}

TEST(Acquisition, ThompsonUsuallyPicksGoodRegion) {
  auto gps = fit_single_objective_gp({0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0});
  ObjectiveNormalizer norm(1);
  norm.observe({0.0});
  norm.observe({0.25});
  const std::vector<std::vector<double>> pool = {{0.02}, {0.5}, {0.98}};
  AcquisitionConfig config;  // Thompson
  std::mt19937_64 rng(11);
  int picked_center = 0;
  for (int i = 0; i < 50; ++i) {
    if (select_candidate(gps, pool, norm, config, rng) == 1u) ++picked_center;
  }
  EXPECT_GT(picked_center, 30);  // exploitation dominates, exploration allowed
}

TEST(Acquisition, LcbPrefersUncertainWhenMeansTie) {
  // Train only near x=0 so x=1 has much larger posterior variance.
  GpConfig config;
  config.tune_hyperparameters = false;
  config.length_scale = 0.1;
  std::vector<GaussianProcess> gps;
  gps.emplace_back(config);
  gps.front().fit({{0.0}, {0.05}}, {1.0, 1.0});
  ObjectiveNormalizer norm(1);
  norm.observe({0.0});
  norm.observe({2.0});
  AcquisitionConfig acq;
  acq.kind = AcquisitionKind::kLowerConfidenceBound;
  acq.lcb_beta = 3.0;
  std::mt19937_64 rng(3);
  // Pool: point near data (low variance, mean 1) vs far point (mean ~1
  // = prior mean after normalization, high variance) -> LCB picks far.
  EXPECT_EQ(select_candidate(gps, {{0.02}, {0.95}}, norm, acq, rng), 1u);
}

TEST(Mobo, ValidatesConfiguration) {
  MoboConfig config;
  auto sampler = [](std::mt19937_64&) { return std::vector<double>{0.5}; };
  auto objectives = [](const std::vector<double>&) { return std::vector<double>{0.0}; };
  EXPECT_THROW(MoboEngine(config, 0, sampler, objectives), std::invalid_argument);
  EXPECT_THROW(MoboEngine(config, 1, nullptr, objectives), std::invalid_argument);
  config.num_initial = 0;
  EXPECT_THROW(MoboEngine(config, 1, sampler, objectives), std::invalid_argument);
}

TEST(Mobo, DetectsWrongObjectiveArity) {
  MoboConfig config;
  config.num_initial = 1;
  auto sampler = [](std::mt19937_64& rng) {
    std::uniform_real_distribution<double> u(0.0, 1.0);
    return std::vector<double>{u(rng)};
  };
  auto objectives = [](const std::vector<double>&) {
    return std::vector<double>{0.0, 1.0};  // arity 2, engine expects 1
  };
  MoboEngine engine(config, 1, sampler, objectives);
  EXPECT_THROW(engine.step(1), std::runtime_error);
}

TEST(Mobo, HistoryGrowsAndFrontIsConsistent) {
  MoboConfig config;
  config.num_initial = 5;
  config.num_iterations = 10;
  config.pool_size = 32;
  config.seed = 3;
  auto sampler = [](std::mt19937_64& rng) {
    std::uniform_real_distribution<double> u(0.0, 1.0);
    return std::vector<double>{u(rng), u(rng)};
  };
  auto objectives = [](const std::vector<double>& x) {
    // Classic 2-objective trade-off: distance to (0,0) vs distance to (1,1).
    const double f1 = x[0] * x[0] + x[1] * x[1];
    const double f2 = (x[0] - 1.0) * (x[0] - 1.0) + (x[1] - 1.0) * (x[1] - 1.0);
    return std::vector<double>{f1, f2};
  };
  MoboEngine engine(config, 2, sampler, objectives);
  engine.run();
  EXPECT_EQ(engine.history().size(), 15u);
  // Every front member must exist in history with identical objectives.
  for (const ParetoPoint& p : engine.front().points()) {
    ASSERT_LT(p.id, engine.history().size());
    EXPECT_EQ(engine.history()[p.id].objectives, p.objectives);
  }
  // And the front must be mutually non-dominated.
  for (const ParetoPoint& p : engine.front().points()) {
    for (const ParetoPoint& q : engine.front().points()) {
      if (&p != &q) {
        EXPECT_FALSE(dominates(p.objectives, q.objectives));
      }
    }
  }
}

TEST(Mobo, BeatsRandomSearchOnToyProblem) {
  // Compare final hypervolume of MOBO vs pure random sampling with the same
  // evaluation budget on the ZDT1-style problem.
  auto objectives = [](const std::vector<double>& x) {
    const double f1 = x[0];
    const double g = 1.0 + 9.0 * x[1];
    const double f2 = g * (1.0 - std::sqrt(f1 / g));
    return std::vector<double>{f1, f2};
  };
  auto sampler = [](std::mt19937_64& rng) {
    std::uniform_real_distribution<double> u(0.0, 1.0);
    return std::vector<double>{u(rng), u(rng)};
  };
  const std::vector<double> reference = {1.1, 10.1};

  double mobo_hv_sum = 0.0;
  double random_hv_sum = 0.0;
  for (unsigned seed = 1; seed <= 3; ++seed) {
    MoboConfig config;
    config.num_initial = 10;
    config.num_iterations = 40;
    config.pool_size = 64;
    config.seed = seed;
    MoboEngine engine(config, 2, sampler, objectives);
    engine.run();
    std::vector<std::vector<double>> mobo_points;
    for (const auto& p : engine.front().points()) mobo_points.push_back(p.objectives);
    mobo_hv_sum += hypervolume(mobo_points, reference);

    std::mt19937_64 rng(seed + 100);
    ParetoFront random_front;
    for (std::size_t i = 0; i < 50; ++i) random_front.insert(i, objectives(sampler(rng)));
    std::vector<std::vector<double>> random_points;
    for (const auto& p : random_front.points()) random_points.push_back(p.objectives);
    random_hv_sum += hypervolume(random_points, reference);
  }
  EXPECT_GT(mobo_hv_sum, random_hv_sum);
}

TEST(Mobo, StepIsIncremental) {
  MoboConfig config;
  config.num_initial = 3;
  config.num_iterations = 5;
  auto sampler = [](std::mt19937_64& rng) {
    std::uniform_real_distribution<double> u(0.0, 1.0);
    return std::vector<double>{u(rng)};
  };
  auto objectives = [](const std::vector<double>& x) {
    return std::vector<double>{std::abs(x[0] - 0.3)};
  };
  MoboEngine engine(config, 1, sampler, objectives);
  engine.step(4);
  EXPECT_EQ(engine.history().size(), 4u);
  engine.run();
  EXPECT_EQ(engine.history().size(), 8u);
}

TEST(Mobo, SurvivesExhaustedDiscreteSpace) {
  // A sampler with only 3 distinct points: once all are evaluated, the
  // dedup filter empties the pool and the engine must fall back to repeats
  // instead of hanging or throwing.
  MoboConfig config;
  config.num_initial = 2;
  config.num_iterations = 6;
  config.pool_size = 8;
  config.seed = 2;
  auto sampler = [](std::mt19937_64& rng) {
    std::uniform_int_distribution<int> d(0, 2);
    return std::vector<double>{static_cast<double>(d(rng)) / 2.0};
  };
  auto objectives = [](const std::vector<double>& x) {
    return std::vector<double>{x[0]};
  };
  MoboEngine engine(config, 1, sampler, objectives);
  EXPECT_NO_THROW(engine.run());
  EXPECT_EQ(engine.history().size(), 8u);
}

TEST(Mobo, IncrementalPosteriorMatchesReferenceBitForBit) {
  // The incremental O(n^2) posterior path (GaussianProcess::observe between
  // tuned refits) must reproduce a refit-every-iteration engine exactly:
  // same proposals, same history, same front — bit for bit. The reference
  // restores the previous step's snapshot into a fresh engine before every
  // step, and restore() rebuilds each posterior with a frozen-hyper refit.
  auto make = [](std::size_t refit_period) {
    MoboConfig config;
    config.num_initial = 6;
    config.num_iterations = 14;
    config.pool_size = 48;
    config.seed = 9;
    config.refit_period = refit_period;
    auto sampler = [](std::mt19937_64& rng) {
      std::uniform_real_distribution<double> u(0.0, 1.0);
      return std::vector<double>{u(rng), u(rng), u(rng)};
    };
    auto objectives = [](const std::vector<double>& x) {
      const double f1 = x[0] * x[0] + std::sin(5.0 * x[1]) * 0.3 + x[2];
      const double f2 = (x[0] - 1.0) * (x[0] - 1.0) + (x[1] - 1.0) * (x[1] - 1.0);
      return std::vector<double>{f1, f2};
    };
    return MoboEngine(config, 2, sampler, objectives);
  };

  for (const std::size_t refit_period : {1u, 4u, 100u}) {
    MoboEngine incremental = make(refit_period);
    incremental.run();
    MoboEngine reference = make(refit_period);
    while (reference.evaluations_done() < incremental.evaluations_done()) {
      MoboEngine fresh = make(refit_period);
      fresh.restore(reference.snapshot());
      fresh.step(1);
      reference = std::move(fresh);
    }
    ASSERT_EQ(incremental.history().size(), reference.history().size())
        << "refit_period=" << refit_period;
    for (std::size_t i = 0; i < incremental.history().size(); ++i) {
      EXPECT_EQ(incremental.history()[i].x, reference.history()[i].x)
          << "refit_period=" << refit_period << " i=" << i;
      EXPECT_EQ(incremental.history()[i].objectives, reference.history()[i].objectives)
          << "refit_period=" << refit_period << " i=" << i;
    }
    ASSERT_EQ(incremental.front().size(), reference.front().size());
    for (std::size_t i = 0; i < incremental.front().points().size(); ++i) {
      EXPECT_EQ(incremental.front().points()[i].id, reference.front().points()[i].id);
      EXPECT_EQ(incremental.front().points()[i].objectives,
                reference.front().points()[i].objectives);
    }
  }
}

TEST(Mobo, LaneVariantsRunBitIdenticalSearches) {
  // One search past several tuned refits (the grid search's blocked
  // factorizations) and Thompson draws (panel solves and covariance tiles)
  // on each lane variant: the histories must agree bit for bit.
  const auto search = [] {
    MoboConfig config;
    config.num_initial = 7;
    config.num_iterations = 13;
    config.pool_size = 37;
    config.seed = 11;
    config.refit_period = 4;
    auto sampler = [](std::mt19937_64& rng) {
      std::uniform_real_distribution<double> u(0.0, 1.0);
      return std::vector<double>{u(rng), u(rng), u(rng)};
    };
    auto objectives = [](const std::vector<double>& x) {
      return std::vector<double>{x[0] * x[0] + std::sin(5.0 * x[1]) * 0.3 + x[2],
                                 (x[0] - 1.0) * (x[0] - 1.0) + x[1] * x[2],
                                 std::exp(x[2]) - x[0]};
    };
    MoboEngine engine(config, 3, sampler, objectives);
    engine.run();
    return engine.history();
  };
  const LaneVariant before = lane_variant();
  ASSERT_TRUE(detail::use_lane_variant(LaneVariant::kTwoLane));
  const std::vector<Observation> two_lane = search();
  const bool four_lane_runs = detail::use_lane_variant(LaneVariant::kFourLaneAvx2);
  const std::vector<Observation> four_lane = four_lane_runs ? search() : two_lane;
  detail::use_lane_variant(before);
  if (!four_lane_runs) GTEST_SKIP() << "this CPU cannot run the four-lane avx2 kernels";
  ASSERT_EQ(two_lane.size(), 20u);
  ASSERT_EQ(four_lane.size(), two_lane.size());
  for (std::size_t i = 0; i < two_lane.size(); ++i) {
    EXPECT_EQ(four_lane[i].x, two_lane[i].x) << "evaluation " << i;
    EXPECT_EQ(four_lane[i].objectives, two_lane[i].objectives) << "evaluation " << i;
  }
}

TEST(Mobo, DuplicateIndexSkipsEvaluatedCandidates) {
  // Discrete sampler over 4 points: once some are evaluated, the hashed
  // duplicate index must filter them from the acquisition pool with the
  // same accept/reject semantics the old linear history scan had; the
  // exhausted-space fallback still allows repeats.
  MoboConfig config;
  config.num_initial = 2;
  config.num_iterations = 8;
  config.pool_size = 16;
  config.seed = 6;
  auto sampler = [](std::mt19937_64& rng) {
    std::uniform_int_distribution<int> d(0, 3);
    return std::vector<double>{static_cast<double>(d(rng)) / 3.0};
  };
  auto objectives = [](const std::vector<double>& x) {
    return std::vector<double>{x[0] * (1.0 - x[0])};
  };
  MoboEngine engine(config, 1, sampler, objectives);
  EXPECT_NO_THROW(engine.run());
  EXPECT_EQ(engine.history().size(), 10u);
}

TEST(Mobo, RefitPeriodDoesNotChangeDeterminism) {
  auto make = [](std::size_t refit_period) {
    MoboConfig config;
    config.num_initial = 5;
    config.num_iterations = 8;
    config.seed = 4;
    config.refit_period = refit_period;
    auto sampler = [](std::mt19937_64& rng) {
      std::uniform_real_distribution<double> u(0.0, 1.0);
      return std::vector<double>{u(rng), u(rng)};
    };
    auto objectives = [](const std::vector<double>& x) {
      return std::vector<double>{x[0] + x[1], x[0] - x[1]};
    };
    MoboEngine engine(config, 2, sampler, objectives);
    engine.run();
    return engine.history().size();
  };
  // Both refit cadences complete the same budget (cheap sanity that the
  // refit bookkeeping cannot stall or over-run the loop).
  EXPECT_EQ(make(1), 13u);
  EXPECT_EQ(make(100), 13u);
}

TEST(Mobo, SeedObservationsWarmStart) {
  MoboConfig config;
  config.num_initial = 4;
  config.num_iterations = 3;
  auto sampler = [](std::mt19937_64& rng) {
    std::uniform_real_distribution<double> u(0.0, 1.0);
    return std::vector<double>{u(rng)};
  };
  std::size_t evaluations = 0;
  auto objectives = [&](const std::vector<double>& x) {
    ++evaluations;
    return std::vector<double>{std::abs(x[0] - 0.4)};
  };
  MoboEngine engine(config, 1, sampler, objectives);
  engine.seed_observations({{{0.1}, {0.3}}, {{0.9}, {0.5}}});
  EXPECT_EQ(engine.history().size(), 2u);
  engine.run();
  // Seeds consumed 2 of the 4 warm-up slots: only 5 real evaluations.
  EXPECT_EQ(evaluations, 5u);
  EXPECT_EQ(engine.history().size(), 7u);
}

TEST(Mobo, SeedValidation) {
  MoboConfig config;
  auto sampler = [](std::mt19937_64& rng) {
    std::uniform_real_distribution<double> u(0.0, 1.0);
    return std::vector<double>{u(rng)};
  };
  auto objectives = [](const std::vector<double>& x) {
    return std::vector<double>{x[0]};
  };
  MoboEngine engine(config, 1, sampler, objectives);
  EXPECT_THROW(engine.seed_observations({{{0.1}, {0.3, 0.4}}}), std::invalid_argument);
  engine.step(1);
  EXPECT_THROW(engine.seed_observations({{{0.1}, {0.3}}}), std::logic_error);
}

}  // namespace
}  // namespace lens::opt

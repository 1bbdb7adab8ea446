// search-mobo: `lens search` defaults (LENS mode, two-tier TX2-GPU + WiFi at
// 3 Mbps) with --initial 20 --iterations 280 — 300 evaluations, pool 256.
//
// Untraced: NasDriver::run repetitions, with blocks of back-to-back
// set-ups before each and after the last.
// Traced: (1) an untraced NasDriver run, (2) the same run with timing
// decorators on the predictor and the accuracy model, (3) a MoboEngine the
// benchmark drives itself (its callbacks decode, compile and price), whose
// history must equal NasDriver's bit for bit, and (4) a replay of the GP
// fits, observes and acquisitions over that run's own history.

#include <cmath>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "bench.hpp"
#include "comm/commcost.hpp"
#include "core/accuracy.hpp"
#include "core/evaluator.hpp"
#include "core/nas.hpp"
#include "core/plan.hpp"
#include "core/search_space.hpp"
#include "opt/acquisition.hpp"
#include "opt/gp.hpp"
#include "opt/hypervolume.hpp"
#include "opt/mobo.hpp"
#include "opt/pareto.hpp"
#include "opt/scalarization.hpp"
#include "perf/predictor.hpp"

namespace perfbench {
namespace {

using lens::core::Genotype;

constexpr std::size_t kInitial = 20;
constexpr std::size_t kIterations = 280;
constexpr double kTuMbps = 3.0;

/// quality_share reference box [0, ref]: error %, latency ms, energy mJ.
/// Front points beyond it add no volume (the hypervolume convention).
const std::vector<double> kReference = {100.0, 500.0, 3000.0};
/// FNV-1a of the final front's objective vectors at the default seed.
constexpr std::uint64_t kFrontDigest = 0xff21552ee800b24dULL;

/// Everything `lens search` builds before NasDriver::run except the
/// evaluator, which refers to `predictor` and is built next to the rig.
struct SearchRig {
  lens::perf::RooflinePredictor predictor;
  lens::comm::CommModel comm;
  lens::core::SearchSpace space;
  lens::core::SurrogateAccuracyModel accuracy;
  lens::core::NasConfig config;

  explicit SearchRig(std::uint64_t seed)
      : predictor(train_predictor(lens::perf::jetson_tx2_gpu())),
        comm(lens::comm::WirelessTechnology::kWifi, 5.0) {
    config.mobo.num_iterations = kIterations;
    config.mobo.num_initial = kInitial;
    config.mobo.seed = static_cast<unsigned>(seed);
    config.nsga2.seed = config.mobo.seed;
    config.tu_mbps = kTuMbps;
    config.mode = lens::core::ObjectiveMode::kBestDeployment;
    config.strategy = lens::core::SearchStrategy::kMobo;
  }
};

class TimedPredictor final : public lens::perf::LayerPerformanceModel {
 public:
  TimedPredictor(const lens::perf::LayerPerformanceModel& inner, Tracer& tracer)
      : inner_(inner), tracer_(&tracer) {}
  lens::perf::LayerMeasurement predict(const lens::dnn::LayerSpec& layer,
                                       const lens::dnn::TensorShape& input) const override {
    const Scope span(*tracer_, "perf.predict");
    return inner_.predict(layer, input);
  }

 private:
  const lens::perf::LayerPerformanceModel& inner_;
  Tracer* tracer_;
};

class TimedAccuracy final : public lens::core::AccuracyModel {
 public:
  TimedAccuracy(const lens::core::AccuracyModel& inner, Tracer& tracer)
      : inner_(inner), tracer_(&tracer) {}
  double test_error_percent(const Genotype& genotype,
                            const lens::dnn::Architecture& arch) const override {
    const Scope span(*tracer_, "core.accuracy");
    return inner_.test_error_percent(genotype, arch);
  }

 private:
  const lens::core::AccuracyModel& inner_;
  Tracer* tracer_;
};

std::vector<std::vector<double>> objective_rows(const lens::core::NasResult& result) {
  std::vector<std::vector<double>> rows;
  rows.reserve(result.history.size());
  for (const lens::core::EvaluatedCandidate& c : result.history) rows.push_back(c.objectives());
  return rows;
}

/// Output checks of one search: full budget, finite objectives, a front of
/// history members that do not dominate each other.
void check_result(const lens::core::NasResult& result) {
  const std::size_t budget = kInitial + kIterations;
  check("search.history_size", result.history.size() == budget,
        std::to_string(result.history.size()) + " records");
  bool finite = true;
  for (const std::vector<double>& row : objective_rows(result)) {
    for (const double v : row) finite = finite && std::isfinite(v);
  }
  check("search.objectives_finite", finite);
  const std::vector<lens::opt::ParetoPoint>& front = result.front.points();
  bool valid = !front.empty();
  for (const lens::opt::ParetoPoint& p : front) {
    valid = valid && p.id < result.history.size() &&
            p.objectives == result.history[p.id].objectives();
    for (const lens::opt::ParetoPoint& q : front) {
      valid = valid && !lens::opt::dominates(q.objectives, p.objectives);
    }
  }
  for (const std::vector<double>& row : objective_rows(result)) {
    bool covered = false;
    for (const lens::opt::ParetoPoint& p : front) {
      covered = covered || p.objectives == row || lens::opt::dominates(p.objectives, row);
    }
    valid = valid && covered;
  }
  check("search.front_nondominated", valid, std::to_string(front.size()) + " points");
}

std::vector<std::vector<double>> front_rows(const lens::core::NasResult& result) {
  std::vector<std::vector<double>> rows;
  for (const lens::opt::ParetoPoint& p : result.front.points()) rows.push_back(p.objectives);
  return rows;
}

void report_quality(const lens::core::NasResult& result, std::uint64_t seed) {
  const std::vector<std::vector<double>> rows = front_rows(result);
  std::uint64_t h = lens::io::kFnvOffsetBasis;
  for (const std::vector<double>& row : rows) h = fnv1a_doubles(row, h);
  digest("search.front", h, kFrontDigest, seed);
  double box = 1.0;
  for (const double r : kReference) box *= r;
  counter("quality_share", lens::opt::hypervolume(rows, kReference) / box);
}

/// What the benchmark-driven engine saw at one BO iteration: the pool the
/// engine scored, the RNG state select_candidate started from, the point it
/// chose, and the history length at that moment.
struct Proposal {
  std::vector<std::vector<double>> pool;
  std::mt19937_64 rng;
  std::vector<double> chosen;
  std::size_t history_size = 0;
};

/// Drives opt::MoboEngine with the benchmark's own callbacks (NasDriver's
/// evaluation path for one point: decode, compile with a genotype cache,
/// accuracy, price) and records what the replay needs.
struct DrivenSearch {
  std::vector<lens::opt::Observation> history;
  std::vector<Proposal> proposals;
  std::size_t compile_calls = 0;
  std::size_t cache_hits = 0;
};

DrivenSearch drive_engine(const SearchRig& rig, const lens::core::DeploymentEvaluator& evaluator,
                          const lens::core::AccuracyModel& accuracy, Tracer& tracer) {
  DrivenSearch out;
  struct Cached {
    lens::core::DeploymentPlan plan;
    double error_percent = 0.0;
  };
  std::map<Genotype, Cached> cache;
  std::set<std::vector<double>> seen;
  std::vector<std::vector<double>> draws;
  std::mt19937_64 last_rng;
  std::size_t evaluated = 0;

  auto sampler = [&](std::mt19937_64& rng) {
    const Scope span(tracer, "core.sample");
    std::vector<double> x = rig.space.to_normalized(rig.space.random(rng));
    draws.push_back(x);
    last_rng = rng;
    return x;
  };
  auto objectives = [&](const std::vector<double>& x) {
    const Scope span(tracer, "core.evaluate");
    if (evaluated >= kInitial) {
      Proposal p;
      for (std::vector<double>& d : draws) {
        if (seen.count(d) == 0) p.pool.push_back(std::move(d));
      }
      if (p.pool.empty()) p.pool.push_back(draws.back());  // engine's exhausted-space draw
      p.rng = last_rng;
      p.chosen = x;
      p.history_size = evaluated;
      out.proposals.push_back(std::move(p));
    }
    draws.clear();
    const Genotype genotype = rig.space.from_normalized(x);
    auto it = cache.find(genotype);
    if (it == cache.end()) {
      std::optional<lens::dnn::Architecture> arch;
      {
        const Scope decode(tracer, "core.decode");
        arch.emplace(rig.space.decode(genotype));
      }
      Cached entry;
      {
        const Scope compile(tracer, "core.compile");
        entry.plan = evaluator.compile(*arch);
      }
      entry.error_percent = accuracy.test_error_percent(genotype, *arch);
      ++out.compile_calls;
      it = cache.emplace(genotype, std::move(entry)).first;
    } else {
      ++out.cache_hits;
    }
    lens::core::DeploymentEvaluation priced;
    {
      const Scope price(tracer, "core.price");
      priced = it->second.plan.price(rig.config.tu_mbps);
    }
    std::vector<double> y = {it->second.error_percent, priced.best_latency_ms(),
                             priced.best_energy_mj()};
    seen.insert(x);
    ++evaluated;
    return y;
  };

  lens::opt::MoboEngine engine(rig.config.mobo, lens::core::kNumObjectives, sampler, objectives);
  {
    const Scope step(tracer, "opt.step");
    engine.step(kInitial + kIterations);
  }
  out.history = engine.history();
  return out;
}

/// Re-runs the engine's model work over the driven run's history: a tuned
/// GaussianProcess::fit every refit period, GaussianProcess::observe after
/// every BO evaluation, and opt::select_candidate from the recorded pool and
/// RNG state. Returns false if a replayed selection differs from the
/// engine's choice (the attribution would then be void).
bool replay_models(const SearchRig& rig, const DrivenSearch& run, Tracer& tracer) {
  const lens::opt::MoboConfig& mobo = rig.config.mobo;
  const std::size_t k_obj = lens::core::kNumObjectives;
  std::vector<lens::opt::GaussianProcess> gps;
  for (std::size_t k = 0; k < k_obj; ++k) gps.emplace_back(mobo.gp);
  bool ready = false;
  std::size_t since_refit = 0;
  bool agree = true;
  const Scope root(tracer, "opt.replay");
  for (const Proposal& p : run.proposals) {
    const std::size_t n = p.history_size;
    const bool tune = !ready || since_refit >= mobo.refit_period;
    if (tune) {
      const Scope fit(tracer, "opt.gp_fit");
      std::vector<std::vector<double>> xs;
      for (std::size_t i = 0; i < n; ++i) xs.push_back(run.history[i].x);
      for (std::size_t k = 0; k < k_obj; ++k) {
        std::vector<double> ys;
        for (std::size_t i = 0; i < n; ++i) ys.push_back(run.history[i].objectives[k]);
        gps[k] = lens::opt::GaussianProcess(mobo.gp);
        gps[k].fit(xs, ys);
      }
      ready = true;
    }
    since_refit = tune ? 0 : since_refit + 1;
    lens::opt::ObjectiveNormalizer normalizer(k_obj);
    for (std::size_t i = 0; i < n; ++i) normalizer.observe(run.history[i].objectives);
    std::mt19937_64 rng = p.rng;
    std::size_t chosen = 0;
    {
      const Scope acquisition(tracer, "opt.acquisition");
      chosen = lens::opt::select_candidate(gps, p.pool, normalizer, mobo.acquisition, rng);
    }
    agree = agree && p.pool[chosen] == p.chosen;
    const lens::opt::Observation& o = run.history[n];
    const Scope observe(tracer, "opt.gp_observe");
    for (std::size_t k = 0; k < k_obj; ++k) gps[k].observe(o.x, o.objectives[k]);
  }
  return agree;
}

}  // namespace

int run_search(const Options& options) {
  const SearchRig rig(options.seed);
  Line("workload")
      .str("name", "search-mobo")
      .str("what", "lens search: LENS mode, tx2-gpu + wifi (rtt 5 ms), two-tier")
      .num("tu_mbps", kTuMbps)
      .count("initial", kInitial)
      .count("iterations", kIterations)
      .count("pool", rig.config.mobo.pool_size)
      .count("refit_period", rig.config.mobo.refit_period)
      .count("seed", options.seed)
      .str("unit", "evaluations");

  // Set-up: predictor training, evaluator, space, accuracy model, driver.
  const auto setup = [&] {
    setup_blocks(5, 0.1, [&] {
      const SearchRig fresh(options.seed);
      const lens::core::DeploymentEvaluator evaluator(fresh.predictor, fresh.comm);
      const lens::core::NasDriver driver(fresh.space, evaluator, fresh.accuracy, fresh.config);
      (void)driver;
    });
  };

  const lens::core::DeploymentEvaluator evaluator(rig.predictor, rig.comm);
  const double units = static_cast<double>(kInitial + kIterations);
  std::optional<lens::core::NasResult> first;
  const auto timed_search = [&](const lens::core::DeploymentEvaluator& ev,
                                const lens::core::AccuracyModel& accuracy) {
    lens::core::NasDriver driver(rig.space, ev, accuracy, rig.config);
    const Clock::time_point start = Clock::now();
    lens::core::NasResult result = driver.run();
    const double seconds = seconds_between(start, Clock::now());
    check_result(result);
    if (!first) {
      report_quality(result, options.seed);
      first = std::move(result);
    } else {
      check("search.repeatable", objective_rows(result) == objective_rows(*first));
    }
    return seconds;
  };

  if (!options.trace) {
    repeat(options.seconds, units, [&] { return timed_search(evaluator, rig.accuracy); },
           setup);
    return 0;
  }

  Tracer tracer(true);
  {
    const Scope train(tracer, "perf.train");
    (void)train_predictor(lens::perf::jetson_tx2_gpu());
  }
  const double untraced = timed_search(evaluator, rig.accuracy);
  rep_line("untraced", false, untraced, units);

  const TimedPredictor predictor(rig.predictor, tracer);
  const TimedAccuracy accuracy(rig.accuracy, tracer);
  const lens::core::DeploymentEvaluator timed_evaluator(predictor, rig.comm);
  double traced = 0.0;
  {
    const Scope run(tracer, "search.nas_driver");
    traced = timed_search(timed_evaluator, accuracy);
  }
  rep_line("traced", false, traced, units);

  DrivenSearch driven;
  {
    const Scope engine(tracer, "search.engine");
    driven = drive_engine(rig, timed_evaluator, accuracy, tracer);
  }
  bool same = driven.history.size() == first->history.size();
  for (std::size_t i = 0; same && i < driven.history.size(); ++i) {
    same = driven.history[i].objectives == first->history[i].objectives();
  }
  check("search.engine_reproduces_nas_driver", same,
        "benchmark-driven MoboEngine vs NasDriver history, bit for bit");
  counter("core.cache_hit_share",
          static_cast<double>(driven.cache_hits) / static_cast<double>(driven.history.size()));
  counter("core.compile_calls", static_cast<double>(driven.compile_calls));
  check("search.replay_selects_same_points", replay_models(rig, driven, tracer),
        "select_candidate replayed from the recorded pool and RNG state");
  tracer.emit();
  return 0;
}

}  // namespace perfbench

#include "core/nas.hpp"

#include <optional>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "par/parallel.hpp"

namespace lens::core {

std::size_t GenotypeHash::operator()(const Genotype& genotype) const noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int v : genotype) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(v));
    h *= 0x100000001b3ULL;
  }
  return static_cast<std::size_t>(h);
}

NasDriver::NasDriver(const SearchSpace& space, const DeploymentEvaluator& evaluator,
                     const AccuracyModel& accuracy, NasConfig config)
    : space_(space), evaluator_(evaluator), accuracy_(accuracy), config_(config) {}

std::vector<std::vector<double>> NasDriver::evaluate_batch(
    const std::vector<std::vector<double>>& xs, NasResult& result) {
  std::vector<Genotype> genotypes;
  genotypes.reserve(xs.size());
  for (const std::vector<double>& x : xs) genotypes.push_back(space_.from_normalized(x));

  // Genotypes not yet memoized, de-duplicated, in first-appearance order.
  std::vector<Genotype> missing;
  {
    std::unordered_set<Genotype, GenotypeHash> scheduled;
    for (const Genotype& genotype : genotypes) {
      if (cache_.count(genotype) > 0 || scheduled.count(genotype) > 0) continue;
      scheduled.insert(genotype);
      missing.push_back(genotype);
    }
  }

  // Stage 1 — parallel over uncached genotypes, one COARSE task per
  // candidate: decode + the full predictor pipeline of compile(). Both are
  // pure functions of the genotype. Architecture lacks a default
  // constructor, hence the optional slot.
  struct Fresh {
    std::optional<dnn::Architecture> arch;
    DeploymentPlan plan;
  };
  std::vector<Fresh> fresh = par::parallel_map(missing.size(), [&](std::size_t i) {
    Fresh f;
    f.arch.emplace(space_.decode(missing[i]));
    f.plan = evaluator_.compile(*f.arch);
    return f;
  });

  // Stage 2 — serial: the accuracy model is not required to be thread-safe
  // (e.g. TrainedAccuracyEvaluator), so it is queried in first-appearance
  // order and the cache inserts happen here too. After this loop the cache
  // is read-only for the rest of the call.
  for (std::size_t i = 0; i < missing.size(); ++i) {
    CacheEntry entry;
    entry.name = fresh[i].arch->name();
    entry.error_percent = accuracy_.test_error_percent(missing[i], *fresh[i].arch);
    entry.plan = std::move(fresh[i].plan);
    cache_.emplace(std::move(missing[i]), std::move(entry));
  }
  cache_hits_ += genotypes.size() - fresh.size();

  // Stage 3 — parallel over the WHOLE batch (cached entries included), one
  // coarse task per candidate: price the compiled plan at the configured
  // throughput and assemble the full candidate record. Lookups are
  // concurrent reads of the now-frozen cache; every task writes only its
  // own slots, so the batch is bit-identical at any thread count.
  std::vector<std::vector<double>> ys(genotypes.size());
  std::vector<EvaluatedCandidate> candidates(genotypes.size());
  par::parallel_for(genotypes.size(), [&](std::size_t i) {
    const CacheEntry& entry = cache_.at(genotypes[i]);
    EvaluatedCandidate& candidate = candidates[i];
    candidate.genotype = std::move(genotypes[i]);
    candidate.name = entry.name;
    candidate.deployment = config_.hop_tu_mbps.empty()
                               ? entry.plan.price(config_.tu_mbps)
                               : entry.plan.price(config_.hop_tu_mbps);
    candidate.error_percent = entry.error_percent;
    switch (config_.mode) {
      case ObjectiveMode::kBestDeployment:
        candidate.latency_ms = candidate.deployment.best_latency_ms();
        candidate.energy_mj = candidate.deployment.best_energy_mj();
        break;
      case ObjectiveMode::kAllEdgeOnly: {
        const DeploymentOption& edge = candidate.deployment.all_edge();
        candidate.latency_ms = edge.latency_ms;
        candidate.energy_mj = edge.energy_mj;
        break;
      }
    }
    ys[i] = candidate.objectives();
  });

  // Stage 4 — serial: append to history in input order.
  result.history.reserve(result.history.size() + candidates.size());
  for (EvaluatedCandidate& candidate : candidates) {
    result.history.push_back(std::move(candidate));
  }
  return ys;
}

void NasDriver::run_mobo(NasResult& result) {
  auto sampler = [this](std::mt19937_64& rng) {
    return space_.to_normalized(space_.random(rng));
  };
  auto batch_objectives = [this, &result](const std::vector<std::vector<double>>& xs) {
    return evaluate_batch(xs, result);
  };
  auto objectives = [&batch_objectives](const std::vector<double>& x) {
    return batch_objectives({x}).front();
  };
  opt::MoboEngine engine(config_.mobo, kNumObjectives, sampler, objectives);
  engine.set_batch_objectives(batch_objectives);

  if (!config_.resume_run.empty()) {
    if (!config_.warm_start.empty()) {
      throw std::invalid_argument(
          "NasDriver: resume_run (exact-state resume) and warm_start (cross-config "
          "seeding) are mutually exclusive");
    }
    const opt::MoboSnapshot snapshot = load_newest_run_checkpoint(config_.resume_run);
    engine.restore(snapshot);
    // Replay the restored design points through the evaluator: rebuilds the
    // rich candidate records and the memoized plan cache without touching
    // the engine. The replayed objectives must reproduce the snapshot
    // bit-for-bit — a divergence means the evaluator/space configuration
    // differs from the checkpointed run, which exact resume cannot honor.
    if (!snapshot.history.empty()) {
      std::vector<std::vector<double>> xs;
      xs.reserve(snapshot.history.size());
      for (const opt::Observation& o : snapshot.history) xs.push_back(o.x);
      const std::vector<std::vector<double>> ys = batch_objectives(xs);
      for (std::size_t i = 0; i < ys.size(); ++i) {
        if (ys[i] != snapshot.history[i].objectives) {
          throw std::runtime_error(
              "NasDriver: replayed objectives diverge from the checkpoint — the "
              "snapshot was taken under a different search configuration (use the "
              "genotype-CSV warm_start path to transfer observations instead)");
        }
      }
    }
  } else if (!config_.warm_start.empty()) {
    std::vector<std::vector<double>> seed_xs;
    seed_xs.reserve(config_.warm_start.size());
    for (const Genotype& genotype : config_.warm_start) {
      if (!space_.is_valid(genotype)) {
        throw std::invalid_argument("NasDriver: invalid warm-start genotype");
      }
      seed_xs.push_back(space_.to_normalized(genotype));
    }
    const std::vector<std::vector<double>> seed_ys = batch_objectives(seed_xs);
    std::vector<opt::Observation> seeds;
    seeds.reserve(seed_xs.size());
    for (std::size_t i = 0; i < seed_xs.size(); ++i) {
      seeds.push_back({seed_xs[i], seed_ys[i]});
    }
    engine.seed_observations(seeds);
  }

  const std::size_t total = config_.mobo.num_initial + config_.mobo.num_iterations;
  if (config_.checkpoint.directory.empty()) {
    if (engine.evaluations_done() < total) engine.step(total - engine.evaluations_done());
    return;
  }
  if (config_.checkpoint.period == 0 || config_.checkpoint.keep == 0) {
    throw std::invalid_argument("NasDriver: checkpoint period and keep must be >= 1");
  }
  // Checkpointed stepping: chunked step() calls are bit-identical to one
  // step(total) call (warm-up draws are serial either way), so snapshot
  // granularity never changes the trajectory. The first chunk stretches to
  // the end of warm-up so the warm-up batch still fans out in one piece.
  while (engine.evaluations_done() < total) {
    std::size_t chunk = config_.checkpoint.period;
    if (engine.evaluations_done() < config_.mobo.num_initial) {
      chunk = std::max(chunk, config_.mobo.num_initial - engine.evaluations_done());
    }
    chunk = std::min(chunk, total - engine.evaluations_done());
    engine.step(chunk);
    save_run_checkpoint(config_.checkpoint.directory, engine.snapshot(),
                        config_.checkpoint.keep);
    if (interrupt_requested() && engine.evaluations_done() < total) {
      // Graceful flush: the snapshot for the completed chunk is already
      // durable; stop here and surface the early exit to the caller.
      result.interrupted = true;
      return;
    }
  }
}

NasResult NasDriver::run() {
  NasResult result;
  const std::size_t hits_before = cache_hits_;

  auto sampler = [this](std::mt19937_64& rng) {
    return space_.to_normalized(space_.random(rng));
  };
  auto batch_objectives = [this, &result](const std::vector<std::vector<double>>& xs) {
    return evaluate_batch(xs, result);
  };
  auto objectives = [&batch_objectives](const std::vector<double>& x) {
    return batch_objectives({x}).front();
  };

  if (config_.strategy != SearchStrategy::kMobo &&
      (!config_.checkpoint.directory.empty() || !config_.resume_run.empty())) {
    throw std::invalid_argument(
        "NasDriver: run checkpoints / exact-state resume are only supported for the "
        "MOBO strategy");
  }

  switch (config_.strategy) {
    case SearchStrategy::kMobo: {
      run_mobo(result);
      break;
    }
    case SearchStrategy::kNsga2: {
      auto validator = [this](const std::vector<double>& x) {
        return space_.is_valid(space_.from_normalized(x));
      };
      opt::Nsga2Engine engine(config_.nsga2, kNumObjectives, sampler, objectives,
                              validator);
      engine.set_batch_objectives(batch_objectives);
      engine.run();
      break;
    }
    case SearchStrategy::kRandom: {
      // Same total budget as the MOBO configuration, pure random sampling.
      // Sampling only touches the RNG, so the whole budget is drawn up
      // front and evaluated as one (parallel) batch.
      std::mt19937_64 rng(config_.mobo.seed);
      const std::size_t budget = config_.mobo.num_initial + config_.mobo.num_iterations;
      std::vector<std::vector<double>> xs;
      xs.reserve(budget);
      for (std::size_t i = 0; i < budget; ++i) xs.push_back(sampler(rng));
      batch_objectives(xs);
      break;
    }
  }

  // Rebuild the front with ids pointing into our richer history records.
  for (std::size_t i = 0; i < result.history.size(); ++i) {
    result.front.insert(i, result.history[i].objectives());
  }
  result.cache_hits = cache_hits_ - hits_before;
  result.unique_evaluations = result.history.size() - result.cache_hits;
  return result;
}

}  // namespace lens::core

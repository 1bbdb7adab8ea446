#pragma once
// Multi-objective Bayesian-optimization engine (paper Algorithm 2).
//
// The engine is domain-agnostic: it optimizes K black-box objectives over
// points produced by a caller-supplied random sampler (here: normalized
// architecture genotypes). LENS and the Traditional baseline differ only in
// the objective callback they wire in.

#include <cstdint>
#include <cstring>
#include <functional>
#include <random>
#include <unordered_set>
#include <utility>
#include <vector>

#include "opt/acquisition.hpp"
#include "opt/gp.hpp"
#include "opt/pareto.hpp"
#include "opt/scalarization.hpp"

namespace lens::opt {

/// One evaluated design point.
struct Observation {
  std::vector<double> x;           ///< encoded design point
  std::vector<double> objectives;  ///< K objective values (minimization)
};

/// Full engine state between evaluations — everything needed to continue a
/// search in a fresh process bit-identically to the uninterrupted run:
/// observations, the serialized std::mt19937_64 stream, the warm-up /
/// refit counters, and the tuned GP hyper-parameters (the posteriors
/// themselves are rebuilt by a frozen-hyper refit, which is bit-identical
/// to the incremental chain). The config echo lets restore() reject a
/// snapshot taken under a different search configuration.
///
/// The serialized `config` line ends in a posterior-mode field that is
/// always 1, the incremental posterior (the engine's only mode); it keeps
/// snapshot bytes stable, and deserialize() rejects any other value.
struct MoboSnapshot {
  std::size_t num_objectives = 0;
  // -- config echo (validated on restore) --
  std::size_t num_initial = 0;
  std::size_t num_iterations = 0;  ///< informational; the budget may be extended
  std::size_t pool_size = 0;
  unsigned seed = 0;
  std::size_t refit_period = 0;
  // -- mutable engine state --
  std::size_t evaluations_done = 0;
  std::size_t iterations_since_refit = 0;
  bool models_ready = false;
  std::string rng_state;  ///< operator<< serialization of std::mt19937_64
  std::vector<GpHyperparameters> gps;  ///< one per objective when models_ready
  std::vector<Observation> history;

  /// Text payload with every double hex-encoded (bit-exact round trip).
  std::string serialize() const;
  /// Parses a serialize() payload; throws std::invalid_argument on any
  /// structural defect (bad keyword, count mismatch, trailing garbage, a
  /// posterior-mode field other than 1).
  static MoboSnapshot deserialize(const std::string& payload);
};

struct MoboConfig {
  std::size_t num_initial = 20;    ///< C_init: random warm-up evaluations
  std::size_t num_iterations = 300;///< N_iter: BO iterations after warm-up
  std::size_t pool_size = 256;     ///< candidates scored per acquisition step
  unsigned seed = 1;
  GpConfig gp;
  AcquisitionConfig acquisition;
  /// Refit GP hyper-parameters every `refit_period` iterations (the tuned
  /// refit is the O(n^3) part; intermediate iterations extend the cached
  /// posterior with GaussianProcess::observe() in O(n^2)).
  std::size_t refit_period = 10;
};

/// MOBO engine: Algorithm 2 of the paper.
class MoboEngine {
 public:
  /// Draw one random encoded design point.
  using Sampler = std::function<std::vector<double>(std::mt19937_64&)>;
  /// Evaluate the K objectives at an encoded design point.
  using Objectives = std::function<std::vector<double>(const std::vector<double>&)>;
  /// Evaluate a batch of design points at once, returning one objective
  /// vector per input in input order. Lets the caller fan the warm-up
  /// evaluations out over a thread pool (see core::NasDriver).
  using BatchObjectives = std::function<std::vector<std::vector<double>>(
      const std::vector<std::vector<double>>&)>;

  MoboEngine(MoboConfig config, std::size_t num_objectives, Sampler sampler,
             Objectives objectives);

  /// Run warm-up plus all BO iterations. May be called once per engine.
  void run();

  /// Run only `n` additional evaluations (warm-up first if pending); useful
  /// for tests and incremental experiments.
  void step(std::size_t n);

  /// Warm-start with previously evaluated points (e.g. a search at another
  /// throughput setting). Seeded observations count toward the warm-up
  /// budget but cost no objective evaluations. Must be called before any
  /// step()/run(). Throws std::logic_error otherwise, std::invalid_argument
  /// on arity mismatches.
  void seed_observations(const std::vector<Observation>& observations);

  /// Capture the engine state between evaluations. Safe to call whenever no
  /// step()/run() is in flight; the result plus the original config and
  /// callbacks reproduces the remaining trajectory bit-identically.
  MoboSnapshot snapshot() const;

  /// Restore a snapshot into a freshly constructed engine: observations,
  /// RNG stream, counters, duplicate index, Pareto front and normalizer are
  /// reinstated and the GP posteriors are rebuilt with the saved (frozen)
  /// hyper-parameters. Must be called before any step()/run()
  /// (std::logic_error otherwise); throws std::invalid_argument when the
  /// snapshot disagrees with this engine's configuration (objective count,
  /// warm-up budget, pool size, seed, refit period).
  void restore(const MoboSnapshot& snapshot);

  const std::vector<Observation>& history() const { return history_; }
  const ParetoFront& front() const { return front_; }
  std::size_t num_objectives() const { return num_objectives_; }
  /// Evaluations consumed so far (seeded + warm-up + BO iterations).
  std::size_t evaluations_done() const { return evaluations_done_; }

  /// Install a batch evaluator used for the random warm-up phase (BO
  /// iterations are inherently sequential). Warm-up design points are still
  /// drawn serially from the engine RNG, so history is bit-identical to the
  /// point-at-a-time path as long as the batch callback returns the same
  /// values the scalar callback would.
  void set_batch_objectives(BatchObjectives batch) { batch_objectives_ = std::move(batch); }

 private:
  void evaluate_and_record(const std::vector<double>& x);
  /// Evaluate a batch (via batch_objectives_ when installed, else one by
  /// one) and record results in input order.
  void evaluate_batch(const std::vector<std::vector<double>>& xs);
  /// Record an evaluated observation: append() after an arity check.
  void record_observation(const std::vector<double>& x, std::vector<double> y);
  /// The single place history_ grows: normalizer, Pareto front, duplicate
  /// index and history, for evaluated, seeded and restored observations.
  void append(Observation observation);
  /// The history as GP training data: the encoded points and one target
  /// vector per objective.
  std::pair<std::vector<std::vector<double>>, std::vector<std::vector<double>>>
  training_data() const;
  /// Tuned refit: one hyper-parameter grid search for every objective.
  void refit_models();
  /// O(n^2) posterior append: feed one freshly recorded observation to every
  /// objective GP via GaussianProcess::observe().
  void extend_models(const Observation& observation);
  std::vector<double> propose_next();

  /// FNV-1a over the raw bits of each coordinate (±0.0 collapsed so keys
  /// that compare equal under operator== hash equally). Used by the
  /// duplicate-candidate index; lookups keep the exact accept/reject
  /// semantics of the old O(history) linear scan at O(1).
  struct EncodedPointHash {
    std::size_t operator()(const std::vector<double>& v) const noexcept {
      std::uint64_t h = 1469598103934665603ull;
      for (double d : v) {
        const double canonical = d == 0.0 ? 0.0 : d;
        std::uint64_t bits = 0;
        std::memcpy(&bits, &canonical, sizeof(bits));
        h ^= bits;
        h *= 1099511628211ull;
      }
      return static_cast<std::size_t>(h);
    }
  };

  MoboConfig config_;
  std::size_t num_objectives_;
  Sampler sampler_;
  Objectives objectives_;
  BatchObjectives batch_objectives_;

  std::mt19937_64 rng_;
  std::vector<Observation> history_;
  std::unordered_set<std::vector<double>, EncodedPointHash> seen_;  // encoded x of history_
  ParetoFront front_;
  ObjectiveNormalizer normalizer_;
  std::vector<GaussianProcess> gps_;
  /// Scratch of every refit and acquisition, kept for the engine's life.
  GpWorkspace workspace_;
  std::size_t evaluations_done_ = 0;
  std::size_t iterations_since_refit_ = 0;
  bool models_ready_ = false;
};

}  // namespace lens::opt

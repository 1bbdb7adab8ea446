#pragma once
// Algorithm 2: the MOBO-based NAS drivers.
//
// LENS and the Traditional baseline share everything except how the
// performance objectives are computed:
//  - LENS (kBestDeployment): Algorithm 1 — each candidate is scored under
//    its best partitioning / All-Edge / All-Cloud option.
//  - Traditional (kAllEdgeOnly): platform-aware NAS for the edge device —
//    the candidate is scored as if it always runs entirely on the edge.
//    (Its Pareto set can be partitioned *post hoc*; see analysis.hpp.)

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/accuracy.hpp"
#include "core/evaluator.hpp"
#include "core/plan.hpp"
#include "core/run_checkpoint.hpp"
#include "core/search_space.hpp"
#include "opt/mobo.hpp"
#include "opt/nsga2.hpp"

namespace lens::core {

/// Objective vector layout used throughout the NAS drivers.
enum Objective : std::size_t {
  kErrorObjective = 0,    ///< test error, %
  kLatencyObjective = 1,  ///< end-to-end latency, ms
  kEnergyObjective = 2,   ///< edge energy, mJ
};
inline constexpr std::size_t kNumObjectives = 3;

/// How the performance objectives of a candidate are derived from its
/// Algorithm-1 evaluation.
enum class ObjectiveMode {
  kBestDeployment,  ///< LENS: min over all deployment options
  kAllEdgeOnly,     ///< Traditional: All-Edge costs only
};

/// Which search engine drives Algorithm 2's outer loop. The paper uses
/// MOBO (Dragonfly); NSGA-II and pure random search are ablation baselines
/// under matched evaluation budgets.
enum class SearchStrategy { kMobo, kNsga2, kRandom };

struct NasConfig {
  opt::MoboConfig mobo;
  /// Used when strategy == kNsga2; population*(generations+1) evaluations.
  opt::Nsga2Config nsga2;
  SearchStrategy strategy = SearchStrategy::kMobo;
  double tu_mbps = 3.0;  ///< expected upload throughput (paper: 3 Mbps)
  /// K-tier searches: expected throughput per hop (radio first). When
  /// non-empty it must match the evaluator topology's hop count and replaces
  /// tu_mbps for pricing; leave empty for two-tier searches, which price at
  /// tu_mbps. The memoized plans are throughput-independent either way, so
  /// the cache key stays the genotype.
  std::vector<double> hop_tu_mbps;
  ObjectiveMode mode = ObjectiveMode::kBestDeployment;
  /// Cross-config warm start (kMobo only): these genotypes are re-evaluated
  /// first (deterministic, cheap) and seeded into the GP models; they count
  /// toward the warm-up budget. Load them with core::load_genotypes_csv.
  /// Use this to transfer observations into a *different* search config
  /// (another throughput/region); for exact crash recovery use resume_run.
  std::vector<Genotype> warm_start;
  /// Periodic durable snapshots (kMobo only). With a non-empty directory the
  /// driver saves a rotated engine snapshot every `checkpoint.period`
  /// evaluations and after the final one, and polls the graceful-flush
  /// interrupt flag between chunks.
  CheckpointConfig checkpoint;
  /// Exact-state resume (kMobo only): restore the newest valid snapshot in
  /// this directory and continue; the completed trajectory is bit-identical
  /// to the uninterrupted run under the same config. Mutually exclusive
  /// with warm_start.
  std::string resume_run;
};

/// One evaluated candidate with full deployment detail.
struct EvaluatedCandidate {
  Genotype genotype;
  std::string name;
  /// Objective values as seen by the search (per the driver's mode).
  double error_percent = 0.0;
  double latency_ms = 0.0;
  double energy_mj = 0.0;
  /// Full Algorithm-1 result (all options), regardless of mode.
  DeploymentEvaluation deployment;

  std::vector<double> objectives() const {
    return {error_percent, latency_ms, energy_mj};
  }
};

/// FNV-1a over the genotype entries; keys the driver's memoizing
/// evaluation cache. Cached entries are compiled DeploymentPlans —
/// throughput-independent — so the key is the genotype alone and a cached
/// candidate can be re-priced at any t_u without predictor work.
struct GenotypeHash {
  std::size_t operator()(const Genotype& genotype) const noexcept;
};

/// Search outcome: every explored candidate plus the 3-objective Pareto
/// front (ParetoPoint::id indexes `history`).
struct NasResult {
  std::vector<EvaluatedCandidate> history;
  opt::ParetoFront front;
  /// History entries served from the memoizing evaluation cache (duplicate
  /// genotypes the search re-visited) vs evaluated fresh.
  std::size_t cache_hits = 0;
  std::size_t unique_evaluations = 0;
  /// True when the search stopped early on SIGINT/SIGTERM after flushing a
  /// final checkpoint (see CheckpointConfig); the partial result is valid
  /// and resumable via NasConfig::resume_run.
  bool interrupted = false;
};

/// Runs Algorithm 2 over a search space with the configured objective mode.
///
/// Batch evaluations (MOBO warm-up, NSGA-II generations, random search) fan
/// Algorithm-1 out over the lens::par pool; the accuracy model is always
/// queried serially in history order, so it need not be thread-safe. With a
/// fixed config the result is bit-identical for any thread count.
class NasDriver {
 public:
  NasDriver(const SearchSpace& space, const DeploymentEvaluator& evaluator,
            const AccuracyModel& accuracy, NasConfig config);

  /// Execute the full search (C_init random + N_iter MOBO evaluations).
  NasResult run();

 private:
  /// Compiled genotype, memoized across the search. The plan carries no
  /// throughput, so the cache never needs invalidating on t_u changes.
  struct CacheEntry {
    std::string name;
    DeploymentPlan plan;
    double error_percent = 0.0;
  };

  /// Evaluate a batch of normalized design points (uncached genotypes in
  /// parallel), append one history record per input in input order, and
  /// return the objective vectors.
  std::vector<std::vector<double>> evaluate_batch(const std::vector<std::vector<double>>& xs,
                                                  NasResult& result);

  /// kMobo branch of run(): warm-start seeding or exact-state resume, then
  /// either one uninterrupted run() or the checkpointed stepping loop.
  void run_mobo(NasResult& result);

  const SearchSpace& space_;
  const DeploymentEvaluator& evaluator_;
  const AccuracyModel& accuracy_;
  NasConfig config_;
  std::unordered_map<Genotype, CacheEntry, GenotypeHash> cache_;
  std::size_t cache_hits_ = 0;
};

}  // namespace lens::core

#include "opt/mobo.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "io/io.hpp"

namespace lens::opt {

namespace {
constexpr const char* kSnapshotMagic = "mobo-snapshot v1";
}

std::string MoboSnapshot::serialize() const {
  std::ostringstream out;
  out << kSnapshotMagic << '\n';
  out << "objectives " << num_objectives << '\n';
  out << "config " << num_initial << ' ' << num_iterations << ' ' << pool_size << ' '
      << seed << ' ' << refit_period << " 1\n";
  out << "state " << evaluations_done << ' ' << iterations_since_refit << ' '
      << (models_ready ? 1 : 0) << '\n';
  out << "rng " << rng_state << '\n';
  out << "gps " << gps.size() << '\n';
  for (const GpHyperparameters& hp : gps) {
    out << "g " << io::encode_double(hp.signal_variance) << ' '
        << io::encode_double(hp.length_scale) << ' '
        << io::encode_double(hp.noise_variance) << '\n';
  }
  const std::size_t dim = history.empty() ? 0 : history.front().x.size();
  out << "dim " << dim << '\n';
  out << "history " << history.size() << '\n';
  for (const Observation& o : history) {
    out << 'o';
    for (double v : o.x) out << ' ' << io::encode_double(v);
    for (double v : o.objectives) out << ' ' << io::encode_double(v);
    out << '\n';
  }
  return std::move(out).str();
}

MoboSnapshot MoboSnapshot::deserialize(const std::string& payload) {
  std::istringstream in(payload);
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("MoboSnapshot: " + what);
  };
  std::string line;
  if (!std::getline(in, line) || line != kSnapshotMagic) fail("bad magic line");

  MoboSnapshot snapshot;
  std::string keyword;
  if (!(in >> keyword >> snapshot.num_objectives) || keyword != "objectives") {
    fail("missing objectives line");
  }
  int posterior_mode = 0;
  if (!(in >> keyword >> snapshot.num_initial >> snapshot.num_iterations >>
        snapshot.pool_size >> snapshot.seed >> snapshot.refit_period >> posterior_mode) ||
      keyword != "config") {
    fail("missing config line");
  }
  if (posterior_mode != 1) fail("unsupported posterior mode in config line (expected 1)");
  int models_ready = 0;
  if (!(in >> keyword >> snapshot.evaluations_done >> snapshot.iterations_since_refit >>
        models_ready) ||
      keyword != "state") {
    fail("missing state line");
  }
  snapshot.models_ready = models_ready != 0;
  if (!(in >> keyword) || keyword != "rng" || !std::getline(in, line) || line.size() < 2) {
    fail("missing rng line");
  }
  snapshot.rng_state = line.substr(1);  // drop the separating space
  std::size_t gp_count = 0;
  if (!(in >> keyword >> gp_count) || keyword != "gps") fail("missing gps line");
  std::string hex_signal, hex_length, hex_noise;
  for (std::size_t k = 0; k < gp_count; ++k) {
    if (!(in >> keyword >> hex_signal >> hex_length >> hex_noise) || keyword != "g") {
      fail("truncated gp hyper-parameters");
    }
    snapshot.gps.push_back({io::decode_double(hex_signal), io::decode_double(hex_length),
                            io::decode_double(hex_noise)});
  }
  std::size_t dim = 0;
  if (!(in >> keyword >> dim) || keyword != "dim") fail("missing dim line");
  std::size_t count = 0;
  if (!(in >> keyword >> count) || keyword != "history") fail("missing history line");
  std::string hex;
  for (std::size_t i = 0; i < count; ++i) {
    if (!(in >> keyword) || keyword != "o") fail("truncated history");
    Observation o;
    o.x.reserve(dim);
    o.objectives.reserve(snapshot.num_objectives);
    for (std::size_t d = 0; d < dim; ++d) {
      if (!(in >> hex)) fail("truncated history record");
      o.x.push_back(io::decode_double(hex));
    }
    for (std::size_t k = 0; k < snapshot.num_objectives; ++k) {
      if (!(in >> hex)) fail("truncated history record");
      o.objectives.push_back(io::decode_double(hex));
    }
    snapshot.history.push_back(std::move(o));
  }
  if (in >> keyword) fail("trailing garbage after history");
  if (snapshot.evaluations_done > snapshot.history.size()) {
    fail("evaluation counter exceeds history size");
  }
  if (snapshot.models_ready &&
      (snapshot.history.empty() || snapshot.gps.size() != snapshot.num_objectives)) {
    fail("models marked ready without matching data");
  }
  return snapshot;
}

MoboEngine::MoboEngine(MoboConfig config, std::size_t num_objectives, Sampler sampler,
                       Objectives objectives)
    : config_(config),
      num_objectives_(num_objectives),
      sampler_(std::move(sampler)),
      objectives_(std::move(objectives)),
      rng_(config.seed),
      normalizer_(num_objectives) {
  if (num_objectives_ == 0) throw std::invalid_argument("MoboEngine: need >=1 objective");
  if (!sampler_ || !objectives_) throw std::invalid_argument("MoboEngine: null callbacks");
  if (config_.num_initial == 0) throw std::invalid_argument("MoboEngine: num_initial must be > 0");
  gps_.reserve(num_objectives_);
  for (std::size_t k = 0; k < num_objectives_; ++k) gps_.emplace_back(config_.gp);
  workspace_.reserve(config_.num_initial + config_.num_iterations, config_.pool_size,
                     num_objectives_);
}

void MoboEngine::record_observation(const std::vector<double>& x, std::vector<double> y) {
  if (y.size() != num_objectives_) {
    throw std::runtime_error("MoboEngine: objective callback returned wrong arity");
  }
  append({x, std::move(y)});
}

void MoboEngine::append(Observation observation) {
  normalizer_.observe(observation.objectives);
  front_.insert(history_.size(), observation.objectives);
  seen_.insert(observation.x);
  history_.push_back(std::move(observation));
}

void MoboEngine::evaluate_and_record(const std::vector<double>& x) {
  record_observation(x, objectives_(x));
}

void MoboEngine::evaluate_batch(const std::vector<std::vector<double>>& xs) {
  if (!batch_objectives_) {
    for (const std::vector<double>& x : xs) evaluate_and_record(x);
    return;
  }
  std::vector<std::vector<double>> ys = batch_objectives_(xs);
  if (ys.size() != xs.size()) {
    throw std::runtime_error("MoboEngine: batch objective callback returned wrong count");
  }
  for (std::size_t i = 0; i < xs.size(); ++i) {
    record_observation(xs[i], std::move(ys[i]));
  }
}

std::pair<std::vector<std::vector<double>>, std::vector<std::vector<double>>>
MoboEngine::training_data() const {
  std::vector<std::vector<double>> xs;
  xs.reserve(history_.size());
  for (const Observation& o : history_) xs.push_back(o.x);
  std::vector<std::vector<double>> ys(num_objectives_);
  for (std::size_t k = 0; k < num_objectives_; ++k) {
    ys[k].reserve(history_.size());
    for (const Observation& o : history_) ys[k].push_back(o.objectives[k]);
  }
  return {std::move(xs), std::move(ys)};
}

void MoboEngine::refit_models() {
  // The objectives share X, so each grid point's factorization serves all
  // of them. The tuned fit never reads the old models, so they go first and
  // their memory serves the new ones; a failed fit leaves the engine to
  // refit at the next step, as a fresh or restored one would.
  auto [xs, ys] = training_data();
  models_ready_ = false;
  gps_.clear();
  gps_ = fit_objectives(config_.gp, std::move(xs), std::move(ys), &workspace_);
  models_ready_ = true;
}

void MoboEngine::extend_models(const Observation& observation) {
  for (std::size_t k = 0; k < num_objectives_; ++k) {
    gps_[k].observe(observation.x, observation.objectives[k]);
  }
}

std::vector<double> MoboEngine::propose_next() {
  // Draw the acquisition pool, skipping exact re-evaluations where possible
  // (hashed membership over the encoded history: O(1) per draw).
  std::vector<std::vector<double>> pool;
  pool.reserve(config_.pool_size);
  for (std::size_t attempts = 0; pool.size() < config_.pool_size &&
                                 attempts < config_.pool_size * 4;
       ++attempts) {
    std::vector<double> x = sampler_(rng_);
    if (seen_.count(x) == 0) pool.push_back(std::move(x));
  }
  if (pool.empty()) pool.push_back(sampler_(rng_));  // space exhausted: allow repeats
  const std::size_t chosen =
      select_candidate(gps_, pool, normalizer_, config_.acquisition, rng_, &workspace_);
  return pool[chosen];
}

void MoboEngine::seed_observations(const std::vector<Observation>& observations) {
  if (evaluations_done_ > 0) {
    throw std::logic_error("MoboEngine::seed_observations: search already started");
  }
  for (const Observation& o : observations) {
    if (o.objectives.size() != num_objectives_) {
      throw std::invalid_argument("MoboEngine::seed_observations: wrong objective arity");
    }
    append(o);
    if (evaluations_done_ < config_.num_initial) ++evaluations_done_;
  }
}

MoboSnapshot MoboEngine::snapshot() const {
  MoboSnapshot snapshot;
  snapshot.num_objectives = num_objectives_;
  snapshot.num_initial = config_.num_initial;
  snapshot.num_iterations = config_.num_iterations;
  snapshot.pool_size = config_.pool_size;
  snapshot.seed = config_.seed;
  snapshot.refit_period = config_.refit_period;
  snapshot.evaluations_done = evaluations_done_;
  snapshot.iterations_since_refit = iterations_since_refit_;
  snapshot.models_ready = models_ready_;
  std::ostringstream rng_stream;
  rng_stream << rng_;
  snapshot.rng_state = std::move(rng_stream).str();
  if (models_ready_) {
    snapshot.gps.reserve(num_objectives_);
    for (const GaussianProcess& gp : gps_) snapshot.gps.push_back(gp.hyperparameters());
  }
  snapshot.history = history_;
  return snapshot;
}

void MoboEngine::restore(const MoboSnapshot& snapshot) {
  if (evaluations_done_ > 0 || !history_.empty()) {
    throw std::logic_error("MoboEngine::restore: search already started");
  }
  if (snapshot.num_objectives != num_objectives_) {
    throw std::invalid_argument("MoboEngine::restore: objective count mismatch");
  }
  if (snapshot.num_initial != config_.num_initial ||
      snapshot.pool_size != config_.pool_size || snapshot.seed != config_.seed ||
      snapshot.refit_period != config_.refit_period) {
    throw std::invalid_argument(
        "MoboEngine::restore: snapshot was taken under a different search "
        "configuration (warm-up/pool/seed/refit must match)");
  }
  if (snapshot.evaluations_done > snapshot.history.size()) {
    throw std::invalid_argument("MoboEngine::restore: counter exceeds history");
  }
  if (snapshot.models_ready &&
      (snapshot.history.empty() || snapshot.gps.size() != num_objectives_)) {
    throw std::invalid_argument("MoboEngine::restore: inconsistent model state");
  }
  const std::size_t dim = snapshot.history.empty() ? 0 : snapshot.history.front().x.size();
  for (const Observation& o : snapshot.history) {
    if (o.objectives.size() != num_objectives_ || o.x.size() != dim || o.x.empty()) {
      throw std::invalid_argument("MoboEngine::restore: malformed observation");
    }
  }

  // RNG stream state: the textual round trip is exact per the standard.
  {
    std::istringstream rng_stream(snapshot.rng_state);
    rng_stream >> rng_;
    if (!rng_stream) {
      throw std::invalid_argument("MoboEngine::restore: malformed RNG state");
    }
  }

  // Replay the observations through append(), rebuilding the normalizer,
  // Pareto front and duplicate index with the identical floats the
  // uninterrupted run held.
  for (const Observation& o : snapshot.history) append(o);
  evaluations_done_ = snapshot.evaluations_done;
  iterations_since_refit_ = snapshot.iterations_since_refit;
  models_ready_ = snapshot.models_ready;

  if (snapshot.models_ready) {
    // Frozen-hyper refit over the restored history: bit-identical to the
    // incremental posterior chain the snapshot interrupted.
    auto [xs, ys] = training_data();
    for (std::size_t k = 0; k < num_objectives_; ++k) {
      gps_[k] = GaussianProcess::from_snapshot(config_.gp, snapshot.gps[k], xs,
                                               std::move(ys[k]));
    }
  }
}

void MoboEngine::step(std::size_t n) {
  while (n > 0) {
    if (evaluations_done_ < config_.num_initial) {
      // Warm-up: the sampler only touches the engine RNG and the objectives
      // never do, so drawing the whole batch up front consumes the generator
      // in exactly the serial order — then the batch callback may evaluate
      // the points in parallel.
      const std::size_t batch = std::min(n, config_.num_initial - evaluations_done_);
      std::vector<std::vector<double>> xs;
      xs.reserve(batch);
      for (std::size_t i = 0; i < batch; ++i) xs.push_back(sampler_(rng_));
      evaluate_batch(xs);
      evaluations_done_ += batch;
      n -= batch;
    } else {
      // Posterior maintenance ahead of the proposal: a full tuned refit
      // every refit_period iterations (O(n^3), hyper-parameter grid); in
      // between, the models already carry the latest observation via the
      // O(n^2) incremental extension below, bit-identical to a frozen-hyper
      // refit such as restore() runs (see DESIGN.md "Posterior maintenance").
      const bool tune = !models_ready_ || iterations_since_refit_ >= config_.refit_period;
      if (tune) refit_models();
      iterations_since_refit_ = tune ? 0 : iterations_since_refit_ + 1;
      evaluate_and_record(propose_next());
      extend_models(history_.back());
      ++evaluations_done_;
      --n;
    }
  }
}

void MoboEngine::run() { step(config_.num_initial + config_.num_iterations - evaluations_done_); }

}  // namespace lens::opt

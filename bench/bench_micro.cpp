// Microbenchmarks (google-benchmark) backing the paper's §IV-D cost claims:
// Algorithm 1 is O(l) in the layer count and vanishes next to the cost of a
// Bayesian-optimization model update — O(n^3) for a full (re)fit, O(n^2)
// for the incremental bordered extension the MOBO loop now uses between
// hyper-parameter retunes. Results are also written to BENCH_micro.json
// (per-size timings plus fit/extend speedup ratios) for cross-PR tracking.

#include <algorithm>
#include <filesystem>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "core/evaluator.hpp"
#include "core/plan.hpp"
#include "core/run_checkpoint.hpp"
#include "core/search_space.hpp"
#include "core/topology.hpp"
#include "dnn/presets.hpp"
#include "fleet/fleet.hpp"
#include "opt/gp.hpp"
#include "opt/kernel.hpp"
#include "opt/matrix.hpp"
#include "par/thread_pool.hpp"
#include "perf/predictor.hpp"
#include "sim/system.hpp"

namespace {

using namespace lens;

const perf::DeviceSimulator& simulator() {
  static const perf::DeviceSimulator sim(perf::jetson_tx2_gpu());
  return sim;
}

const perf::RooflinePredictor& predictor() {
  static const perf::RooflinePredictor pred =
      perf::RooflinePredictor::train(simulator(), {.samples_per_kind = 300, .seed = 3});
  return pred;
}

/// Builds a deep synthetic architecture with `blocks` conv blocks.
dnn::Architecture deep_architecture(int blocks) {
  std::vector<dnn::LayerSpec> layers;
  int pools = 0;
  for (int b = 0; b < blocks; ++b) {
    layers.push_back(dnn::LayerSpec::conv(64, 3));
    layers.push_back(dnn::LayerSpec::conv(64, 3));
    if (pools < 5) {  // keep spatial dims alive for very deep stacks
      layers.push_back(dnn::LayerSpec::max_pool(2, 2));
      ++pools;
    }
  }
  layers.push_back(dnn::LayerSpec::dense(512));
  layers.push_back(dnn::LayerSpec::dense(10, dnn::Activation::kSoftmax));
  return dnn::Architecture("deep", {224, 224, 3}, std::move(layers));
}

// ---- Algorithm 1: per-candidate evaluation, O(l) ---------------------------

void BM_Algorithm1_Evaluate(benchmark::State& state) {
  const dnn::Architecture arch = deep_architecture(static_cast<int>(state.range(0)));
  const comm::CommModel wifi(comm::WirelessTechnology::kWifi, 5.0);
  const core::DeploymentEvaluator evaluator(predictor(), wifi);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.evaluate(arch, 3.0));
  }
  state.counters["layers"] = static_cast<double>(arch.num_layers());
}
BENCHMARK(BM_Algorithm1_Evaluate)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

// ---- Compiled plans: compile once, price per throughput ---------------------
// BM_EvaluateFull is the legacy one-shot path (predictors + pricing every
// call); BM_PlanCompile is the predictor-heavy stage paid once per
// architecture; BM_PlanPrice is the O(options) re-pricing paid per
// throughput query. The BENCH_micro.json "PlanPriceVsEvaluate" rows track
// the full-evaluation-to-reprice speedup per architecture depth.

void BM_EvaluateFull(benchmark::State& state) {
  const dnn::Architecture arch = deep_architecture(static_cast<int>(state.range(0)));
  const comm::CommModel wifi(comm::WirelessTechnology::kWifi, 5.0);
  const core::DeploymentEvaluator evaluator(predictor(), wifi);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.evaluate(arch, 3.0));
  }
}
BENCHMARK(BM_EvaluateFull)->Arg(8)->Arg(32);

void BM_PlanCompile(benchmark::State& state) {
  const dnn::Architecture arch = deep_architecture(static_cast<int>(state.range(0)));
  const comm::CommModel wifi(comm::WirelessTechnology::kWifi, 5.0);
  const core::DeploymentEvaluator evaluator(predictor(), wifi);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.compile(arch));
  }
}
BENCHMARK(BM_PlanCompile)->Arg(8)->Arg(32);

void BM_PlanPrice(benchmark::State& state) {
  const dnn::Architecture arch = deep_architecture(static_cast<int>(state.range(0)));
  const comm::CommModel wifi(comm::WirelessTechnology::kWifi, 5.0);
  const core::DeploymentEvaluator evaluator(predictor(), wifi);
  const core::DeploymentPlan plan = evaluator.compile(arch);
  core::DeploymentEvaluation out;  // price_into reuses its storage
  double tu = 0.5;
  for (auto _ : state) {
    plan.price_into(tu, out);
    benchmark::DoNotOptimize(out);
    tu = tu < 64.0 ? tu * 2.0 : 0.5;  // sweep, so no branch gets special-cased
  }
  state.counters["options"] = static_cast<double>(plan.num_options());
}
BENCHMARK(BM_PlanPrice)->Arg(8)->Arg(32);

// ---- K-tier plans: 3-tier compile and per-hop pricing -----------------------
// The edge-fog-cloud lattice enumerates O(l^2) cut pairs (vs O(l) two-tier
// splits) and runs two predictor pipelines, so the 3-tier compile and the
// per-hop reprice get their own BENCH_micro.json rows to track the K-tier
// overhead against the classic path above.

const perf::RooflinePredictor& fog_predictor() {
  static const perf::DeviceSimulator fog_sim(perf::datacenter_gpu());
  static const perf::RooflinePredictor pred =
      perf::RooflinePredictor::train(fog_sim, {.samples_per_kind = 300, .seed = 5});
  return pred;
}

core::TierTopology bench_three_tier() {
  core::EdgeFogCloudConfig config;
  config.radio = comm::CommModel(comm::WirelessTechnology::kWifi, 5.0);
  config.backhaul = comm::CommModel(comm::WirelessTechnology::kWifi, 20.0);
  return core::edge_fog_cloud(predictor(), fog_predictor(), nullptr, config);
}

void BM_PlanCompile3T(benchmark::State& state) {
  const dnn::Architecture arch = deep_architecture(static_cast<int>(state.range(0)));
  const core::DeploymentEvaluator evaluator(bench_three_tier());
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.compile(arch));
  }
  state.counters["layers"] = static_cast<double>(arch.num_layers());
}
BENCHMARK(BM_PlanCompile3T)->Arg(8)->Arg(32);

void BM_PlanPrice3T(benchmark::State& state) {
  const dnn::Architecture arch = deep_architecture(static_cast<int>(state.range(0)));
  const core::DeploymentEvaluator evaluator(bench_three_tier());
  const core::DeploymentPlan plan = evaluator.compile(arch);
  core::DeploymentEvaluation out;  // price_into reuses its storage
  std::vector<double> tu{0.5, 40.0};
  for (auto _ : state) {
    plan.price_into(tu, out);
    benchmark::DoNotOptimize(out);
    tu[0] = tu[0] < 64.0 ? tu[0] * 2.0 : 0.5;  // sweep the radio axis
  }
  state.counters["options"] = static_cast<double>(plan.num_options());
}
BENCHMARK(BM_PlanPrice3T)->Arg(8)->Arg(32);

// ---- Bayesian optimization: GP posterior maintenance ------------------------
// BM_GpFit is the full refit (O(n^2 d) Gram + O(n^3) factorization) the MOBO
// loop used to pay every iteration; BM_GpObserve is the incremental bordered
// append (O(n d) Gram row + O(n^2) extend/solves) it pays now. The
// BENCH_micro.json "GpFitVsObserve" rows record the per-size ratio, which
// should grow ~linearly with n.

/// Random training set in the 23-dim normalized-genotype space.
void random_dataset(std::size_t n, std::mt19937_64& rng, std::vector<std::vector<double>>* x,
                    std::vector<double>* y) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> xi(23);
    for (double& v : xi) v = unit(rng);
    y->push_back(unit(rng));
    x->push_back(std::move(xi));
  }
}

void BM_GpFit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(7);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  random_dataset(n, rng, &x, &y);
  opt::GpConfig config;
  config.tune_hyperparameters = false;
  for (auto _ : state) {
    opt::GaussianProcess gp(config);
    gp.fit(x, y);
    benchmark::DoNotOptimize(gp);
  }
}
BENCHMARK(BM_GpFit)->Arg(25)->Arg(50)->Arg(100)->Arg(200)->Arg(320);

void BM_GpObserve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(7);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  random_dataset(n + 1, rng, &x, &y);
  const std::vector<double> x_new = x.back();
  const double y_new = y.back();
  x.pop_back();
  y.pop_back();
  opt::GpConfig config;
  config.tune_hyperparameters = false;
  for (auto _ : state) {
    // The O(n^3) base fit is rebuilt outside the timed region; only the
    // incremental append is measured. Fixed iteration count (below) keeps
    // the untimed rebuild from dominating wall-clock.
    state.PauseTiming();
    opt::GaussianProcess gp(config);
    gp.fit(x, y);
    state.ResumeTiming();
    gp.observe(x_new, y_new);
    benchmark::DoNotOptimize(gp);
  }
}
BENCHMARK(BM_GpObserve)->Arg(25)->Arg(50)->Arg(100)->Arg(200)->Arg(320)->Iterations(48);

// The matrix-layer primitive underneath observe(): one bordered Cholesky
// row append, measured against refactorizing the bordered matrix in full.
void BM_CholeskyExtend(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(13);
  std::normal_distribution<double> gauss(0.0, 1.0);
  opt::Matrix b(n + 1, n + 1);
  for (std::size_t r = 0; r < n + 1; ++r) {
    for (std::size_t c = 0; c < n + 1; ++c) b(r, c) = gauss(rng);
  }
  opt::Matrix a = b.multiply(b.transposed());
  a.add_diagonal(1.0);
  opt::Matrix leading(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) leading(r, c) = a(r, c);
  }
  const opt::CholeskyFactor base = opt::CholeskyFactor::factorize(leading);
  std::vector<double> cross(n);
  for (std::size_t c = 0; c < n; ++c) cross[c] = a(n, c);
  for (auto _ : state) {
    state.PauseTiming();
    opt::CholeskyFactor factor = base;
    state.ResumeTiming();
    factor.extend(cross, a(n, n));
    benchmark::DoNotOptimize(factor);
  }
}
BENCHMARK(BM_CholeskyExtend)->Arg(25)->Arg(50)->Arg(100)->Arg(200)->Arg(320)->Iterations(256);

// ---- SIMD hot kernels: blocked gram row and batch pricing -------------------
// BM_GramRow times Kernel::cross_into — the O(n d) cross-covariance row the
// incremental GP append and every posterior draw walk — whose blocked
// four-rows-per-pass sweep must stay bit-identical to the scalar oracle
// (tests/test_gp.cpp). BM_BatchPrice times DeploymentPlan::price_batch, the
// option-outer/throughput-inner pricing sweep behind robust evaluation and
// throughput portfolios. Both rows land in BENCH_micro.json so the kernel
// trajectory stays visible across PRs.

void BM_GramRow(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(21);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<std::vector<double>> xs;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> xi(23);
    for (double& v : xi) v = unit(rng);
    xs.push_back(std::move(xi));
  }
  std::vector<double> z(23);
  for (double& v : z) v = unit(rng);
  const opt::Kernel kernel(opt::KernelFamily::kMatern52, 1.0, 0.5);
  std::vector<double> out(n);
  for (auto _ : state) {
    kernel.cross_into(xs, z, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["rows"] = static_cast<double>(n);
}
BENCHMARK(BM_GramRow)->Arg(64)->Arg(160)->Arg(320);

void BM_BatchPrice(benchmark::State& state) {
  const auto sweep = static_cast<std::size_t>(state.range(0));
  const dnn::Architecture arch = deep_architecture(16);
  const comm::CommModel wifi(comm::WirelessTechnology::kWifi, 5.0);
  const core::DeploymentEvaluator evaluator(predictor(), wifi);
  const core::DeploymentPlan plan = evaluator.compile(arch);
  std::vector<double> tus(sweep);
  for (std::size_t i = 0; i < sweep; ++i) {
    tus[i] = 0.5 + 63.5 * static_cast<double>(i) / static_cast<double>(sweep);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.price_batch(tus));
  }
  state.counters["options"] = static_cast<double>(plan.num_options());
}
BENCHMARK(BM_BatchPrice)->Arg(16)->Arg(64)->Arg(256);

// ---- Thompson acquisition over a candidate pool -----------------------------

void BM_GpJointSample(benchmark::State& state) {
  const std::size_t n = 160;
  const auto pool = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(9);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> xi(23);
    for (double& v : xi) v = unit(rng);
    y.push_back(unit(rng));
    x.push_back(std::move(xi));
  }
  opt::GpConfig config;
  config.tune_hyperparameters = false;
  opt::GaussianProcess gp(config);
  gp.fit(x, y);
  std::vector<std::vector<double>> query;
  for (std::size_t i = 0; i < pool; ++i) {
    std::vector<double> xi(23);
    for (double& v : xi) v = unit(rng);
    query.push_back(std::move(xi));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(gp.sample_at(query, rng));
  }
}
BENCHMARK(BM_GpJointSample)->Arg(64)->Arg(128)->Arg(256);

// ---- Layer performance prediction -------------------------------------------

void BM_RooflinePredict(benchmark::State& state) {
  const dnn::LayerSpec conv = dnn::LayerSpec::conv(128, 3);
  const dnn::TensorShape input{56, 56, 64};
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor().predict(conv, input));
  }
}
BENCHMARK(BM_RooflinePredict);

void BM_SimulatorMeasure(benchmark::State& state) {
  const dnn::LayerSpec conv = dnn::LayerSpec::conv(128, 3);
  const dnn::TensorShape input{56, 56, 64};
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator().measure(conv, input));
  }
}
BENCHMARK(BM_SimulatorMeasure);

// ---- Search-space plumbing ---------------------------------------------------

void BM_SearchSpaceDecode(benchmark::State& state) {
  const core::SearchSpace space;
  std::mt19937_64 rng(5);
  const core::Genotype g = space.random(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(space.decode(g));
  }
}
BENCHMARK(BM_SearchSpaceDecode);

// ---- Run checkpoints: durable save + exact-state restore --------------------
// BM_CheckpointSave is the periodic cost the checkpointed search loop pays
// every `period` evaluations: snapshot serialization plus the atomic framed
// write (fsync included) and rotation pruning. BM_CheckpointRestore is the
// crash-recovery path: read + verify + parse the newest snapshot and rebuild
// a fresh engine from it (history replay + frozen-hyper GP refits). The
// BENCH_micro.json "CheckpointSaveVsEvaluate" rows track the save against a
// single Algorithm-1 candidate evaluation — periodic snapshots must stay a
// fraction of one evaluation.

/// Synthetic MOBO run shared by the checkpoint benchmarks: cheap 2-objective
/// problem over [0,1]^5, stepped to the requested history size.
struct CheckpointRig {
  opt::MoboConfig config;
  opt::MoboEngine::Sampler sampler = [](std::mt19937_64& rng) {
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::vector<double> x(5);
    for (double& v : x) v = unit(rng);
    return x;
  };
  opt::MoboEngine::Objectives objectives = [](const std::vector<double>& x) {
    double bowl = 0.0;
    for (double v : x) bowl += (v - 0.4) * (v - 0.4);
    return std::vector<double>{bowl, 1.0 - x[0]};
  };

  explicit CheckpointRig(std::size_t evaluations) {
    config.num_initial = 10;
    config.num_iterations = evaluations;  // headroom past the warm-up
    config.pool_size = 32;
    config.seed = 17;
  }

  opt::MoboEngine make() const { return {config, 2, sampler, objectives}; }
};

void BM_CheckpointSave(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const CheckpointRig rig(n);
  opt::MoboEngine engine = rig.make();
  engine.step(n);
  const opt::MoboSnapshot snapshot = engine.snapshot();
  const std::string dir =
      (std::filesystem::temp_directory_path() / "lens_bench_ckpt_save").string();
  std::filesystem::remove_all(dir);
  for (auto _ : state) {
    core::save_run_checkpoint(dir, snapshot, 2);
  }
  std::filesystem::remove_all(dir);
  state.counters["observations"] = static_cast<double>(snapshot.history.size());
}
BENCHMARK(BM_CheckpointSave)->Arg(50)->Arg(150)->Iterations(64);

void BM_CheckpointRestore(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const CheckpointRig rig(n);
  opt::MoboEngine engine = rig.make();
  engine.step(n);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "lens_bench_ckpt_restore").string();
  std::filesystem::remove_all(dir);
  core::save_run_checkpoint(dir, engine.snapshot(), 1);
  for (auto _ : state) {
    const opt::MoboSnapshot snapshot = core::load_newest_run_checkpoint(dir);
    opt::MoboEngine restored = rig.make();
    restored.restore(snapshot);
    benchmark::DoNotOptimize(restored);
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_CheckpointRestore)->Arg(50)->Arg(150)->Iterations(32);

// ---- Serving simulation: fault injection overhead ---------------------------
// Arg(0) = fault-free, Arg(1) = all four fault classes active. The
// BENCH_micro.json "SimFaultyVsClean" row tracks the injector's overhead on
// end-to-end serving throughput (fault-free must stay ~free: the injector
// is a null pointer check on the hot path).

void BM_SimFaulty(benchmark::State& state) {
  const bool faulty = state.range(0) != 0;
  const dnn::Architecture arch = dnn::alexnet();
  const comm::CommModel wifi(comm::WirelessTechnology::kWifi, 5.0);
  const core::DeploymentEvaluator evaluator(predictor(), wifi);
  const core::DeploymentPlan plan = evaluator.compile(arch);
  comm::ThroughputTrace trace;
  trace.samples_mbps = {30.0};
  trace.interval_s = 1000.0;
  sim::SimConfig config;
  config.duration_s = 20.0;
  config.arrival_rate_hz = 20.0;
  config.policy = sim::DispatchPolicy::kDynamic;
  config.metric = runtime::OptimizeFor::kLatency;
  if (faulty) {
    config.faults.link_outage_rate_hz = 1.0 / 10.0;
    config.faults.link_outage_mean_s = 2.0;
    config.faults.cloud_outage_rate_hz = 1.0 / 15.0;
    config.faults.cloud_outage_mean_s = 3.0;
    config.faults.rtt_spike_rate_hz = 1.0 / 12.0;
    config.faults.edge_slowdown_rate_hz = 1.0 / 20.0;
  }
  std::size_t requests = 0;
  for (auto _ : state) {
    sim::EdgeCloudSystem system(plan, trace, config);
    const sim::SimStats stats = system.run();
    benchmark::DoNotOptimize(stats);
    requests += stats.completed + stats.dropped;
  }
  state.counters["requests_per_s"] =
      benchmark::Counter(static_cast<double>(requests), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimFaulty)->Arg(0)->Arg(1);

// ---- Fleet: per-device faults as step events ---------------------------------
// 10k devices under bench_fleet's link- and cloud-outage rates, Arg() steps
// of 300 s on one worker: generate every device's episodes into step events,
// then apply them at each step to freshly written readings, as a fleet step
// does after its trace kernel.

void BM_FleetFaultSteps(benchmark::State& state) {
  fleet::FleetConfig config;
  config.devices = 10000;
  config.steps = static_cast<std::size_t>(state.range(0));
  config.seed = 21;
  config.faults.link_outage_rate_hz = 1.0 / 3600.0;
  config.faults.link_outage_mean_s = 120.0;
  config.faults.cloud_outage_rate_hz = 1.0 / 7200.0;
  config.faults.cloud_outage_mean_s = 180.0;
  const std::size_t chunks = fleet::FleetEngine::num_chunks(config.devices);
  par::ThreadPool pool(1);
  std::vector<double> tu(config.devices);
  for (auto _ : state) {
    fleet::FaultOverlay overlay(config, chunks, pool);
    for (std::size_t s = 0; s < config.steps; ++s) {
      std::fill(tu.begin(), tu.end(), 8.0);
      for (std::size_t c = 0; c < chunks; ++c) overlay.apply(c, s, tu.data());
      benchmark::DoNotOptimize(tu.data());
    }
    benchmark::ClobberMemory();
  }
  state.counters["device_steps_per_s"] = benchmark::Counter(
      static_cast<double>(config.devices * config.steps * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FleetFaultSteps)->Arg(16);

// ---- JSON output -------------------------------------------------------------

/// Console reporter that additionally collects per-run adjusted real times
/// so main() can emit BENCH_micro.json via lens::bench::JsonEmitter.
class CollectingReporter final : public benchmark::ConsoleReporter {
 public:
  struct Entry {
    std::string name;
    double real_time_ns;
    double iterations;
  };

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      entries_.push_back({run.benchmark_name(), run.GetAdjustedRealTime(),
                          static_cast<double>(run.iterations)});
    }
    ConsoleReporter::ReportRuns(reports);
  }

  const std::vector<Entry>& entries() const { return entries_; }

  /// Adjusted real time of the entry named `name`, or 0.0 when absent.
  double time_of(const std::string& name) const {
    for (const Entry& e : entries_) {
      if (e.name == name) return e.real_time_ns;
    }
    return 0.0;
  }

 private:
  std::vector<Entry> entries_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  lens::bench::JsonEmitter json("bench_micro");
  for (const CollectingReporter::Entry& e : reporter.entries()) {
    json.add(e.name, {{"real_time_ns", e.real_time_ns}, {"iterations", e.iterations}});
  }
  // Per-size full-refit vs incremental-append ratios: the complexity-drop
  // signal tracked across PRs (should grow ~linearly with n).
  for (const int n : {25, 50, 100, 200, 320}) {
    const std::string size = std::to_string(n);
    const double fit = reporter.time_of("BM_GpFit/" + size);
    const double observe = reporter.time_of("BM_GpObserve/" + size + "/iterations:48");
    if (fit > 0.0 && observe > 0.0) {
      json.add("GpFitVsObserve/" + size, {{"speedup", fit / observe}});
    }
  }
  // Full re-evaluation vs plan re-pricing: the compile/price split's payoff
  // per architecture depth (acceptance floor: >= 10x).
  for (const int blocks : {8, 32}) {
    const std::string size = std::to_string(blocks);
    const double full = reporter.time_of("BM_EvaluateFull/" + size);
    const double price = reporter.time_of("BM_PlanPrice/" + size);
    if (full > 0.0 && price > 0.0) {
      json.add("PlanPriceVsEvaluate/" + size, {{"speedup", full / price}});
    }
  }
  // Durable checkpoint save vs one Algorithm-1 candidate evaluation: the
  // periodic snapshot must stay a fraction of a single evaluation.
  {
    const double evaluate = reporter.time_of("BM_EvaluateFull/8");
    for (const int n : {50, 150}) {
      const std::string size = std::to_string(n);
      const double save = reporter.time_of("BM_CheckpointSave/" + size + "/iterations:64");
      if (evaluate > 0.0 && save > 0.0) {
        json.add("CheckpointSaveVsEvaluate/" + size, {{"overhead", save / evaluate}});
      }
    }
  }
  // Fault-injected vs fault-free serving: the injector's end-to-end cost.
  {
    const double clean = reporter.time_of("BM_SimFaulty/0");
    const double faulty = reporter.time_of("BM_SimFaulty/1");
    if (clean > 0.0 && faulty > 0.0) {
      json.add("SimFaultyVsClean", {{"overhead", faulty / clean}});
    }
  }
  json.write("BENCH_micro.json");
  benchmark::Shutdown();
  return 0;
}

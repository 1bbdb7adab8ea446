// Scaling study of the lens::par evaluation layer: runs one fixed 300-eval
// MOBO NAS search (fast mode: 40 evals) at 1/2/4/8 worker threads, reports
// wall-clock speedup, and checks that every run is bit-identical to the
// 1-thread reference (the lens::par determinism contract).
//
// Wall-clock speedup only means something when the machine actually has the
// cores (CI runners routinely expose 1-2). Each run therefore also records
// its parallel-section chunk structure with a par::ScalingProbe and reports
// the MODELED speedup: per-chunk CPU times list-scheduled onto T virtual
// workers (probed sections) plus the measured serial remainder (Amdahl
// accounting over CPU time). The modeled columns are hardware-independent —
// they answer "what does this chunk structure support at T threads" — and
// are what tools/check_thread_scaling.py gates on when the host has fewer
// than 8 hardware threads.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <vector>

#include "bench_common.hpp"
#include "opt/lanes.hpp"
#include "par/probe.hpp"
#include "par/runtime.hpp"

namespace {

lens::core::NasResult run_budget(std::size_t threads) {
  lens::par::set_max_threads(threads);
  lens::perf::DeviceSimulator simulator(lens::perf::jetson_tx2_gpu());
  lens::perf::SimulatorOracle oracle(simulator);
  lens::comm::CommModel comm(lens::comm::WirelessTechnology::kWifi, 5.0);
  lens::core::DeploymentEvaluator evaluator(oracle, comm);
  lens::core::SearchSpace space;
  lens::core::SurrogateAccuracyModel accuracy;

  lens::core::NasConfig config;
  // The 300-eval search of the ROADMAP scaling target (paper §V budget).
  config.mobo.num_initial = lens::bench::fast_mode() ? 12 : 60;
  config.mobo.num_iterations = lens::bench::fast_mode() ? 28 : 240;
  config.mobo.pool_size = 192;
  config.mobo.seed = 3;
  config.tu_mbps = 3.0;

  lens::core::NasDriver driver(space, evaluator, accuracy, config);
  return driver.run();
}

bool identical(const lens::core::NasResult& a, const lens::core::NasResult& b) {
  if (a.history.size() != b.history.size()) return false;
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    if (a.history[i].genotype != b.history[i].genotype) return false;
    if (a.history[i].error_percent != b.history[i].error_percent) return false;
    if (a.history[i].latency_ms != b.history[i].latency_ms) return false;
    if (a.history[i].energy_mj != b.history[i].energy_mj) return false;
  }
  if (a.front.size() != b.front.size()) return false;
  for (std::size_t i = 0; i < a.front.points().size(); ++i) {
    if (a.front.points()[i].id != b.front.points()[i].id) return false;
    if (a.front.points()[i].objectives != b.front.points()[i].objectives) return false;
  }
  return true;
}

double process_cpu_ms() {
#if defined(CLOCK_PROCESS_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) * 1e-6;
  }
#endif
  return static_cast<double>(std::clock()) * 1e3 / CLOCKS_PER_SEC;
}

}  // namespace

int main() {
  lens::bench::heading("Parallel evaluation scaling (fixed 300-eval MOBO NAS search)");
  const std::size_t hardware = lens::par::hardware_threads();
  std::printf("hardware threads: %zu | GP kernel lanes: %s%s\n\n", hardware,
              lens::opt::lane_variant_name(lens::opt::lane_variant()),
              lens::bench::fast_mode() ? "  [fast mode: 40-eval budget]" : "");

  lens::core::NasResult reference;
  double t1_ms = 0.0;
  lens::bench::JsonEmitter json("bench_parallel");
  json.add("config",
           {{"hardware_threads", static_cast<double>(hardware)},
            {"fast_mode", lens::bench::fast_mode() ? 1.0 : 0.0},
            {"evaluations", lens::bench::fast_mode() ? 40.0 : 300.0}});
  std::printf("%8s %12s %9s %13s %14s %12s\n", "threads", "wall(ms)", "wall-spd",
              "modeled-spd", "parallel-frac", "identical");
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    lens::par::ScalingProbe probe;
    const double cpu0 = process_cpu_ms();
    const auto start = std::chrono::steady_clock::now();
    const lens::core::NasResult result = run_budget(threads);
    const double ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count();
    const double cpu_ms = process_cpu_ms() - cpu0;
    if (threads == 1) {
      reference = result;
      t1_ms = ms;
    }
    const bool same = identical(reference, result);

    // Amdahl accounting over CPU time: probed parallel sections support
    // makespan(T); everything else ran serially.
    const double work_ms = probe.work_ms();
    const double makespan_ms = probe.makespan_ms(threads);
    const double serial_ms = std::max(0.0, cpu_ms - work_ms);
    const double modeled_speedup =
        (serial_ms + work_ms) / std::max(1e-9, serial_ms + makespan_ms);
    const double parallel_fraction = cpu_ms > 0.0 ? work_ms / cpu_ms : 0.0;

    std::printf("%8zu %12.1f %8.2fx %12.2fx %13.1f%% %12s\n", threads, ms, t1_ms / ms,
                modeled_speedup, 100.0 * parallel_fraction, same ? "yes" : "NO");
    json.add("threads=" + std::to_string(threads),
             {{"wall_ms", ms},
              {"speedup_vs_1_thread", t1_ms / ms},
              {"modeled_speedup", modeled_speedup},
              {"probe_work_ms", work_ms},
              {"probe_makespan_ms", makespan_ms},
              {"serial_cpu_ms", serial_ms},
              {"parallel_fraction", parallel_fraction},
              {"probe_sections", static_cast<double>(probe.sections())},
              {"probe_chunks", static_cast<double>(probe.chunks())},
              {"evaluations", static_cast<double>(result.history.size())},
              {"identical_to_reference", same ? 1.0 : 0.0}});
    if (!same) {
      std::fprintf(stderr, "determinism violation at %zu threads\n", threads);
      return 1;
    }
  }
  lens::par::set_max_threads(0);
  if (!json.write("BENCH_parallel.json")) return 1;
  std::printf(
      "\n(wall-spd saturates at the physical core count; modeled-spd is the\n"
      " probe's hardware-independent estimate — per-chunk CPU times\n"
      " list-scheduled onto T workers plus the serial remainder. The\n"
      " identity column is the lens::par determinism contract: bit-identical\n"
      " NasResult — history order, objective values, Pareto ids — at any\n"
      " thread count.)\n");
  return 0;
}

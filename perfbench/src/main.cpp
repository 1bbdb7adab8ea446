// lens_perfbench: runs one benchmark workload and prints JSON lines for
// run.py. Usage:
//   lens_perfbench --workload NAME --seed N --seconds S --trace 0|1
// Workloads: search-mobo, fleet-2tier, fleet-3tier-faults, serve-faults.

#include <cstdio>
#include <exception>
#include <string>

#include "bench.hpp"
#include "par/runtime.hpp"

namespace {

bool parse(int argc, char** argv, perfbench::Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        options.workload = value;
      } else if (key == "--seed") {
        options.seed = std::stoull(value);
      } else if (key == "--seconds") {
        options.seconds = std::stod(value);
      } else if (key == "--trace") {
        options.trace = value == "1";
        if (value != "0" && value != "1") return false;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !options.workload.empty() && options.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "lens_perfbench: built without NDEBUG (a debug build); timings would be "
               "meaningless. Configure with -DCMAKE_BUILD_TYPE=Release.\n");
  return 3;
#endif
  perfbench::Options options;
  if (!parse(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: lens_perfbench --workload NAME --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  // The single-core measure: one worker whatever LENS_THREADS says (the
  // override beats the environment).
  lens::par::set_max_threads(1);
  if (lens::par::max_threads() != 1 || lens::par::global_pool().size() != 1) {
    std::fprintf(stderr, "lens_perfbench: could not pin the pool to one worker\n");
    return 3;
  }
  perfbench::Line("config")
      .str("workload", options.workload)
      .count("seed", options.seed)
      .num("seconds", options.seconds)
      .flag("trace", options.trace)
      .count("worker_threads", lens::par::max_threads());
  try {
    int status = 2;
    if (options.workload == "search-mobo") {
      status = perfbench::run_search(options);
    } else if (options.workload == "fleet-2tier" || options.workload == "fleet-3tier-faults") {
      status = perfbench::run_fleet(options);
    } else if (options.workload == "serve-faults") {
      status = perfbench::run_serve(options);
    } else {
      std::fprintf(stderr, "lens_perfbench: unknown workload '%s'\n", options.workload.c_str());
      return 2;
    }
    perfbench::Line("rss").num("peak_mb", perfbench::peak_rss_mb());
    std::fflush(stdout);
    return status;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "lens_perfbench: %s\n", e.what());
    return 1;
  }
}

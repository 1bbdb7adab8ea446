#pragma once
// Shared plumbing of the lens_perfbench program: options, the JSON-line
// protocol run.py parses, in-memory span recording, digests and timing.
//
// Every line the program prints on stdout is one JSON object with a "type"
// key (config, setup, rep, check, digest, counter, rss, ...) or, for the
// traced run's spans, a compact "span ..." text line. run.py turns them
// into metrics; nothing here computes a metric itself.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "io/io.hpp"
#include "perf/predictor.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Parsed command line of one workload run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measurement budget for the timed repetitions
  bool trace = false;
};

/// The seed whose output digests are recorded in the workload sources.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// One JSON object, printed as a single stdout line when destroyed.
class Line {
 public:
  explicit Line(std::string_view type);
  ~Line();
  Line(const Line&) = delete;
  Line& operator=(const Line&) = delete;

  Line& str(std::string_view key, std::string_view value);
  Line& num(std::string_view key, double value);
  Line& count(std::string_view key, std::uint64_t value);
  Line& flag(std::string_view key, bool value);

 private:
  void key(std::string_view k);
  std::string text_;
};

/// io::fnv1a over the raw IEEE-754 bits of each value, in order, continuing
/// from `h`.
std::uint64_t fnv1a_doubles(const std::vector<double>& values, std::uint64_t h);
std::string hex64(std::uint64_t value);

/// Records a named output check. A failed check is an operation failure:
/// run.py counts it and the result is marked incorrect.
void check(std::string_view name, bool ok, std::string_view detail = {});
/// Emits a digest line and, at the default seed, checks it against the
/// value recorded in the workload source.
void digest(std::string_view name, std::uint64_t value, std::uint64_t expected_at_default,
            std::uint64_t seed);
/// An exact count or ratio the program reported (per-layer metric input).
void counter(std::string_view name, double value);

/// The CLI's layer predictor for `profile` (400 profiled samples per layer
/// kind, profiling seed 11).
lens::perf::RooflinePredictor train_predictor(const lens::perf::DeviceProfile& profile);

/// Peak resident set of this process, in MB (getrusage ru_maxrss).
double peak_rss_mb();

/// One timed repetition of the workload's call: `phase` is "run" for the
/// end-to-end estimate, "untraced" / "traced" in the traced run.
void rep_line(const char* phase, bool warmup, double seconds, double units);

/// In-memory span recorder. Spans are (name, start, end, parent); they are
/// kept in memory and printed when the traced run ends. A disabled tracer
/// records nothing and never reads the clock.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  bool enabled() const { return enabled_; }

  int begin(const char* name);
  void end(int id);
  /// Prints every span as a "span ..." text line (start/end in seconds since
  /// the tracer was built; parent -1 for roots).
  void emit() const;

 private:
  struct Span {
    int name = 0;
    int parent = -1;
    Clock::time_point start;
    Clock::time_point end;
  };
  int intern(const char* name);

  bool enabled_;
  Clock::time_point origin_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a no-op when the tracer is disabled.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.enabled() ? tracer.begin(name) : -1) {}
  ~Scope() {
    if (id_ >= 0) tracer_.end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Times a block of back-to-back set-ups: `blocks` blocks, each repeating
/// `make` until at least `block_s` seconds passed. Prints one "setup" line
/// per block with the seconds per set-up.
template <typename Make>
void setup_blocks(std::size_t blocks, double block_s, Make&& make) {
  for (std::size_t b = 0; b < blocks; ++b) {
    std::size_t n = 0;
    const Clock::time_point start = Clock::now();
    double elapsed = 0.0;
    do {
      make();
      ++n;
      elapsed = seconds_between(start, Clock::now());
    } while (elapsed < block_s);
    Line("setup").num("seconds", elapsed / static_cast<double>(n)).count("count", n);
  }
}

/// Times `body` repeatedly: twice, so there is a best of two, then again
/// while another repetition of the mean length still fits in `budget_s` of
/// timed work. Each repetition prints a "rep" line with its seconds and
/// `units`; the body returns the seconds of its own timed call. `setup`
/// times set-ups before every repetition and after the last, so the set-up
/// samples span the whole run instead of one short window of it.
template <typename Body, typename Setup>
void repeat(double budget_s, double units, Body&& body, Setup&& setup) {
  double spent = 0.0;
  for (std::size_t i = 0; i < 2 || spent + spent / static_cast<double>(i) <= budget_s; ++i) {
    setup();
    const double s = body();
    spent += s;
    rep_line("run", false, s, units);
  }
  setup();
}

int run_search(const Options& options);
int run_fleet(const Options& options);
int run_serve(const Options& options);

}  // namespace perfbench

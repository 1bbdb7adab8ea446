#include "sim/fault.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <stdexcept>

#include "check/finite.hpp"
#include "par/substream.hpp"

namespace lens::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Every range check below is written so that NaN fails it.
void validate_episode(const FaultEpisode& e) {
  if (!std::isfinite(e.start_s) || !std::isfinite(e.end_s) || e.start_s < 0.0 ||
      e.end_s <= e.start_s) {
    throw std::invalid_argument("FaultSchedule: episode needs 0 <= start < end");
  }
  const double m = e.magnitude;
  switch (e.fault) {
    case FaultClass::kLinkOutage:
      if (!(m > 0.0 && m <= 1.0)) {
        throw std::invalid_argument("FaultSchedule: link-outage depth must be in (0,1]");
      }
      break;
    case FaultClass::kRttSpike:
      if (!check::nonnegative_finite(m)) {
        throw std::invalid_argument(
            "FaultSchedule: RTT spike must be finite, non-negative ms");
      }
      break;
    case FaultClass::kEdgeSlowdown:
      if (!(m >= 1.0 && m < kInf)) {
        throw std::invalid_argument(
            "FaultSchedule: edge slowdown factor must be finite and >= 1");
      }
      break;
    case FaultClass::kMachineFailure:
      if (!(m > 0.0 && m <= 1.0)) {
        throw std::invalid_argument(
            "FaultSchedule: machine-failure fraction must be in (0,1]");
      }
      break;
    case FaultClass::kRegionalBrownout:
      if (!(m > 0.0 && m <= 1.0)) {
        throw std::invalid_argument(
            "FaultSchedule: brownout depth must be in (0,1]");
      }
      break;
    case FaultClass::kBackhaulBrownout:
      if (!(m > 0.0 && m < 1.0)) {
        throw std::invalid_argument(
            "FaultSchedule: backhaul-brownout depth must be in (0,1) — use a "
            "backhaul outage for a full loss");
      }
      if (e.hop == 0) {
        throw std::invalid_argument(
            "FaultSchedule: backhaul episodes need hop >= 1 (hop 0 is the radio)");
      }
      break;
    case FaultClass::kBackhaulOutage:
      if (e.hop == 0) {
        throw std::invalid_argument(
            "FaultSchedule: backhaul episodes need hop >= 1 (hop 0 is the radio)");
      }
      break;  // magnitude unused
    case FaultClass::kFogSiteFailure:
      if (!(m > 0.0 && m <= 1.0)) {
        throw std::invalid_argument(
            "FaultSchedule: fog-site failure fraction must be in (0,1]");
      }
      break;
    case FaultClass::kCloudOutage:
      break;  // magnitude unused
  }
}

}  // namespace

std::string fault_class_name(FaultClass fault) {
  switch (fault) {
    case FaultClass::kLinkOutage: return "link-outage";
    case FaultClass::kCloudOutage: return "cloud-outage";
    case FaultClass::kRttSpike: return "rtt-spike";
    case FaultClass::kEdgeSlowdown: return "edge-slowdown";
    case FaultClass::kMachineFailure: return "machine-failure";
    case FaultClass::kRegionalBrownout: return "regional-brownout";
    case FaultClass::kBackhaulBrownout: return "backhaul-brownout";
    case FaultClass::kBackhaulOutage: return "backhaul-outage";
    case FaultClass::kFogSiteFailure: return "fog-site-failure";
  }
  return "unknown";
}

FaultSchedule::FaultSchedule(std::vector<FaultEpisode> episodes)
    : episodes_(std::move(episodes)) {
  for (const FaultEpisode& e : episodes_) validate_episode(e);
  std::stable_sort(episodes_.begin(), episodes_.end(),
                   [](const FaultEpisode& a, const FaultEpisode& b) {
                     return a.start_s < b.start_s;
                   });
}

namespace {

/// std::mt19937_64 with lazy seeding: the same output sequence, bit for bit,
/// built for the short streams of per-device fault classes (a few draws
/// each). The reference engine writes all 312 seed words and twists all of
/// them before its first output. Yet output k < 156 is the tempered twist
/// of seed words k, k + 1 and k + 156 alone, since the first half of the
/// twist reads only words it has not yet overwritten. So the prefix walks
/// two cursors along the seeding recurrence, one at word k and one at word
/// k + 156: a short stream costs ~157 chained multiplies, allocates nothing
/// and reads no word it has not written. Output 156 needs the twisted first
/// half, so from there on the reference engine, advanced past the prefix,
/// serves the stream.
class LazyMt19937_64 {
 public:
  using Reference = std::mt19937_64;
  using result_type = Reference::result_type;
  static constexpr result_type min() { return Reference::min(); }
  static constexpr result_type max() { return Reference::max(); }

  /// Replaces each seed in `words` by its seed word 156. The chains are
  /// independent, so walking them side by side overlaps their multiplies
  /// instead of running ~156 of them back to back per stream.
  template <std::size_t N>
  static void seed_tops(std::array<result_type, N>& words) {
    for (std::size_t i = 1; i <= kPrefix; ++i) {
      for (result_type& w : words) w = seed_word(w, i);
    }
  }

  explicit LazyMt19937_64(result_type seed) : LazyMt19937_64(seed, top_of(seed)) {}

  /// The engine for `seed`, given its seed word 156 (see seed_tops).
  LazyMt19937_64(result_type seed, result_type top)
      : seed_(seed), lo_(seed), lo_next_(seed_word(seed, 1)), hi_(top) {}

  result_type operator()() {
    if (drawn_ < kPrefix) return temper(prefix_word());
    if (!tail_) {
      tail_.emplace(seed_);
      tail_->discard(kPrefix);
    }
    return (*tail_)();
  }

 private:
  static constexpr std::size_t kPrefix =
      Reference::state_size - Reference::shift_size;  // 156
  static constexpr result_type kUpper = ~result_type{0} << Reference::mask_bits;

  /// Seed word i from word i - 1 (the standard's initialization recurrence).
  static result_type seed_word(result_type prev, std::size_t i) {
    return Reference::initialization_multiplier *
               (prev ^ (prev >> (Reference::word_size - 2))) +
           i;
  }

  static result_type top_of(result_type seed) {
    std::array<result_type, 1> word{seed};
    seed_tops(word);
    return word[0];
  }

  static result_type temper(result_type z) {
    z ^= (z >> Reference::tempering_u) & Reference::tempering_d;
    z ^= (z << Reference::tempering_s) & Reference::tempering_b;
    z ^= (z << Reference::tempering_t) & Reference::tempering_c;
    return z ^ (z >> Reference::tempering_l);
  }

  /// Twisted word `drawn_` from seed words drawn_, drawn_ + 1 and
  /// drawn_ + kPrefix; then steps the cursors while the prefix lasts.
  result_type prefix_word() {
    const result_type y = (lo_ & kUpper) | (lo_next_ & ~kUpper);
    const result_type word = hi_ ^ (y >> 1) ^ ((y & 1) ? Reference::xor_mask : 0);
    if (++drawn_ < kPrefix) {
      lo_ = lo_next_;
      lo_next_ = seed_word(lo_next_, drawn_ + 1);
      hi_ = seed_word(hi_, drawn_ + kPrefix);
    }
    return word;
  }

  result_type seed_;
  result_type lo_;       // seed word drawn_
  result_type lo_next_;  // seed word drawn_ + 1
  result_type hi_;       // seed word drawn_ + kPrefix
  std::size_t drawn_ = 0;
  std::optional<Reference> tail_;
};

/// One renewal stream of a config: a class on a hop, its knobs and the salt
/// of its RNG substream.
struct RenewalStream {
  FaultClass fault;
  double rate_hz, mean_s, magnitude;
  std::uint64_t salt;
  std::size_t hop;
};

/// The nine classes' streams in generation order. One independent RNG
/// substream per class (splitmix64-mixed class salt): enabling or tuning
/// one class never perturbs another's episodes.
std::array<RenewalStream, 9> class_streams(const FaultScheduleConfig& c) {
  return {{
      {FaultClass::kLinkOutage, c.link_outage_rate_hz, c.link_outage_mean_s,
       c.link_outage_depth, 0x10c4, 0},
      {FaultClass::kCloudOutage, c.cloud_outage_rate_hz, c.cloud_outage_mean_s, 0.0, 0x20c4, 0},
      {FaultClass::kRttSpike, c.rtt_spike_rate_hz, c.rtt_spike_mean_s, c.rtt_spike_extra_ms,
       0x30c4, 0},
      {FaultClass::kEdgeSlowdown, c.edge_slowdown_rate_hz, c.edge_slowdown_mean_s,
       c.edge_slowdown_factor, 0x40c4, 0},
      // Datacenter-side classes: fresh salts, so every stream above is
      // byte-identical whether or not these are enabled.
      {FaultClass::kMachineFailure, c.machine_failure_rate_hz, c.machine_failure_mean_s,
       c.machine_failure_fraction, 0x50c4, 0},
      {FaultClass::kRegionalBrownout, c.brownout_rate_hz, c.brownout_mean_s, c.brownout_depth,
       0x60c4, 0},
      // Regional classes: fresh salts once more (0x70c4/0x80c4/0x90c4 are
      // disjoint from every class salt above AND from every 0x10000*hop-offset
      // backhaul stream below, which starts at 0x1_00c4), so all six legacy
      // streams stay byte-identical whether or not a region enables these.
      {FaultClass::kBackhaulBrownout, c.backhaul_brownout_rate_hz,
       c.backhaul_brownout_mean_s, c.backhaul_brownout_depth, 0x70c4, c.backhaul_hop},
      {FaultClass::kBackhaulOutage, c.backhaul_outage_rate_hz, c.backhaul_outage_mean_s, 0.0,
       0x80c4, c.backhaul_hop},
      {FaultClass::kFogSiteFailure, c.fog_failure_rate_hz, c.fog_failure_mean_s,
       c.fog_failure_fraction, 0x90c4, 0},
  }};
}

/// The streams of backhaul hop `hop` (extra_hops[hop - 1]). Salts are offset
/// per hop (0x10000 * hop keeps them disjoint from every class salt), so the
/// hop-0 schedule is byte-identical whether or not any backhaul class is on.
std::array<RenewalStream, 2> hop_streams(const HopFaultConfig& h, std::size_t hop) {
  const std::uint64_t offset = 0x10000ull * static_cast<std::uint64_t>(hop);
  return {{{FaultClass::kLinkOutage, h.outage_rate_hz, h.outage_mean_s, h.outage_depth,
            0x10c4 + offset, hop},
           {FaultClass::kRttSpike, h.rtt_spike_rate_hz, h.rtt_spike_mean_s,
            h.rtt_spike_extra_ms, 0x30c4 + offset, hop}}};
}

/// Every stream of `config` in generation order: fn(stream) per stream.
template <typename Fn>
void for_each_stream(const FaultScheduleConfig& config, Fn&& fn) {
  for (const RenewalStream& s : class_streams(config)) fn(s);
  for (std::size_t i = 0; i < config.extra_hops.size(); ++i) {
    for (const RenewalStream& s : hop_streams(config.extra_hops[i], i + 1)) fn(s);
  }
}

/// One stream's renewal process up to `horizon_s`: gaps ~ Exp(rate),
/// durations ~ Exp(1 / mean); emit(start, end) per episode. Episodes within
/// a stream never overlap.
template <typename Emit>
void renew(LazyMt19937_64& rng, const RenewalStream& s, double horizon_s, Emit&& emit) {
  std::exponential_distribution<double> gap(s.rate_hz);
  std::exponential_distribution<double> duration(1.0 / s.mean_s);
  double t = gap(rng);
  while (t < horizon_s) {
    const double d = duration(rng);
    emit(t, t + d);
    t += d + gap(rng);
  }
}

/// Shared episode-generation core: `base_seed` roots every class substream.
/// generate() passes config.seed through unchanged (frozen legacy path);
/// generate_for_device() passes the fleet-mixed per-device seed.
FaultSchedule generate_with_base(const FaultScheduleConfig& config,
                                 std::uint64_t base_seed) {
  validate(config);
  std::vector<FaultEpisode> episodes;
  for_each_stream(config, [&](const RenewalStream& s) {
    if (s.rate_hz <= 0.0) return;
    LazyMt19937_64 rng(par::substream_seed(base_seed, s.salt));
    renew(rng, s, config.horizon_s, [&](double start, double end) {
      episodes.push_back({s.fault, start, end, s.magnitude, s.hop});
    });
  });
  episodes.insert(episodes.end(), config.scripted.begin(), config.scripted.end());
  return FaultSchedule(std::move(episodes));
}

}  // namespace

void validate(const FaultScheduleConfig& config) {
  if (!check::positive_finite(config.horizon_s)) {
    throw std::invalid_argument("FaultSchedule::generate: horizon must be positive");
  }
  // Rates, then means, of the nine classes, then of each backhaul hop.
  const auto check_knobs = [](const auto& streams) {
    for (const RenewalStream& s : streams) {
      if (!check::nonnegative_finite(s.rate_hz)) {
        throw std::invalid_argument(
            "FaultSchedule::generate: episode rates must be finite and >= 0");
      }
    }
    for (const RenewalStream& s : streams) {
      if (!check::positive_finite(s.mean_s)) {
        throw std::invalid_argument(
            "FaultSchedule::generate: episode means must be finite and positive");
      }
    }
  };
  check_knobs(class_streams(config));
  if ((config.backhaul_brownout_rate_hz > 0.0 || config.backhaul_outage_rate_hz > 0.0) &&
      config.backhaul_hop == 0) {
    throw std::invalid_argument(
        "FaultSchedule::generate: backhaul classes need backhaul_hop >= 1");
  }
  for (std::size_t i = 0; i < config.extra_hops.size(); ++i) {
    check_knobs(hop_streams(config.extra_hops[i], i + 1));
  }
  // A bad magnitude throws even when the stream draws no episode.
  for_each_stream(config, [](const RenewalStream& s) {
    if (s.rate_hz > 0.0) validate_episode({s.fault, 0.0, 1.0, s.magnitude, s.hop});
  });
}

FaultSchedule FaultSchedule::generate(const FaultScheduleConfig& config) {
  return generate_with_base(config, static_cast<std::uint64_t>(config.seed));
}

FaultSchedule FaultSchedule::generate_for_device(const FaultScheduleConfig& config,
                                                 std::uint64_t fleet_seed,
                                                 std::uint64_t device_id) {
  return generate_with_base(config, par::substream_seed(fleet_seed, device_id));
}

FaultSchedule FaultSchedule::generate_for_region(const FaultScheduleConfig& config,
                                                 std::uint64_t fleet_seed,
                                                 std::uint64_t region_id) {
  return generate_with_base(
      config,
      par::substream_seed(par::substream_seed(fleet_seed, kRegionStreamSalt),
                          region_id));
}

DeviceOutageGenerator::DeviceOutageGenerator(const FaultScheduleConfig& config,
                                             std::uint64_t fleet_seed)
    : config_(config), fleet_seed_(fleet_seed) {
  validate(config_);
}

std::vector<DeviceEpisode> DeviceOutageGenerator::generate(std::uint64_t first,
                                                           std::uint64_t last) const {
  // The enabled ones of the first two classes, link and cloud.
  const std::array<RenewalStream, 9> all = class_streams(config_);
  std::array<RenewalStream, 2> streams = {all[0], all[1]};
  const std::size_t per_device = static_cast<std::size_t>(
      std::remove_if(streams.begin(), streams.end(),
                     [](const RenewalStream& s) { return s.rate_hz <= 0.0; }) -
      streams.begin());
  std::vector<DeviceEpisode> out;
  if (per_device == 0) return out;

  // Lanes of (device, class) streams in device-then-class order.
  constexpr std::size_t kLanes = 8;
  std::array<std::uint64_t, kLanes> lane_device{}, seeds{}, tops{};
  std::array<const RenewalStream*, kLanes> lane_stream{};
  std::uint64_t device = first;
  std::size_t cls = 0;
  std::uint64_t base_seed = par::substream_seed(fleet_seed_, device);
  while (device < last) {
    std::size_t lanes = 0;
    for (; lanes < kLanes && device < last; ++lanes) {
      lane_device[lanes] = device;
      lane_stream[lanes] = &streams[cls];
      seeds[lanes] = par::substream_seed(base_seed, streams[cls].salt);
      if (++cls == per_device) {
        cls = 0;
        base_seed = par::substream_seed(fleet_seed_, ++device);
      }
    }
    tops = seeds;  // lanes past `lanes` hold stale seeds: walked, never read
    LazyMt19937_64::seed_tops(tops);
    for (std::size_t l = 0; l < lanes; ++l) {
      const RenewalStream& s = *lane_stream[l];
      LazyMt19937_64 rng(seeds[l], tops[l]);
      renew(rng, s, config_.horizon_s, [&](double start, double end) {
        const FaultEpisode episode{s.fault, start, end, s.magnitude, s.hop};
        validate_episode(episode);
        out.push_back({lane_device[l], episode});
      });
    }
  }
  return out;
}

std::size_t FaultSchedule::count(FaultClass fault) const {
  std::size_t n = 0;
  for (const FaultEpisode& e : episodes_) {
    if (e.fault == fault) ++n;
  }
  return n;
}

FaultInjector::FaultInjector(FaultSchedule schedule) : schedule_(std::move(schedule)) {
  for (const FaultEpisode& e : schedule_.episodes()) {
    const auto c = static_cast<std::size_t>(e.fault);
    by_class_[c].push_back(e);
    reach_s_[c].push_back(reach_s_[c].empty() ? e.end_s
                                              : std::max(reach_s_[c].back(), e.end_s));
  }
}

std::span<const FaultEpisode> FaultInjector::live(FaultClass fault, double t_s) const {
  const auto c = static_cast<std::size_t>(fault);
  const std::vector<double>& reach = reach_s_[c];
  const auto first = std::upper_bound(reach.begin(), reach.end(), t_s) - reach.begin();
  return std::span<const FaultEpisode>(by_class_[c]).subspan(static_cast<std::size_t>(first));
}

double FaultInjector::link_factor(double t_s, std::size_t hop) const {
  double factor = 1.0;
  for (const FaultEpisode& e : live(FaultClass::kLinkOutage, t_s)) {
    if (e.start_s > t_s) break;  // start-sorted: nothing later can cover t
    if (e.hop == hop && e.covers(t_s)) factor = std::min(factor, e.magnitude);
  }
  return factor;
}

bool FaultInjector::cloud_unavailable(double t_s) const {
  for (const FaultEpisode& e : live(FaultClass::kCloudOutage, t_s)) {
    if (e.start_s > t_s) break;
    if (e.covers(t_s)) return true;
  }
  return false;
}

double FaultInjector::rtt_extra_ms(double t_s, std::size_t hop) const {
  double extra = 0.0;
  for (const FaultEpisode& e : live(FaultClass::kRttSpike, t_s)) {
    if (e.start_s > t_s) break;
    if (e.hop == hop && e.covers(t_s)) extra = std::max(extra, e.magnitude);
  }
  return extra;
}

double FaultInjector::edge_slowdown(double t_s) const {
  double factor = 1.0;
  for (const FaultEpisode& e : live(FaultClass::kEdgeSlowdown, t_s)) {
    if (e.start_s > t_s) break;
    if (e.covers(t_s)) factor = std::max(factor, e.magnitude);
  }
  return factor;
}

double FaultInjector::machine_failure_fraction(double t_s) const {
  double fraction = 0.0;
  for (const FaultEpisode& e : live(FaultClass::kMachineFailure, t_s)) {
    if (e.start_s > t_s) break;
    if (e.covers(t_s)) fraction = std::max(fraction, e.magnitude);
  }
  return fraction;
}

double FaultInjector::brownout_factor(double t_s) const {
  double factor = 1.0;
  for (const FaultEpisode& e : live(FaultClass::kRegionalBrownout, t_s)) {
    if (e.start_s > t_s) break;
    if (e.covers(t_s)) factor = std::min(factor, 1.0 - e.magnitude);
  }
  return factor;
}

double FaultInjector::backhaul_factor(double t_s, std::size_t hop) const {
  double factor = 1.0;
  for (const FaultEpisode& e : live(FaultClass::kBackhaulBrownout, t_s)) {
    if (e.start_s > t_s) break;
    if (e.hop == hop && e.covers(t_s)) factor = std::min(factor, 1.0 - e.magnitude);
  }
  return factor;
}

bool FaultInjector::backhaul_unavailable(double t_s, std::size_t hop) const {
  for (const FaultEpisode& e : live(FaultClass::kBackhaulOutage, t_s)) {
    if (e.start_s > t_s) break;
    if (e.hop == hop && e.covers(t_s)) return true;
  }
  return false;
}

double FaultInjector::fog_failure_fraction(double t_s) const {
  double fraction = 0.0;
  for (const FaultEpisode& e : live(FaultClass::kFogSiteFailure, t_s)) {
    if (e.start_s > t_s) break;
    if (e.covers(t_s)) fraction = std::max(fraction, e.magnitude);
  }
  return fraction;
}

double FaultInjector::next_link_boundary(double t_s, std::size_t hop) const {
  double next = kInf;
  for (const FaultEpisode& e : live(FaultClass::kLinkOutage, t_s)) {
    if (e.hop != hop) continue;
    if (e.start_s > t_s) {
      next = std::min(next, e.start_s);
      break;  // starts are sorted; later episodes begin even later
    }
    if (e.end_s > t_s) next = std::min(next, e.end_s);
  }
  return next;
}

double FaultInjector::degraded_time(double horizon_s) const {
  // Episodes are start-sorted across classes: one merge pass over the union.
  double covered = 0.0;
  double open_until = 0.0;
  for (const FaultEpisode& e : schedule_.episodes()) {
    const double start = std::min(std::max(e.start_s, open_until), horizon_s);
    const double end = std::min(e.end_s, horizon_s);
    if (end > start) covered += end - start;
    open_until = std::max(open_until, end);
  }
  return covered;
}

}  // namespace lens::sim

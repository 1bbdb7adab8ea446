#include "sim/fault.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <stdexcept>

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
      if (!(m >= 0.0 && m < kInf)) {
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

  explicit LazyMt19937_64(result_type seed)
      : seed_(seed), lo_(seed), lo_next_(seed_word(seed, 1)), hi_(lo_next_) {
    for (std::size_t i = 2; i <= kPrefix; ++i) hi_ = seed_word(hi_, i);
  }

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

// NaN fails both.
bool valid_rate(double hz) { return hz >= 0.0 && hz < kInf; }
bool valid_mean(double s) { return s > 0.0 && s < kInf; }

/// Shared episode-generation core: `base_seed` roots every class substream.
/// generate() passes config.seed through unchanged (frozen legacy path);
/// generate_for_device() passes the fleet-mixed per-device seed.
FaultSchedule generate_with_base(const FaultScheduleConfig& config,
                                 std::uint64_t base_seed) {
  if (config.horizon_s <= 0.0 || !std::isfinite(config.horizon_s)) {
    throw std::invalid_argument("FaultSchedule::generate: horizon must be positive");
  }
  for (const double hz :
       {config.link_outage_rate_hz, config.cloud_outage_rate_hz, config.rtt_spike_rate_hz,
        config.edge_slowdown_rate_hz, config.machine_failure_rate_hz,
        config.brownout_rate_hz, config.backhaul_brownout_rate_hz,
        config.backhaul_outage_rate_hz, config.fog_failure_rate_hz}) {
    if (!valid_rate(hz)) {
      throw std::invalid_argument(
          "FaultSchedule::generate: episode rates must be finite and >= 0");
    }
  }
  for (const double s :
       {config.link_outage_mean_s, config.cloud_outage_mean_s, config.rtt_spike_mean_s,
        config.edge_slowdown_mean_s, config.machine_failure_mean_s, config.brownout_mean_s,
        config.backhaul_brownout_mean_s, config.backhaul_outage_mean_s,
        config.fog_failure_mean_s}) {
    if (!valid_mean(s)) {
      throw std::invalid_argument(
          "FaultSchedule::generate: episode means must be finite and positive");
    }
  }
  if ((config.backhaul_brownout_rate_hz > 0.0 ||
       config.backhaul_outage_rate_hz > 0.0) &&
      config.backhaul_hop == 0) {
    throw std::invalid_argument(
        "FaultSchedule::generate: backhaul classes need backhaul_hop >= 1");
  }
  for (const HopFaultConfig& hop : config.extra_hops) {
    if (!valid_rate(hop.outage_rate_hz) || !valid_rate(hop.rtt_spike_rate_hz)) {
      throw std::invalid_argument(
          "FaultSchedule::generate: episode rates must be finite and >= 0");
    }
    if (!valid_mean(hop.outage_mean_s) || !valid_mean(hop.rtt_spike_mean_s)) {
      throw std::invalid_argument(
          "FaultSchedule::generate: episode means must be finite and positive");
    }
  }
  std::vector<FaultEpisode> episodes;

  // One independent RNG substream per class (splitmix64-mixed class salt):
  // enabling or tuning one class never perturbs another's episodes.
  const auto renew = [&](FaultClass fault, double rate_hz, double mean_s,
                         double magnitude, std::uint64_t salt, std::size_t hop) {
    if (rate_hz <= 0.0) return;
    // A bad magnitude throws even when the stream draws no episode.
    validate_episode({fault, 0.0, 1.0, magnitude, hop});
    LazyMt19937_64 rng(par::substream_seed(base_seed, salt));
    std::exponential_distribution<double> gap(rate_hz);
    std::exponential_distribution<double> duration(1.0 / mean_s);
    // Renewal process: episodes within a class never overlap.
    double t = gap(rng);
    while (t < config.horizon_s) {
      const double d = duration(rng);
      episodes.push_back({fault, t, t + d, magnitude, hop});
      t += d + gap(rng);
    }
  };
  renew(FaultClass::kLinkOutage, config.link_outage_rate_hz, config.link_outage_mean_s,
        config.link_outage_depth, 0x10c4, 0);
  renew(FaultClass::kCloudOutage, config.cloud_outage_rate_hz, config.cloud_outage_mean_s,
        0.0, 0x20c4, 0);
  renew(FaultClass::kRttSpike, config.rtt_spike_rate_hz, config.rtt_spike_mean_s,
        config.rtt_spike_extra_ms, 0x30c4, 0);
  renew(FaultClass::kEdgeSlowdown, config.edge_slowdown_rate_hz,
        config.edge_slowdown_mean_s, config.edge_slowdown_factor, 0x40c4, 0);
  // Datacenter-side classes: fresh salts, so every stream above is
  // byte-identical whether or not these are enabled.
  renew(FaultClass::kMachineFailure, config.machine_failure_rate_hz,
        config.machine_failure_mean_s, config.machine_failure_fraction, 0x50c4, 0);
  renew(FaultClass::kRegionalBrownout, config.brownout_rate_hz,
        config.brownout_mean_s, config.brownout_depth, 0x60c4, 0);
  // Regional classes: fresh salts once more (0x70c4/0x80c4/0x90c4 are
  // disjoint from every class salt above AND from every 0x10000*hop-offset
  // backhaul stream below, which starts at 0x1_00c4), so all six legacy
  // streams stay byte-identical whether or not a region enables these.
  renew(FaultClass::kBackhaulBrownout, config.backhaul_brownout_rate_hz,
        config.backhaul_brownout_mean_s, config.backhaul_brownout_depth, 0x70c4,
        config.backhaul_hop);
  renew(FaultClass::kBackhaulOutage, config.backhaul_outage_rate_hz,
        config.backhaul_outage_mean_s, 0.0, 0x80c4, config.backhaul_hop);
  renew(FaultClass::kFogSiteFailure, config.fog_failure_rate_hz,
        config.fog_failure_mean_s, config.fog_failure_fraction, 0x90c4, 0);
  // Backhaul hops: salts offset per hop (0x10000 * hop keeps them disjoint
  // from every class salt above), so the hop-0 schedule is byte-identical
  // whether or not any backhaul class is enabled.
  for (std::size_t i = 0; i < config.extra_hops.size(); ++i) {
    const HopFaultConfig& hc = config.extra_hops[i];
    const std::size_t hop = i + 1;
    const std::uint64_t offset = 0x10000ull * static_cast<std::uint64_t>(hop);
    renew(FaultClass::kLinkOutage, hc.outage_rate_hz, hc.outage_mean_s, hc.outage_depth,
          0x10c4 + offset, hop);
    renew(FaultClass::kRttSpike, hc.rtt_spike_rate_hz, hc.rtt_spike_mean_s,
          hc.rtt_spike_extra_ms, 0x30c4 + offset, hop);
  }
  episodes.insert(episodes.end(), config.scripted.begin(), config.scripted.end());
  return FaultSchedule(std::move(episodes));
}

}  // namespace

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

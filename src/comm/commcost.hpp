#pragma once
// Edge-to-cloud communication cost model (paper Eqs. 3-6):
//   L_comm = L_Tx + L_RT,  L_Tx = Size(data) / t_u
//   E_comm = E_Tx = P_Tx * L_Tx
// Cloud-side compute is free from the edge's perspective (paper §III-A).

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "comm/wireless.hpp"

namespace lens::comm {

/// A cost that is hyperbolic in the upload throughput:
///   f(t_u) = constant + per_inverse_tu / t_u.
/// Both end-to-end metrics of a deployment option have this shape (paper
/// §IV-E), so every option can be summarized by two coefficients and priced
/// at any throughput without re-running the predictors.
struct CostCurve {
  double constant = 0.0;
  double per_inverse_tu = 0.0;

  /// Throws std::invalid_argument for non-positive throughput.
  double value(double tu_mbps) const {
    if (tu_mbps <= 0.0) {
      throw std::invalid_argument("CostCurve: throughput must be positive");
    }
    return constant + per_inverse_tu / tu_mbps;
  }
};

/// A cost that is hyperbolic in each of H per-hop throughputs:
///   f(t) = constant + sum_h per_inverse_tu[h] / t[h].
/// The K-tier generalization of CostCurve: a deployment option that crosses
/// several network hops contributes one 1/t term per hop it transmits over
/// (unused hops carry a zero coefficient). Collapsing all but one hop at
/// fixed throughputs recovers a 1-D CostCurve, which is how the existing
/// threshold/deployer machinery is reused for K >= 3.
struct MultiHopCurve {
  double constant = 0.0;
  std::vector<double> per_inverse_tu;  ///< one coefficient per hop; 0 = unused

  std::size_t num_hops() const { return per_inverse_tu.size(); }

  /// Throws std::invalid_argument on size mismatch or non-positive entries.
  double value(const std::vector<double>& tu_mbps) const {
    if (tu_mbps.size() != per_inverse_tu.size()) {
      throw std::invalid_argument("MultiHopCurve: throughput vector size mismatch");
    }
    double total = constant;
    for (std::size_t h = 0; h < per_inverse_tu.size(); ++h) {
      if (tu_mbps[h] <= 0.0) {
        throw std::invalid_argument("MultiHopCurve: throughput must be positive");
      }
      total += per_inverse_tu[h] / tu_mbps[h];
    }
    return total;
  }

  /// 1-D curve in hop `free_hop` with every other hop pinned at
  /// `fixed_tu_mbps[h]`. Entries for unused hops (zero coefficient) and for
  /// `free_hop` itself are never read, so they may be arbitrary.
  CostCurve collapse(std::size_t free_hop, const std::vector<double>& fixed_tu_mbps) const {
    if (free_hop >= per_inverse_tu.size()) {
      throw std::invalid_argument("MultiHopCurve: free hop out of range");
    }
    if (fixed_tu_mbps.size() != per_inverse_tu.size()) {
      throw std::invalid_argument("MultiHopCurve: throughput vector size mismatch");
    }
    CostCurve curve{constant, per_inverse_tu[free_hop]};
    for (std::size_t h = 0; h < per_inverse_tu.size(); ++h) {
      if (h == free_hop || per_inverse_tu[h] == 0.0) continue;
      if (fixed_tu_mbps[h] <= 0.0) {
        throw std::invalid_argument("MultiHopCurve: throughput must be positive");
      }
      curve.constant += per_inverse_tu[h] / fixed_tu_mbps[h];
    }
    return curve;
  }
};

/// Communication cost calculator for a fixed technology. Throughput is a
/// per-call argument so the same model serves both design-time evaluation
/// (expected t_u) and runtime adaptation (tracked t_u).
class CommModel {
 public:
  explicit CommModel(WirelessTechnology technology, double round_trip_ms = 20.0);
  CommModel(const RadioPowerModel& power_model, double round_trip_ms);

  // The three per-call costs below are inline: plan pricing calls them once
  // or twice per option, and the expressions must stay exactly as written —
  // priced plans are bit-compared against these very formulas.

  /// Transmission latency L_Tx in ms for `bytes` at `tu_mbps`.
  double tx_latency_ms(std::uint64_t bytes, double tu_mbps) const {
    if (tu_mbps <= 0.0) {
      throw std::invalid_argument("CommModel: throughput must be positive");
    }
    const double bits = static_cast<double>(bytes) * 8.0;
    // t_u Mbps = t_u * 1e6 bit/s = t_u * 1e3 bit/ms.
    return bits / (tu_mbps * 1e3);
  }

  /// Total communication latency L_comm = L_Tx + L_RT in ms.
  double comm_latency_ms(std::uint64_t bytes, double tu_mbps) const {
    return tx_latency_ms(bytes, tu_mbps) + round_trip_ms_;
  }

  /// Transmission energy E_Tx = P_Tx * L_Tx in mJ.
  double tx_energy_mj(std::uint64_t bytes, double tu_mbps) const {
    const double power_mw = power_model_.transmit_power_mw(tu_mbps);
    const double latency_s = tx_latency_ms(bytes, tu_mbps) / 1e3;
    return power_mw * latency_s;  // mW * s = mJ
  }

  /// Closed form of comm_latency_ms as a function of t_u:
  ///   L_comm(t_u) = L_RT + bits / (1e3 t_u)   [ms].
  /// The single source of truth for the latency-vs-throughput algebra used
  /// by deployment plans and the runtime threshold analysis.
  CostCurve comm_latency_curve(std::uint64_t bytes) const;

  /// Closed form of tx_energy_mj as a function of t_u:
  ///   E_Tx(t_u) = (alpha t_u + beta) * Mb / t_u = alpha*Mb + beta*Mb / t_u
  /// [mJ] — the alpha term of the radio power model folds into the constant.
  CostCurve tx_energy_curve(std::uint64_t bytes) const;

  double round_trip_ms() const { return round_trip_ms_; }
  const RadioPowerModel& power_model() const { return power_model_; }

 private:
  RadioPowerModel power_model_;
  double round_trip_ms_;
};

}  // namespace lens::comm

// Brownout ladder: trade accuracy for throughput BEFORE trading
// availability.
//
// The paper's premise gives the serving layer a degradation axis no
// ordinary server has. An approximate multiplier's error is a dial; a
// shed request is a cliff. So when the queue's sojourn time says the
// server is past its knee, the OverloadController walks a ladder of
// progressively cheaper configurations instead of jumping straight to
// rejection — the serve-time analogue of the dynamic-reconfiguration
// operators in Vakili et al. (PAPERS.md):
//
//      tier 0   Normal        configured multiplier, full batching
//      tier 1   LingerOff     batch coalescing linger forced to zero
//                             (latency for throughput bookkeeping —
//                             stop holding requests to build batches)
//      tier 2..(1+K)          brownout: workers swap onto the k-th
//                             cheaper approximate MulTable (replica
//                             per worker via the hot-swap factory
//                             machinery; per-tier traffic mix is
//                             reported so accuracy loss is auditable)
//      tier 2+K Shed          admission sheds a configured fraction at
//                             the door — the last rung, reached only
//                             when every accuracy trade is exhausted
//
// Escalation is driven by an EWMA of the queue's minimum batch sojourn
// (the same signal CoDel acts on), with two-threshold hysteresis
// (enter_ms > exit_ms) and a dwell time between tier changes so an
// oscillating load cannot flap the ladder — the controller moves one
// rung per dwell, in either direction, and the hysteresis gap makes
// "up" and "down" decisions disagree about the same sojourn level.
//
// The controller is deliberately signal-agnostic glue: Server feeds it
// sojourn samples (and its HealthTracker/AIMD signals keep their own
// independent authority — the AIMD limiter still clamps in-flight
// admission; the ladder composes with it rather than replacing it).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <mutex>
#include <ostream>

#include "obs/registry.hpp"
#include "util/bits.hpp"

namespace nga::serve {

struct OverloadConfig {
  bool enabled = false;
  /// EWMA min-sojourn (ms) above which the ladder escalates one rung.
  double enter_ms = 5.0;
  /// EWMA min-sojourn (ms) below which it de-escalates one rung. Must
  /// be < enter_ms: the gap is the hysteresis band.
  double exit_ms = 1.0;
  /// Minimum time between tier changes (either direction).
  std::chrono::milliseconds dwell{250};
  /// EWMA smoothing factor in (0,1]; higher = jumpier.
  double ewma_alpha = 0.2;
  /// Fraction of arrivals shed at the door while on the Shed rung.
  double shed_fraction = 0.5;
};

/// The ladder state machine. Hot readers (submit, workers) read tier()
/// lock-free; observe() serializes on a mutex (one call per batch, not
/// per request).
class OverloadController {
 public:
  using Clock = std::chrono::steady_clock;

  /// @p brownout_tiers = K, the number of cheaper tables configured
  /// (may be 0: the ladder is then Normal -> LingerOff -> Shed).
  OverloadController(OverloadConfig cfg, int brownout_tiers)
      : cfg_(cfg), brownout_tiers_(brownout_tiers < 0 ? 0 : brownout_tiers) {}

  /// Observer for tier changes (telemetry mirror). Runs under the
  /// controller mutex — keep it to atomic counter/gauge updates. Set
  /// before traffic starts.
  void set_on_change(std::function<void(int from, int to)> fn) {
    on_change_ = std::move(fn);
  }

  int tier() const { return tier_.load(std::memory_order_relaxed); }
  int max_tier() const { return 2 + brownout_tiers_; }
  int shed_tier() const { return max_tier(); }
  bool at_shed() const { return tier() >= shed_tier(); }

  /// True while the ladder is anywhere above Normal.
  bool engaged() const { return tier() > 0; }

  /// Map a tier to the brownout-table index it selects, or -1 when the
  /// tier runs the configured table (Normal/LingerOff/Shed all do:
  /// Shed keeps the cheapest table for what it still admits).
  int brownout_index(int tier) const {
    if (tier < 2) return -1;
    const int idx = tier - 2;
    return idx < brownout_tiers_ ? idx : brownout_tiers_ - 1;
  }

  /// Feed one min-sojourn sample (ms). Returns the tier in force after
  /// the sample. @p now is injectable for deterministic tests.
  int observe(double sojourn_ms, Clock::time_point now) {
    if (!cfg_.enabled) return 0;
    std::lock_guard<std::mutex> lk(m_);
    ewma_ = seeded_ ? cfg_.ewma_alpha * sojourn_ms +
                          (1.0 - cfg_.ewma_alpha) * ewma_
                    : sojourn_ms;
    seeded_ = true;
    const int t = tier_.load(std::memory_order_relaxed);
    const bool dwelt =
        last_change_ == Clock::time_point{} || now - last_change_ >= cfg_.dwell;
    if (!dwelt) return t;
    if (ewma_ > cfg_.enter_ms && t < max_tier()) {
      tier_.store(t + 1, std::memory_order_relaxed);
      last_change_ = now;
      ++escalations_;
      if (on_change_) on_change_(t, t + 1);
    } else if (ewma_ < cfg_.exit_ms && t > 0) {
      tier_.store(t - 1, std::memory_order_relaxed);
      last_change_ = now;
      ++deescalations_;
      if (on_change_) on_change_(t, t - 1);
    }
    return tier_.load(std::memory_order_relaxed);
  }

  /// Deterministic shed sampler for the Shed rung: a fixed-point
  /// accumulator that returns true for exactly shed_fraction of calls
  /// (no RNG — the brownout bench must be reproducible). Callers check
  /// at_shed() first.
  bool shed_due() {
    std::lock_guard<std::mutex> lk(m_);
    shed_acc_ += cfg_.shed_fraction;
    if (shed_acc_ >= 1.0) {
      shed_acc_ -= 1.0;
      return true;
    }
    return false;
  }

  struct Stats {
    util::u64 escalations = 0;
    util::u64 deescalations = 0;
    double ewma_ms = 0.0;
  };
  Stats stats() const {
    std::lock_guard<std::mutex> lk(m_);
    return {escalations_, deescalations_, ewma_};
  }

 private:
  const OverloadConfig cfg_;
  const int brownout_tiers_;
  std::function<void(int, int)> on_change_;
  std::atomic<int> tier_{0};
  mutable std::mutex m_;
  double ewma_ = 0.0;
  bool seeded_ = false;
  double shed_acc_ = 0.0;
  Clock::time_point last_change_{};
  util::u64 escalations_ = 0;
  util::u64 deescalations_ = 0;
};

/// Process-wide overload telemetry: obs counters/gauges plus the
/// additive "overload" section of the nga-bench-v1 JSON (registered on
/// first use, like "prof" and "integrity" — benches that never build a
/// Server keep their exact schema). Per-tier traffic mix lives here so
/// the accuracy cost of every brownout episode is visible in the text
/// exposition and in the committed bench JSON.
class OverloadTelemetry {
 public:
  static OverloadTelemetry& instance();

  /// Pre-register the per-tier request/batch counters for tiers
  /// 0..max_tier so the metric schema is config-dependent, never
  /// traffic-dependent (Server ctor calls this).
  void ensure_tiers(int max_tier);

  /// One batch of @p n requests executed on @p tier.
  void record_batch(int tier, util::u64 n);

  void write_json(std::ostream& os) const;

 private:
  OverloadTelemetry();

  obs::Counter* escalations_;
  obs::Counter* deescalations_;
  obs::Counter* shed_;
  obs::Counter* codel_dropped_;
  obs::Gauge* tier_gauge_;
  mutable std::mutex m_;
  int max_tier_ = -1;  ///< highest tier with registered counters
};

}  // namespace nga::serve

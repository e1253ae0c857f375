// nga::serve::Server — the concurrent inference service core.
//
// Data path: submit() validates (typed RejectReason), stamps a
// deadline, and admits into a bounded MPMC queue (full queue => an
// immediate Overloaded rejection: backpressure, not buffering). Worker
// threads coalesce admitted requests into batches and run them through
// a per-worker replica of the quantized nn::Model (layers cache
// forward state, so models are never shared across threads).
//
// Robustness machinery:
//   * deadlines — expired requests are shed before a batch executes
//     and again before results are delivered; a shed request still
//     resolves its future (outcome kShed), never silently vanishes;
//   * retry — a batch attempt is transiently failed when the worker's
//     own fault-injection detections exceed suspect_detections, when a
//     guard trips without recovering, or when the logits come back
//     non-finite. Failed attempts retry under decorrelated-jitter
//     exponential backoff; with retry_exact_failover the final attempt
//     runs on the golden exact multiplier (failover to the known-good
//     unit). Validation failures are permanent and never retried;
//   * health — a sliding window over batch attempts drives
//     Serving <-> Degraded with hysteresis; drain() moves to Draining
//     and then Stopped;
//   * graceful shutdown — drain() stops admission, lets the workers
//     finish every queued request, and joins them. The accounting
//     invariant  served + rejected + shed == submitted  holds at that
//     point by construction (every Request's promise resolves exactly
//     once through one choke point);
//   * supervision (nga::guard, opt-in via ServerConfig::supervision) —
//     a watchdog replaces hung workers (cooperative cancellation, the
//     in-flight batch re-queued under a bounded redelivery count),
//     per-replica circuit breakers quarantine persistently-bad
//     replicas onto the exact table and revalidate them against a
//     golden input set (reinstate or permanently retire), and an AIMD
//     limiter adapts the admitted in-flight count to observed p99
//     latency and shed rate.
//
// Observability (v2): obs counters serve.submitted/served/rejected/
// shed/retries/batches/failovers, the serve.queue.depth gauge,
// serve.latency_ms and serve.batch_size series, serve.exec/
// serve.backoff sections, and
//   * per-stage latency series serve.stage.{queue_wait,batch_fill,
//     exec,retry_backoff}_ms — one sample per request per stage, so
//     the bench JSON carries a full latency breakdown;
//   * request-scoped tracing: every submit allocates a TraceContext
//     (sampled at trace_sample_rate); sampled requests emit
//     queue_wait / batch_fill / exec / exec.failover / retry_backoff
//     spans plus a root request.<outcome> span, all on one lane per
//     request in the chrome-trace export (obs/trace.hpp);
//   * the numeric-health channel: each worker attributes NaR/
//     saturation/fault-detection/requant-clip counts per layer
//     (nn/health.hpp), the server aggregates them across workers
//     (numeric_health(), serve.layer.* counters) and feeds the
//     per-batch bad-events-per-MAC rate into HealthTracker, where it
//     can drive Serving <-> Degraded independently of request
//     failures (HealthConfig::degrade_numeric_rate);
//   * on drain, a Prometheus-style text exposition of the whole
//     registry is written to exposition_path when configured.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "guard/guard.hpp"
#include "nn/health.hpp"
#include "nn/model.hpp"
#include "nn/resilience.hpp"
#include "quality/shadow.hpp"
#include "serve/backoff.hpp"
#include "serve/health.hpp"
#include "serve/overload.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "serve/retry_budget.hpp"

namespace nga::serve {

/// nga::guard supervision woven into the server (see guard/guard.hpp
/// and DESIGN.md "Supervision & self-healing"). All off by default;
/// existing configurations behave exactly as before.
struct SupervisionConfig {
  /// Master switch for the watchdog + per-replica circuit breakers.
  bool supervise = false;
  guard::WatchdogConfig watchdog;
  guard::BreakerConfig breaker;
  /// AIMD admission control; active when admission.enabled (usable
  /// with or without the watchdog/breakers).
  guard::AdmissionConfig admission;
  /// Golden inputs replayed by a breaker revalidation probe. The
  /// reference predictions come from the exact table at worker
  /// startup; the probe re-runs them down the suspect approximate
  /// path. Breakers need exact_fallback and kQuantApprox mode.
  int probe_samples = 6;
  /// Max prediction mismatches a passing probe may show.
  int probe_tolerance = 0;
  /// Where the probe's reference predictions come from. false (the
  /// default): the exact table — the probe then also flags legitimate
  /// approx-vs-exact drift on the golden inputs. true: the worker's
  /// OWN approximate path at startup, i.e. its clean-by-construction
  /// self — required for repair-driven reinstatement at
  /// probe_tolerance 0, where a fully repaired table must probe
  /// identical to its clean state even though it never agreed with the
  /// exact table on every argmax.
  bool probe_self_reference = false;
};

/// nga::integrity wiring (see integrity/scrubber.hpp and DESIGN.md
/// "State integrity & scrubbing"). Only meaningful together with
/// ServerConfig::mul_factory: per-worker tables are the unit the
/// scrubber verifies, repairs, and — through the breaker probe flow —
/// reinstates. All off by default.
struct IntegrityConfig {
  /// Register each worker's own table with the process Scrubber (and
  /// unregister it when the worker exits).
  bool enabled = false;
  /// When a tripped breaker's probe comes due, deep-scrub the worker's
  /// table BEFORE the golden probe runs: persistent corruption is
  /// repaired in place, so the probe revalidates restored storage
  /// (repair -> reprobe -> reinstate). An unreproducible page forces
  /// the probe verdict to fail — the breaker retires the replica, which
  /// is correct because its storage cannot be restored.
  bool scrub_on_trip = true;
  /// > 0: start() launches the background scrub thread at this
  /// pages/sec budget and drain() stops it.
  double pages_per_sec = 0.0;
  /// Fault-domain tag for every scrub registration this server's
  /// workers make (nga::shard sets "shard<i>"). drain() purges the
  /// whole scope from the process Scrubber as a backstop, so a killed
  /// or failed-over shard can never leak registry entries — whatever
  /// order its worker threads exited in.
  std::string scope;
};

struct ServerConfig {
  int workers = 2;
  std::size_t queue_capacity = 64;
  std::size_t max_batch = 8;
  /// How long a worker lingers for a batch to coalesce after the first
  /// request is in hand.
  std::chrono::microseconds batch_linger{200};

  /// Required input shape; submit() rejects anything else (kBadShape).
  int in_c = 0, in_h = 0, in_w = 0;

  nn::Mode mode = nn::Mode::kQuantExact;
  const nn::MulTable* mul = nullptr;  ///< active table (kQuantApprox)
  /// Builds one approximate table PER WORKER (kQuantApprox). When set,
  /// each worker serves from its own replica instead of the shared
  /// `mul` — persistent corruption (memflip) then damages one replica,
  /// not the fleet, and integrity scrubbing repairs replicas
  /// independently. The factory typically captures the owning
  /// ax::ApproxMult8 so the tables are regenerable (see nn::MulTable).
  std::function<std::shared_ptr<const nn::MulTable>()> mul_factory;
  /// Golden exact table: retry failover target and guard fallback.
  const nn::MulTable* exact_fallback = nullptr;
  /// Give each worker a ResilienceGuard over exact_fallback (layer-level
  /// recovery from PR 2, composing with the batch-level retry here).
  bool use_guard = false;

  /// CoDel-style sojourn control on the admission queue (queue.hpp):
  /// when the minimum queue delay stays above codel.target for a full
  /// codel.interval, the oldest requests are cut from the front
  /// (finished as kQueueDelay) so a standing queue cannot form. Off by
  /// default.
  CoDelConfig codel;

  /// Token-bucket retry budget: retries spend tokens that successes
  /// earn, so a retry storm cannot amplify overload (retry_budget.hpp).
  /// Enabled by default — the bucket's initial burst keeps isolated
  /// transient faults retryable exactly as before.
  RetryBudgetConfig retry_budget;

  /// Brownout ladder (overload.hpp). When overload.enabled, workers
  /// feed queue sojourn into an OverloadController and follow its tier:
  /// linger shrink, then progressively cheaper tables from
  /// brownout_tables, then fractional shed at the door.
  OverloadConfig overload;
  /// Cheaper approximate tables for the brownout rungs, one factory
  /// per rung, cheapest (highest-error) LAST. Same per-worker-replica
  /// contract as mul_factory; replicas are built lazily the first time
  /// a worker enters the rung.
  std::vector<std::function<std::shared_ptr<const nn::MulTable>()>>
      brownout_tables;

  /// Total batch executions a request may ride in; 1 disables retry.
  int max_attempts = 3;
  /// Run the last attempt on exact_fallback (when configured).
  bool retry_exact_failover = true;
  /// An attempt is transiently failed when this worker's fault
  /// detections during the batch exceed this count.
  util::u64 suspect_detections = 0;
  BackoffConfig backoff;
  util::u64 seed = 1;  ///< decorrelates the per-worker backoff jitter

  HealthConfig health;

  /// Fraction of requests traced end-to-end (head sampling at submit;
  /// see obs::start_trace). 0 disables request-scoped span recording —
  /// the stage-latency series and numeric-health channel stay on.
  double trace_sample_rate = 0.0;

  /// When non-empty, drain() writes a Prometheus-style text exposition
  /// of the metrics registry (obs::write_text_exposition) to this path.
  std::string exposition_path;

  /// Builds one model replica per worker (trained weights restored,
  /// calibration done). Required.
  std::function<std::unique_ptr<nn::Model>()> model_factory;

  SupervisionConfig supervision;
  IntegrityConfig integrity;

  /// Shadow-execution quality telemetry (nga::quality). With
  /// quality.sample_rate > 0 (requires kQuantApprox + exact_fallback),
  /// a seeded fraction of served requests is re-executed on the golden
  /// exact table in a low-priority shadow lane AFTER their reply
  /// resolves, and per-tier delivered-accuracy bins land in quality.*
  /// metrics and the "quality" JSON section. Rate 0 (the default) is
  /// zero-cost: no lane, no sampling arithmetic, no quality.* metrics.
  quality::QualityConfig quality;
};

class Server {
 public:
  explicit Server(ServerConfig cfg);
  ~Server();  ///< drains if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Spin up the worker pool and move Starting -> Serving.
  void start();

  /// Submit one sample with a latency budget (deadline = now + budget).
  /// The returned future ALWAYS resolves — immediately for rejections,
  /// otherwise when a worker delivers, sheds, or drain() completes.
  std::future<Response> submit(nn::Tensor x,
                               std::chrono::microseconds budget);
  std::future<Response> submit(nn::Tensor x, Clock::time_point deadline);
  /// As above, with a completion hook the layer above owns (see
  /// Request::on_finish): runs in finish() with the final Response on
  /// every terminal path, door rejects included. nga::shard uses it to
  /// release per-tenant budget tokens.
  std::future<Response> submit(nn::Tensor x, Clock::time_point deadline,
                               std::function<void(const Response&)> on_finish);

  /// Graceful shutdown: stop admission (further submits reject with
  /// kDraining), finish or shed every queued request, join the workers.
  /// Idempotent; after it returns, state() == kStopped and
  /// served + rejected + shed == submitted.
  void drain();

  State state() const { return state_.load(std::memory_order_acquire); }
  HealthTracker::Snapshot health() const { return health_.snapshot(); }

  struct Stats {
    util::u64 submitted = 0;
    util::u64 served = 0;
    util::u64 rejected = 0;
    util::u64 shed = 0;
    util::u64 retries = 0;  ///< extra batch executions beyond the first
    util::u64 batches = 0;  ///< batch executions, retries included
    util::u64 codel_dropped = 0;  ///< cut from the queue front (kQueueDelay)
    util::u64 overload_shed = 0;  ///< shed at the door on the Shed rung
    util::u64 budget_exhausted = 0;  ///< retries refused by the budget
  };
  Stats stats() const;

  /// Current overload-ladder tier (0 = Normal; see overload.hpp).
  int overload_tier() const { return overload_.tier(); }
  OverloadController::Stats overload_stats() const {
    return overload_.stats();
  }

  /// Shadow-lane accounting since start(); all zero with quality off.
  quality::ShadowLane::Stats quality_stats() const {
    return shadow_ ? shadow_->stats() : quality::ShadowLane::Stats{};
  }
  /// The quality-SLO verdict channel (observe-only: exported, never fed
  /// into the Serving <-> Degraded state machine this PR). The default
  /// verdict (no samples, nothing breached) when quality is off.
  quality::QualitySloTracker::Verdict quality_slo() const {
    return shadow_ ? shadow_->slo() : quality::QualitySloTracker::Verdict{};
  }

  /// Aggregated numeric-health accounting across all workers since
  /// start(): per-layer event counts (forward order, keyed
  /// "<index>.<layer name>") plus failover and batch totals. Mirrored
  /// into serve.layer.* / serve.failovers registry counters, so it also
  /// lands in the nga-bench-v1 JSON and the text exposition.
  struct NumericHealth {
    struct Layer {
      std::string name;
      nn::LayerHealthCounters counts;
    };
    std::vector<Layer> layers;
    util::u64 failovers = 0;  ///< exec attempts run on the exact table
    util::u64 batches = 0;    ///< batch attempts merged in
    nn::LayerHealthCounters total() const {
      nn::LayerHealthCounters t;
      for (const auto& l : layers) t += l.counts;
      return t;
    }
  };
  NumericHealth numeric_health() const;

  /// nga::guard supervision accounting since start(). All zero when
  /// supervision is off.
  struct GuardStats {
    util::u64 hangs_detected = 0;    ///< workers declared hung
    util::u64 workers_replaced = 0;  ///< successor workers spawned
    util::u64 requeues = 0;          ///< requests re-queued on replacement
    util::u64 redelivery_rejects = 0;  ///< over max_redeliveries
    util::u64 admission_rejects = 0;   ///< over the AIMD limit
    util::u64 quarantined_batches = 0;  ///< served on exact while not Closed
    util::u64 breaker_trips = 0;       ///< Closed -> Open
    util::u64 breaker_probes = 0;      ///< revalidation probes run
    util::u64 breaker_probe_failures = 0;
    util::u64 breaker_reinstated = 0;  ///< HalfOpen -> Closed
    util::u64 breaker_retired = 0;     ///< replicas permanently retired
    std::size_t admission_limit = 0;   ///< current AIMD limit (0 = off)
    // nga::integrity: the repair half of the probe flow.
    util::u64 trip_scrubs = 0;       ///< on-demand deep scrubs before probes
    util::u64 scrub_repaired = 0;    ///< pages repaired by trip scrubs
    util::u64 scrub_unreproducible = 0;  ///< pages that forced retirement
  };
  GuardStats guard_stats() const;

  std::size_t queue_depth() const { return queue_.size(); }

 private:
  struct WorkerHandle {
    std::thread thread;
    std::shared_ptr<guard::WorkerSlot> slot;
  };

  void worker_main(std::shared_ptr<guard::WorkerSlot> slot);
  /// Spawn one worker (initial pool or watchdog replacement); appends
  /// to workers_ under workers_m_.
  void spawn_worker(int id, int generation);
  /// Replay the golden inputs down @p mul (the worker's suspect
  /// approximate path); true iff at most probe_tolerance predictions
  /// differ from @p ref AND the numeric-plausibility detector stayed
  /// silent during the replay (detections prove residual corruption
  /// even when every argmax survives it).
  bool run_probe(nn::Model& model, const std::vector<int>& ref,
                 const nn::MulTable* mul);
  /// @p tier is the overload-ladder tier this batch executes under;
  /// @p active_mul is already the tier's table (worker_main resolves
  /// the rung's replica before dispatch).
  void process_batch(nn::Model& model, nn::ResilienceGuard* guard,
                     DecorrelatedBackoff& backoff,
                     nn::LayerHealthRecorder& health_rec,
                     std::vector<Request>& batch,
                     Clock::time_point first_at, guard::WorkerSlot* slot,
                     guard::CircuitBreaker* breaker,
                     const nn::MulTable* active_mul, int tier = 0);
  /// Hand a cancelled batch's live requests back to the queue (bounded
  /// redelivery); called by a worker that is being replaced.
  void requeue_batch(std::vector<Request>& live);
  /// Fold one batch's per-layer health deltas into numeric_ and the
  /// serve.layer.* counters, then window-reset the recorder.
  void merge_numeric(nn::LayerHealthRecorder& rec, int attempts,
                     util::u64 failovers);
  /// The single accounting choke point: resolves the promise and bumps
  /// exactly one of served/rejected/shed.
  void finish(Request& rq, Response r);
  void maybe_update_state(bool degraded_now);

  ServerConfig cfg_;
  BoundedQueue<Request> queue_;
  HealthTracker health_;
  OverloadController overload_;
  RetryBudget retry_budget_;
  mutable std::mutex workers_m_;  ///< workers_ (watchdog replacement races drain)
  std::vector<WorkerHandle> workers_;
  std::unique_ptr<guard::Watchdog> watchdog_;
  std::unique_ptr<guard::AimdLimiter> limiter_;
  bool breakers_enabled_ = false;
  std::vector<nn::Tensor> golden_;  ///< probe input set (deterministic)
  std::atomic<State> state_{State::kStarting};
  std::atomic<bool> accepting_{false};
  std::atomic<bool> drained_{false};
  std::atomic<u64> next_id_{1};
  std::atomic<u64> submitted_{0}, served_{0}, rejected_{0}, shed_{0},
      retries_{0}, batches_{0};
  std::atomic<u64> codel_dropped_{0}, overload_shed_{0}, budget_exhausted_{0};
  // Guard accounting (atomics: workers, monitor, and submitters race).
  std::atomic<u64> hangs_detected_{0}, workers_replaced_{0}, requeues_{0},
      redelivery_rejects_{0}, admission_rejects_{0}, quarantined_batches_{0},
      breaker_trips_{0}, breaker_probes_{0}, breaker_probe_failures_{0},
      breaker_reinstated_{0}, breaker_retired_{0}, trip_scrubs_{0},
      scrub_repaired_{0}, scrub_unreproducible_{0};
  bool scrubber_started_ = false;  ///< this server owns the scrub thread
  mutable std::mutex numeric_m_;
  NumericHealth numeric_;
  std::mutex drain_m_;
  /// Shadow-execution quality lane (nga::quality); null at rate 0 — the
  /// null check is the serving path's entire quality cost.
  std::unique_ptr<quality::ShadowLane> shadow_;
};

}  // namespace nga::serve

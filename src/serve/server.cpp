#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "fault/fault.hpp"
#include "integrity/scrubber.hpp"
#include "obs/obs.hpp"

namespace nga::serve {

namespace {

// Registry references are stable for the process lifetime, so one
// lookup per metric is enough (the serve path is warm, not a MAC loop).
obs::Counter& c(const char* name) {
  return obs::MetricsRegistry::instance().counter(name);
}
obs::Gauge& g(const char* name) {
  return obs::MetricsRegistry::instance().gauge(name);
}
obs::ValueSeries& s(const char* name) {
  return obs::MetricsRegistry::instance().series(name);
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Steady-clock time point -> the process-relative ns epoch the trace
// buffer uses (obs::now_ns reads the same clock).
util::u64 to_ns(Clock::time_point t) {
  return util::u64(std::chrono::duration_cast<std::chrono::nanoseconds>(
                       t.time_since_epoch())
                       .count());
}

// Record one child span of a sampled request's timeline.
void span(const obs::TraceContext& ctx, const char* name,
          Clock::time_point from, Clock::time_point to) {
  if (!ctx.sampled || to < from) return;
  obs::TraceBuffer::instance().record_span(ctx, name, to_ns(from),
                                           to_ns(to) - to_ns(from),
                                           ctx.root_span);
}

// Per-batch numeric error rate: bad arithmetic events per MAC. With
// NGA_OBS=0 the MAC counter is elided (macs == 0) and the rate
// degenerates to the raw fault-detection count — still monotone in
// badness, just unnormalized; thresholds are configured per build.
double numeric_rate_of(const nn::LayerHealthCounters& d) {
  const util::u64 bad = d.nar + d.saturation + d.fault_detected;
  return double(bad) / double(d.macs ? d.macs : 1);
}

int argmax(const nn::Tensor& t) {
  if (t.v.empty()) return -1;
  return int(std::max_element(t.v.begin(), t.v.end()) - t.v.begin());
}

bool has_nonfinite(const nn::Tensor& t) {
  for (float v : t.v)
    if (!std::isfinite(v)) return true;
  return false;
}

// splitmix64 step, for decorrelating per-worker backoff streams.
util::u64 mix(util::u64 x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

Server::Server(ServerConfig cfg)
    : cfg_(std::move(cfg)),
      queue_(cfg_.queue_capacity, cfg_.codel),
      health_(cfg_.health),
      overload_(cfg_.overload, int(cfg_.brownout_tables.size())),
      retry_budget_(cfg_.retry_budget) {
  if (!cfg_.model_factory)
    throw std::invalid_argument("ServerConfig::model_factory is required");
  if (cfg_.workers < 1) cfg_.workers = 1;
  if (cfg_.max_batch < 1) cfg_.max_batch = 1;
  if (cfg_.max_attempts < 1) cfg_.max_attempts = 1;
  if (cfg_.mode != nn::Mode::kFloat && !cfg_.mul &&
      !(cfg_.mul_factory && cfg_.mode == nn::Mode::kQuantApprox))
    throw std::invalid_argument("quantized serving needs a MulTable");
  if (cfg_.use_guard && !cfg_.exact_fallback)
    throw std::invalid_argument(
        "use_guard needs exact_fallback (a guard without a fallback "
        "reports recovery it cannot perform)");
  if (cfg_.quality.sample_rate > 0.0 &&
      (cfg_.mode != nn::Mode::kQuantApprox || !cfg_.exact_fallback))
    throw std::invalid_argument(
        "quality shadowing needs kQuantApprox mode and exact_fallback "
        "(the shadow compares the approximate path against the golden "
        "exact table)");

  const SupervisionConfig& sup = cfg_.supervision;
  // Breakers need the suspect/golden table split: quarantine means
  // "serve on exact", and probes compare approx against exact.
  breakers_enabled_ = sup.supervise && cfg_.exact_fallback &&
                      cfg_.mode == nn::Mode::kQuantApprox &&
                      sup.probe_samples > 0;
  if (sup.admission.enabled)
    limiter_ = std::make_unique<guard::AimdLimiter>(sup.admission);
  if (sup.supervise)
    watchdog_ = std::make_unique<guard::Watchdog>(
        sup.watchdog, [this](const std::shared_ptr<guard::WorkerSlot>& s) {
          hangs_detected_.fetch_add(1, std::memory_order_relaxed);
          c("serve.guard.hang_detected").inc();
          spawn_worker(s->id, s->generation + 1);
        });
  if (breakers_enabled_) {
    // Golden probe inputs: deterministic in the server seed, shape
    // correct, values in [0,1) like the normalized features the nets
    // train on.
    util::Xoshiro256 rng(mix(cfg_.seed ^ 0xA11CE5ull));
    golden_.reserve(std::size_t(sup.probe_samples));
    for (int i = 0; i < sup.probe_samples; ++i) {
      nn::Tensor t(cfg_.in_c, cfg_.in_h, cfg_.in_w);
      for (auto& v : t.v) v = float(double(rng() >> 11) * 0x1.0p-53);
      golden_.push_back(std::move(t));
    }
  }
  // Deadline-aware linger (queue.hpp): the queue can read each
  // request's deadline, so batch coalescing never out-waits the
  // tightest deadline it is holding.
  queue_.set_deadline_of([](const Request& rq) { return rq.deadline; });
  if (cfg_.overload.enabled) {
    // Bring up the process overload telemetry (counters, tier gauge,
    // the additive "overload" JSON section) and pre-register every
    // tier this ladder can reach — the metric schema must depend on
    // the config, never on whether traffic actually hit a tier.
    OverloadTelemetry::instance().ensure_tiers(overload_.max_tier());
    overload_.set_on_change([](int from, int to) {
      if (to > from)
        c("serve.overload.escalations").inc();
      else
        c("serve.overload.deescalations").inc();
      g("serve.overload.tier").set(double(to));
    });
  }
  if (cfg_.quality.sample_rate > 0.0) {
    // First touch of the quality telemetry in the process (rate 0 never
    // gets here — the quality.* schema stays absent, which CI asserts).
    // Pre-register every tier bin the ladder can reach and label each
    // with the multiplier it executes, so the schema and the operator
    // keys depend on the config, never on traffic.
    auto& qt = quality::QualityTelemetry::instance();
    const int max_tier = cfg_.overload.enabled ? overload_.max_tier() : 0;
    qt.ensure_tiers(max_tier);
    for (int t = 0; t <= max_tier; ++t) {
      const int bi = overload_.brownout_index(t);
      qt.set_tier_operator(
          t, bi >= 0 && bi < int(cfg_.brownout_tables.size())
                 ? "brownout." + std::to_string(bi)
                 : "configured");
    }
  }
  g("serve.state").set(double(State::kStarting));
  // Help text for the headline serving counters: rendered as # HELP
  // lines in the text exposition written at drain, where a reader
  // without this codebase open reads them.
  auto& reg = obs::MetricsRegistry::instance();
  reg.counter("serve.submitted", "Requests handed to submit().");
  reg.counter("serve.served", "Requests served to completion.");
  reg.counter("serve.rejected",
              "Requests rejected (validation, overload, drain, limits).");
  reg.counter("serve.shed", "Requests shed on an expired deadline.");
  reg.counter("serve.retries",
              "Extra batch executions beyond each batch's first attempt.");
  reg.counter("serve.batches", "Batch executions, retries included.");
  // Pre-register the event-driven counters so every run exports the
  // full family at zero. Rare outcomes (a retired replica, an overload
  // burst) must not make the instrumentation schema run-dependent —
  // bench_diff treats a vanished counter family as a regression.
  for (const char* name :
       {"serve.overloaded", "serve.guard.hang_detected",
        "serve.guard.worker_replaced", "serve.guard.admission_rejected",
        "serve.guard.requeued", "serve.guard.redelivery_rejected",
        "serve.guard.quarantined_batches", "serve.guard.breaker.tripped",
        "serve.guard.breaker.probe", "serve.guard.breaker.probe_failed",
        "serve.guard.breaker.reinstated", "serve.guard.breaker.retired",
        "serve.guard.trip_scrub", "serve.guard.scrub_repaired",
        "serve.guard.scrub_unreproducible", "serve.codel.dropped",
        "serve.retry.budget_exhausted"})
    c(name);
  reg.describe("serve.retry.budget_exhausted",
               "Retries refused because the token-bucket retry budget "
               "was dry (the batch fails fast instead of storming).");
}

Server::~Server() { drain(); }

void Server::start() {
  std::lock_guard<std::mutex> lk(drain_m_);
  if (drained_.load()) return;
  {
    std::lock_guard<std::mutex> wlk(workers_m_);
    if (!workers_.empty()) return;
  }
  for (int i = 0; i < cfg_.workers; ++i) spawn_worker(i, 0);
  if (watchdog_) watchdog_->start();
  // Quality shadow lane (nga::quality): its own model replica and its
  // own tier-table replicas, built off the serving path. Workers hand
  // it sampled (input, served logits, tier) snapshots after the reply
  // resolves; it re-executes them on the golden exact table.
  if (cfg_.quality.sample_rate > 0.0) {
    quality::ShadowLaneConfig lc;
    lc.quality = cfg_.quality;
    lc.mode = cfg_.mode;
    lc.model_factory = cfg_.model_factory;
    lc.exact = cfg_.exact_fallback;
    if (cfg_.quality.attribution_every > 0) {
      // Lane-owned replicas of the tier tables for the attribution
      // dual-run (same per-replica ownership story as the workers).
      const nn::MulTable* base = cfg_.mul;
      if (cfg_.mul_factory) {
        auto owned = cfg_.mul_factory();
        if (owned) {
          base = owned.get();
          lc.owned_tables.push_back(std::move(owned));
        }
      }
      std::vector<const nn::MulTable*> rungs;
      for (const auto& f : cfg_.brownout_tables) {
        auto owned = f ? f() : nullptr;
        rungs.push_back(owned ? owned.get() : nullptr);
        if (owned) lc.owned_tables.push_back(std::move(owned));
      }
      lc.tier_table = [this, base, rungs](int tier) -> const nn::MulTable* {
        const int bi = overload_.brownout_index(tier);
        if (bi >= 0 && bi < int(rungs.size()) && rungs[std::size_t(bi)])
          return rungs[std::size_t(bi)];
        return base;
      };
    }
    // In-flight probe: the lane defers shadow forwards while a request
    // is anywhere between submit and reply, scavenging idle gaps —
    // four relaxed atomic loads, no locks.
    lc.busy = [this] {
      const u64 done = served_.load(std::memory_order_relaxed) +
                       rejected_.load(std::memory_order_relaxed) +
                       shed_.load(std::memory_order_relaxed);
      return submitted_.load(std::memory_order_relaxed) > done;
    };
    shadow_ = std::make_unique<quality::ShadowLane>(std::move(lc));
    shadow_->start();
  }
  // Background scrubbing for the serving lifetime. The Scrubber is
  // process-wide; this server only claims the thread it started.
  if (cfg_.integrity.enabled && cfg_.integrity.pages_per_sec > 0.0) {
    integrity::ScrubberConfig sc;
    sc.pages_per_sec = cfg_.integrity.pages_per_sec;
    integrity::Scrubber::instance().start(sc);
    scrubber_started_ = true;
  }
  accepting_.store(true, std::memory_order_release);
  State expect = State::kStarting;
  state_.compare_exchange_strong(expect, State::kServing);
  g("serve.state").set(double(state()));
}

void Server::spawn_worker(int id, int generation) {
  std::shared_ptr<guard::WorkerSlot> slot;
  if (watchdog_) {
    slot = watchdog_->make_slot(id, generation);
  } else {
    // Unsupervised workers still get a slot (uniform worker_main); it
    // is simply never monitored or cancelled.
    slot = std::make_shared<guard::WorkerSlot>();
    slot->id = id;
    slot->generation = generation;
  }
  if (generation > 0) {
    workers_replaced_.fetch_add(1, std::memory_order_relaxed);
    c("serve.guard.worker_replaced").inc();
  }
  std::lock_guard<std::mutex> lk(workers_m_);
  WorkerHandle h;
  h.slot = slot;
  h.thread = std::thread(&Server::worker_main, this, slot);
  workers_.push_back(std::move(h));
}

std::future<Response> Server::submit(nn::Tensor x,
                                     std::chrono::microseconds budget) {
  return submit(std::move(x), Clock::now() + budget);
}

std::future<Response> Server::submit(nn::Tensor x, Clock::time_point deadline) {
  return submit(std::move(x), deadline, {});
}

std::future<Response> Server::submit(
    nn::Tensor x, Clock::time_point deadline,
    std::function<void(const Response&)> on_finish) {
  const auto t0 = Clock::now();
  submitted_.fetch_add(1, std::memory_order_relaxed);
  c("serve.submitted").inc();

  Request rq;
  rq.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  rq.x = std::move(x);
  rq.submit_time = t0;
  rq.deadline = deadline;
  rq.trace = obs::start_trace(cfg_.trace_sample_rate);
  rq.on_finish = std::move(on_finish);
  auto fut = rq.promise.get_future();

  if (!accepting_.load(std::memory_order_acquire)) {
    const State st = state();
    const RejectReason why = (st == State::kDraining || st == State::kStopped)
                                 ? RejectReason::kDraining
                                 : RejectReason::kNotServing;
    finish(rq, {Outcome::kRejected, why});
    return fut;
  }
  if (rq.x.c != cfg_.in_c || rq.x.h != cfg_.in_h || rq.x.w != cfg_.in_w ||
      rq.x.v.size() != std::size_t(cfg_.in_c * cfg_.in_h * cfg_.in_w)) {
    finish(rq, {Outcome::kRejected, RejectReason::kBadShape});
    return fut;
  }
  if (has_nonfinite(rq.x)) {
    finish(rq, {Outcome::kRejected, RejectReason::kNonFinite});
    return fut;
  }
  if (deadline <= t0) {
    finish(rq, {Outcome::kShed, RejectReason::kNone});
    return fut;
  }
  // Last rung of the brownout ladder: shed a deterministic fraction at
  // the door, before the request costs an AIMD token or queue space.
  // Every accuracy trade has already been made by the time the ladder
  // stands here.
  if (cfg_.overload.enabled && overload_.at_shed() && overload_.shed_due()) {
    overload_shed_.fetch_add(1, std::memory_order_relaxed);
    c("serve.overload.shed").inc();
    finish(rq, {Outcome::kRejected, RejectReason::kBrownoutShed});
    return fut;
  }
  // Adaptive admission (nga::guard): refuse work beyond the AIMD
  // in-flight limit at the door, before it burns queue and exec time.
  if (limiter_) {
    if (!limiter_->try_acquire()) {
      admission_rejects_.fetch_add(1, std::memory_order_relaxed);
      c("serve.guard.admission_rejected").inc();
      finish(rq, {Outcome::kRejected, RejectReason::kAdmissionLimited});
      return fut;
    }
    rq.admitted = true;
  }

  switch (queue_.try_push(std::move(rq))) {
    case BoundedQueue<Request>::Push::kOk:
      g("serve.queue.depth").set(double(queue_.size()));
      return fut;
    case BoundedQueue<Request>::Push::kFull:
      c("serve.overloaded").inc();
      finish(rq, {Outcome::kRejected, RejectReason::kOverloaded});
      return fut;
    case BoundedQueue<Request>::Push::kClosed:
      finish(rq, {Outcome::kRejected, RejectReason::kDraining});
      return fut;
  }
  return fut;  // unreachable
}

void Server::finish(Request& rq, Response r) {
  const auto now = Clock::now();
  r.id = rq.id;
  r.latency_ms = ms_between(rq.submit_time, now);
  if (rq.admitted) {
    // Return the AIMD token with this request's fate; the limiter
    // adapts on observed completion latency and shed rate.
    rq.admitted = false;
    limiter_->release(r.latency_ms, r.outcome == Outcome::kShed);
    g("serve.guard.admission.limit").set(double(limiter_->limit()));
  }
  if (rq.trace.sampled) {
    r.trace_id = rq.trace.trace_id;
    // Root span: the whole submit -> resolution lifetime, closed with
    // the pre-allocated root id so the child spans' parent resolves.
    obs::TraceBuffer::instance().record_span(
        rq.trace, std::string("request.") + std::string(outcome_name(r.outcome)),
        to_ns(rq.submit_time), to_ns(now) - to_ns(rq.submit_time),
        /*parent_span=*/0, rq.trace.root_span);
  }
  // Layer-above hook (nga::shard tenant budgets): the Response is
  // final here, and this is the one choke point every terminal path
  // funnels through — the hook sees door rejects and drains too.
  if (rq.on_finish) rq.on_finish(r);
  switch (r.outcome) {
    case Outcome::kServed:
      served_.fetch_add(1, std::memory_order_relaxed);
      c("serve.served").inc();
      s("serve.latency_ms").add(r.latency_ms);
      break;
    case Outcome::kRejected:
      rejected_.fetch_add(1, std::memory_order_relaxed);
      c("serve.rejected").inc();
      break;
    case Outcome::kShed:
      shed_.fetch_add(1, std::memory_order_relaxed);
      c("serve.shed").inc();
      break;
  }
  rq.promise.set_value(std::move(r));
}

void Server::worker_main(std::shared_ptr<guard::WorkerSlot> slot) {
  std::string lane = "serve.worker." + std::to_string(slot->id);
  if (slot->generation > 0) lane += ".g" + std::to_string(slot->generation);
  obs::TraceBuffer::instance().set_thread_name(lane);
  // Injected hangs on this thread abort the moment the watchdog
  // cancels us — replacement latency is detection time, not the full
  // injected stall.
  fault::Injector::set_thread_interrupt(slot->cancel.flag());

  auto model = cfg_.model_factory();
  // Per-replica approximate table (nga::integrity): with mul_factory
  // every worker serves from its own copy, so persistent corruption
  // (memflip) damages ONE replica and the scrubber repairs replicas
  // independently — shared `mul` would make every breaker trip at once.
  std::shared_ptr<const nn::MulTable> own_table;
  const nn::MulTable* active_mul = cfg_.mul;
  if (cfg_.mul_factory && cfg_.mode == nn::Mode::kQuantApprox) {
    own_table = cfg_.mul_factory();
    if (own_table) active_mul = own_table.get();
  }
  auto& scrubber = integrity::Scrubber::instance();
  const bool scrub_registered = cfg_.integrity.enabled && own_table != nullptr;
  if (scrub_registered) {
    const std::string reg_name =
        cfg_.integrity.scope.empty() ? lane : cfg_.integrity.scope + "." + lane;
    scrubber.register_table(own_table, reg_name, cfg_.integrity.scope);
  }
  std::unique_ptr<nn::ResilienceGuard> guard;
  if (cfg_.use_guard)
    guard = std::make_unique<nn::ResilienceGuard>(cfg_.exact_fallback);
  DecorrelatedBackoff backoff(
      cfg_.backoff, mix(cfg_.seed ^ mix(util::u64(slot->id) * 131 +
                                        util::u64(slot->generation) + 1)));
  nn::LayerHealthRecorder health_rec;

  // Per-replica circuit breaker + the exact-table reference its
  // revalidation probes compare against. The exact table is the golden
  // unit (never fault-injected), so the reference is clean even when a
  // chaos plan is armed.
  std::unique_ptr<guard::CircuitBreaker> breaker;
  std::vector<int> golden_ref;
  if (breakers_enabled_) {
    breaker = std::make_unique<guard::CircuitBreaker>(cfg_.supervision.breaker);
    nn::Exec ex;
    ex.mode = cfg_.mode;
    // probe_self_reference: the reference is this replica's OWN clean
    // approximate path, captured now, before any fault plan can have
    // corrupted it (serving has not started). A repaired table then
    // probes back to exactly these predictions.
    ex.mul = cfg_.supervision.probe_self_reference ? active_mul
                                                   : cfg_.exact_fallback;
    golden_ref.reserve(golden_.size());
    for (const auto& x : golden_)
      golden_ref.push_back(argmax(model->forward(x, ex)));
  }

  // Lazily-built brownout replicas: one table per configured rung,
  // built the first time THIS worker enters the rung (same per-replica
  // ownership story as own_table above).
  std::vector<std::shared_ptr<const nn::MulTable>> brownout(
      cfg_.brownout_tables.size());

  std::vector<Request> batch;
  std::vector<Request> dropped;
  Clock::time_point first_at;
  for (;;) {
    // The ladder's first rung trades batching latency away: stop
    // holding requests to coalesce batches the moment sojourn says the
    // queue is standing.
    const int pre_tier = cfg_.overload.enabled ? overload_.tier() : 0;
    const auto linger =
        pre_tier >= 1 ? std::chrono::microseconds{0} : cfg_.batch_linger;
    double min_sojourn_ms = -1.0;
    dropped.clear();
    if (!queue_.pop_batch(cfg_.max_batch, linger, batch, &first_at, &dropped,
                          &min_sojourn_ms))
      break;
    g("serve.queue.depth").set(double(queue_.size()));
    // CoDel cut these from the front of a standing queue: their slack
    // was already gone — resolve them now as queue-delay rejections so
    // the capacity they would have burned serves the fresher requests
    // behind them.
    if (!dropped.empty()) {
      codel_dropped_.fetch_add(dropped.size(), std::memory_order_relaxed);
      c("serve.codel.dropped").inc(dropped.size());
      for (auto& rq : dropped)
        finish(rq, {Outcome::kRejected, RejectReason::kQueueDelay});
      dropped.clear();
    }
    if (cfg_.overload.enabled && min_sojourn_ms >= 0.0)
      overload_.observe(min_sojourn_ms, Clock::now());
    if (batch.empty()) continue;  // everything in hand was CoDel-cut
    if (slot->replaced.load(std::memory_order_acquire)) {
      // Cancelled in the window between finishing the previous batch
      // and popping this one: the successor owns the lane — hand the
      // work straight back.
      requeue_batch(batch);
      batch.clear();
      break;
    }
    // Quarantined replica + cooldown elapsed: revalidate under
    // traffic, before serving the popped batch.
    if (breaker && breaker->probe_due() && breaker->begin_probe()) {
      // Repair before reprobe (nga::integrity): deep-scrub this
      // replica's table so the probe revalidates RESTORED storage. A
      // trip caused purely by persistent LUT corruption then ends in
      // reinstatement; without the scrub the corruption is still there
      // and the probe loop can only retire the replica.
      bool scrub_ok = true;
      if (scrub_registered && cfg_.integrity.scrub_on_trip) {
        trip_scrubs_.fetch_add(1, std::memory_order_relaxed);
        c("serve.guard.trip_scrub").inc();
        const auto ds = scrubber.deep_scrub(*own_table);
        if (ds.repaired > 0) {
          scrub_repaired_.fetch_add(ds.repaired, std::memory_order_relaxed);
          c("serve.guard.scrub_repaired").inc(ds.repaired);
        }
        if (ds.unreproducible > 0) {
          scrub_unreproducible_.fetch_add(ds.unreproducible,
                                          std::memory_order_relaxed);
          c("serve.guard.scrub_unreproducible").inc(ds.unreproducible);
          // Storage cannot be restored; fail the probe so the breaker
          // walks its max_probe_failures path to retirement.
          scrub_ok = false;
        }
      }
      breaker_probes_.fetch_add(1, std::memory_order_relaxed);
      c("serve.guard.breaker.probe").inc();
      const bool pass = scrub_ok && run_probe(*model, golden_ref, active_mul);
      if (!pass) {
        breaker_probe_failures_.fetch_add(1, std::memory_order_relaxed);
        c("serve.guard.breaker.probe_failed").inc();
      }
      switch (breaker->end_probe(pass)) {
        case guard::CircuitBreaker::ProbeResult::kReinstated:
          breaker_reinstated_.fetch_add(1, std::memory_order_relaxed);
          c("serve.guard.breaker.reinstated").inc();
          break;
        case guard::CircuitBreaker::ProbeResult::kRetired:
          breaker_retired_.fetch_add(1, std::memory_order_relaxed);
          c("serve.guard.breaker.retired").inc();
          break;
        case guard::CircuitBreaker::ProbeResult::kReopened:
        case guard::CircuitBreaker::ProbeResult::kIgnored:
          break;
      }
    }
    // Brownout rung: swap THIS batch onto the tier's cheaper table.
    // Normal, LingerOff, and Shed all run the configured table (Shed
    // keeps the cheapest for what it still admits via brownout_index).
    const int tier = cfg_.overload.enabled ? overload_.tier() : 0;
    const nn::MulTable* tier_mul = active_mul;
    if (cfg_.mode == nn::Mode::kQuantApprox) {
      const int bi = overload_.brownout_index(tier);
      if (bi >= 0 && bi < int(brownout.size())) {
        if (!brownout[std::size_t(bi)])
          brownout[std::size_t(bi)] = cfg_.brownout_tables[std::size_t(bi)]();
        if (brownout[std::size_t(bi)])
          tier_mul = brownout[std::size_t(bi)].get();
      }
    }
    process_batch(*model, guard.get(), backoff, health_rec, batch, first_at,
                  slot.get(), breaker.get(), tier_mul, tier);
    batch.clear();
    if (slot->replaced.load(std::memory_order_acquire)) break;
  }
  if (scrub_registered) scrubber.unregister_table(own_table.get());
  fault::Injector::set_thread_interrupt(nullptr);
}

bool Server::run_probe(nn::Model& model, const std::vector<int>& ref,
                       const nn::MulTable* mul) {
  // TimedSection: the probe lands as a section counter AND a
  // chrome-trace span on the worker's lane.
  obs::TimedSection ts("serve.guard.probe");
  nn::Exec ex;
  ex.mode = cfg_.mode;
  ex.mul = mul;  // the SUSPECT approximate path, not the fallback
  // Detection-aware: the plausibility screen (p > pmax) firing during
  // the golden replay proves the path is still numerically corrupt even
  // when every argmax happens to survive the perturbation — persistent
  // LUT corruption routinely masks this way. Such a probe must fail.
  const util::u64 det0 = fault::Injector::thread_detected();
  int mismatches = 0;
  for (std::size_t i = 0; i < golden_.size() && i < ref.size(); ++i)
    if (argmax(model.forward(golden_[i], ex)) != ref[i]) ++mismatches;
  if (fault::Injector::thread_detected() != det0) return false;
  return mismatches <= cfg_.supervision.probe_tolerance;
}

void Server::requeue_batch(std::vector<Request>& live) {
  const int max_rd = cfg_.supervision.watchdog.max_redeliveries;
  const auto now = Clock::now();
  for (auto& rq : live) {
    if (rq.deadline <= now) {
      finish(rq, {Outcome::kShed, RejectReason::kNone});
      continue;
    }
    if (rq.redeliveries >= max_rd) {
      // Poison-batch bound: this request already rode a replaced
      // worker max_redeliveries times; stop the loop.
      redelivery_rejects_.fetch_add(1, std::memory_order_relaxed);
      c("serve.guard.redelivery_rejected").inc();
      finish(rq, {Outcome::kRejected, RejectReason::kRedeliveryLimit});
      continue;
    }
    ++rq.redeliveries;
    requeues_.fetch_add(1, std::memory_order_relaxed);
    c("serve.guard.requeued").inc();
    // requeue() bypasses capacity and only fails when the queue is
    // closed — in which case rq was NOT consumed and must resolve
    // here to keep the drain invariant.
    if (queue_.requeue(std::move(rq)) != BoundedQueue<Request>::Push::kOk)
      finish(rq, {Outcome::kRejected, RejectReason::kDraining});
  }
  live.clear();
}

void Server::process_batch(nn::Model& model, nn::ResilienceGuard* guard,
                           DecorrelatedBackoff& backoff,
                           nn::LayerHealthRecorder& health_rec,
                           std::vector<Request>& batch,
                           Clock::time_point first_at,
                           guard::WorkerSlot* slot,
                           guard::CircuitBreaker* breaker,
                           const nn::MulTable* active_mul, int tier) {
  // Shed before batching: a request whose deadline already passed must
  // not burn model time.
  std::vector<Request> live;
  live.reserve(batch.size());
  auto now = Clock::now();
  for (auto& rq : batch) {
    if (rq.deadline <= now)
      finish(rq, {Outcome::kShed, RejectReason::kNone});
    else
      live.push_back(std::move(rq));
  }
  if (live.empty()) return;
  s("serve.batch_size").add(double(live.size()));
  // Per-tier traffic mix: how much of the served load ran on which
  // rung of the ladder — the auditable accuracy cost of a brownout.
  if (cfg_.overload.enabled)
    OverloadTelemetry::instance().record_batch(tier, util::u64(live.size()));

  // Stage attribution: queue_wait ends when the first batch item was in
  // the worker's hand; everything from there to dispatch (linger, the
  // shedding scan, marshalling) is batch coalescing.
  const auto dispatch_at = Clock::now();
  auto& queue_wait_s = s("serve.stage.queue_wait_ms");
  auto& batch_fill_s = s("serve.stage.batch_fill_ms");
  auto& exec_s = s("serve.stage.exec_ms");
  auto& backoff_s = s("serve.stage.retry_backoff_ms");
  for (const auto& rq : live) {
    // A request admitted during the linger window never queued: its
    // wait is zero and its fill stage starts at its own submit.
    const auto wait_end = std::max(rq.submit_time, first_at);
    queue_wait_s.add(ms_between(rq.submit_time, wait_end));
    batch_fill_s.add(ms_between(wait_end, dispatch_at));
    span(rq.trace, "queue_wait", rq.submit_time, wait_end);
    span(rq.trace, "batch_fill", wait_end, dispatch_at);
  }

  int attempt = 0;
  util::u64 failovers = 0;
  for (;;) {
    ++attempt;
    batches_.fetch_add(1, std::memory_order_relaxed);
    c("serve.batches").inc();

    const bool failover = cfg_.retry_exact_failover && cfg_.exact_fallback &&
                          attempt > 1 && attempt == cfg_.max_attempts;
    if (failover) {
      ++failovers;
      c("serve.failovers").inc();
    }
    // Quarantine (circuit breaker not Closed): this replica's
    // approximate path is suspect or retired — serve on the golden
    // exact table until a probe reinstates it.
    const bool quarantined =
        breaker && breaker->state() != guard::BreakerState::kClosed;
    if (quarantined) {
      quarantined_batches_.fetch_add(1, std::memory_order_relaxed);
      c("serve.guard.quarantined_batches").inc();
    }
    nn::Exec ex;
    ex.mode = cfg_.mode;
    ex.mul = (failover || quarantined) ? cfg_.exact_fallback : active_mul;
    ex.guard = guard;
    ex.health = &health_rec;
    ex.cancel = slot->cancel.flag();
    ex.heartbeat = &slot->heartbeat;

    const nn::LayerHealthCounters health0 = health_rec.total();
    const util::u64 det0 = fault::Injector::thread_detected();
    const util::u64 trip0 = guard ? guard->report().trips : 0;
    const util::u64 rec0 = guard ? guard->report().recovered_layers : 0;

    std::vector<const nn::Tensor*> xs;
    xs.reserve(live.size());
    for (const auto& rq : live) xs.push_back(&rq.x);

    // Watchdog bookkeeping: mark this worker busy with the batch's own
    // latency budget (the most generous live deadline) for the exec
    // only — backoff sleeps are bounded and not hang-suspect.
    if (slot) {
      util::u64 budget = 0;
      const auto exec_start = Clock::now();
      for (const auto& rq : live)
        if (rq.deadline > exec_start)
          budget = std::max(budget, to_ns(rq.deadline) - to_ns(exec_start));
      slot->budget_ns.store(budget, std::memory_order_relaxed);
    }

    std::vector<nn::Tensor> ys;
    double exec_ms = 0;
    const auto exec_from = Clock::now();
    if (slot) slot->busy_since_ns.store(to_ns(exec_from),
                                        std::memory_order_release);
    {
      obs::ScopedTimer t("serve.exec");
      ys = model.forward_batch(xs, ex);
      exec_ms = double(t.elapsed_ns()) * 1e-6;
    }
    if (slot) slot->busy_since_ns.store(0, std::memory_order_release);
    const auto exec_to = Clock::now();
    for (const auto& rq : live) {
      exec_s.add(exec_ms);
      span(rq.trace, failover ? "exec.failover" : "exec", exec_from, exec_to);
    }

    // Cancelled mid-exec (watchdog replacement): whatever came back is
    // partial/untrustworthy. Hand the live requests back to the queue
    // for a healthy worker and get out of the way.
    if (slot && slot->cancel.cancelled()) {
      merge_numeric(health_rec, attempt, failovers);
      requeue_batch(live);
      return;
    }

    // Transient-failure signal: this worker's own fault detections
    // (thread-local, so another worker's faults are not attributed
    // here), unrecovered guard trips, or non-finite logits.
    const util::u64 det = fault::Injector::thread_detected() - det0;
    bool nonfinite = false;
    for (const auto& y : ys) nonfinite = nonfinite || has_nonfinite(y);
    bool suspect = det > cfg_.suspect_detections || nonfinite;
    if (guard) {
      const util::u64 trips = guard->report().trips - trip0;
      const util::u64 rec = guard->report().recovered_layers - rec0;
      if (trips > rec)
        suspect = true;  // tripped and could not repair
      else if (trips > 0 && trips == rec && !nonfinite)
        suspect = false;  // layer-level recovery already fixed the batch
    }

    // Per-replica breaker verdict. Only attempts that ran the suspect
    // approximate path count: failover/quarantined attempts ran on the
    // golden table and say nothing about this replica's own unit.
    if (breaker && !failover && !quarantined && breaker->record(!suspect)) {
      breaker_trips_.fetch_add(1, std::memory_order_relaxed);
      c("serve.guard.breaker.tripped").inc();
    }

    // Numeric-health channel: this attempt's bad-events-per-MAC rate
    // rides into the health window alongside the pass/fail verdict.
    nn::LayerHealthCounters hdelta = health_rec.total();
    hdelta.nar -= health0.nar;
    hdelta.saturation -= health0.saturation;
    hdelta.fault_detected -= health0.fault_detected;
    hdelta.requant_clips -= health0.requant_clips;
    hdelta.macs -= health0.macs;
    const double numeric_rate = numeric_rate_of(hdelta);
    s("serve.numeric.batch_rate").add(numeric_rate);

    maybe_update_state(health_.record(!suspect, exec_ms, numeric_rate));

    if (!suspect) {
      backoff.reset();
      merge_numeric(health_rec, attempt, failovers);
      now = Clock::now();
      std::size_t served_n = 0;
      // This attempt ran on the golden exact table, not the tier's
      // approximate one: quality attribution must know (exact-vs-exact
      // shadows would inflate the tier's measured agreement).
      const bool exact_path = failover || quarantined;
      quality::ShadowLane* lane = shadow_.get();
      for (std::size_t i = 0; i < live.size(); ++i) {
        Response r;
        r.attempts = attempt;
        r.tier = tier;
        r.exact_path = exact_path;
        bool served_now = false;
        if (live[i].deadline <= now) {
          // Shed after batching: computed too late to honour the SLO.
          r.outcome = Outcome::kShed;
        } else {
          r.outcome = Outcome::kServed;
          r.predicted = argmax(ys[i]);
          served_now = true;
          ++served_n;
        }
        const u64 rq_id = live[i].id;
        finish(live[i], std::move(r));
        // Shadow sampling, AFTER the reply resolved: the lane gets a
        // snapshot (input moved out of the finished request, logits
        // moved out of ys) and the serving path moves on. With quality
        // off, lane is null and this whole block is one branch.
        if (lane && served_now &&
            quality::shadow_sampled(cfg_.quality.seed, rq_id,
                                    cfg_.quality.sample_rate)) {
          c("quality.shadow.sampled").inc();
          if (exact_path) {
            c("quality.shadow.skipped_exact").inc();
          } else {
            quality::ShadowJob job;
            job.id = rq_id;
            job.x = std::move(live[i].x);
            job.approx_logits = std::move(ys[i].v);
            job.tier = tier;
            lane->enqueue(std::move(job));
          }
        }
      }
      // Successes fund the retry budget: the bucket refills only while
      // the server is actually doing useful work.
      if (served_n > 0) retry_budget_.on_success(served_n);
      return;
    }

    c("serve.suspect_batches").inc();
    if (attempt >= cfg_.max_attempts) {
      merge_numeric(health_rec, attempt, failovers);
      for (auto& rq : live) {
        Response r;
        r.outcome = Outcome::kRejected;
        r.reason = RejectReason::kRetriesExhausted;
        r.attempts = attempt;
        finish(rq, std::move(r));
      }
      return;
    }

    // Retry budget (token bucket): a SPECULATIVE retry — re-executing
    // the same suspect path hoping the transient passed — may only
    // spend capacity recent successes earned. The final exact-table
    // failover is exempt: it switches to the known-good unit, which is
    // repair, not amplification. So a dry bucket stops the speculation:
    // jump straight to the failover when one is configured, fail fast
    // otherwise. Either way a fault storm can no longer multiply the
    // exec load by max_attempts.
    const bool next_is_failover = cfg_.retry_exact_failover &&
                                  cfg_.exact_fallback &&
                                  attempt + 1 == cfg_.max_attempts;
    if (!next_is_failover && !retry_budget_.try_spend()) {
      budget_exhausted_.fetch_add(1, std::memory_order_relaxed);
      c("serve.retry.budget_exhausted").inc();
      if (cfg_.retry_exact_failover && cfg_.exact_fallback) {
        attempt = cfg_.max_attempts - 1;  // next loop runs the failover
      } else {
        merge_numeric(health_rec, attempt, failovers);
        for (auto& rq : live) {
          Response r;
          r.outcome = Outcome::kRejected;
          r.reason = RejectReason::kRetriesExhausted;
          r.attempts = attempt;
          finish(rq, std::move(r));
        }
        return;
      }
    }
    retries_.fetch_add(1, std::memory_order_relaxed);
    c("serve.retries").inc();
    const auto backoff_from = Clock::now();
    {
      obs::ScopedTimer t("serve.backoff");
      std::this_thread::sleep_for(backoff.next());
    }
    const auto backoff_to = Clock::now();
    for (const auto& rq : live) {
      backoff_s.add(ms_between(backoff_from, backoff_to));
      span(rq.trace, "retry_backoff", backoff_from, backoff_to);
    }
    // Shed whoever expired during the backoff before burning another
    // attempt on them.
    now = Clock::now();
    std::vector<Request> still;
    still.reserve(live.size());
    for (auto& rq : live) {
      if (rq.deadline <= now)
        finish(rq, {Outcome::kShed, RejectReason::kNone});
      else
        still.push_back(std::move(rq));
    }
    live = std::move(still);
    if (live.empty()) {
      merge_numeric(health_rec, attempt, failovers);
      return;
    }
  }
}

void Server::merge_numeric(nn::LayerHealthRecorder& rec, int attempts,
                           util::u64 failovers) {
  auto& reg = obs::MetricsRegistry::instance();
  {
    std::lock_guard<std::mutex> lk(numeric_m_);
    const auto& layers = rec.layers();
    for (std::size_t i = 0; i < layers.size(); ++i) {
      if (i >= numeric_.layers.size())
        numeric_.layers.push_back({layers[i].first, {}});
      numeric_.layers[i].counts += layers[i].second;
    }
    numeric_.failovers += failovers;
    numeric_.batches += util::u64(attempts);
  }
  // Mirror per-layer counts into registry counters so the bench JSON
  // and the text exposition carry the per-layer breakdown. Registry
  // lookups are warm-path cheap (once per batch, not per MAC).
  for (const auto& [name, d] : rec.layers()) {
    const std::string base = "serve.layer." + name;
    if (d.nar) reg.counter(base + ".nar").inc(d.nar);
    if (d.saturation) reg.counter(base + ".saturation").inc(d.saturation);
    if (d.fault_detected)
      reg.counter(base + ".fault_detected").inc(d.fault_detected);
    if (d.requant_clips)
      reg.counter(base + ".requant_clips").inc(d.requant_clips);
    if (d.macs) reg.counter(base + ".macs").inc(d.macs);
  }
  rec.reset();
}

Server::NumericHealth Server::numeric_health() const {
  std::lock_guard<std::mutex> lk(numeric_m_);
  return numeric_;
}

void Server::maybe_update_state(bool degraded_now) {
  State cur = state_.load(std::memory_order_acquire);
  if (cur == State::kServing && degraded_now) {
    if (state_.compare_exchange_strong(cur, State::kDegraded))
      c("serve.degraded_transitions").inc();
  } else if (cur == State::kDegraded && !degraded_now) {
    state_.compare_exchange_strong(cur, State::kServing);
  }
  g("serve.state").set(double(state()));
}

void Server::drain() {
  std::lock_guard<std::mutex> lk(drain_m_);
  if (drained_.load()) return;
  accepting_.store(false, std::memory_order_release);
  state_.store(State::kDraining, std::memory_order_release);
  g("serve.state").set(double(State::kDraining));
  // Stop the watchdog monitor FIRST: after stop() returns no further
  // replacement can spawn, so the join loop below sees the final
  // worker set. Workers hung in an injected delay still terminate —
  // stalls are finite and cancelled workers wake early — so every
  // join completes.
  if (watchdog_) watchdog_->stop();
  queue_.close();
  std::vector<WorkerHandle> workers;
  {
    std::lock_guard<std::mutex> wlk(workers_m_);
    workers.swap(workers_);
  }
  for (auto& h : workers)
    if (h.thread.joinable()) h.thread.join();
  // Scope backstop (nga::shard): purge every scrub registration this
  // fault domain made. Workers unregister on clean exit, but a killed
  // shard's registrations must not outlive it regardless of how its
  // threads died.
  if (cfg_.integrity.enabled && !cfg_.integrity.scope.empty())
    integrity::Scrubber::instance().unregister_scope(cfg_.integrity.scope);
  // The scrub thread outlives the workers (tables may still be
  // registered by others), but this server only stops what it started.
  if (scrubber_started_) {
    integrity::Scrubber::instance().stop();
    scrubber_started_ = false;
  }
  // Shadow lane: the workers (its only producers) are joined, so the
  // queue is final — process every remaining job, then stop. The final
  // exposition and bench JSON below therefore carry the complete
  // shadow-measured quality of the run (and a fixed request stream
  // yields an identical "quality" section, which bench_diff relies on).
  if (shadow_) shadow_->drain_and_stop();
  drained_.store(true);
  state_.store(State::kStopped, std::memory_order_release);
  g("serve.state").set(double(State::kStopped));
  if (!cfg_.exposition_path.empty()) {
    std::ofstream os(cfg_.exposition_path);
    if (os)
      obs::write_text_exposition(os);
    else
      std::fprintf(stderr, "serve: cannot write exposition to '%s'\n",
                   cfg_.exposition_path.c_str());
  }
}

Server::GuardStats Server::guard_stats() const {
  GuardStats gs;
  gs.hangs_detected = hangs_detected_.load(std::memory_order_relaxed);
  gs.workers_replaced = workers_replaced_.load(std::memory_order_relaxed);
  gs.requeues = requeues_.load(std::memory_order_relaxed);
  gs.redelivery_rejects =
      redelivery_rejects_.load(std::memory_order_relaxed);
  gs.admission_rejects = admission_rejects_.load(std::memory_order_relaxed);
  gs.quarantined_batches =
      quarantined_batches_.load(std::memory_order_relaxed);
  gs.breaker_trips = breaker_trips_.load(std::memory_order_relaxed);
  gs.breaker_probes = breaker_probes_.load(std::memory_order_relaxed);
  gs.breaker_probe_failures =
      breaker_probe_failures_.load(std::memory_order_relaxed);
  gs.breaker_reinstated = breaker_reinstated_.load(std::memory_order_relaxed);
  gs.breaker_retired = breaker_retired_.load(std::memory_order_relaxed);
  gs.admission_limit = limiter_ ? limiter_->limit() : 0;
  gs.trip_scrubs = trip_scrubs_.load(std::memory_order_relaxed);
  gs.scrub_repaired = scrub_repaired_.load(std::memory_order_relaxed);
  gs.scrub_unreproducible =
      scrub_unreproducible_.load(std::memory_order_relaxed);
  return gs;
}

Server::Stats Server::stats() const {
  Stats st;
  st.submitted = submitted_.load(std::memory_order_relaxed);
  st.served = served_.load(std::memory_order_relaxed);
  st.rejected = rejected_.load(std::memory_order_relaxed);
  st.shed = shed_.load(std::memory_order_relaxed);
  st.retries = retries_.load(std::memory_order_relaxed);
  st.batches = batches_.load(std::memory_order_relaxed);
  st.codel_dropped = codel_dropped_.load(std::memory_order_relaxed);
  st.overload_shed = overload_shed_.load(std::memory_order_relaxed);
  st.budget_exhausted = budget_exhausted_.load(std::memory_order_relaxed);
  return st;
}

}  // namespace nga::serve

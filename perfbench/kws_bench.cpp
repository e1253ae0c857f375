// kws_bench — the repo benchmark's workload driver.
//
// Two workloads over the quantized KWS-CNN1 of Table I served on the
// approximate multipliers of Table II:
//
//   kws_overload  open-loop Poisson arrivals at a fixed kOverloadRps (about
//                 1.4x capacity) through a one-shard shard::ShardedServer
//                 of the production ladder-ON config with tenant budgets
//                 on; a noisy tenant sends 20/21 of the arrivals and a
//                 quiet tenant 1/21. Every refusal mechanism does work.
//                 The second half of the window drives the same warmed
//                 server closed-loop for capacity_rps.
//   kws_offline   no server: two threads, each with its own replica and
//                 pinned to its own CPU, call Model::forward_batch on full
//                 batches of kMaxBatch in kQuantExact mode on the exact
//                 table. nn does all the work.
//
//   kws_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--trace-out <path>]
//
// The seed fixes the arrival schedule, the input order and the tenant of
// each request; the model, the input set and the tables are fixed. Set-up
// (training, reference outputs, replica and table builds, warm-up) runs
// kSetupReps times and setup_s is their median. Every served prediction
// is checked against a scalar Model::forward reference for the table it
// ran on, offline logits bit-for-bit; the drain accounting and the
// generator lag are checked too. Any violation makes the run fail.
//
// End-to-end metrics, each the median over one-second slices of the
// window: p50_ms/p99_ms (served requests from their due time; offline:
// per forward_batch call), goodput_rps (correct within the deadline per
// second), slo_frac and quiet_slo_frac (share of sent / of quiet-tenant
// requests that were good), agreement (served class == exact-table class)
// and capacity_rps (served per second of the closed-loop phase). Offline
// has neither tenants nor a capacity phase: its quiet_slo_frac and
// capacity_rps repeat slo_frac and goodput_rps.
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the window
// twice (untraced, then traced with spans from this file around submit,
// resolution, forward_batch and replica/table builds, written with the
// library's own spans from obs::TraceBuffer) and reports the
// per-layer metrics plus trace_overhead_frac.<metric>. The last stdout
// line is one JSON object {"correct","attempted","failed","metrics"}.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <sched.h>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "approx/multipliers.hpp"
#include "load/loadgen.hpp"
#include "nn/data.hpp"
#include "nn/model.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "prof/attribution.hpp"
#include "serve/serve.hpp"
#include "shard/shard.hpp"
#include "stats.hpp"
#include "util/rng.hpp"

namespace {

using namespace nga;
using perfbench::Clock;
using perfbench::ms_between;
using serve::Outcome;
using serve::Response;
using util::u64;

const Clock::time_point kProcessStart = Clock::now();

constexpr int kT = 16, kMel = 12;
constexpr int kInputs = 256;  ///< fixed input set; the seed picks the order
constexpr int kWorkers = 2;
constexpr std::size_t kMaxBatch = 8;
constexpr std::size_t kWindow = 2 * kWorkers * kMaxBatch;
constexpr double kDeadlineMs = 80.0;
constexpr auto kDeadline = std::chrono::microseconds(long(kDeadlineMs * 1000.0));
constexpr double kShadowRate = 0.10;
constexpr double kQuietShare = 1.0 / 21.0;
/// Fixed absolute offered rate, not re-calibrated per run, so a faster
/// kernel raises goodput instead of raising load: ~1.4x the ~700 req/s a
/// closed loop of 2 x workers x max_batch outstanding requests got from
/// the seed commit's server on a 4-vCPU x86-64 VM.
constexpr double kOverloadRps = 1000.0;
/// A run whose generator fired its p99 arrival later than this (a
/// quarter of the deadline) is invalid: it measured the generator, not
/// the server.
constexpr double kLagBoundMs = 20.0;
constexpr int kSetupReps = 3;
constexpr int kMaxTier = 4;  ///< Normal, LingerOff, two brownout rungs, Shed
/// Window metrics are medians over slices of about this many seconds.
constexpr double kSliceS = 1.0;
/// Share of the kws_overload window that runs open-loop; the rest is the
/// closed-loop capacity phase.
constexpr double kOpenShare = 0.5;

enum TableId { kTrunc, kMid, kCheap, kExact, kTables };

double us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

// ---- spans ----------------------------------------------------------------

/// On while the traced half runs.
std::atomic<bool> g_tracing{false};

u64 ns_of(Clock::duration d) {
  return u64(std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

/// Record a span of this file's own into the process TraceBuffer, next to
/// the library's spans, while the traced half runs.
void span(const char* name, Clock::time_point from, Clock::time_point to) {
  if (!g_tracing.load(std::memory_order_relaxed)) return;
  auto& buf = obs::TraceBuffer::instance();
  buf.record({name, ns_of(from.time_since_epoch()), ns_of(to - from),
              obs::this_thread_trace_id()});
  // A thread's ring holds TraceShard::kCapacity spans and drops the rest:
  // drain it into the retained buffer (size() does) long before it fills.
  thread_local std::size_t recorded = 0;
  if (++recorded % (obs::TraceShard::kCapacity / 2) == 0) buf.size();
}

// ---- output checks ----------------------------------------------------------

struct Checks {
  std::size_t wrong = 0;            ///< served class != reference class
  std::size_t logit_mismatch = 0;   ///< offline logits != scalar forward
  std::vector<std::string> violations;  ///< invariants, lag, warm-up

  void fail(std::string why) { violations.push_back(std::move(why)); }
  std::size_t failed() const {
    return wrong + logit_mismatch + violations.size();
  }
};

Checks g_checks;

int argmax(const std::vector<float>& v) {
  if (v.empty()) return -1;
  return int(std::max_element(v.begin(), v.end()) - v.begin());
}

// ---- fixture ------------------------------------------------------------------

/// Times and counts every replica and table build made through it
/// (the serving stack calls these from its factories).
struct BuildLog {
  std::mutex m;
  std::vector<double> replica_ms, table_ms;

  std::size_t replicas() {
    std::lock_guard<std::mutex> lk(m);
    return replica_ms.size();
  }
  std::size_t tables() {
    std::lock_guard<std::mutex> lk(m);
    return table_ms.size();
  }
};

/// Trained snapshot, tables, the fixed input set and the reference
/// outputs of every table a workload can serve on.
struct Fixture {
  nn::Dataset train_set, inputs;
  std::vector<std::vector<float>> snap;
  std::array<std::shared_ptr<const ax::ApproxMult8>, 3> mult;  ///< trunc/mid/cheap
  std::unique_ptr<nn::MulTable> exact;
  std::array<std::vector<int>, kTables> ref;      ///< reference argmax
  std::vector<std::vector<float>> exact_logits;   ///< kQuantExact, scalar
  BuildLog log;
  double train_s = 0.0, reference_s = 0.0;

  std::unique_ptr<nn::Model> replica() {
    const auto t0 = Clock::now();
    auto m = std::make_unique<nn::Model>(nn::make_kws_cnn1(kT, kMel, 3));
    m->restore(snap);
    nn::calibrate(*m, train_set, 96);
    const auto t1 = Clock::now();
    span("replica_build", t0, t1);
    std::lock_guard<std::mutex> lk(log.m);
    log.replica_ms.push_back(ms_between(t0, t1));
    return m;
  }

  std::shared_ptr<const nn::MulTable> table(TableId t) {
    const auto t0 = Clock::now();
    auto tab = std::make_shared<const nn::MulTable>(mult[std::size_t(t)]);
    const auto t1 = Clock::now();
    span("table_build", t0, t1);
    std::lock_guard<std::mutex> lk(log.m);
    log.table_ms.push_back(ms_between(t0, t1));
    return tab;
  }

  /// The table a served request ran on, from its Response stamps.
  static TableId table_of(const Response& r) {
    if (r.exact_path) return kExact;
    if (r.tier < 2) return kTrunc;
    return r.tier == 2 ? kMid : kCheap;
  }
};

std::unique_ptr<Fixture> build_fixture() {
  auto fx = std::make_unique<Fixture>();
  const auto t0 = Clock::now();
  fx->train_set = nn::make_synth_kws(192, kT, kMel, 1);
  fx->inputs = nn::make_synth_kws(kInputs, kT, kMel, 2);
  nn::Model trained = nn::make_kws_cnn1(kT, kMel, 3);
  nn::TrainConfig tc;
  tc.epochs = 8;
  tc.lr = 0.08f;
  tc.lr_late = 0.03f;
  tc.seed = 4;
  nn::train(trained, fx->train_set, tc);
  nn::calibrate(trained, fx->train_set, 96);
  fx->snap = trained.snapshot();
  // Serving table: the lowest-MRE multiplier (TRUNC1). Brownout rungs
  // walk toward the cheap end, cheapest last (ServerConfig contract).
  auto mults = ax::table2_multipliers();
  fx->mult = {std::move(mults.front()), std::move(mults[mults.size() / 2]),
              std::move(mults.back())};
  fx->exact = std::make_unique<nn::MulTable>();
  const auto t1 = Clock::now();
  fx->train_s = ms_between(t0, t1) * 1e-3;

  // Scalar references: one Model::forward per input per table.
  auto model = fx->replica();
  std::array<std::shared_ptr<const nn::MulTable>, 3> tabs = {
      fx->table(kTrunc), fx->table(kMid), fx->table(kCheap)};
  for (auto& r : fx->ref) r.resize(kInputs);
  fx->exact_logits.resize(kInputs);
  for (int i = 0; i < kInputs; ++i) {
    const nn::Tensor& x = fx->inputs[std::size_t(i)].x;
    nn::Exec ex;
    ex.mode = nn::Mode::kQuantApprox;
    for (int t = kTrunc; t <= kExact; ++t) {
      ex.mul = t == kExact ? fx->exact.get() : tabs[std::size_t(t)].get();
      fx->ref[std::size_t(t)][std::size_t(i)] = argmax(model->forward(x, ex).v);
    }
    ex.mode = nn::Mode::kQuantExact;
    ex.mul = fx->exact.get();
    fx->exact_logits[std::size_t(i)] = model->forward(x, ex).v;
  }
  fx->reference_s = ms_between(t1, Clock::now()) * 1e-3;
  return fx;
}

// ---- the serving stack ------------------------------------------------------------

/// serve_scale's ladder-ON production config with the 10% shadow lane.
serve::ServerConfig server_config(Fixture& fx) {
  serve::ServerConfig cfg;
  cfg.workers = kWorkers;
  cfg.queue_capacity = 512;
  cfg.max_batch = kMaxBatch;
  cfg.batch_linger = std::chrono::microseconds(300);
  cfg.in_c = 1;
  cfg.in_h = kT;
  cfg.in_w = kMel;
  cfg.mode = nn::Mode::kQuantApprox;
  cfg.mul_factory = [&fx] { return fx.table(kTrunc); };
  cfg.exact_fallback = fx.exact.get();
  cfg.max_attempts = 1;
  cfg.seed = 42;
  cfg.model_factory = [&fx] { return fx.replica(); };
  cfg.codel.enabled = true;
  cfg.codel.target = std::chrono::milliseconds(4);
  cfg.codel.interval = std::chrono::milliseconds(12);
  cfg.overload.enabled = true;
  cfg.overload.enter_ms = 4.0;
  cfg.overload.exit_ms = 1.0;
  cfg.overload.dwell = std::chrono::milliseconds(80);
  cfg.overload.ewma_alpha = 0.15;
  cfg.overload.shed_fraction = 0.5;
  cfg.brownout_tables = {[&fx] { return fx.table(kMid); },
                         [&fx] { return fx.table(kCheap); }};
  cfg.quality.sample_rate = kShadowRate;
  cfg.quality.seed = 42;
  // No dual-run error attribution: with it on, serving p50 at a third of
  // capacity was bimodal across processes (interquartile range ~0.4 of
  // the median over ten runs). Shadow comparisons still run at 10%.
  cfg.quality.attribution_every = 0;
  return cfg;
}

/// The serving stack under test: one shard of the production config
/// behind the tenant layer, with per-tenant AIMD budgets on.
std::unique_ptr<shard::ShardedServer> make_service(Fixture& fx) {
  shard::ShardedConfig sc;
  sc.shards = 1;
  sc.seed = 11;
  sc.shard_config = [&fx](int) { return server_config(fx); };
  sc.tenant.enabled = true;
  sc.tenant.admission.enabled = true;
  sc.tenant.admission.min_limit = 4;
  sc.tenant.admission.max_limit = 64;
  sc.tenant.admission.initial_limit = 32;
  sc.tenant.admission.decrease = 0.5;
  sc.tenant.admission.max_shed_rate = 0.05;
  sc.tenant.admission.adjust_every = 16;
  // One shard: a failover has nowhere to go, so no health monitor.
  sc.failover.enabled = false;
  auto srv = std::make_unique<shard::ShardedServer>(sc);
  srv->start();
  return srv;
}

/// Drain and check the two-level accounting: per shard served + rejected
/// + shed == submitted, and every submit resolved by exactly one layer.
void drain_checked(shard::ShardedServer& srv) {
  srv.drain();
  if (!srv.accounting().ok())
    g_checks.fail("ShardedServer::accounting() violated");
}

u64 counter(const char* name) {
  return obs::MetricsRegistry::instance().counter(name).value();
}

struct Verdict {
  bool correct;  ///< equals the reference of the table it ran on
  bool agree;    ///< equals the exact-table class
};

/// Check one served response; a wrong one fails the run.
Verdict check_served(const Fixture& fx, const Response& r, std::size_t input) {
  const Verdict v{r.predicted == fx.ref[Fixture::table_of(r)][input],
                  r.predicted == fx.ref[kExact][input]};
  if (!v.correct) ++g_checks.wrong;
  return v;
}

/// Closed-loop bursts until every worker and the shadow lane have built
/// their replicas and tables and served, then kWarmRounds more. Returns
/// the warm-up seconds.
double warm_up(shard::ShardedServer& srv, Fixture& fx, std::size_t replicas0,
               std::size_t tables0) {
  constexpr int kWarmRounds = 4;
  // Workers build a replica and a TRUNC1 table each, the shadow lane a
  // replica of its own.
  const std::size_t want_replicas = kWorkers + 1, want_tables = kWorkers;
  const auto t0 = Clock::now();
  const u64 compared0 = counter("quality.shadow.compared");
  int rounds_after = 0;
  std::size_t cursor = 0;
  while (rounds_after < kWarmRounds) {
    if (ms_between(t0, Clock::now()) > 30'000.0) {
      g_checks.fail("warm-up did not finish within 30 s");
      break;
    }
    const bool built = fx.log.replicas() - replicas0 >= want_replicas &&
                       fx.log.tables() - tables0 >= want_tables;
    std::vector<std::pair<std::future<Response>, std::size_t>> burst;
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    for (std::size_t i = 0; i < kWindow; ++i, cursor = (cursor + 1) % kInputs)
      burst.emplace_back(
          srv.submit("warmup", fx.inputs[cursor].x, deadline), cursor);
    for (auto& [f, idx] : burst) {
      const Response r = f.get();
      if (r.outcome == Outcome::kServed) check_served(fx, r, idx);
    }
    if (built) ++rounds_after;
  }
  // The bursts walk the ladder up; single requests let it walk back down
  // until kWarmRounds in a row execute at tier 0 (Normal).
  for (int at_normal = 0; at_normal < kWarmRounds;
       cursor = (cursor + 1) % kInputs) {
    if (ms_between(t0, Clock::now()) > 30'000.0) {
      g_checks.fail("overload ladder did not settle within 30 s");
      break;
    }
    const Response r = srv.submit("warmup", fx.inputs[cursor].x,
                                  Clock::now() + std::chrono::seconds(10))
                           .get();
    if (r.outcome == Outcome::kServed) check_served(fx, r, cursor);
    at_normal = r.outcome == Outcome::kServed && r.tier == 0 ? at_normal + 1 : 0;
  }
  // The shadow lane runs in idle gaps: give it one to compare in.
  while (counter("quality.shadow.compared") == compared0 &&
         ms_between(t0, Clock::now()) < 30'000.0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  return ms_between(t0, Clock::now()) * 1e-3;
}

// ---- metric sink --------------------------------------------------------------

struct Metric {
  double value;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Per-layer metrics only a serving window yields.
const std::pair<const char*, const char*> kServingLayerMetrics[] = {
    {"load.lag_p99_ms", "ms"},          {"load.achieved_rps", "1/s"},
    {"serve.queue_wait_ms.mean", "ms"}, {"serve.batch_fill_ms.mean", "ms"},
    {"serve.exec_ms.mean", "ms"},       {"serve.residual_ms.mean", "ms"},
    {"serve.batch_size.mean", "count"}, {"serve.rejected_frac", "frac"},
    {"serve.shed_frac", "frac"},        {"serve.codel_frac", "frac"},
    {"serve.door_shed_frac", "frac"},   {"serve.tier_frac.0", "frac"},
    {"serve.tier_frac.1", "frac"},      {"serve.tier_frac.2", "frac"},
    {"serve.tier_frac.3", "frac"},      {"serve.tier_frac.4", "frac"},
    {"serve.escalations", "count"},     {"shard.submit_us.p50", "us"},
    {"shard.submit_us.p99", "us"},
    {"shard.tenant_limited_frac", "frac"}, {"quality.compared", "count"},
    {"quality.dropped_frac", "frac"},
};

/// Served requests per second, median over the slices.
double served_rate(const std::vector<perfbench::RequestRecord>& recs,
                   double window_s) {
  return perfbench::sliced_median(
      recs, window_s, kSliceS, kDeadlineMs,
      [](const perfbench::SloSummary& s, double slice_s) {
        return double(s.served) / slice_s;
      });
}

// ---- open loop ------------------------------------------------------------------

struct Arrival {
  std::size_t input = 0;
  bool quiet = false;
};

/// What one open-loop window measured.
struct OpenLoopResult {
  std::vector<perfbench::RequestRecord> recs;
  std::vector<double> lag_ms, submit_us;
  std::array<std::size_t, kMaxTier + 1> tier_served{};
  double gen_s = 0.0, achieved_rps = 0.0;  ///< generator duration and rate
  serve::Server::Stats delta;  ///< server counters over the window
  shard::ShardedServer::Stats shard_delta;
  double queue_wait_ms = 0.0, batch_fill_ms = 0.0, exec_ms = 0.0;
  u64 escalations = 0, compared = 0, enqueued = 0, dropped = 0;
};

serve::Server::Stats minus(serve::Server::Stats a, const serve::Server::Stats& b) {
  a.submitted -= b.submitted;
  a.served -= b.served;
  a.rejected -= b.rejected;
  a.shed -= b.shed;
  a.batches -= b.batches;
  a.codel_dropped -= b.codel_dropped;
  a.overload_shed -= b.overload_shed;
  return a;
}

OpenLoopResult run_open_loop(shard::ShardedServer& srv, Fixture& fx,
                             double seconds, u64 seed) {
  auto& reg = obs::MetricsRegistry::instance();
  for (const char* s : {"serve.stage.queue_wait_ms", "serve.stage.batch_fill_ms",
                        "serve.stage.exec_ms"})
    reg.series(s).reset();
  const serve::Server::Stats s0 = srv.shard_stats(0);
  const shard::ShardedServer::Stats sh0 = srv.stats();
  const u64 esc0 = counter("serve.overload.escalations");
  const u64 cmp0 = counter("quality.shadow.compared");
  const u64 enq0 = counter("quality.shadow.enqueued");
  const u64 drop0 = counter("quality.shadow.dropped");

  // Arrival attributes come from their own stream so the Poisson gaps
  // (LoadGen, seeded with `seed`) stay those of the plain schedule.
  util::Xoshiro256 pick(seed ^ 0x5eed'ba5e'0ddb'a11ull);
  load::LoadGenConfig lg;
  lg.rps = kOverloadRps;
  lg.arrivals = std::max<std::size_t>(1, std::size_t(kOverloadRps * seconds));
  lg.seed = seed;

  struct Sent {
    std::future<Response> fut;
    Clock::time_point due, call;
    Arrival a;
  };
  std::vector<Sent> sent;
  sent.reserve(lg.arrivals);
  OpenLoopResult r;
  r.lag_ms.reserve(lg.arrivals);
  r.submit_us.reserve(lg.arrivals);
  const auto t0 = Clock::now();
  const load::LoadGenReport rep =
      load::LoadGen(lg).run([&](std::size_t, Clock::time_point due) {
        Arrival a;
        a.input = std::size_t(pick.below(kInputs));
        a.quiet = pick.uniform() < kQuietShare;
        const auto call = Clock::now();
        auto fut = srv.submit(a.quiet ? "quiet" : "noisy", fx.inputs[a.input].x,
                              due + kDeadline);
        const auto done = Clock::now();
        span("submit", call, done);
        r.lag_ms.push_back(ms_between(due, call));
        r.submit_us.push_back(us_between(call, done));
        sent.push_back({std::move(fut), due, call, a});
      });
  r.achieved_rps = rep.achieved_rps;
  r.gen_s = rep.duration_s;

  r.recs.reserve(sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    Sent& s = sent[i];
    const Response resp = s.fut.get();
    perfbench::RequestRecord rec;
    rec.at_s = ms_between(t0, s.due) * 1e-3;
    rec.quiet = s.a.quiet;
    if (resp.outcome == Outcome::kServed) {
      span("request", s.due,
           s.call + std::chrono::nanoseconds(long(resp.latency_ms * 1e6)));
      rec.served = true;
      rec.latency_ms = perfbench::due_latency_ms(s.due, s.call, resp.latency_ms);
      const Verdict v = check_served(fx, resp, s.a.input);
      rec.correct = v.correct;
      rec.agree = v.agree;
      ++r.tier_served[std::size_t(std::clamp(resp.tier, 0, kMaxTier))];
    }
    r.recs.push_back(rec);
  }
  r.delta = minus(srv.shard_stats(0), s0);
  const shard::ShardedServer::Stats sh1 = srv.stats();
  r.shard_delta.submitted = sh1.submitted - sh0.submitted;
  r.shard_delta.tenant_limited = sh1.tenant_limited - sh0.tenant_limited;
  r.queue_wait_ms = reg.series("serve.stage.queue_wait_ms").snapshot().mean;
  r.batch_fill_ms = reg.series("serve.stage.batch_fill_ms").snapshot().mean;
  r.exec_ms = reg.series("serve.stage.exec_ms").snapshot().mean;
  r.escalations = counter("serve.overload.escalations") - esc0;
  r.compared = counter("quality.shadow.compared") - cmp0;
  r.enqueued = counter("quality.shadow.enqueued") - enq0;
  r.dropped = counter("quality.shadow.dropped") - drop0;

  const double lag_p99 = perfbench::percentile(r.lag_ms, 0.99);
  if (lag_p99 > kLagBoundMs)
    g_checks.fail("generator lag p99 " + std::to_string(lag_p99) +
                  " ms exceeds the " + std::to_string(kLagBoundMs) + " ms bound");
  return r;
}

// ---- closed loop ------------------------------------------------------------------

struct ClosedLoopResult {
  double capacity_rps = 0.0;  ///< served per second, median over slices
  std::size_t sent = 0;
};

/// Closed loop on the warmed server: kWindow (2 x workers x max_batch)
/// requests outstanding, each resolved one replaced by a fresh one, for
/// @p seconds. Its served/s stands in for the knee without a noisy search.
/// The phase sends as a tenant of its own, so the budgets the open-loop
/// tenants adapted do not cap it.
ClosedLoopResult run_closed_loop(shard::ShardedServer& srv, Fixture& fx,
                                 double seconds, u64 seed) {
  util::Xoshiro256 pick(seed ^ 0xc105'ed10'0b5e'eda7ull);
  struct Pending {
    std::future<Response> fut;
    Clock::time_point sent;
    std::size_t input;
  };
  std::deque<Pending> window;
  std::vector<perfbench::RequestRecord> served;  // refusals are not kept
  ClosedLoopResult r;
  const auto t0 = Clock::now();
  const auto end = t0 + std::chrono::nanoseconds(long(seconds * 1e9));
  const auto send = [&] {
    const std::size_t input = std::size_t(pick.below(kInputs));
    const auto at = Clock::now();
    window.push_back(
        {srv.submit("capacity", fx.inputs[input].x, at + kDeadline), at, input});
    ++r.sent;
  };
  for (std::size_t i = 0; i < kWindow; ++i) send();
  while (!window.empty()) {
    Pending p = std::move(window.front());
    window.pop_front();
    const Response resp = p.fut.get();
    if (resp.outcome == Outcome::kServed) {
      perfbench::RequestRecord rec;
      rec.at_s = ms_between(t0, p.sent) * 1e-3;
      rec.served = true;
      rec.correct = check_served(fx, resp, p.input).correct;
      served.push_back(rec);
    }
    if (Clock::now() < end) send();
  }
  r.capacity_rps = served_rate(served, seconds);
  return r;
}

// ---- offline ---------------------------------------------------------------------

struct OfflineResult {
  std::vector<perfbench::RequestRecord> recs;  ///< one per sample
  std::size_t batches = 0;
};

/// The CPUs this process may run on, in order.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

void pin_this_thread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

/// Each thread drives its own replica with full batches until the
/// window closes; logits are compared bit-for-bit with the scalar
/// forward of the same input. Each thread runs pinned to its own CPU among
/// the last allowed ones, away from CPU 0 and its interrupts: left to the
/// scheduler, two threads sometimes shared one CPU, never contended for
/// the process-wide nn.mac counter, and ran ~2.8x faster than on two.
OfflineResult run_offline(Fixture& fx,
                          std::vector<std::unique_ptr<nn::Model>>& replicas,
                          double seconds, u64 seed) {
  const std::size_t n = replicas.size();
  const std::vector<int> cpus = allowed_cpus();
  std::vector<OfflineResult> per(n);
  std::atomic<std::size_t> ready{0};
  Clock::time_point start, end;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < n; ++t)
    threads.emplace_back([&, t] {
      util::Xoshiro256 pick(seed * 0x9e37'79b9'7f4a'7c15ull + t + 1);
      nn::Exec ex;
      ex.mode = nn::Mode::kQuantExact;
      ex.mul = fx.exact.get();
      OfflineResult& out = per[t];
      std::vector<const nn::Tensor*> xs(kMaxBatch);
      std::array<std::size_t, kMaxBatch> input;
      if (cpus.size() >= n) pin_this_thread(cpus[cpus.size() - n + t]);
      ready.fetch_add(1);
      while (ready.load() < n + 1) std::this_thread::yield();
      while (Clock::now() < end) {
        for (std::size_t i = 0; i < kMaxBatch; ++i) {
          input[i] = std::size_t(pick.below(kInputs));
          xs[i] = &fx.inputs[input[i]].x;
        }
        const auto c0 = Clock::now();
        const std::vector<nn::Tensor> ys = replicas[t]->forward_batch(xs, ex);
        const auto c1 = Clock::now();
        span("forward_batch", c0, c1);
        ++out.batches;
        const double ms = ms_between(c0, c1);
        for (std::size_t i = 0; i < kMaxBatch; ++i) {
          const std::vector<float>& want = fx.exact_logits[input[i]];
          const bool same = i < ys.size() && ys[i].v.size() == want.size() &&
                            std::memcmp(ys[i].v.data(), want.data(),
                                        want.size() * sizeof(float)) == 0;
          perfbench::RequestRecord rec;
          rec.at_s = ms_between(start, c0) * 1e-3;
          rec.served = true;
          rec.latency_ms = ms;
          rec.correct = same;
          rec.agree = same && argmax(ys[i].v) == fx.ref[kExact][input[i]];
          out.recs.push_back(rec);
        }
      }
    });
  while (ready.load() < n) std::this_thread::yield();
  start = Clock::now();
  end = start + std::chrono::nanoseconds(long(seconds * 1e9));
  ready.fetch_add(1);
  for (auto& th : threads) th.join();
  OfflineResult r;
  for (const OfflineResult& p : per) {
    r.recs.insert(r.recs.end(), p.recs.begin(), p.recs.end());
    r.batches += p.batches;
  }
  for (const perfbench::RequestRecord& rec : r.recs)
    g_checks.logit_mismatch += !rec.correct;
  return r;
}

// ---- one workload window ---------------------------------------------------------

/// End-to-end numbers of one measured window plus the per-layer numbers
/// the window itself yields.
struct Window {
  Metrics e2e, layer;
  std::size_t attempted = 0;
};

/// Every metric taken from the records, per slice of the window and
/// reported as the median over one-second slices; the caller adds
/// capacity_rps.
void put_e2e(Window& w, const std::vector<perfbench::RequestRecord>& recs,
             double window_s) {
  using S = perfbench::SloSummary;
  const auto put = [&](const char* name, const char* unit, auto f) {
    w.e2e[name] = {perfbench::sliced_median(recs, window_s, kSliceS,
                                            kDeadlineMs, f),
                   unit};
  };
  put("p50_ms", "ms", [](const S& s, double) {
    return perfbench::percentile(s.served_latency_ms, 0.50);
  });
  put("p99_ms", "ms", [](const S& s, double) {
    return perfbench::percentile(s.served_latency_ms, 0.99);
  });
  put("goodput_rps", "1/s",
      [](const S& s, double slice_s) { return double(s.good) / slice_s; });
  put("slo_frac", "frac", [](const S& s, double) { return s.slo_frac(); });
  put("agreement", "frac", [](const S& s, double) { return s.agreement(); });
  put("quiet_slo_frac", "frac",
      [](const S& s, double) { return s.quiet_slo_frac(); });
}

double frac(u64 num, u64 den) { return den ? double(num) / double(den) : 0.0; }

Window overload_window(shard::ShardedServer& srv, Fixture& fx, double seconds,
                       u64 seed) {
  Window w;
  const OpenLoopResult r = run_open_loop(srv, fx, seconds * kOpenShare, seed);
  const ClosedLoopResult c =
      run_closed_loop(srv, fx, seconds * (1.0 - kOpenShare), seed);
  const perfbench::SloSummary s = perfbench::summarize(r.recs, kDeadlineMs);
  w.attempted = r.recs.size() + c.sent;
  put_e2e(w, r.recs, r.gen_s);
  w.e2e["capacity_rps"] = {c.capacity_rps, "1/s"};

  Metrics& l = w.layer;
  l["latency.samples"] = {double(s.served_latency_ms.size()), "count"};
  l["load.lag_p99_ms"] = {perfbench::percentile(r.lag_ms, 0.99), "ms"};
  l["load.achieved_rps"] = {r.achieved_rps, "1/s"};
  // ShardedServer::submit, which includes the Server::submit it routes to.
  l["shard.submit_us.p50"] = {perfbench::percentile(r.submit_us, 0.50), "us"};
  l["shard.submit_us.p99"] = {perfbench::percentile(r.submit_us, 0.99), "us"};
  l["shard.tenant_limited_frac"] = {
      frac(r.shard_delta.tenant_limited, r.shard_delta.submitted), "frac"};
  l["serve.queue_wait_ms.mean"] = {r.queue_wait_ms, "ms"};
  l["serve.batch_fill_ms.mean"] = {r.batch_fill_ms, "ms"};
  l["serve.exec_ms.mean"] = {r.exec_ms, "ms"};
  l["serve.residual_ms.mean"] = {
      perfbench::residual_ms(perfbench::mean(s.served_latency_ms),
                             r.queue_wait_ms, r.batch_fill_ms, r.exec_ms),
      "ms"};
  l["serve.batch_size.mean"] = {frac(r.delta.served, r.delta.batches), "count"};
  l["serve.rejected_frac"] = {frac(r.delta.rejected, r.delta.submitted), "frac"};
  l["serve.shed_frac"] = {frac(r.delta.shed, r.delta.submitted), "frac"};
  l["serve.codel_frac"] = {frac(r.delta.codel_dropped, r.delta.submitted), "frac"};
  l["serve.door_shed_frac"] = {frac(r.delta.overload_shed, r.delta.submitted),
                               "frac"};
  for (int k = 0; k <= kMaxTier; ++k)
    l["serve.tier_frac." + std::to_string(k)] = {
        frac(r.tier_served[std::size_t(k)], s.served), "frac"};
  l["serve.escalations"] = {double(r.escalations), "count"};
  l["quality.compared"] = {double(r.compared), "count"};
  l["quality.dropped_frac"] = {frac(r.dropped, r.enqueued), "frac"};
  return w;
}

Window offline_window(Fixture& fx,
                      std::vector<std::unique_ptr<nn::Model>>& replicas,
                      double seconds, u64 seed) {
  Window w;
  const OfflineResult r = run_offline(fx, replicas, seconds, seed);
  w.attempted = r.recs.size();
  // Each sample carries its forward_batch call's latency and every batch
  // is full, so per-sample percentiles are per-call percentiles.
  put_e2e(w, r.recs, seconds);
  // Placeholders, since every workload reports every end-to-end metric:
  // offline has no tenants and no separate capacity phase, so these
  // repeat slo_frac and goodput_rps.
  w.e2e["quiet_slo_frac"] = w.e2e.at("slo_frac");
  w.e2e["capacity_rps"] = w.e2e.at("goodput_rps");
  w.layer["latency.samples"] = {double(r.batches), "count"};
  return w;
}

// ---- nn-level probes (traced run) --------------------------------------------------

volatile u64 g_sink = 0;  ///< keeps the table probe loop observable
constexpr double kScalingS = 1.0;  ///< each run_offline of nn.scaling_2t

/// Single-threaded costs of the model and the table the workload runs on:
/// forward/forward_batch latency, per-layer attribution, LUT probes,
/// table probe cost and two-thread scaling.
void nn_probes(Fixture& fx, bool exact_mode, Metrics& l) {
  auto tab = fx.table(kTrunc);
  nn::Exec ex;
  ex.mode = exact_mode ? nn::Mode::kQuantExact : nn::Mode::kQuantApprox;
  ex.mul = exact_mode ? fx.exact.get() : tab.get();
  auto model = fx.replica();

  // Single forwards; the nn.mac delta here is this thread's alone.
  std::vector<double> fwd_us;
  const u64 mac0 = counter("nn.mac");
  for (int i = 0; i < kInputs; ++i) {
    const auto t0 = Clock::now();
    model->forward(fx.inputs[std::size_t(i)].x, ex);
    fwd_us.push_back(us_between(t0, Clock::now()));
  }
  l["nn.lut_probes_per_inf"] = {double(counter("nn.mac") - mac0) / kInputs,
                                "count"};
  l["nn.macs_per_inf"] = {double(model->macs()), "count"};
  l["nn.forward_us.p50"] = {perfbench::median(fwd_us), "us"};

  // Per-layer attribution through the library's own profiler hooks.
  prof::LayerProfiler profiler("perfbench");
  nn::Exec pex = ex;
  pex.prof = &profiler;
  for (int i = 0; i < kInputs; ++i) model->forward(fx.inputs[std::size_t(i)].x, pex);
  std::map<std::string, prof::KernelRecord> recs(profiler.layers().begin(),
                                                 profiler.layers().end());
  const std::vector<std::string> names = model->layer_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::string key = "layer." + std::to_string(i) + "." + names[i];
    const auto it = recs.find(key);
    const prof::KernelRecord rec = it == recs.end() ? prof::KernelRecord{} : it->second;
    l["nn." + key + ".ns"] = {rec.calls ? double(rec.wall_ns) / double(rec.calls) : 0.0,
                              "ns"};
    if (names[i] == "conv" || names[i] == "dense")
      l["nn." + key + ".macs_per_s"] = {rec.macs_per_s(), "1/s"};
  }

  // forward_batch of full batches.
  std::vector<const nn::Tensor*> xs;
  for (std::size_t i = 0; i < kMaxBatch; ++i) xs.push_back(&fx.inputs[i].x);
  std::vector<double> batch_ms;
  for (int i = 0; i < 64; ++i) {
    const auto t0 = Clock::now();
    model->forward_batch(xs, ex);
    batch_ms.push_back(ms_between(t0, Clock::now()));
  }
  l["nn.forward_batch_ms.p50"] = {perfbench::median(batch_ms), "ms"};
  // Offline two-thread throughput over twice the one-thread throughput.
  std::vector<std::unique_ptr<nn::Model>> reps;
  reps.push_back(fx.replica());
  const double one = double(run_offline(fx, reps, kScalingS, 1).recs.size());
  reps.push_back(fx.replica());
  const double two = double(run_offline(fx, reps, kScalingS, 1).recs.size());
  l["nn.scaling_2t"] = {one > 0.0 ? two / (2.0 * one) : 0.0, "ratio"};

  // Raw table probe over a fixed pseudo-random operand stream.
  const nn::MulTable& probe_tab = exact_mode ? *fx.exact : *tab;
  util::Xoshiro256 rng(7);
  std::vector<std::uint16_t> ops(1u << 16);
  for (auto& op : ops) op = std::uint16_t(rng.below(1u << 16));
  constexpr int kPasses = 16;
  u64 sink = 0;
  const auto t0 = Clock::now();
  for (int p = 0; p < kPasses; ++p)
    for (const std::uint16_t op : ops)
      sink += probe_tab.mul(util::u8(op >> 8), util::u8(op & 0xff));
  const double ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  l["nn.multable.probe_ns"] = {ns / double(kPasses * ops.size()), "ns"};
  g_sink = sink;
}

// ---- driver ------------------------------------------------------------------------

struct Args {
  std::string workload, commit = "unknown", trace_out;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--commit") a.commit = v;
    else if (k == "--trace-out") a.trace_out = v;
    else return false;
  }
  return argc % 2 == 1 && a.seconds > 0.0 &&
         (a.workload == "kws_overload" || a.workload == "kws_offline");
}

void print_fingerprint(const Args& a, const Fixture& fx) {
  std::printf(
      "fingerprint {\"nproc\": %ld, \"compiler\": \"%s\", \"build_type\": "
      "\"%s\", \"NGA_OBS\": %d, \"NGA_FAULT\": %d, \"NGA_PROF\": %d, "
      "\"commit\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"tables\": [\"%s\", \"%s\", \"%s\"]}\n",
      sysconf(_SC_NPROCESSORS_ONLN), PB_COMPILER, PB_BUILD_TYPE, PB_NGA_OBS,
      PB_NGA_FAULT, PB_NGA_PROF, a.commit.c_str(), a.workload.c_str(),
      (unsigned long long)a.seed, a.seconds, int(a.trace),
      fx.mult[0]->name().c_str(), fx.mult[1]->name().c_str(),
      fx.mult[2]->name().c_str());
}

void print_result(std::size_t attempted, const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              g_checks.failed() == 0 ? "true" : "false", attempted,
              g_checks.failed());
  bool first = true;
  for (const auto& [name, metric] : m) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value, metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

/// Everything one set-up builds: the fixture and either the warmed
/// service or the warmed offline replicas.
struct Stack {
  std::unique_ptr<Fixture> fx;
  std::unique_ptr<shard::ShardedServer> srv;
  std::vector<std::unique_ptr<nn::Model>> replicas;
  double warmup_s = 0.0;

  /// Drain and drop the service (before the fixture its factories point
  /// into) and the offline replicas.
  void shut_down() {
    if (srv) drain_checked(*srv);
    srv.reset();
    replicas.clear();
  }
};

/// Build and warm a service (or the offline replicas) on @p fx.
void bring_up(Stack& st, const std::string& workload) {
  Fixture& fx = *st.fx;
  const std::size_t r0 = fx.log.replicas(), t0 = fx.log.tables();
  if (workload == "kws_offline") {
    const auto w0 = Clock::now();
    st.replicas.clear();
    for (int t = 0; t < kWorkers; ++t) st.replicas.push_back(fx.replica());
    nn::Exec ex;
    ex.mode = nn::Mode::kQuantExact;
    ex.mul = fx.exact.get();
    std::vector<const nn::Tensor*> xs;
    for (std::size_t i = 0; i < kMaxBatch; ++i) xs.push_back(&fx.inputs[i].x);
    for (auto& m : st.replicas)
      for (int i = 0; i < 4; ++i) m->forward_batch(xs, ex);
    st.warmup_s = ms_between(w0, Clock::now()) * 1e-3;
    return;
  }
  st.srv = make_service(fx);
  st.warmup_s = warm_up(*st.srv, fx, r0, t0);
}

Window run_window(Stack& st, const std::string& workload, double seconds,
                  u64 seed) {
  if (workload == "kws_offline")
    return offline_window(*st.fx, st.replicas, seconds, seed);
  return overload_window(*st.srv, *st.fx, seconds, seed);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: kws_bench --workload kws_overload|kws_offline"
                 " --seed N --seconds S --trace 0|1 [--commit ID]"
                 " [--trace-out PATH]\n");
    return 2;
  }

  // Set-up, kSetupReps times from scratch; the last one is measured.
  Stack st;
  std::vector<double> setup_s, train_s, reference_s, warmup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    st.shut_down();
    const auto t0 = rep == 0 ? kProcessStart : Clock::now();
    st.fx = build_fixture();
    bring_up(st, args.workload);
    setup_s.push_back(ms_between(t0, Clock::now()) * 1e-3);
    train_s.push_back(st.fx->train_s);
    reference_s.push_back(st.fx->reference_s);
    warmup_s.push_back(st.warmup_s);
  }
  print_fingerprint(args, *st.fx);

  Metrics out;
  std::size_t attempted = 0;
  if (!args.trace) {
    Window w = run_window(st, args.workload, args.seconds, args.seed);
    attempted = w.attempted;
    out = std::move(w.e2e);
    out["setup_s"] = {perfbench::median(setup_s), "s"};
  } else {
    // Untraced, then traced on a freshly warmed stack, half the window
    // each: the per-layer numbers come from the traced half, and
    // trace_overhead_frac is the traced half's change against the other.
    const Window plain = run_window(st, args.workload, args.seconds / 2, args.seed);
    st.shut_down();
    obs::TraceBuffer::instance().clear();
    g_tracing.store(true);
    bring_up(st, args.workload);
    const Window traced =
        run_window(st, args.workload, args.seconds / 2, args.seed);
    g_tracing.store(false);
    st.shut_down();  // the probes below must run alone
    attempted = plain.attempted + traced.attempted;
    out = traced.layer;
    for (const auto& [name, m] : plain.e2e)
      out["trace_overhead_frac." + name] = {
          m.value != 0.0 ? traced.e2e.at(name).value / m.value - 1.0 : 0.0,
          "frac"};
    nn_probes(*st.fx, args.workload == "kws_offline", out);
    auto& log = st.fx->log;
    {
      std::lock_guard<std::mutex> lk(log.m);
      out["nn.replica_build_ms"] = {perfbench::median(log.replica_ms), "ms"};
      out["nn.multable.build_ms"] = {perfbench::median(log.table_ms), "ms"};
    }
    out["setup.train_s"] = {perfbench::median(train_s), "s"};
    out["setup.reference_s"] = {perfbench::median(reference_s), "s"};
    out["setup.warmup_s"] = {perfbench::median(warmup_s), "s"};
    // kws_offline passes through no serving layer: those read 0, as
    // placeholders for the metrics every traced run reports.
    for (const auto& [name, unit] : kServingLayerMetrics)
      out.emplace(name, Metric{0.0, unit});
    if (!args.trace_out.empty()) {
      std::ofstream os(args.trace_out);
      obs::TraceBuffer::instance().write_chrome_trace(os);
    }
  }
  st.shut_down();

  for (const std::string& v : g_checks.violations)
    std::printf("check FAILED: %s\n", v.c_str());
  if (g_checks.wrong || g_checks.logit_mismatch)
    std::printf("check FAILED: %zu wrong predictions, %zu logit mismatches\n",
                g_checks.wrong, g_checks.logit_mismatch);
  print_result(attempted, out);
  return g_checks.failed() == 0 ? 0 : 1;
}

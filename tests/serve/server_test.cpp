// Server robustness contract:
//   * typed validation rejects, backpressure rejects, deadline sheds;
//   * every future resolves;
//   * served + rejected + shed == submitted after drain() — no request
//     is ever silently dropped, under concurrency and fault injection.
#include "serve/serve.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "approx/multipliers.hpp"
#include "fault/fault.hpp"
#include "nn/layers.hpp"
#include "obs/obs.hpp"

namespace nga::serve {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;

// A layer that burns wall time: lets tests make workers slow enough to
// provoke backpressure and deadline shedding deterministically.
class SleepLayer final : public nn::Layer {
 public:
  explicit SleepLayer(microseconds d) : d_(d) {}
  nn::Tensor forward(const nn::Tensor& x, const nn::Exec&) override {
    std::this_thread::sleep_for(d_);
    return x;
  }
  nn::Tensor backward(const nn::Tensor& dy) override { return dy; }
  std::string name() const override { return "sleep"; }

 private:
  microseconds d_;
};

constexpr int kC = 1, kH = 4, kW = 4;

nn::Tensor make_input(int i) {
  nn::Tensor x(kC, kH, kW);
  for (std::size_t j = 0; j < x.v.size(); ++j)
    x.v[j] = float((i * 31 + int(j) * 7) % 17) / 17.f;
  return x;
}

// All replicas share the seed, so every worker computes the same
// function.
std::unique_ptr<nn::Model> make_float_model() {
  util::Xoshiro256 rng(7);
  auto m = std::make_unique<nn::Model>("serve-test");
  m->add(std::make_unique<nn::Dense>(kC * kH * kW, 10, rng));
  return m;
}

ServerConfig float_config() {
  ServerConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 32;
  cfg.max_batch = 4;
  cfg.batch_linger = microseconds(100);
  cfg.in_c = kC;
  cfg.in_h = kH;
  cfg.in_w = kW;
  cfg.mode = nn::Mode::kFloat;
  cfg.model_factory = make_float_model;
  return cfg;
}

void expect_invariant(const Server::Stats& st) {
  EXPECT_EQ(st.served + st.rejected + st.shed, st.submitted)
      << "served=" << st.served << " rejected=" << st.rejected
      << " shed=" << st.shed << " submitted=" << st.submitted;
}

TEST(Server, RejectsBeforeStartAfterDrainAndOnBadInput) {
  Server srv(float_config());
  EXPECT_EQ(srv.state(), State::kStarting);

  auto f0 = srv.submit(make_input(0), milliseconds(100));
  auto r0 = f0.get();
  EXPECT_EQ(r0.outcome, Outcome::kRejected);
  EXPECT_EQ(r0.reason, RejectReason::kNotServing);

  srv.start();
  EXPECT_EQ(srv.state(), State::kServing);

  nn::Tensor bad(kC, kH + 1, kW);
  auto r1 = srv.submit(std::move(bad), milliseconds(100)).get();
  EXPECT_EQ(r1.outcome, Outcome::kRejected);
  EXPECT_EQ(r1.reason, RejectReason::kBadShape);

  nn::Tensor nan_in = make_input(1);
  nan_in.v[3] = std::nanf("");
  auto r2 = srv.submit(std::move(nan_in), milliseconds(100)).get();
  EXPECT_EQ(r2.outcome, Outcome::kRejected);
  EXPECT_EQ(r2.reason, RejectReason::kNonFinite);

  srv.drain();
  EXPECT_EQ(srv.state(), State::kStopped);
  auto r3 = srv.submit(make_input(2), milliseconds(100)).get();
  EXPECT_EQ(r3.outcome, Outcome::kRejected);
  EXPECT_EQ(r3.reason, RejectReason::kDraining);
  expect_invariant(srv.stats());
}

TEST(Server, ServesAndMatchesDirectForward) {
  auto reference = make_float_model();
  nn::Exec ex;  // float mode

  Server srv(float_config());
  srv.start();
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 32; ++i)
    futs.push_back(srv.submit(make_input(i), milliseconds(2000)));

  for (int i = 0; i < 32; ++i) {
    auto r = futs[std::size_t(i)].get();
    ASSERT_EQ(r.outcome, Outcome::kServed) << "request " << i;
    const nn::Tensor logits = reference->forward(make_input(i), ex);
    const int want =
        int(std::max_element(logits.v.begin(), logits.v.end()) -
            logits.v.begin());
    EXPECT_EQ(r.predicted, want) << "request " << i;
    EXPECT_GE(r.attempts, 1);
    EXPECT_GT(r.latency_ms, 0.0);
  }
  srv.drain();
  const auto st = srv.stats();
  EXPECT_EQ(st.served, 32u);
  expect_invariant(st);
}

TEST(Server, ShedsExpiredDeadlineAtSubmit) {
  Server srv(float_config());
  srv.start();
  auto r = srv.submit(make_input(0), Clock::now() - milliseconds(1)).get();
  EXPECT_EQ(r.outcome, Outcome::kShed);
  srv.drain();
  expect_invariant(srv.stats());
}

TEST(Server, ShedsBeforeExecutionWhenDeadlinePassesInQueue) {
  auto cfg = float_config();
  cfg.workers = 1;
  cfg.max_batch = 16;                     // batch never fills...
  cfg.batch_linger = milliseconds(50);    // ...so the worker lingers
  Server srv(cfg);
  srv.start();
  auto f0 = srv.submit(make_input(0), milliseconds(2));
  auto f1 = srv.submit(make_input(1), milliseconds(2));
  EXPECT_EQ(f0.get().outcome, Outcome::kShed);
  EXPECT_EQ(f1.get().outcome, Outcome::kShed);
  srv.drain();
  expect_invariant(srv.stats());
}

TEST(Server, OverloadRejectsWithBackpressure) {
  auto cfg = float_config();
  cfg.workers = 1;
  cfg.queue_capacity = 2;
  cfg.max_batch = 1;
  cfg.batch_linger = microseconds(0);
  cfg.model_factory = [] {
    auto m = make_float_model();
    m->add(std::make_unique<SleepLayer>(milliseconds(3)));
    return m;
  };
  Server srv(cfg);
  srv.start();

  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 30; ++i)
    futs.push_back(srv.submit(make_input(i), milliseconds(10000)));

  std::size_t overloaded = 0;
  for (auto& f : futs) {
    const auto r = f.get();
    if (r.outcome == Outcome::kRejected) {
      EXPECT_EQ(r.reason, RejectReason::kOverloaded);
      ++overloaded;
    }
  }
  EXPECT_GT(overloaded, 0u) << "a 2-deep queue fed 30 requests at once "
                               "must reject some";
  srv.drain();
  expect_invariant(srv.stats());
}

// The acceptance-criteria test: saturating concurrent load, drain in
// the middle of it, and zero silently dropped requests.
TEST(Server, DrainInvariantUnderSaturatingConcurrentLoad) {
  auto cfg = float_config();
  cfg.workers = 2;
  cfg.queue_capacity = 8;
  cfg.max_batch = 4;
  cfg.model_factory = [] {
    auto m = make_float_model();
    m->add(std::make_unique<SleepLayer>(microseconds(200)));
    return m;
  };
#if NGA_FAULT
  // Chaos on top: the armed MAC site never fires on the float path, but
  // arming while the pool serves proves arm()/hot-path concurrency is
  // safe (the TSan CI leg runs this test).
  fault::FaultPlan plan;
  plan.inject(fault::Site::kNnMul, fault::Model::kBitFlip, 0.02);
  fault::Injector::instance().arm(plan, 99);
#endif

  Server srv(cfg);
  srv.start();

  constexpr int kThreads = 4, kPerThread = 100;
  std::vector<std::future<Response>> futs[kThreads];
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t)
    producers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i)
        futs[t].push_back(srv.submit(make_input(t * kPerThread + i),
                                     milliseconds(i % 3 == 0 ? 1 : 50)));
    });
  for (auto& p : producers) p.join();
  srv.drain();

#if NGA_FAULT
  fault::Injector::instance().disarm();
#endif

  u64 served = 0, rejected = 0, shed = 0;
  for (auto& tf : futs)
    for (auto& f : tf) {
      ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                std::future_status::ready)
          << "a future was left unresolved after drain()";
      const auto r = f.get();
      served += r.outcome == Outcome::kServed;
      rejected += r.outcome == Outcome::kRejected;
      shed += r.outcome == Outcome::kShed;
    }
  const auto st = srv.stats();
  EXPECT_EQ(st.submitted, u64(kThreads * kPerThread));
  EXPECT_EQ(st.served, served);
  EXPECT_EQ(st.rejected, rejected);
  EXPECT_EQ(st.shed, shed);
  expect_invariant(st);
  EXPECT_EQ(srv.state(), State::kStopped);
}

// -- observability v2: tracing, numeric health, exposition -------------

// Spans recorded for one trace id, by name.
std::map<std::string, obs::TraceEvent> spans_of(u64 trace_id) {
  std::map<std::string, obs::TraceEvent> out;
  for (auto& ev : obs::TraceBuffer::instance().snapshot())
    if (ev.trace_id == trace_id) out[ev.name] = ev;
  return out;
}

TEST(Server, SampledRequestsShareOneTraceWithStageAncestry) {
  obs::TraceBuffer::instance().clear();
  auto cfg = float_config();
  cfg.trace_sample_rate = 1.0;  // trace every request
  Server srv(cfg);
  srv.start();
  auto r = srv.submit(make_input(0), milliseconds(2000)).get();
  ASSERT_EQ(r.outcome, Outcome::kServed);
  EXPECT_NE(r.trace_id, 0u) << "sampled requests expose their trace id";
  srv.drain();

  const auto spans = spans_of(r.trace_id);
  ASSERT_TRUE(spans.count("request.served")) << "root span closes at reply";
  ASSERT_TRUE(spans.count("queue_wait"));
  ASSERT_TRUE(spans.count("batch_fill"));
  ASSERT_TRUE(spans.count("exec"));

  // One stacked timeline: every stage is a child of the request root.
  const auto& root = spans.at("request.served");
  EXPECT_EQ(root.parent_span, 0u);
  EXPECT_NE(root.span_id, 0u);
  for (const char* stage : {"queue_wait", "batch_fill", "exec"}) {
    const auto& sp = spans.at(stage);
    EXPECT_EQ(sp.parent_span, root.span_id) << stage;
    EXPECT_EQ(sp.trace_id, r.trace_id) << stage;
  }
  // Stage spans nest inside the root's [start, start+dur] envelope.
  EXPECT_GE(spans.at("queue_wait").start_ns, root.start_ns);
  EXPECT_LE(spans.at("exec").start_ns + spans.at("exec").dur_ns,
            root.start_ns + root.dur_ns + 1'000'000 /*1ms clock slack*/);
  obs::TraceBuffer::instance().clear();
}

TEST(Server, UnsampledRequestsRecordNoSpans) {
  obs::TraceBuffer::instance().clear();
  Server srv(float_config());  // trace_sample_rate defaults to 0
  srv.start();
  auto r = srv.submit(make_input(0), milliseconds(2000)).get();
  ASSERT_EQ(r.outcome, Outcome::kServed);
  EXPECT_EQ(r.trace_id, 0u);
  srv.drain();
  for (const auto& ev : obs::TraceBuffer::instance().snapshot())
    EXPECT_EQ(ev.trace_id, 0u) << ev.name;
  obs::TraceBuffer::instance().clear();
}

TEST(Server, DrainWritesTextExpositionWhenConfigured) {
  const std::string path = ::testing::TempDir() + "nga_serve_expo.prom";
  auto cfg = float_config();
  cfg.exposition_path = path;
  Server srv(cfg);
  srv.start();
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(srv.submit(make_input(i), milliseconds(2000)).get().outcome,
              Outcome::kServed);
  srv.drain();

  std::ifstream is(path);
  ASSERT_TRUE(is.good()) << path;
  std::stringstream ss;
  ss << is.rdbuf();
  const std::string text = ss.str();
#if NGA_OBS
  EXPECT_NE(text.find("nga_serve_submitted_total"), std::string::npos);
  EXPECT_NE(text.find("# TYPE"), std::string::npos);
#else
  // With instrumentation compiled out, the file still exists (possibly
  // sparse) — the exposition path itself must not depend on NGA_OBS.
  (void)text;
#endif
  std::remove(path.c_str());
}

// The brownout ladder wired in but never engaged: at idle load, with an
// escalation threshold no run can reach, the ladder's telemetry is
// registered before any traffic and every request is served on tier 0.
TEST(Server, IdleLadderServesEveryRequestOnTierZero) {
  auto cfg = float_config();
  cfg.overload.enabled = true;
  cfg.overload.enter_ms = 1e9;  // unreachable: the ladder never moves
  const auto cheaper = [] { return std::make_shared<const nn::MulTable>(); };
  cfg.brownout_tables = {cheaper, cheaper};
  Server srv(cfg);

  // Normal, LingerOff, two brownout rungs and Shed: tiers 0..4, each
  // counted from the constructor on, so the metric schema depends on
  // the config and not on the traffic.
  constexpr int kMaxTier = 4;
  auto& reg = obs::MetricsRegistry::instance();
  const auto tier_key = [](int k, const char* what) {
    return "serve.overload.tier." + std::to_string(k) + "." + what;
  };
  const auto before = reg.counters_snapshot();
  for (int k = 0; k <= kMaxTier; ++k)
    for (const char* what : {"requests", "batches"})
      EXPECT_TRUE(before.count(tier_key(k, what))) << tier_key(k, what);

  srv.start();
  constexpr int kN = 16;
  for (int i = 0; i < kN; ++i) {
    const Response r = srv.submit(make_input(i), milliseconds(2000)).get();
    EXPECT_EQ(r.outcome, Outcome::kServed) << "request " << i;
    EXPECT_EQ(r.tier, 0) << "request " << i;
  }
  srv.drain();

  const auto after = reg.counters_snapshot();
  const auto delta = [&](const std::string& key) {
    return after.at(key) - before.at(key);
  };
  EXPECT_EQ(delta(tier_key(0, "requests")), u64(kN));
  EXPECT_GE(delta(tier_key(0, "batches")), 1u);
  EXPECT_LE(delta(tier_key(0, "batches")), u64(kN));
  for (int k = 1; k <= kMaxTier; ++k) {
    EXPECT_EQ(delta(tier_key(k, "requests")), 0u) << k;
    EXPECT_EQ(delta(tier_key(k, "batches")), 0u) << k;
  }
  EXPECT_EQ(delta("serve.overload.escalations"), 0u);
  EXPECT_EQ(delta("serve.overload.shed"), 0u);

  std::ostringstream os;
  obs::write_metrics_json(os, "server_test");
  const std::string j = os.str();
  EXPECT_NE(j.find("\"overload\":{\"ladder_engaged\":"), std::string::npos)
      << j;
  EXPECT_NE(j.find("\"tiers\":{\"0\":{\"requests\":"), std::string::npos)
      << j;

  const auto st = srv.stats();
  EXPECT_EQ(st.served, u64(kN));
  EXPECT_EQ(st.overload_shed, 0u);
  expect_invariant(st);
}

TEST(Server, NumericHealthAggregatesPerLayerAcrossWorkers) {
  const auto mults = ax::table2_multipliers();
  const nn::MulTable approx(*mults.front());

  auto cfg = float_config();
  cfg.mode = nn::Mode::kQuantApprox;  // the quant path counts MACs
  cfg.mul = &approx;
  Server srv(cfg);
  srv.start();
  for (int i = 0; i < 16; ++i)
    EXPECT_EQ(srv.submit(make_input(i), milliseconds(2000)).get().outcome,
              Outcome::kServed);
  srv.drain();

  const auto nh = srv.numeric_health();
  EXPECT_GT(nh.batches, 0u);
  ASSERT_EQ(nh.layers.size(), 1u) << "one Dense layer in the test model";
  EXPECT_EQ(nh.layers[0].name, "0.dense");
#if NGA_OBS
  EXPECT_GT(nh.total().macs, 0u)
      << "every quant MAC lands in the per-layer attribution";
  EXPECT_GT(nh.layers[0].counts.macs, 0u);
#endif
}

#if NGA_OBS
TEST(Server, StageLatencySeriesPopulatePerRequest) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.reset();
  Server srv(float_config());
  srv.start();
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(srv.submit(make_input(i), milliseconds(2000)).get().outcome,
              Outcome::kServed);
  srv.drain();

  const auto series = reg.series_snapshot();
  for (const char* key :
       {"serve.stage.queue_wait_ms", "serve.stage.batch_fill_ms",
        "serve.stage.exec_ms"}) {
    ASSERT_TRUE(series.count(key)) << key;
    EXPECT_EQ(series.at(key).count, 8u) << key << ": one sample/request";
    EXPECT_GE(series.at(key).min, 0.0) << key;
  }
}
#endif  // NGA_OBS

#if NGA_FAULT

std::unique_ptr<nn::Model> make_quant_model() { return make_float_model(); }

TEST(Server, RetryWithExactFailoverRecoversFromInjectedFaults) {
  const auto mults = ax::table2_multipliers();
  const nn::MulTable approx(*mults.front());
  const nn::MulTable exact;

  fault::FaultPlan plan;
  plan.inject(fault::Site::kNnMul, fault::Model::kBitFlip, 0.25);
  fault::Injector::instance().arm(plan, 4321);

  auto cfg = float_config();
  cfg.workers = 2;
  cfg.queue_capacity = 64;  // hold the whole burst: retries are slow
  cfg.mode = nn::Mode::kQuantApprox;
  cfg.mul = &approx;
  cfg.exact_fallback = &exact;
  cfg.max_attempts = 3;
  cfg.retry_exact_failover = true;
  cfg.backoff.base = microseconds(50);
  cfg.backoff.cap = microseconds(500);
  cfg.model_factory = make_quant_model;

  Server srv(cfg);
  srv.start();
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 40; ++i)
    futs.push_back(srv.submit(make_input(i), milliseconds(5000)));
  for (auto& f : futs)
    EXPECT_EQ(f.get().outcome, Outcome::kServed)
        << "the final attempt fails over to the fault-free exact table, "
           "so every request must eventually serve";
  srv.drain();
  fault::Injector::instance().disarm();

  const auto st = srv.stats();
  EXPECT_EQ(st.served, 40u);
  EXPECT_GT(st.retries, 0u) << "a 25% MAC fault rate must trip retries";
  expect_invariant(st);
}

TEST(Server, NoRetryRejectsTransientsAndDegradesThenRecovers) {
  const auto mults = ax::table2_multipliers();
  const nn::MulTable approx(*mults.front());
  const nn::MulTable exact;

  fault::FaultPlan plan;
  plan.inject(fault::Site::kNnMul, fault::Model::kBitFlip, 0.5);
  fault::Injector::instance().arm(plan, 77);

  auto cfg = float_config();
  cfg.workers = 1;
  cfg.mode = nn::Mode::kQuantApprox;
  cfg.mul = &approx;
  cfg.exact_fallback = &exact;
  cfg.max_attempts = 1;  // no retry: transients become typed rejects
  cfg.health.window = 16;
  cfg.health.min_samples = 4;
  cfg.health.degrade_error_rate = 0.5;
  cfg.health.recover_error_rate = 0.05;
  cfg.model_factory = make_quant_model;

  Server srv(cfg);
  srv.start();
  std::size_t exhausted = 0;
  for (int i = 0; i < 24; ++i) {
    const auto r = srv.submit(make_input(i), milliseconds(5000)).get();
    if (r.outcome == Outcome::kRejected) {
      EXPECT_EQ(r.reason, RejectReason::kRetriesExhausted);
      ++exhausted;
    }
  }
  EXPECT_GT(exhausted, 4u);
  EXPECT_EQ(srv.state(), State::kDegraded)
      << "a sustained transient-failure burst must degrade health";

  // Faults stop; clean batches age the errors out of the window and the
  // server recovers to Serving on its own.
  fault::Injector::instance().disarm();
  for (int i = 0; i < 40; ++i)
    EXPECT_EQ(srv.submit(make_input(i), milliseconds(5000)).get().outcome,
              Outcome::kServed);
  EXPECT_EQ(srv.state(), State::kServing);
  srv.drain();
  expect_invariant(srv.stats());
}

TEST(Server, GuardRecoveryCountsAsCleanAttempt) {
  const auto mults = ax::table2_multipliers();
  const nn::MulTable approx(*mults.front());
  const nn::MulTable exact;

  fault::FaultPlan plan;
  plan.inject(fault::Site::kNnMul, fault::Model::kBitFlip, 0.25);
  fault::Injector::instance().arm(plan, 5);

  auto cfg = float_config();
  cfg.workers = 1;
  cfg.mode = nn::Mode::kQuantApprox;
  cfg.mul = &approx;
  cfg.exact_fallback = &exact;
  cfg.use_guard = true;  // PR 2 layer-level recovery inside the worker
  cfg.max_attempts = 2;
  cfg.model_factory = make_quant_model;

  Server srv(cfg);
  srv.start();
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 20; ++i)
    futs.push_back(srv.submit(make_input(i), milliseconds(5000)));
  for (auto& f : futs) EXPECT_EQ(f.get().outcome, Outcome::kServed);
  srv.drain();
  fault::Injector::instance().disarm();

  const auto st = srv.stats();
  EXPECT_EQ(st.served, 20u);
  expect_invariant(st);
}

TEST(Server, RetryTimelineCarriesBackoffAndFailoverSpans) {
  const auto mults = ax::table2_multipliers();
  const nn::MulTable approx(*mults.front());
  const nn::MulTable exact;

  fault::FaultPlan plan;
  plan.inject(fault::Site::kNnMul, fault::Model::kBitFlip, 0.25);
  fault::Injector::instance().arm(plan, 4321);
  obs::TraceBuffer::instance().clear();

  auto cfg = float_config();
  cfg.workers = 1;
  cfg.queue_capacity = 64;
  cfg.mode = nn::Mode::kQuantApprox;
  cfg.mul = &approx;
  cfg.exact_fallback = &exact;
  cfg.max_attempts = 3;
  cfg.retry_exact_failover = true;
  cfg.backoff.base = microseconds(50);
  cfg.backoff.cap = microseconds(500);
  cfg.trace_sample_rate = 1.0;
  cfg.model_factory = make_quant_model;

  Server srv(cfg);
  srv.start();
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 40; ++i)
    futs.push_back(srv.submit(make_input(i), milliseconds(5000)));
  for (auto& f : futs) ASSERT_EQ(f.get().outcome, Outcome::kServed);
  srv.drain();
  fault::Injector::instance().disarm();

  // The numeric-health channel saw the injected faults, and the final
  // attempts that ran on the exact table were counted as failovers.
  const auto nh = srv.numeric_health();
  EXPECT_GT(nh.total().fault_detected, 0u);
  EXPECT_GT(nh.failovers, 0u);

  // At least one request's sampled timeline shows the full
  // retry-with-failover story: exec -> retry_backoff -> exec.failover,
  // all children of that request's root span.
  bool found_failover_timeline = false;
  std::map<u64, std::map<std::string, obs::TraceEvent>> by_trace;
  for (auto& ev : obs::TraceBuffer::instance().snapshot())
    if (ev.trace_id != 0) by_trace[ev.trace_id][ev.name] = ev;
  for (const auto& [tid, spans] : by_trace) {
    if (!spans.count("exec.failover")) continue;
    ASSERT_TRUE(spans.count("retry_backoff")) << "trace " << tid;
    ASSERT_TRUE(spans.count("request.served")) << "trace " << tid;
    const u64 root = spans.at("request.served").span_id;
    EXPECT_EQ(spans.at("exec.failover").parent_span, root);
    EXPECT_EQ(spans.at("retry_backoff").parent_span, root);
    EXPECT_GE(spans.at("exec.failover").start_ns,
              spans.at("retry_backoff").start_ns);
    found_failover_timeline = true;
  }
  EXPECT_TRUE(found_failover_timeline)
      << "a 25% fault rate over 40 requests must drive at least one "
         "request through backoff into exact failover";
  obs::TraceBuffer::instance().clear();
}

#endif  // NGA_FAULT

}  // namespace
}  // namespace nga::serve

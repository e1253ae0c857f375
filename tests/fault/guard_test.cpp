// End-to-end fault flow: injected faults traversing the real arithmetic
// paths, the detectors catching them, and ResilienceGuard degrading a
// guarded inference run onto the exact multiplier.
//
// The arithmetic-path cases need the NGA_FAULT hooks compiled in and
// skip themselves in NGA_FAULT=OFF builds; the guard state-machine
// cases drive the counters directly and, like the untripped guarded
// forward, run everywhere.
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <string>

#include "approx/multipliers.hpp"
#include "fault/fault.hpp"
#include "nn/data.hpp"
#include "nn/model.hpp"
#include "nn/resilience.hpp"
#include "posit/posit.hpp"
#include "posit/resilient.hpp"
#include "prof/attribution.hpp"

namespace nga {
namespace {

using fault::FaultPlan;
using fault::Injector;
using fault::Model;
using fault::Site;
using ps::posit16;
using util::u64;

class FaultScope {
 public:
  FaultScope(const FaultPlan& plan, u64 seed) {
    Injector::instance().arm(plan, seed);
  }
  ~FaultScope() { Injector::instance().disarm(); }
};

TEST(GuardStateMachine, TripsOnDetectedThresholdAndStaysDegraded) {
  nn::GuardThresholds thr;
  thr.detected = 3;
  nn::ResilienceGuard g(nullptr, thr);
  auto& det = obs::MetricsRegistry::instance().counter("fault.detected");

  g.begin_layer();
  det.inc(2);
  EXPECT_FALSE(g.layer_tripped());  // below threshold

  g.begin_layer();
  det.inc(3);
  EXPECT_TRUE(g.layer_tripped());
  g.enter_degraded("conv");
  EXPECT_TRUE(g.degraded());
  EXPECT_EQ(g.report().trips, 1u);
  EXPECT_EQ(g.report().first_tripped_layer, "conv");

  // Degraded mode is sticky and stops watching.
  g.begin_layer();
  det.inc(100);
  EXPECT_FALSE(g.layer_tripped());

  g.reset();
  EXPECT_FALSE(g.degraded());
  EXPECT_EQ(g.report().trips, 0u);
}

TEST(GuardStateMachine, NarThresholdTripsToo) {
  nn::GuardThresholds thr;
  thr.detected = 0;  // disabled
  thr.nar = 2;
  nn::ResilienceGuard g(nullptr, thr);
  auto& nar = obs::MetricsRegistry::instance().counter("posit.nar");
  g.begin_layer();
  nar.inc(1);
  EXPECT_FALSE(g.layer_tripped());
  g.begin_layer();
  nar.inc(2);
  EXPECT_TRUE(g.layer_tripped());
}

TEST(ResilientDot, FallsBackOnNarPoisonAndSkipsNarTerms) {
  std::vector<posit16> a, b;
  for (int i = 1; i <= 8; ++i) {
    a.push_back(posit16(double(i)));
    b.push_back(posit16(1.0));
  }
  ps::ResilientDotStats st;
  const posit16 clean = ps::resilient_dot<16, 1>(a, b, &st);
  EXPECT_FALSE(st.fell_back);
  EXPECT_DOUBLE_EQ(clean.to_double(), 36.0);

  a[3] = posit16::nar();  // poisoned term
  const posit16 recovered = ps::resilient_dot<16, 1>(a, b, &st);
  EXPECT_TRUE(st.fell_back);
  EXPECT_EQ(st.skipped, 1u);
  EXPECT_FALSE(recovered.is_nar());
  EXPECT_DOUBLE_EQ(recovered.to_double(), 32.0);  // 36 - the dropped 4
}

// The guarded Model::forward path in a build without fault hooks: with
// nothing to trip the guard, it must be a pure observer. Logits come
// back bit-identical to the unguarded forward, and the per-layer
// brackets inside the guarded loop still attribute every layer.
TEST(GuardedForward, UntrippedGuardKeepsLogitsBitIdentical) {
  constexpr int kT = 16, kMel = 12, kSamples = 6;
  const nn::Dataset data = nn::make_synth_kws(kSamples, kT, kMel, 5);
  nn::Model m = nn::make_kws_cnn1(kT, kMel, 3);
  nn::calibrate(m, data, kSamples);

  const auto mults = ax::table2_multipliers();
  const nn::MulTable approx(*mults.front());
  const nn::MulTable exact;
  nn::Exec plain;
  plain.mode = nn::Mode::kQuantApprox;
  plain.mul = &approx;

  nn::ResilienceGuard g(&exact);
  prof::LayerProfiler profiler("guarded");
  nn::Exec guarded = plain;
  guarded.guard = &g;
  guarded.prof = &profiler;

  for (const auto& s : data) {
    const nn::Tensor want = m.forward(s.x, plain);
    const nn::Tensor got = m.forward(s.x, guarded);
    ASSERT_EQ(got.v.size(), want.v.size());
    EXPECT_EQ(std::memcmp(got.v.data(), want.v.data(),
                          want.v.size() * sizeof(float)),
              0);
  }
  EXPECT_FALSE(g.degraded());
  EXPECT_EQ(g.report().trips, 0u);
  EXPECT_EQ(g.report().recovered_layers, 0u);

  const auto names = m.layer_names();
  ASSERT_EQ(profiler.layers().size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto& [key, rec] = profiler.layers()[i];
    EXPECT_EQ(key, "layer." + std::to_string(i) + "." + names[i]);
    EXPECT_EQ(rec.calls, u64(kSamples));
  }
}

#if NGA_FAULT

TEST(FaultFlow, PositEncodeBitflipChangesResults) {
  FaultPlan p;
  p.inject(Site::kPositEncode, Model::kBitFlip, 1.0);
  FaultScope scope(p, 42);
  // Every rounding now takes a bit flip; the sum of two representable
  // values must come back corrupted (flips always change the encoding).
  const posit16 x = posit16::from_bits(0x1234);
  const posit16 faulty = x + x;
  Injector::instance().disarm();
  const posit16 exact = x + x;
  EXPECT_NE(faulty.bits(), exact.bits());
  EXPECT_GT(Injector::instance().totals(Site::kPositEncode).injected, 0u);
}

TEST(FaultFlow, QuireOpSkipDropsAccumulations) {
  FaultPlan p;
  p.inject(Site::kQuireAccumulate, Model::kOpSkip, 1.0);
  FaultScope scope(p, 7);
  ps::quire<16, 1> q;
  for (int i = 0; i < 16; ++i)
    q.add_product(posit16(1.0), posit16(1.0));
  EXPECT_TRUE(q.is_zero());  // every accumulate was skipped
  EXPECT_EQ(Injector::instance().totals(Site::kQuireAccumulate).injected,
            16u);
}

TEST(FaultFlow, ExactMulTableIsTheGoldenUnit) {
  FaultPlan p;
  p.inject(Site::kNnMul, Model::kBitFlip, 1.0);
  FaultScope scope(p, 3);
  const nn::MulTable exact;
  // Faults model the approximate multiplier unit; the exact table is
  // the fallback hardware and must stay clean.
  for (unsigned a = 0; a < 256; a += 17)
    for (unsigned b = 0; b < 128; b += 11)
      EXPECT_EQ(exact.mul(nn::u8(a), nn::u8(b)), a * b);
  EXPECT_EQ(Injector::instance().totals(Site::kNnMul).injected, 0u);

  const auto mults = ax::table2_multipliers();
  const nn::MulTable approx(*mults.front());
  for (unsigned a = 0; a < 256; a += 17)
    for (unsigned b = 0; b < 128; b += 11)
      (void)approx.mul(nn::u8(a), nn::u8(b));
  EXPECT_GT(Injector::instance().totals(Site::kNnMul).injected, 0u);
}

TEST(FaultFlow, GuardedInferenceRecoversAccuracy) {
  // A small trained net, an aggressive MAC fault rate: unguarded
  // accuracy collapses, the guarded run degrades onto the exact table
  // and lands near the fault-free result. (The full curve is
  // bench/fault_sweep.cpp; this is the smoke version.)
  nn::Dataset train = nn::make_synth_images(160, 10, 1);
  nn::Dataset test = nn::make_synth_images(80, 10, 2);
  nn::Model m = nn::make_resnet_mini(10, 5);
  nn::TrainConfig cfg;
  cfg.epochs = 6;
  cfg.seed = 9;
  nn::train(m, train, cfg);
  nn::calibrate(m, train, 64);

  const auto mults = ax::table2_multipliers();
  const nn::MulTable approx(*mults.front());  // lowest-MRE stand-in
  const nn::MulTable exact;

  const double clean =
      nn::evaluate(m, test, nn::Mode::kQuantApprox, &approx).accuracy;

  FaultPlan p;
  p.inject(Site::kNnMul, Model::kBitFlip, 0.02);
  const double faulty = [&] {
    FaultScope scope(p, 77);
    return nn::evaluate(m, test, nn::Mode::kQuantApprox, &approx).accuracy;
  }();

  const auto [guarded, report] = [&] {
    FaultScope scope(p, 77);
    nn::ResilienceGuard g(&exact);
    const double acc =
        nn::evaluate(m, test, nn::Mode::kQuantApprox, &approx, &g).accuracy;
    return std::make_pair(acc, g.report());
  }();

  EXPECT_LT(faulty, clean - 0.04) << "fault rate too gentle for the test";
  EXPECT_TRUE(report.degraded);
  EXPECT_GE(report.recovered_layers, 1u);
  EXPECT_GT(guarded, faulty);
  EXPECT_NEAR(guarded, clean, 0.02);
}

#else  // !NGA_FAULT

TEST(FaultFlow, HooksCompiledOut) {
  GTEST_SKIP() << "NGA_FAULT=OFF: arithmetic-path hooks are compiled out";
}

#endif  // NGA_FAULT

}  // namespace
}  // namespace nga

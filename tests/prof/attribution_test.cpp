// LayerProfiler / ProfRegistry attribution contract: layer brackets in
// forward order, nominal-MAC and LUT-probe accounting, the modelled
// bytes, flush-merge semantics and the exported "prof" JSON section.
#include "prof/attribution.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "nn/model.hpp"
#include "obs/obs.hpp"

namespace nga::prof {
namespace {

constexpr int kIn = 16, kHidden = 8, kOut = 4;

nn::Model make_model() {
  util::Xoshiro256 rng(11);
  nn::Model m("prof-test");
  m.add(std::make_unique<nn::Dense>(kIn, kHidden, rng));
  m.add(std::make_unique<nn::ReLU>());
  m.add(std::make_unique<nn::Dense>(kHidden, kOut, rng));
  return m;
}

nn::Tensor make_input() {
  nn::Tensor x(1, 1, kIn);
  for (std::size_t i = 0; i < x.v.size(); ++i)
    x.v[i] = float(i % 5) / 5.f - 0.4f;
  return x;
}

void calibrate_once(nn::Model& m) {
  nn::Exec ex;
  ex.mode = nn::Mode::kFloat;
  ex.calibrate = true;
  m.forward(make_input(), ex);
}

TEST(ProfAttribution, BracketsEveryLayerInForwardOrder) {
  nn::Model m = make_model();
  calibrate_once(m);

  LayerProfiler p("t");

  const nn::MulTable exact;
  nn::Exec ex;
  ex.mode = nn::Mode::kQuantExact;
  ex.mul = &exact;
  ex.prof = &p;
  const int reps = 3;
  for (int r = 0; r < reps; ++r) m.forward(make_input(), ex);

  const auto& layers = p.layers();
  ASSERT_EQ(layers.size(), 3u);
  EXPECT_EQ(layers[0].first, "layer.0.dense");
  EXPECT_EQ(layers[1].first, "layer.1.relu");
  EXPECT_EQ(layers[2].first, "layer.2.dense");

  const KernelRecord& d0 = layers[0].second;
  EXPECT_EQ(d0.calls, u64(reps));
  EXPECT_EQ(d0.macs, u64(reps) * kIn * kHidden);
  // A dense layer has no padding skips: quantized MACs probe the
  // behavioural table exactly once per nominal MAC.
  EXPECT_EQ(d0.lut_probes, d0.macs);
  EXPECT_GT(d0.wall_ns, 0u);
  // Modelled traffic: in + out activations + params, floats, per call.
  const u64 params = u64(kIn) * kHidden + kHidden;
  EXPECT_EQ(d0.bytes, u64(reps) * (kIn + kHidden + params) * sizeof(float));

  // The ReLU does no MACs and probes nothing — but is still attributed.
  EXPECT_EQ(layers[1].second.macs, 0u);
  EXPECT_EQ(layers[1].second.lut_probes, 0u);
  EXPECT_EQ(layers[1].second.calls, u64(reps));
}

TEST(ProfAttribution, FlushMergesIntoRegistryAndClearsTheWindow) {
  ProfRegistry::instance().reset();
  nn::Model m = make_model();
  calibrate_once(m);

  LayerProfiler p("winA");
  const nn::MulTable exact;
  nn::Exec ex;
  ex.mode = nn::Mode::kQuantExact;
  ex.mul = &exact;
  ex.prof = &p;
  m.forward(make_input(), ex);
  p.flush();

  auto snap = ProfRegistry::instance().snapshot();
  ASSERT_TRUE(snap.count("winA.layer.0.dense"));
  EXPECT_EQ(snap["winA.layer.0.dense"].calls, 1u);

  // The local window is cleared (slots survive for the next round) and
  // an empty flush adds nothing.
  EXPECT_EQ(p.layers()[0].second.calls, 0u);
  p.flush();
  snap = ProfRegistry::instance().snapshot();
  EXPECT_EQ(snap["winA.layer.0.dense"].calls, 1u);

  // A second window accumulates additively.
  m.forward(make_input(), ex);
  m.forward(make_input(), ex);
  p.flush();
  snap = ProfRegistry::instance().snapshot();
  EXPECT_EQ(snap["winA.layer.0.dense"].calls, 3u);

  // Derived rates are mirrored as obs gauges.
  const auto gauges = obs::MetricsRegistry::instance().gauges_snapshot();
  EXPECT_TRUE(gauges.count("prof.winA.layer.0.dense.macs_per_s"));
  EXPECT_TRUE(gauges.count("prof.winA.layer.0.dense.arith_intensity"));

  // The exported record carries the accumulated window, every
  // wall-clock attribution key in a fixed order.
  std::ostringstream os;
  ProfRegistry::instance().write_json(os);
  const std::string j = os.str();
  EXPECT_EQ(j.rfind("{\"kernels\":{", 0), 0u) << j;
  EXPECT_NE(j.find("\"winA.layer.0.dense\":{\"calls\":3,\"macs\":"),
            std::string::npos)
      << j;
  for (const char* key : {"\"lut_probes\"", "\"bytes\"", "\"wall_ns\"",
                          "\"macs_per_s\"", "\"arith_intensity\""})
    EXPECT_NE(j.find(key), std::string::npos) << key << " in " << j;
  ProfRegistry::instance().reset();
}

TEST(ProfAttribution, ProfSectionRidesTheBenchJson) {
  // ProfRegistry self-registers the additive "prof" section of the
  // nga-bench-v1 document on first use; the schema gains the key
  // without any bench opting in.
  ProfRegistry::instance().reset();
  std::ostringstream os;
  obs::write_metrics_json(os, "attribution_test");
  const std::string j = os.str();
  EXPECT_NE(j.find("\"schema\":\"nga-bench-v1\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"prof\":{"), std::string::npos) << j;
  EXPECT_NE(j.find("\"kernels\":{"), std::string::npos) << j;
}

TEST(ProfAttribution, DerivedRatesHandleZeroDenominators) {
  KernelRecord r;
  EXPECT_EQ(r.macs_per_s(), 0.0);
  EXPECT_EQ(r.arith_intensity(), 0.0);

  r.macs = 2000;
  r.wall_ns = 1000;
  r.bytes = 500;
  EXPECT_DOUBLE_EQ(r.macs_per_s(), 2e9);
  EXPECT_DOUBLE_EQ(r.arith_intensity(), 4.0);
}

}  // namespace
}  // namespace nga::prof

// Prof baseline — per-layer performance attribution of the scalar exec
// path (nga::prof tentpole).
//
// Runs the small KWS net (untrained weights, calibrated activation
// ranges — attribution measures the datapath, not the accuracy story)
// through one LayerProfiler per multiplier configuration: the exact
// 8-bit table plus the ten Table 2 approximate multipliers. Each
// configuration gets its own scope ("mul_EXACT", "mul_KV8", ...), so
// the ProfRegistry ends up holding a per-layer × per-multiplier grid
// of MACs, LUT probes, modelled bytes and wall time.
//
// Output:
//   * a per-multiplier summary table (MACs/s, ns/MAC, LUT probes per
//     MAC) on stdout,
//   * a per-layer table for the exact scope (the roofline anchor),
//   * --json: the registry dump whose "prof" section is the committed
//     BENCH_prof_baseline.json payload CI diffs,
//   * --prof: the standalone nga-prof-v1 document.
//
// Flags: --quick (CI-sized: fewer forwards per configuration).
#include <cctype>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "approx/multipliers.hpp"
#include "nn/data.hpp"
#include "nn/model.hpp"
#include "prof/attribution.hpp"
#include "util/table.hpp"

#define NGA_BENCH_EXTRA_FLAGS {"--quick"}
#include "bench_main.hpp"

using namespace nga;
using namespace nga::nn;

namespace {

constexpr int kT = 16, kMel = 12;

/// "mul_<name>" with the multiplier name folded to [A-Za-z0-9_] — the
/// scope lands in metric names and bench_diff's mul_* normalizer.
std::string scope_of(const std::string& mult_name) {
  std::string s = "mul_";
  for (const char c : mult_name)
    s += (std::isalnum(static_cast<unsigned char>(c)) || c == '_')
             ? c
             : '_';
  return s;
}

struct SweepRow {
  std::string mult;
  bool exact = false;
  prof::KernelRecord total;  ///< summed over layers
};

}  // namespace

int nga_bench_main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  std::printf("== Prof baseline: per-layer attribution, exact + Table 2 "
              "approximate multipliers ==\n");

  const Dataset data = make_synth_kws(quick ? 16 : 64, kT, kMel, 7);
  Model model = make_kws_cnn1(kT, kMel, 3);
  calibrate(model, data, int(data.size()));

  const int reps = quick ? 2 : 8;
  const auto mults = ax::table2_multipliers();

  std::vector<SweepRow> rows;

  const auto sweep = [&](const std::string& mult_name, Mode mode,
                         const MulTable* table, bool exact) {
    prof::LayerProfiler profiler(scope_of(mult_name));

    Exec ex;
    ex.mode = mode;
    ex.mul = table;
    ex.prof = &profiler;
    for (int r = 0; r < reps; ++r)
      for (const auto& s : data) model.forward(s.x, ex);

    SweepRow row;
    row.mult = mult_name;
    row.exact = exact;
    for (const auto& [key, rec] : profiler.layers()) {
      (void)key;
      row.total += rec;
    }
    rows.push_back(row);
    profiler.flush();
  };

  const MulTable exact_table;
  {
    obs::TimedSection t("sweep.exact");
    sweep("EXACT", Mode::kQuantExact, &exact_table, true);
  }
  {
    obs::TimedSection t("sweep.approx");
    for (const auto& m : mults) {
      const MulTable table(*m);
      sweep(m->name(), Mode::kQuantApprox, &table, false);
    }
  }

  std::printf("\n");
  util::Table t({"multiplier", "mode", "MACs", "LUT probes/MAC", "MMACs/s",
                 "ns/MAC"});
  for (const auto& r : rows) {
    const auto& k = r.total;
    const double probes_per_mac =
        k.macs ? double(k.lut_probes) / double(k.macs) : 0.0;
    const double ns_per_mac =
        k.macs ? double(k.wall_ns) / double(k.macs) : 0.0;
    t.add_row({r.mult, r.exact ? "exact" : "approx",
               std::to_string(k.macs), util::cell(probes_per_mac, 2),
               util::cell(k.macs_per_s() / 1e6, 2),
               util::cell(ns_per_mac, 2)});
  }
  t.print(std::cout);

  // Per-layer roofline anchor: the exact scope, straight from the
  // registry (post-flush, so exactly what the JSON section carries).
  std::printf("\n-- per-layer attribution, mul_EXACT scope --\n");
  util::Table tl({"kernel", "calls", "MACs", "bytes", "MACs/byte",
                  "MMACs/s"});
  for (const auto& [key, k] : prof::ProfRegistry::instance().snapshot()) {
    if (key.rfind("mul_EXACT.", 0) != 0) continue;
    tl.add_row({key, std::to_string(k.calls), std::to_string(k.macs),
                std::to_string(k.bytes), util::cell(k.arith_intensity(), 3),
                util::cell(k.macs_per_s() / 1e6, 2)});
  }
  tl.print(std::cout);

  // Claims: every configuration attributed work, and the quantized
  // paths probed the behavioural table at most once per nominal MAC
  // and at least once per MAC net of the convs' padding skips (the
  // LUT-probe channel is the cross-check that attribution brackets the
  // real datapath; nominal conv MACs count the padded taps the
  // quantized loop skips, so probes land in (macs/2, macs]).
  bool ok = rows.size() == 1 + mults.size();
  for (const auto& r : rows) {
    const bool worked = r.total.macs > 0 && r.total.wall_ns > 0;
    const bool probed = r.total.lut_probes > r.total.macs / 2 &&
                        r.total.lut_probes <= r.total.macs;
    if (!worked || !probed)
      std::printf("FAIL: %s macs=%llu wall_ns=%llu lut_probes=%llu\n",
                  r.mult.c_str(), (unsigned long long)r.total.macs,
                  (unsigned long long)r.total.wall_ns,
                  (unsigned long long)r.total.lut_probes);
    ok = ok && worked && probed;
  }
  std::printf("\nattribution claims (work recorded, LUT probes bracket "
              "nominal MACs in quantized modes): %s\n",
              ok ? "HOLD" : "VIOLATED");
  return ok ? 0 : 1;
}

#include "prof/attribution.hpp"

#include <cmath>
#include <cstdio>

#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"

namespace nga::prof {

namespace {

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

KernelRecord& KernelRecord::operator+=(const KernelRecord& o) {
  calls += o.calls;
  macs += o.macs;
  lut_probes += o.lut_probes;
  bytes += o.bytes;
  wall_ns += o.wall_ns;
  return *this;
}

LayerProfiler::LayerProfiler(std::string scope)
    : scope_(std::move(scope)),
      mac_c_(obs::MetricsRegistry::instance().counter("nn.mac")) {}

void LayerProfiler::begin_forward() { cursor_ = 0; }

void LayerProfiler::begin_layer() {
  snap_mac_ = mac_c_.value();
  t0_ns_ = obs::now_ns();  // wall clock last: tightest bracket
}

void LayerProfiler::end_layer(std::string_view name, u64 macs, u64 bytes) {
  const u64 dur = obs::now_ns() - t0_ns_;
  if (cursor_ == layers_.size())
    layers_.emplace_back(
        "layer." + std::to_string(cursor_) + "." + std::string(name),
        KernelRecord{});
  KernelRecord& r = layers_[cursor_].second;
  ++cursor_;
  r.calls += 1;
  r.macs += macs;
  r.lut_probes += mac_c_.value() - snap_mac_;
  r.bytes += bytes;
  r.wall_ns += dur;
}

void LayerProfiler::flush() {
  ProfRegistry::instance().merge(scope_, layers_);
  for (auto& [k, r] : layers_) r = KernelRecord{};
}

ProfRegistry& ProfRegistry::instance() {
  static ProfRegistry r;
  return r;
}

ProfRegistry::ProfRegistry() {
  // Additive "prof" key in nga-bench-v1 JSON: registered on first use,
  // so benches that never touch the profiler keep their exact schema.
  obs::register_json_section(
      "prof", [](std::ostream& os) { instance().write_json(os); });
}

void ProfRegistry::merge(
    std::string_view scope,
    const std::vector<std::pair<std::string, KernelRecord>>& layers) {
  auto& obs_reg = obs::MetricsRegistry::instance();
  auto& trace = obs::TraceBuffer::instance();
  const u64 now = obs::now_ns();
  std::lock_guard<std::mutex> lk(m_);
  for (const auto& [key, rec] : layers) {
    if (rec.calls == 0) continue;
    const std::string full = std::string(scope) + "." + key;
    KernelRecord& k = kernels_[full];
    k += rec;
    // Mirror the derived rates as gauges so they ride the existing
    // exposition / bench-JSON paths.
    obs_reg.gauge("prof." + full + ".macs_per_s").set(k.macs_per_s());
    obs_reg.gauge("prof." + full + ".arith_intensity")
        .set(k.arith_intensity());
    // Chrome counter track: one "C" event per flush draws MACs/s over
    // time in the trace viewer, alongside the span lanes.
    obs::TraceEvent ev;
    ev.name = "prof." + full + ".macs_per_s";
    ev.start_ns = now;
    ev.tid = obs::this_thread_trace_id();
    ev.is_counter = true;
    ev.value = k.macs_per_s();
    trace.record(std::move(ev));
  }
}

std::map<std::string, KernelRecord> ProfRegistry::snapshot() const {
  std::lock_guard<std::mutex> lk(m_);
  return kernels_;
}

void ProfRegistry::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lk(m_);
  os << "{\"kernels\":{";
  bool first = true;
  for (const auto& [key, r] : kernels_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << obs::json::escape(key) << "\":{"
       << "\"calls\":" << r.calls << ",\"macs\":" << r.macs
       << ",\"lut_probes\":" << r.lut_probes << ",\"bytes\":" << r.bytes
       << ",\"wall_ns\":" << r.wall_ns
       << ",\"macs_per_s\":" << num(r.macs_per_s())
       << ",\"arith_intensity\":" << num(r.arith_intensity()) << "}";
  }
  os << "}}";
}

void ProfRegistry::reset() {
  std::lock_guard<std::mutex> lk(m_);
  kernels_.clear();
}

}  // namespace nga::prof

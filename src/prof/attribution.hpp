// Per-layer / per-kernel performance attribution — the roofline-style
// companion to nn/health.hpp's numeric-health recorder.
//
// A LayerProfiler brackets every layer of a forward pass
// (Model::forward with Exec::prof set) and attributes to each layer:
//   * macs        — nominal multiply-adds (Layer::macs(), the roofline
//                   work axis)
//   * lut_probes  — behavioural-table lookups actually executed
//                   ("nn.mac" counter delta: 0 in float mode, ==macs in
//                   the quantized paths — the divergence is itself a
//                   useful signal)
//   * bytes       — approximate traffic: input + output activations +
//                   parameters, each touched once per forward (a MODEL,
//                   not a measurement; documented in DESIGN.md)
//   * wall_ns     — steady-clock nanoseconds
//
// Like the health recorder it is single-threaded by design — one per
// model replica. flush() folds the accumulated records into the
// process-wide ProfRegistry keyed "<scope>.layer.<idx>.<name>", which
//   * mirrors derived rates (macs_per_s, arith_intensity) into obs
//     gauges so they ride the existing exposition/JSON paths,
//   * emits chrome-trace counter events (ph "C" tracks),
//   * serializes the additive "prof" section of nga-bench-v1 JSON.
#pragma once

#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/registry.hpp"
#include "util/bits.hpp"

namespace nga::prof {

using util::u64;

/// Accumulated cost of one kernel (one layer under one scope).
struct KernelRecord {
  u64 calls = 0;
  u64 macs = 0;        ///< nominal MACs (Layer::macs() x calls)
  u64 lut_probes = 0;  ///< "nn.mac" counter delta (actual table probes)
  u64 bytes = 0;       ///< modelled activation + parameter traffic
  u64 wall_ns = 0;

  KernelRecord& operator+=(const KernelRecord& o);

  // Roofline-style derived quantities (0 when undefined).
  double macs_per_s() const {
    return wall_ns ? double(macs) * 1e9 / double(wall_ns) : 0.0;
  }
  double arith_intensity() const {  ///< MACs per byte (work / traffic)
    return bytes ? double(macs) / double(bytes) : 0.0;
  }
};

/// Single-threaded per-replica recorder; see file comment.
class LayerProfiler {
 public:
  /// @p scope prefixes every kernel key ("mul_EXACT", "perfbench", ...).
  explicit LayerProfiler(std::string scope);

  // Bracket protocol, driven by Model::forward ------------------------
  void begin_forward();  ///< rewind the layer cursor
  void begin_layer();    ///< snapshot wall clock and "nn.mac"
  /// Attribute the deltas since begin_layer(). @p macs is the layer's
  /// nominal MAC count, @p bytes the modelled traffic of this call.
  void end_layer(std::string_view name, u64 macs, u64 bytes);

  /// Per-layer accumulation since construction / the last flush(),
  /// keyed "layer.<idx>.<name>" in forward order.
  const std::vector<std::pair<std::string, KernelRecord>>& layers() const {
    return layers_;
  }

  /// Fold the accumulated records into the global ProfRegistry under
  /// "<scope>.<layer key>" and clear the local accumulation (layer
  /// slots survive; a window flush, not a topology reset).
  void flush();

 private:
  std::string scope_;
  obs::Counter& mac_c_;  ///< "nn.mac" — the LUT-probe channel
  u64 t0_ns_ = 0;
  u64 snap_mac_ = 0;
  std::size_t cursor_ = 0;  ///< layer index within the current forward
  std::vector<std::pair<std::string, KernelRecord>> layers_;
};

/// Process-wide kernel-record store behind the additive "prof" JSON
/// section. Thread-safe: concurrent flushes merge under one mutex.
class ProfRegistry {
 public:
  static ProfRegistry& instance();

  /// Merge one profiler's window under "<scope>.<layer key>".
  void merge(std::string_view scope,
             const std::vector<std::pair<std::string, KernelRecord>>& layers);

  std::map<std::string, KernelRecord> snapshot() const;

  /// Serialize the "prof" JSON object:
  ///   {"kernels":{"<key>":{"calls":..,"macs":..,"lut_probes":..,
  ///               "bytes":..,"wall_ns":..,"macs_per_s":..,
  ///               "arith_intensity":..}, ...}}
  void write_json(std::ostream& os) const;

  /// Drop all records (tests).
  void reset();

 private:
  ProfRegistry();

  mutable std::mutex m_;
  std::map<std::string, KernelRecord> kernels_;
};

}  // namespace nga::prof

// Shared entry point for every bench/*.cpp.
//
// Each bench defines `nga_bench_main(argc, argv)` instead of `main`;
// this header supplies the real `main`, which
//   * strips the harness flags  --json <path>,  --trace <path>  and
//     --prof <path>  before forwarding the remaining argv to the bench
//     body,
//   * validates the command line up front: a harness flag without a
//     value, an output path that cannot be opened for writing, or an
//     unknown `--flag` all fail fast with a clear message and exit
//     code 2 — nothing is silently ignored,
//   * times the whole bench body as the "total" section (plus whatever
//     nested TimedSections the bench or the instrumented library add),
//   * on --json, writes the registry in the stable nga-bench-v1 schema
//     (see src/obs/export.hpp) — the format CI diffs as BENCH_*.json,
//   * on --trace, writes a chrome://tracing trace_event JSON document,
//   * on --prof, writes a standalone performance-attribution document
//     ({"schema":"nga-prof-v1","bench":...,"prof":{...}}, the same
//     object the "prof" section embeds in the bench JSON) — for benches
//     that drive a prof::LayerProfiler (see src/prof/). Useful when the
//     kernel table is wanted without the full registry dump.
//
// A bench that takes flags of its own declares them before including
// this header:
//     #define NGA_BENCH_EXTRA_FLAGS {"--csv", "--quick"}
// Only `--`-prefixed tokens are checked; bare values (flag arguments,
// positional args) always pass through.
//
// Everything pretty-printed to stdout is untouched: the human-readable
// tables stay the default interface, the JSON is the machine one.
#pragma once

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "prof/attribution.hpp"

#ifndef NGA_BENCH_EXTRA_FLAGS
#define NGA_BENCH_EXTRA_FLAGS {}
#endif

/// The bench body. Receives argv with harness flags removed.
int nga_bench_main(int argc, char** argv);

namespace nga::obs::harness {

inline std::string bench_name_from(const char* argv0) {
  std::string name = argv0 ? argv0 : "bench";
  const auto slash = name.find_last_of("/\\");
  if (slash != std::string::npos) name = name.substr(slash + 1);
  return name.empty() ? "bench" : name;
}

}  // namespace nga::obs::harness

int main(int argc, char** argv) {
  const std::vector<std::string> extra_flags = NGA_BENCH_EXTRA_FLAGS;
  std::string json_path, trace_path, prof_path;
  std::vector<char*> fwd;
  fwd.reserve(std::size_t(argc) + 1);
  if (argc > 0) fwd.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const bool is_json = std::strcmp(argv[i], "--json") == 0;
    const bool is_trace = std::strcmp(argv[i], "--trace") == 0;
    const bool is_prof = std::strcmp(argv[i], "--prof") == 0;
    if (is_json || is_trace || is_prof) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench harness: %s requires a file path\n",
                     argv[i]);
        return 2;
      }
      (is_json ? json_path : is_trace ? trace_path : prof_path) = argv[++i];
      continue;
    }
    if (std::strncmp(argv[i], "--", 2) == 0) {
      bool known = false;
      for (const auto& f : extra_flags) known = known || f == argv[i];
      if (!known) {
        std::string accepted = "--json <path>, --trace <path>, --prof <path>";
        for (const auto& f : extra_flags) accepted += ", " + f;
        std::fprintf(stderr,
                     "bench harness: unknown flag '%s' (accepted: %s)\n",
                     argv[i], accepted.c_str());
        return 2;
      }
    }
    fwd.push_back(argv[i]);
  }
  fwd.push_back(nullptr);

  // Open the output files before spending minutes in the bench body: an
  // unwritable path must fail now, not after the work is done.
  std::ofstream json_os, trace_os, prof_os;
  if (!json_path.empty()) {
    json_os.open(json_path);
    if (!json_os) {
      std::fprintf(stderr, "bench harness: cannot write JSON to '%s'\n",
                   json_path.c_str());
      return 2;
    }
  }
  if (!trace_path.empty()) {
    trace_os.open(trace_path);
    if (!trace_os) {
      std::fprintf(stderr, "bench harness: cannot write trace to '%s'\n",
                   trace_path.c_str());
      return 2;
    }
  }
  if (!prof_path.empty()) {
    prof_os.open(prof_path);
    if (!prof_os) {
      std::fprintf(stderr, "bench harness: cannot write prof output to '%s'\n",
                   prof_path.c_str());
      return 2;
    }
  }

  const std::string bench =
      nga::obs::harness::bench_name_from(argc > 0 ? argv[0] : nullptr);

  int rc;
  {
    nga::obs::TimedSection total("total");
    rc = nga_bench_main(int(fwd.size()) - 1, fwd.data());
  }

  if (json_os.is_open()) {
    nga::obs::write_metrics_json(json_os, bench);
    if (!json_os) {
      std::fprintf(stderr, "bench harness: failed to write JSON to '%s'\n",
                   json_path.c_str());
      if (rc == 0) rc = 1;
    }
  }
  if (trace_os.is_open()) {
    nga::obs::TraceBuffer::instance().write_chrome_trace(trace_os);
    if (!trace_os) {
      std::fprintf(stderr, "bench harness: failed to write trace to '%s'\n",
                   trace_path.c_str());
      if (rc == 0) rc = 1;
    }
  }
  if (prof_os.is_open()) {
    prof_os << "{\"schema\":\"nga-prof-v1\",\"bench\":\""
            << nga::obs::json::escape(bench) << "\",\"prof\":";
    nga::prof::ProfRegistry::instance().write_json(prof_os);
    prof_os << "}\n";
    if (!prof_os) {
      std::fprintf(stderr,
                   "bench harness: failed to write prof output to '%s'\n",
                   prof_path.c_str());
      if (rc == 0) rc = 1;
    }
  }
  return rc;
}

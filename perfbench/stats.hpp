// The benchmark's own statistics: percentiles, due-time latency, SLO
// accounting and the stage-residual arithmetic. Header-only and free of
// nga dependencies so perfbench_selftest can check it in isolation.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Linear-interpolated percentile (numpy's default "linear" method) of
/// @p v at quantile @p q in [0,1]; 0 for an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = std::size_t(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / double(v.size());
}

/// Open-loop latency of one request, measured from the time it was DUE
/// (the generator's schedule), not from when submit() ran: how late the
/// generator fired plus the server's own submit -> resolution time.
inline double due_latency_ms(Clock::time_point due, Clock::time_point call_start,
                             double server_latency_ms) {
  return ms_between(due, call_start) + server_latency_ms;
}

/// Fate of one sent request as the benchmark saw it.
struct RequestRecord {
  double at_s = 0.0;        ///< when it was due, from the window start
  double latency_ms = 0.0;  ///< due -> resolution (served requests only)
  bool served = false;
  bool correct = false;  ///< served and predicted == the reference class
  bool agree = false;    ///< served and predicted == the exact-table class
  bool quiet = false;    ///< sent by the quiet tenant
};

struct SloSummary {
  std::size_t sent = 0, served = 0, good = 0, agree = 0;
  std::size_t quiet_sent = 0, quiet_good = 0;
  std::vector<double> served_latency_ms;

  /// Good = served correctly within the deadline. A refusal, a shed
  /// request or a wrong answer is a miss.
  double slo_frac() const { return sent ? double(good) / double(sent) : 0.0; }
  double quiet_slo_frac() const {
    return quiet_sent ? double(quiet_good) / double(quiet_sent) : 0.0;
  }
  /// Delivered accuracy: served requests whose class equals the
  /// exact-table class.
  double agreement() const { return served ? double(agree) / double(served) : 0.0; }
};

inline SloSummary summarize(const std::vector<RequestRecord>& recs,
                            double deadline_ms) {
  SloSummary s;
  s.sent = recs.size();
  for (const RequestRecord& r : recs) {
    const bool good = r.served && r.correct && r.latency_ms <= deadline_ms;
    s.quiet_sent += r.quiet;
    s.quiet_good += r.quiet && good;
    s.good += good;
    if (!r.served) continue;
    ++s.served;
    s.agree += r.agree;
    s.served_latency_ms.push_back(r.latency_ms);
  }
  return s;
}

/// Split @p recs into @p k equal slices of [0, window_s) by at_s;
/// records at or past window_s land in the last slice.
inline std::vector<std::vector<RequestRecord>> slice(
    const std::vector<RequestRecord>& recs, double window_s, std::size_t k) {
  std::vector<std::vector<RequestRecord>> out(k);
  for (const RequestRecord& r : recs) {
    const double pos = window_s > 0.0 ? r.at_s / window_s * double(k) : 0.0;
    out[std::min(k - 1, std::size_t(std::max(0.0, pos)))].push_back(r);
  }
  return out;
}

/// f(summary of the slice, slice seconds) per slice of about @p slice_s
/// seconds, median over the slices: a host hiccup moves the result by at
/// most one slice's rank.
template <class F>
double sliced_median(const std::vector<RequestRecord>& recs, double window_s,
                     double slice_s, double deadline_ms, F&& f) {
  const std::size_t k =
      std::max<std::size_t>(1, std::size_t(window_s / slice_s + 0.5));
  std::vector<double> v;
  for (const auto& part : slice(recs, window_s, k))
    v.push_back(f(summarize(part, deadline_ms), window_s / double(k)));
  return median(std::move(v));
}

/// What the per-stage means leave unexplained of the mean end-to-end
/// latency: due -> resolve minus (queue wait + batch fill + exec).
inline double residual_ms(double mean_latency_ms, double queue_wait_ms,
                          double batch_fill_ms, double exec_ms) {
  return mean_latency_ms - (queue_wait_ms + batch_fill_ms + exec_ms);
}

}  // namespace perfbench

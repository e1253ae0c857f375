// perfbench_selftest — checks the benchmark's own statistics on inputs
// with known answers. perfbench/run.py runs it before every workload and
// refuses to report numbers when it fails.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect_near(const char* what, double got, double want, double tol = 1e-9) {
  if (std::fabs(got - want) <= tol) return;
  std::printf("selftest FAIL %s: got %.12g want %.12g\n", what, got, want);
  ++failures;
}

}  // namespace

int main() {
  using namespace perfbench;

  // Percentiles: 1..100 interpolates between ranks; order must not matter.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(double(i));
  expect_near("p50(1..100)", percentile(v, 0.50), 50.5);
  expect_near("p99(1..100)", percentile(v, 0.99), 99.01);
  expect_near("p0(1..100)", percentile(v, 0.0), 1.0);
  expect_near("p100(1..100)", percentile(v, 1.0), 100.0);
  expect_near("p99(single)", percentile({7.0}, 0.99), 7.0);
  expect_near("p50(empty)", percentile({}, 0.5), 0.0);
  expect_near("median(3,1,2)", median({3.0, 1.0, 2.0}), 2.0);
  expect_near("mean(1,2,3,6)", mean({1.0, 2.0, 3.0, 6.0}), 3.0);

  // Due-time latency: a request due at t, submitted 2 ms late, resolved
  // 5 ms after its submit, took 7 ms.
  const Clock::time_point due{};
  const Clock::time_point call = due + std::chrono::microseconds(2000);
  expect_near("due_latency", due_latency_ms(due, call, 5.0), 7.0);
  expect_near("due_latency on time", due_latency_ms(due, due, 5.0), 5.0);

  // SLO accounting over a deadline of 10 ms.
  std::vector<RequestRecord> recs = {
      {0.0, 3.0, true, true, true, false},    // good
      {0.0, 12.0, true, true, true, true},    // served late: a miss
      {0.0, 4.0, true, false, false, false},  // wrong answer: a miss
      {0.0, 0.0, false, false, false, true},  // refused: a miss
      {0.0, 9.5, true, true, false, true},    // good, disagrees with exact
  };
  const SloSummary s = summarize(recs, 10.0);
  expect_near("sent", double(s.sent), 5.0);
  expect_near("served", double(s.served), 4.0);
  expect_near("slo_frac", s.slo_frac(), 2.0 / 5.0);
  expect_near("quiet_slo_frac", s.quiet_slo_frac(), 1.0 / 3.0);
  expect_near("agreement", s.agreement(), 2.0 / 4.0);
  expect_near("served latency samples", double(s.served_latency_ms.size()), 4.0);
  expect_near("slo_frac(empty)", summarize({}, 10.0).slo_frac(), 0.0);

  // Slicing by due time: 10 records over a 10 s window into 5 slices of
  // 2 s; one late record lands in the last slice.
  std::vector<RequestRecord> timed;
  for (int i = 0; i < 10; ++i)
    timed.push_back({double(i), double(i + 1), true, true, true, false});
  timed.push_back({12.0, 1.0, false, false, false, false});
  const auto parts = slice(timed, 10.0, 5);
  expect_near("slices", double(parts.size()), 5.0);
  expect_near("slice 0 size", double(parts[0].size()), 2.0);
  expect_near("last slice size", double(parts[4].size()), 3.0);
  // Per-slice served/s = 1, 1, 1, 1, 1; per-slice p50 latency 1.5, 3.5,
  // 5.5, 7.5, 9.5 -> median 5.5.
  const auto rate = [](const SloSummary& s, double slice_s) {
    return double(s.served) / slice_s;
  };
  expect_near("sliced served/s", sliced_median(timed, 10.0, 2.0, 80.0, rate), 1.0);
  const auto p50 = [](const SloSummary& s, double) {
    return percentile(s.served_latency_ms, 0.5);
  };
  expect_near("sliced p50", sliced_median(timed, 10.0, 2.0, 80.0, p50), 5.5);

  // Stage residual: mean latency minus the three stage means.
  expect_near("residual", residual_ms(5.0, 1.25, 0.5, 2.0), 1.25);
  expect_near("residual negative", residual_ms(1.0, 0.5, 0.5, 0.5), -0.5);

  if (failures) {
    std::printf("selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("selftest: ok\n");
  return 0;
}

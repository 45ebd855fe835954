// Self-tests of the benchmark's own helpers: the percentile rule, fail
// accounting, the rate ladder's pass/fail rule and the Chrome-trace
// writer. Run with `python3 perfbench/run.py --selftest`; exits non-zero
// on the first failed check.
#include <cmath>
#include <cstdio>
#include <string>

#include "stats.h"
#include "trace_log.h"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentiles() {
  using namespace perfbench;
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  check(near(quantile(v, 0.5), 50.5), "type-7 median of 1..100 is 50.5");
  check(near(quantile(v, 0.9), 90.1), "type-7 p90 of 1..100 is 90.1");
  check(near(quantile({3, 1, 2}, 0.5), 2), "quantile sorts its input");
  check(quantile({}, 0.5) == 0, "quantile of nothing is 0");
  check(samples_beyond(100, 0.9) == 10, "100 samples leave 10 beyond p90");
  check(samples_beyond(92, 0.9) == 10, "92 samples leave 10 beyond p90");
  check(samples_beyond(91, 0.9) == 9, "91 samples leave 9 beyond p90");
  check(min_samples_for(0.9) == 92, "p90 needs 92 samples");
  check(near(fastest_third_mean({9, 3, 6, 12, 1, 30}), 2),
        "fastest_third_mean averages the fastest third (2 of 6)");
  check(near(fastest_third_mean({5, 4, 7, 1}), 2.5),
        "fastest_third_mean rounds the third up (2 of 4)");
  check(fastest_third_mean({}) == 0, "fastest_third_mean of nothing is 0");
  check(samples_beyond(min_samples_for(0.99), 0.99) >= kTailSupport &&
            samples_beyond(min_samples_for(0.99) - 1, 0.99) < kTailSupport,
        "min_samples_for is the smallest count with 10 beyond the tail");
}

void test_fail_accounting() {
  perfbench::FailCount f;
  check(f.fail_frac() == 0 && f.success_frac() == 0,
        "no attempts: both fractions 0");
  for (int i = 0; i < 7; ++i) f.ok();
  f.fail();      // shed / rejected / transport error
  f.mismatch();  // wrong output
  f.mismatch();
  check(f.attempted == 10 && f.failed == 3 && f.mismatches == 2,
        "attempted counts every outcome, failed every non-success");
  check(near(f.fail_frac(), 0.3) && near(f.success_frac(), 0.7),
        "fail_frac = failed / attempted");
}

void test_ladder() {
  using perfbench::LadderStep;
  const double slo = 20;
  auto step = [](double rate, double p90, std::size_t n, std::uint64_t failed,
                 bool grew) {
    LadderStep s;
    s.rate = rate;
    s.p90_ms = p90;
    s.samples = n;
    s.failed = failed;
    s.backlog_grew = grew;
    return s;
  };
  check(perfbench::ladder_step_passes(step(100, 20, 100, 0, false), slo),
        "p90 equal to the SLO passes");
  check(!perfbench::ladder_step_passes(step(100, 20.01, 100, 0, false), slo),
        "p90 above the SLO fails");
  check(!perfbench::ladder_step_passes(step(100, 1, 100, 1, false), slo),
        "one failed or shed request fails the step");
  check(!perfbench::ladder_step_passes(step(100, 1, 100, 0, true), slo),
        "a growing backlog fails the step");
  check(!perfbench::ladder_step_passes(step(100, 1, 91, 0, false), slo),
        "a p90 without 10 samples beyond it fails the step");
  const std::vector<LadderStep> steps = {
      step(100, 5, 200, 0, false), step(200, 8, 200, 0, false),
      step(300, 30, 200, 0, false), step(400, 5, 200, 0, false)};
  check(perfbench::ladder_max_rate(steps, slo) == 200,
        "ladder stops at the first failing rate");
  check(perfbench::ladder_max_rate({step(100, 50, 200, 0, false)}, slo) == 0,
        "ladder is 0 when its lowest step fails");
  std::vector<double> flat(40, 3.0), rising;
  for (int i = 0; i < 40; ++i) rising.push_back(1.0 + i);
  check(!perfbench::backlog_grew(flat, slo), "flat latencies: no backlog");
  check(perfbench::backlog_grew(rising, slo),
        "latency rising by > SLO/2 across the step: backlog grew");
  check(near(perfbench::ladder_rate(0), 50) &&
            near(perfbench::ladder_rate(1), 52.5),
        "ladder grid is 50 * 1.05^i");
}

void test_trace_writer() {
  perfbench::TraceLog off(false);
  check(off.begin("x") == 0 && off.spans().empty(), "disabled log records nothing");

  perfbench::TraceLog log(true);
  const perfbench::u64 parent = log.begin("graph.execute", 7);
  const perfbench::u64 child = log.begin("child");
  log.end(child, {{"gemm_ms", 1.5}});
  log.end(parent);
  const std::vector<perfbench::Span> spans = log.spans();
  bool linked = false;
  for (const perfbench::Span& s : spans) {
    if (s.id == child) linked = s.parent == parent && s.request == 7;
  }
  check(spans.size() == 2 && linked,
        "nested spans record parent and inherit the request id");

  // Self time: a 100 ns span with children covering [10,30) and [20,50)
  // (overlap counted once) has 60 ns of self time; a childless 10 ns span
  // of the same name adds 10.
  perfbench::TraceLog t(true);
  const perfbench::u64 root = t.add("root", 0, 100, 0, 1);
  t.add("root", 200, 210, 0, 2);  // another root: its own self time only
  t.add("a", 10, 30, root, 1);
  t.add("b", 20, 50, root, 1);
  const auto totals = perfbench::totals_by_name(t.spans());
  check(near(totals.at("root").self_ms, 70e-6),
        "self time subtracts the union of child intervals");
  check(near(totals.at("a").total_ms, 20e-6) && totals.at("root").count == 2,
        "totals_by_name sums durations per name");

  const std::string json = log.chrome_json();
  check(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0) == 0 &&
            json.find("\"ph\":\"X\"") != std::string::npos &&
            json.find("\"gemm_ms\":1.5") != std::string::npos &&
            json.back() == '}',
        "chrome trace: complete events with args in a traceEvents array");
  perfbench::TraceLog esc(true);
  esc.add("a\"b\\c\n", 0, 1, 0, 0);
  check(esc.chrome_json().find("a\\\"b\\\\c\\n") != std::string::npos,
        "chrome trace escapes names");
}

}  // namespace

int main() {
  test_percentiles();
  test_fail_accounting();
  test_ladder();
  test_trace_writer();
  std::printf("%s (%d failed)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}

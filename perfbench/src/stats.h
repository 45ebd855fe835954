// Sample statistics and pass/fail rules shared by every workload.
//
// Header-only and free of ondwin dependencies so perfbench_selftest can
// check the rules in isolation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Type-7 (linear interpolation) quantile, the rule numpy and Python's
/// statistics.quantiles(method="inclusive") use. Empty input gives 0.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Samples that rank strictly beyond the q-quantile of n samples: the
/// sorted indices i with i > (n-1)·q.
inline std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const double pos = q * static_cast<double>(n - 1);
  const std::size_t last_at_or_below =
      static_cast<std::size_t>(std::floor(pos));
  return n - 1 - last_at_or_below;
}

/// A tail percentile is reported only when at least this many samples lie
/// beyond it.
inline constexpr std::size_t kTailSupport = 10;

/// Smallest sample count whose q-quantile has kTailSupport samples beyond
/// it (92 for p90).
inline std::size_t min_samples_for(double q) {
  std::size_t n = 1;
  while (samples_beyond(n, q) < kTailSupport) ++n;
  return n;
}

/// Mean of the fastest third (rounded up) of per-round medians. Co-tenant
/// load on a shared host slows whole rounds for seconds at a time and
/// never speeds one up, so the fastest rounds estimate what the code
/// costs; averaging a third of them keeps one lucky round from setting
/// the figure. 0 for no rounds.
inline double fastest_third_mean(std::vector<double> rounds) {
  if (rounds.empty()) return 0.0;
  std::sort(rounds.begin(), rounds.end());
  const std::size_t k = (rounds.size() + 2) / 3;
  double sum = 0;
  for (std::size_t i = 0; i < k; ++i) sum += rounds[i];
  return sum / static_cast<double>(k);
}

/// Attempted/failed accounting. Every failure has a reason; a wrong output,
/// an exception, a rejection, a shed request, an expired deadline and a
/// transport error all count the same.
struct FailCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;  // outputs beyond tolerance (subset of failed)

  void ok() { ++attempted; }
  void fail() {
    ++attempted;
    ++failed;
  }
  void mismatch() {
    fail();
    ++mismatches;
  }
  double fail_frac() const {
    return attempted > 0 ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 0.0;
  }
  double success_frac() const {
    return attempted > 0 ? 1.0 - fail_frac() : 0.0;
  }
};

/// One step of the serving rate ladder.
struct LadderStep {
  double rate = 0;          // offered requests per second
  double p90_ms = 0;        // latency from due time
  std::size_t samples = 0;  // requests sent in the step
  std::uint64_t failed = 0;
  bool backlog_grew = false;
};

/// A step meets the limit when every request succeeded, the p90 latency
/// from due time is within the SLO, the p90 has kTailSupport samples
/// beyond it, and the backlog did not grow. A failed or shed request
/// misses the limit by definition, so any failure fails the step.
inline bool ladder_step_passes(const LadderStep& s, double slo_ms) {
  return s.failed == 0 && !s.backlog_grew && s.p90_ms <= slo_ms &&
         samples_beyond(s.samples, 0.9) >= kTailSupport;
}

/// Backlog growth within a step: completions fall behind when the median
/// latency of the last quarter of sends exceeds that of the first quarter
/// by more than half the SLO. `latencies_ms` is in send order.
inline bool backlog_grew(const std::vector<double>& latencies_ms,
                         double slo_ms) {
  const std::size_t n = latencies_ms.size();
  if (n < 8) return false;
  const std::size_t q = n / 4;
  const std::vector<double> first(latencies_ms.begin(),
                                  latencies_ms.begin() + q);
  const std::vector<double> last(latencies_ms.end() - q, latencies_ms.end());
  return median(last) > median(first) + slo_ms / 2;
}

/// The ladder result: the highest rate that passes, scanning upward and
/// stopping at the first failing step (a rate above a failure does not
/// count even if it happened to pass). 0 when the lowest step fails.
inline double ladder_max_rate(const std::vector<LadderStep>& steps,
                              double slo_ms) {
  double best = 0;
  for (const LadderStep& s : steps) {
    if (!ladder_step_passes(s, slo_ms)) break;
    best = std::max(best, s.rate);
  }
  return best;
}

/// The fixed rate grid the ladder draws from: base·1.05^i.
inline double ladder_rate(int i) { return 50.0 * std::pow(1.05, i); }

}  // namespace perfbench

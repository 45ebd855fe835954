// Shared state of one benchmark run and the workload entry points.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "host.h"
#include "nets.h"
#include "report.h"
#include "stats.h"
#include "trace_log.h"

namespace perfbench {

struct Args {
  std::string workload;
  unsigned long long seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // Chrome trace path (traced runs)
  double tol = 0;         // bound on every checked output's max_rel
  double rate = 0;        // serve_rpc fixed offered rate, req/s
  std::string sock;       // serve_rpc unix socket path
};

// serve_rpc: max_rps_slo is the highest ladder rate whose p90 latency from
// due time is within kSloMs; a run whose generator sent later than its due
// times by more than kLagBoundMs at p90 is not open loop and is invalid
// (lag p90 was 0.06-0.21 ms on the 4-vCPU host of the seed numbers).
constexpr double kSloMs = 20;
constexpr double kLagBoundMs = 1;

struct Run {
  Args args;
  TraceLog log;
  std::vector<int> cpus;  // allowed CPUs
  int threads = 1;        // = cpus.size()
  double deadline_s = 0;  // hard stop for the timed loops
  FailCount fails;
  double rel_err_max = 0;
  double err_diff2 = 0, err_ref2 = 0;  // pooled over checked outputs
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  JsonObject envelope;
  bool valid = true;  // false when a validity check failed; exits 1
  // Traced runs: 1 − Σ executor steps ÷ forward wall, and Σ replayed
  // ConvPlan wall ÷ in-network conv time − 1.
  double step_residual = NAN;
  double replay_residual = NAN;

  explicit Run(const Args& a) : args(a), log(a.trace) {}

  /// Records one checked output: max_rel within tolerance is a success.
  void check_output(const OutputError& err) {
    rel_err_max = std::max(rel_err_max, err.max_rel);
    err_diff2 += err.diff2;
    err_ref2 += err.ref2;
    if (err.max_rel <= args.tol) {
      fails.ok();
    } else {
      fails.mismatch();
    }
  }
  void e2e(const std::string& name, double v, const std::string& unit) {
    end_to_end.push_back({name, v, unit});
  }
  void layer(const std::string& name, double v, const std::string& unit) {
    per_layer.push_back({name, v, unit});
  }
  bool out_of_time() const { return now_s() > deadline_s; }
  /// Marks the run invalid when fewer than kTailSupport of `n` samples
  /// lie beyond their p90 (a loop stopped at the deadline).
  void require_tail_support(std::size_t n, const char* what) {
    if (samples_beyond(n, 0.9) >= kTailSupport) return;
    valid = false;
    std::fprintf(stderr,
                 "perfbench: run INVALID: %zu %s samples leave fewer than %zu "
                 "beyond p90\n",
                 n, what, kTailSupport);
  }
};

/// vgg2d (graph::Executor) and unet3d (Sequential).
void run_net_workload(Run& run, bool graph_executor);
/// serve_rpc: open-loop Poisson load over rpc into InferenceServer.
void run_serve_workload(Run& run);

}  // namespace perfbench

// perfbench — the repository benchmark program.
//
//   perfbench --workload vgg2d|unet3d|serve_rpc --seed N --seconds S
//             --trace 0|1 --tol T --rate R
//             [--trace-out path] [--sock path]
//
// Prints one envelope line ({"envelope": {...}}: run conditions and
// sample counts) and, last, the result line
// {"correct", "attempted", "failed", "metrics"}. Untraced runs carry the
// end-to-end metrics, traced runs the per-layer ones (and write a Chrome
// trace). Exits 1 on any output beyond tolerance, a failed traced-run
// residual check or an invalid run (generator lag over kLagBoundMs, too
// few samples beyond a reported p90), 2 on bad arguments.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "ondwin/ondwin.h"
#include "util/cpu.h"
#include "util/precision.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The benchmark's metric names; perfbench/run.py checks that they match
// BENCHMARK.json. A per-layer metric a workload does not exercise (the
// rpc tier on a net, Sequential's layers on a graph) is reported as 0.
constexpr MetricDef kEndToEnd[] = {
    {"latency_ms_p50", "ms"},   {"latency_ms_p90", "ms"},
    {"latency_1t_ms_p50", "ms"}, {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},     {"success_frac", "1"},
    {"max_rps_slo", "req/s"},
};

constexpr MetricDef kPerLayer[] = {
    {"transform.input_ms", "ms"},      {"transform.inverse_ms", "ms"},
    {"transform.gbps", "GB/s"},        {"transform.roofline_frac", "1"},
    {"gemm.ms", "ms"},                 {"gemm.gflops", "GFLOP/s"},
    {"gemm.roofline_frac", "1"},       {"core.eff_gflops", "GFLOP/s"},
    {"sched.fork_join_ms", "ms"},      {"sched.imbalance", "1"},
    {"sched.os_threads", "count"},     {"sched.cpu_ms_per_op", "ms"},
    {"sched.nivcsw_per_op", "count"},  {"sched.scaling_eff", "1"},
    {"graph.conv_ms", "ms"},           {"graph.other_ms", "ms"},
    {"graph.residual_frac", "1"},      {"graph.fused_epilogues", "count"},
    {"net.conv_ms", "ms"},             {"net.pool_ms", "ms"},
    {"net.residual_frac", "1"},        {"core.fused_layers", "count"},
    {"core.plan_build_ms", "ms"},      {"core.set_kernels_ms", "ms"},
    {"graph.compile_ms", "ms"},        {"net.build_ms", "ms"},
    {"core.first_op_ms", "ms"},        {"core.replay_residual_frac", "1"},
    {"mem.workspace_mb", "MiB"},       {"mem.minflt_per_op", "count"},
    {"mem.pool_hit_rate", "1"},        {"rpc.transport_ms_p50", "ms"},
    {"serve.queue_ms_p50", "ms"},      {"serve.queue_ms_p90", "ms"},
    {"serve.exec_ms_p50", "ms"},       {"serve.exec_ms_per_sample", "ms"},
    {"serve.batch_mean", "count"},     {"rpc.shed", "count"},
    {"rpc.transport_errors", "count"}, {"load.lag_ms_p90", "ms"},
    {"host.steal_frac", "1"},          {"bench.trace_overhead_frac", "1"},
    {"bench.fail_frac", "1"},          {"bench.rel_err_max", "1"},
    {"bench.rel_err_rms", "1"},
};

// Stated residuals of the traced run's checks. Executor steps are timed
// back to back inside execute(), so they must cover the forward wall to
// within 5%. The replay runs each conv as a standalone plan beside the
// live network, i.e. with one more spinning pool than the network's own
// plans met, so it may read up to 60% above the in-network conv time.
constexpr double kStepResidualBound = 0.05;
constexpr double kReplayResidualBound = 0.60;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    auto num = [&]() {
      const double d = std::strtod(v, &end);
      if (end == v || *end != '\0') usage(("bad number for " + k).c_str());
      return d;
    };
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') usage("bad --seed");
    } else if (k == "--seconds") {
      a.seconds = num();
    } else if (k == "--trace") {
      a.trace = num() != 0;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else if (k == "--tol") {
      a.tol = num();
    } else if (k == "--rate") {
      a.rate = num();
    } else if (k == "--sock") {
      a.sock = v;
    } else {
      usage(("unknown argument " + k).c_str());
    }
    seen.insert(k);
  }
  for (const char* req : {"--workload", "--seed", "--seconds", "--trace",
                          "--tol", "--rate"}) {
    if (seen.count(req) == 0) usage((std::string("missing ") + req).c_str());
  }
  if (a.seconds <= 0 || a.tol <= 0 || a.rate <= 0) {
    usage("--seconds, --tol and --rate must be > 0");
  }
  if (a.workload != "vgg2d" && a.workload != "unet3d" &&
      a.workload != "serve_rpc") {
    usage("--workload must be vgg2d, unet3d or serve_rpc");
  }
  if (a.sock.empty()) a.sock = "perfbench.sock";
  return a;
}

const char* env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

int run_main(int argc, char** argv) {
  Run run(parse(argc, argv));
  const double start = now_s();
  // Every loop stops here regardless of its sample floor, so a run ends
  // well inside the 180 s a run may take.
  run.deadline_s = start + 120.0;
  run.cpus = allowed_cpus();
  run.threads = static_cast<int>(run.cpus.size());
  const CpuJiffies j0 = read_cpu_jiffies();

  run.envelope.str("workload", run.args.workload)
      .num("seed", static_cast<double>(run.args.seed))
      .boolean("trace", run.args.trace)
      .str("git_sha", env_or("PERFBENCH_GIT_SHA", "unavailable"))
      .str("src_digest", env_or("PERFBENCH_SRC_DIGEST", "unavailable"))
      .str("cpu_features", ondwin::cpu_feature_string())
      .str("precision_tier", ondwin::precision_tier_string())
      .num("threads", run.threads)
      .str("affinity", cpu_list_string(run.cpus))
      .str("cgroup_cpu_max", cgroup_cpu_max())
      .str("hugepages", hugepage_status())
      .num("tol", run.args.tol);

  if (run.args.trace) {
    // Calibrate the roofline before any plan (and its pool) exists.
    ScopedSpan s(run.log, "select.machine_profile");
    (void)ondwin::select::measured_machine_profile();
  }

  {
    ScopedSpan s(run.log, "bench." + run.args.workload, 0);
    if (run.args.workload == "serve_rpc") {
      run_serve_workload(run);
    } else {
      run_net_workload(run, run.args.workload == "vgg2d");
    }
  }

  const double steal = steal_frac(j0, read_cpu_jiffies());
  run.envelope.num("rel_err_max", run.rel_err_max)
      .num("host_steal_frac", steal)
      .boolean("valid", run.valid)
      .num("wall_s", now_s() - start);

  // Every defined metric in definition order; one the workload did not
  // report is 0.
  std::vector<Metric> metrics;
  auto collect = [&metrics](const auto& defs, const std::vector<Metric>& have) {
    for (const MetricDef& d : defs) {
      auto it = std::find_if(have.begin(), have.end(),
                             [&d](const Metric& m) { return m.name == d.name; });
      metrics.push_back(it != have.end() ? *it : Metric{d.name, 0, d.unit});
    }
  };
  bool residuals_ok = true;
  if (!run.args.trace) {
    run.e2e("success_frac", run.fails.success_frac(), "1");
    collect(kEndToEnd, run.end_to_end);
  } else {
    run.layer("host.steal_frac", steal, "1");
    run.layer("bench.fail_frac", run.fails.fail_frac(), "1");
    run.layer("bench.rel_err_max", run.rel_err_max, "1");
    run.layer("bench.rel_err_rms",
              run.err_ref2 > 0 ? std::sqrt(run.err_diff2 / run.err_ref2) : 0,
              "1");
    collect(kPerLayer, run.per_layer);
    const bool step_ok = std::fabs(run.step_residual) <= kStepResidualBound;
    const bool replay_ok =
        std::fabs(run.replay_residual) <= kReplayResidualBound;
    residuals_ok = step_ok && replay_ok;
    std::fprintf(stderr,
                 "perfbench: residual check: 1 - sum(steps)/forward = %+.4f "
                 "(bound %.2f) %s; replay/in-network conv - 1 = %+.4f "
                 "(bound %.2f) %s\n",
                 run.step_residual, kStepResidualBound, step_ok ? "ok" : "FAIL",
                 run.replay_residual, kReplayResidualBound,
                 replay_ok ? "ok" : "FAIL");
    run.envelope.num("step_residual_frac", run.step_residual)
        .num("replay_residual_frac", run.replay_residual)
        .boolean("residual_checks_pass", residuals_ok);
    // Where the traced run's time went, by span name (self time = span
    // minus the part its child spans cover).
    const auto totals = totals_by_name(run.log.spans());
    std::vector<std::pair<std::string, NameTotals>> rows(totals.begin(),
                                                          totals.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      return a.second.self_ms > b.second.self_ms;
    });
    std::fprintf(stderr, "perfbench: %-28s %8s %12s %12s\n", "span", "count",
                 "total_ms", "self_ms");
    for (std::size_t i = 0; i < rows.size() && i < 16; ++i) {
      std::fprintf(stderr, "perfbench: %-28s %8zu %12.3f %12.3f\n",
                   rows[i].first.c_str(), rows[i].second.count,
                   rows[i].second.total_ms, rows[i].second.self_ms);
    }
    if (!run.args.trace_out.empty()) {
      if (!run.log.write(run.args.trace_out)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     run.args.trace_out.c_str());
        residuals_ok = false;
      }
      run.envelope.str("chrome_trace", run.args.trace_out);
    }
  }

  const bool correct = run.fails.mismatches == 0 && run.fails.attempted > 0;
  if (!correct) {
    std::fprintf(stderr,
                 "perfbench: %llu of %llu checked outputs beyond tolerance %g "
                 "(rel_err_max %g)\n",
                 static_cast<unsigned long long>(run.fails.mismatches),
                 static_cast<unsigned long long>(run.fails.attempted),
                 run.args.tol, run.rel_err_max);
  }
  std::printf("%s\n", JsonObject().raw("envelope", run.envelope.dump()).dump().c_str());
  std::printf("%s\n", JsonObject()
                          .boolean("correct", correct)
                          .num("attempted", static_cast<double>(run.fails.attempted))
                          .num("failed", static_cast<double>(run.fails.failed))
                          .raw("metrics", metrics_json(metrics))
                          .dump()
                          .c_str());
  std::fflush(stdout);
  return correct && residuals_ok && run.valid ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}

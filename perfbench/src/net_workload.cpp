// vgg2d and unet3d: closed-loop whole-network inference at all allowed
// CPUs, then the same net at one thread.
//
// Contention hygiene: idle per-plan pools busy-wait, so only the plans of
// the phase being timed are alive — each runner is destroyed before the
// next is built, vgg2d's graph IR is built directly (no Sequential whose
// plans would spin beside the executor's), and the oracle runs on one
// thread before any timed phase.
#include <memory>

#include "nets.h"
#include "replay.h"
#include "workloads.h"

namespace perfbench {

using namespace ondwin;

namespace {

class NetRunner {
 public:
  virtual ~NetRunner() = default;
  virtual void forward(const float* in, float* out) = 0;
  /// Per-step wall times of the last forward: (step name, seconds, is conv).
  struct Step {
    const char* name;
    double seconds;
    bool conv;
  };
  virtual std::vector<Step> steps() const = 0;
  virtual double workspace_bytes() const = 0;
  virtual int fused_epilogues() const { return 0; }
};

/// vgg2d: the graph IR compiled by graph::Executor (fusion on, one arena).
class GraphRunner : public NetRunner {
 public:
  GraphRunner(const NetSpec& spec, const NetParams& params, int threads,
              double* compile_ms) {
    graph::Graph g = build_graph(spec, params);
    graph::CompileOptions co;
    co.plan.threads = threads;
    co.fusion = true;
    const double t0 = now_s();
    exec_ = std::make_unique<graph::Executor>(std::move(g), co);
    *compile_ms = (now_s() - t0) * 1e3;
  }
  void forward(const float* in, float* out) override {
    exec_->execute(in, out);
  }
  std::vector<Step> steps() const override {
    std::vector<Step> s;
    for (std::size_t i = 0; i < exec_->step_count(); ++i) {
      const graph::OpKind k = exec_->fusion().steps[i].kind;
      s.push_back({graph::op_name(k), exec_->step_seconds(i),
                   k == graph::OpKind::kConv});
    }
    return s;
  }
  double workspace_bytes() const override {
    return static_cast<double>(exec_->arena_bytes());
  }
  int fused_epilogues() const override {
    int n = 0;
    for (const graph::Step& st : exec_->fusion().steps) {
      if (st.has_epilogue()) ++n;
    }
    return n;
  }

 private:
  std::unique_ptr<graph::Executor> exec_;
};

/// unet3d: the layered Sequential runner (ping-pong buffers).
class SeqRunner : public NetRunner {
 public:
  SeqRunner(const NetSpec& spec, const NetParams& params, int threads,
            double* build_ms)
      : spec_(spec) {
    PlanOptions po;
    po.threads = threads;
    const double t0 = now_s();
    net_ = build_sequential(spec, params, po);
    *build_ms = (now_s() - t0) * 1e3;
  }
  void forward(const float* in, float* out) override {
    net_->forward_into(in, out);
  }
  std::vector<Step> steps() const override {
    std::vector<Step> s;
    for (int i = 0; i < net_->layer_count(); ++i) {
      const bool pool = spec_.layers[static_cast<std::size_t>(i)].pool;
      s.push_back({pool ? "maxpool" : "conv", net_->layer_seconds(i), !pool});
    }
    return s;
  }
  double workspace_bytes() const override {
    return static_cast<double>(net_->workspace_bytes());
  }

 private:
  const NetSpec& spec_;
  std::unique_ptr<Sequential> net_;
};

struct LoopResult {
  std::vector<double> ms;         // untraced forward wall times
  std::vector<double> traced_ms;  // traced forward wall times
  std::vector<double> conv_ms, other_ms, residual;  // per forward
  Usage usage;                    // summed over the loop's chunks
  int os_threads = 0;
  std::size_t ops() const { return ms.size() + traced_ms.size(); }
};

/// One chunk of a closed loop: one caller, back-to-back forwards, each
/// output checked outside the timed region, appended to `r`. Runs until
/// `budget_s` elapsed and `r` holds at least `min_samples` untraced
/// samples. With `alternate_trace`, every other forward is recorded as a
/// span with per-step children (taken from the executor's step timers).
void closed_loop(Run& run, NetRunner& net,
                 const std::vector<AlignedBuffer<float>>& inputs,
                 const std::vector<AlignedBuffer<float>>& refs,
                 AlignedBuffer<float>& out, double budget_s,
                 std::size_t min_samples, bool alternate_trace,
                 const char* span_name, LoopResult& r) {
  const Usage u0 = read_usage();
  const double start = now_s();
  for (std::size_t i = 0;; ++i) {
    const bool enough = r.ms.size() >= min_samples &&
                        now_s() - start >= budget_s;
    if (enough || run.out_of_time()) break;
    const std::size_t idx = i % inputs.size();
    const bool traced = alternate_trace && (i % 2 == 1);
    const u64 req = r.ops() + 1;
    u64 span = 0;
    const u64 span_start = traced ? run.log.now_ns() : 0;
    if (traced) span = run.log.begin(span_name, req);
    const double a = now_s();
    net.forward(inputs[idx].data(), out.data());
    const double ms = (now_s() - a) * 1e3;
    if (traced) run.log.end(span);
    (traced ? r.traced_ms : r.ms).push_back(ms);

    double conv = 0, other = 0;
    u64 t = span_start;
    for (const NetRunner::Step& s : net.steps()) {
      (s.conv ? conv : other) += s.seconds * 1e3;
      if (traced) {
        const u64 d = static_cast<u64>(s.seconds * 1e9);
        run.log.add(std::string(span_name) + "." + s.name, t, t + d, span,
                    req, {{"derived_from_step_timer", 1}});
        t += d;
      }
    }
    r.conv_ms.push_back(conv);
    r.other_ms.push_back(other);
    r.residual.push_back(1.0 - (conv + other) / ms);
    if (i == 2 && r.os_threads == 0) r.os_threads = os_threads();
    run.check_output(compare_output(out.data(), refs[idx].data(),
                                    static_cast<i64>(out.size())));
  }
  const Usage u1 = read_usage();
  r.usage.cpu_s += u1.cpu_s - u0.cpu_s;
  r.usage.nivcsw += u1.nivcsw - u0.nivcsw;
  r.usage.minflt += u1.minflt - u0.minflt;
}

}  // namespace

void run_net_workload(Run& run, bool graph_executor) {
  const NetSpec spec = graph_executor ? vgg2d_spec() : unet3d_spec();
  const int threads = run.threads;
  const bool trace = run.args.trace;
  Rng rng(run.args.seed);
  const NetParams params = make_params(spec, rng);
  const ImageLayout in_l = input_layout(spec);
  const ImageLayout out_l = output_layout(spec);

  // Oracle first, on one thread, with no library plan alive; its working
  // buffers are gone before any peak-RSS window opens.
  constexpr int kInputs = 3;
  std::vector<AlignedBuffer<float>> inputs, refs;
  {
    ScopedSpan s(run.log, "oracle.reference");
    const double t0 = now_s();
    for (int i = 0; i < kInputs; ++i) {
      inputs.push_back(make_input(in_l, rng));
      refs.push_back(reference_forward(spec, params, inputs.back().data()));
    }
    run.envelope.num("oracle_s", now_s() - t0);
  }
  AlignedBuffer<float> out(static_cast<std::size_t>(out_l.total_floats()));

  auto make = [&](int t, double* build_ms) -> std::unique_ptr<NetRunner> {
    if (graph_executor) {
      return std::make_unique<GraphRunner>(spec, params, t, build_ms);
    }
    return std::make_unique<SeqRunner>(spec, params, t, build_ms);
  };
  const char* fwd_span = graph_executor ? "graph.execute" : "net.forward";

  // The host's speed drifts by up to ~25% over seconds (co-tenant load),
  // so the run is cut into rounds, each of which sets the net up at all
  // CPUs (one set-up sample), times a chunk of forwards, destroys it, and
  // times a chunk of forwards of the same net at one thread. Only one
  // runner is ever alive. The one-thread latency is the mean of the
  // fastest third of the rounds' medians (see fastest_third_mean).
  constexpr int kRounds = 10;
  const std::size_t min_all = trace ? 40 : min_samples_for(0.9);
  const double s = run.args.seconds;
  std::vector<double> setup_s, build_ms, first_ms;
  LoopResult all, one;
  std::vector<double> round_p50_1t;
  std::vector<double> peak_mb;  // per round
  double net_workspace = 0;
  int fused_epilogues = 0;
  ReplayTotals replay;
  for (int round = 0; round < kRounds; ++round) {
    std::unique_ptr<NetRunner> net;
    {
      ScopedSpan span(run.log, "bench.setup");
      double b_ms = 0;
      const double a = now_s();
      {
        ScopedSpan build(run.log, graph_executor ? "graph.compile" : "net.build");
        net = make(threads, &b_ms);
      }
      const double b = now_s();
      {
        ScopedSpan first(run.log, fwd_span);
        net->forward(inputs[0].data(), out.data());
      }
      const double c = now_s();
      setup_s.push_back(c - a);
      build_ms.push_back(b_ms);
      first_ms.push_back((c - b) * 1e3);
      run.check_output(compare_output(out.data(), refs[0].data(),
                                      static_cast<i64>(out.size())));
    }
    reset_peak_rss();
    closed_loop(run, *net, inputs, refs, out, 0.45 * s / kRounds,
                min_all * (round + 1) / kRounds, trace, fwd_span, all);
    peak_mb.push_back(peak_rss_mb());
    net_workspace = net->workspace_bytes();
    fused_epilogues = net->fused_epilogues();
    if (trace && round == kRounds - 1) {
      // Replayed with the network still alive, so each standalone plan
      // meets the pools the in-network plans met.
      ScopedSpan span(run.log, "core.replay");
      PlanOptions po;
      po.threads = threads;
      replay = replay_convs(run, spec, params, po, graph_executor, 5);
    }
    net.reset();

    double b1 = 0;
    std::unique_ptr<NetRunner> net1 = make(1, &b1);
    net1->forward(inputs[1].data(), out.data());
    const std::size_t first = one.ms.size();
    closed_loop(run, *net1, inputs, refs, out, 0.35 * s / kRounds,
                first + 10, trace, fwd_span, one);
    round_p50_1t.push_back(median(std::vector<double>(
        one.ms.begin() + static_cast<std::ptrdiff_t>(first), one.ms.end())));
  }
  const double p50 = median(all.ms);
  const double p50_1t = fastest_third_mean(round_p50_1t);

  run.envelope.num("samples_all_cpus", static_cast<double>(all.ms.size()))
      .num("samples_beyond_p90", static_cast<double>(samples_beyond(all.ms.size(), 0.9)))
      .num("samples_1_thread", static_cast<double>(one.ms.size()))
      .num("setup_repeats", kRounds)
      .raw("round_p50_1t_ms", json_array(round_p50_1t))
      .num("winograd_error_bound_sum", winograd_error_bound_sum(spec));

  if (!trace) {
    run.require_tail_support(all.ms.size(), "all-CPU forward");
    run.e2e("latency_ms_p50", p50, "ms");
    run.e2e("latency_ms_p90", quantile(all.ms, 0.9), "ms");
    run.e2e("latency_1t_ms_p50", p50_1t, "ms");
    run.e2e("setup_s", median(setup_s), "s");
    run.e2e("peak_rss_mb", median(peak_mb), "MiB");
    // A single caller's sustained rate at all CPUs (one fixed source, so
    // the figure keeps its meaning when either latency moves).
    run.e2e("max_rps_slo", 1e3 / p50, "req/s");
    return;
  }

  emit_replay_metrics(run, replay);
  const double ops = static_cast<double>(std::max<std::size_t>(all.ops(), 1));
  run.layer("core.eff_gflops", direct_flops(spec) / (p50 * 1e-3) / 1e9,
            "GFLOP/s");
  run.layer("sched.os_threads", all.os_threads, "count");
  run.layer("sched.cpu_ms_per_op", all.usage.cpu_s * 1e3 / ops, "ms");
  run.layer("sched.nivcsw_per_op", static_cast<double>(all.usage.nivcsw) / ops,
            "count");
  run.layer("sched.scaling_eff", p50_1t / (threads * p50), "1");
  const double conv_ms = median(all.conv_ms);
  const double residual = median(all.residual);
  const std::string prefix = graph_executor ? "graph." : "net.";
  run.layer(prefix + "conv_ms", conv_ms, "ms");
  run.layer(prefix + (graph_executor ? "other_ms" : "pool_ms"),
            median(all.other_ms), "ms");
  run.layer(prefix + "residual_frac", residual, "1");
  if (graph_executor) {
    run.layer("graph.fused_epilogues", fused_epilogues, "count");
    run.layer("graph.compile_ms", median(build_ms), "ms");
  } else {
    run.layer("net.build_ms", median(build_ms), "ms");
  }
  run.layer("core.first_op_ms", median(first_ms) - p50, "ms");
  run.layer("mem.workspace_mb",
            (net_workspace + (graph_executor ? replay.workspace_bytes : 0)) /
                (1024.0 * 1024.0),
            "MiB");
  run.layer("mem.minflt_per_op", static_cast<double>(all.usage.minflt) / ops,
            "count");
  run.layer("mem.pool_hit_rate",
            mem::WorkspacePool::global().stats().hit_rate(), "1");
  run.layer("bench.trace_overhead_frac",
            all.traced_ms.empty() ? 0 : median(all.traced_ms) / p50 - 1, "1");
  const double replay_residual = conv_ms > 0 ? replay.wall_ms / conv_ms - 1 : 0;
  run.layer("core.replay_residual_frac", replay_residual, "1");
  run.step_residual = residual;
  run.replay_residual = replay_residual;
}

}  // namespace perfbench

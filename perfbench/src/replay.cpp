#include "replay.h"

#include <algorithm>

#include "select/machine_profile.h"

namespace perfbench {

using namespace ondwin;

ReplayTotals replay_convs(Run& run, const NetSpec& spec,
                          const NetParams& params, const PlanOptions& options,
                          bool pool_in_epilogue, int reps) {
  ReplayTotals t;
  Rng rng(run.args.seed ^ 0x5eedULL);
  for (const ConvLayer& cl : conv_layers(spec)) {
    ScopedSpan layer_span(run.log, "core.layer");
    layer_span.arg("layer", cl.index);
    const ImageLayout in = cl.problem.input_layout();
    ImageLayout out = cl.problem.output_layout();
    Epilogue ep;
    ep.bias = params.bias[cl.index].data();
    ep.relu = true;
    if (pool_in_epilogue && cl.pool_after > 1) {
      ep.pool_window = cl.pool_after;
      Dims pd = out.spatial;
      for (int d = 0; d < pd.rank(); ++d) pd[d] /= cl.pool_after;
      out = ImageLayout(out.batch, out.channels, pd);
    }
    AlignedBuffer<float> x = make_input(in, rng);
    AlignedBuffer<float> y(static_cast<std::size_t>(out.total_floats()));

    double t0 = now_s();
    std::unique_ptr<ConvPlan> plan;
    {
      ScopedSpan s(run.log, "core.plan_build");
      plan = std::make_unique<ConvPlan>(cl.problem, options);
    }
    t.plan_build_ms += (now_s() - t0) * 1e3;
    t0 = now_s();
    {
      ScopedSpan s(run.log, "core.set_kernels");
      plan->set_kernels(params.w_blocked[cl.index].data());
    }
    t.set_kernels_ms += (now_s() - t0) * 1e3;

    for (int i = 0; i < 2; ++i) plan->execute_pretransformed(x.data(), y.data(), ep);
    std::vector<double> wall, inp, gemm, scat, inv, fork_join;
    double imb = 1;
    ConvPlanStats last;
    for (int i = 0; i < reps; ++i) {
      ScopedSpan s(run.log, "core.execute");
      const double a = now_s();
      plan->execute_pretransformed(x.data(), y.data(), ep);
      wall.push_back((now_s() - a) * 1e3);
      last = plan->last_stats();
      inp.push_back(last.input_transform * 1e3);
      gemm.push_back(last.gemm * 1e3);
      scat.push_back(last.scatter_copy * 1e3);
      inv.push_back(last.inverse_transform * 1e3);
      // kernel_transform is not part of an FX execute (it carries the
      // set_kernels() time), so the stage total here excludes it.
      fork_join.push_back(wall.back() - inp.back() - gemm.back() -
                          scat.back() - inv.back());
      for (const StageBalance* b :
           {&last.input_balance, &last.gemm_balance, &last.scatter_balance,
            &last.inverse_balance}) {
        imb = std::max(imb, b->imbalance());
      }
      s.arg("input_transform_ms", inp.back());
      s.arg("gemm_ms", gemm.back());
      s.arg("scatter_copy_ms", scat.back());
      s.arg("inverse_transform_ms", inv.back());
      s.arg("fused", last.fused ? 1 : 0);
    }
    t.wall_ms += median(wall);
    t.input_ms += median(inp);
    t.gemm_ms += median(gemm);
    t.scatter_ms += median(scat);
    t.inverse_ms += median(inv);
    t.fork_join_ms += median(fork_join);
    t.imbalance_max = std::max(t.imbalance_max, imb);
    t.transform_bytes +=
        static_cast<double>(in.total_floats() + out.total_floats()) *
            sizeof(float) +
        static_cast<double>(last.u_bytes + last.iout_bytes);
    t.gemm_flops += 2.0 * static_cast<double>(cl.problem.winograd_macs());
    t.workspace_bytes += static_cast<double>(plan->workspace_bytes());
    if (plan->fusion_policy().fused) ++t.fused_layers;
  }
  return t;
}

void emit_replay_metrics(Run& run, const ReplayTotals& r) {
  const select::MachineProfile& prof = select::measured_machine_profile();
  const double tr_ms = r.input_ms + r.inverse_ms;
  const double gbps = tr_ms > 0 ? r.transform_bytes / (tr_ms * 1e-3) / 1e9 : 0;
  const double gflops = r.gemm_ms > 0 ? r.gemm_flops / (r.gemm_ms * 1e-3) / 1e9 : 0;
  run.layer("transform.input_ms", r.input_ms, "ms");
  run.layer("transform.inverse_ms", r.inverse_ms, "ms");
  run.layer("transform.gbps", gbps, "GB/s");
  run.layer("transform.roofline_frac",
            prof.stream_gbps > 0 ? gbps / prof.stream_gbps : 0, "1");
  run.layer("gemm.ms", r.gemm_ms, "ms");
  run.layer("gemm.gflops", gflops, "GFLOP/s");
  run.layer("gemm.roofline_frac",
            prof.gemm_gflops > 0 ? gflops / prof.gemm_gflops : 0, "1");
  run.layer("sched.fork_join_ms", r.fork_join_ms, "ms");
  run.layer("sched.imbalance", r.imbalance_max, "1");
  run.layer("core.fused_layers", r.fused_layers, "count");
  run.layer("core.plan_build_ms", r.plan_build_ms, "ms");
  run.layer("core.set_kernels_ms", r.set_kernels_ms, "ms");
  run.envelope.num("machine_stream_gbps", prof.stream_gbps)
      .num("machine_gemm_gflops", prof.gemm_gflops)
      .boolean("machine_profile_measured", prof.measured);
}

}  // namespace perfbench

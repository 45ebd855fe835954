// Per-layer replay: every conv layer of a net, rebuilt as a standalone
// ConvPlan with the same problem, options and epilogue as inside the
// network, executed a few times so ConvPlan::last_stats() yields the
// per-stage split the network executors do not expose.
#pragma once

#include "nets.h"
#include "workloads.h"

namespace perfbench {

struct ReplayTotals {
  double wall_ms = 0;  // Σ median execute wall
  double input_ms = 0;
  double gemm_ms = 0;
  double scatter_ms = 0;
  double inverse_ms = 0;
  double fork_join_ms = 0;  // Σ median (wall − Σ stages)
  double imbalance_max = 1;
  double plan_build_ms = 0;
  double set_kernels_ms = 0;
  double transform_bytes = 0;  // computed: image + Û + I' + output
  double gemm_flops = 0;       // 2 · Winograd MACs
  double workspace_bytes = 0;
  int fused_layers = 0;
};

/// Replays each conv layer of `spec` at `options`; `pool_in_epilogue`
/// folds the following max-pool into the conv's epilogue (what
/// graph::Executor's fusion pass does), otherwise only bias+ReLU are.
ReplayTotals replay_convs(Run& run, const NetSpec& spec,
                          const NetParams& params,
                          const ondwin::PlanOptions& options,
                          bool pool_in_epilogue, int reps);

/// Emits the transform.*, gemm.*, sched.fork_join_ms, sched.imbalance and
/// core.* replay metrics, with rooflines from the in-run MachineProfile.
void emit_replay_metrics(Run& run, const ReplayTotals& r);

}  // namespace perfbench

// Network workloads: shapes, seeded parameters, the direct-convolution
// reference chain, and construction for both network executors.
#pragma once

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "ondwin/ondwin.h"

namespace perfbench {

using ondwin::AlignedBuffer;
using ondwin::Dims;
using ondwin::i64;
using ondwin::ImageLayout;

/// A conv→bias→ReLU chain with optional 2^rank max-pools between convs.
/// Every conv shares one kernel extent, padding and Winograd tile.
struct NetSpec {
  i64 in_channels = 0;
  Dims image;
  Dims kernel;
  Dims padding;
  Dims tile_m;
  struct Layer {
    bool pool = false;
    i64 out_channels = 0;  // conv layers
    i64 window = 0;        // pool layers
  };
  std::vector<Layer> layers;
};

/// VGG-style 2D backbone: 56² input, 3×3 F(4×4), 64→128→256 channels.
NetSpec vgg2d_spec();
/// 3D-UNet/C3D-style encoder: 32³ volume, 3×3×3 F(2×2×2), 16→32→64.
NetSpec unet3d_spec();
/// The small served 2D net: 32², three 3×3 F(4×4) convs and a pool.
NetSpec serve_model_spec();

/// One conv layer of a spec, resolved to its problem at `batch`, with the
/// pool that directly follows it (0 = none).
struct ConvLayer {
  ondwin::ConvProblem problem;
  i64 pool_after = 0;
  int index = 0;  // conv ordinal
};
std::vector<ConvLayer> conv_layers(const NetSpec& spec, i64 batch = 1);

ImageLayout input_layout(const NetSpec& spec, i64 batch = 1);
ImageLayout output_layout(const NetSpec& spec, i64 batch = 1);

/// Seeded weights (He-scaled) and biases, in plain and blocked layouts.
struct NetParams {
  std::vector<std::vector<float>> w_plain;  // [C'][C][taps] per conv
  std::vector<AlignedBuffer<float>> w_blocked;
  std::vector<std::vector<float>> bias;  // C' per conv
};
NetParams make_params(const NetSpec& spec, ondwin::Rng& rng);
/// A seeded blocked input batch.
AlignedBuffer<float> make_input(const ImageLayout& layout, ondwin::Rng& rng);

/// The correctness oracle: blocked direct convolution (DirectConvBlocked,
/// one thread) followed by bias, ReLU and max-pool written out here —
/// an independent path from the Winograd pipeline and its fused
/// epilogues. Returns the batch-1 output for one batch-1 input.
AlignedBuffer<float> reference_forward(const NetSpec& spec,
                                       const NetParams& params,
                                       const float* input_blocked);

/// Error of one output against its reference. max_rel is
/// max|y − ref| ÷ max|ref| — relative to the output's scale, so it stays
/// meaningful where single elements are ~0; diff2 and ref2 are the sums
/// of squares behind the pooled RMS relative error.
struct OutputError {
  double max_rel = 0;
  double diff2 = 0;
  double ref2 = 0;
};
OutputError compare_output(const float* y, const float* ref, i64 n);
/// The error of an output that is NaN or of the wrong size.
inline OutputError failed_output() { return {INFINITY, INFINITY, 1}; }

/// Direct-convolution-equivalent FLOPs of one batch-1 forward (the
/// paper's Fig. 5 unit).
double direct_flops(const NetSpec& spec);
/// Σ over conv layers of select::winograd_error_bound(tile_m, kernel).
double winograd_error_bound_sum(const NetSpec& spec);

/// The graph IR of the net (conv → bias → relu [→ max_pool] per layer),
/// built directly — no Sequential, so no layer plans exist before the
/// executor compiles its own.
ondwin::graph::Graph build_graph(const NetSpec& spec, const NetParams& params,
                                 i64 batch = 1);
/// The net as a layered Sequential with these plan options.
std::unique_ptr<ondwin::Sequential> build_sequential(
    const NetSpec& spec, const NetParams& params,
    const ondwin::PlanOptions& options, i64 batch = 1);

}  // namespace perfbench

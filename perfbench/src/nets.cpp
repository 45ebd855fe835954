#include "nets.h"

#include <algorithm>
#include <cmath>

#include "select/cost_model.h"

namespace perfbench {

using namespace ondwin;

NetSpec vgg2d_spec() {
  NetSpec s;
  s.in_channels = 64;
  s.image = Dims{56, 56};
  s.kernel = Dims{3, 3};
  s.padding = Dims{1, 1};
  s.tile_m = Dims{4, 4};
  s.layers = {{false, 128, 0}, {true, 0, 2},  {false, 128, 0},
              {false, 256, 0}, {true, 0, 2},  {false, 256, 0},
              {false, 256, 0}, {true, 0, 2}};
  return s;
}

NetSpec unet3d_spec() {
  NetSpec s;
  s.in_channels = 16;
  s.image = Dims{32, 32, 32};
  s.kernel = Dims{3, 3, 3};
  s.padding = Dims{1, 1, 1};
  s.tile_m = Dims{2, 2, 2};
  s.layers = {{false, 32, 0}, {false, 32, 0}, {true, 0, 2},
              {false, 64, 0}, {false, 64, 0}, {true, 0, 2}};
  return s;
}

NetSpec serve_model_spec() {
  NetSpec s;
  s.in_channels = 16;
  s.image = Dims{32, 32};
  s.kernel = Dims{3, 3};
  s.padding = Dims{1, 1};
  s.tile_m = Dims{4, 4};
  s.layers = {{false, 32, 0}, {false, 32, 0}, {false, 64, 0}, {true, 0, 2}};
  return s;
}

std::vector<ConvLayer> conv_layers(const NetSpec& spec, i64 batch) {
  std::vector<ConvLayer> out;
  i64 c = spec.in_channels;
  Dims img = spec.image;
  for (const NetSpec::Layer& l : spec.layers) {
    if (l.pool) {
      ONDWIN_CHECK(!out.empty(), "pool before the first conv");
      out.back().pool_after = l.window;
      for (int d = 0; d < img.rank(); ++d) img[d] /= l.window;
      continue;
    }
    ConvLayer cl;
    cl.problem.shape.batch = batch;
    cl.problem.shape.in_channels = c;
    cl.problem.shape.out_channels = l.out_channels;
    cl.problem.shape.image = img;
    cl.problem.shape.kernel = spec.kernel;
    cl.problem.shape.padding = spec.padding;
    cl.problem.tile_m = spec.tile_m;
    cl.index = static_cast<int>(out.size());
    img = cl.problem.shape.output();
    c = l.out_channels;
    out.push_back(cl);
  }
  return out;
}

ImageLayout input_layout(const NetSpec& spec, i64 batch) {
  return ImageLayout(batch, spec.in_channels, spec.image);
}

ImageLayout output_layout(const NetSpec& spec, i64 batch) {
  i64 c = spec.in_channels;
  Dims img = spec.image;
  for (const ConvLayer& cl : conv_layers(spec, batch)) {
    img = cl.problem.shape.output();
    c = cl.problem.shape.out_channels;
    if (cl.pool_after > 1) {
      for (int d = 0; d < img.rank(); ++d) img[d] /= cl.pool_after;
    }
  }
  return ImageLayout(batch, c, img);
}

NetParams make_params(const NetSpec& spec, Rng& rng) {
  NetParams p;
  for (const ConvLayer& cl : conv_layers(spec)) {
    const ConvShape& s = cl.problem.shape;
    const float stddev = static_cast<float>(
        std::sqrt(2.0 / static_cast<double>(s.in_channels *
                                            s.kernel.product())));
    std::vector<float> w(static_cast<std::size_t>(s.weight_floats()));
    for (float& v : w) v = rng.gaussian(0.0f, stddev);
    AlignedBuffer<float> wb(w.size());
    pack_kernels(w.data(), wb.data(), cl.problem.kernel_layout());
    std::vector<float> b(static_cast<std::size_t>(s.out_channels));
    for (float& v : b) v = rng.uniform(-0.1f, 0.1f);
    p.w_plain.push_back(std::move(w));
    p.w_blocked.push_back(std::move(wb));
    p.bias.push_back(std::move(b));
  }
  return p;
}

AlignedBuffer<float> make_input(const ImageLayout& layout, Rng& rng) {
  AlignedBuffer<float> x(static_cast<std::size_t>(layout.total_floats()));
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.uniform(-1, 1);
  return x;
}

namespace {

/// Bias + ReLU in place on a blocked image.
void bias_relu_ref(const ImageLayout& L, const float* bias, float* x) {
  for (i64 b = 0; b < L.batch; ++b) {
    for (i64 g = 0; g < L.channel_groups(); ++g) {
      for (i64 p = 0; p < L.pixels(); ++p) {
        float* v = x + L.group_offset_linear(b, g, p);
        for (i64 s = 0; s < kSimdWidth; ++s) {
          v[s] = std::max(v[s] + bias[g * kSimdWidth + s], 0.0f);
        }
      }
    }
  }
}

/// Cubic max-pool, stride == window, floor semantics, on blocked images.
void max_pool_ref(const ImageLayout& in, i64 window, const ImageLayout& out,
                  const float* x, float* y) {
  const int rank = in.spatial.rank();
  Dims win = in.spatial;
  for (int d = 0; d < rank; ++d) win[d] = window;
  for (i64 b = 0; b < in.batch; ++b) {
    for (i64 g = 0; g < in.channel_groups(); ++g) {
      for (i64 op = 0; op < out.pixels(); ++op) {
        const Dims oc = out.spatial.coord_of(op);
        float acc[kSimdWidth];
        std::fill(acc, acc + kSimdWidth, -3.4e38f);
        for (i64 k = 0; k < win.product(); ++k) {
          const Dims kc = win.coord_of(k);
          Dims ic = oc;
          for (int d = 0; d < rank; ++d) ic[d] = oc[d] * window + kc[d];
          const float* v = x + in.group_offset(b, g, ic);
          for (i64 s = 0; s < kSimdWidth; ++s) acc[s] = std::max(acc[s], v[s]);
        }
        float* dst = y + out.group_offset_linear(b, g, op);
        std::copy(acc, acc + kSimdWidth, dst);
      }
    }
  }
}

}  // namespace

AlignedBuffer<float> reference_forward(const NetSpec& spec,
                                       const NetParams& params,
                                       const float* input_blocked) {
  const std::vector<ConvLayer> layers = conv_layers(spec);
  ImageLayout cur = input_layout(spec);
  AlignedBuffer<float> act(static_cast<std::size_t>(cur.total_floats()));
  std::copy(input_blocked, input_blocked + cur.total_floats(), act.data());
  for (const ConvLayer& cl : layers) {
    const ConvShape& s = cl.problem.shape;
    const ImageLayout out = cl.problem.output_layout();
    AlignedBuffer<float> y(static_cast<std::size_t>(out.total_floats()));
    {
      DirectConvBlocked direct(s, /*threads=*/1);
      direct.execute(act.data(), params.w_blocked[cl.index].data(), y.data());
    }
    bias_relu_ref(out, params.bias[cl.index].data(), y.data());
    cur = out;
    act = std::move(y);
    if (cl.pool_after > 1) {
      Dims pd = cur.spatial;
      for (int d = 0; d < pd.rank(); ++d) pd[d] /= cl.pool_after;
      const ImageLayout pooled(cur.batch, cur.channels, pd);
      AlignedBuffer<float> z(static_cast<std::size_t>(pooled.total_floats()));
      max_pool_ref(cur, cl.pool_after, pooled, act.data(), z.data());
      cur = pooled;
      act = std::move(z);
    }
  }
  return act;
}

OutputError compare_output(const float* y, const float* ref, i64 n) {
  OutputError e;
  double max_diff = 0, max_ref = 0;
  for (i64 i = 0; i < n; ++i) {
    const double r = ref[i];
    const double d = std::fabs(static_cast<double>(y[i]) - r);
    // NaN compares false, so route it through the isnan check explicitly.
    if (std::isnan(d)) return failed_output();
    max_diff = std::max(max_diff, d);
    max_ref = std::max(max_ref, std::fabs(r));
    e.diff2 += d * d;
    e.ref2 += r * r;
  }
  e.max_rel = max_ref > 0 ? max_diff / max_ref : max_diff;
  return e;
}

double direct_flops(const NetSpec& spec) {
  double f = 0;
  for (const ConvLayer& cl : conv_layers(spec)) {
    f += 2.0 * static_cast<double>(cl.problem.shape.direct_macs());
  }
  return f;
}

double winograd_error_bound_sum(const NetSpec& spec) {
  double e = 0;
  for (const ConvLayer& cl : conv_layers(spec)) {
    e += select::winograd_error_bound(cl.problem.tile_m,
                                      cl.problem.shape.kernel);
  }
  return e;
}

graph::Graph build_graph(const NetSpec& spec, const NetParams& params,
                         i64 batch) {
  graph::Graph g(batch, spec.in_channels, spec.image);
  graph::ValueId v = g.input();
  for (const ConvLayer& cl : conv_layers(spec, batch)) {
    v = g.conv(v, cl.problem.shape.out_channels, spec.kernel, spec.padding,
               spec.tile_m);
    g.set_conv_weights_blocked(v, params.w_blocked[cl.index].data());
    v = g.bias(v, params.bias[cl.index].data());
    v = g.relu(v);
    if (cl.pool_after > 1) v = g.max_pool(v, cl.pool_after);
  }
  g.mark_output(v);
  return g;
}

std::unique_ptr<Sequential> build_sequential(const NetSpec& spec,
                                             const NetParams& params,
                                             const PlanOptions& options,
                                             i64 batch) {
  auto net = std::make_unique<Sequential>(batch, spec.in_channels, spec.image,
                                          options);
  for (const ConvLayer& cl : conv_layers(spec, batch)) {
    const int idx = net->add_conv(cl.problem.shape.out_channels, spec.kernel,
                                  spec.padding, spec.tile_m, /*relu=*/true);
    net->set_conv_weights(idx, params.w_plain[cl.index].data(),
                          params.bias[cl.index].data());
    if (cl.pool_after > 1) net->add_max_pool(cl.pool_after);
  }
  return net;
}

}  // namespace perfbench

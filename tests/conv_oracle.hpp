#pragma once

// The materialized convolution, kept as the test oracle of the implicit
// packed-engine paths (DESIGN §15). It lowers exactly the way the layers
// did before they went implicit: im2col into a per-shard col buffer, the
// forward GEMM W * col, the weight-gradient GEMM against col^T, the
// data-gradient GEMM W^T * grad into a grad-col buffer, and Col2Im back
// into the image. Every GEMM goes to the packed engine, and the layers
// must match the oracle bit for bit: the forward and the data, weight
// and bias gradients of Conv2d, and the forward and backward of
// ConvTranspose2d.
//
// Header-only so bench_micro_conv can time it against the layers.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "nn/conv.hpp"
#include "nn/conv_engine.hpp"
#include "nn/im2col.hpp"
#include "tensor/cast.hpp"
#include "tensor/gemm_kernel.hpp"

namespace exaclim {

/// Expands one image (C,H,W row-major) into the patch matrix
/// col[PatchSize(), OutPixels()]: column p holds the receptive field of
/// output pixel p, zero-padded outside the image. Straight from the
/// definition, sharing no code with the layers.
inline void Im2Col(const ConvGeometry& g, const float* image, float* col) {
  const std::int64_t out_h = g.OutH();
  const std::int64_t out_w = g.OutW();
  const std::int64_t hw = g.in_h * g.in_w;
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    const float* plane = image + c * hw;
    for (std::int64_t kh = 0; kh < g.k_h; ++kh) {
      for (std::int64_t kw = 0; kw < g.k_w; ++kw, ++row) {
        float* dst = col + row * (out_h * out_w);
        const std::int64_t dy = kh * g.dilation - g.pad;
        const std::int64_t dx = kw * g.dilation - g.pad;
        for (std::int64_t oy = 0; oy < out_h; ++oy) {
          const std::int64_t iy = oy * g.stride + dy;
          for (std::int64_t ox = 0; ox < out_w; ++ox) {
            const std::int64_t ix = ox * g.stride + dx;
            dst[oy * out_w + ox] =
                iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w
                    ? plane[iy * g.in_w + ix]
                    : 0.0f;
          }
        }
      }
    }
  }
}

/// Table-driven Im2Col: identical output (copies and zeros only), with
/// every bounds decision taken from the layers' implicit row table
/// (BuildImplicitRows), so per-image work is pure data movement — the
/// materialized forward the implicit path replaced, and the fair timing
/// baseline for it.
inline void Im2ColFromRows(const ConvGeometry& g, const GemmImplicitRow* rows,
                           const float* image, float* col) {
  const std::int64_t out_h = g.OutH();
  const std::int64_t out_w = g.OutW();
  const std::int64_t patch = g.PatchSize();
  for (std::int64_t r = 0; r < patch; ++r) {
    const GemmImplicitRow& rd = rows[r];
    float* dst = col + r * out_h * out_w;
    for (std::int64_t oy = 0; oy < out_h; ++oy, dst += out_w) {
      if (oy < rd.oy_lo || oy >= rd.oy_hi) {
        std::memset(dst, 0, sizeof(float) * out_w);
        continue;
      }
      // Full int64 element index before pointer arithmetic — rd.offset
      // alone may be negative (padding), but base + ox*stride is in
      // bounds for every ox in [ox_lo, ox_hi).
      const std::int64_t base = rd.offset + oy * g.stride * g.in_w;
      std::int64_t ox = 0;
      for (; ox < rd.ox_lo; ++ox) dst[ox] = 0.0f;
      if (g.stride == 1) {
        if (rd.ox_hi > ox) {
          std::memcpy(dst + ox, image + (base + ox),
                      sizeof(float) * (rd.ox_hi - ox));
        }
        ox = std::max(ox, rd.ox_hi);
      } else {
        for (; ox < rd.ox_hi; ++ox) dst[ox] = image[base + ox * g.stride];
      }
      for (; ox < out_w; ++ox) dst[ox] = 0.0f;
    }
  }
}

/// Adjoint of Im2Col: scatters/accumulates the patch matrix back into the
/// image buffer (which the caller must zero first).
inline void Col2Im(const ConvGeometry& g, const float* col, float* image) {
  const std::int64_t out_h = g.OutH();
  const std::int64_t out_w = g.OutW();
  const std::int64_t hw = g.in_h * g.in_w;
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    float* plane = image + c * hw;
    for (std::int64_t kh = 0; kh < g.k_h; ++kh) {
      for (std::int64_t kw = 0; kw < g.k_w; ++kw, ++row) {
        const float* src = col + row * (out_h * out_w);
        const std::int64_t dy = kh * g.dilation - g.pad;
        const std::int64_t dx = kw * g.dilation - g.pad;
        for (std::int64_t oy = 0; oy < out_h; ++oy) {
          const std::int64_t iy = oy * g.stride + dy;
          if (iy < 0 || iy >= g.in_h) continue;
          const float* src_row = src + oy * out_w;
          float* dst_row = plane + iy * g.in_w;
          for (std::int64_t ox = 0; ox < out_w; ++ox) {
            const std::int64_t ix = ox * g.stride + dx;
            if (ix >= 0 && ix < g.in_w) dst_row[ix] += src_row[ox];
          }
        }
      }
    }
  }
}

/// What the oracle computes for one layer call. weight_grad/bias_grad
/// hold the fresh gradient (what the layer adds to zeroed Param grads);
/// bias_grad is empty when the layer has no bias.
struct OracleResult {
  Tensor output;      // the forward calls only
  Tensor grad_input;  // the backward calls only
  Tensor weight_grad;
  Tensor bias_grad;
};

/// The materialized forward and backward with persistent per-shard col /
/// grad-col buffers, sharded like the layers (same partition, same
/// fixed-order weight-gradient tree), so repeated calls are a fair timing
/// baseline.
class MaterializedConvOracle {
 public:
  /// out[out_c, P] = W[out_c, patch] @ col[patch, P] + bias per image,
  /// the bias folded into the GEMM epilogue exactly when Conv2d::Forward
  /// folds it (FP32 with EXACLIM_CONV_FUSE on) and added by a separate
  /// pass otherwise — the materialized forward the layer once ran.
  const OracleResult& Conv2dForward(Conv2d& conv, const Tensor& input) {
    const Conv2d::Options& o = conv.options();
    const ConvGeometry g = Conv2dGeometry(o, input.shape());
    const std::vector<Param*> params = conv.Params();
    const Tensor w = ComputeWeight(conv, conv.weight().value);
    const std::int64_t batch = input.shape().n();
    const std::int64_t shards = ConvGradShards(batch);
    const std::int64_t pixels = g.OutPixels();
    Resize(shards, g.PatchSize() * pixels);
    workspace_.Configure(shards, /*scratch_elems=*/0, /*weight_elems=*/0,
                         /*bias_elems=*/0);
    packed_.Pack(false, o.out_c, g.PatchSize(), 1.0f, w.Raw());
    const GemmImplicitRow* rows = workspace_.ImplicitRows(g);
    const std::int64_t in_stride = g.in_c * g.in_h * g.in_w;
    const std::int64_t out_stride = o.out_c * pixels;
    GemmEpilogue epi;
    const bool fold_bias = o.bias && ConvFusionEnabled() &&
                           conv.precision() == Precision::kFP32;
    if (fold_bias) epi.bias = params[1]->value.Raw();
    result_.output = Tensor(conv.OutputShape(input.shape()));
    RunConvShards(shards, [&](std::int64_t s) {
      const ConvShardRange images = ShardImageRange(batch, shards, s);
      float* col = Col(s);
      for (std::int64_t n = images.lo; n < images.hi; ++n) {
        float* out_n = result_.output.Raw() + n * out_stride;
        Im2ColFromRows(g, rows, input.Raw() + n * in_stride, col);
        GemmPackedWithA(packed_, false, pixels, col, 0.0f, out_n,
                        fold_bias ? &epi : nullptr);
        if (o.bias && !fold_bias) {
          AddBias(params[1]->value, o.out_c, pixels, out_n);
        }
      }
    });
    if (conv.precision() == Precision::kFP16) {
      RoundTripHalf(result_.output);
    }
    return result_;
  }

  const OracleResult& Conv2dBackward(Conv2d& conv, const Tensor& input,
                                     const Tensor& grad_output) {
    const Conv2d::Options& o = conv.options();
    const ConvGeometry g = Conv2dGeometry(o, input.shape());
    const bool pointwise = o.kernel == 1 && o.stride == 1 && o.pad == 0 &&
                           o.dilation == 1;
    const Tensor w = ComputeWeight(conv, conv.weight().value);
    const std::int64_t batch = input.shape().n();
    const std::int64_t shards = ConvGradShards(batch);
    const std::int64_t pixels = g.OutPixels();
    const std::int64_t col_elems = pointwise ? 0 : g.PatchSize() * pixels;
    PrepareGrads(shards, col_elems, conv.weight().value.shape(),
                 o.bias ? o.out_c : 0);
    packed_.Pack(true, pointwise ? g.in_c : g.PatchSize(), o.out_c, 1.0f,
                 w.Raw());
    const GemmImplicitRow* rows =
        pointwise ? nullptr : workspace_.ImplicitRows(g);
    const std::int64_t in_stride = g.in_c * g.in_h * g.in_w;
    const std::int64_t out_stride = o.out_c * pixels;
    result_.grad_input = Tensor(input.shape());
    RunConvShards(shards, [&](std::int64_t s) {
      const ConvShardRange images = ShardImageRange(batch, shards, s);
      float* wgrad = workspace_.WeightGrad(s);
      float* bgrad = o.bias ? workspace_.BiasGrad(s) : nullptr;
      for (std::int64_t n = images.lo; n < images.hi; ++n) {
        const float* gout = grad_output.Raw() + n * out_stride;
        const float* x = input.Raw() + n * in_stride;
        float* gx = result_.grad_input.Raw() + n * in_stride;
        if (pointwise) {
          GemmPacked(false, true, o.out_c, g.in_c, pixels, 1.0f, gout, x,
                     1.0f, wgrad);
          GemmPackedWithA(packed_, false, pixels, gout, 0.0f, gx);
        } else {
          float* col = Col(s);
          float* grad_col = GradCol(s);
          Im2ColFromRows(g, rows, x, col);
          GemmPacked(false, true, o.out_c, g.PatchSize(), pixels, 1.0f, gout,
                     col, 1.0f, wgrad);
          GemmPackedWithA(packed_, false, pixels, gout, 0.0f, grad_col);
          Col2Im(g, grad_col, gx);
        }
        AddBiasGrad(gout, o.out_c, pixels, bgrad);
      }
    });
    FinishGrads();
    if (conv.precision() == Precision::kFP16) {
      RoundTripHalf(result_.grad_input);
    }
    return result_;
  }

  const OracleResult& ConvTranspose2dForward(ConvTranspose2d& deconv,
                                             const Tensor& input) {
    const ConvTranspose2d::Options& o = deconv.options();
    const TensorShape out_shape = deconv.OutputShape(input.shape());
    const ConvGeometry g = DeconvGeometry(o, out_shape);
    const std::vector<Param*> params = deconv.Params();
    const Tensor w = ComputeWeight(deconv, params[0]->value);
    const std::int64_t batch = input.shape().n();
    const std::int64_t shards = ConvGradShards(batch);
    const std::int64_t pixels = input.shape().h() * input.shape().w();
    Resize(shards, g.PatchSize() * pixels);
    packed_.Pack(true, g.PatchSize(), o.in_c, 1.0f, w.Raw());
    const std::int64_t in_stride = o.in_c * pixels;
    const std::int64_t plane = out_shape.h() * out_shape.w();
    result_.output = Tensor(out_shape);
    RunConvShards(shards, [&](std::int64_t s) {
      const ConvShardRange images = ShardImageRange(batch, shards, s);
      float* col = Col(s);
      for (std::int64_t n = images.lo; n < images.hi; ++n) {
        float* out_n = result_.output.Raw() + n * o.out_c * plane;
        GemmPackedWithA(packed_, false, pixels, input.Raw() + n * in_stride,
                        0.0f, col);
        Col2Im(g, col, out_n);
        if (o.bias) AddBias(params[1]->value, o.out_c, plane, out_n);
      }
    });
    if (deconv.precision() == Precision::kFP16) {
      RoundTripHalf(result_.output);
    }
    return result_;
  }

  const OracleResult& ConvTranspose2dBackward(ConvTranspose2d& deconv,
                                              const Tensor& input,
                                              const Tensor& grad_output) {
    const ConvTranspose2d::Options& o = deconv.options();
    const TensorShape out_shape = deconv.OutputShape(input.shape());
    const ConvGeometry g = DeconvGeometry(o, out_shape);
    const std::vector<Param*> params = deconv.Params();
    const Tensor w = ComputeWeight(deconv, params[0]->value);
    const std::int64_t batch = input.shape().n();
    const std::int64_t shards = ConvGradShards(batch);
    const std::int64_t pixels = input.shape().h() * input.shape().w();
    PrepareGrads(shards, g.PatchSize() * pixels, params[0]->value.shape(),
                 o.bias ? o.out_c : 0);
    packed_.Pack(false, o.in_c, g.PatchSize(), 1.0f, w.Raw());
    const GemmImplicitRow* rows = workspace_.ImplicitRows(g);
    const std::int64_t in_stride = o.in_c * pixels;
    const std::int64_t plane = out_shape.h() * out_shape.w();
    result_.grad_input = Tensor(input.shape());
    RunConvShards(shards, [&](std::int64_t s) {
      const ConvShardRange images = ShardImageRange(batch, shards, s);
      float* col = Col(s);
      float* wgrad = workspace_.WeightGrad(s);
      float* bgrad = o.bias ? workspace_.BiasGrad(s) : nullptr;
      for (std::int64_t n = images.lo; n < images.hi; ++n) {
        const float* gout = grad_output.Raw() + n * o.out_c * plane;
        Im2ColFromRows(g, rows, gout, col);
        GemmPackedWithA(packed_, false, pixels, col, 0.0f,
                        result_.grad_input.Raw() + n * in_stride);
        GemmPacked(false, true, o.in_c, g.PatchSize(), pixels, 1.0f,
                   input.Raw() + n * in_stride, col, 1.0f, wgrad);
        AddBiasGrad(gout, o.out_c, plane, bgrad);
      }
    });
    FinishGrads();
    if (deconv.precision() == Precision::kFP16) {
      RoundTripHalf(result_.grad_input);
    }
    return result_;
  }

 private:
  static ConvGeometry Conv2dGeometry(const Conv2d::Options& o,
                                     const TensorShape& input) {
    return ConvGeometry{.in_c = o.in_c, .in_h = input.h(),
                        .in_w = input.w(), .k_h = o.kernel,
                        .k_w = o.kernel, .stride = o.stride, .pad = o.pad,
                        .dilation = o.dilation};
  }

  // The underlying convolution of a deconv runs output -> input.
  static ConvGeometry DeconvGeometry(const ConvTranspose2d::Options& o,
                                     const TensorShape& out_shape) {
    return ConvGeometry{.in_c = o.out_c, .in_h = out_shape.h(),
                        .in_w = out_shape.w(), .k_h = o.kernel,
                        .k_w = o.kernel, .stride = o.stride, .pad = o.pad,
                        .dilation = 1};
  }

  static Tensor ComputeWeight(const Layer& layer, const Tensor& weight) {
    Tensor w = weight;
    if (layer.precision() == Precision::kFP16) RoundTripHalf(w);
    return w;
  }

  static void AddBias(const Tensor& bias, std::int64_t channels,
                      std::int64_t plane, float* out) {
    for (std::int64_t c = 0; c < channels; ++c) {
      const float b = bias[static_cast<std::size_t>(c)];
      for (std::int64_t p = 0; p < plane; ++p) out[c * plane + p] += b;
    }
  }

  static void AddBiasGrad(const float* gout, std::int64_t channels,
                          std::int64_t plane, float* bgrad) {
    if (bgrad == nullptr) return;
    for (std::int64_t c = 0; c < channels; ++c) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < plane; ++p) acc += gout[c * plane + p];
      bgrad[c] += static_cast<float>(acc);
    }
  }

  void Resize(std::int64_t shards, std::int64_t col_elems) {
    col_elems_ = col_elems;
    col_.resize(static_cast<std::size_t>(shards * col_elems));
    grad_col_.resize(static_cast<std::size_t>(shards * col_elems));
  }

  void PrepareGrads(std::int64_t shards, std::int64_t col_elems,
                    const TensorShape& weight_shape, std::int64_t bias_elems) {
    Resize(shards, col_elems);
    result_.weight_grad = Tensor(weight_shape);
    result_.bias_grad =
        bias_elems > 0 ? Tensor(TensorShape{bias_elems}) : Tensor();
    workspace_.Configure(shards, /*scratch_elems=*/0,
                         result_.weight_grad.NumElements(), bias_elems);
    workspace_.ZeroGradAccumulators();
  }

  void FinishGrads() {
    workspace_.ReduceWeightGradInto(result_.weight_grad.Raw());
    if (!result_.bias_grad.Empty()) {
      workspace_.ReduceBiasGradInto(result_.bias_grad.Raw());
    }
  }

  float* Col(std::int64_t shard) { return col_.data() + shard * col_elems_; }
  float* GradCol(std::int64_t shard) {
    return grad_col_.data() + shard * col_elems_;
  }

  std::int64_t col_elems_ = 0;
  std::vector<float> col_;
  std::vector<float> grad_col_;
  ConvWorkspace workspace_;
  PackedGemmA packed_;
  OracleResult result_;
};

}  // namespace exaclim

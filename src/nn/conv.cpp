#include "nn/conv.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "tensor/gemm_kernel.hpp"

namespace exaclim {
namespace {

// "Same" padding must grow with the dilated (effective) kernel, or an
// ASPP-style dilated conv with the default pad silently shrinks its
// spatial map.
std::int64_t SamePad(std::int64_t kernel, std::int64_t dilation) {
  return dilation * (kernel / 2);
}

// Per-image bias gradient contribution for one channel plane, as a float
// (the canonical per-image rounding the shard accumulators chain).
float PlaneSum(const float* plane, std::int64_t count) {
  double acc = 0.0;
  for (std::int64_t p = 0; p < count; ++p) acc += plane[p];
  return static_cast<float>(acc);
}

}  // namespace

const char* ToString(ConvAlgorithm /*algo*/) { return "auto"; }

ConvAlgorithm DefaultConvAlgorithm() { return ConvAlgorithm::kAuto; }

// ----------------------------------------------------- ConvDataGrad -----

void ConvDataGrad::Prepare(const ConvGeometry& g, std::int64_t out_c,
                           const float* w) {
  const std::int64_t n_taps = g.k_h * g.k_w;
  if (static_cast<std::int64_t>(packed_.size()) != n_taps) {
    packed_.resize(static_cast<std::size_t>(n_taps));
    taps_.clear();  // tap pointers into packed_ are stale
  }
  // W_t^T[ci][oc] = w[oc*patch + ci*n_taps + t]: the rows of the
  // materialized W^T operand that belong to tap t, same values.
  for (std::int64_t t = 0; t < n_taps; ++t) {
    packed_[static_cast<std::size_t>(t)].PackStrided(
        g.in_c, out_c, /*row_stride=*/n_taps, /*col_stride=*/g.PatchSize(),
        w + t);
  }
  if (g == g_ && out_c == out_c_ && !taps_.empty()) return;
  g_ = g;
  out_c_ = out_c;
  BuildDataGradPlan(g, packed_.data(), &phases_, &taps_);
  scratch_elems_ = 0;
  if (g.stride > 1) {
    for (const ConvPhase& ph : phases_) {
      scratch_elems_ =
          std::max(scratch_elems_, g.in_c * ph.grid_h * ph.grid_w);
    }
  }
}

void ConvDataGrad::Run(const float* grad, float* image, float* scratch) const {
  const std::int64_t s = g_.stride;
  const std::int64_t in_plane = g_.in_h * g_.in_w;
  GemmImplicitB b;
  b.image = grad;
  b.in_row_stride = g_.OutW();
  b.stride = 1;
  for (const ConvPhase& ph : phases_) {
    b.out_h = ph.grid_h;
    b.out_w = ph.grid_w;
    const GemmConvTap* taps = taps_.data() + ph.first_tap;
    if (s == 1) {
      GemmPackedImplicitDataGrad(taps, ph.n_taps, b, g_.OutPixels(), image);
      continue;
    }
    // hot-path: begin
    const std::int64_t grid = ph.grid_h * ph.grid_w;
    std::memset(scratch, 0,
                static_cast<std::size_t>(g_.in_c * grid) * sizeof(float));
    GemmPackedImplicitDataGrad(taps, ph.n_taps, b, g_.OutPixels(), scratch);
    // Each image pixel belongs to exactly one phase, which holds its
    // whole tap sum: a copy, not an add.
    for (std::int64_t c = 0; c < g_.in_c; ++c) {
      const float* src = scratch + c * grid;
      float* dst = image + c * in_plane + ph.py * g_.in_w + ph.px;
      for (std::int64_t qy = 0; qy < ph.grid_h; ++qy) {
        float* drow = dst + qy * s * g_.in_w;
        const float* srow = src + qy * ph.grid_w;
        for (std::int64_t qx = 0; qx < ph.grid_w; ++qx) {
          drow[qx * s] = srow[qx];
        }
      }
    }
    // hot-path: end
  }
}

// ----------------------------------------------------------- Conv2d -----

Conv2d::Conv2d(std::string name, const Options& opts, Rng& rng)
    : Layer(std::move(name)),
      opts_([&] {
        Options o = opts;
        if (o.pad < 0) o.pad = SamePad(o.kernel, o.dilation);
        return o;
      }()),
      weight_(this->name() + ".weight",
              Tensor::Randn(
                  TensorShape{opts_.out_c,
                              opts_.in_c * opts_.kernel * opts_.kernel},
                  rng, 0.0f,
                  // He initialisation for ReLU networks.
                  std::sqrt(2.0f / static_cast<float>(
                                       opts_.in_c * opts_.kernel *
                                       opts_.kernel)))) {
  EXACLIM_CHECK(opts_.in_c > 0 && opts_.out_c > 0, "conv needs channels");
  EXACLIM_CHECK(opts_.stride >= 1 && opts_.dilation >= 1,
                "invalid stride/dilation");
  if (opts_.bias) {
    bias_.emplace(this->name() + ".bias", Tensor::Zeros(TensorShape{opts_.out_c}));
  }
}

ConvGeometry Conv2d::Geometry(std::int64_t h, std::int64_t w) const {
  ConvGeometry g;
  g.in_c = opts_.in_c;
  g.in_h = h;
  g.in_w = w;
  g.k_h = g.k_w = opts_.kernel;
  g.stride = opts_.stride;
  g.pad = opts_.pad;
  g.dilation = opts_.dilation;
  return g;
}

bool Conv2d::UsePointwiseFastPath() const {
  return opts_.kernel == 1 && opts_.stride == 1 && opts_.pad == 0 &&
         opts_.dilation == 1;
}

TensorShape Conv2d::OutputShape(const TensorShape& input) const {
  EXACLIM_CHECK(input.rank() == 4 && input.c() == opts_.in_c,
                name() << ": bad input " << input.ToString() << ", expected C="
                       << opts_.in_c);
  const ConvGeometry g = Geometry(input.h(), input.w());
  return TensorShape::NCHW(input.n(), opts_.out_c, g.OutH(), g.OutW());
}

const Tensor& Conv2d::ComputeWeight() {
  if (precision() != Precision::kFP16) return weight_.value;
  quantised_weight_ = weight_.value;
  RoundTripHalf(quantised_weight_);
  return quantised_weight_;
}

Tensor Conv2d::Forward(const Tensor& input, bool train) {
  return ForwardFused(input, train, ConvFusedOps{});
}

Tensor Conv2d::ForwardFused(const Tensor& input, bool /*train*/,
                            const ConvFusedOps& ops) {
  const TensorShape out_shape = OutputShape(input.shape());
  const ConvGeometry g = Geometry(input.shape().h(), input.shape().w());
  cached_input_ = input;

  Tensor output(out_shape);
  const Tensor& w = ComputeWeight();
  const bool pointwise = UsePointwiseFastPath();
  const bool fp32 = precision() == Precision::kFP32;
  EXACLIM_CHECK(ops.Empty() || fp32,
                name() << ": epilogue ops need FP32 precision");
  // Fold the conv's own bias into the GEMM epilogue whenever it runs in
  // FP32: the per-element add is the exact same FP op as the separate
  // bias pass below, so flipping EXACLIM_CONV_FUSE never changes bits —
  // it only changes how often C is touched.
  const bool use_epilogue =
      !ops.Empty() || (bias_.has_value() && ConvFusionEnabled() && fp32);
  GemmEpilogue epi;
  if (use_epilogue) {
    if (bias_) epi.bias = bias_->value.Raw();
    epi.bn_mean = ops.bn_mean;
    epi.bn_inv_std = ops.bn_inv_std;
    epi.bn_gamma = ops.bn_gamma;
    epi.bn_beta = ops.bn_beta;
    epi.relu = ops.relu;
    epi.mask_ld = g.OutPixels();
    EXACLIM_CHECK(ops.bn_norm == nullptr || ops.bn_mean != nullptr,
                  name() << ": x_hat writeback without BN vectors");
  }
  const std::int64_t batch = input.shape().n();
  const std::int64_t shards = ConvGradShards(batch);
  // No col buffer and no per-shard scratch on the forward: the implicit
  // path gathers B panels straight from the input.
  workspace_.Configure(shards, /*scratch_elems=*/0, /*weight_elems=*/0,
                       /*bias_elems=*/0);
  const GemmImplicitRow* rows =
      pointwise ? nullptr : workspace_.ImplicitRows(g);
  const std::int64_t in_stride = g.in_c * g.in_h * g.in_w;
  const std::int64_t out_stride = opts_.out_c * g.OutPixels();
  // Pack the weight into the GEMM engine's A-panel layout once; every
  // shard then reuses the panels read-only instead of re-packing W per
  // image inside the per-image GEMMs (DESIGN §10).
  packed_weight_.Pack(false, opts_.out_c, g.PatchSize(), 1.0f, w.Raw());
  RunConvShards(shards, [&](std::int64_t s) {
    const ConvShardRange images = ShardImageRange(batch, shards, s);
    for (std::int64_t n = images.lo; n < images.hi; ++n) {
      // Per-image epilogue view: only the mask/x_hat pointers move with n.
      GemmEpilogue epi_n = epi;
      if (ops.relu_mask != nullptr) {
        epi_n.relu_mask = ops.relu_mask + n * out_stride;
      }
      if (ops.bn_norm != nullptr) {
        epi_n.bn_norm = ops.bn_norm + n * out_stride;
      }
      const GemmEpilogue* epi_ptr = use_epilogue ? &epi_n : nullptr;
      const float* x = input.Raw() + n * in_stride;
      float* y = output.Raw() + n * out_stride;
      if (pointwise) {
        // 1x1/stride-1: the activation map already IS the patch matrix.
        GemmPackedWithA(packed_weight_, false, g.OutPixels(), x, 0.0f, y,
                        epi_ptr);
      } else {
        // out[out_c, P] = W[out_c, patch] @ implicit-im2col(x) — the
        // B-panel packer gathers straight from the image (DESIGN §15).
        GemmImplicitB bsrc;
        bsrc.image = x;
        bsrc.rows = rows;
        bsrc.out_h = g.OutH();
        bsrc.out_w = g.OutW();
        bsrc.in_row_stride = g.in_w;
        bsrc.stride = g.stride;
        GemmPackedImplicit(packed_weight_, bsrc, 0.0f, y, epi_ptr);
      }
      if (bias_ && !use_epilogue) {
        for (std::int64_t c = 0; c < opts_.out_c; ++c) {
          const float b = bias_->value[static_cast<std::size_t>(c)];
          float* plane = y + c * g.OutPixels();
          for (std::int64_t p = 0; p < g.OutPixels(); ++p) plane[p] += b;
        }
      }
    }
  });
  MaybeQuantise(output);
  return output;
}

Tensor Conv2d::Backward(const Tensor& grad_output) {
  EXACLIM_CHECK(!cached_input_.Empty(), name() << ": Backward before Forward");
  const TensorShape& in_shape = cached_input_.shape();
  const ConvGeometry g = Geometry(in_shape.h(), in_shape.w());
  EXACLIM_CHECK(grad_output.shape() == OutputShape(in_shape),
                name() << ": grad shape mismatch");

  Tensor grad_input(in_shape);
  const Tensor& w = ComputeWeight();
  // Backward never materializes a patch matrix (DESIGN §15): the weight
  // gradient gathers col^T panels straight from the cached input, the
  // data gradient walks one GEMM panel per kernel tap. The pointwise
  // fast path needs neither: its activation map already is the patch
  // matrix.
  //
  // Weight/bias gradients go through per-shard accumulators merged by a
  // fixed-order tree so the batch-parallel result is bit-identical to the
  // serial walk (DESIGN §9).
  const bool pointwise = UsePointwiseFastPath();
  const std::int64_t batch = in_shape.n();
  const std::int64_t shards = ConvGradShards(batch);
  // W^T (pointwise) or the per-tap W_t^T panels are packed once and
  // shared read-only across shards.
  if (pointwise) {
    packed_weight_bwd_.Pack(true, g.in_c, opts_.out_c, 1.0f, w.Raw());
  } else {
    data_grad_.Prepare(g, opts_.out_c, w.Raw());
  }
  workspace_.Configure(shards, pointwise ? 0 : data_grad_.ScratchElems(),
                       weight_.grad.NumElements(), bias_ ? opts_.out_c : 0);
  workspace_.ZeroGradAccumulators();
  const GemmImplicitRow* rows =
      pointwise ? nullptr : workspace_.ImplicitRows(g);
  const std::int64_t in_stride = g.in_c * g.in_h * g.in_w;
  const std::int64_t out_stride = opts_.out_c * g.OutPixels();

  RunConvShards(shards, [&](std::int64_t s) {
    const ConvShardRange images = ShardImageRange(batch, shards, s);
    float* wgrad = workspace_.WeightGrad(s);
    float* bgrad = bias_ ? workspace_.BiasGrad(s) : nullptr;
    for (std::int64_t n = images.lo; n < images.hi; ++n) {
      const float* gout = grad_output.Raw() + n * out_stride;
      const float* x = cached_input_.Raw() + n * in_stride;
      float* gx = grad_input.Raw() + n * in_stride;
      if (pointwise) {
        GemmPacked(false, true, opts_.out_c, g.in_c, g.OutPixels(), 1.0f,
                   gout, x, 1.0f, wgrad);
        GemmPackedWithA(packed_weight_bwd_, false, g.OutPixels(), gout, 0.0f,
                        gx);
      } else {
        // gW[out_c, patch] += gout[out_c, P] @ implicit-im2col(x)^T
        GemmImplicitB bsrc;
        bsrc.image = x;
        bsrc.rows = rows;
        bsrc.out_h = g.OutH();
        bsrc.out_w = g.OutW();
        bsrc.in_row_stride = g.in_w;
        bsrc.stride = g.stride;
        GemmPackedImplicitWeightGrad(opts_.out_c, g.PatchSize(), gout, bsrc,
                                     1.0f, wgrad);
        // gx = Col2Im(W^T @ gout), one tap panel at a time
        data_grad_.Run(gout, gx, workspace_.Scratch(s));
      }
      if (bgrad != nullptr) {
        for (std::int64_t c = 0; c < opts_.out_c; ++c) {
          bgrad[c] += PlaneSum(gout + c * g.OutPixels(), g.OutPixels());
        }
      }
    }
  });
  workspace_.ReduceWeightGradInto(weight_.grad.Raw());
  if (bias_) workspace_.ReduceBiasGradInto(bias_->grad.Raw());
  MaybeQuantise(grad_input);
  return grad_input;
}

std::vector<Param*> Conv2d::Params() {
  std::vector<Param*> params{&weight_};
  if (bias_) params.push_back(&*bias_);
  return params;
}

// -------------------------------------------------- ConvTranspose2d -----

ConvTranspose2d::ConvTranspose2d(std::string name, const Options& opts,
                                 Rng& rng)
    : Layer(std::move(name)),
      opts_([&] {
        Options o = opts;
        if (o.pad < 0) o.pad = (o.kernel - o.stride + 1) / 2;
        return o;
      }()),
      weight_(this->name() + ".weight",
              Tensor::Randn(
                  TensorShape{opts_.in_c,
                              opts_.out_c * opts_.kernel * opts_.kernel},
                  rng, 0.0f,
                  std::sqrt(2.0f / static_cast<float>(
                                       opts_.in_c * opts_.kernel *
                                       opts_.kernel)))) {
  EXACLIM_CHECK(opts_.in_c > 0 && opts_.out_c > 0, "deconv needs channels");
  EXACLIM_CHECK(opts_.pad >= 0, "deconv pad must resolve non-negative");
  EXACLIM_CHECK(opts_.out_pad >= 0 && opts_.out_pad < opts_.stride,
                "out_pad must be in [0, stride)");
  if (opts_.bias) {
    bias_.emplace(this->name() + ".bias",
                  Tensor::Zeros(TensorShape{opts_.out_c}));
  }
}

ConvGeometry ConvTranspose2d::Geometry(std::int64_t out_h,
                                       std::int64_t out_w) const {
  // The underlying convolution runs output -> input, so its "input" is the
  // deconv output plane.
  ConvGeometry g;
  g.in_c = opts_.out_c;
  g.in_h = out_h;
  g.in_w = out_w;
  g.k_h = g.k_w = opts_.kernel;
  g.stride = opts_.stride;
  g.pad = opts_.pad;
  g.dilation = 1;
  return g;
}

TensorShape ConvTranspose2d::OutputShape(const TensorShape& input) const {
  EXACLIM_CHECK(input.rank() == 4 && input.c() == opts_.in_c,
                name() << ": bad input " << input.ToString());
  const std::int64_t out_h = (input.h() - 1) * opts_.stride - 2 * opts_.pad +
                             opts_.kernel + opts_.out_pad;
  const std::int64_t out_w = (input.w() - 1) * opts_.stride - 2 * opts_.pad +
                             opts_.kernel + opts_.out_pad;
  const ConvGeometry g = Geometry(out_h, out_w);
  EXACLIM_CHECK(g.OutH() == input.h() && g.OutW() == input.w(),
                name() << ": inconsistent deconv geometry");
  return TensorShape::NCHW(input.n(), opts_.out_c, out_h, out_w);
}

const Tensor& ConvTranspose2d::ComputeWeight() {
  if (precision() != Precision::kFP16) return weight_.value;
  quantised_weight_ = weight_.value;
  RoundTripHalf(quantised_weight_);
  return quantised_weight_;
}

Tensor ConvTranspose2d::Forward(const Tensor& input, bool /*train*/) {
  const TensorShape out_shape = OutputShape(input.shape());
  const ConvGeometry g = Geometry(out_shape.h(), out_shape.w());
  cached_input_ = input;

  Tensor output(out_shape);
  const Tensor& w = ComputeWeight();
  const std::int64_t pixels = input.shape().h() * input.shape().w();
  const std::int64_t batch = input.shape().n();
  const std::int64_t shards = ConvGradShards(batch);
  // The deconv forward is the underlying conv's data gradient: W is that
  // conv's [in_c, out_c*k*k] weight matrix, the input its output grad.
  data_grad_.Prepare(g, opts_.in_c, w.Raw());
  workspace_.Configure(shards, data_grad_.ScratchElems(), /*weight_elems=*/0,
                       /*bias_elems=*/0);
  const std::int64_t in_stride = opts_.in_c * pixels;
  const std::int64_t out_stride = opts_.out_c * out_shape.h() * out_shape.w();

  RunConvShards(shards, [&](std::int64_t s) {
    const ConvShardRange images = ShardImageRange(batch, shards, s);
    for (std::int64_t n = images.lo; n < images.hi; ++n) {
      float* out_n = output.Raw() + n * out_stride;
      data_grad_.Run(input.Raw() + n * in_stride, out_n,
                     workspace_.Scratch(s));
      if (bias_) {
        const std::int64_t plane = out_shape.h() * out_shape.w();
        for (std::int64_t c = 0; c < opts_.out_c; ++c) {
          const float b = bias_->value[static_cast<std::size_t>(c)];
          for (std::int64_t p = 0; p < plane; ++p) {
            out_n[c * plane + p] += b;
          }
        }
      }
    }
  });
  MaybeQuantise(output);
  return output;
}

Tensor ConvTranspose2d::Backward(const Tensor& grad_output) {
  EXACLIM_CHECK(!cached_input_.Empty(), name() << ": Backward before Forward");
  const TensorShape& in_shape = cached_input_.shape();
  const TensorShape out_shape = OutputShape(in_shape);
  EXACLIM_CHECK(grad_output.shape() == out_shape,
                name() << ": grad shape mismatch");
  const ConvGeometry g = Geometry(out_shape.h(), out_shape.w());

  Tensor grad_input(in_shape);
  const Tensor& w = ComputeWeight();
  const std::int64_t pixels = in_shape.h() * in_shape.w();
  const std::int64_t batch = in_shape.n();
  const std::int64_t shards = ConvGradShards(batch);
  workspace_.Configure(shards, /*scratch_elems=*/0,
                       weight_.grad.NumElements(), bias_ ? opts_.out_c : 0);
  workspace_.ZeroGradAccumulators();
  const std::int64_t in_stride = opts_.in_c * pixels;
  const std::int64_t out_stride = opts_.out_c * out_shape.h() * out_shape.w();
  // The data gradient is the underlying conv's forward, so it reuses the
  // implicit forward path; both GEMMs gather their B panels from the
  // output gradient through the geometry's row table.
  packed_weight_.Pack(false, opts_.in_c, g.PatchSize(), 1.0f, w.Raw());
  const GemmImplicitRow* rows = workspace_.ImplicitRows(g);

  RunConvShards(shards, [&](std::int64_t s) {
    const ConvShardRange images = ShardImageRange(batch, shards, s);
    float* wgrad = workspace_.WeightGrad(s);
    float* bgrad = bias_ ? workspace_.BiasGrad(s) : nullptr;
    for (std::int64_t n = images.lo; n < images.hi; ++n) {
      const float* gout = grad_output.Raw() + n * out_stride;
      GemmImplicitB bsrc;
      bsrc.image = gout;
      bsrc.rows = rows;
      bsrc.out_h = g.OutH();
      bsrc.out_w = g.OutW();
      bsrc.in_row_stride = g.in_w;
      bsrc.stride = g.stride;
      // gx[in_c, P] = W[in_c, patch] @ implicit-im2col(gout)
      GemmPackedImplicit(packed_weight_, bsrc, 0.0f,
                         grad_input.Raw() + n * in_stride);
      // gW[in_c, patch] += x[in_c, P] @ implicit-im2col(gout)^T
      GemmPackedImplicitWeightGrad(opts_.in_c, g.PatchSize(),
                                   cached_input_.Raw() + n * in_stride, bsrc,
                                   1.0f, wgrad);
      if (bgrad != nullptr) {
        const std::int64_t plane = out_shape.h() * out_shape.w();
        for (std::int64_t c = 0; c < opts_.out_c; ++c) {
          bgrad[c] += PlaneSum(gout + c * plane, plane);
        }
      }
    }
  });
  workspace_.ReduceWeightGradInto(weight_.grad.Raw());
  if (bias_) workspace_.ReduceBiasGradInto(bias_->grad.Raw());
  MaybeQuantise(grad_input);
  return grad_input;
}

std::vector<Param*> ConvTranspose2d::Params() {
  std::vector<Param*> params{&weight_};
  if (bias_) params.push_back(&*bias_);
  return params;
}

}  // namespace exaclim

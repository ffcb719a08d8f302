// Implicit-GEMM convolution backward (DESIGN §15) against the
// materialized oracle in conv_oracle.hpp: Conv2d data, weight and bias
// gradients, and ConvTranspose2d forward and backward, must match the
// Im2Col -> GEMM -> grad-col -> Col2Im lowering bit for bit on every
// geometry — kernel 1/3/5, stride 1/2/3, dilation 1/2/4, pad 0 or
// "same", out_pad, non-square images, channel counts off the MR/NR grid
// and above KC, batches 1/3/4/5, FP16 emulation, and output gradients
// holding -0.0.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "conv_oracle.hpp"
#include "nn/conv.hpp"
#include "nn/conv_engine.hpp"

namespace exaclim {
namespace {

/// Uniform values with every 5th element -0.0 and every 7th +0.0, so the
/// sign-of-zero behaviour of each accumulation is exercised.
Tensor SignedZeroGrad(const TensorShape& shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t = Tensor::Uniform(shape, rng, -1.0f, 1.0f);
  for (std::int64_t i = 0; i < t.NumElements(); ++i) {
    if (i % 5 == 0) t.Raw()[i] = -0.0f;
    if (i % 7 == 0) t.Raw()[i] = 0.0f;
  }
  return t;
}

void ExpectBitwise(const Tensor& got, const Tensor& want, const char* what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  EXPECT_EQ(0, std::memcmp(got.Raw(), want.Raw(),
                           static_cast<std::size_t>(got.NumElements()) *
                               sizeof(float)))
      << what << " differs bitwise from the materialized oracle";
}

struct Conv2dCase {
  std::int64_t in_c, out_c, kernel, stride, pad, dilation;
  std::int64_t h, w, batch;
  bool fp16 = false;
  bool bias = true;
};

void CheckConv2d(const Conv2dCase& c, const Tensor* grad_override = nullptr) {
  Rng rng(101);
  Conv2d conv("c",
              {.in_c = c.in_c, .out_c = c.out_c, .kernel = c.kernel,
               .stride = c.stride, .pad = c.pad, .dilation = c.dilation,
               .bias = c.bias},
              rng);
  if (c.fp16) conv.SetPrecision(Precision::kFP16);
  Rng xrng(103);
  const Tensor x = Tensor::Uniform(
      TensorShape::NCHW(c.batch, c.in_c, c.h, c.w), xrng, -1.0f, 1.0f);
  for (Param* p : conv.Params()) p->grad.SetZero();
  (void)conv.Forward(x, /*train=*/true);
  const Tensor g = grad_override != nullptr
                       ? *grad_override
                       : SignedZeroGrad(conv.OutputShape(x.shape()), 107);
  const Tensor gx = conv.Backward(g);

  MaterializedConvOracle oracle;
  const OracleResult& want = oracle.Conv2dBackward(conv, x, g);
  ExpectBitwise(gx, want.grad_input, "Conv2d data gradient");
  ExpectBitwise(conv.weight().grad, want.weight_grad, "Conv2d weight gradient");
  if (c.bias) {
    ExpectBitwise(conv.Params()[1]->grad, want.bias_grad,
                  "Conv2d bias gradient");
  }
}

struct DeconvCase {
  std::int64_t in_c, out_c, kernel, stride, pad, out_pad;
  std::int64_t h, w, batch;
  bool fp16 = false;
};

void CheckDeconv(const DeconvCase& c) {
  Rng rng(109);
  ConvTranspose2d deconv("d",
                         {.in_c = c.in_c, .out_c = c.out_c,
                          .kernel = c.kernel, .stride = c.stride,
                          .pad = c.pad, .out_pad = c.out_pad},
                         rng);
  if (c.fp16) deconv.SetPrecision(Precision::kFP16);
  // Non-zero bias so the forward's bias pass is covered too.
  Rng brng(113);
  deconv.Params()[1]->value =
      Tensor::Uniform(TensorShape{c.out_c}, brng, -1.0f, 1.0f);
  const Tensor x = SignedZeroGrad(TensorShape::NCHW(c.batch, c.in_c, c.h, c.w),
                                  127);
  for (Param* p : deconv.Params()) p->grad.SetZero();
  const Tensor y = deconv.Forward(x, /*train=*/true);
  const Tensor g = SignedZeroGrad(y.shape(), 131);
  const Tensor gx = deconv.Backward(g);

  MaterializedConvOracle oracle;
  ExpectBitwise(y, oracle.ConvTranspose2dForward(deconv, x).output,
                "ConvTranspose2d forward");
  const OracleResult& want = oracle.ConvTranspose2dBackward(deconv, x, g);
  ExpectBitwise(gx, want.grad_input, "ConvTranspose2d data gradient");
  ExpectBitwise(deconv.Params()[0]->grad, want.weight_grad,
                "ConvTranspose2d weight gradient");
  ExpectBitwise(deconv.Params()[1]->grad, want.bias_grad,
                "ConvTranspose2d bias gradient");
}

// ------------------------------------------------ Conv2d geometry sweep --

// (kernel, stride, dilation, same_pad)
using SweepParam = std::tuple<std::int64_t, std::int64_t, std::int64_t, bool>;

class Conv2dOracleSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(Conv2dOracleSweep, GradientsMatchOracleBitwise) {
  const auto [kernel, stride, dilation, same] = GetParam();
  const std::int64_t pad = same ? -1 : 0;
  // 5 -> 7 channels: neither a multiple of MR (6) nor of NR (16). The
  // non-square 18x23 map gives 400+ output pixels at stride 1, so the
  // weight gradient walks several KC panels of pixels.
  Conv2dCase c{.in_c = 5, .out_c = 7, .kernel = kernel, .stride = stride,
               .pad = pad, .dilation = dilation, .h = 18, .w = 23,
               .batch = 1 + (kernel + stride + dilation) % 4};
  if (c.batch == 2) c.batch = 5;
  const std::int64_t eff = dilation * (kernel - 1) + 1;
  if (!same && (eff > c.h || eff > c.w)) GTEST_SKIP() << "empty output";
  CheckConv2d(c);
}

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  const auto [k, s, d, same] = info.param;
  return "k" + std::to_string(k) + "_s" + std::to_string(s) + "_d" +
         std::to_string(d) + (same ? "_same" : "_pad0");
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, Conv2dOracleSweep,
    ::testing::Combine(::testing::Values(1, 3, 5), ::testing::Values(1, 2, 3),
                       ::testing::Values(1, 2, 4), ::testing::Bool()),
    SweepName);

// ------------------------------------------------- targeted Conv2d cases --

TEST(Conv2dOracle, BatchesOneThreeFourFive) {
  for (const std::int64_t batch : {1, 3, 4, 5}) {
    SCOPED_TRACE(batch);
    CheckConv2d({.in_c = 4, .out_c = 9, .kernel = 3, .stride = 2, .pad = 1,
                 .dilation = 1, .h = 13, .w = 10, .batch = batch});
    CheckConv2d({.in_c = 3, .out_c = 5, .kernel = 3, .stride = 1, .pad = 2,
                 .dilation = 2, .h = 11, .w = 14, .batch = batch});
  }
}

// The strided 1x1 ResNet downsample: one tap, four phases, three of
// them untouched by any tap.
TEST(Conv2dOracle, StridedPointwiseDownsample) {
  CheckConv2d({.in_c = 8, .out_c = 16, .kernel = 1, .stride = 2, .pad = 0,
               .dilation = 1, .h = 12, .w = 9, .batch = 3, .bias = false});
}

// out_c above KC: the data gradient sums each tap's two sub-panels in the
// tile buffer before its single add into the image.
TEST(Conv2dOracle, OutChannelsAboveKC) {
  CheckConv2d({.in_c = 4, .out_c = 300, .kernel = 3, .stride = 1, .pad = 1,
               .dilation = 1, .h = 9, .w = 11, .batch = 3});
  CheckConv2d({.in_c = 7, .out_c = 300, .kernel = 3, .stride = 2, .pad = 1,
               .dilation = 1, .h = 10, .w = 9, .batch = 1});
}

// in_c above KC/9: the weight gradient's patch dimension spans several
// NR strips and the data gradient several MR strips.
TEST(Conv2dOracle, WidePatch) {
  CheckConv2d({.in_c = 40, .out_c = 20, .kernel = 3, .stride = 1, .pad = 1,
               .dilation = 1, .h = 8, .w = 7, .batch = 4});
}

// More than NC input pixels: the data gradient walks several column
// blocks; the weight gradient several KC panels of pixels.
TEST(Conv2dOracle, ImageWiderThanOneColumnBlock) {
  CheckConv2d({.in_c = 3, .out_c = 4, .kernel = 3, .stride = 1, .pad = 1,
               .dilation = 1, .h = 50, .w = 45, .batch = 1});
}

TEST(Conv2dOracle, Fp16Emulation) {
  CheckConv2d({.in_c = 5, .out_c = 7, .kernel = 3, .stride = 1, .pad = -1,
               .dilation = 1, .h = 12, .w = 15, .batch = 3, .fp16 = true});
  CheckConv2d({.in_c = 6, .out_c = 4, .kernel = 3, .stride = 2, .pad = 1,
               .dilation = 1, .h = 11, .w = 8, .batch = 4, .fp16 = true});
  CheckConv2d({.in_c = 4, .out_c = 4, .kernel = 3, .stride = 1, .pad = -1,
               .dilation = 4, .h = 14, .w = 13, .batch = 1, .fp16 = true});
}

// An all -0.0 output gradient: every image pixel must come out +0.0
// exactly as Col2Im's 0 + x sums leave it.
TEST(Conv2dOracle, AllNegativeZeroGradient) {
  const Conv2dCase c{.in_c = 3, .out_c = 5, .kernel = 3, .stride = 2,
                     .pad = 1, .dilation = 1, .h = 9, .w = 8, .batch = 2};
  Tensor g(TensorShape::NCHW(2, 5, 5, 4));
  for (std::int64_t i = 0; i < g.NumElements(); ++i) g.Raw()[i] = -0.0f;
  CheckConv2d(c, &g);
}

// The serial batch walk (EXACLIM_CONV_SERIAL) runs the same per-image
// GEMMs in shard order and must match the oracle too.
TEST(Conv2dOracle, SerialBatchWalkStillMatches) {
  const bool saved = ConvBatchParallelEnabled();
  SetConvBatchParallel(false);
  CheckConv2d({.in_c = 5, .out_c = 7, .kernel = 3, .stride = 2, .pad = 1,
               .dilation = 1, .h = 12, .w = 11, .batch = 3});
  CheckConv2d({.in_c = 5, .out_c = 7, .kernel = 1, .stride = 1, .pad = 0,
               .dilation = 1, .h = 6, .w = 9, .batch = 2});
  CheckDeconv({.in_c = 4, .out_c = 3, .kernel = 3, .stride = 2, .pad = 1,
               .out_pad = 1, .h = 5, .w = 7, .batch = 3});
  SetConvBatchParallel(saved);
}

// ------------------------------------------------ ConvTranspose2d cases --

// (kernel, stride, pad, out_pad)
using DeconvParam =
    std::tuple<std::int64_t, std::int64_t, std::int64_t, std::int64_t>;

class DeconvOracleSweep : public ::testing::TestWithParam<DeconvParam> {};

TEST_P(DeconvOracleSweep, ForwardAndGradientsMatchOracleBitwise) {
  const auto [kernel, stride, pad, out_pad] = GetParam();
  CheckDeconv({.in_c = 5, .out_c = 7, .kernel = kernel, .stride = stride,
               .pad = pad, .out_pad = out_pad, .h = 6, .w = 9,
               .batch = 1 + (kernel + stride) % 4});
}

std::string DeconvName(const ::testing::TestParamInfo<DeconvParam>& info) {
  const auto [k, s, pad, out_pad] = info.param;
  return "k" + std::to_string(k) + "_s" + std::to_string(s) +
         (pad < 0 ? "_padauto" : "_pad0") + "_op" + std::to_string(out_pad);
}

// Kernel 1/2/3/5 x stride 1/2/3 x pad 0 or the layer default, with
// out_pad 1 wherever the stride admits it (out_pad < stride).
std::vector<DeconvParam> DeconvSweep() {
  std::vector<DeconvParam> params;
  for (const std::int64_t k : {1, 2, 3, 5}) {
    for (const std::int64_t s : {1, 2, 3}) {
      for (const std::int64_t pad : {0, -1}) {
        for (std::int64_t out_pad = 0; out_pad < std::min<std::int64_t>(s, 2);
             ++out_pad) {
          params.emplace_back(k, s, pad, out_pad);
        }
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Geometry, DeconvOracleSweep,
                         ::testing::ValuesIn(DeconvSweep()), DeconvName);

TEST(DeconvOracle, BatchesAndFp16) {
  for (const std::int64_t batch : {1, 3, 4, 5}) {
    SCOPED_TRACE(batch);
    CheckDeconv({.in_c = 4, .out_c = 3, .kernel = 3, .stride = 2, .pad = 1,
                 .out_pad = 1, .h = 5, .w = 7, .batch = batch});
    CheckDeconv({.in_c = 4, .out_c = 3, .kernel = 3, .stride = 2, .pad = 1,
                 .out_pad = 1, .h = 5, .w = 7, .batch = batch, .fp16 = true});
  }
}

// in_c above KC: the deconv forward's tap GEMM contracts over in_c.
TEST(DeconvOracle, InChannelsAboveKC) {
  CheckDeconv({.in_c = 300, .out_c = 5, .kernel = 3, .stride = 2, .pad = 1,
               .out_pad = 1, .h = 4, .w = 5, .batch = 3});
}

}  // namespace
}  // namespace exaclim

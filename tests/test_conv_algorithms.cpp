// The conv forward suite (Sec VI: cuDNN's dynamic algorithm choice is
// the reason the paper traced the API to count FLOPs). The forward has
// two branches picked by geometry, the pointwise GEMM and the implicit
// GEMM, and both must match the materialized im2col oracle
// (conv_oracle.hpp) bit for bit, with the fused bias epilogue on and
// off, and an independent naive reference to within rounding.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "conv_oracle.hpp"
#include "nn/conv.hpp"
#include "nn/conv_engine.hpp"
#include "tensor/gemm_kernel.hpp"

namespace exaclim {
namespace {

// Independent reference implementation (straight from the definition,
// sharing no code with nn/conv.cpp or nn/im2col.cpp).
// `bias` may be empty (no bias).
Tensor ReferenceConv(const Tensor& input, const Tensor& weight,
                     const Tensor& bias, const Conv2d::Options& o) {
  const std::int64_t n = input.shape().n(), h = input.shape().h(),
                     w = input.shape().w();
  const std::int64_t pad =
      o.pad >= 0 ? o.pad : o.dilation * (o.kernel / 2);
  const std::int64_t eff_k = o.dilation * (o.kernel - 1) + 1;
  const std::int64_t oh = (h + 2 * pad - eff_k) / o.stride + 1;
  const std::int64_t ow = (w + 2 * pad - eff_k) / o.stride + 1;
  Tensor out(TensorShape::NCHW(n, o.out_c, oh, ow));
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t oc = 0; oc < o.out_c; ++oc) {
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          double acc =
              bias.Empty() ? 0.0 : bias[static_cast<std::size_t>(oc)];
          for (std::int64_t ic = 0; ic < o.in_c; ++ic) {
            for (std::int64_t ky = 0; ky < o.kernel; ++ky) {
              for (std::int64_t kx = 0; kx < o.kernel; ++kx) {
                const std::int64_t iy =
                    oy * o.stride + ky * o.dilation - pad;
                const std::int64_t ix =
                    ox * o.stride + kx * o.dilation - pad;
                if (iy < 0 || iy >= h || ix < 0 || ix >= w) continue;
                const float wv = weight[static_cast<std::size_t>(
                    ((oc * o.in_c + ic) * o.kernel + ky) * o.kernel + kx)];
                acc += static_cast<double>(wv) * input.At(b, ic, iy, ix);
              }
            }
          }
          out.At(b, oc, oy, ox) = static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

struct GeometryCase {
  std::int64_t in_c, out_c, kernel, stride, pad, dilation;
  std::int64_t h, w;
};

Conv2d::Options OptionsFor(const GeometryCase& geo, bool bias) {
  return {.in_c = geo.in_c, .out_c = geo.out_c, .kernel = geo.kernel,
          .stride = geo.stride, .pad = geo.pad, .dilation = geo.dilation,
          .bias = bias};
}

/// Restores the fusion knob on scope exit.
struct FusionGuard {
  bool saved = ConvFusionEnabled();
  ~FusionGuard() { SetConvFusion(saved); }
};

// (geometry, fusion on, bias): with fusion on the bias rides the GEMM
// epilogue, with it off a separate pass adds it.
class ConvForwardParity
    : public ::testing::TestWithParam<std::tuple<GeometryCase, bool, bool>> {
};

TEST_P(ConvForwardParity, MatchesNaiveReference) {
  const auto [geo, fuse, bias] = GetParam();
  FusionGuard guard;
  SetConvFusion(fuse);
  const Conv2d::Options opts = OptionsFor(geo, bias);
  Rng rng(7);
  Conv2d conv("c", opts, rng);
  Tensor expected_bias;
  if (bias) {
    Rng brng(9);
    conv.Params()[1]->value =
        Tensor::Uniform(TensorShape{geo.out_c}, brng, -1.0f, 1.0f);
    expected_bias = conv.Params()[1]->value;
  }
  Rng xrng(11);
  const Tensor x = Tensor::Uniform(
      TensorShape::NCHW(2, geo.in_c, geo.h, geo.w), xrng, -1.0f, 1.0f);

  const Tensor expected =
      ReferenceConv(x, conv.weight().value, expected_bias, opts);
  const Tensor actual = conv.Forward(x, false);
  ASSERT_EQ(actual.shape(), expected.shape());
  for (std::int64_t i = 0; i < actual.NumElements(); ++i) {
    EXPECT_NEAR(actual[static_cast<std::size_t>(i)],
                expected[static_cast<std::size_t>(i)], 2e-4f)
        << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    GeometrySweep, ConvForwardParity,
    ::testing::Combine(
        ::testing::Values(
            GeometryCase{3, 4, 3, 1, 1, 1, 8, 9},    // plain 3x3
            GeometryCase{2, 5, 1, 1, 0, 1, 7, 7},    // pointwise
            GeometryCase{4, 2, 3, 2, 1, 1, 9, 10},   // strided
            GeometryCase{2, 3, 3, 1, 2, 2, 8, 8},    // atrous d=2
            GeometryCase{2, 3, 3, 1, -1, 2, 8, 8},   // atrous default pad
            GeometryCase{2, 2, 3, 1, -1, 4, 10, 9},  // atrous d=4 def. pad
            GeometryCase{1, 2, 5, 1, 2, 1, 10, 10},  // 5x5 (Tiramisu mod)
            GeometryCase{3, 3, 7, 2, 3, 1, 14, 14},  // stem 7x7/2
            GeometryCase{2, 2, 3, 1, 6, 6, 9, 9}),   // extreme dilation
        ::testing::Bool(), ::testing::Bool()));

/// The layer's forward against the materialized oracle, bitwise, with
/// the bias folded into the GEMM epilogue (fusion on) and added by the
/// separate pass (fusion off).
void CheckForwardMatchesOracle(const GeometryCase& geo, std::int64_t batch,
                               bool fp16 = false) {
  FusionGuard guard;
  for (const bool fuse : {false, true}) {
    SetConvFusion(fuse);
    Rng rng(71);
    Conv2d conv("c", OptionsFor(geo, /*bias=*/true), rng);
    if (fp16) conv.SetPrecision(Precision::kFP16);
    // A non-zero bias, so the fused and separate bias adds both count.
    Rng brng(72);
    conv.Params()[1]->value =
        Tensor::Uniform(TensorShape{geo.out_c}, brng, -1.0f, 1.0f);
    Rng xrng(73);
    const Tensor x = Tensor::Uniform(
        TensorShape::NCHW(batch, geo.in_c, geo.h, geo.w), xrng, -1.0f, 1.0f);
    const Tensor got = conv.Forward(x, false);
    MaterializedConvOracle oracle;
    const Tensor& want = oracle.Conv2dForward(conv, x).output;
    ASSERT_EQ(got.shape(), want.shape());
    for (std::int64_t i = 0; i < got.NumElements(); ++i) {
      ASSERT_EQ(0, std::memcmp(got.Raw() + i, want.Raw() + i, sizeof(float)))
          << (fuse ? "fused" : "unfused") << " forward differs at " << i
          << ": " << got.Raw()[i] << " vs " << want.Raw()[i];
    }
  }
}

class ConvImplicitBitExact : public ::testing::TestWithParam<GeometryCase> {};

TEST_P(ConvImplicitBitExact, ForwardMatchesOracleBitwise) {
  CheckForwardMatchesOracle(GetParam(), /*batch=*/2);
}

INSTANTIATE_TEST_SUITE_P(
    GeometrySweep, ConvImplicitBitExact,
    ::testing::Values(GeometryCase{3, 4, 3, 1, 1, 1, 8, 9},   // plain 3x3
                      GeometryCase{2, 5, 1, 1, 0, 1, 7, 7},   // pointwise
                      GeometryCase{4, 2, 3, 2, 1, 1, 9, 10},  // strided
                      GeometryCase{2, 3, 3, 2, 0, 1, 9, 9},   // stride 2 pad 0
                      GeometryCase{2, 3, 3, 1, 2, 2, 8, 8},   // atrous d=2
                      GeometryCase{2, 3, 3, 1, -1, 2, 8, 8},  // dilated same
                      GeometryCase{2, 2, 3, 1, -1, 4, 10, 9},
                      GeometryCase{1, 2, 5, 2, 2, 1, 11, 10},  // 5x5 strided
                      GeometryCase{3, 3, 7, 2, 3, 1, 14, 14},  // stem 7x7/2
                      GeometryCase{2, 2, 3, 1, 6, 6, 9, 9}));  // extreme d=6

// FP16 emulation: binary16-rounded weights, the bias added by the
// separate pass (no epilogue outside FP32), the output rounded after.
TEST(ConvForwardOracle, Fp16MatchesOracleBitwise) {
  CheckForwardMatchesOracle({5, 7, 3, 1, -1, 1, 12, 15}, /*batch=*/3,
                            /*fp16=*/true);
  CheckForwardMatchesOracle({6, 4, 1, 1, 0, 1, 9, 8}, /*batch=*/2,
                            /*fp16=*/true);
}

// Batch 5 spreads one image per shard; each shard's GEMMs must land
// exactly where the oracle's do.
TEST(ConvForwardOracle, Batch5MatchesOracleBitwise) {
  CheckForwardMatchesOracle({4, 6, 3, 1, 1, 1, 10, 11}, /*batch=*/5);
  CheckForwardMatchesOracle({4, 6, 1, 1, 0, 1, 10, 11}, /*batch=*/5);
}

// A strided 1x1 (the ResNet downsample) is not pointwise: it runs the
// implicit GEMM on a one-tap kernel.
TEST(ConvForwardOracle, Strided1x1MatchesOracleBitwise) {
  CheckForwardMatchesOracle({6, 8, 1, 2, 0, 1, 13, 10}, /*batch=*/3);
}

// in_c*k*k > kGemmKC: the contraction walks two KC panels and the
// epilogue must ride only the final one.
TEST(ConvForwardOracle, TwoKcPanelsMatchOracleBitwise) {
  const GeometryCase geo{40, 9, 3, 1, 1, 1, 9, 10};
  ASSERT_GT(geo.in_c * geo.kernel * geo.kernel, kGemmKC);
  CheckForwardMatchesOracle(geo, /*batch=*/2);
  const GeometryCase pointwise{300, 9, 1, 1, 0, 1, 6, 7};
  ASSERT_GT(pointwise.in_c, kGemmKC);
  CheckForwardMatchesOracle(pointwise, /*batch=*/2);
}

// perfbench's provenance block prints these two names.
TEST(ConvAlgorithm, ProvenanceNamesStayAuto) {
  EXPECT_STREQ(ToString(DefaultConvAlgorithm()), "auto");
  EXPECT_STREQ(ToString(GemmKernelModeInUse()), "auto");
}

}  // namespace
}  // namespace exaclim

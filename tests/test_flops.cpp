#include <gtest/gtest.h>

#include "flops/cost.hpp"
#include "flops/opspec.hpp"

namespace exaclim {
namespace {

// --------------------------------------------------------- ConvFlops ----

TEST(ConvFlops, ReproducesSecVIExample) {
  // Sec VI: "a 3×3 direct convolution on a 1152×768 image with 48 input
  // channels, 32 output channels and a batch size of 2 requires
  // 3*3*1152*768*48*32*2*2 = 48.9e9 FLOPs."
  const double flops = ConvFlops(3, 768, 1152, 48, 32, 2);
  EXPECT_NEAR(flops, 48.9e9, 0.1e9);
  EXPECT_DOUBLE_EQ(flops, 3.0 * 3 * 1152 * 768 * 48 * 32 * 2 * 2);
}

// --------------------------------------------- Spec vs model agreement --

TEST(SpecAgreement, TiramisuParamsMatchRealModel) {
  for (const auto& cfg :
       {Tiramisu::Config::Downscaled(4), Tiramisu::Config::Original(),
        Tiramisu::Config::Modified()}) {
    Rng rng(1);
    Tiramisu model(cfg, rng);
    const ArchSpec spec = BuildTiramisuSpec(cfg, 64, 64);
    EXPECT_EQ(spec.TotalParams(), ParameterCount(model))
        << "growth=" << cfg.growth_rate;
  }
}

TEST(SpecAgreement, DeepLabParamsMatchRealModel) {
  for (const auto& cfg : {DeepLabV3Plus::Config::Downscaled(4),
                          DeepLabV3Plus::Config::Paper(16)}) {
    Rng rng(1);
    DeepLabV3Plus model(cfg, rng);
    const ArchSpec spec = BuildDeepLabSpec(cfg, 64, 64);
    EXPECT_EQ(spec.TotalParams(), ParameterCount(model))
        << "stem=" << cfg.encoder.stem_features;
  }
}

TEST(SpecAgreement, QuarterResDecoderVariantParamsMatch) {
  auto cfg = DeepLabV3Plus::Config::Downscaled(4);
  cfg.full_res_decoder = false;
  Rng rng(1);
  DeepLabV3Plus model(cfg, rng);
  const ArchSpec spec = BuildDeepLabSpec(cfg, 64, 64);
  EXPECT_EQ(spec.TotalParams(), ParameterCount(model));
}

TEST(SpecAgreement, FinalOpRestoresInputResolution) {
  const ArchSpec t = PaperTiramisuSpec(16);
  EXPECT_EQ(t.ops.back().out_h, 768);
  EXPECT_EQ(t.ops.back().out_w, 1152);
  const ArchSpec d = PaperDeepLabSpec(16);
  EXPECT_EQ(d.ops.back().out_h, 768);
  EXPECT_EQ(d.ops.back().out_w, 1152);
  EXPECT_EQ(d.ops.back().out_c, 3);
}

// ----------------------------------------------------- AnalyzeTraining --

TEST(AnalyzeTraining, BackwardConvIsTwiceForward) {
  // Data gradient + weight gradient each cost one forward's FLOPs —
  // visible in Fig 8/9 where backward conv TF is exactly 2x forward.
  const ArchSpec spec = PaperTiramisuSpec(16);
  const TrainingCost cost = AnalyzeTraining(spec, Precision::kFP32, 1);
  EXPECT_NEAR(cost.at(KernelCategory::kBwdConv).flops /
                  cost.at(KernelCategory::kFwdConv).flops,
              2.0, 1e-9);
}

TEST(AnalyzeTraining, OpCountPerSampleIndependentOfBatch) {
  const ArchSpec spec = PaperTiramisuSpec(16);
  const TrainingCost b1 = AnalyzeTraining(spec, Precision::kFP32, 1);
  const TrainingCost b2 = AnalyzeTraining(spec, Precision::kFP32, 2);
  EXPECT_NEAR(b1.ConvFlopsPerSample(), b2.ConvFlopsPerSample(), 1.0);
}

TEST(AnalyzeTraining, FP16HalvesActivationTraffic) {
  const ArchSpec spec = PaperDeepLabSpec(16);
  const TrainingCost fp32 = AnalyzeTraining(spec, Precision::kFP32, 1);
  const TrainingCost fp16 = AnalyzeTraining(spec, Precision::kFP16, 1);
  EXPECT_LT(fp16.at(KernelCategory::kFwdConv).bytes,
            fp32.at(KernelCategory::kFwdConv).bytes * 0.6);
  // FP16 adds conversion kernels; FP32 has none.
  EXPECT_EQ(fp32.at(KernelCategory::kConvert).kernels, 0);
  EXPECT_GT(fp16.at(KernelCategory::kConvert).kernels, 0);
}

TEST(AnalyzeTraining, Fig2OperationCountsSameRegime) {
  // Fig 2 reports 4.188 TF/sample (Tiramisu) and 14.41 (DeepLabv3+);
  // with the architectures as best reconstructable from the paper our
  // counts land in the same order of magnitude, and — the structural
  // check — the DeepLab/Tiramisu ratio (3.44x in the paper) is
  // preserved.
  const TrainingCost tiramisu =
      AnalyzeTraining(PaperTiramisuSpec(16), Precision::kFP32, 1);
  const TrainingCost deeplab =
      AnalyzeTraining(PaperDeepLabSpec(16), Precision::kFP32, 1);
  const double t_tf = tiramisu.ConvFlopsPerSample() / 1e12;
  const double d_tf = deeplab.ConvFlopsPerSample() / 1e12;
  EXPECT_GT(t_tf, 0.4);
  EXPECT_LT(t_tf, 8.0);
  EXPECT_GT(d_tf, 2.0);
  EXPECT_LT(d_tf, 25.0);
  EXPECT_NEAR(d_tf / t_tf, 14.41 / 4.188, 1.5);
}

TEST(AnalyzeTraining, PizDaint4ChannelTiramisuIsCheaper) {
  // Fig 2 footnote: the Piz Daint Tiramisu used 4 of 16 channels,
  // lowering the op count (3.703 vs 4.188 TF in the paper — only the
  // first conv changes).
  Tiramisu::Config cfg16 = Tiramisu::Config::Modified();
  Tiramisu::Config cfg4 = cfg16;
  cfg4.in_channels = 4;
  const TrainingCost full = AnalyzeTraining(
      BuildTiramisuSpec(cfg16, 768, 1152), Precision::kFP32, 1);
  const TrainingCost sub = AnalyzeTraining(
      BuildTiramisuSpec(cfg4, 768, 1152), Precision::kFP32, 1);
  const double ratio = sub.ConvFlopsPerSample() / full.ConvFlopsPerSample();
  EXPECT_LT(ratio, 1.0);
  EXPECT_GT(ratio, 0.80);  // paper: 3.703/4.188 = 0.88
}

TEST(AnalyzeTraining, ConvsDominateCompute) {
  // Figs 8/9: convolutions carry essentially all FLOPs; pointwise ops
  // are memory-bound with negligible math.
  for (const auto& spec : {PaperTiramisuSpec(16), PaperDeepLabSpec(16)}) {
    const TrainingCost cost = AnalyzeTraining(spec, Precision::kFP32, 1);
    const double conv_flops = cost.at(KernelCategory::kFwdConv).flops +
                              cost.at(KernelCategory::kBwdConv).flops;
    EXPECT_GT(conv_flops / cost.TotalFlops(), 0.97) << spec.name;
  }
}

TEST(AnalyzeTraining, DeepLabHasHigherComputeIntensityThanTiramisu) {
  // The Sec VII-A finding: Tiramisu's small per-layer filter counts make
  // it memory-limited; DeepLabv3+'s large channel counts give higher
  // FLOPs-per-byte.
  const TrainingCost tiramisu =
      AnalyzeTraining(PaperTiramisuSpec(16), Precision::kFP32, 1);
  const TrainingCost deeplab =
      AnalyzeTraining(PaperDeepLabSpec(16), Precision::kFP32, 1);
  const double t_intensity = tiramisu.TotalFlops() / tiramisu.TotalBytes();
  const double d_intensity = deeplab.TotalFlops() / deeplab.TotalBytes();
  EXPECT_GT(d_intensity, t_intensity * 1.5);
}

TEST(AnalyzeTraining, AllreduceBytesScaleWithParams) {
  const ArchSpec small = BuildTiramisuSpec(Tiramisu::Config::Downscaled(4),
                                           64, 64);
  const ArchSpec large = PaperDeepLabSpec(16);
  const TrainingCost cs = AnalyzeTraining(small, Precision::kFP32, 1);
  const TrainingCost cl = AnalyzeTraining(large, Precision::kFP32, 1);
  EXPECT_NEAR(cs.at(KernelCategory::kAllreduce).bytes,
              2.0 * static_cast<double>(small.TotalParams()) * 4, 1.0);
  EXPECT_GT(cl.at(KernelCategory::kAllreduce).bytes,
            cs.at(KernelCategory::kAllreduce).bytes * 100);
}

TEST(ArchSpec, OpKindCounts) {
  const ArchSpec spec = PaperDeepLabSpec(16);
  // ResNet-50: 53 convs + projections; ASPP 5; decoder ~8.
  EXPECT_GT(spec.CountOps(OpSpec::Kind::kConv), 60);
  EXPECT_EQ(spec.CountOps(OpSpec::Kind::kDeconv), 3);  // Fig 1: 3 deconvs
  EXPECT_GT(spec.CountOps(OpSpec::Kind::kNorm), 50);
  const ArchSpec quarter = [] {
    auto cfg = DeepLabV3Plus::Config::Paper(16);
    cfg.full_res_decoder = false;
    return BuildDeepLabSpec(cfg, 768, 1152);
  }();
  EXPECT_EQ(quarter.CountOps(OpSpec::Kind::kDeconv), 1);
  EXPECT_EQ(quarter.CountOps(OpSpec::Kind::kUpsample), 1);
}

TEST(AnalyzeTraining, FullResDecoderCostsMoreThanQuarterRes) {
  // Sec V-B5: the standard DeepLabv3+ predicts at 1/4 resolution to keep
  // compute tractable; the paper's full-res decoder buys fidelity with
  // FLOPs.
  auto full_cfg = DeepLabV3Plus::Config::Paper(16);
  auto quarter_cfg = full_cfg;
  quarter_cfg.full_res_decoder = false;
  const TrainingCost full = AnalyzeTraining(
      BuildDeepLabSpec(full_cfg, 768, 1152), Precision::kFP32, 1);
  const TrainingCost quarter = AnalyzeTraining(
      BuildDeepLabSpec(quarter_cfg, 768, 1152), Precision::kFP32, 1);
  EXPECT_GT(full.ConvFlopsPerSample(), quarter.ConvFlopsPerSample() * 1.1);
}

}  // namespace
}  // namespace exaclim

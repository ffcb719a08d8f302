#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "gradcheck.hpp"
#include "models/deeplab.hpp"
#include "models/resnet.hpp"
#include "models/tiramisu.hpp"
#include "nn/loss.hpp"

namespace exaclim {
namespace {

using testing::CheckInputGradient;

Tensor RandomInput(TensorShape shape, std::uint64_t seed = 1) {
  Rng rng(seed);
  return Tensor::Uniform(std::move(shape), rng, -1.0f, 1.0f);
}

// Runs one full forward/backward and checks every parameter got a
// nonzero-ish gradient somewhere (i.e. the whole graph is connected).
void ExpectAllParamsReceiveGradients(Layer& model, const Tensor& input) {
  for (Param* p : model.Params()) p->grad.SetZero();
  const Tensor out = model.Forward(input, /*train=*/true);
  Rng rng(77);
  const Tensor seed = Tensor::Uniform(out.shape(), rng, -1.0f, 1.0f);
  (void)model.Backward(seed);
  for (Param* p : model.Params()) {
    EXPECT_GT(p->grad.Norm(), 0.0f) << "dead gradient: " << p->name;
  }
}

// ---------------------------------------------------------- DenseBlock --

TEST(DenseBlock, OutputChannelsWithInput) {
  Rng rng(1);
  DenseBlock block("db",
                   {.in_c = 8, .growth = 4, .layers = 3, .kernel = 3,
                    .dropout = 0.0f, .include_input = true},
                   rng);
  EXPECT_EQ(block.out_channels(), 8 + 3 * 4);
  const auto out = block.OutputShape(TensorShape::NCHW(1, 8, 6, 6));
  EXPECT_EQ(out, TensorShape::NCHW(1, 20, 6, 6));
}

TEST(DenseBlock, OutputChannelsWithoutInput) {
  Rng rng(1);
  DenseBlock block("db",
                   {.in_c = 8, .growth = 4, .layers = 3, .kernel = 3,
                    .dropout = 0.0f, .include_input = false},
                   rng);
  EXPECT_EQ(block.out_channels(), 12);
}

TEST(DenseBlock, GradCheck) {
  for (const bool include_input : {true, false}) {
    Rng rng(2);
    DenseBlock block("db",
                     {.in_c = 3, .growth = 2, .layers = 2, .kernel = 3,
                      .dropout = 0.0f, .include_input = include_input},
                     rng);
    // Warm the batch norms so eval mode has sane running stats.
    const Tensor warm = RandomInput(TensorShape::NCHW(4, 3, 6, 6), 3);
    (void)block.Forward(warm, true);
    const Tensor x = RandomInput(TensorShape::NCHW(2, 3, 6, 6), 4);
    const auto res = CheckInputGradient(block, x);
    EXPECT_LT(res.max_rel_err, 2e-2) << "include_input=" << include_input;
  }
}

TEST(DenseBlock, ParamsReceiveGradients) {
  Rng rng(5);
  DenseBlock block("db",
                   {.in_c = 4, .growth = 3, .layers = 3, .kernel = 3,
                    .dropout = 0.0f, .include_input = true},
                   rng);
  ExpectAllParamsReceiveGradients(block,
                                  RandomInput(TensorShape::NCHW(2, 4, 8, 8)));
}

// ------------------------------------------------------------ Tiramisu --

TEST(Tiramisu, PresetConfigsMatchPaper) {
  const auto original = Tiramisu::Config::Original();
  EXPECT_EQ(original.growth_rate, 16);
  EXPECT_EQ(original.kernel, 3);
  const auto modified = Tiramisu::Config::Modified();
  EXPECT_EQ(modified.growth_rate, 32);
  EXPECT_EQ(modified.kernel, 5);
  // Sec V-B5: halved layer counts, same receptive field via 5×5.
  std::int64_t orig_total = original.bottleneck_layers;
  for (auto l : original.down_layers) orig_total += l;
  std::int64_t mod_total = modified.bottleneck_layers;
  for (auto l : modified.down_layers) mod_total += l;
  EXPECT_NEAR(static_cast<double>(orig_total) / mod_total, 2.0, 0.6);
}

TEST(Tiramisu, OutputShapeIsPerPixelClassMap) {
  Rng rng(6);
  Tiramisu net(Tiramisu::Config::Downscaled(4), rng);
  EXPECT_EQ(net.SpatialDivisor(), 4);
  const auto out = net.OutputShape(TensorShape::NCHW(2, 4, 16, 24));
  EXPECT_EQ(out, TensorShape::NCHW(2, 3, 16, 24));
  EXPECT_THROW(net.OutputShape(TensorShape::NCHW(1, 4, 10, 16)), Error);
}

TEST(Tiramisu, ForwardBackwardConnected) {
  Rng rng(7);
  Tiramisu net(Tiramisu::Config::Downscaled(4), rng);
  ExpectAllParamsReceiveGradients(
      net, RandomInput(TensorShape::NCHW(1, 4, 16, 16)));
}

TEST(Tiramisu, GradCheckTinyConfig) {
  Rng rng(8);
  Tiramisu::Config cfg;
  cfg.in_channels = 2;
  cfg.num_classes = 2;
  cfg.first_features = 3;
  cfg.growth_rate = 2;
  cfg.kernel = 3;
  cfg.down_layers = {1};
  cfg.bottleneck_layers = 1;
  cfg.dropout = 0.0f;
  Tiramisu net(cfg, rng);
  const Tensor warm = RandomInput(TensorShape::NCHW(4, 2, 8, 8), 9);
  (void)net.Forward(warm, true);
  const Tensor x = RandomInput(TensorShape::NCHW(1, 2, 8, 8), 10);
  const auto res = CheckInputGradient(net, x, 1e-2, 60);
  EXPECT_LT(res.max_rel_err, 5e-2);
}

TEST(Tiramisu, ModifiedHasComparableParameterCountToOriginal) {
  // Sec V-B5: the growth-32 redesign kept overall network size roughly the
  // same. Verify within a factor ~2 at small input channel count.
  Rng rng(11);
  Tiramisu original(Tiramisu::Config::Original(), rng);
  Tiramisu modified(Tiramisu::Config::Modified(), rng);
  const double ratio = static_cast<double>(ParameterCount(modified)) /
                       static_cast<double>(ParameterCount(original));
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 4.0);
}

TEST(Tiramisu, FP16ForwardFinite) {
  Rng rng(12);
  Tiramisu net(Tiramisu::Config::Downscaled(4), rng);
  net.SetPrecision(Precision::kFP16);
  const Tensor x = RandomInput(TensorShape::NCHW(1, 4, 16, 16), 13);
  const Tensor y = net.Forward(x, false);
  EXPECT_TRUE(y.AllFinite());
}

// ---------------------------------------------------------- Bottleneck --

TEST(Bottleneck, IdentityShortcutWhenShapesMatch) {
  Rng rng(14);
  Bottleneck block("b",
                   {.in_c = 8, .mid_c = 2, .out_c = 8, .stride = 1,
                    .dilation = 1},
                   rng);
  // Only the main path has parameters (no projection).
  std::set<std::string> names;
  for (Param* p : block.Params()) names.insert(p->name);
  EXPECT_EQ(names.count("b.proj.weight"), 0u);
}

TEST(Bottleneck, ProjectionShortcutWhenChannelsChange) {
  Rng rng(15);
  Bottleneck block("b",
                   {.in_c = 4, .mid_c = 2, .out_c = 8, .stride = 2,
                    .dilation = 1},
                   rng);
  std::set<std::string> names;
  for (Param* p : block.Params()) names.insert(p->name);
  EXPECT_EQ(names.count("b.proj.weight"), 1u);
  const auto out = block.OutputShape(TensorShape::NCHW(1, 4, 8, 8));
  EXPECT_EQ(out, TensorShape::NCHW(1, 8, 4, 4));
}

TEST(Bottleneck, GradCheck) {
  Rng rng(16);
  Bottleneck block("b",
                   {.in_c = 3, .mid_c = 2, .out_c = 6, .stride = 1,
                    .dilation = 2},
                   rng);
  const Tensor warm = RandomInput(TensorShape::NCHW(4, 3, 6, 6), 17);
  (void)block.Forward(warm, true);
  const Tensor x = RandomInput(TensorShape::NCHW(2, 3, 6, 6), 18);
  const auto res = CheckInputGradient(block, x);
  EXPECT_LT(res.max_rel_err, 2e-2);
}

// ------------------------------------------------------- ResNetEncoder --

TEST(ResNetEncoder, PaperGeometry) {
  // Fig 1: 1152×768 input -> stride 8 -> 144×96 with 2048 channels; the
  // low-level tap is at stride 4 (288×192) with 256 channels.
  Rng rng(19);
  ResNetEncoder enc(ResNetEncoder::Config::ResNet50(16), rng);
  EXPECT_EQ(enc.output_stride(), 8);
  EXPECT_EQ(enc.out_channels(), 2048);
  EXPECT_EQ(enc.low_level_channels(), 256);
  const auto out = enc.OutputShape(TensorShape::NCHW(1, 16, 768, 1152));
  EXPECT_EQ(out, TensorShape::NCHW(1, 2048, 96, 144));
  const auto low = enc.LowLevelShape(TensorShape::NCHW(1, 16, 768, 1152));
  EXPECT_EQ(low, TensorShape::NCHW(1, 256, 192, 288));
}

TEST(ResNetEncoder, DownscaledForwardBackward) {
  Rng rng(20);
  ResNetEncoder enc(ResNetEncoder::Config::Downscaled(4), rng);
  const Tensor x = RandomInput(TensorShape::NCHW(1, 4, 32, 32));
  const Tensor y = enc.Forward(x, true);
  EXPECT_EQ(y.shape(), enc.OutputShape(x.shape()));
  EXPECT_EQ(enc.low_level().shape(), enc.LowLevelShape(x.shape()));
  ExpectAllParamsReceiveGradients(enc, x);
}

TEST(ResNetEncoder, LowLevelGradientFlowsIn) {
  Rng rng(21);
  ResNetEncoder enc(ResNetEncoder::Config::Downscaled(4), rng);
  const Tensor x = RandomInput(TensorShape::NCHW(1, 4, 32, 32));
  const Tensor y = enc.Forward(x, true);

  // Zero output gradient + nonzero low-level gradient must still produce
  // nonzero input gradient (the skip path is differentiable).
  enc.AddLowLevelGradient(Tensor::Full(enc.low_level().shape(), 0.1f));
  const Tensor gin = enc.Backward(Tensor::Zeros(y.shape()));
  EXPECT_GT(gin.Norm(), 0.0f);
}

// ---------------------------------------------------------------- ASPP --

TEST(ASPP, OutputShapePreservesResolution) {
  Rng rng(22);
  ASPP aspp("aspp", {.in_c = 8, .branch_c = 4, .rates = {2, 4, 6}}, rng);
  const auto out = aspp.OutputShape(TensorShape::NCHW(1, 8, 12, 18));
  EXPECT_EQ(out, TensorShape::NCHW(1, 4, 12, 18));
}

TEST(ASPP, HasFourBranchesPlusProjection) {
  Rng rng(23);
  ASPP aspp("aspp", {.in_c = 4, .branch_c = 2, .rates = {12, 24, 36}}, rng);
  // 4 branch convs + 4 branch bns + projection conv + bn = params: each
  // conv 1 param (no bias), each bn 2.
  EXPECT_EQ(aspp.Params().size(), 4u * 3u + 3u);
}

TEST(ASPP, GradCheck) {
  Rng rng(24);
  ASPP aspp("aspp", {.in_c = 3, .branch_c = 2, .rates = {1, 2}}, rng);
  const Tensor warm = RandomInput(TensorShape::NCHW(4, 3, 6, 6), 25);
  (void)aspp.Forward(warm, true);
  const Tensor x = RandomInput(TensorShape::NCHW(1, 3, 6, 6), 26);
  const auto res = CheckInputGradient(aspp, x);
  EXPECT_LT(res.max_rel_err, 2e-2);
}

// ------------------------------------------------------- DeepLabV3Plus --

TEST(DeepLabV3Plus, PaperConfigShapes) {
  // Full-size network construction is cheap (weights only, no
  // activations): validate the Fig 1 geometry end to end.
  Rng rng(27);
  DeepLabV3Plus net(DeepLabV3Plus::Config::Paper(16), rng);
  const auto out = net.OutputShape(TensorShape::NCHW(1, 16, 768, 1152));
  EXPECT_EQ(out, TensorShape::NCHW(1, 3, 768, 1152));
  // ResNet-50 core: parameter count in the tens of millions.
  const auto params = ParameterCount(net);
  EXPECT_GT(params, 20'000'000);
  EXPECT_LT(params, 80'000'000);
}

TEST(DeepLabV3Plus, DownscaledForwardBackwardConnected) {
  Rng rng(28);
  DeepLabV3Plus net(DeepLabV3Plus::Config::Downscaled(4), rng);
  ExpectAllParamsReceiveGradients(
      net, RandomInput(TensorShape::NCHW(1, 4, 32, 32)));
}

TEST(DeepLabV3Plus, QuarterResDecoderVariant) {
  Rng rng(29);
  auto cfg = DeepLabV3Plus::Config::Downscaled(4);
  cfg.full_res_decoder = false;
  DeepLabV3Plus net(cfg, rng);
  const Tensor x = RandomInput(TensorShape::NCHW(1, 4, 32, 32));
  const Tensor y = net.Forward(x, true);
  EXPECT_EQ(y.shape(), TensorShape::NCHW(1, 3, 32, 32));
  ExpectAllParamsReceiveGradients(net, x);

  // The quarter-res variant must be cheaper in parameters than full-res.
  Rng rng2(29);
  DeepLabV3Plus full(DeepLabV3Plus::Config::Downscaled(4), rng2);
  EXPECT_LT(ParameterCount(net), ParameterCount(full));
}

TEST(DeepLabV3Plus, TrainingStepReducesLoss) {
  // One tiny but real end-to-end sanity check: a few SGD steps on a fixed
  // batch must reduce the weighted loss.
  Rng rng(30);
  auto cfg = DeepLabV3Plus::Config::Downscaled(2);
  cfg.num_classes = 2;
  DeepLabV3Plus net(cfg, rng);
  const Tensor x = RandomInput(TensorShape::NCHW(1, 2, 16, 16), 31);
  std::vector<std::uint8_t> labels(16 * 16, 0);
  for (std::size_t i = 0; i < labels.size(); i += 7) labels[i] = 1;

  double first_loss = 0, last_loss = 0;
  for (int step = 0; step < 8; ++step) {
    for (Param* p : net.Params()) p->grad.SetZero();
    const Tensor logits = net.Forward(x, true);
    const auto res = WeightedSoftmaxCrossEntropy(logits, labels, {});
    (void)net.Backward(res.grad_logits);
    for (Param* p : net.Params()) p->value.Axpy(-0.05f, p->grad);
    if (step == 0) first_loss = res.loss;
    last_loss = res.loss;
  }
  EXPECT_LT(last_loss, first_loss);
}

// ----------------------------------------------------------- LayerTree --
//
// Params() order sets the exchanger's bucket contents, the LARC walk and
// the checkpoint layout, so the name sequences of the trainer's default
// models are pinned: a reordered or incomplete child list changes them.

struct NameSequence {
  std::size_t count = 0;
  std::uint64_t fnv1a = 0xcbf29ce484222325ull;
  std::string joined;  // for the failure message

  void Add(const std::string& name) {
    ++count;
    for (const char c : name + '\n') {
      fnv1a = (fnv1a ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    }
    joined += name + ' ';
  }
};

NameSequence ParamNames(Layer& model) {
  NameSequence seq;
  for (const Param* p : model.Params()) seq.Add(p->name);
  return seq;
}

NameSequence StateNames(Layer& model) {
  NameSequence seq;
  for (const auto& s : model.StateTensors()) seq.Add(s.name);
  return seq;
}

void ExpectSequence(const NameSequence& got, std::size_t count,
                    std::uint64_t fnv1a) {
  EXPECT_EQ(got.count, count) << got.joined;
  EXPECT_EQ(got.fnv1a, fnv1a) << std::hex << got.fnv1a << ": " << got.joined;
}

TEST(LayerTree, TiramisuParamAndStateOrderIsPinned) {
  Rng rng(1);
  Tiramisu net(Tiramisu::Config::Downscaled(8), rng);
  ExpectSequence(ParamNames(net), 26, 0x3ca1d68a6da4fff4ull);
  ExpectSequence(StateNames(net), 14, 0xf60a0786be01ff45ull);
}

TEST(LayerTree, DeepLabParamAndStateOrderIsPinned) {
  Rng rng(1);
  DeepLabV3Plus net(DeepLabV3Plus::Config::Downscaled(8), rng);
  ExpectSequence(ParamNames(net), 90, 0xd1f819518421a47cull);
  ExpectSequence(StateNames(net), 58, 0x10be6f3fbf618eb3ull);
}

void CollectTree(Layer& layer, std::vector<Layer*>& out) {
  out.push_back(&layer);
  for (Layer* child : layer.Children()) CollectTree(*child, out);
}

// One SetPrecision on the root reaches every node of the tree, no node is
// listed by two containers, and no parameter is listed twice.
void ExpectTreeContract(Layer& root) {
  root.SetPrecision(Precision::kFP16);
  std::vector<Layer*> nodes;
  CollectTree(root, nodes);
  EXPECT_GT(nodes.size(), 1u);
  std::set<const Layer*> seen_nodes;
  for (const Layer* node : nodes) {
    EXPECT_TRUE(seen_nodes.insert(node).second) << "listed twice: "
                                                << node->name();
    EXPECT_EQ(node->precision(), Precision::kFP16) << node->name();
  }
  std::set<const Param*> seen_params;
  for (const Param* p : root.Params()) {
    EXPECT_TRUE(seen_params.insert(p).second) << "param twice: " << p->name;
  }
}

TEST(LayerTree, SetPrecisionReachesEveryNodeAndParamsAreUnique) {
  Rng rng(1);
  Tiramisu tiramisu(Tiramisu::Config::Downscaled(8), rng);
  ExpectTreeContract(tiramisu);
  DeepLabV3Plus deeplab(DeepLabV3Plus::Config::Downscaled(8), rng);
  ExpectTreeContract(deeplab);
  auto quarter = DeepLabV3Plus::Config::Downscaled(8);
  quarter.full_res_decoder = false;
  DeepLabV3Plus deeplab_quarter(quarter, rng);
  ExpectTreeContract(deeplab_quarter);
}

}  // namespace
}  // namespace exaclim

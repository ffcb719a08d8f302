#include "models/deeplab.hpp"

namespace exaclim {

// --------------------------------------------------------------- ASPP ---

ASPP::ASPP(std::string name, const Options& opts, Rng& rng)
    : Layer(std::move(name)), opts_(opts) {
  EXACLIM_CHECK(opts_.in_c > 0 && opts_.branch_c > 0, "bad ASPP options");
  auto make_branch = [&](const std::string& bname, std::int64_t kernel,
                         std::int64_t rate) {
    auto seq = std::make_unique<Sequential>(bname);
    seq->Emplace<Conv2d>(
        bname + ".conv",
        Conv2d::Options{.in_c = opts_.in_c, .out_c = opts_.branch_c,
                        .kernel = kernel, .pad = kernel == 1 ? 0 : rate,
                        .dilation = rate, .bias = false},
        rng);
    seq->Emplace<BatchNorm2d>(bname + ".bn", opts_.branch_c);
    seq->Emplace<ReLU>(bname + ".relu");
    return seq;
  };

  branches_.push_back(make_branch(this->name() + ".b1x1", 1, 1));
  for (std::size_t i = 0; i < opts_.rates.size(); ++i) {
    branches_.push_back(make_branch(
        this->name() + ".b3x3_d" + std::to_string(opts_.rates[i]), 3,
        opts_.rates[i]));
  }

  project_ = std::make_unique<Sequential>(this->name() + ".project");
  project_->Emplace<Conv2d>(
      this->name() + ".project.conv",
      Conv2d::Options{.in_c = static_cast<std::int64_t>(branches_.size()) *
                              opts_.branch_c,
                      .out_c = opts_.branch_c, .kernel = 1, .pad = 0,
                      .bias = false},
      rng);
  project_->Emplace<BatchNorm2d>(this->name() + ".project.bn",
                                 opts_.branch_c);
  project_->Emplace<ReLU>(this->name() + ".project.relu");
}

TensorShape ASPP::OutputShape(const TensorShape& input) const {
  EXACLIM_CHECK(input.rank() == 4 && input.c() == opts_.in_c,
                name() << ": bad input " << input.ToString());
  return TensorShape::NCHW(input.n(), opts_.branch_c, input.h(), input.w());
}

Tensor ASPP::Forward(const Tensor& input, bool train) {
  std::vector<Tensor> outs;
  outs.reserve(branches_.size());
  for (auto& branch : branches_) {
    outs.push_back(branch->Forward(input, train));
  }
  std::vector<const Tensor*> ptrs;
  for (const Tensor& t : outs) ptrs.push_back(&t);
  const Tensor cat = ConcatChannels(ptrs);
  return project_->Forward(cat, train);
}

Tensor ASPP::Backward(const Tensor& grad_output) {
  const Tensor g_cat = project_->Backward(grad_output);
  const std::vector<std::int64_t> channels(branches_.size(), opts_.branch_c);
  auto parts = SplitChannels(g_cat, channels);
  Tensor g_in;
  for (std::size_t i = 0; i < branches_.size(); ++i) {
    Tensor g = branches_[i]->Backward(parts[i]);
    if (i == 0) {
      g_in = std::move(g);
    } else {
      g_in += g;
    }
  }
  return g_in;
}

// ------------------------------------------------------ DeepLabV3Plus ---

DeepLabV3Plus::Config DeepLabV3Plus::Config::Paper(std::int64_t in_channels) {
  Config c;
  c.encoder = ResNetEncoder::Config::ResNet50(in_channels);
  return c;
}

DeepLabV3Plus::Config DeepLabV3Plus::Config::Downscaled(
    std::int64_t in_channels) {
  Config c;
  c.encoder = ResNetEncoder::Config::Downscaled(in_channels);
  c.aspp_channels = 16;
  c.aspp_rates = {2, 4, 6};  // scaled to the smaller feature maps
  c.decoder_skip_channels = 8;
  c.decoder_channels = {16, 12, 8};
  return c;
}

DeepLabV3Plus::DeepLabV3Plus(const Config& config, Rng& rng)
    : Layer("deeplabv3plus"), config_(config) {
  EXACLIM_CHECK(config_.decoder_channels.size() == 3,
                "decoder needs exactly 3 upsample widths (stride 8 -> 1)");
  encoder_ = std::make_unique<ResNetEncoder>(config_.encoder, rng);
  EXACLIM_CHECK(encoder_->output_stride() == 8,
                "Fig 1 encoder must have output stride 8, got "
                    << encoder_->output_stride());

  aspp_ = std::make_unique<ASPP>(
      "aspp",
      ASPP::Options{.in_c = encoder_->out_channels(),
                    .branch_c = config_.aspp_channels,
                    .rates = config_.aspp_rates},
      rng);

  skip_reduce_ = std::make_unique<Sequential>("decoder.skip");
  skip_reduce_->Emplace<Conv2d>(
      "decoder.skip.conv",
      Conv2d::Options{.in_c = encoder_->low_level_channels(),
                      .out_c = config_.decoder_skip_channels, .kernel = 1,
                      .pad = 0, .bias = false},
      rng);
  skip_reduce_->Emplace<BatchNorm2d>("decoder.skip.bn",
                                     config_.decoder_skip_channels);
  skip_reduce_->Emplace<ReLU>("decoder.skip.relu");

  const std::int64_t d0 = config_.decoder_channels[0];
  up1_ = std::make_unique<ConvTranspose2d>(
      "decoder.up1",
      ConvTranspose2d::Options{.in_c = config_.aspp_channels, .out_c = d0,
                               .kernel = 3, .stride = 2, .pad = 1,
                               .out_pad = 1, .bias = false},
      rng);
  skip_concat_channels_ = d0 + config_.decoder_skip_channels;

  refine_ = std::make_unique<Sequential>("decoder.refine");
  refine_->Emplace<Conv2d>(
      "decoder.refine.conv1",
      Conv2d::Options{.in_c = skip_concat_channels_, .out_c = d0,
                      .bias = false},
      rng);
  refine_->Emplace<BatchNorm2d>("decoder.refine.bn1", d0);
  refine_->Emplace<ReLU>("decoder.refine.relu1");
  refine_->Emplace<Conv2d>(
      "decoder.refine.conv2",
      Conv2d::Options{.in_c = d0, .out_c = d0, .bias = false}, rng);
  refine_->Emplace<BatchNorm2d>("decoder.refine.bn2", d0);
  refine_->Emplace<ReLU>("decoder.refine.relu2");

  std::int64_t head_c = d0;
  if (config_.full_res_decoder) {
    // Fig 1 full-resolution tail: two more deconv×2 steps with a 3×3
    // refine conv after each, taking stride 4 back to stride 1.
    for (int step = 0; step < 2; ++step) {
      const std::int64_t out_c = config_.decoder_channels[step + 1];
      auto up = std::make_unique<Sequential>("decoder.up" +
                                             std::to_string(step + 2));
      up->Emplace<ConvTranspose2d>(
          up->name() + ".deconv",
          ConvTranspose2d::Options{.in_c = head_c, .out_c = out_c,
                                   .kernel = 3, .stride = 2, .pad = 1,
                                   .out_pad = 1, .bias = false},
          rng);
      up->Emplace<BatchNorm2d>(up->name() + ".bn", out_c);
      up->Emplace<ReLU>(up->name() + ".relu");
      up->Emplace<Conv2d>(
          up->name() + ".conv",
          Conv2d::Options{.in_c = out_c, .out_c = out_c, .bias = false},
          rng);
      up->Emplace<BatchNorm2d>(up->name() + ".bn2", out_c);
      up->Emplace<ReLU>(up->name() + ".relu2");
      upsample_tail_.push_back(std::move(up));
      head_c = out_c;
    }
  } else {
    // Standard DeepLabv3+: predict at 1/4 resolution, then bilinear ×4.
    upsample_tail_.push_back(
        std::make_unique<BilinearUpsample2d>("decoder.bilinear", 4));
  }

  classifier_ = std::make_unique<Conv2d>(
      "decoder.classifier",
      Conv2d::Options{.in_c = head_c, .out_c = config_.num_classes,
                      .kernel = 1, .pad = 0},
      rng);
}

std::int64_t DeepLabV3Plus::SpatialDivisor() const { return 8; }

TensorShape DeepLabV3Plus::OutputShape(const TensorShape& input) const {
  EXACLIM_CHECK(input.rank() == 4 &&
                    input.c() == config_.encoder.in_channels,
                "deeplab: bad input " << input.ToString());
  EXACLIM_CHECK(input.h() % SpatialDivisor() == 0 &&
                    input.w() % SpatialDivisor() == 0,
                "deeplab: H/W must be divisible by " << SpatialDivisor());
  return TensorShape::NCHW(input.n(), config_.num_classes, input.h(),
                           input.w());
}

Tensor DeepLabV3Plus::Forward(const Tensor& input, bool train) {
  (void)OutputShape(input.shape());
  Tensor x = encoder_->Forward(input, train);
  x = aspp_->Forward(x, train);
  x = up1_->Forward(x, train);

  const Tensor skip = skip_reduce_->Forward(encoder_->low_level(), train);
  x = ConcatChannels(x, skip);
  x = refine_->Forward(x, train);
  if (config_.full_res_decoder) {
    for (auto& up : upsample_tail_) x = up->Forward(x, train);
    return classifier_->Forward(x, train);
  }
  // Quarter-resolution head: classify, then bilinear upsample the logits.
  x = classifier_->Forward(x, train);
  return upsample_tail_[0]->Forward(x, train);
}

Tensor DeepLabV3Plus::Backward(const Tensor& grad_output) {
  // Each child is announced grad-ready right after its Backward — the
  // overlap hooks of DESIGN §14 (no-ops without a listener installed).
  // The encoder inherits the listener so it announces per-block instead
  // of as one giant tensor group.
  encoder_->SetGradReadyListener(grad_ready_listener());
  Tensor g;
  if (config_.full_res_decoder) {
    g = classifier_->Backward(grad_output);
    NotifyGradsReady(*classifier_);
    for (std::size_t i = upsample_tail_.size(); i-- > 0;) {
      g = upsample_tail_[i]->Backward(g);
      NotifyGradsReady(*upsample_tail_[i]);
    }
  } else {
    g = upsample_tail_[0]->Backward(grad_output);
    NotifyGradsReady(*upsample_tail_[0]);
    g = classifier_->Backward(g);
    NotifyGradsReady(*classifier_);
  }
  g = refine_->Backward(g);
  NotifyGradsReady(*refine_);
  const std::vector<std::int64_t> channels{
      config_.decoder_channels[0], config_.decoder_skip_channels};
  auto parts = SplitChannels(g, channels);
  encoder_->AddLowLevelGradient(skip_reduce_->Backward(parts[1]));
  NotifyGradsReady(*skip_reduce_);
  g = up1_->Backward(parts[0]);
  NotifyGradsReady(*up1_);
  g = aspp_->Backward(g);
  NotifyGradsReady(*aspp_);
  return encoder_->Backward(g);
}

}  // namespace exaclim

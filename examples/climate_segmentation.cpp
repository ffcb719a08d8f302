// End-to-end climate-science scenario (the paper's motivating use case,
// Secs III-A and VIII-A): generate a CAM5-like dataset, produce heuristic
// ground truth with the TECA-style labeler, train the modified
// DeepLabv3+ network, then use the predicted masks the way a climate
// scientist would — per-storm statistics such as counts and conditional
// precipitation, which pixel-level segmentation makes possible for the
// first time (Sec VIII-A).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "data/labeler.hpp"
#include "obs/obs.hpp"
#include "train/trainer.hpp"

namespace {

using namespace exaclim;

char MaskChar(std::uint8_t c) {
  switch (c) {
    case kAtmosphericRiver: return 'a';
    case kTropicalCyclone: return 'T';
    default: return '.';
  }
}

// Per-event statistics from a predicted mask: storm count and
// conditional precipitation (mean PRECT over event pixels) — the
// "sophisticated metrics" of Sec VIII-A.
struct StormStats {
  int cyclones = 0;
  int rivers = 0;
  double tc_precip = 0.0;
  double ar_precip = 0.0;
  double bg_precip = 0.0;
};

StormStats AnalyzeStorms(const std::vector<std::uint8_t>& mask,
                         const ClimateSample& sample) {
  StormStats stats;
  const std::int64_t hw = sample.height * sample.width;
  // Storm counts from connected components of each class.
  for (const auto& [cls, counter] :
       {std::pair<std::uint8_t, int*>{kTropicalCyclone, &stats.cyclones},
        {kAtmosphericRiver, &stats.rivers}}) {
    std::vector<std::uint8_t> class_mask(mask.size());
    for (std::size_t i = 0; i < mask.size(); ++i) {
      class_mask[i] = mask[i] == cls ? 1 : 0;
    }
    *counter =
        ConnectedComponents(class_mask, sample.height, sample.width).count;
  }
  // Conditional precipitation.
  double sums[3] = {0, 0, 0};
  std::int64_t counts[3] = {0, 0, 0};
  for (std::int64_t p = 0; p < hw; ++p) {
    const std::uint8_t c = mask[static_cast<std::size_t>(p)];
    sums[c] += sample.fields[static_cast<std::size_t>(kPRECT * hw + p)];
    ++counts[c];
  }
  stats.bg_precip = counts[0] ? sums[0] / counts[0] : 0;
  stats.ar_precip = counts[1] ? sums[1] / counts[1] : 0;
  stats.tc_precip = counts[2] ? sums[2] / counts[2] : 0;
  return stats;
}

}  // namespace

int main() {
  // EXACLIM_TRACE=/tmp/trace.json enables step profiling: a Chrome-trace
  // file plus the metrics report on exit (see README "Observability").
  obs::EnableFromEnv();

  // Eventful synthetic climate with all 16 CAM5 variables.
  ClimateDataset::Options data;
  data.num_samples = 70;
  data.generator.height = 48;
  data.generator.width = 72;
  data.generator.mean_cyclones = 1.6;
  data.generator.mean_rivers = 1.4;
  data.channels = {kTMQ, kU850, kV850, kPSL};
  const ClimateDataset dataset(data);

  std::printf("=== climate segmentation: modified DeepLabv3+ ===\n");
  TrainerOptions opts;
  opts.arch = TrainerOptions::Arch::kDeepLab;
  opts.deeplab = DeepLabV3Plus::Config::Downscaled(4);
  opts.learning_rate = 3e-3f;
  opts.local_batch = 2;
  const auto freq = dataset.MeasureFrequencies(16);
  RankTrainer trainer(opts,
                      MakeClassWeights(freq, WeightingScheme::kInverseSqrt),
                      0);
  std::printf("model parameters: %lld\n",
              static_cast<long long>(ParameterCount(trainer.model())));

  Rng rng(99);
  for (int s = 0; s < 350; ++s) {
    std::vector<std::int64_t> idx(2);
    for (auto& i : idx) {
      i = rng.Int(0, dataset.size(DatasetSplit::kTrain) - 1);
    }
    const auto r =
        trainer.Step(dataset.MakeBatch(DatasetSplit::kTrain, idx));
    if ((s + 1) % 70 == 0) {
      std::printf("  step %3d  loss %.4f  acc %.1f%%\n", s + 1, r.loss,
                  r.pixel_accuracy * 100);
    }
  }

  const ConfusionMatrix cm =
      trainer.Evaluate(dataset, DatasetSplit::kValidation, 6);
  std::printf(
      "\nvalidation IoU: BG %.1f%%, AR %.1f%%, TC %.1f%% (mean %.1f%%)\n",
      cm.IoU(0) * 100, cm.IoU(1) * 100, cm.IoU(2) * 100, cm.MeanIoU() * 100);

  // Pick an eventful validation sample and show masks + science metrics.
  std::int64_t best = 0, best_events = -1;
  for (std::int64_t i = 0; i < dataset.size(DatasetSplit::kValidation);
       ++i) {
    const auto s = dataset.GetSample(DatasetSplit::kValidation, i);
    const auto events = static_cast<std::int64_t>(
        std::count_if(s.labels.begin(), s.labels.end(),
                      [](std::uint8_t l) { return l != kBackground; }));
    if (events > best_events) {
      best_events = events;
      best = i;
    }
  }
  const ClimateSample sample =
      dataset.GetSample(DatasetSplit::kValidation, best);
  const Batch batch = dataset.MakeBatch(DatasetSplit::kValidation,
                                        std::vector<std::int64_t>{best});
  const Tensor logits = trainer.model().Forward(batch.fields, false);
  const auto pred = PredictClasses(logits);

  std::printf("\nheuristic labels (top) vs predicted masks (bottom); "
              "a = AR, T = TC\n");
  const std::int64_t h = sample.height, w = sample.width;
  for (std::int64_t y = 0; y < h; y += 2) {
    std::string row;
    for (std::int64_t x = 0; x < w; ++x) {
      row += MaskChar(sample.labels[static_cast<std::size_t>(y * w + x)]);
    }
    std::printf("%s\n", row.c_str());
  }
  std::printf("%s\n", std::string(static_cast<std::size_t>(w), '-').c_str());
  for (std::int64_t y = 0; y < h; y += 2) {
    std::string row;
    for (std::int64_t x = 0; x < w; ++x) {
      row += MaskChar(pred[static_cast<std::size_t>(y * w + x)]);
    }
    std::printf("%s\n", row.c_str());
  }

  const StormStats truth_stats = AnalyzeStorms(sample.labels, sample);
  const StormStats pred_stats = AnalyzeStorms(pred, sample);
  std::printf(
      "\nper-storm science metrics (Sec VIII-A):\n"
      "  storm counts     — labels: %d TC, %d AR; predicted: %d TC, %d "
      "AR\n"
      "  conditional precipitation (mean PRECT anomaly):\n"
      "    labels:    TC %.2f, AR %.2f, background %.2f\n"
      "    predicted: TC %.2f, AR %.2f, background %.2f\n",
      truth_stats.cyclones, truth_stats.rivers, pred_stats.cyclones,
      pred_stats.rivers, truth_stats.tc_precip, truth_stats.ar_precip,
      truth_stats.bg_precip, pred_stats.tc_precip, pred_stats.ar_precip,
      pred_stats.bg_precip);

  obs::FinishFromEnv();
  return 0;
}

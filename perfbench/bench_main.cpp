// exaclim end-to-end benchmark driver.
//
//   exaclim_perfbench --workload <name> --seed <n> --seconds <s>
//                     [--trace 0|1] [--trace-out <file>] [--quick]
//
// Runs one closed-loop training workload through the public train, data,
// io, hvd/comm and nn/tensor APIs and prints one JSON report as the last
// line of stdout: provenance, correctness facts and metrics (end-to-end
// metrics with --trace 0, per-layer metrics with --trace 1). run.py next
// to this file builds the binary, pins its knobs, judges the correctness
// facts and prints the summary.
//
// Workloads (batch 4 per rank, 96x144 grid, 8 input channels, downscaled
// model configs, Adam+LARC, warmed before timing):
//   tiramisu-1rank-fp32    one rank, no communicator, FP32, batches
//                          generated from the seed during set-up, cycled
//   deeplab-2rank-fp16     two SimWorld thread ranks, ring transport,
//                          overlapped exchange, FP16 wire, FP16-emulated
//                          precision with dynamic loss scaling
//   tiramisu-stream-epoch  the Tiramisu net fed live by InputPipeline
//                          workers calling ClimateDataset::MakeBatch, with
//                          a RankTrainer::Evaluate pass after every epoch
//
// Every input (weights, batches, shards, indices) derives from --seed.

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "common/alloc_tracker.hpp"
#include "common/fault.hpp"
#include "common/pool.hpp"
#include "common/thread_pool.hpp"
#include "flops/cost.hpp"
#include "flops/opspec.hpp"
#include "io/pipeline.hpp"
#include "nn/conv.hpp"
#include "nn/loss.hpp"
#include "span_trace.hpp"
#include "tensor/cast.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_kernel.hpp"
#include "train/trainer.hpp"

extern char** environ;

namespace perfbench {
namespace {

using namespace exaclim;
using Clock = std::chrono::steady_clock;
using Scope = SpanTrace::Scope;

const Clock::time_point kProcessStart = Clock::now();

constexpr std::int64_t kBatch = 4;
constexpr std::int64_t kHeight = 96;
constexpr std::int64_t kWidth = 144;
constexpr std::int64_t kDatasetSamples = 4000;
constexpr std::int64_t kFrequencySamples = 8;
constexpr std::int64_t kShardImages = 64;
constexpr int kPipelineWorkers = 2;
constexpr int kPrefetchDepth = 2;
constexpr std::int64_t kPeakGemmN = 512;

/// Run sizes. --quick shrinks every count for the self-test.
struct Sizes {
  int setup_reps = 3;        // set-up repeated, median reported
  int warmup_steps = 3;
  int pregen_batches = 4;    // over all ranks, cycled by fixed-order loops
  int eval_samples = 12;     // per Evaluate pass
  // Fixed-order workloads interleave an Evaluate pass with training
  // every eval_interval_s, so the passes sample the whole run.
  double eval_interval_s = 5.0;
  int rate_window = 8;       // steps per throughput window, fixed-order
  // Stream workload epoch length: each epoch starts with one input stall,
  // so 20 batches keep stalls at 5% of steps, clear of the p90 boundary.
  int epoch_batches = 20;
  int min_epochs = 2;
  int min_timed_steps = 8;
  int fingerprint_step = 5;  // timed step whose loss must reproduce
  int trace_window = 4;      // steps per traced/untraced window
  int probe_reps = 5;
};

Sizes QuickSizes() {
  Sizes s;
  s.setup_reps = 1;
  s.warmup_steps = 1;
  s.pregen_batches = 2;
  s.eval_samples = 2;
  s.eval_interval_s = 0.3;
  s.rate_window = 2;
  s.epoch_batches = 3;
  s.min_timed_steps = 4;
  s.fingerprint_step = 2;
  s.trace_window = 1;
  s.probe_reps = 2;
  return s;
}

enum class Kind { kTiramisuOneRank, kDeepLabTwoRank, kTiramisuStream };

struct Workload {
  const char* name;
  Kind kind;
  TrainerOptions::Arch arch;
  int ranks;
  Precision precision;
};

constexpr Workload kWorkloads[] = {
    {"tiramisu-1rank-fp32", Kind::kTiramisuOneRank,
     TrainerOptions::Arch::kTiramisu, 1, Precision::kFP32},
    {"deeplab-2rank-fp16", Kind::kDeepLabTwoRank,
     TrainerOptions::Arch::kDeepLab, 2, Precision::kFP16},
    {"tiramisu-stream-epoch", Kind::kTiramisuStream,
     TrainerOptions::Arch::kTiramisu, 1, Precision::kFP32},
};

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  std::string trace_out;
};

double Secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ------------------------------------------------------------- record --

/// Everything a run measures or checks, filled by the workload loops.
struct Record {
  // Loop-seen wall time per timed step, and the same split by trace
  // window (traced runs alternate traced and untraced windows).
  std::vector<double> step_s;
  // Samples/s of each throughput window: runs of rate_window steps in the
  // fixed-order loops, whole epochs (input waits included) when streaming.
  std::vector<double> window_rates;
  double traced_wall_s = 0.0, untraced_wall_s = 0.0;
  std::int64_t traced_samples = 0, untraced_samples = 0;
  std::int64_t samples = 0;
  // Rank-0 phase timings of the steps the per-layer metrics use.
  std::vector<RankTrainer::StepTimings> timings;

  // Correctness facts.
  std::int64_t timed_steps = 0;
  std::int64_t nonfinite_losses = 0;
  std::int64_t update_skips = 0;
  double final_loss = std::nan("");
  double fingerprint_loss = std::nan("");
  std::vector<double> reference_warmup_losses;
  std::int64_t setup_loss_mismatches = 0;
  std::vector<std::uint32_t> replica_crcs;

  std::vector<double> setup_s;

  std::int64_t eval_passes = 0;
  std::int64_t eval_samples = 0;
  std::vector<double> eval_rates;  // samples/s of each timed pass
  std::int64_t eval_pixel_mismatches = 0;

  std::mutex make_batch_mutex;
  std::vector<double> make_batch_s;  // guarded by make_batch_mutex

  std::int64_t pipeline_epochs = 0;
  std::int64_t pipeline_produced = 0;
  std::int64_t pipeline_skipped = 0;
  std::int64_t producer_failures = 0;
  std::int64_t next_exceptions = 0;
  double pipeline_produce_s = 0.0;
  std::int64_t next_calls = 0;
  std::int64_t next_ready = 0;
  double next_wait_s = 0.0;

  std::int64_t comm_bytes = 0;
  std::int64_t comm_messages = 0;
  std::int64_t comm_steps = 0;

  std::int64_t traced_allocs = 0;
  std::int64_t traced_alloc_steps = 0;
  double pool_peak_bytes = 0.0;
};

/// Switches span recording and the heap census on or off at a window
/// boundary.
void SetTracing(bool on) {
  SpanTrace::Global().SetEnabled(on);
  SetAllocTracking(on);
}

std::int64_t AllocCount() { return GlobalAllocCounters().count; }

bool WindowTraced(const Args& args, const Sizes& sizes, std::int64_t unit) {
  return args.trace && (unit / sizes.trace_window) % 2 == 0;
}

/// Books one timed step. `result` is rank 0's; `all_finite` covers every
/// rank's loss; `allocs` counts the process's heap allocations during the
/// step (meaningful in traced windows only).
void AccountStep(const Args& args, const Sizes& sizes, Record& rec,
                 bool traced, double seconds,
                 const RankTrainer::StepResult& result, bool all_finite,
                 std::int64_t samples, std::int64_t allocs) {
  rec.step_s.push_back(seconds);
  rec.samples += samples;
  if (traced) {
    rec.traced_wall_s += seconds;
    rec.traced_samples += samples;
    rec.traced_allocs += allocs;
    ++rec.traced_alloc_steps;
  } else {
    rec.untraced_wall_s += seconds;
    rec.untraced_samples += samples;
  }
  if (traced || !args.trace) rec.timings.push_back(result.timings);
  if (!all_finite) ++rec.nonfinite_losses;
  if (!result.update_applied) ++rec.update_skips;
  ++rec.timed_steps;
  rec.final_loss = result.loss;
  if (rec.timed_steps == sizes.fingerprint_step) {
    rec.fingerprint_loss = result.loss;
  }
}

/// Throughput of consecutive runs of `window` steps (a partial tail
/// window is dropped unless it is the only one).
void AddWindowRates(Record& rec, std::int64_t samples_per_step, int window) {
  double wall = 0.0;
  int steps = 0;
  for (std::size_t i = 0; i < rec.step_s.size(); ++i) {
    wall += rec.step_s[i];
    ++steps;
    const bool tail = i + 1 == rec.step_s.size() && rec.window_rates.empty();
    if (steps == window || tail) {
      rec.window_rates.push_back(Ratio(
          static_cast<double>(samples_per_step * steps), wall));
      wall = 0.0;
      steps = 0;
    }
  }
}

/// Lays the phase durations a step returned out as child spans of the
/// step's span, in execution order.
void AddPhaseSpans(int step_span, Clock::time_point start,
                   const RankTrainer::StepTimings& t) {
  if (step_span < 0) return;
  const auto dur = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  };
  SpanTrace& trace = SpanTrace::Global();
  Clock::time_point at = start;
  const std::pair<const char*, double> phases[] = {
      {"nn.forward", t.forward_seconds},
      {"nn.backward", t.backward_seconds},
      {"hvd.exchange", t.exchange_seconds},
      {"optim.update", t.update_seconds},
  };
  for (const auto& [name, s] : phases) {
    if (s <= 0.0) continue;
    trace.AddFinished(name, step_span, at, at + dur(s));
    at += dur(s);
  }
}

/// One training step inside a "train.step" span, with the phase times
/// the step returns laid out as its children.
RankTrainer::StepResult TracedStep(RankTrainer& trainer, const Batch& batch,
                                   Communicator* comm = nullptr) {
  const Clock::time_point t0 = Clock::now();
  Scope span("train.step");
  RankTrainer::StepResult result = trainer.Step(batch, comm);
  AddPhaseSpans(span.id(), t0, result.timings);
  return result;
}

// ------------------------------------------------------------- set-up --

ClimateDataset::Options DatasetOptions(std::uint64_t seed) {
  ClimateDataset::Options d;
  d.generator.height = kHeight;
  d.generator.width = kWidth;
  d.num_samples = kDatasetSamples;
  d.seed = seed;
  d.channels = {kTMQ, kU850, kV850, kUBOT, kVBOT, kQREFHT, kPS, kPSL};
  return d;
}

TrainerOptions MakeTrainerOptions(const Workload& w, std::uint64_t seed) {
  TrainerOptions o;
  o.arch = w.arch;
  o.tiramisu = Tiramisu::Config::Downscaled(8);
  o.deeplab = DeepLabV3Plus::Config::Downscaled(8);
  o.precision = w.precision;
  o.optimizer = TrainerOptions::Opt::kAdam;
  o.use_larc = true;
  o.local_batch = kBatch;
  o.seed = seed;
  if (w.ranks > 1) {
    o.exchanger.transport = ReduceTransport::kMpiRing;
    o.exchanger.overlap = true;
    o.exchanger.wire_precision = Precision::kFP16;
  }
  return o;
}

ArchSpec WorkloadSpec(const Workload& w, const TrainerOptions& o) {
  return w.arch == TrainerOptions::Arch::kTiramisu
             ? BuildTiramisuSpec(o.tiramisu, kHeight, kWidth)
             : BuildDeepLabSpec(o.deeplab, kHeight, kWidth);
}

/// One set-up's state: dataset, per-rank trainers and the per-rank
/// batches the fixed-order loops cycle (the stream workload keeps only
/// its warm-up batches here).
struct Context {
  std::unique_ptr<ClimateDataset> dataset;
  std::vector<std::unique_ptr<RankTrainer>> trainers;
  std::vector<std::vector<Batch>> batches;
};

Batch TimedMakeBatch(const ClimateDataset& dataset,
                     const std::vector<std::int64_t>& indices, Record& rec) {
  Scope span("data.make_batch");
  const Clock::time_point t0 = Clock::now();
  Batch batch = dataset.MakeBatch(DatasetSplit::kTrain, indices);
  const double s = Secs(t0, Clock::now());
  std::lock_guard<std::mutex> lock(rec.make_batch_mutex);
  rec.make_batch_s.push_back(s);
  return batch;
}

std::unique_ptr<Context> BuildContext(const Workload& w, const Args& args,
                                      const Sizes& sizes, Record& rec) {
  Scope span("setup.build");
  auto ctx = std::make_unique<Context>();
  ctx->dataset = std::make_unique<ClimateDataset>(DatasetOptions(args.seed));
  const auto freq = ctx->dataset->MeasureFrequencies(kFrequencySamples);
  const auto weights = MakeClassWeights(freq, WeightingScheme::kInverseSqrt);
  const TrainerOptions opts = MakeTrainerOptions(w, args.seed);
  for (int r = 0; r < w.ranks; ++r) {
    Scope t("train.construct");
    ctx->trainers.push_back(std::make_unique<RankTrainer>(opts, weights, r));
  }
  // Per-rank local shards (Sec V-A1); the indices drawn from them come
  // from the seed, so the same seed yields the same batches.
  const int per_rank = w.kind == Kind::kTiramisuStream
                           ? sizes.warmup_steps
                           : std::max(1, sizes.pregen_batches / w.ranks);
  ctx->batches.resize(static_cast<std::size_t>(w.ranks));
  for (int r = 0; r < w.ranks; ++r) {
    const auto shard = ctx->dataset->LocalShard(r, kShardImages);
    Rng rng = Rng(args.seed ^ 0xbe4c5eedull).Fork(static_cast<std::uint64_t>(r));
    for (int b = 0; b < per_rank; ++b) {
      std::vector<std::int64_t> idx(static_cast<std::size_t>(kBatch));
      for (auto& i : idx) i = shard[rng.Index(shard.size())];
      ctx->batches[static_cast<std::size_t>(r)].push_back(
          TimedMakeBatch(*ctx->dataset, idx, rec));
    }
  }
  return ctx;
}

/// Compares a set-up's warm-up losses with the first set-up's: every
/// set-up starts from the same seed, so they must agree bit for bit.
void CheckWarmupLosses(Record& rec, const std::vector<double>& losses) {
  if (rec.reference_warmup_losses.empty()) {
    rec.reference_warmup_losses = losses;
    return;
  }
  if (losses.size() != rec.reference_warmup_losses.size() ||
      std::memcmp(losses.data(), rec.reference_warmup_losses.data(),
                  losses.size() * sizeof(double)) != 0) {
    ++rec.setup_loss_mismatches;
  }
}

void RunEvaluate(RankTrainer& trainer, const ClimateDataset& dataset,
                 std::int64_t samples, Record& rec, bool timed) {
  Scope span("train.evaluate");
  const Clock::time_point t0 = Clock::now();
  const ConfusionMatrix cm =
      trainer.Evaluate(dataset, DatasetSplit::kValidation, samples);
  const double s = Secs(t0, Clock::now());
  const std::int64_t n =
      std::min(samples, dataset.size(DatasetSplit::kValidation));
  if (cm.total() != n * dataset.height() * dataset.width()) {
    ++rec.eval_pixel_mismatches;
  }
  if (!timed) return;
  ++rec.eval_passes;
  rec.eval_samples += n;
  rec.eval_rates.push_back(Ratio(static_cast<double>(n), s));
}

// ---------------------------------------------------------- workloads --

/// tiramisu-1rank-fp32: local-only steps over pre-generated batches.
std::unique_ptr<Context> RunOneRank(const Workload& w, const Args& args,
                                    const Sizes& sizes, Record& rec) {
  std::unique_ptr<Context> ctx;
  for (int rep = 0; rep < sizes.setup_reps; ++rep) {
    const Clock::time_point start = rep == 0 ? kProcessStart : Clock::now();
    ctx.reset();
    ctx = BuildContext(w, args, sizes, rec);
    RankTrainer& trainer = *ctx->trainers[0];
    const auto& batches = ctx->batches[0];
    std::vector<double> losses;
    for (int s = 0; s < sizes.warmup_steps; ++s) {
      losses.push_back(TracedStep(trainer, batches[s % batches.size()]).loss);
    }
    CheckWarmupLosses(rec, losses);
    RunEvaluate(trainer, *ctx->dataset, 1, rec, /*timed=*/false);
    rec.setup_s.push_back(Secs(start, Clock::now()));
  }

  RankTrainer& trainer = *ctx->trainers[0];
  const auto& batches = ctx->batches[0];
  ResetPoolCounters();
  const Clock::time_point loop_start = Clock::now();
  Clock::time_point last_eval = loop_start;
  for (std::int64_t step = 0;
       step < sizes.min_timed_steps ||
       Secs(loop_start, Clock::now()) < args.seconds;
       ++step) {
    const bool traced = WindowTraced(args, sizes, step);
    SetTracing(traced);
    const Batch& batch =
        batches[static_cast<std::size_t>(step + sizes.warmup_steps) %
                batches.size()];
    const std::int64_t allocs = AllocCount();
    const Clock::time_point t0 = Clock::now();
    const RankTrainer::StepResult result = TracedStep(trainer, batch);
    const Clock::time_point t1 = Clock::now();
    AccountStep(args, sizes, rec, traced, Secs(t0, t1), result,
                std::isfinite(result.loss), kBatch, AllocCount() - allocs);
    if (Secs(last_eval, t1) >= sizes.eval_interval_s) {
      RunEvaluate(trainer, *ctx->dataset, sizes.eval_samples, rec, true);
      last_eval = Clock::now();
    }
  }
  SetTracing(false);
  AddWindowRates(rec, kBatch, sizes.rate_window);
  rec.pool_peak_bytes = static_cast<double>(GetPoolStats().peak_live_bytes);
  rec.replica_crcs.push_back(trainer.ParamsCrc32());
  if (rec.eval_passes == 0) {
    RunEvaluate(trainer, *ctx->dataset, sizes.eval_samples, rec, true);
  }
  return ctx;
}

/// deeplab-2rank-fp16: two thread ranks stepping collectively. Warm-up
/// and timed steps share one SimWorld::Run so every rank thread keeps its
/// warmed thread-local scratch; a barrier between steps lets one place
/// decide, for both ranks, when the timed window ends.
std::unique_ptr<Context> RunTwoRank(const Workload& w, const Args& args,
                                    const Sizes& sizes, Record& rec) {
  std::unique_ptr<Context> ctx;
  for (int rep = 0; rep < sizes.setup_reps; ++rep) {
    const Clock::time_point start = rep == 0 ? kProcessStart : Clock::now();
    const bool last = rep + 1 == sizes.setup_reps;
    ctx.reset();
    ctx = BuildContext(w, args, sizes, rec);
    SimWorld world(w.ranks);
    std::vector<double> losses;
    std::vector<RankTrainer::StepResult> current(
        static_cast<std::size_t>(w.ranks));

    // Barrier completion state: runs on one rank thread while the other
    // waits, so it needs no lock of its own.
    bool started = false;
    bool stop = false;
    bool traced = false;
    std::int64_t step = 0;
    Clock::time_point loop_start;
    Clock::time_point prev;
    std::int64_t prev_allocs = 0;
    // Rank 0's interleaved eval pass: when it last ran, and the wall time
    // and allocations of the pass inside the current step interval, which
    // the step's accounting leaves out.
    Clock::time_point last_eval;
    double eval_pause_s = 0.0;
    std::int64_t eval_allocs = 0;
    const auto on_step_boundary = [&]() noexcept {
      const Clock::time_point now = Clock::now();
      const std::int64_t allocs = AllocCount();
      if (!started) {
        started = true;
        rec.setup_s.push_back(Secs(start, now));
        ResetPoolCounters();
        loop_start = now;
        last_eval = now;
      } else {
        bool finite = true;
        for (const auto& r : current) finite = finite && std::isfinite(r.loss);
        AccountStep(args, sizes, rec, traced, Secs(prev, now) - eval_pause_s,
                    current[0], finite, kBatch * w.ranks,
                    allocs - prev_allocs - eval_allocs);
        ++step;
      }
      prev = now;
      prev_allocs = allocs;
      eval_pause_s = 0.0;
      eval_allocs = 0;
      stop = step >= sizes.min_timed_steps &&
             Secs(loop_start, now) >= args.seconds;
      traced = !stop && WindowTraced(args, sizes, step);
      SetTracing(traced);
    };
    std::barrier sync(w.ranks, on_step_boundary);

    world.Run([&](Communicator& comm) {
      const auto r = static_cast<std::size_t>(comm.rank());
      RankTrainer& trainer = *ctx->trainers[r];
      const auto& batches = ctx->batches[r];
      for (int s = 0; s < sizes.warmup_steps; ++s) {
        const double loss =
            TracedStep(trainer,
                       batches[static_cast<std::size_t>(s) % batches.size()],
                       &comm)
                .loss;
        if (r == 0) losses.push_back(loss);
      }
      // Evaluation is local to rank 0 and runs on its thread, so the
      // timed passes below reuse the scratch this warm-up pass grew.
      if (r == 0) RunEvaluate(trainer, *ctx->dataset, 1, rec, false);
      if (!last) return;
      try {
        sync.arrive_and_wait();
        for (std::int64_t i = sizes.warmup_steps; !stop; ++i) {
          current[r] = TracedStep(
              trainer, batches[static_cast<std::size_t>(i) % batches.size()],
              &comm);
          // The peer idles at the barrier meanwhile; evaluation is local.
          const Clock::time_point t0 = Clock::now();
          if (r == 0 && Secs(last_eval, t0) >= sizes.eval_interval_s) {
            const std::int64_t allocs = AllocCount();
            RunEvaluate(trainer, *ctx->dataset, sizes.eval_samples, rec,
                        true);
            eval_allocs = AllocCount() - allocs;
            last_eval = Clock::now();
            eval_pause_s = Secs(t0, last_eval);
          }
          sync.arrive_and_wait();
        }
      } catch (...) {
        // Let the surviving rank's barrier complete without us; its next
        // collective then fails on the poisoned world and unwinds too.
        sync.arrive_and_drop();
        throw;
      }
      if (r == 0 && rec.eval_passes == 0) {
        RunEvaluate(trainer, *ctx->dataset, sizes.eval_samples, rec, true);
      }
    });
    CheckWarmupLosses(rec, losses);
    if (!last) {
      rec.setup_s.push_back(Secs(start, Clock::now()));
      continue;
    }
    AddWindowRates(rec, kBatch * w.ranks, sizes.rate_window);
    rec.pool_peak_bytes = static_cast<double>(GetPoolStats().peak_live_bytes);
    rec.comm_bytes = world.total_bytes();
    rec.comm_messages = world.total_messages();
    rec.comm_steps = sizes.warmup_steps + rec.timed_steps;
  }
  for (const auto& t : ctx->trainers) {
    rec.replica_crcs.push_back(t->ParamsCrc32());
  }
  return ctx;
}

/// tiramisu-stream-epoch: each epoch streams freshly generated batches
/// through an InputPipeline, then evaluates on the validation split.
std::unique_ptr<Context> RunStream(const Workload& w, const Args& args,
                                   const Sizes& sizes, Record& rec) {
  std::unique_ptr<Context> ctx;
  for (int rep = 0; rep < sizes.setup_reps; ++rep) {
    const Clock::time_point start = rep == 0 ? kProcessStart : Clock::now();
    ctx.reset();
    ctx = BuildContext(w, args, sizes, rec);
    RankTrainer& trainer = *ctx->trainers[0];
    std::vector<double> losses;
    for (const Batch& b : ctx->batches[0]) {
      losses.push_back(TracedStep(trainer, b).loss);
    }
    CheckWarmupLosses(rec, losses);
    RunEvaluate(trainer, *ctx->dataset, 1, rec, /*timed=*/false);
    rec.setup_s.push_back(Secs(start, Clock::now()));
  }

  RankTrainer& trainer = *ctx->trainers[0];
  const ClimateDataset& dataset = *ctx->dataset;
  const std::int64_t train_size = dataset.size(DatasetSplit::kTrain);
  ResetPoolCounters();
  const Clock::time_point loop_start = Clock::now();
  for (std::int64_t epoch = 0;
       epoch < sizes.min_epochs ||
       Secs(loop_start, Clock::now()) < args.seconds;
       ++epoch) {
    const bool traced = args.trace && epoch % 2 == 0;
    SetTracing(traced);
    const auto producer = [&, epoch](std::int64_t index) {
      Rng rng = Rng(args.seed ^ 0x57ea3ull)
                    .Fork(static_cast<std::uint64_t>(epoch * 100000 + index));
      std::vector<std::int64_t> idx(static_cast<std::size_t>(kBatch));
      for (auto& i : idx) i = rng.Int(0, train_size - 1);
      return TimedMakeBatch(dataset, idx, rec);
    };
    {
      InputPipeline pipeline(producer, sizes.epoch_batches,
                             {.workers = kPipelineWorkers,
                              .prefetch_depth = kPrefetchDepth});
      double carried_wait = 0.0;  // Next() time of skipped batches
      const std::size_t first_step = rec.step_s.size();
      for (;;) {
        const Clock::time_point t0 = Clock::now();
        const bool ready = pipeline.Stats().depth > 0;
        std::optional<Batch> batch;
        try {
          Scope span("io.next");
          batch = pipeline.Next();
        } catch (const std::exception& e) {
          std::fprintf(stderr, "pipeline batch failed: %s\n", e.what());
          ++rec.next_exceptions;
          carried_wait += Secs(t0, Clock::now());
          continue;
        }
        if (!batch.has_value()) break;
        const Clock::time_point t1 = Clock::now();
        ++rec.next_calls;
        if (ready) ++rec.next_ready;
        rec.next_wait_s += carried_wait + Secs(t0, t1);
        const std::int64_t allocs = AllocCount();
        const RankTrainer::StepResult result = TracedStep(trainer, *batch);
        AccountStep(args, sizes, rec, traced,
                    carried_wait + Secs(t0, Clock::now()), result,
                    std::isfinite(result.loss), kBatch, AllocCount() - allocs);
        carried_wait = 0.0;
      }
      double epoch_wall = 0.0;
      for (std::size_t i = first_step; i < rec.step_s.size(); ++i) {
        epoch_wall += rec.step_s[i];
      }
      if (epoch_wall > 0.0) {
        rec.window_rates.push_back(Ratio(
            static_cast<double>(kBatch * (rec.step_s.size() - first_step)),
            epoch_wall));
      }
      const PipelineStats stats = pipeline.Stats();
      ++rec.pipeline_epochs;
      rec.pipeline_produced += stats.produced;
      rec.pipeline_skipped += stats.skipped;
      rec.producer_failures += stats.producer_failures;
      rec.pipeline_produce_s += stats.produce_seconds;
    }
    RunEvaluate(trainer, dataset, sizes.eval_samples, rec, true);
  }
  SetTracing(false);
  rec.pool_peak_bytes = static_cast<double>(GetPoolStats().peak_live_bytes);
  rec.replica_crcs.push_back(trainer.ParamsCrc32());
  return ctx;
}

// ------------------------------------------------------------- probes --

/// Median wall time (ms) of `reps` calls after one warm-up call, each
/// call recorded as a span named `name`.
template <typename Fn>
double ProbeMs(const char* name, int reps, Fn&& fn) {
  fn();
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    Scope span(name);
    const Clock::time_point t0 = Clock::now();
    fn();
    ms.push_back(Secs(t0, Clock::now()) * 1e3);
  }
  return Median(ms);
}

struct ProbeResults {
  std::string conv_geometry;
  double conv_fwd_ms = 0, conv_bwd_ms = 0;
  double eval_forward_ms = 0;
  std::string gemm_shape;
  double gemm_conv_gflops = 0, gemm_peak_gflops = 0;
  std::int64_t half_elements = 0;
  double half_gbps = 0;
};

/// Standalone calls into nn/tensor at the workload's own geometries: the
/// costliest convolution by analytic FLOPs, its GEMM shape, a square
/// GEMM ceiling, the largest activation's FP16 round trip, and an
/// inference forward of the trained net.
ProbeResults RunProbes(const ArchSpec& spec, Layer& model, int reps,
                       std::uint64_t seed) {
  ProbeResults out;
  const OpSpec* conv_op = nullptr;
  double best = -1.0;
  std::int64_t largest_activation = 0;
  for (const OpSpec& op : spec.ops) {
    largest_activation =
        std::max(largest_activation, op.out_c * op.out_h * op.out_w * kBatch);
    if (op.kind != OpSpec::Kind::kConv) continue;
    const double f =
        ConvFlops(op.kernel, op.out_h, op.out_w, op.in_c, op.out_c, kBatch);
    if (f > best) {
      best = f;
      conv_op = &op;
    }
  }
  Rng rng(seed ^ 0x9e0bull);
  if (conv_op != nullptr) {
    const OpSpec& op = *conv_op;
    out.conv_geometry = op.name + " " + std::to_string(op.in_c) + "->" +
                        std::to_string(op.out_c) + " k" +
                        std::to_string(op.kernel) + " s" +
                        std::to_string(op.stride) + " d" +
                        std::to_string(op.dilation) + " @" +
                        std::to_string(op.in_h) + "x" +
                        std::to_string(op.in_w);
    Conv2d conv("probe.conv",
                {.in_c = op.in_c, .out_c = op.out_c, .kernel = op.kernel,
                 .stride = op.stride, .dilation = op.dilation},
                rng);
    const Tensor x = Tensor::Uniform(
        TensorShape::NCHW(kBatch, op.in_c, op.in_h, op.in_w), rng, -1, 1);
    const Tensor g = Tensor::Uniform(conv.OutputShape(x.shape()), rng, -1, 1);
    out.conv_fwd_ms =
        ProbeMs("probe.conv_fwd", reps, [&] { (void)conv.Forward(x, true); });
    out.conv_bwd_ms =
        ProbeMs("probe.conv_bwd", reps, [&] { (void)conv.Backward(g); });

    // The same convolution as the per-sample GEMM the engine runs:
    // [out_c x in_c*k*k] * [in_c*k*k x out_h*out_w].
    const std::int64_t m = op.out_c;
    const std::int64_t k = op.in_c * op.kernel * op.kernel;
    const std::int64_t n = op.out_h * op.out_w;
    out.gemm_shape = std::to_string(m) + "x" + std::to_string(n) + "x" +
                     std::to_string(k);
    const Tensor a = Tensor::Uniform(TensorShape({m, k}), rng, -1, 1);
    const Tensor b = Tensor::Uniform(TensorShape({k, n}), rng, -1, 1);
    Tensor c(TensorShape({m, n}));
    const double ms = ProbeMs("probe.gemm_conv", reps, [&] {
      Gemm(false, false, m, n, k, 1.0f, a.Data().data(), b.Data().data(),
           0.0f, c.Data().data());
    });
    out.gemm_conv_gflops = 2.0 * static_cast<double>(m * n * k) / (ms * 1e6);
  }
  {
    const std::int64_t n = kPeakGemmN;
    const Tensor a = Tensor::Uniform(TensorShape({n, n}), rng, -1, 1);
    const Tensor b = Tensor::Uniform(TensorShape({n, n}), rng, -1, 1);
    Tensor c(TensorShape({n, n}));
    const double ms = ProbeMs("probe.gemm_peak", reps, [&] {
      Gemm(false, false, n, n, n, 1.0f, a.Data().data(), b.Data().data(),
           0.0f, c.Data().data());
    });
    out.gemm_peak_gflops = 2.0 * static_cast<double>(n * n * n) / (ms * 1e6);
  }
  {
    out.half_elements = largest_activation;
    Tensor act = Tensor::Uniform(TensorShape({largest_activation}), rng, -4, 4);
    const double ms =
        ProbeMs("probe.half_round_trip", reps, [&] { RoundTripHalf(act); });
    // One FP32 read and one FP32 write per element.
    out.half_gbps =
        8.0 * static_cast<double>(largest_activation) / (ms * 1e6);
  }
  {
    const Tensor x = Tensor::Uniform(
        TensorShape::NCHW(1, spec.in_c, spec.in_h, spec.in_w), rng, -1, 1);
    out.eval_forward_ms = ProbeMs("probe.eval_forward", reps,
                                  [&] { (void)model.Forward(x, false); });
  }
  return out;
}

// ------------------------------------------------------------- report --

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Ordered JSON object builder (one level of nesting via Raw()).
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v) {
    return Raw(key, JsonNumber(v));
  }
  JsonObject& Int(const std::string& key, std::int64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, JsonString(v));
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + JsonString(key) + ":" + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit,
           std::int64_t samples) {
    obj_.Raw(name, JsonObject()
                       .Num("value", value)
                       .Str("unit", unit)
                       .Int("n", samples)
                       .str());
  }
  std::string str() const { return obj_.str(); }

 private:
  JsonObject obj_;
};

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string Provenance() {
  JsonObject knobs;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("EXACLIM_", 0) != 0) continue;
    const std::size_t eq = kv.find('=');
    knobs.Str(kv.substr(0, eq), eq == std::string::npos ? "" : kv.substr(eq + 1));
  }
  return JsonObject()
      .Str("compiler", std::string("g++ ") + __VERSION__)
      .Str("gemm_microkernel", GemmMicroKernelName())
      .Str("gemm_kernel_mode", ToString(GemmKernelModeInUse()))
      .Str("conv_algorithm", ToString(DefaultConvAlgorithm()))
      .Int("pool_threads",
           static_cast<std::int64_t>(ThreadPool::Global().size()) + 1)
      .Int("hardware_concurrency",
           static_cast<std::int64_t>(std::thread::hardware_concurrency()))
      .Raw("knobs", knobs.str())
      .str();
}

int Run(const Args& args) {
  const Workload& w = *args.workload;
  const Sizes sizes = args.quick ? QuickSizes() : Sizes{};
  FaultInjector::Global().ArmFromEnv();
  (void)ThreadPool::Global();  // sized by the pinned EXACLIM_THREADS
  SpanTrace::Global().SetEnabled(args.trace);

  Record rec;
  std::unique_ptr<Context> ctx;
  switch (w.kind) {
    case Kind::kTiramisuOneRank:
      ctx = RunOneRank(w, args, sizes, rec);
      break;
    case Kind::kDeepLabTwoRank:
      ctx = RunTwoRank(w, args, sizes, rec);
      break;
    case Kind::kTiramisuStream:
      ctx = RunStream(w, args, sizes, rec);
      break;
  }

  const TrainerOptions opts = MakeTrainerOptions(w, args.seed);
  const ArchSpec spec = WorkloadSpec(w, opts);
  const TrainingCost cost = AnalyzeTraining(spec, w.precision, kBatch);
  const double flops_per_sample = cost.TotalFlops() / kBatch;
  const double bytes_per_sample = cost.TotalBytes() / kBatch;

  const auto steps = static_cast<std::int64_t>(rec.step_s.size());
  std::vector<double> step_ms;
  for (const double s : rec.step_s) step_ms.push_back(s * 1e3);
  // The step-time tail is reported in both runs but gated in neither: on
  // a shared host its run-to-run spread exceeds any admissible bound.
  const double step_p90 = Percentile(step_ms, 0.9);

  Metrics m;
  if (!args.trace) {
    const double rate = Median(rec.window_rates);
    const auto windows = static_cast<std::int64_t>(rec.window_rates.size());
    m.Add("train_samples_per_s", rate, "samples/s", windows);
    m.Add("train_gflop_per_s", rate * flops_per_sample / 1e9, "GFLOP/s",
          windows);
    m.Add("step_ms_p50", Percentile(step_ms, 0.5), "ms", steps);
    m.Add("step_ms_p90", step_p90, "ms", steps);
    m.Add("eval_samples_per_s", Median(rec.eval_rates), "samples/s",
          rec.eval_passes);
    m.Add("setup_s", Median(rec.setup_s), "s",
          static_cast<std::int64_t>(rec.setup_s.size()));
    m.Add("peak_rss_mib", PeakRssMib(), "MiB", 1);
  } else {
    SpanTrace::Global().SetEnabled(true);
    SetAllocTracking(false);
    const ProbeResults probe =
        RunProbes(spec, ctx->trainers[0]->model(), sizes.probe_reps, args.seed);
    SpanTrace::Global().SetEnabled(false);

    const auto n_t = static_cast<std::int64_t>(rec.timings.size());
    std::vector<double> fwd, bwd, exch, upd, over;
    for (const auto& t : rec.timings) {
      fwd.push_back(t.forward_seconds * 1e3);
      bwd.push_back(t.backward_seconds * 1e3);
      exch.push_back(t.exchange_seconds * 1e3);
      upd.push_back(t.update_seconds * 1e3);
      over.push_back((t.total_seconds - t.forward_seconds -
                      t.backward_seconds - t.exchange_seconds -
                      t.update_seconds) *
                     1e3);
    }
    std::vector<double> make_ms;
    for (const double s : rec.make_batch_s) make_ms.push_back(s * 1e3);
    const auto n_mb = static_cast<std::int64_t>(make_ms.size());
    const double traced_rate = Ratio(rec.traced_samples, rec.traced_wall_s);
    const double untraced_rate =
        Ratio(rec.untraced_samples, rec.untraced_wall_s);

    m.Add("nn.forward_ms", Median(fwd), "ms", n_t);
    m.Add("nn.backward_ms", Median(bwd), "ms", n_t);
    m.Add("nn.conv_fwd_ms", probe.conv_fwd_ms, "ms", sizes.probe_reps);
    m.Add("nn.conv_bwd_ms", probe.conv_bwd_ms, "ms", sizes.probe_reps);
    m.Add("nn.conv_bwd_fwd_ratio", Ratio(probe.conv_bwd_ms, probe.conv_fwd_ms),
          "x", sizes.probe_reps);
    m.Add("nn.eval_forward_ms", probe.eval_forward_ms, "ms", sizes.probe_reps);
    m.Add("tensor.gemm_conv_gflop_per_s", probe.gemm_conv_gflops, "GFLOP/s",
          sizes.probe_reps);
    m.Add("tensor.gemm_peak_gflop_per_s", probe.gemm_peak_gflops, "GFLOP/s",
          sizes.probe_reps);
    m.Add("tensor.gemm_conv_pct_of_peak",
          100.0 * Ratio(probe.gemm_conv_gflops, probe.gemm_peak_gflops), "%",
          sizes.probe_reps);
    m.Add("tensor.half_round_trip_gb_per_s", probe.half_gbps, "GB/s",
          sizes.probe_reps);
    m.Add("hvd.exchange_exposed_ms", Median(exch), "ms", n_t);
    m.Add("comm.bytes_per_step", Ratio(rec.comm_bytes, rec.comm_steps),
          "bytes", rec.comm_steps);
    m.Add("comm.messages_per_step", Ratio(rec.comm_messages, rec.comm_steps),
          "count", rec.comm_steps);
    m.Add("optim.update_ms", Median(upd), "ms", n_t);
    m.Add("optim.skipped_step_ratio", Ratio(rec.update_skips, rec.timed_steps),
          "ratio", rec.timed_steps);
    m.Add("data.make_batch_ms", Median(make_ms), "ms", n_mb);
    m.Add("io.pipeline_wait_ms", Ratio(rec.next_wait_s * 1e3, rec.next_calls),
          "ms", rec.next_calls);
    m.Add("io.pipeline_ready_ratio", Ratio(rec.next_ready, rec.next_calls),
          "ratio", rec.next_calls);
    m.Add("io.pipeline_produce_ms",
          Ratio(rec.pipeline_produce_s * 1e3, rec.pipeline_produced), "ms",
          rec.pipeline_produced);
    m.Add("train.overhead_ms", Median(over), "ms", n_t);
    m.Add("train.step_ms_p90", step_p90, "ms", steps);
    m.Add("common.allocs_per_step",
          Ratio(rec.traced_allocs, rec.traced_alloc_steps), "count",
          rec.traced_alloc_steps);
    m.Add("common.pool_peak_mib", rec.pool_peak_bytes / (1024.0 * 1024.0),
          "MiB", 1);
    m.Add("flops.train_gflop_per_sample", flops_per_sample / 1e9, "GFLOP", 1);
    m.Add("flops.computed_mb_per_sample", bytes_per_sample / 1e6, "MB", 1);
    m.Add("trace.overhead_pct",
          100.0 * Ratio(untraced_rate - traced_rate, untraced_rate), "%",
          steps);

    JsonObject self;
    for (const auto& t : SpanTrace::Global().SelfTimes()) {
      self.Raw(t.name, JsonObject()
                           .Int("count", t.count)
                           .Num("total_ms", t.total_ms)
                           .Num("self_ms", t.self_ms)
                           .str());
    }
    const bool wrote = !args.trace_out.empty() &&
                       SpanTrace::Global().WriteChromeTrace(args.trace_out);
    std::printf("%s\n",
                JsonObject()
                    .Raw("self_times", self.str())
                    .Str("chrome_trace", wrote ? args.trace_out : "")
                    .Str("probe_conv", probe.conv_geometry)
                    .Str("probe_gemm_mnk", probe.gemm_shape)
                    .Int("probe_half_elements", probe.half_elements)
                    .Num("traced_samples_per_s", traced_rate)
                    .Num("untraced_samples_per_s", untraced_rate)
                    .str()
                    .c_str());
  }

  std::string crcs = "[";
  for (std::size_t i = 0; i < rec.replica_crcs.size(); ++i) {
    crcs += (i ? "," : "") + std::to_string(rec.replica_crcs[i]);
  }
  crcs += "]";
  char fingerprint[64];
  std::snprintf(fingerprint, sizeof(fingerprint), "%a", rec.fingerprint_loss);

  const std::string checks =
      JsonObject()
          .Int("timed_steps", rec.timed_steps)
          .Int("nonfinite_losses", rec.nonfinite_losses)
          .Int("fp16_skipped_updates", rec.update_skips)
          .Num("final_loss", rec.final_loss)
          .Int("fingerprint_step", sizes.warmup_steps + sizes.fingerprint_step)
          .Str("fingerprint_loss", fingerprint)
          .Int("setup_reps", static_cast<std::int64_t>(rec.setup_s.size()))
          .Int("setup_loss_mismatches", rec.setup_loss_mismatches)
          .Raw("replica_crcs", crcs)
          .Int("eval_passes", rec.eval_passes)
          .Int("eval_samples", rec.eval_samples)
          .Int("eval_pixel_mismatches", rec.eval_pixel_mismatches)
          .Int("pipeline_epochs", rec.pipeline_epochs)
          .Int("pipeline_skipped", rec.pipeline_skipped)
          .Int("producer_failures", rec.producer_failures)
          .Int("next_exceptions", rec.next_exceptions)
          .Int("comm_bytes", rec.comm_bytes)
          .Int("comm_steps", rec.comm_steps)
          .str();
  std::printf("%s\n", JsonObject()
                          .Str("workload", w.name)
                          .Int("seed", static_cast<std::int64_t>(args.seed))
                          .Int("trace", args.trace ? 1 : 0)
                          .Int("ranks", w.ranks)
                          .Int("batch_per_rank", kBatch)
                          .Raw("provenance", Provenance())
                          .Raw("checks", checks)
                          .Raw("metrics", m.str())
                          .str()
                          .c_str());
  std::fflush(stdout);
  return 0;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: exaclim_perfbench --workload <name> "
               "--seed <n> --seconds <s> [--trace 0|1] [--trace-out <file>] "
               "[--quick]\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      args.quick = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) args.workload = &w;
      }
      if (args.workload == nullptr) return Usage("unknown workload");
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload == nullptr) return Usage("--workload is required");
  try {
    return Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark failed: %s\n", e.what());
    return 1;
  }
}

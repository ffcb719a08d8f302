#include "train/trainer.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "comm/collectives.hpp"
#include "common/alloc_tracker.hpp"
#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/pool.hpp"
#include "common/sync.hpp"
#include "obs/obs.hpp"

namespace exaclim {

std::unique_ptr<Layer> BuildModel(const TrainerOptions& opts, Rng& rng) {
  if (opts.arch == TrainerOptions::Arch::kTiramisu) {
    return std::make_unique<Tiramisu>(opts.tiramisu, rng);
  }
  return std::make_unique<DeepLabV3Plus>(opts.deeplab, rng);
}

RankTrainer::RankTrainer(const TrainerOptions& opts,
                         std::vector<float> class_weights, int rank)
    : opts_(opts),
      class_weights_(std::move(class_weights)),
      scaler_(opts.loss_scaler) {
  // Same seed on every rank -> identical initial replicas (the
  // synchronous-training invariant of Sec V-A3).
  Rng rng(opts_.seed);
  model_ = BuildModel(opts_, rng);
  model_->SetPrecision(opts_.precision);
  params_ = model_->Params();

  std::unique_ptr<Optimizer> base;
  if (opts_.optimizer == TrainerOptions::Opt::kSGD) {
    base = std::make_unique<SGD>(
        params_, SGD::Options{.lr = opts_.learning_rate,
                              .momentum = opts_.momentum});
  } else {
    base = std::make_unique<Adam>(params_,
                                  Adam::Options{.lr = opts_.learning_rate});
  }
  if (opts_.use_larc) {
    base = std::make_unique<LARC>(std::move(base), opts_.larc);
  }
  if (opts_.lag > 0) {
    base = std::make_unique<GradientLag>(std::move(base), opts_.lag);
  }
  optimizer_ = std::move(base);

  exchanger_ = std::make_unique<GradientExchanger>(opts_.exchanger);
  recorder_.Bind(params_);
  // Construction is identical on every rank.
  (void)rank;
}

RankTrainer::StepResult RankTrainer::Step(const Batch& batch,
                                          Communicator* comm) {
  return StepImpl(batch, comm, nullptr, nullptr);
}

RankTrainer::ElasticStepResult RankTrainer::StepElastic(
    const Batch& batch, Communicator& comm, ElasticWorld& elastic) {
  ElasticStepResult result;
  result.step = StepImpl(batch, &comm, &elastic, &result.exchange);
  return result;
}

RankTrainer::StepResult RankTrainer::StepImpl(
    const Batch& batch, Communicator* comm, ElasticWorld* elastic,
    CollectiveResult* exchange_status) {
  StepResult result;
  obs::ScopedTimer step_timer("step", "train", &result.timings.total_seconds,
                              obs::HistogramOrNull("step.total_s"));
  // Per-phase allocation census (DESIGN §11): process-wide scope, since
  // forward/backward fan out to the thread pool. Publishes
  // alloc.{count,bytes}.step.* gauges and accumulates into the site
  // registry that bench_alloc_census reads; disappears behind one relaxed
  // load when EXACLIM_ALLOC_TRACK is off.
  EXACLIM_ALLOC_CENSUS("step");

  SegmentationLossResult loss;
  {
    obs::ScopedTimer timer("step.forward", "train",
                           &result.timings.forward_seconds,
                           obs::HistogramOrNull("step.forward_s"));
    EXACLIM_ALLOC_CENSUS("step.forward");
    optimizer_->ZeroGrad();
    const Tensor logits = model_->Forward(batch.fields, /*train=*/true);

    SegmentationLossOptions loss_opts;
    loss_opts.class_weights = class_weights_;
    loss_opts.precision = opts_.precision;
    loss_opts.loss_scale =
        opts_.precision == Precision::kFP16 ? scaler_.scale() : 1.0f;
    loss = WeightedSoftmaxCrossEntropy(logits, batch.labels, loss_opts);
    result.loss_scale = loss_opts.loss_scale;
  }
  {
    obs::ScopedTimer timer("step.backward", "train",
                           &result.timings.backward_seconds,
                           obs::HistogramOrNull("step.backward_s"));
    EXACLIM_ALLOC_CENSUS("step.backward");
    if (comm != nullptr) {
      // Stream grad-ready events into the exchanger's bucket engine; its
      // release policy decides whether buckets reduce during backward or
      // at WaitAll (DESIGN §14).
      exchanger_->BeginStep(*comm, params_, elastic,
                            elastic != nullptr
                                ? elastic->options().collective_timeout_s
                                : kNoTimeout);
      recorder_.BeginStep(*exchanger_);
      model_->SetGradReadyListener(&recorder_);
    }
    (void)model_->Backward(loss.grad_logits);
    if (comm != nullptr) {
      model_->SetGradReadyListener(nullptr);
      // Params no hook announced (if any) still exchange exactly once.
      recorder_.FlushRemaining();
    }
  }

  if (comm != nullptr) {
    obs::ScopedTimer timer("step.exchange", "train",
                           &result.timings.exchange_seconds,
                           obs::HistogramOrNull("step.exchange_s"));
    EXACLIM_ALLOC_CENSUS("step.exchange");
    // Barrier: only the exchange not hidden behind backward shows up
    // here (a RankKilledError raised on the exchange thread by the chaos
    // schedule rethrows out of WaitAll on this thread).
    const CollectiveResult r = exchanger_->WaitAll();
    if (exchange_status != nullptr) *exchange_status = r;
    if (elastic != nullptr) {
      if (!r.ok()) {
        // Failed exchange: the gradients are partial garbage. Roll the
        // step back — no optimizer or scaler update — so every survivor
        // leaves this step with the pre-step replica, bit-identical.
        result.loss = loss.loss;
        result.pixel_accuracy = loss.pixel_accuracy;
        result.update_applied = false;
        return result;
      }
    } else {
      RequireOk(*comm, "exchange", r);
    }
  }

  result.loss = loss.loss;
  result.pixel_accuracy = loss.pixel_accuracy;

  bool apply = true;
  {
    obs::ScopedTimer timer("step.update", "train",
                           &result.timings.update_seconds,
                           obs::HistogramOrNull("step.update_s"));
    EXACLIM_ALLOC_CENSUS("step.update");
    if (opts_.precision == Precision::kFP16) {
      const bool finite = !optimizer_->HasNonFiniteGradient();
      apply = scaler_.Update(finite);
      if (apply) optimizer_->UnscaleGradients(result.loss_scale);
    }
    if (apply) {
      optimizer_->Step();
    }
  }
  result.update_applied = apply;
  if (auto* g = obs::GaugeOrNull("step.loss_scale")) {
    g->Set(static_cast<double>(result.loss_scale));
  }
  if (!apply) {
    if (auto* c = obs::CounterOrNull("step.skipped")) c->Increment();
  }
  // Arena gauges (pool.live_bytes etc.); no-op without an installed sink.
  PublishPoolMetrics();
  return result;
}

namespace {

// Resync tags, salted into the new generation's namespace at use.
constexpr int kTagResync = 30000;
constexpr int kTagResyncCrc = 30700;
constexpr int kTagResumeUp = 30900;
constexpr int kTagResumeDown = 30901;

/// Post-rebuild resume-step agreement. Survivors can observe a death at
/// adjacent step indices — a rank may abort its step-s exchange while a
/// peer, whose collective was already satisfiable from delivered
/// messages, completes s and fails at s+1. Everyone resumes from the
/// lowest failed step: with freshly resynced weights a replayed step is
/// just another synchronous step, while diverged step counters would
/// strand the tail of the run (unequal exchange counts never match up).
int AgreeResumeStep(Communicator& comm, ElasticWorld& elastic,
                    int my_failed_step) {
  const ElasticView& view = elastic.view();
  const RankGroup group(view.members, comm.rank());
  const Deadline deadline(elastic.options().rebuild_timeout_s);
  int resume = my_failed_step;
  if (view.my_index == 0) {
    for (int i = 1; i < group.size(); ++i) {
      int other = 0;
      const RecvStatus status = comm.RecvValueTimeout(
          group.WorldRank(i), elastic.GenTag(kTagResumeUp),
          deadline.Remaining(), &other);
      EXACLIM_CHECK(status == RecvStatus::kOk,
                    "rank " << comm.rank()
                            << ": resume-step agreement lost rank "
                            << group.WorldRank(i));
      resume = std::min(resume, other);
    }
    for (int i = 1; i < group.size(); ++i) {
      comm.SendValue(group.WorldRank(i), elastic.GenTag(kTagResumeDown),
                     resume);
    }
  } else {
    comm.SendValue(group.WorldRank(0), elastic.GenTag(kTagResumeUp),
                   my_failed_step);
    const RecvStatus status = comm.RecvValueTimeout(
        group.WorldRank(0), elastic.GenTag(kTagResumeDown),
        deadline.Remaining(), &resume);
    EXACLIM_CHECK(status == RecvStatus::kOk,
                  "rank " << comm.rank()
                          << ": resume-step agreement lost the root");
  }
  return resume;
}

}  // namespace

std::uint32_t RankTrainer::ParamsCrc32() const {
  std::uint32_t crc = 0;
  for (const Param* p : params_) {
    const auto data = p->value.Data();
    crc = Crc32(std::as_bytes(std::span<const float>(data.data(),
                                                     data.size())),
                crc);
  }
  return crc;
}

CollectiveResult RankTrainer::ResyncFromRoot(Communicator& comm,
                                             ElasticWorld& elastic,
                                             std::int64_t* resync_bytes) {
  const ElasticView& view = elastic.view();
  const RankGroup group(view.members, comm.rank());
  const Deadline deadline(elastic.options().rebuild_timeout_s);
  const bool is_root = view.my_index == 0;

  std::int64_t total = 0;
  for (const Param* p : params_) total += p->NumElements();
  std::vector<float> blob(static_cast<std::size_t>(total));
  if (is_root) {
    std::size_t off = 0;
    for (const Param* p : params_) {
      const auto data = p->value.Data();
      std::copy(data.begin(), data.end(), blob.begin() + off);
      off += data.size();
    }
  }

  CollectiveResult r = TryGroupBroadcast(comm, group, 0, blob, deadline,
                                         elastic.GenTag(kTagResync));
  if (!r.ok()) return r;

  // The root's checksum is authoritative; every receiver verifies the
  // blob it got survived the broadcast tree intact.
  const std::uint32_t local_crc =
      Crc32(std::as_bytes(std::span<const float>(blob)));
  if (is_root) {
    for (int i = 1; i < group.size(); ++i) {
      comm.SendValue(group.WorldRank(i), elastic.GenTag(kTagResyncCrc),
                     local_crc);
    }
  } else {
    std::uint32_t root_crc = 0;
    const RecvStatus status = comm.RecvValueTimeout(
        group.WorldRank(0), elastic.GenTag(kTagResyncCrc),
        deadline.Remaining(), &root_crc);
    if (status != RecvStatus::kOk) {
      return RecvFailure(comm, group, group.WorldRank(0), status);
    }
    EXACLIM_CHECK(root_crc == local_crc,
                  "rank " << comm.rank() << ": resync CRC mismatch (root "
                          << root_crc << " vs local " << local_crc
                          << ") — weight broadcast corrupted");
    std::size_t off = 0;
    for (Param* p : params_) {
      auto data = p->value.Data();
      std::copy(blob.begin() + off,
                blob.begin() + off + static_cast<std::ptrdiff_t>(data.size()),
                data.begin());
      off += data.size();
    }
  }
  if (resync_bytes != nullptr) {
    *resync_bytes = total * static_cast<std::int64_t>(sizeof(float));
  }
  return {};
}

ConfusionMatrix RankTrainer::Evaluate(const ClimateDataset& dataset,
                                      DatasetSplit split,
                                      std::int64_t max_samples) {
  ConfusionMatrix cm(kNumClimateClasses);
  const std::int64_t n = std::min(max_samples, dataset.size(split));
  for (std::int64_t i = 0; i < n; ++i) {
    const std::vector<std::int64_t> idx{i};
    const Batch batch = dataset.MakeBatch(split, idx);
    const Tensor logits = model_->Forward(batch.fields, /*train=*/false);
    const auto pred = PredictClasses(logits);
    cm.Add(pred, batch.labels);
  }
  return cm;
}

TrainRunResult RunDistributedTraining(const TrainerOptions& raw_opts,
                                      const ClimateDataset& dataset,
                                      int ranks, int steps,
                                      std::int64_t images_per_rank) {
  EXACLIM_CHECK(ranks >= 1 && steps >= 1, "need ranks >= 1, steps >= 1");
  // EXACLIM_ELASTIC / EXACLIM_ELASTIC_TIMEOUT /
  // EXACLIM_ELASTIC_REBUILD_TIMEOUT override the programmatic options,
  // so elasticity can be armed on an existing binary alongside
  // EXACLIM_FAULTS.
  TrainerOptions opts = raw_opts;
  opts.elastic = ElasticOptions::FromEnv(opts.elastic);
  // EXACLIM_OVERLAP / EXACLIM_FUSION_BYTES / EXACLIM_WIRE likewise
  // override the exchange knobs on an existing binary.
  opts.exchanger = ExchangerOptions::FromEnv(opts.exchanger);
  const auto freq = dataset.MeasureFrequencies(16);
  const auto weights = MakeClassWeights(freq, opts.weighting);

  TrainRunResult result;
  result.loss_history.assign(static_cast<std::size_t>(steps), 0.0);
  result.accuracy_history.assign(static_cast<std::size_t>(steps), 0.0);
  result.final_world_size = ranks;
  result.survived.assign(static_cast<std::size_t>(ranks), 0);
  result.survivor_param_crcs.assign(static_cast<std::size_t>(ranks), 0);
  Mutex result_mutex;
  const bool elastic_on = opts.elastic.enabled;

  SimWorld world(ranks);
  world.Run([&](Communicator& comm) {
    RankTrainer trainer(opts, weights, comm.rank());
    ElasticWorld elastic(comm, opts.elastic);
    // Sec V-A1 local shards: each rank samples its own subset. After a
    // shrink the surviving ranks reshard by view index, so the dead
    // ranks' data keeps being visited.
    auto shard = dataset.LocalShard(comm.rank(), images_per_rank);
    Rng batch_rng =
        Rng(opts.seed ^ 0xba7c4).Fork(static_cast<std::uint64_t>(comm.rank()));

    std::int64_t local_recoveries = 0;
    std::int64_t local_resync_bytes = 0;
    try {
      for (int s = 0; s < steps; ++s) {
        if (elastic_on) {
          // Chaos site "elastic.kill.<rank>": die at step entry, before
          // this rank joins the exchange — its peers discover the death
          // from inside their bounded collectives.
          FaultInjector& injector = FaultInjector::Global();
          if (injector.ArmedSiteCount() > 0 &&
              injector.ShouldInject("elastic.kill." +
                                    std::to_string(comm.rank()))) {
            comm.KillSelf();
            throw RankKilledError("rank " + std::to_string(comm.rank()) +
                                  " killed at step entry by the chaos "
                                  "schedule");
          }
        }
        std::vector<std::int64_t> indices(
            static_cast<std::size_t>(opts.local_batch));
        for (auto& idx : indices) {
          idx = shard[batch_rng.Index(shard.size())];
        }
        const Batch batch = dataset.MakeBatch(DatasetSplit::kTrain, indices);

        RankTrainer::StepResult step;
        if (elastic_on) {
          const auto es = trainer.StepElastic(batch, comm, elastic);
          if (!es.exchange.ok()) {
            // A peer died mid-exchange. Every survivor observed a failed
            // collective, so nobody applied this step: rebuild the world,
            // resync weights from the lowest-ranked survivor, reshard,
            // and retry the same step index on the shrunk world.
            const auto t0 = std::chrono::steady_clock::now();
            const CollectiveResult rebuilt = elastic.Rebuild();
            EXACLIM_CHECK(rebuilt.ok(),
                          "rank " << comm.rank()
                                  << ": elastic rebuild failed after rank "
                                  << es.exchange.suspect_rank << " died");
            std::int64_t bytes = 0;
            const CollectiveResult resync =
                trainer.ResyncFromRoot(comm, elastic, &bytes);
            EXACLIM_CHECK(resync.ok(),
                          "rank " << comm.rank()
                                  << ": weight resync failed (suspect rank "
                                  << resync.suspect_rank << ")");
            shard = dataset.LocalShard(elastic.view().my_index,
                                       images_per_rank);
            const double secs =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            ++local_recoveries;
            local_resync_bytes += bytes;
            if (auto* g = obs::GaugeOrNull("elastic.generation")) {
              g->Set(static_cast<double>(elastic.generation()));
            }
            if (auto* c = obs::CounterOrNull("elastic.recoveries")) {
              c->Increment();
            }
            if (auto* c = obs::CounterOrNull("elastic.resync_bytes")) {
              c->Add(bytes);
            }
            if (auto* h = obs::HistogramOrNull("elastic.recovery_s")) {
              h->Record(secs);
            }
            // Rewind to the lowest failed step across survivors (the
            // for-loop increment lands on it); see AgreeResumeStep.
            s = AgreeResumeStep(comm, elastic, s) - 1;
            continue;
          }
          step = es.step;
        } else {
          step = trainer.Step(batch, &comm);
        }

        // Loss history follows the lowest live rank so the curve
        // continues across the death of rank 0.
        const bool recorder =
            elastic_on ? elastic.view().WorldRank(0) == comm.rank()
                       : comm.rank() == 0;
        if (recorder) {
          MutexLock lock(result_mutex);
          result.loss_history[static_cast<std::size_t>(s)] = step.loss;
          result.accuracy_history[static_cast<std::size_t>(s)] =
              step.pixel_accuracy;
          if (!step.update_applied) ++result.skipped_steps;
        }
      }
    } catch (const RankKilledError&) {
      // This rank was chaos-killed. Its mailbox is already drained and
      // flagged dead; just leave the lambda without poisoning the world.
      return;
    }

    MutexLock lock(result_mutex);
    result.survived[static_cast<std::size_t>(comm.rank())] = 1;
    result.survivor_param_crcs[static_cast<std::size_t>(comm.rank())] =
        trainer.ParamsCrc32();
    result.final_world_size = elastic.view().size();
    result.final_generation =
        std::max(result.final_generation, elastic.generation());
    result.recoveries = std::max(result.recoveries, local_recoveries);
    result.resync_bytes = std::max(result.resync_bytes, local_resync_bytes);
  });
  result.final_loss = result.loss_history.back();
  return result;
}

}  // namespace exaclim

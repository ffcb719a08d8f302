#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "comm/elastic.hpp"
#include "comm/world.hpp"
#include "common/sync.hpp"
#include "hvd/control_plane.hpp"
#include "hvd/hybrid.hpp"
#include "nn/layer.hpp"
#include "tensor/cast.hpp"

namespace exaclim {

/// Which transport the gradient all-reduce uses.
enum class ReduceTransport {
  kMpiRing,   // flat ring over all ranks
  kMpiTree,   // flat tree over all ranks
  kHybrid,    // the paper's NCCL-intra-node + sharded-MPI scheme
};

const char* ToString(ReduceTransport t);

/// Bucket tag layout (DESIGN §14). Every fused buffer's collective runs
/// in its own tag window so concurrent in-flight buckets can never
/// cross-match; the window index wraps inside a *bounded* field so the
/// largest bucket tag stays below the elastic generation stride — the
/// previous open-ended layout (20000 + i*700) crossed into generation
/// N+1's namespace at ~1400 buckets, letting a stale generation-N bucket
/// message alias a post-rebuild control or collective tag.
///
///   [ 0 .. kBucketTagBase )                   control/consensus/resync
///   [ kBucketTagBase .. kGenTagStride )       bucket windows, stride
///                                             kBucketTagStride each
///
/// Wrap-around reuse of a window is safe for the same reason step-count
/// tag reuse is: each rank issues its buckets strictly in order and the
/// mailbox matches per (src, tag) FIFO, so two uses of one window are
/// never concurrently in flight on an edge.
inline constexpr int kBucketTagBase = 40000;
/// Tags a single bucket's collective may touch: the group ring uses
/// tag+k and tag+n+k (2n tags), the hybrid offsets by up to 500+owner.
inline constexpr int kBucketTagStride = 700;
inline constexpr int kBucketTagSlots =
    (kGenTagStride - kBucketTagBase) / kBucketTagStride;
static_assert(kBucketTagBase + kBucketTagSlots * kBucketTagStride <=
                  kGenTagStride,
              "bucket tag field must fit inside one generation's salt "
              "budget — a bucket tag crossing kGenTagStride would alias "
              "the next generation's namespace");
static_assert(kBucketTagSlots >= 1000,
              "bucket tag field unexpectedly small");

/// Collective tag (pre-generation-salt) of fused buffer `bucket_index`.
inline int BucketTag(int bucket_index) {
  return kBucketTagBase + (bucket_index % kBucketTagSlots) * kBucketTagStride;
}

/// Data-parallel gradient aggregation in the style of Horovod (Sec V-A3):
/// tensors are announced as their gradients become final, consecutive
/// tensors fuse into buffers up to a byte threshold (Horovod's tensor
/// fusion, which gradient lag improves), the control plane agrees on
/// each buffer's tensor order, and one all-reduce per fused buffer
/// averages across ranks.
struct ExchangerOptions {
  bool hierarchical_control = true;
  int control_radix = 4;
  ReduceTransport transport = ReduceTransport::kHybrid;
  HybridAllreduceOptions hybrid{};
  /// Fuse consecutive tensors into buffers of up to this many bytes.
  std::int64_t fusion_threshold_bytes = 4 << 20;
  /// FP16 wire format: gradients are rounded through binary16 and move
  /// across ranks as packed 2-byte words (WireFormat::kFP16), halving
  /// the bytes on the wire; the reduction itself accumulates in FP32
  /// (Tensor Core FMA / NCCL fp32-accumulation style).
  Precision wire_precision = Precision::kFP32;
  bool average = true;
  /// Release policy of the exchange thread (DESIGN §14). On: each fused
  /// bucket is negotiated and reduced as soon as it closes, overlapping
  /// the exchange with the rest of backward. Off: closed buckets are
  /// released only at WaitAll, so the whole exchange runs after
  /// backward. Bucket composition and reduce order do not depend on it,
  /// so both policies are bit-identical.
  bool overlap = false;

  /// EXACLIM_OVERLAP (a boolean knob, common/env.hpp),
  /// EXACLIM_FUSION_BYTES=<bytes> (decimal digits only) and
  /// EXACLIM_WIRE=fp32|fp16|half applied over `base`; a malformed value
  /// throws an Error naming the knob.
  static ExchangerOptions FromEnv(ExchangerOptions base);
};

/// The bucket engine (DESIGN §14). BeginStep arms a step; NotifyGradReady
/// (from the backward pass, via GradReadyRecorder) appends a tensor to
/// the emission order and greedily closes fusion buckets; a persistent
/// exchange thread negotiates and reduces each released bucket in order;
/// WaitAll closes the final bucket, releases everything, blocks until
/// the exchange thread drained the step and returns the first failure
/// (kOk when every bucket reduced). One exchanger per rank.
class GradientExchanger {
 public:
  explicit GradientExchanger(const ExchangerOptions& opts);
  ~GradientExchanger();

  /// Blocking one-shot exchange: every rank calls with its (identically
  /// shaped) params, announced in index order over the full world. On
  /// return each param's grad holds the rank-averaged gradient,
  /// bit-identical on every rank; a dead or unresponsive peer throws.
  void Exchange(Communicator& comm, const std::vector<Param*>& params);

  /// Arms a step over `elastic`'s current view with generation-salted
  /// tags; `elastic == nullptr` uses the lazily built generation-0 view
  /// of the full world. Each bucket's negotiation and reduce share one
  /// Deadline of `timeout_s` (kNoTimeout: unbounded), started when the
  /// exchange thread takes the bucket — never before its release, so
  /// backward time does not eat the budget. After a shrink the hybrid
  /// transport falls back to the group ring (survivors rarely form
  /// whole nodes).
  void BeginStep(Communicator& comm, const std::vector<Param*>& params,
                 ElasticWorld* elastic, double timeout_s);
  /// Announces that `param_index`'s gradient is final for this step.
  /// Called on the trainer thread, between BeginStep and WaitAll.
  void NotifyGradReady(int param_index);
  /// Barrier before optimizer.Step. On failure the gradients hold
  /// partial data and the caller must discard the step. Rethrows a
  /// RankKilledError raised on the exchange thread (chaos schedule) on
  /// the calling thread.
  CollectiveResult WaitAll();

  /// Fused buffers reduced in the last step (diagnostic).
  std::int64_t last_fused_buffers() const { return last_fused_buffers_; }

  const ExchangerOptions& options() const { return opts_; }

 private:
  /// One fused buffer: the half-open range [begin, end) of the step's
  /// emission order.
  struct Bucket {
    int begin = 0;
    int end = 0;
    std::int64_t elems = 0;
    std::int64_t bytes = 0;
  };

  /// Lazily built generation-0 view over `comm` for the non-elastic
  /// path; rebuilt only if the communicator changes, asserted in sync
  /// with comm.size() (previously re-derived every call).
  ElasticWorld& Identity(Communicator& comm);

  /// Packs `ids` (param indices) into the fusion scratch, reduces the
  /// buffer in bucket_index's tag window, averages and scatters back.
  CollectiveResult ReduceFusedBucket(Communicator& comm,
                                     const std::vector<Param*>& params,
                                     ElasticWorld& elastic,
                                     const RankGroup& group,
                                     std::span<const int> ids,
                                     int bucket_index,
                                     const Deadline& deadline);

  /// Fires the "elastic.exchange.kill.<rank>" chaos site (once per step,
  /// right after the first bucket's order was agreed).
  void MaybeChaosKill(Communicator& comm);

  void StartExchangeThread();
  void ExchangeThreadMain();
  /// Runs one armed step on the exchange thread: negotiate + reduce each
  /// released bucket in order, latch the first failure, drain the rest.
  void RunStep();
  void CloseBucketLocked();

  ExchangerOptions opts_;
  std::unique_ptr<ControlPlane> control_;
  std::int64_t last_fused_buffers_ = 0;
  // Debug builds trap two threads entering the engine on the same
  // instance at once (which would corrupt the step bookkeeping).
  ReentrancyGuard reentrancy_;

  // Non-elastic identity view (see Identity()).
  std::unique_ptr<ElasticWorld> identity_;
  Communicator* identity_comm_ = nullptr;

  // Hand-off discipline: the trainer thread writes sched_order_ /
  // bucket bookkeeping under mu_ (NotifyGradReady); the exchange thread
  // copies released buckets out under mu_ and touches comm/grads only
  // for tensors already announced, so the two threads never race on a
  // tensor. Result fields are written by the exchange thread before it
  // clears step_active_ under mu_ and read by WaitAll after observing
  // step_active_ == false — ordered by the mutex.
  Mutex mu_;
  CondVar cv_;
  std::thread exchange_thread_;
  bool thread_started_ = false;
  bool shutdown_ = false;        // guarded by mu_
  bool step_active_ = false;     // guarded by mu_
  bool emit_done_ = false;       // guarded by mu_
  bool step_open_ = false;       // trainer thread only
  Communicator* comm_ = nullptr;
  const std::vector<Param*>* params_ = nullptr;
  ElasticWorld* elastic_ = nullptr;
  double timeout_s_ = kNoTimeout;
  std::vector<int> sched_order_;  // emission order; writes guarded by mu_
  int sched_count_ = 0;           // guarded by mu_
  std::vector<Bucket> buckets_;   // closed buckets; guarded by mu_
  int buckets_closed_ = 0;        // guarded by mu_
  int pend_begin_ = 0;            // open bucket start; guarded by mu_
  std::int64_t pend_bytes_ = 0;   // guarded by mu_
  std::int64_t pend_elems_ = 0;   // guarded by mu_
  std::vector<int> order_;        // exchange thread's negotiation buffer
  CollectiveResult result_;       // first failure of the armed step
  bool failed_ = false;
  std::exception_ptr exception_;
  std::int64_t step_bytes_ = 0;
  std::int64_t step_buffers_ = 0;
};

/// Bridges Layer grad-ready hooks to the exchanger: the trainer installs
/// it as the model's GradReadyListener for the backward pass. It maps
/// each announcing layer to its param indices (cached after the first
/// step — steady-state notifications do zero heap work), dedups, and
/// forwards each newly ready index to the exchanger. FlushRemaining
/// emits params no hook announced (models without instrumented
/// containers), so every param always exchanges exactly once per step.
class GradReadyRecorder : public GradReadyListener {
 public:
  /// Binds the flat param list the indices refer to (cheap when
  /// unchanged; rebinding clears the layer cache).
  void Bind(const std::vector<Param*>& params);
  /// Starts a step whose ready params go to `sink.NotifyGradReady`.
  void BeginStep(GradientExchanger& sink);
  void OnGradsReady(Layer& layer) override;
  /// Emits every param not announced by a hook, in index order.
  void FlushRemaining();

 private:
  void Emit(int param_index);

  const std::vector<Param*>* params_ = nullptr;
  std::unordered_map<const Param*, int> index_of_;
  std::unordered_map<const Layer*, std::vector<int>> layer_indices_;
  std::vector<char> seen_;
  GradientExchanger* sink_ = nullptr;
};

}  // namespace exaclim

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "comm/world.hpp"

namespace exaclim {

/// Collective algorithms over point-to-point messaging, run over an
/// arbitrary group of world ranks — the building block of the paper's
/// hybrid all-reduce (Sec V-A3), where different phases run over "the 6
/// GPUs of a node" (NCCL scope) and "rank k of every node" (MPI scope).
/// A collective over the whole world runs over RankGroup::World. Ring
/// all-reduce is the systolic reduce-scatter + allgather (the NCCL
/// pattern); broadcast and reduce are binomial trees. All reductions are
/// float sums with deterministic combining order (independent of thread
/// timing), so data-parallel replicas stay bit-identical.
///
/// Each call takes a `tag` namespace; sequential collectives on the same
/// communicator may reuse a tag, concurrent ones must not. All members
/// must call with an identical group and tag.
///
/// Every collective has a deadline-aware Try* form returning a
/// CollectiveResult instead of hanging or throwing when a peer dies
/// mid-operation — the substrate of elastic training (DESIGN §13). The
/// blocking form delegates with kNoTimeout, so both run the identical
/// message pattern and combining order.

/// Outcome of a deadline-aware collective.
enum class CollectiveStatus {
  kOk,        // completed on every participating edge of this rank
  kPeerDead,  // a participant died; suspect_rank names it
  kTimeout,   // deadline expired with no dead rank detected
};

const char* ToString(CollectiveStatus status);

struct CollectiveResult {
  CollectiveStatus status = CollectiveStatus::kOk;
  /// The dead rank (kPeerDead) or the rank whose message never arrived
  /// (kTimeout). -1 on kOk.
  int suspect_rank = -1;

  bool ok() const { return status == CollectiveStatus::kOk; }
};

/// The participating world ranks of a collective; the calling rank must
/// be a member.
class RankGroup {
 public:
  RankGroup(std::span<const int> ranks, int my_world_rank);
  /// Every rank of `comm`'s world, in rank order.
  static RankGroup World(const Communicator& comm);

  int size() const { return static_cast<int>(ranks_.size()); }
  int my_index() const { return my_index_; }
  int WorldRank(int index) const { return ranks_.at(static_cast<std::size_t>(index)); }

 private:
  std::vector<int> ranks_;
  int my_index_;
};

/// Scope of the periodic liveness scan a waiting member runs inside a
/// bounded receive. kGroup (the default) only aborts on a dead *member*
/// — elastic generations deliberately keep collectives alive while
/// ex-members stay dead in the world. kWorld aborts on a death
/// anywhere; correct only when the caller knows any death dooms the
/// operation, e.g. the hybrid allreduce whose subgroup phases require
/// the entire generation-0 world.
enum class DeadScan { kGroup, kWorld };

/// Bounded receive of every collective and of the control plane.
/// Receives from `src` (a world rank or kAnySource) in short slices,
/// scanning `scan`'s scope for dead ranks in between, so a death in
/// scope fails the wait within one slice even when this rank's wait
/// edge is with a live peer that is itself stuck on the dead one. On the
/// healthy path it consumes exactly the messages one long wait would.
/// On failure `src` names the suspect: the dead rank, else the waited
/// source.
RecvResult ScanningRecv(Communicator& comm, const RankGroup& group, int src,
                        int tag, const Deadline& deadline,
                        DeadScan scan = DeadScan::kGroup);

/// Names a failed receive. A kTimeout while waiting on a live peer is
/// usually a cascade from a dead rank elsewhere, so it becomes kPeerDead
/// naming a dead group member if there is one, else a dead rank anywhere
/// in the world; otherwise `suspect` stands.
CollectiveResult RecvFailure(const Communicator& comm, const RankGroup& group,
                             int suspect, RecvStatus status);

/// Throws on a failed blocking form — the pre-elastic contract (an
/// unbounded Recv from a dead peer throws exaclim::Error).
void RequireOk(const Communicator& comm, const char* what,
               const CollectiveResult& result);

/// Partition of [0, n) into `parts` contiguous shards, as even as
/// possible (the first n % parts shards take one extra element).
struct ShardExtent {
  std::size_t offset;
  std::size_t count;
};
std::vector<ShardExtent> ComputeShards(std::size_t n, int parts);

/// On-the-wire encoding of a float payload. kFP32 sends raw floats;
/// kFP16 packs each element through IEEE binary16 (PackHalf), halving
/// the bytes every message moves. Reductions still accumulate in FP32 —
/// the wire format only controls what crosses rank boundaries, so a
/// packed send quantises exactly like RoundTripHalf on the sender.
/// Values already representable in binary16 survive a pack/unpack hop
/// bit-exactly, which is what keeps forwarded (already-quantised)
/// payloads identical along broadcast and allgather paths.
///
/// The algorithms quantise *kept* data at the same points the wire
/// quantises *sent* data — the ring quantises each owner's fully reduced
/// shard before the allgather, the tree's root quantises before
/// broadcasting — so every member still finishes with bit-identical
/// buffers.
enum class WireFormat { kFP32, kFP16 };

const char* ToString(WireFormat wire);

/// Bytes a `count`-element float span occupies under `wire`.
inline std::size_t WireBytes(std::size_t count, WireFormat wire) {
  return count * (wire == WireFormat::kFP32 ? sizeof(float)
                                            : sizeof(std::uint16_t));
}

/// Binomial-tree broadcast from the member at `root_index`.
void GroupBroadcast(Communicator& comm, const RankGroup& group,
                    int root_index, std::span<float> data, int tag);
CollectiveResult TryGroupBroadcast(Communicator& comm, const RankGroup& group,
                                   int root_index, std::span<float> data,
                                   const Deadline& deadline, int tag,
                                   DeadScan scan = DeadScan::kGroup,
                                   WireFormat wire = WireFormat::kFP32);

/// Binomial-tree sum-reduction to the member at `root_index` (other
/// members' buffers hold partial sums afterwards).
void GroupReduce(Communicator& comm, const RankGroup& group, int root_index,
                 std::span<float> data, int tag);
CollectiveResult TryGroupReduce(Communicator& comm, const RankGroup& group,
                                int root_index, std::span<float> data,
                                const Deadline& deadline, int tag,
                                DeadScan scan = DeadScan::kGroup,
                                WireFormat wire = WireFormat::kFP32);

/// Ring reduce-scatter + allgather within the group (in-place sum;
/// bandwidth-optimal). Uses tags [tag, tag + 2 * size).
void GroupAllreduceRing(Communicator& comm, const RankGroup& group,
                        std::span<float> data, int tag);
CollectiveResult TryGroupAllreduceRing(Communicator& comm,
                                       const RankGroup& group,
                                       std::span<float> data,
                                       const Deadline& deadline, int tag,
                                       DeadScan scan = DeadScan::kGroup,
                                       WireFormat wire = WireFormat::kFP32);

/// Tree all-reduce: reduce to member 0 (tag), then broadcast (tag + 1).
void GroupAllreduceTree(Communicator& comm, const RankGroup& group,
                        std::span<float> data, int tag);
CollectiveResult TryGroupAllreduceTree(Communicator& comm,
                                       const RankGroup& group,
                                       std::span<float> data,
                                       const Deadline& deadline, int tag,
                                       DeadScan scan = DeadScan::kGroup,
                                       WireFormat wire = WireFormat::kFP32);

}  // namespace exaclim

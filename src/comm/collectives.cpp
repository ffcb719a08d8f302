#include "comm/collectives.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "common/workspace.hpp"
#include "tensor/cast.hpp"

namespace exaclim {
namespace {

/// How often a bounded receive re-checks liveness. Keeps failure
/// detection at one slice instead of the whole deadline — a wait on a
/// live-but-stuck peer, or on kAnySource, has no single source whose
/// death could wake it early.
constexpr double kDeadScanSlice = 0.025;

/// First dead member of `group`, or -1.
int FirstDeadMember(const Communicator& comm, const RankGroup& group) {
  for (int i = 0; i < group.size(); ++i) {
    if (comm.PeerDead(group.WorldRank(i))) return group.WorldRank(i);
  }
  return -1;
}

/// First dead rank of the world, or -1.
int FirstDeadRank(const Communicator& comm) {
  for (int r = 0; r < comm.size(); ++r) {
    if (comm.PeerDead(r)) return r;
  }
  return -1;
}

void AddInto(std::span<float> acc, std::span<const float> other) {
  for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += other[i];
}

/// Sends `data` to `dst` encoded per `wire`. The kFP16 path packs into a
/// pooled thread-local scratch buffer (no heap traffic on the exchange
/// hot path); Send buffers (copies) the payload before returning, so the
/// scratch is immediately reusable.
void SendFloats(Communicator& comm, int dst, int tag,
                std::span<const float> data, WireFormat wire) {
  if (wire == WireFormat::kFP32) {
    comm.SendT(dst, tag, data);
    return;
  }
  std::uint16_t* packed = AcquireScratchU16(ScratchSlot::kWirePack,
                                            data.size());
  PackHalf(data, std::span<std::uint16_t>(packed, data.size()));
  comm.Send(dst, tag,
            std::as_bytes(std::span<const std::uint16_t>(packed,
                                                         data.size())));
}

/// Bounded receive of exactly data.size() floats from `src`, decoded
/// per `wire`. kOk fills `data`; anything else leaves it untouched and
/// names the suspect.
CollectiveResult TimedRecvFloats(Communicator& comm, const RankGroup& group,
                                 int src, int tag, std::span<float> data,
                                 const Deadline& deadline, DeadScan scan,
                                 WireFormat wire) {
  const RecvResult r = ScanningRecv(comm, group, src, tag, deadline, scan);
  if (!r.ok()) return RecvFailure(comm, group, r.src, r.status);
  EXACLIM_CHECK(r.payload.size() == WireBytes(data.size(), wire),
                "collective recv size mismatch: got "
                    << r.payload.size() << " expected "
                    << WireBytes(data.size(), wire) << " (tag " << tag
                    << ", wire " << ToString(wire) << ")");
  if (data.empty()) return {};
  if (wire == WireFormat::kFP32) {
    std::memcpy(data.data(), r.payload.data(), r.payload.size());
  } else {
    UnpackHalf(std::span<const std::uint16_t>(
                   reinterpret_cast<const std::uint16_t*>(r.payload.data()),
                   data.size()),
               data);
  }
  return {};
}

}  // namespace

const char* ToString(CollectiveStatus status) {
  switch (status) {
    case CollectiveStatus::kOk: return "ok";
    case CollectiveStatus::kPeerDead: return "peer-dead";
    case CollectiveStatus::kTimeout: return "timeout";
  }
  return "?";
}

const char* ToString(WireFormat wire) {
  switch (wire) {
    case WireFormat::kFP32: return "fp32";
    case WireFormat::kFP16: return "fp16";
  }
  return "?";
}

RankGroup::RankGroup(std::span<const int> ranks, int my_world_rank)
    : ranks_(ranks.begin(), ranks.end()), my_index_(-1) {
  EXACLIM_CHECK(!ranks_.empty(), "empty rank group");
  for (std::size_t i = 0; i < ranks_.size(); ++i) {
    if (ranks_[i] == my_world_rank) {
      my_index_ = static_cast<int>(i);
    }
  }
  EXACLIM_CHECK(my_index_ >= 0,
                "rank " << my_world_rank << " not a member of the group");
}

RankGroup RankGroup::World(const Communicator& comm) {
  std::vector<int> ranks(static_cast<std::size_t>(comm.size()));
  for (int r = 0; r < comm.size(); ++r) {
    ranks[static_cast<std::size_t>(r)] = r;
  }
  return RankGroup(ranks, comm.rank());
}

RecvResult ScanningRecv(Communicator& comm, const RankGroup& group, int src,
                        int tag, const Deadline& deadline, DeadScan scan) {
  for (;;) {
    const double remaining = deadline.Remaining();
    const double slice = remaining == kNoTimeout
                             ? kDeadScanSlice
                             : std::min(kDeadScanSlice, remaining);
    RecvResult r = comm.RecvTimeout(src, tag, slice);
    if (r.ok()) return r;
    r.src = src;
    if (r.status == RecvStatus::kPeerDead) return r;
    const int dead = scan == DeadScan::kWorld ? FirstDeadRank(comm)
                                              : FirstDeadMember(comm, group);
    if (dead >= 0) {
      r.status = RecvStatus::kPeerDead;
      r.src = dead;
      return r;
    }
    if (deadline.Expired()) return r;
  }
}

CollectiveResult RecvFailure(const Communicator& comm, const RankGroup& group,
                             int suspect, RecvStatus status) {
  CollectiveResult result;
  result.suspect_rank = suspect;
  result.status = status == RecvStatus::kPeerDead
                      ? CollectiveStatus::kPeerDead
                      : CollectiveStatus::kTimeout;
  if (result.status == CollectiveStatus::kTimeout) {
    int dead = FirstDeadMember(comm, group);
    if (dead < 0) dead = FirstDeadRank(comm);
    if (dead >= 0) {
      result.status = CollectiveStatus::kPeerDead;
      result.suspect_rank = dead;
    }
  }
  return result;
}

void RequireOk(const Communicator& comm, const char* what,
               const CollectiveResult& result) {
  EXACLIM_CHECK(result.ok(),
                "rank " << comm.rank() << ": blocking " << what
                        << " cannot complete: rank " << result.suspect_rank
                        << (result.status == CollectiveStatus::kPeerDead
                                ? " is dead"
                                : " is unresponsive"));
}

std::vector<ShardExtent> ComputeShards(std::size_t n, int parts) {
  EXACLIM_CHECK(parts >= 1, "shard parts must be >= 1");
  std::vector<ShardExtent> shards(static_cast<std::size_t>(parts));
  const std::size_t base = n / static_cast<std::size_t>(parts);
  const std::size_t extra = n % static_cast<std::size_t>(parts);
  std::size_t offset = 0;
  for (int i = 0; i < parts; ++i) {
    const std::size_t count =
        base + (static_cast<std::size_t>(i) < extra ? 1 : 0);
    shards[static_cast<std::size_t>(i)] = {offset, count};
    offset += count;
  }
  return shards;
}

CollectiveResult TryGroupBroadcast(Communicator& comm, const RankGroup& group,
                                   int root_index, std::span<float> data,
                                   const Deadline& deadline, int tag,
                                   DeadScan scan, WireFormat wire) {
  const int n = group.size();
  if (n == 1) return {};
  // Virtual rank with the root at 0; binomial tree over virtual ranks.
  const int vrank = (group.my_index() - root_index + n) % n;
  if (vrank != 0) {
    // Receive from the parent (clear the highest set bit).
    int mask = 1;
    while (mask <= vrank) mask <<= 1;
    mask >>= 1;
    const int parent = group.WorldRank(((vrank - mask) + root_index) % n);
    CollectiveResult r = TimedRecvFloats(comm, group, parent, tag, data,
                                         deadline, scan, wire);
    if (!r.ok()) return r;
  } else if (wire == WireFormat::kFP16) {
    // Quantise what the root keeps to match what everyone receives off
    // the packed wire (receivers forward already-quantised data, a
    // bit-exact pack/unpack round trip).
    RoundTripHalf(data);
  }
  int mask = 1;
  while (mask <= vrank) mask <<= 1;
  for (; mask < n; mask <<= 1) {
    const int vchild = vrank + mask;
    if (vchild >= n) break;
    SendFloats(comm, group.WorldRank((vchild + root_index) % n), tag,
               std::span<const float>(data.data(), data.size()), wire);
  }
  return {};
}

void GroupBroadcast(Communicator& comm, const RankGroup& group,
                    int root_index, std::span<float> data, int tag) {
  RequireOk(comm, "GroupBroadcast",
            TryGroupBroadcast(comm, group, root_index, data,
                              Deadline(kNoTimeout), tag));
}

CollectiveResult TryGroupReduce(Communicator& comm, const RankGroup& group,
                                int root_index, std::span<float> data,
                                const Deadline& deadline, int tag,
                                DeadScan scan, WireFormat wire) {
  const int n = group.size();
  if (n == 1) return {};
  const int vrank = (group.my_index() - root_index + n) % n;
  // Pooled per-thread receive buffer: the binomial rounds run strictly
  // sequentially on this thread, so one slot serves every round without
  // a heap allocation per call (DESIGN §12).
  std::span<float> incoming(
      AcquireScratch(ScratchSlot::kGroupIncoming, data.size()), data.size());
  // Round k: virtual ranks with bit k set send to (vrank - 2^k) and are
  // done; the receivers accumulate.
  for (int mask = 1; mask < n; mask <<= 1) {
    if (vrank & mask) {
      const int dst = group.WorldRank(((vrank - mask) + root_index) % n);
      SendFloats(comm, dst, tag,
                 std::span<const float>(data.data(), data.size()), wire);
      return {};
    }
    const int vsrc = vrank + mask;
    if (vsrc < n) {
      CollectiveResult r = TimedRecvFloats(
          comm, group, group.WorldRank((vsrc + root_index) % n), tag,
          incoming, deadline, scan, wire);
      if (!r.ok()) return r;
      AddInto(data, incoming);
    }
  }
  return {};
}

void GroupReduce(Communicator& comm, const RankGroup& group, int root_index,
                 std::span<float> data, int tag) {
  RequireOk(comm, "GroupReduce",
            TryGroupReduce(comm, group, root_index, data,
                           Deadline(kNoTimeout), tag));
}

CollectiveResult TryGroupAllreduceRing(Communicator& comm,
                                       const RankGroup& group,
                                       std::span<float> data,
                                       const Deadline& deadline, int tag,
                                       DeadScan scan, WireFormat wire) {
  const int n = group.size();
  if (n == 1) return {};
  const auto shards = ComputeShards(data.size(), n);
  const int idx = group.my_index();
  const int next = group.WorldRank((idx + 1) % n);
  const int prev = group.WorldRank((idx - 1 + n) % n);
  // Pooled per-thread receive buffer (see TryGroupReduce).
  float* incoming = AcquireScratch(ScratchSlot::kGroupIncoming, data.size());

  // Reduce-scatter round k: send shard (idx - k), receive and accumulate
  // shard (idx - k - 1). After n-1 rounds this member holds the full sum
  // of shard (idx+1) mod n.
  for (int k = 0; k < n - 1; ++k) {
    const int send_shard = ((idx - k) % n + n) % n;
    const int recv_shard = ((idx - k - 1) % n + n) % n;
    const auto& s = shards[static_cast<std::size_t>(send_shard)];
    const auto& r = shards[static_cast<std::size_t>(recv_shard)];
    SendFloats(comm, next, tag + k,
               std::span<const float>(data.data() + s.offset, s.count),
               wire);
    CollectiveResult recv = TimedRecvFloats(
        comm, group, prev, tag + k, std::span<float>(incoming, r.count),
        deadline, scan, wire);
    if (!recv.ok()) return recv;
    AddInto(std::span<float>(data.data() + r.offset, r.count),
            std::span<const float>(incoming, r.count));
  }
  if (wire == WireFormat::kFP16) {
    // Quantise the owned shard before the allgather so the copy this
    // member keeps matches the packed copy every peer receives;
    // forwarded shards are already quantised, so their pack hop is
    // bit-exact.
    const auto& own = shards[static_cast<std::size_t>((idx + 1) % n)];
    RoundTripHalf(std::span<float>(data.data() + own.offset, own.count));
  }
  // Allgather round k: send shard (idx + 1 - k), receive shard (idx - k).
  for (int k = 0; k < n - 1; ++k) {
    const int send_shard = ((idx + 1 - k) % n + n) % n;
    const int recv_shard = ((idx - k) % n + n) % n;
    const auto& s = shards[static_cast<std::size_t>(send_shard)];
    const auto& r = shards[static_cast<std::size_t>(recv_shard)];
    SendFloats(comm, next, tag + n + k,
               std::span<const float>(data.data() + s.offset, s.count),
               wire);
    CollectiveResult recv = TimedRecvFloats(
        comm, group, prev, tag + n + k,
        std::span<float>(data.data() + r.offset, r.count), deadline, scan,
        wire);
    if (!recv.ok()) return recv;
  }
  return {};
}

void GroupAllreduceRing(Communicator& comm, const RankGroup& group,
                        std::span<float> data, int tag) {
  RequireOk(comm, "GroupAllreduceRing",
            TryGroupAllreduceRing(comm, group, data, Deadline(kNoTimeout),
                                  tag));
}

CollectiveResult TryGroupAllreduceTree(Communicator& comm,
                                       const RankGroup& group,
                                       std::span<float> data,
                                       const Deadline& deadline, int tag,
                                       DeadScan scan, WireFormat wire) {
  CollectiveResult r =
      TryGroupReduce(comm, group, 0, data, deadline, tag, scan, wire);
  if (!r.ok()) return r;
  return TryGroupBroadcast(comm, group, 0, data, deadline, tag + 1, scan,
                           wire);
}

void GroupAllreduceTree(Communicator& comm, const RankGroup& group,
                        std::span<float> data, int tag) {
  RequireOk(comm, "GroupAllreduceTree",
            TryGroupAllreduceTree(comm, group, data, Deadline(kNoTimeout),
                                  tag));
}

}  // namespace exaclim

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <vector>

#include "comm/collectives.hpp"
#include "comm/world.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace exaclim {
namespace {

// Per-rank payload: rank-dependent values so reductions are checkable.
std::vector<float> RankPayload(int rank, std::size_t n) {
  std::vector<float> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<float>(rank + 1) * 0.5f +
              static_cast<float>(i) * 0.25f;
  }
  return data;
}

std::vector<float> ExpectedSum(int world, std::size_t n) {
  std::vector<float> sum(n, 0.0f);
  for (int r = 0; r < world; ++r) {
    const auto p = RankPayload(r, n);
    for (std::size_t i = 0; i < n; ++i) sum[i] += p[i];
  }
  return sum;
}

TEST(SimWorld, PingPong) {
  SimWorld world(2);
  world.Run([](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.SendValue(1, 5, 42);
      EXPECT_EQ(comm.RecvValue<int>(1, 6), 43);
    } else {
      EXPECT_EQ(comm.RecvValue<int>(0, 5), 42);
      comm.SendValue(0, 6, 43);
    }
  });
  EXPECT_EQ(world.total_messages(), 2);
  EXPECT_EQ(world.total_bytes(), 2 * static_cast<std::int64_t>(sizeof(int)));
}

TEST(SimWorld, TagMatchingOutOfOrder) {
  SimWorld world(2);
  world.Run([](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.SendValue(1, 10, 1.0f);
      comm.SendValue(1, 20, 2.0f);
    } else {
      // Receive in reverse tag order: matching must skip the first
      // message.
      EXPECT_EQ(comm.RecvValue<float>(0, 20), 2.0f);
      EXPECT_EQ(comm.RecvValue<float>(0, 10), 1.0f);
    }
  });
}

TEST(SimWorld, AnySourceReceivesFromAll) {
  SimWorld world(5);
  world.Run([](Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<bool> seen(5, false);
      for (int i = 0; i < 4; ++i) {
        int src = -1;
        const int payload = comm.RecvValue<int>(kAnySource, 7, &src);
        EXPECT_EQ(payload, src * 10);
        seen[static_cast<std::size_t>(src)] = true;
      }
      for (int r = 1; r < 5; ++r) EXPECT_TRUE(seen[static_cast<std::size_t>(r)]);
    } else {
      comm.SendValue(0, 7, comm.rank() * 10);
    }
  });
}

TEST(SimWorld, ExceptionOnOneRankPoisonsBlockedPeers) {
  SimWorld world(3);
  EXPECT_THROW(world.Run([](Communicator& comm) {
                 if (comm.rank() == 1) throw Error("rank 1 died");
                 // Other ranks block on a message that never comes; the
                 // poison must wake them.
                 (void)comm.RecvValue<int>(1, 99);
               }),
               Error);
}

TEST(SimWorld, ReusableAcrossRuns) {
  SimWorld world(3);
  for (int round = 0; round < 3; ++round) {
    world.Run([](Communicator& comm) {
      std::vector<float> token(1, comm.rank() == 0 ? 1.0f : 0.0f);
      GroupBroadcast(comm, RankGroup::World(comm), 0, token, 1000);
      EXPECT_EQ(token[0], 1.0f);
    });
  }
  SUCCEED();
}

TEST(SimWorld, RecvSizeMismatchThrows) {
  SimWorld world(2);
  EXPECT_THROW(world.Run([](Communicator& comm) {
                 if (comm.rank() == 0) {
                   comm.SendValue(1, 3, 1.0);  // 8 bytes
                 } else {
                   (void)comm.RecvValue<float>(0, 3);  // expects 4
                 }
               }),
               Error);
}

class CollectiveSizes : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSizes, BroadcastDistributesRootData) {
  const int n = GetParam();
  for (int root = 0; root < n; ++root) {
    SimWorld world(n);
    world.Run([&](Communicator& comm) {
      std::vector<float> data(17, comm.rank() == root ? 3.5f : 0.0f);
      for (std::size_t i = 0; i < data.size(); ++i) {
        if (comm.rank() == root) data[i] += static_cast<float>(i);
      }
      GroupBroadcast(comm, RankGroup::World(comm), root, data, 1100);
      for (std::size_t i = 0; i < data.size(); ++i) {
        EXPECT_FLOAT_EQ(data[i], 3.5f + static_cast<float>(i))
            << "root " << root;
      }
    });
  }
}

TEST_P(CollectiveSizes, ReduceSumsToRoot) {
  const int n = GetParam();
  const auto expected = ExpectedSum(n, 23);
  for (int root = 0; root < n; ++root) {
    SimWorld world(n);
    world.Run([&](Communicator& comm) {
      auto data = RankPayload(comm.rank(), 23);
      GroupReduce(comm, RankGroup::World(comm), root, data, 1200);
      if (comm.rank() == root) {
        for (std::size_t i = 0; i < data.size(); ++i) {
          EXPECT_NEAR(data[i], expected[i], 1e-4f) << "root " << root;
        }
      }
    });
  }
}

// Ring and tree both sum correctly, and every rank ends with a bitwise
// equal buffer — the replica property the exchanger relies on.
TEST_P(CollectiveSizes, AllreduceAllAlgorithmsAgree) {
  const int n = GetParam();
  const std::size_t len = 41;  // deliberately not divisible by most n
  const auto expected = ExpectedSum(n, len);
  for (const bool ring : {true, false}) {
    std::vector<std::vector<float>> results(static_cast<std::size_t>(n));
    SimWorld world(n);
    world.Run([&](Communicator& comm) {
      auto data = RankPayload(comm.rank(), len);
      const RankGroup group = RankGroup::World(comm);
      if (ring) {
        GroupAllreduceRing(comm, group, data, 1500);
      } else {
        GroupAllreduceTree(comm, group, data, 1500);
      }
      for (std::size_t i = 0; i < len; ++i) {
        EXPECT_NEAR(data[i], expected[i], 1e-3f)
            << (ring ? "ring" : "tree") << " n=" << n << " i=" << i;
      }
      results[static_cast<std::size_t>(comm.rank())] = std::move(data);
    });
    for (int r = 1; r < n; ++r) {
      EXPECT_EQ(std::memcmp(results[0].data(),
                            results[static_cast<std::size_t>(r)].data(),
                            len * sizeof(float)),
                0)
          << (ring ? "ring" : "tree") << " n=" << n << ": rank " << r
          << " differs from rank 0";
    }
  }
}

// A one-element allreduce is the group layer's rendezvous: every result
// depends on every member's contribution, so no member can return before
// all members have entered.
TEST_P(CollectiveSizes, AllreduceIsARendezvous) {
  const int n = GetParam();
  for (const bool ring : {true, false}) {
    std::atomic<int> arrived{0};
    SimWorld world(n);
    world.Run([&](Communicator& comm) {
      arrived.fetch_add(1);
      std::vector<float> token(1, 1.0f);
      const RankGroup group = RankGroup::World(comm);
      if (ring) {
        GroupAllreduceRing(comm, group, token, 1500);
      } else {
        GroupAllreduceTree(comm, group, token, 1500);
      }
      EXPECT_EQ(arrived.load(), n) << (ring ? "ring" : "tree");
      EXPECT_EQ(token[0], static_cast<float>(n)) << (ring ? "ring" : "tree");
    });
  }
}

// The packed FP16 wire halves the bytes of every ring and tree message
// and still leaves every member with a bitwise equal buffer. The payload
// sums are multiples of 0.25 below 256, exact in binary16, so the packed
// result matches the exact sum.
TEST_P(CollectiveSizes, Fp16WireHalvesBytesAndKeepsReplicasEqual) {
  const int n = GetParam();
  const std::size_t len = 41;
  const auto expected = ExpectedSum(n, len);
  for (const bool ring : {true, false}) {
    std::int64_t fp32_bytes = 0;
    std::int64_t fp16_bytes = 0;
    std::vector<std::vector<float>> results(static_cast<std::size_t>(n));
    for (const WireFormat wire : {WireFormat::kFP32, WireFormat::kFP16}) {
      SimWorld world(n);
      world.Run([&](Communicator& comm) {
        auto data = RankPayload(comm.rank(), len);
        const RankGroup group = RankGroup::World(comm);
        const Deadline deadline(kNoTimeout);
        const CollectiveResult r =
            ring ? TryGroupAllreduceRing(comm, group, data, deadline, 1500,
                                         DeadScan::kGroup, wire)
                 : TryGroupAllreduceTree(comm, group, data, deadline, 1500,
                                         DeadScan::kGroup, wire);
        EXPECT_TRUE(r.ok()) << ToString(r.status);
        for (std::size_t i = 0; i < len; ++i) {
          EXPECT_NEAR(data[i], expected[i], 1e-3f)
              << (ring ? "ring " : "tree ") << ToString(wire) << " i=" << i;
        }
        if (wire == WireFormat::kFP16) {
          results[static_cast<std::size_t>(comm.rank())] = std::move(data);
        }
      });
      (wire == WireFormat::kFP16 ? fp16_bytes : fp32_bytes) =
          world.total_bytes();
    }
    EXPECT_EQ(2 * fp16_bytes, fp32_bytes) << (ring ? "ring" : "tree");
    for (int r = 1; r < n; ++r) {
      EXPECT_EQ(std::memcmp(results[0].data(),
                            results[static_cast<std::size_t>(r)].data(),
                            len * sizeof(float)),
                0)
          << (ring ? "ring" : "tree") << " fp16 n=" << n << ": rank " << r
          << " differs from rank 0";
    }
  }
}

// A group need be neither the world nor in rank order: every other rank,
// listed in descending order, runs ring, tree, broadcast and reduce by
// group index. The world's byte count shows the ranks outside the group
// neither sent nor received.
TEST_P(CollectiveSizes, ReversedStridedSubgroupRunsOnlyItsMembers) {
  const int n = GetParam();
  std::vector<int> members;
  for (int r = n - 1; r >= 0; r -= 2) members.push_back(r);
  const int m = static_cast<int>(members.size());
  const int root_index = m - 1;  // the member with the lowest world rank
  const std::size_t len = 19;
  std::vector<float> expected(len, 0.0f);
  for (const int r : members) {
    const auto p = RankPayload(r, len);
    for (std::size_t i = 0; i < len; ++i) expected[i] += p[i];
  }
  SimWorld world(n);
  world.Run([&](Communicator& comm) {
    if (std::find(members.begin(), members.end(), comm.rank()) ==
        members.end()) {
      return;
    }
    const RankGroup group(members, comm.rank());
    auto ring = RankPayload(comm.rank(), len);
    auto tree = ring;
    auto reduced = ring;
    std::vector<float> bcast(len, 0.0f);
    if (group.my_index() == root_index) {
      for (std::size_t i = 0; i < len; ++i) {
        bcast[i] = 7.0f + static_cast<float>(i);
      }
    }
    GroupAllreduceRing(comm, group, ring, 1500);
    GroupAllreduceTree(comm, group, tree, 1600);
    GroupBroadcast(comm, group, root_index, bcast, 1700);
    GroupReduce(comm, group, root_index, reduced, 1800);
    for (std::size_t i = 0; i < len; ++i) {
      EXPECT_NEAR(ring[i], expected[i], 1e-4f) << "ring i=" << i;
      EXPECT_NEAR(tree[i], expected[i], 1e-4f) << "tree i=" << i;
      EXPECT_EQ(bcast[i], 7.0f + static_cast<float>(i)) << "bcast i=" << i;
      if (group.my_index() == root_index) {
        EXPECT_NEAR(reduced[i], expected[i], 1e-4f) << "reduce i=" << i;
      }
    }
  });
  // Ring and tree each move 2(m-1) buffers' worth, broadcast and reduce
  // (m-1) each.
  EXPECT_EQ(world.total_bytes(),
            6 * (m - 1) * static_cast<std::int64_t>(len * sizeof(float)));
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, CollectiveSizes,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 13));

TEST(ComputeShards, EvenAndUneven) {
  const auto even = ComputeShards(12, 4);
  for (const auto& s : even) EXPECT_EQ(s.count, 3u);
  const auto uneven = ComputeShards(10, 4);
  EXPECT_EQ(uneven[0].count, 3u);
  EXPECT_EQ(uneven[1].count, 3u);
  EXPECT_EQ(uneven[2].count, 2u);
  EXPECT_EQ(uneven[3].count, 2u);
  std::size_t total = 0;
  for (const auto& s : uneven) {
    EXPECT_EQ(s.offset, total);
    total += s.count;
  }
  EXPECT_EQ(total, 10u);
}

TEST(ComputeShards, MorePartsThanElements) {
  const auto shards = ComputeShards(2, 4);
  EXPECT_EQ(shards[0].count, 1u);
  EXPECT_EQ(shards[1].count, 1u);
  EXPECT_EQ(shards[2].count, 0u);
  EXPECT_EQ(shards[3].count, 0u);
}

TEST(Topology, SummitMapping) {
  const Topology summit{.ranks_per_node = 6};
  EXPECT_EQ(summit.NodeOf(0), 0);
  EXPECT_EQ(summit.NodeOf(5), 0);
  EXPECT_EQ(summit.NodeOf(6), 1);
  EXPECT_EQ(summit.LocalRank(8), 2);
  EXPECT_EQ(summit.GlobalRank(2, 3), 15);
  EXPECT_EQ(summit.NumNodes(27360), 4560);  // full Summit (Sec VII-B)
}

TEST(AllreduceCounters, EqualTotalsButTreeConcentratesPerRankBytes) {
  // Ring and tree all-reduce move the same total bytes, 2(n-1) buffers'
  // worth. The ring spreads them evenly: every rank sends 2(n-1)/n of the
  // buffer. The binomial reduce+broadcast sends one full buffer per edge,
  // so the root and internal nodes send up to log2(n) buffers each — the
  // per-rank concentration that makes the tree bandwidth-bound at scale.
  const int n = 8;
  const std::size_t len = 1024;
  const std::int64_t buf = static_cast<std::int64_t>(len) * 4;
  auto per_rank_bytes = [&](auto allreduce) {
    std::vector<std::int64_t> sent(n, 0);
    SimWorld world(n);
    world.Run([&](Communicator& comm) {
      auto data = RankPayload(comm.rank(), len);
      allreduce(comm, data);
      sent[static_cast<std::size_t>(comm.rank())] = comm.bytes_sent();
    });
    std::int64_t sum = 0;
    for (const std::int64_t b : sent) sum += b;
    EXPECT_EQ(sum, world.total_bytes());
    return sent;
  };
  const auto ring = per_rank_bytes([](Communicator& comm, auto& data) {
    GroupAllreduceRing(comm, RankGroup::World(comm), data, 1500);
  });
  const auto tree = per_rank_bytes([](Communicator& comm, auto& data) {
    GroupAllreduceTree(comm, RankGroup::World(comm), data, 1500);
  });

  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(ring[static_cast<std::size_t>(r)], 2 * (n - 1) * buf / n)
        << "ring rank " << r;
  }
  // Binomial tree rooted at 0: every non-root sends once up the reduce;
  // in the broadcast rank 0 feeds 1, 2, 4; rank 1 feeds 3, 5; rank 2
  // feeds 6; rank 3 feeds 7; ranks 4-7 are leaves.
  const std::vector<std::int64_t> tree_want = {3 * buf, 3 * buf, 2 * buf,
                                               2 * buf, buf,     buf,
                                               buf,     buf};
  EXPECT_EQ(tree, tree_want);

  std::int64_t ring_total = 0, tree_total = 0;
  for (int r = 0; r < n; ++r) {
    ring_total += ring[static_cast<std::size_t>(r)];
    tree_total += tree[static_cast<std::size_t>(r)];
  }
  EXPECT_EQ(ring_total, 2 * (n - 1) * buf);
  EXPECT_EQ(tree_total, ring_total);
  EXPECT_GT(*std::max_element(tree.begin(), tree.end()),
            *std::max_element(ring.begin(), ring.end()));
}

}  // namespace
}  // namespace exaclim

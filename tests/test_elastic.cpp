// Elastic-training tests (DESIGN §13): deadline-aware collectives under
// rank death (the kill-position matrix), survivor-consensus world
// rebuild, live-peer weight resync, bit-identity of elastic-on with no
// faults, and the seeded chaos soak that kills two ranks mid-run.
//
// Deadlines in here are deliberately generous: dead-rank detection is
// poll-sliced (~25 ms regardless of where in the topology the victim
// sits), so a big deadline costs nothing on the failure path while
// keeping slow-machine (TSan) runs free of spurious timeouts.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "comm/collectives.hpp"
#include "comm/elastic.hpp"
#include "comm/world.hpp"
#include "common/fault.hpp"
#include "hvd/hybrid.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "stats/stats.hpp"
#include "scoped_env.hpp"
#include "train/trainer.hpp"

namespace exaclim {
namespace {

struct FaultScope {
  FaultScope() { FaultInjector::Global().Reset(); }
  ~FaultScope() { FaultInjector::Global().Reset(); }
};

ClimateDataset::Options TinyData() {
  ClimateDataset::Options o;
  o.num_samples = 40;
  o.generator.height = 32;
  o.generator.width = 32;
  o.channels = {kTMQ, kU850, kV850, kPSL};
  return o;
}

TrainerOptions TinyElasticTrainer() {
  TrainerOptions o;
  o.arch = TrainerOptions::Arch::kTiramisu;
  o.tiramisu = Tiramisu::Config::Downscaled(4);
  o.learning_rate = 2e-3f;
  o.exchanger.transport = ReduceTransport::kMpiRing;
  o.elastic.enabled = true;
  // Failure detection does not wait for these (dead-rank scans fire
  // within a slice); they only bound genuinely wedged peers.
  o.elastic.collective_timeout_s = 30.0;
  o.elastic.rebuild_timeout_s = 20.0;
  return o;
}

// ------------------------------------------------- ElasticOptions env --

TEST(ElasticOptionsEnv, FromEnvOverridesProgrammaticOptions) {
  ::setenv("EXACLIM_ELASTIC", "1", 1);
  ::setenv("EXACLIM_ELASTIC_TIMEOUT", "2.5", 1);
  ::setenv("EXACLIM_ELASTIC_REBUILD_TIMEOUT", "7.25", 1);
  const ElasticOptions on = ElasticOptions::FromEnv(ElasticOptions{});
  EXPECT_TRUE(on.enabled);
  EXPECT_DOUBLE_EQ(on.collective_timeout_s, 2.5);
  EXPECT_DOUBLE_EQ(on.rebuild_timeout_s, 7.25);

  ::setenv("EXACLIM_ELASTIC", "off", 1);
  ElasticOptions base;
  base.enabled = true;
  EXPECT_FALSE(ElasticOptions::FromEnv(base).enabled);

  ::unsetenv("EXACLIM_ELASTIC");
  ::unsetenv("EXACLIM_ELASTIC_TIMEOUT");
  ::unsetenv("EXACLIM_ELASTIC_REBUILD_TIMEOUT");
  EXPECT_FALSE(ElasticOptions::FromEnv(ElasticOptions{}).enabled);
}

// EXACLIM_ELASTIC reads like every boolean knob: "", "0", "off" and
// "false" are off, anything else on.
TEST(ElasticOptionsEnv, OffSpellings) {
  ElasticOptions base;
  base.enabled = true;
  for (const char* off : {"", "0", "off", "false"}) {
    const testing::ScopedEnv env("EXACLIM_ELASTIC", off);
    EXPECT_FALSE(ElasticOptions::FromEnv(base).enabled) << "'" << off << "'";
  }
}

// Malformed timeouts fail loudly, naming the knob: a prefix parse would
// read "5s" as 5, and a bare std::stod error names no knob.
TEST(ElasticOptionsEnv, RejectsMalformedTimeouts) {
  for (const char* knob :
       {"EXACLIM_ELASTIC_TIMEOUT", "EXACLIM_ELASTIC_REBUILD_TIMEOUT"}) {
    for (const char* bad : {"5s", "abc", "", "-1", "inf", "nan", " 5"}) {
      const testing::ScopedEnv env(knob, bad);
      try {
        (void)ElasticOptions::FromEnv(ElasticOptions{});
        ADD_FAILURE() << knob << "='" << bad << "' did not throw";
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find(knob), std::string::npos)
            << e.what();
      }
    }
  }
  EXPECT_THROW(
      {
        const testing::ScopedEnv env("EXACLIM_ELASTIC_TIMEOUT", "2.5min");
        (void)ElasticOptions::FromEnv(ElasticOptions{});
      },
      Error);
  const testing::ScopedEnv env("EXACLIM_ELASTIC_REBUILD_TIMEOUT", "0.5");
  EXPECT_DOUBLE_EQ(ElasticOptions::FromEnv(ElasticOptions{}).rebuild_timeout_s,
                   0.5);
}

// ------------------------------------------------------------ Deadline --

TEST(Deadline, UnboundedNeverExpires) {
  const Deadline d(kNoTimeout);
  EXPECT_FALSE(d.Expired());
  EXPECT_EQ(d.Remaining(), kNoTimeout);
}

TEST(Deadline, BoundedCountsDownAndExpires) {
  const Deadline d(0.05);
  EXPECT_LE(d.Remaining(), 0.05);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_TRUE(d.Expired());
  EXPECT_EQ(d.Remaining(), 0.0);
}

// --------------------------------------------- collective kill matrix --
//
// (algorithm) x (killed-rank position): every survivor's bounded
// collective must return kPeerDead naming the actual victim — including
// survivors whose wait edge is with a live peer that is itself stuck —
// and must never hang. Ring and tree run the group collectives the
// exchanger calls, over the whole world with the default scan scope.

enum class Scheme { kRing, kTree, kHybrid };

void RunKillMatrixCase(Scheme scheme, int victim) {
  const int n = scheme == Scheme::kHybrid ? 4 : 6;
  HybridAllreduceOptions hybrid;
  hybrid.topology.ranks_per_node = 2;
  hybrid.mpi_ranks_per_node = 2;

  std::atomic<int> survivors_checked{0};
  SimWorld world(n);
  world.Run([&](Communicator& comm) {
    if (comm.rank() == victim) {
      comm.KillSelf();
      return;
    }
    std::vector<float> data(64, static_cast<float>(comm.rank() + 1));
    const Deadline deadline(30.0);
    CollectiveResult r;
    switch (scheme) {
      case Scheme::kRing:
        r = TryGroupAllreduceRing(comm, RankGroup::World(comm), data,
                                  deadline, 1500);
        break;
      case Scheme::kTree:
        r = TryGroupAllreduceTree(comm, RankGroup::World(comm), data,
                                  deadline, 1500);
        break;
      case Scheme::kHybrid:
        r = TryHybridAllreduce(comm, data, hybrid, deadline);
        break;
    }
    EXPECT_EQ(r.status, CollectiveStatus::kPeerDead)
        << "rank " << comm.rank() << " got " << ToString(r.status);
    EXPECT_EQ(r.suspect_rank, victim) << "rank " << comm.rank();
    survivors_checked.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(survivors_checked.load(), n - 1);
}

TEST(CollectiveKillMatrix, RingFirstRankDies) {
  RunKillMatrixCase(Scheme::kRing, 0);
}
TEST(CollectiveKillMatrix, RingMiddleRankDies) {
  RunKillMatrixCase(Scheme::kRing, 3);
}
TEST(CollectiveKillMatrix, RingLastRankDies) {
  RunKillMatrixCase(Scheme::kRing, 5);
}
TEST(CollectiveKillMatrix, TreeFirstRankDies) {
  RunKillMatrixCase(Scheme::kTree, 0);
}
TEST(CollectiveKillMatrix, TreeMiddleRankDies) {
  RunKillMatrixCase(Scheme::kTree, 3);
}
TEST(CollectiveKillMatrix, TreeLastRankDies) {
  RunKillMatrixCase(Scheme::kTree, 5);
}
TEST(CollectiveKillMatrix, HybridFirstRankDies) {
  RunKillMatrixCase(Scheme::kHybrid, 0);
}
TEST(CollectiveKillMatrix, HybridMiddleRankDies) {
  RunKillMatrixCase(Scheme::kHybrid, 1);
}
TEST(CollectiveKillMatrix, HybridLastRankDies) {
  RunKillMatrixCase(Scheme::kHybrid, 3);
}

// The tree's two halves over a world of 6. A dead broadcast root
// starves every survivor, and each names it. A dead contributor to a
// reduce starves the root, which names it; survivors off the victim's
// path may finish, but none may name another rank.
TEST(CollectiveKillMatrix, BroadcastRootDies) {
  const int n = 6;
  const int root = 2;
  std::atomic<int> survivors_checked{0};
  SimWorld world(n);
  world.Run([&](Communicator& comm) {
    if (comm.rank() == root) {
      comm.KillSelf();
      return;
    }
    std::vector<float> data(64, 0.0f);
    const CollectiveResult r = TryGroupBroadcast(
        comm, RankGroup::World(comm), root, data, Deadline(30.0), 1100);
    EXPECT_EQ(r.status, CollectiveStatus::kPeerDead)
        << "rank " << comm.rank() << " got " << ToString(r.status);
    EXPECT_EQ(r.suspect_rank, root) << "rank " << comm.rank();
    survivors_checked.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(survivors_checked.load(), n - 1);
}

TEST(CollectiveKillMatrix, ReduceContributorDies) {
  const int n = 6;
  const int root = 1;
  const int victim = 4;
  std::atomic<int> survivors_checked{0};
  SimWorld world(n);
  world.Run([&](Communicator& comm) {
    if (comm.rank() == victim) {
      comm.KillSelf();
      return;
    }
    std::vector<float> data(64, static_cast<float>(comm.rank() + 1));
    const CollectiveResult r = TryGroupReduce(
        comm, RankGroup::World(comm), root, data, Deadline(30.0), 1200);
    if (comm.rank() == root || !r.ok()) {
      EXPECT_EQ(r.status, CollectiveStatus::kPeerDead)
          << "rank " << comm.rank() << " got " << ToString(r.status);
      EXPECT_EQ(r.suspect_rank, victim) << "rank " << comm.rank();
    }
    survivors_checked.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(survivors_checked.load(), n - 1);
}

// The scan scope (DESIGN §13): rank 0 is dead before a ring over
// {1,2,3,4} starts, and rank 1 joins late, so the others wait past
// several scan slices. Under kGroup the dead non-member is ignored and
// the ring completes with the exact sum; under kWorld every member
// aborts naming rank 0.
void RunScanScopeCase(DeadScan scan) {
  const std::vector<int> members{1, 2, 3, 4};
  std::atomic<int> members_checked{0};
  SimWorld world(5);
  world.Run([&](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.KillSelf();
      return;
    }
    if (comm.rank() == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
    }
    std::vector<float> data(64, static_cast<float>(comm.rank()));
    const CollectiveResult r =
        TryGroupAllreduceRing(comm, RankGroup(members, comm.rank()), data,
                              Deadline(30.0), 1500, scan);
    if (scan == DeadScan::kGroup) {
      EXPECT_TRUE(r.ok()) << "rank " << comm.rank() << " got "
                          << ToString(r.status);
      for (const float v : data) EXPECT_EQ(v, 1.0f + 2.0f + 3.0f + 4.0f);
    } else {
      EXPECT_EQ(r.status, CollectiveStatus::kPeerDead)
          << "rank " << comm.rank() << " got " << ToString(r.status);
      EXPECT_EQ(r.suspect_rank, 0) << "rank " << comm.rank();
    }
    members_checked.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(members_checked.load(), 4);
}

TEST(CollectiveKillMatrix, ScanScopeIgnoresDeadNonMembersUnlessWorld) {
  RunScanScopeCase(DeadScan::kGroup);
  RunScanScopeCase(DeadScan::kWorld);
}

// -------------------------------------------------------- ElasticWorld --

TEST(ElasticWorld, InitialViewIsIdentity) {
  SimWorld world(3);
  world.Run([&](Communicator& comm) {
    ElasticOptions eo;
    eo.enabled = true;
    const ElasticWorld elastic(comm, eo);
    EXPECT_EQ(elastic.generation(), 0);
    EXPECT_EQ(elastic.view().size(), 3);
    EXPECT_EQ(elastic.view().my_index, comm.rank());
    EXPECT_EQ(elastic.GenTag(42), 42);
  });
}

void RunRebuildCase(int world_size, int victim) {
  std::atomic<int> rebuilt{0};
  SimWorld world(world_size);
  world.Run([&](Communicator& comm) {
    ElasticOptions eo;
    eo.enabled = true;
    eo.rebuild_timeout_s = 20.0;
    ElasticWorld elastic(comm, eo);
    if (comm.rank() == victim) {
      comm.KillSelf();
      return;
    }
    // Mirrors training: a failed exchange precedes Rebuild, so by the
    // time survivors enter the consensus the death is observable.
    while (!comm.PeerDead(victim)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const CollectiveResult r = elastic.Rebuild();
    ASSERT_TRUE(r.ok()) << "rank " << comm.rank() << ": "
                        << ToString(r.status);
    EXPECT_EQ(elastic.generation(), 1);
    const ElasticView& view = elastic.view();
    EXPECT_EQ(view.size(), world_size - 1);
    EXPECT_FALSE(view.IsMember(victim));
    EXPECT_EQ(view.my_index, view.IndexOf(comm.rank()));
    // Members are the ascending survivors, densely re-ranked.
    int expected_index = 0;
    for (int rank = 0; rank < world_size; ++rank) {
      if (rank == victim) continue;
      EXPECT_EQ(view.WorldRank(expected_index), rank);
      ++expected_index;
    }
    // Tags moved to the new generation's namespace.
    EXPECT_EQ(elastic.GenTag(42), 42 + kGenTagStride);
    rebuilt.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(rebuilt.load(), world_size - 1);
}

TEST(ElasticWorld, RebuildDropsAMiddleRank) { RunRebuildCase(5, 2); }

TEST(ElasticWorld, RebuildSurvivesRootDeath) {
  // Killing rank 0 forces the consensus to elect a new tree root.
  RunRebuildCase(5, 0);
}

TEST(ElasticWorld, BackToBackRebuilds) {
  SimWorld world(4);
  std::atomic<int> completed{0};
  world.Run([&](Communicator& comm) {
    ElasticOptions eo;
    eo.enabled = true;
    eo.rebuild_timeout_s = 20.0;
    ElasticWorld elastic(comm, eo);
    for (const int victim : {3, 1}) {
      if (comm.rank() == victim) {
        comm.KillSelf();
        return;
      }
      while (!comm.PeerDead(victim)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      const CollectiveResult r = elastic.Rebuild();
      ASSERT_TRUE(r.ok()) << "rank " << comm.rank();
    }
    EXPECT_EQ(elastic.generation(), 2);
    EXPECT_EQ(elastic.view().size(), 2);
    EXPECT_TRUE(elastic.view().IsMember(0));
    EXPECT_TRUE(elastic.view().IsMember(2));
    completed.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(completed.load(), 2);
}

// ------------------------------------------------------------- Resync --

TEST(ElasticResync, BroadcastRealignsDivergedReplicas) {
  const TrainerOptions opts = TinyElasticTrainer();
  const std::vector<float> class_weights(
      static_cast<std::size_t>(kNumClimateClasses), 1.0f);
  const int ranks = 3;
  std::vector<std::uint32_t> crcs(static_cast<std::size_t>(ranks), 0);
  std::vector<std::int64_t> bytes(static_cast<std::size_t>(ranks), 0);
  SimWorld world(ranks);
  world.Run([&](Communicator& comm) {
    RankTrainer trainer(opts, class_weights, comm.rank());
    ElasticWorld elastic(comm, opts.elastic);
    if (comm.rank() != 0) {
      // Diverge the non-root replicas; resync must erase this.
      auto data = trainer.params().front()->value.Data();
      data[0] += static_cast<float>(comm.rank());
    }
    std::int64_t b = 0;
    const CollectiveResult r = trainer.ResyncFromRoot(comm, elastic, &b);
    ASSERT_TRUE(r.ok()) << "rank " << comm.rank();
    crcs[static_cast<std::size_t>(comm.rank())] = trainer.ParamsCrc32();
    bytes[static_cast<std::size_t>(comm.rank())] = b;
  });
  EXPECT_NE(crcs[0], 0u);
  EXPECT_EQ(crcs[1], crcs[0]);
  EXPECT_EQ(crcs[2], crcs[0]);
  for (const std::int64_t b : bytes) {
    EXPECT_GT(b, 0);
    EXPECT_EQ(b, bytes[0]);
  }
}

// ------------------------------------------------------- bit identity --

TEST(ElasticBitIdentity, ElasticOnWithNoFaultsMatchesElasticOff) {
  // The same binary with elastic enabled but no faults armed must
  // produce bit-identical results: generation 0 runs the exact same
  // algorithms over the exact same rank sets as the non-elastic path.
  // Both sides run the default exchanger options.
  ClimateDataset dataset(TinyData());
  TrainerOptions off = TinyElasticTrainer();
  off.elastic.enabled = false;
  TrainerOptions on = TinyElasticTrainer();

  const TrainRunResult a = RunDistributedTraining(off, dataset, 4, 4, 8);
  const TrainRunResult b = RunDistributedTraining(on, dataset, 4, 4, 8);

  EXPECT_EQ(a.loss_history, b.loss_history);
  EXPECT_EQ(a.accuracy_history, b.accuracy_history);
  EXPECT_EQ(a.survivor_param_crcs, b.survivor_param_crcs);
  EXPECT_EQ(b.final_generation, 0);
  EXPECT_EQ(b.recoveries, 0);
  EXPECT_EQ(b.resync_bytes, 0);
  EXPECT_EQ(b.final_world_size, 4);
  EXPECT_EQ(b.survived, std::vector<char>(4, 1));
}

TEST(ElasticBitIdentity, HybridTransportAlsoMatches) {
  ClimateDataset dataset(TinyData());
  TrainerOptions off = TinyElasticTrainer();
  off.exchanger.transport = ReduceTransport::kHybrid;
  off.exchanger.hybrid.topology.ranks_per_node = 2;
  off.exchanger.hybrid.mpi_ranks_per_node = 2;
  off.elastic.enabled = false;
  TrainerOptions on = off;
  on.elastic = TinyElasticTrainer().elastic;

  const TrainRunResult a = RunDistributedTraining(off, dataset, 4, 3, 8);
  const TrainRunResult b = RunDistributedTraining(on, dataset, 4, 3, 8);
  EXPECT_EQ(a.loss_history, b.loss_history);
  EXPECT_EQ(a.survivor_param_crcs, b.survivor_param_crcs);
}

// --------------------------------------------------------- chaos soak --
//
// Deterministic seeded schedule (DESIGN §13):
//   * rank 4 dies at its step-3 entry        -> generation 0 -> 1
//   * rank 1 dies mid-exchange at step 4     -> generation 1 -> 2
// Training continues on the shrunk world; survivors finish all 7 steps.

constexpr char kChaosSchedule[] =
    "elastic.kill.4:1:7:1:0:3,elastic.exchange.kill.1:1:9:1:0:4";

TrainRunResult RunChaosSoak(const ClimateDataset& dataset) {
  return RunDistributedTraining(TinyElasticTrainer(), dataset, /*ranks=*/6,
                                /*steps=*/7, /*images_per_rank=*/8);
}

void CheckChaosOutcome(const TrainRunResult& result) {
  EXPECT_EQ(result.survived,
            (std::vector<char>{1, 0, 1, 1, 0, 1}));
  EXPECT_EQ(result.final_world_size, 4);
  EXPECT_EQ(result.final_generation, 2);
  EXPECT_EQ(result.recoveries, 2);

  // Post-resync replicas are bit-identical across every survivor.
  const std::uint32_t crc = result.survivor_param_crcs[0];
  EXPECT_NE(crc, 0u);
  for (const int rank : {2, 3, 5}) {
    EXPECT_EQ(result.survivor_param_crcs[static_cast<std::size_t>(rank)],
              crc)
        << "rank " << rank << " diverged";
  }
  EXPECT_EQ(result.survivor_param_crcs[1], 0u);
  EXPECT_EQ(result.survivor_param_crcs[4], 0u);

  // Two recoveries re-broadcast the full parameter blob each time.
  RankTrainer probe(TinyElasticTrainer(),
                    std::vector<float>(
                        static_cast<std::size_t>(kNumClimateClasses), 1.0f),
                    0);
  EXPECT_EQ(result.resync_bytes,
            2 * ParameterCount(probe.model()) *
                static_cast<std::int64_t>(sizeof(float)));

  // Every step index was filled in by the lowest live rank.
  ASSERT_EQ(result.loss_history.size(), 7u);
  for (const double loss : result.loss_history) {
    EXPECT_TRUE(std::isfinite(loss));
    EXPECT_GT(loss, 0.0);
  }
  EXPECT_TRUE(std::isfinite(result.final_loss));
}

TEST(ChaosSmoke, TrainingSurvivesTwoMidRunKills) {
  FaultScope scope;
  FaultInjector& injector = FaultInjector::Global();
  // tools/ci.sh chaos-smoke drives this test through EXACLIM_FAULTS to
  // exercise the env-driven arming path; standalone runs arm the same
  // schedule programmatically.
  if (injector.ArmFromEnv() == 0) {
    injector.ArmFromString(kChaosSchedule);
  }
  obs::Enable();
  ClimateDataset dataset(TinyData());
  const TrainRunResult result = RunChaosSoak(dataset);
  CheckChaosOutcome(result);

  if (auto* g = obs::GaugeOrNull("elastic.generation")) {
    EXPECT_EQ(g->value(), 2.0);
  }
  // 5 survivors recover from the first death, 4 from the second.
  if (auto* c = obs::CounterOrNull("elastic.recoveries")) {
    EXPECT_EQ(c->value(), 9);
  }
  if (auto* c = obs::CounterOrNull("elastic.resync_bytes")) {
    EXPECT_GT(c->value(), 0);
  }
  obs::Disable();

  // Bounded loss regression: losing a third of the world mid-run must
  // not blow the loss up relative to an unfaulted reference run.
  FaultInjector::Global().Reset();
  const TrainRunResult reference = RunChaosSoak(dataset);
  EXPECT_EQ(reference.recoveries, 0);
  EXPECT_TRUE(std::isfinite(reference.final_loss));
  EXPECT_LT(result.final_loss, reference.final_loss * 1.5 + 0.5);
}

}  // namespace
}  // namespace exaclim

// Reproduces the Sec V-A3 hybrid all-reduce story:
//  * real executions of the ring, tree and hybrid (NCCL-intra +
//    sharded-MPI-inter + NCCL-broadcast) algorithms at thread scale —
//    the flat ring and tree are the group collectives over all ranks;
//  * the hybrid's measured bytes sent per rank, for the ranks that join
//    the inter-node phase and for the node-local-only ranks;
//  * wall-time of the real thread-scale algorithms on gradient-sized
//    buffers;
//  * modelled all-reduce time at Summit scale for the paper's DeepLabv3+
//    gradient (~41M parameters), flat ring vs hybrid.

#include <chrono>
#include <cstdio>
#include <vector>

#include "comm/collectives.hpp"
#include "hvd/exchanger.hpp"
#include "hvd/hybrid.hpp"
#include "netsim/scale.hpp"

namespace exaclim {
namespace {

using Clock = std::chrono::steady_clock;

struct RunStats {
  double seconds;
  std::int64_t total_messages;
  std::int64_t total_bytes;
};

template <typename Fn>
RunStats TimeCollective(int ranks, std::size_t elems, Fn&& op) {
  SimWorld world(ranks);
  const auto start = Clock::now();
  world.Run([&](Communicator& comm) {
    std::vector<float> data(elems,
                            static_cast<float>(comm.rank() + 1) * 0.25f);
    op(comm, data);
  });
  return {std::chrono::duration<double>(Clock::now() - start).count(),
          world.total_messages(), world.total_bytes()};
}

}  // namespace

int Main() {
  const int ranks = 12;  // 2 "nodes" x 6 "GPUs"
  const std::size_t elems = 1 << 20;  // 4 MB gradient buffer

  std::printf(
      "Sec V-A3 — all-reduce algorithms, executed for real over %d ranks "
      "(4 MB buffer)\n",
      ranks);
  std::printf("  %-22s %10s %10s %12s\n", "algorithm", "time [ms]", "msgs",
              "bytes [MB]");

  const RunStats ring = TimeCollective(
      ranks, elems, [](Communicator& comm, std::vector<float>& data) {
        GroupAllreduceRing(comm, RankGroup::World(comm), data, 1500);
      });
  const RunStats tree = TimeCollective(
      ranks, elems, [](Communicator& comm, std::vector<float>& data) {
        GroupAllreduceTree(comm, RankGroup::World(comm), data, 1500);
      });
  const RunStats hybrid = TimeCollective(
      ranks, elems, [](Communicator& comm, std::vector<float>& data) {
        HybridAllreduce(comm, data, {});
      });
  std::printf("  %-22s %10.1f %10lld %12.1f\n", "flat ring", ring.seconds * 1e3,
              static_cast<long long>(ring.total_messages),
              ring.total_bytes / 1e6);
  std::printf("  %-22s %10.1f %10lld %12.1f\n", "reduce+broadcast tree",
              tree.seconds * 1e3, static_cast<long long>(tree.total_messages),
              tree.total_bytes / 1e6);
  std::printf("  %-22s %10.1f %10lld %12.1f\n", "hybrid (NCCL+MPI)",
              hybrid.seconds * 1e3,
              static_cast<long long>(hybrid.total_messages),
              hybrid.total_bytes / 1e6);

  // Per-rank bytes of the hybrid. Only local ranks below
  // mpi_ranks_per_node join the inter-node shard all-reduce; the others
  // talk to their node alone.
  {
    const HybridAllreduceOptions opts;
    SimWorld world(ranks);
    std::vector<std::int64_t> sent(ranks, 0);
    world.Run([&](Communicator& comm) {
      std::vector<float> data(elems, 1.0f);
      comm.ResetCounters();
      HybridAllreduce(comm, data, opts);
      sent[static_cast<std::size_t>(comm.rank())] = comm.bytes_sent();
    });
    std::printf(
        "  hybrid bytes sent per rank [MB] (intra- plus inter-node: the "
        "counters do not split them)\n");
    for (const bool inter : {true, false}) {
      std::printf("    local rank %s %d (%s):",
                  inter ? "< " : ">=", opts.mpi_ranks_per_node,
                  inter ? "inter-node shard ranks" : "node-local only");
      for (int r = 0; r < ranks; ++r) {
        if ((opts.topology.LocalRank(r) < opts.mpi_ranks_per_node) == inter) {
          std::printf(" %.2f", sent[static_cast<std::size_t>(r)] / 1e6);
        }
      }
      std::printf("\n");
    }
  }

  // Packed FP16 wire (DESIGN §14): the exchanger rounds gradients
  // through binary16 and moves 2-byte words, halving the bytes of every
  // transport while the reduction still accumulates in FP32.
  {
    std::printf("\n  packed wire (gradient exchange, same 4 MB buffer):\n");
    for (const Precision wire : {Precision::kFP32, Precision::kFP16}) {
      SimWorld world(ranks);
      world.Run([&](Communicator& comm) {
        Param param("g", Tensor::Zeros(TensorShape{
                             static_cast<std::int64_t>(elems)}));
        param.grad.Fill(static_cast<float>(comm.rank() + 1) * 0.25f);
        ExchangerOptions opts;
        opts.transport = ReduceTransport::kMpiRing;
        opts.wire_precision = wire;
        GradientExchanger exchanger(opts);
        std::vector<Param*> params{&param};
        exchanger.Exchange(comm, params);
      });
      std::printf("  %-22s %10s %10lld %12.1f\n",
                  wire == Precision::kFP16 ? "ring, FP16 wire"
                                           : "ring, FP32 wire",
                  "", static_cast<long long>(world.total_messages()),
                  world.total_bytes() / 1e6);
    }
  }

  // ---- Modelled at Summit scale.
  ScaleOptions o;
  o.machine = MachineModel::Summit();
  o.spec = PaperDeepLabSpec(16);
  o.precision = Precision::kFP32;
  o.anchor_samples_per_sec = 0.87;
  o.anchor_tf_per_sample = 14.41;
  ScaleOptions flat = o;
  flat.hybrid_allreduce = false;
  ScaleSimulator hybrid_sim(o), flat_sim(flat);
  std::printf(
      "\nModelled all-reduce wall time for the %.0fM-parameter gradient "
      "(%.0f MB FP32):\n",
      o.spec.TotalParams() / 1e6, hybrid_sim.gradient_bytes() / 1e6);
  std::printf("  %7s %16s %16s\n", "GPUs", "flat ring [ms]", "hybrid [ms]");
  for (const int gpus : {96, 1536, 6144, 27360}) {
    std::printf("  %7d %16.1f %16.1f\n", gpus,
                flat_sim.AllreduceSeconds(gpus) * 1e3,
                hybrid_sim.AllreduceSeconds(gpus) * 1e3);
  }
  std::printf(
      "  The flat ring's latency term grows linearly with rank count;\n"
      "  the hybrid stays bounded (NVLink ring + log-depth inter-node),\n"
      "  small enough to hide behind the %.0f ms compute step.\n",
      1000.0 / 0.87);
  return 0;
}

}  // namespace exaclim

int main() { return exaclim::Main(); }

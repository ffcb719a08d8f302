// Batch-parallel convolution engine (DESIGN §9): serial-vs-parallel
// bit-exactness of gradients, the nesting-aware thread-pool policy as
// seen from conv, workspace reuse across geometry changes, the GEMM
// edge cases that rode along (k == 0, wide N), and the fused-epilogue
// chains (DESIGN §15).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "conv_oracle.hpp"
#include "nn/activation.hpp"
#include "nn/conv.hpp"
#include "nn/conv_engine.hpp"
#include "nn/norm.hpp"
#include "nn/sequential.hpp"
#include "tensor/gemm.hpp"

namespace exaclim {
namespace {

/// Restores the engine mode on scope exit so tests cannot leak state.
struct EngineModeGuard {
  bool saved = ConvBatchParallelEnabled();
  ~EngineModeGuard() { SetConvBatchParallel(saved); }
};

struct GradSnapshot {
  std::vector<float> output;
  std::vector<float> grad_input;
  std::vector<std::vector<float>> param_grads;
};

template <typename LayerT>
GradSnapshot RunStep(LayerT& layer, const Tensor& x, const Tensor& g,
                     bool parallel) {
  SetConvBatchParallel(parallel);
  for (Param* p : layer.Params()) p->grad.SetZero();
  const Tensor y = layer.Forward(x, true);
  const Tensor gx = layer.Backward(g);
  GradSnapshot snap;
  snap.output.assign(y.Data().begin(), y.Data().end());
  snap.grad_input.assign(gx.Data().begin(), gx.Data().end());
  for (Param* p : layer.Params()) {
    snap.param_grads.emplace_back(p->grad.Data().begin(),
                                  p->grad.Data().end());
  }
  return snap;
}

void ExpectBitIdentical(const std::vector<float>& a,
                        const std::vector<float>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
      << what << ": serial and parallel results differ bitwise";
}

void ExpectBitIdentical(const GradSnapshot& serial,
                        const GradSnapshot& parallel) {
  ExpectBitIdentical(serial.output, parallel.output, "output");
  ExpectBitIdentical(serial.grad_input, parallel.grad_input, "grad_input");
  ASSERT_EQ(serial.param_grads.size(), parallel.param_grads.size());
  for (std::size_t i = 0; i < serial.param_grads.size(); ++i) {
    ExpectBitIdentical(serial.param_grads[i], parallel.param_grads[i],
                       "param grad");
  }
}

class ConvEngineBitExact : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(ConvEngineBitExact, Conv2dBackwardMatchesSerialBitwise) {
  EngineModeGuard guard;
  const std::int64_t batch = GetParam();
  Rng rng(7);
  Conv2d conv("c", {.in_c = 5, .out_c = 4, .kernel = 3}, rng);
  Rng xrng(11);
  const Tensor x = Tensor::Uniform(TensorShape::NCHW(batch, 5, 9, 8), xrng,
                                   -1.0f, 1.0f);
  Rng grng(13);
  const Tensor g =
      Tensor::Uniform(conv.OutputShape(x.shape()), grng, -1.0f, 1.0f);

  const GradSnapshot serial = RunStep(conv, x, g, /*parallel=*/false);
  const GradSnapshot parallel = RunStep(conv, x, g, /*parallel=*/true);
  ExpectBitIdentical(serial, parallel);
}

TEST_P(ConvEngineBitExact, PointwiseConvBackwardMatchesSerialBitwise) {
  EngineModeGuard guard;
  const std::int64_t batch = GetParam();
  Rng rng(17);
  Conv2d conv("p", {.in_c = 6, .out_c = 3, .kernel = 1, .pad = 0}, rng);
  Rng xrng(19);
  const Tensor x = Tensor::Uniform(TensorShape::NCHW(batch, 6, 7, 7), xrng,
                                   -1.0f, 1.0f);
  Rng grng(23);
  const Tensor g =
      Tensor::Uniform(conv.OutputShape(x.shape()), grng, -1.0f, 1.0f);

  const GradSnapshot serial = RunStep(conv, x, g, /*parallel=*/false);
  const GradSnapshot parallel = RunStep(conv, x, g, /*parallel=*/true);
  ExpectBitIdentical(serial, parallel);
}

TEST_P(ConvEngineBitExact, ConvTransposeBackwardMatchesSerialBitwise) {
  EngineModeGuard guard;
  const std::int64_t batch = GetParam();
  Rng rng(29);
  ConvTranspose2d deconv(
      "d", {.in_c = 4, .out_c = 3, .kernel = 3, .stride = 2, .out_pad = 1},
      rng);
  Rng xrng(31);
  const Tensor x = Tensor::Uniform(TensorShape::NCHW(batch, 4, 5, 6), xrng,
                                   -1.0f, 1.0f);
  Rng grng(37);
  const Tensor g =
      Tensor::Uniform(deconv.OutputShape(x.shape()), grng, -1.0f, 1.0f);

  const GradSnapshot serial = RunStep(deconv, x, g, /*parallel=*/false);
  const GradSnapshot parallel = RunStep(deconv, x, g, /*parallel=*/true);
  ExpectBitIdentical(serial, parallel);
}

INSTANTIATE_TEST_SUITE_P(Batches, ConvEngineBitExact,
                         ::testing::Values(1, 3, 8));

// The shard partition must cover the batch exactly once, in order.
TEST(ConvEngine, ShardRangesPartitionTheBatch) {
  for (const std::int64_t n : {1, 2, 3, 7, 8, 16, 17, 33}) {
    const std::int64_t shards = ConvGradShards(n);
    EXPECT_GE(shards, 1);
    EXPECT_LE(shards, n);
    std::int64_t expect_lo = 0;
    for (std::int64_t s = 0; s < shards; ++s) {
      const ConvShardRange r = ShardImageRange(n, shards, s);
      EXPECT_EQ(r.lo, expect_lo) << "n=" << n << " s=" << s;
      EXPECT_LE(r.lo, r.hi);
      expect_lo = r.hi;
    }
    EXPECT_EQ(expect_lo, n) << "n=" << n;
  }
}

// With the engine disabled, shards run serially in shard order on the
// calling thread.
TEST(ConvEngine, DisabledModeRunsShardsInOrder) {
  EngineModeGuard guard;
  SetConvBatchParallel(false);
  std::vector<std::int64_t> order;
  RunConvShards(5, [&](std::int64_t s) { order.push_back(s); });
  EXPECT_EQ(order, (std::vector<std::int64_t>{0, 1, 2, 3, 4}));
}

// The per-layer workspace must resize correctly when the same layer sees
// different input geometries (e.g. multi-scale evaluation).
TEST(ConvEngine, WorkspaceSurvivesGeometryChanges) {
  EngineModeGuard guard;
  SetConvBatchParallel(true);
  Rng rng(41);
  Conv2d conv("c", {.in_c = 3, .out_c = 4, .kernel = 3}, rng);
  Rng rng2(41);
  Conv2d fresh("c", {.in_c = 3, .out_c = 4, .kernel = 3}, rng2);
  for (const auto& [h, w, batch] :
       {std::tuple{8, 8, 4}, {12, 10, 2}, {6, 14, 8}, {8, 8, 4}}) {
    Rng xrng(static_cast<std::uint64_t>(h * 100 + w));
    const Tensor x = Tensor::Uniform(TensorShape::NCHW(batch, 3, h, w),
                                     xrng, -1.0f, 1.0f);
    const Tensor got = conv.Forward(x, false);
    const Tensor want = fresh.Forward(x, false);
    ASSERT_EQ(got.shape(), want.shape());
    EXPECT_EQ(0, std::memcmp(got.Raw(), want.Raw(),
                             static_cast<std::size_t>(got.NumElements()) *
                                 sizeof(float)))
        << h << "x" << w;
  }
}

// Default "same" padding must account for dilation: a 3x3 rate-2/4 conv
// with pad = -1 keeps the spatial map (the ASPP configuration).
TEST(ConvEngine, SamePadDefaultScalesWithDilation) {
  Rng rng(43);
  for (const std::int64_t d : {1, 2, 4}) {
    Conv2d conv("a", {.in_c = 2, .out_c = 2, .kernel = 3, .dilation = d},
                rng);
    EXPECT_EQ(conv.options().pad, d) << "dilation " << d;
    const auto out = conv.OutputShape(TensorShape::NCHW(1, 2, 12, 16));
    EXPECT_EQ(out, TensorShape::NCHW(1, 2, 12, 16)) << "dilation " << d;
  }
  Conv2d k5("k5", {.in_c = 2, .out_c = 2, .kernel = 5, .dilation = 3}, rng);
  EXPECT_EQ(k5.options().pad, 6);
}

// k == 0 with beta == 0 must overwrite C (BLAS semantics), even when C
// holds NaN/Inf garbage from an uninitialised or reused buffer.
TEST(GemmEdge, ZeroKBetaZeroOverwritesGarbage) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> c{nan, inf, -inf, 3.5f};
  Gemm(false, false, 2, 2, 0, 1.0f, nullptr, nullptr, 0.0f, c.data());
  for (const float v : c) EXPECT_EQ(v, 0.0f);

  std::vector<float> c2{1.0f, 2.0f, 3.0f, 4.0f};
  Gemm(false, false, 2, 2, 0, 1.0f, nullptr, nullptr, 0.5f, c2.data());
  EXPECT_EQ(c2, (std::vector<float>{0.5f, 1.0f, 1.5f, 2.0f}));

  std::vector<float> c3{1.0f, 2.0f, 3.0f, 4.0f};
  Gemm(false, false, 2, 2, 0, 1.0f, nullptr, nullptr, 1.0f, c3.data());
  EXPECT_EQ(c3, (std::vector<float>{1.0f, 2.0f, 3.0f, 4.0f}));
}

// Wide-N GEMM (one NC block of C columns, three rows) against a naive
// reference.
TEST(GemmEdge, WideNMatchesNaiveReference) {
  const std::int64_t m = 3, n = 2048, k = 5;
  Rng rng(47);
  const Tensor a = Tensor::Uniform(TensorShape{m, k}, rng, -1.0f, 1.0f);
  const Tensor b = Tensor::Uniform(TensorShape{k, n}, rng, -1.0f, 1.0f);
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
  Gemm(false, false, m, n, k, 1.0f, a.Raw(), b.Raw(), 0.0f, c.data());
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; j += 97) {
      double want = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        want += static_cast<double>(a[static_cast<std::size_t>(i * k + p)]) *
                b[static_cast<std::size_t>(p * n + j)];
      }
      EXPECT_NEAR(c[static_cast<std::size_t>(i * n + j)], want, 1e-4)
          << i << "," << j;
    }
  }
}

// ---------------------- fused epilogue chains (DESIGN §15) --------------

/// Restores the fusion knob on scope exit.
struct FusionGuard {
  bool saved = ConvFusionEnabled();
  ~FusionGuard() { SetConvFusion(saved); }
};

std::vector<float> Snapshot(const Tensor& t) {
  return {t.Data().begin(), t.Data().end()};
}

/// Runs one forward+backward step through a Conv2d(→BN)(→ReLU) chain with
/// fusion on or off, returning bitwise-comparable results. All RNG seeds
/// are fixed, so two calls differ only in the knobs under test.
GradSnapshot RunChainStep(bool fuse, bool with_bn, bool with_relu,
                          const Conv2d::Options& copts, bool train) {
  FusionGuard guard;
  SetConvFusion(fuse);
  Rng rng(91);
  Sequential seq("chain");
  seq.Emplace<Conv2d>("c", copts, rng);
  if (with_bn) seq.Emplace<BatchNorm2d>("bn", copts.out_c);
  if (with_relu) seq.Emplace<ReLU>("r");

  // Warm the BN running stats (and every pooled buffer) with a training
  // step, then measure the step under test.
  Rng wrng(93);
  const Tensor warm = Tensor::Uniform(
      TensorShape::NCHW(2, copts.in_c, 8, 8), wrng, -1.0f, 1.0f);
  (void)seq.Forward(warm, true);

  Rng xrng(95);
  const Tensor x = Tensor::Uniform(TensorShape::NCHW(2, copts.in_c, 8, 8),
                                   xrng, -1.0f, 1.0f);
  for (Param* p : seq.Params()) p->grad.SetZero();
  const Tensor y = seq.Forward(x, train);
  Rng grng(97);
  const Tensor g = Tensor::Uniform(y.shape(), grng, -1.0f, 1.0f);
  const Tensor gx = seq.Backward(g);

  GradSnapshot snap;
  snap.output = Snapshot(y);
  snap.grad_input = Snapshot(gx);
  for (Param* p : seq.Params()) snap.param_grads.push_back(Snapshot(p->grad));
  return snap;
}

constexpr Conv2d::Options kChain3x3{.in_c = 3, .out_c = 4};
constexpr Conv2d::Options kChainPointwise{.in_c = 3, .out_c = 4,
                                          .kernel = 1, .pad = 0};

void ExpectChainBitIdentical(bool with_bn, bool with_relu,
                             const Conv2d::Options& copts, bool train) {
  const GradSnapshot fused =
      RunChainStep(/*fuse=*/true, with_bn, with_relu, copts, train);
  const GradSnapshot unfused =
      RunChainStep(/*fuse=*/false, with_bn, with_relu, copts, train);
  ExpectBitIdentical(unfused, fused);
}

// Training: the conv's bias folds into the GEMM epilogue and the BN+ReLU
// collapse into one in-place sweep that still fills every backward cache.
TEST(ConvFusion, TrainChainMatchesUnfusedBitwise) {
  ExpectChainBitIdentical(/*with_bn=*/true, /*with_relu=*/true, kChain3x3,
                          /*train=*/true);
}

// Inference: the whole BN affine (from running stats) plus the ReLU fold
// into the GEMM epilogue — and Backward after the folded eval forward
// (the gradcheck pattern) still matches bitwise.
TEST(ConvFusion, EvalFoldMatchesUnfusedBitwise) {
  ExpectChainBitIdentical(/*with_bn=*/true, /*with_relu=*/true, kChain3x3,
                          /*train=*/false);
}

TEST(ConvFusion, ConvBnChainWithoutReluMatchesUnfused) {
  ExpectChainBitIdentical(/*with_bn=*/true, /*with_relu=*/false, kChain3x3,
                          /*train=*/true);
  ExpectChainBitIdentical(/*with_bn=*/true, /*with_relu=*/false, kChain3x3,
                          /*train=*/false);
}

TEST(ConvFusion, ConvReluChainMatchesUnfused) {
  ExpectChainBitIdentical(/*with_bn=*/false, /*with_relu=*/true, kChain3x3,
                          /*train=*/true);
  ExpectChainBitIdentical(/*with_bn=*/false, /*with_relu=*/true, kChain3x3,
                          /*train=*/false);
}

// The pointwise branch (a GEMM straight on the activation map) writes C
// through the packed engine too, so the full eval fold applies there.
TEST(ConvFusion, PointwiseFastPathFusesBitExact) {
  ExpectChainBitIdentical(/*with_bn=*/true, /*with_relu=*/true,
                          kChainPointwise, /*train=*/true);
  ExpectChainBitIdentical(/*with_bn=*/true, /*with_relu=*/true,
                          kChainPointwise, /*train=*/false);
}

// ------------- TSan stress: the fused path's threaded writebacks --------
//
// The fused eval fold writes four output streams from the GEMM's parallel
// MR-strip tasks (C, the bias add, BatchNorm's x_hat cache and the ReLU
// mask); the train path layers an in-place BN sweep over plane-parallel
// loops. Any cross-strip overlap in those writebacks is TSan-visible
// here — this binary carries the `stress` label the TSan preset runs —
// and every round must reproduce round 0 bitwise.
TEST(ConvFusionStress, HammeredFusedChainIsRaceFreeAndBitStable) {
  for (const bool train : {true, false}) {
    GradSnapshot reference;
    for (int round = 0; round < 15; ++round) {
      GradSnapshot snap = RunChainStep(/*fuse=*/true, /*with_bn=*/true,
                                       /*with_relu=*/true, kChain3x3, train);
      if (round == 0) {
        reference = std::move(snap);
      } else {
        ExpectBitIdentical(reference, snap);
      }
    }
  }
}

// Several fused chains training and folding concurrently from caller
// threads, all sharding onto the one global pool (the multi-tower usage
// pattern). Each chain owns its layers and workspaces; nothing may bleed
// across, and each thread's eval fold must be bit-stable round to round.
TEST(ConvFusionStress, ConcurrentFusedChainsShareGlobalPool) {
  FusionGuard guard;
  SetConvFusion(true);
  constexpr int kChains = 4;
  std::vector<std::thread> threads;
  threads.reserve(kChains);
  std::vector<std::vector<float>> firsts(kChains);
  for (int t = 0; t < kChains; ++t) {
    threads.emplace_back([&firsts, t] {
      Rng rng(120 + static_cast<std::uint64_t>(t));
      Sequential seq("chain" + std::to_string(t));
      seq.Emplace<Conv2d>("c", kChain3x3, rng);
      seq.Emplace<BatchNorm2d>("bn", kChain3x3.out_c);
      seq.Emplace<ReLU>("r");
      Rng xrng(130 + static_cast<std::uint64_t>(t));
      const Tensor x = Tensor::Uniform(TensorShape::NCHW(2, kChain3x3.in_c,
                                                         8, 8),
                                       xrng, -1.0f, 1.0f);
      (void)seq.Forward(x, /*train=*/true);  // warm BN stats + buffers
      std::vector<float> first;
      for (int round = 0; round < 10; ++round) {
        const Tensor y = seq.Forward(x, /*train=*/false);  // eval fold
        if (round == 0) {
          first = Snapshot(y);
        } else {
          EXPECT_TRUE(Snapshot(y) == first)
              << "chain " << t << " diverged at round " << round;
        }
      }
      firsts[static_cast<std::size_t>(t)] = std::move(first);
    });
  }
  for (auto& th : threads) th.join();
  for (const auto& f : firsts) EXPECT_FALSE(f.empty());
}

// Concurrent implicit backward passes (DESIGN §15) from caller threads,
// all sharding onto the one global pool: each thread's Conv2d (strided,
// so the per-shard phase scratch is live) and ConvTranspose2d must match
// the materialized oracle bitwise on every round. The tap panels and
// row tables are shared read-only across a layer's shards, the phase
// scratch is per shard — any overlap is TSan-visible here.
TEST(ConvBackwardStress, ConcurrentBackwardMatchesOracle) {
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      const auto seed = static_cast<std::uint64_t>(140 + t);
      Rng rng(seed);
      Conv2d conv("c", {.in_c = 5, .out_c = 7, .kernel = 3, .stride = 2,
                        .pad = 1},
                  rng);
      ConvTranspose2d deconv(
          "d", {.in_c = 4, .out_c = 3, .kernel = 3, .stride = 2,
                .out_pad = 1},
          rng);
      Rng xrng(seed + 10);
      const Tensor x = Tensor::Uniform(TensorShape::NCHW(4, 5, 11, 9), xrng,
                                       -1.0f, 1.0f);
      const Tensor xd = Tensor::Uniform(TensorShape::NCHW(3, 4, 5, 6), xrng,
                                        -1.0f, 1.0f);
      (void)conv.Forward(x, /*train=*/true);
      const Tensor g =
          Tensor::Uniform(conv.OutputShape(x.shape()), xrng, -1.0f, 1.0f);
      const Tensor gd =
          Tensor::Uniform(deconv.OutputShape(xd.shape()), xrng, -1.0f, 1.0f);
      MaterializedConvOracle oracle;
      const std::vector<float> want_gx =
          Snapshot(oracle.Conv2dBackward(conv, x, g).grad_input);
      const std::vector<float> want_gw =
          Snapshot(oracle.Conv2dBackward(conv, x, g).weight_grad);
      const std::vector<float> want_y =
          Snapshot(oracle.ConvTranspose2dForward(deconv, xd).output);
      const std::vector<float> want_gxd =
          Snapshot(oracle.ConvTranspose2dBackward(deconv, xd, gd).grad_input);
      const auto same_bits = [](const Tensor& got,
                                const std::vector<float>& want) {
        return static_cast<std::size_t>(got.NumElements()) == want.size() &&
               std::memcmp(got.Raw(), want.data(),
                           want.size() * sizeof(float)) == 0;
      };
      for (int round = 0; round < 8; ++round) {
        for (Param* p : conv.Params()) p->grad.SetZero();
        (void)conv.Forward(x, /*train=*/true);
        EXPECT_TRUE(same_bits(conv.Backward(g), want_gx))
            << "thread " << t << " round " << round;
        EXPECT_TRUE(same_bits(conv.weight().grad, want_gw))
            << "thread " << t << " round " << round;
        EXPECT_TRUE(same_bits(deconv.Forward(xd, /*train=*/true), want_y))
            << "thread " << t << " round " << round;
        EXPECT_TRUE(same_bits(deconv.Backward(gd), want_gxd))
            << "thread " << t << " round " << round;
      }
    });
  }
  for (auto& th : threads) th.join();
}

// A conv issued while the engine is batch-parallel must keep its nested
// GEMMs inline: InParallelRegion is observable from inside a shard when
// the pool actually forked.
TEST(ConvEngine, NestedParallelForFromShardRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> nested_inline{0};
  pool.ParallelFor(
      0, 8,
      [&](std::size_t lo, std::size_t hi) {
        EXPECT_TRUE(ThreadPool::InParallelRegion());
        // A nested call must run inline over the full range, exactly once.
        int calls = 0;
        std::size_t seen = 0;
        pool.ParallelFor(
            0, 1000,
            [&](std::size_t b, std::size_t e) {
              ++calls;
              seen += e - b;
            },
            /*grain=*/1);
        EXPECT_EQ(calls, 1);
        EXPECT_EQ(seen, 1000u);
        nested_inline.fetch_add(static_cast<int>(hi - lo));
      },
      /*grain=*/1);
  EXPECT_EQ(nested_inline.load(), 8);
  EXPECT_FALSE(ThreadPool::InParallelRegion());
}

}  // namespace
}  // namespace exaclim

// Microbenchmarks of the convolution layer variants (plain, strided,
// atrous, transposed) and the FP16 emulation overhead — plus the
// batch-parallel engine comparison, which times forward+backward in both
// engine modes, the implicit-vs-materialized forward and backward A/Bs,
// and the fused-epilogue chains, recording them through BenchReport
// (BENCH_micro_conv.json, the repo's conv perf-trajectory datapoint; the
// ci.sh perf-smoke stage gates them). The materialized forward and
// backward are the test oracle from tests/.
//
// Custom main: google-benchmark cases run first (skip them with
// --benchmark_filter='-.*'), then the engine comparison.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "conv_oracle.hpp"
#include "nn/activation.hpp"
#include "nn/conv.hpp"
#include "nn/conv_engine.hpp"
#include "nn/norm.hpp"
#include "nn/sequential.hpp"
#include "obs/bench_report.hpp"
#include "stats/stats.hpp"

namespace exaclim {
namespace {

Tensor Input(std::int64_t c, std::int64_t h, std::int64_t w) {
  Rng rng(1);
  return Tensor::Uniform(TensorShape::NCHW(1, c, h, w), rng, -1, 1);
}

void BM_Conv2dForward(benchmark::State& state) {
  Rng rng(2);
  Conv2d conv("c", {.in_c = 32, .out_c = 32}, rng);
  const Tensor x = Input(32, 48, 48);
  for (auto _ : state) {
    Tensor y = conv.Forward(x, false);
    benchmark::DoNotOptimize(y.Raw());
  }
}
BENCHMARK(BM_Conv2dForward);

void BM_Conv2dBackward(benchmark::State& state) {
  Rng rng(3);
  Conv2d conv("c", {.in_c = 32, .out_c = 32}, rng);
  const Tensor x = Input(32, 48, 48);
  const Tensor y = conv.Forward(x, true);
  Rng grng(4);
  const Tensor g = Tensor::Uniform(y.shape(), grng, -1, 1);
  for (auto _ : state) {
    (void)conv.Forward(x, true);
    Tensor gx = conv.Backward(g);
    benchmark::DoNotOptimize(gx.Raw());
  }
}
BENCHMARK(BM_Conv2dBackward);

void BM_Conv2dAtrous(benchmark::State& state) {
  const auto d = static_cast<std::int64_t>(state.range(0));
  Rng rng(5);
  Conv2d conv("c",
              {.in_c = 32, .out_c = 32, .kernel = 3, .pad = d, .dilation = d},
              rng);
  const Tensor x = Input(32, 48, 48);
  for (auto _ : state) {
    Tensor y = conv.Forward(x, false);
    benchmark::DoNotOptimize(y.Raw());
  }
}
BENCHMARK(BM_Conv2dAtrous)->Arg(1)->Arg(4)->Arg(12);

void BM_ConvTranspose2d(benchmark::State& state) {
  Rng rng(6);
  ConvTranspose2d deconv(
      "d", {.in_c = 32, .out_c = 32, .kernel = 3, .stride = 2, .pad = 1,
            .out_pad = 1},
      rng);
  const Tensor x = Input(32, 24, 24);
  for (auto _ : state) {
    Tensor y = deconv.Forward(x, false);
    benchmark::DoNotOptimize(y.Raw());
  }
}
BENCHMARK(BM_ConvTranspose2d);

void BM_Conv2dForwardFP16Emulation(benchmark::State& state) {
  Rng rng(7);
  Conv2d conv("c", {.in_c = 32, .out_c = 32}, rng);
  conv.SetPrecision(Precision::kFP16);
  const Tensor x = Input(32, 48, 48);
  for (auto _ : state) {
    Tensor y = conv.Forward(x, false);
    benchmark::DoNotOptimize(y.Raw());
  }
}
BENCHMARK(BM_Conv2dForwardFP16Emulation);

// ------------------------------------------ engine mode comparison -----

using Clock = std::chrono::steady_clock;

double TimeStepMs(Conv2d& conv, const Tensor& x, const Tensor& g) {
  for (Param* p : conv.Params()) p->grad.SetZero();
  const auto start = Clock::now();
  (void)conv.Forward(x, true);
  Tensor gx = conv.Backward(g);
  benchmark::DoNotOptimize(gx.Raw());
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Times forward+backward of a Tiramisu-growth-scale 3x3 conv at several
// batch sizes, serial batch walk vs batch-parallel engine.
void RunEngineComparison(obs::BenchReport& report) {
  constexpr int kRounds = 5;
  std::printf(
      "\nbatch-parallel conv engine (3x3 32->32 on 48x48, fwd+bwd, "
      "median of %d):\n  %5s %12s %14s %9s\n",
      kRounds, "batch", "serial [ms]", "parallel [ms]", "speedup");
  for (const std::int64_t batch : {1, 4, 8}) {
    Rng rng(2);
    Conv2d conv("c", {.in_c = 32, .out_c = 32}, rng);
    Rng xrng(3);
    const Tensor x = Tensor::Uniform(TensorShape::NCHW(batch, 32, 48, 48),
                                     xrng, -1, 1);
    Rng grng(4);
    const Tensor g =
        Tensor::Uniform(conv.OutputShape(x.shape()), grng, -1, 1);

    double medians[2] = {0, 0};
    for (const bool parallel : {false, true}) {
      SetConvBatchParallel(parallel);
      (void)TimeStepMs(conv, x, g);  // warm-up (sizes the workspace)
      std::vector<double> times;
      times.reserve(kRounds);
      for (int r = 0; r < kRounds; ++r) {
        times.push_back(TimeStepMs(conv, x, g));
      }
      const std::string metric =
          std::string("fwd_bwd_") + (parallel ? "parallel" : "serial") +
          "_b" + std::to_string(batch) + "_ms";
      report.AddSeries(metric, times);
      medians[parallel ? 1 : 0] = Summarize(times).median;
    }
    SetConvBatchParallel(true);
    const double speedup = medians[1] > 0 ? medians[0] / medians[1] : 0;
    std::printf("  %5lld %12.3f %14.3f %8.2fx\n",
                static_cast<long long>(batch), medians[0], medians[1],
                speedup);
    if (batch > 1) {
      report.AddScalar("speedup_parallel_b" + std::to_string(batch),
                       speedup);
    }
  }
}

double TimeForwardMs(Layer& layer, const Tensor& x) {
  const auto start = Clock::now();
  Tensor y = layer.Forward(x, false);
  benchmark::DoNotOptimize(y.Raw());
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// ----------------------- implicit vs materialized forward / backward ---

// The shapes both oracle A/Bs time (ci.sh gates each of them).
struct AbShape {
  const char* name;
  Conv2d::Options opts;
  std::int64_t h, w, batch;
};
const AbShape kAbShapes[] = {
    {"b4", {.in_c = 32, .out_c = 32}, 48, 48, 4},  // the conv-tile shape
    {"atrous",
     {.in_c = 32, .out_c = 32, .kernel = 3, .pad = 4, .dilation = 4}, 48, 48,
     2},
    {"stride2",
     {.in_c = 16, .out_c = 32, .kernel = 3, .stride = 2, .pad = 1}, 96, 96,
     2},
};

double TimeOracleForwardMs(MaterializedConvOracle& oracle, Conv2d& conv,
                           const Tensor& x) {
  const auto start = Clock::now();
  const OracleResult& r = oracle.Conv2dForward(conv, x);
  benchmark::DoNotOptimize(r.output.Raw());
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Forward timing of the implicit B-panel gather against the materialized
// im2col oracle it replaced (bit-identical outputs, so a pure perf A/B),
// plus the col-buffer footprint the implicit path eliminates per image.
void RunForwardComparison(obs::BenchReport& report) {
  constexpr int kRounds = 7;
  std::printf(
      "\nimplicit vs materialized forward (median of %d):\n"
      "  %8s %12s %14s %9s %14s\n",
      kRounds, "shape", "oracle [ms]", "implicit [ms]", "speedup",
      "col bytes/img");
  for (const AbShape& s : kAbShapes) {
    Rng xrng(3);
    const Tensor x = Tensor::Uniform(
        TensorShape::NCHW(s.batch, s.opts.in_c, s.h, s.w), xrng, -1, 1);
    Rng rng(2);
    Conv2d conv("c", s.opts, rng);
    const TensorShape out = conv.OutputShape(x.shape());
    const std::int64_t col_bytes =
        s.opts.in_c * s.opts.kernel * s.opts.kernel * out.h() * out.w() *
        static_cast<std::int64_t>(sizeof(float));
    MaterializedConvOracle oracle;
    // Warm-up sizes the workspaces, row tables and col buffers.
    (void)TimeOracleForwardMs(oracle, conv, x);
    (void)TimeForwardMs(conv, x);
    std::vector<double> times[2];
    for (int r = 0; r < kRounds; ++r) {
      // Alternate so both sides see the same machine state.
      times[0].push_back(TimeOracleForwardMs(oracle, conv, x));
      times[1].push_back(TimeForwardMs(conv, x));
    }
    report.AddSeries(std::string("conv_fwd_oracle_") + s.name + "_ms",
                     times[0]);
    report.AddSeries(std::string("conv_fwd_implicit_") + s.name + "_ms",
                     times[1]);
    const double oracle_ms = Summarize(times[0]).median;
    const double implicit_ms = Summarize(times[1]).median;
    const double speedup = implicit_ms > 0 ? oracle_ms / implicit_ms : 0;
    report.AddScalar(std::string("implicit_fwd_speedup_") + s.name, speedup);
    report.AddScalar(std::string("col_bytes_eliminated_") + s.name,
                     static_cast<double>(col_bytes));
    std::printf("  %8s %12.3f %14.3f %8.2fx %14lld\n", s.name, oracle_ms,
                implicit_ms, speedup, static_cast<long long>(col_bytes));
  }
}

double TimeBackwardMs(Conv2d& conv, const Tensor& g) {
  for (Param* p : conv.Params()) p->grad.SetZero();
  const auto start = Clock::now();
  Tensor gx = conv.Backward(g);
  benchmark::DoNotOptimize(gx.Raw());
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double TimeOracleMs(MaterializedConvOracle& oracle, Conv2d& conv,
                    const Tensor& x, const Tensor& g) {
  const auto start = Clock::now();
  const OracleResult& r = oracle.Conv2dBackward(conv, x, g);
  benchmark::DoNotOptimize(r.grad_input.Raw());
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Backward timing of the implicit path (weight gradient gathered from
// the cached input, data gradient one tap panel at a time) against the
// materialized im2col / grad-col / Col2Im oracle it replaced (bit-
// identical gradients, so a pure perf A/B), plus the grad-col footprint
// the implicit path eliminates per image.
void RunBackwardComparison(obs::BenchReport& report) {
  constexpr int kRounds = 7;
  std::printf(
      "\nimplicit vs materialized backward (median of %d):\n"
      "  %8s %14s %14s %9s %16s\n",
      kRounds, "shape", "oracle [ms]", "implicit [ms]", "speedup",
      "grad-col bytes/img");
  for (const AbShape& s : kAbShapes) {
    Rng xrng(3);
    const Tensor x = Tensor::Uniform(
        TensorShape::NCHW(s.batch, s.opts.in_c, s.h, s.w), xrng, -1, 1);
    Rng rng(2);
    Conv2d conv("c", s.opts, rng);
    (void)conv.Forward(x, true);
    Rng grng(4);
    const Tensor g =
        Tensor::Uniform(conv.OutputShape(x.shape()), grng, -1, 1);
    const TensorShape out = g.shape();
    const std::int64_t grad_col_bytes =
        s.opts.in_c * s.opts.kernel * s.opts.kernel * out.h() * out.w() *
        static_cast<std::int64_t>(sizeof(float));
    MaterializedConvOracle oracle;
    // Warm-up sizes the workspaces, row tables and col buffers.
    (void)TimeOracleMs(oracle, conv, x, g);
    (void)TimeBackwardMs(conv, g);
    std::vector<double> times[2];
    for (int r = 0; r < kRounds; ++r) {
      // Alternate so both sides see the same machine state.
      times[0].push_back(TimeOracleMs(oracle, conv, x, g));
      times[1].push_back(TimeBackwardMs(conv, g));
    }
    report.AddSeries(std::string("conv_bwd_oracle_") + s.name + "_ms",
                     times[0]);
    report.AddSeries(std::string("conv_bwd_implicit_") + s.name + "_ms",
                     times[1]);
    const double oracle_ms = Summarize(times[0]).median;
    const double implicit_ms = Summarize(times[1]).median;
    const double speedup = implicit_ms > 0 ? oracle_ms / implicit_ms : 0;
    report.AddScalar(std::string("implicit_bwd_speedup_") + s.name, speedup);
    report.AddScalar(std::string("grad_col_bytes_eliminated_") + s.name,
                     static_cast<double>(grad_col_bytes));
    std::printf("  %8s %14.3f %14.3f %8.2fx %16lld\n", s.name, oracle_ms,
                implicit_ms, speedup, static_cast<long long>(grad_col_bytes));
  }
}

// ---------------------------------------- fused epilogue chains --------

// Eval-mode Conv2d→BatchNorm2d→ReLU: unfused layer walk vs the fused
// GEMM-epilogue fold (bias + BN scale/shift + ReLU in the C writeback).
void RunFusionComparison(obs::BenchReport& report) {
  constexpr int kRounds = 7;
  struct Shape {
    const char* name;
    Conv2d::Options opts;
    std::int64_t h, w, batch;
  };
  const Shape shapes[] = {
      {"tile", {.in_c = 32, .out_c = 32}, 48, 48, 4},  // conv-tile 3x3
      {"pointwise", {.in_c = 32, .out_c = 48, .kernel = 1, .pad = 0},
       64, 64, 4},
  };
  const bool saved_fuse = ConvFusionEnabled();
  std::printf(
      "\nfused conv->BN->ReLU epilogue (eval forward, median of %d):\n"
      "  %10s %13s %11s %9s\n",
      kRounds, "shape", "unfused [ms]", "fused [ms]", "speedup");
  for (const Shape& s : shapes) {
    Rng xrng(3);
    const Tensor x = Tensor::Uniform(
        TensorShape::NCHW(s.batch, s.opts.in_c, s.h, s.w), xrng, -1, 1);
    double medians[2] = {0, 0};
    for (const bool fuse : {false, true}) {
      SetConvFusion(fuse);
      Rng rng(2);
      Sequential seq("chain");
      seq.Emplace<Conv2d>("c", s.opts, rng);
      seq.Emplace<BatchNorm2d>("bn", s.opts.out_c);
      seq.Emplace<ReLU>("r");
      (void)seq.Forward(x, true);   // warm running stats + buffers
      (void)TimeForwardMs(seq, x);  // warm the eval path
      std::vector<double> times;
      times.reserve(kRounds);
      for (int r = 0; r < kRounds; ++r) {
        times.push_back(TimeForwardMs(seq, x));
      }
      const std::string metric = std::string("conv_") +
                                 (fuse ? "fused_" : "unfused_") + s.name +
                                 "_eval_ms";
      report.AddSeries(metric, times);
      medians[fuse ? 1 : 0] = Summarize(times).median;
    }
    const double speedup = medians[1] > 0 ? medians[0] / medians[1] : 0;
    report.AddScalar(std::string("fused_speedup_") + s.name, speedup);
    std::printf("  %10s %13.3f %11.3f %8.2fx\n", s.name, medians[0],
                medians[1], speedup);
  }
  SetConvFusion(saved_fuse);
}

void RunComparisons() {
  obs::BenchReport report("micro_conv");
  report.AddScalar("threads",
                   static_cast<double>(ThreadPool::Global().size() + 1));
  RunEngineComparison(report);
  RunForwardComparison(report);
  RunBackwardComparison(report);
  RunFusionComparison(report);
  const auto path = report.WriteJsonFile();
  if (!path.empty()) std::printf("  wrote %s\n", path.string().c_str());
}

}  // namespace
}  // namespace exaclim

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  exaclim::RunComparisons();
  return 0;
}

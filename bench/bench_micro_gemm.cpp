// Microbenchmarks of the GEMM engine that backs convolution — the CPU
// stand-in for the cuDNN implicit-GEMM kernels — plus the kernel engine
// comparison, which times the packed microkernel engine against the
// pre-engine blocked walk (defined below, the baseline only) and records
// GFLOP/s through BenchReport (BENCH_micro_gemm.json; the ci.sh
// perf-smoke stage asserts the reference never beats the packed engine).
//
// Custom main: google-benchmark cases run first (skip them with
// --benchmark_filter='-.*'), then the kernel comparison.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "obs/bench_report.hpp"
#include "stats/stats.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_kernel.hpp"

namespace exaclim {
namespace {

void BM_GemmSquare(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  Rng rng(1);
  std::vector<float> a(static_cast<std::size_t>(n * n));
  std::vector<float> b(static_cast<std::size_t>(n * n));
  std::vector<float> c(static_cast<std::size_t>(n * n));
  for (auto& v : a) v = rng.Uniform(-1, 1);
  for (auto& v : b) v = rng.Uniform(-1, 1);
  for (auto _ : state) {
    Gemm(false, false, n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * n * n * n * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmSquare)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_GemmConvShaped(benchmark::State& state) {
  // The im2col shape of a 3x3 conv, 64->64 channels on a 48x48 image:
  // C[64, 2304] = W[64, 576] * col[576, 2304].
  const std::int64_t m = 64, k = 576, n = 2304;
  Rng rng(2);
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (auto& v : a) v = rng.Uniform(-1, 1);
  for (auto& v : b) v = rng.Uniform(-1, 1);
  for (auto _ : state) {
    Gemm(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * m * n * k * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmConvShaped);

void BM_GemmTransposed(benchmark::State& state) {
  // Weight-gradient shape: gW[m,k] = gy[m,n] * col[k,n]^T.
  const std::int64_t m = 64, n = 2304, k = 576;
  Rng rng(3);
  std::vector<float> a(static_cast<std::size_t>(m * n));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  std::vector<float> c(static_cast<std::size_t>(m * k));
  for (auto& v : a) v = rng.Uniform(-1, 1);
  for (auto& v : b) v = rng.Uniform(-1, 1);
  for (auto _ : state) {
    Gemm(false, true, m, k, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_GemmTransposed);

// ------------------------------------------ kernel engine comparison ---

// The pre-engine flat cache-blocked GEMM walk, kept here as the timing
// baseline the packed microkernel engine (tensor/gemm_kernel.hpp) must
// beat. It is no longer a runtime choice.
constexpr std::int64_t kBlockM = 64;
constexpr std::int64_t kBlockN = 256;
constexpr std::int64_t kBlockK = 256;

inline float LoadA(const float* a, bool trans_a, std::int64_t m,
                   std::int64_t k, std::int64_t i, std::int64_t p) {
  return trans_a ? a[p * m + i] : a[i * k + p];
}

inline float LoadB(const float* b, bool trans_b, std::int64_t k,
                   std::int64_t n, std::int64_t p, std::int64_t j) {
  return trans_b ? b[j * k + p] : b[p * n + j];
}

// Computes one M-panel of C. Packs the K×N panel of op(B) once per K-block
// so the inner loop streams contiguously regardless of transposes. The
// panel buffer is this thread's persistent scratch, sized once, so no
// dispatch pays a malloc/free.
void GemmPanel(bool trans_a, bool trans_b, std::int64_t i0, std::int64_t i1,
               std::int64_t n, std::int64_t k, float alpha, const float* a,
               std::int64_t m, const float* b, float beta, float* c) {
  thread_local std::vector<float> panel(
      static_cast<std::size_t>(kBlockK) * kBlockN);
  float* packed = panel.data();

  for (std::int64_t i = i0; i < i1; ++i) {
    float* row = c + i * n;
    if (beta == 0.0f) {
      std::fill(row, row + n, 0.0f);
    } else if (beta != 1.0f) {
      for (std::int64_t j = 0; j < n; ++j) row[j] *= beta;
    }
  }

  for (std::int64_t p0 = 0; p0 < k; p0 += kBlockK) {
    const std::int64_t pb = std::min(kBlockK, k - p0);
    for (std::int64_t j0 = 0; j0 < n; j0 += kBlockN) {
      const std::int64_t jb = std::min(kBlockN, n - j0);
      // Pack op(B)[p0:p0+pb, j0:j0+jb] row-major into the panel buffer.
      for (std::int64_t p = 0; p < pb; ++p) {
        float* dst = packed + p * jb;
        if (!trans_b) {
          const float* src = b + (p0 + p) * n + j0;
          std::copy(src, src + jb, dst);
        } else {
          for (std::int64_t j = 0; j < jb; ++j) {
            dst[j] = LoadB(b, trans_b, k, n, p0 + p, j0 + j);
          }
        }
      }
      for (std::int64_t ii0 = i0; ii0 < i1; ii0 += kBlockM) {
        const std::int64_t ib = std::min(kBlockM, i1 - ii0);
        for (std::int64_t i = ii0; i < ii0 + ib; ++i) {
          float* crow = c + i * n + j0;
          // Unroll by 4 over K for ILP; the compiler vectorises over j.
          std::int64_t p = 0;
          for (; p + 4 <= pb; p += 4) {
            const float a0 = alpha * LoadA(a, trans_a, m, k, i, p0 + p);
            const float a1 = alpha * LoadA(a, trans_a, m, k, i, p0 + p + 1);
            const float a2 = alpha * LoadA(a, trans_a, m, k, i, p0 + p + 2);
            const float a3 = alpha * LoadA(a, trans_a, m, k, i, p0 + p + 3);
            const float* b0 = packed + p * jb;
            const float* b1 = b0 + jb;
            const float* b2 = b1 + jb;
            const float* b3 = b2 + jb;
            for (std::int64_t j = 0; j < jb; ++j) {
              crow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
            }
          }
          for (; p < pb; ++p) {
            const float av = alpha * LoadA(a, trans_a, m, k, i, p0 + p);
            const float* brow = packed + p * jb;
            for (std::int64_t j = 0; j < jb; ++j) crow[j] += av * brow[j];
          }
        }
      }
    }
  }
}

void GemmReference(bool trans_a, bool trans_b, std::int64_t m,
                   std::int64_t n, std::int64_t k, float alpha,
                   const float* a, const float* b, float beta, float* c) {
  // Tasks are M-panels; panels are independent so this is safely parallel.
  // Clamp the grain so every task covers at least one full kBlockM panel:
  // at paper-scale pixel counts (n = 884736 for a 1152×768 map) the
  // flops-balancing term degenerates below 1 and would dispatch one
  // closure per row.
  const std::size_t grain = static_cast<std::size_t>(std::max<std::int64_t>(
      kBlockM, kBlockM * 512 / std::max<std::int64_t>(1, n)));
  ParallelFor(
      0, static_cast<std::size_t>(m),
      [&](std::size_t lo, std::size_t hi) {
        GemmPanel(trans_a, trans_b, static_cast<std::int64_t>(lo),
                  static_cast<std::int64_t>(hi), n, k, alpha, a, m, b, beta,
                  c);
      },
      grain);
}

using Clock = std::chrono::steady_clock;

struct GemmCase {
  const char* key;  // metric suffix
  bool trans_b;
  std::int64_t m, n, k;
};

// The three shapes the perf trajectory tracks: a square GEMM, the
// forward im2col shape of a 3x3 64->64 conv on 48x48 (the acceptance
// shape), and the transposed right-operand variant of the same.
constexpr GemmCase kCases[] = {
    {"square256", false, 256, 256, 256},
    {"conv", false, 64, 2304, 576},
    {"conv_tb", true, 64, 576, 2304},
};

double TimeGemmMs(bool packed, const GemmCase& cs, const float* a,
                  const float* b, float* c) {
  const auto start = Clock::now();
  if (packed) {
    Gemm(false, cs.trans_b, cs.m, cs.n, cs.k, 1.0f, a, b, 0.0f, c);
  } else {
    GemmReference(false, cs.trans_b, cs.m, cs.n, cs.k, 1.0f, a, b, 0.0f, c);
  }
  benchmark::DoNotOptimize(c);
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Times each shape under the packed microkernel engine and the reference
// blocked walk, reporting GFLOP/s series plus speedup scalars.
void RunKernelComparison() {
  obs::BenchReport report("micro_gemm");
  report.AddScalar("threads",
                   static_cast<double>(ThreadPool::Global().size() + 1));

  constexpr int kRounds = 7;
  std::printf(
      "\nGEMM kernel engine (microkernel: %s, median GFLOP/s of %d):\n"
      "  %10s %16s %14s %9s\n",
      GemmMicroKernelName(), kRounds, "shape", "reference", "packed",
      "speedup");
  for (const GemmCase& cs : kCases) {
    Rng rng(7);
    std::vector<float> a(static_cast<std::size_t>(cs.m * cs.k));
    std::vector<float> b(static_cast<std::size_t>(cs.k * cs.n));
    std::vector<float> c(static_cast<std::size_t>(cs.m * cs.n));
    for (auto& v : a) v = rng.Uniform(-1, 1);
    for (auto& v : b) v = rng.Uniform(-1, 1);
    const double gflop = 2.0 * cs.m * cs.n * cs.k / 1e9;

    double medians[2] = {0, 0};
    for (const bool packed : {false, true}) {
      (void)TimeGemmMs(packed, cs, a.data(), b.data(), c.data());  // warm-up
      std::vector<double> rates;
      rates.reserve(kRounds);
      for (int r = 0; r < kRounds; ++r) {
        rates.push_back(
            gflop /
            (TimeGemmMs(packed, cs, a.data(), b.data(), c.data()) / 1e3));
      }
      const std::string metric = std::string("gflops_") +
                                 (packed ? "packed_" : "reference_") + cs.key;
      report.AddSeries(metric, rates);
      medians[packed ? 1 : 0] = Summarize(rates).median;
    }
    const double speedup = medians[0] > 0 ? medians[1] / medians[0] : 0;
    std::printf("  %10s %16.2f %14.2f %8.2fx\n", cs.key, medians[0],
                medians[1], speedup);
    report.AddScalar(std::string("speedup_packed_") + cs.key, speedup);
  }
  const auto path = report.WriteJsonFile();
  if (!path.empty()) std::printf("  wrote %s\n", path.string().c_str());
}

}  // namespace
}  // namespace exaclim

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  exaclim::RunKernelComparison();
  return 0;
}

#pragma once

#include <cstdint>
#include <span>

namespace exaclim {

/// C(m,n) = alpha * op(A) * op(B) + beta * C, row-major.
///
/// op(A) is A (m,k) or A^T when trans_a (A stored as (k,m)); likewise for B.
/// Runs the packed register-blocked microkernel engine
/// (tensor/gemm_kernel.hpp, DESIGN §10), the one GEMM engine, which
/// parallelises over MR-strips of C with ThreadPool::Global(). The conv
/// layers call the engine's prepacked and implicit entry points
/// directly; this is the dense-operand form. beta == 0 overwrites C
/// without reading it; alpha == 0 skips the product entirely.
void Gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, const float* b,
          float beta, float* c);

/// Convenience span-checked wrapper used by tests.
void GemmChecked(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
                 std::int64_t k, float alpha, std::span<const float> a,
                 std::span<const float> b, float beta, std::span<float> c);

}  // namespace exaclim

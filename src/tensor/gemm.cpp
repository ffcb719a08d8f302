#include "tensor/gemm.hpp"

#include "common/error.hpp"
#include "tensor/gemm_kernel.hpp"

namespace exaclim {

void Gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, const float* b,
          float beta, float* c) {
  GemmPacked(trans_a, trans_b, m, n, k, alpha, a, b, beta, c);
}

void GemmChecked(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
                 std::int64_t k, float alpha, std::span<const float> a,
                 std::span<const float> b, float beta, std::span<float> c) {
  EXACLIM_CHECK(static_cast<std::int64_t>(a.size()) == m * k,
                "A size " << a.size() << " != " << m * k);
  EXACLIM_CHECK(static_cast<std::int64_t>(b.size()) == k * n,
                "B size " << b.size() << " != " << k * n);
  EXACLIM_CHECK(static_cast<std::int64_t>(c.size()) == m * n,
                "C size " << c.size() << " != " << m * n);
  Gemm(trans_a, trans_b, m, n, k, alpha, a.data(), b.data(), beta, c.data());
}

}  // namespace exaclim

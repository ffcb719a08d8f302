#include "tensor/cast.hpp"

#include <bit>
#include <cstdint>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "tensor/tensor.hpp"

namespace exaclim {
namespace {

// Threshold above which the elementwise loops fan out on the global pool.
constexpr std::size_t kCastGrain = 1 << 15;

}  // namespace

const char* ToString(Precision p) {
  return p == Precision::kFP32 ? "FP32" : "FP16";
}

void RoundTripHalf(std::span<float> values) {
  float* data = values.data();
  ParallelFor(
      0, values.size(),
      [data](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          data[i] = HalfBitsToFloat(FloatToHalfBits(data[i]));
        }
      },
      kCastGrain);
}

void RoundTripHalf(Tensor& tensor) { RoundTripHalf(tensor.Data()); }

void PackHalf(std::span<const float> values,
              std::span<std::uint16_t> packed) {
  EXACLIM_CHECK(packed.size() == values.size(),
                "pack size mismatch: " << packed.size() << " vs "
                                       << values.size());
  const float* src = values.data();
  std::uint16_t* dst = packed.data();
  ParallelFor(
      0, values.size(),
      [src, dst](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) dst[i] = FloatToHalfBits(src[i]);
      },
      kCastGrain);
}

std::vector<std::uint16_t> PackHalf(std::span<const float> values) {
  std::vector<std::uint16_t> packed(values.size());
  PackHalf(values, packed);
  return packed;
}

void UnpackHalf(std::span<const std::uint16_t> packed,
                std::span<float> values) {
  EXACLIM_CHECK(packed.size() == values.size(),
                "pack/unpack size mismatch: " << packed.size() << " vs "
                                              << values.size());
  const std::uint16_t* src = packed.data();
  float* dst = values.data();
  ParallelFor(
      0, packed.size(),
      [src, dst](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) dst[i] = HalfBitsToFloat(src[i]);
      },
      kCastGrain);
}

std::int64_t CountHalfNonFinite(std::span<const float> values) {
  // An element is non-finite after binary16 conversion iff its magnitude
  // reaches the overflow-to-inf threshold (which inf/NaN bit patterns
  // exceed by construction) — a single compare, no conversion needed.
  std::int64_t count = 0;
  for (const float v : values) {
    const std::uint32_t abs = std::bit_cast<std::uint32_t>(v) & 0x7fffffffu;
    count += abs >= 0x477ff000u ? 1 : 0;
  }
  return count;
}

}  // namespace exaclim

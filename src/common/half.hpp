#pragma once

#include <bit>
#include <cstdint>
#include <iosfwd>

namespace exaclim {

/// IEEE binary16 conversions: round-to-nearest-even, overflow to inf,
/// subnormals, and NaN kept quiet (sign|0x7e00 out; the payload survives
/// the way back). Written as straight-line bit arithmetic the
/// autovectorizer can chew on — the FP16 wire (tensor/cast) converts
/// every fused gradient buffer through them each step.
inline std::uint16_t FloatToHalfBits(float value) {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(value);
  const std::uint32_t sign = (bits >> 16) & 0x8000u;
  std::uint32_t abs = bits & 0x7fffffffu;
  std::uint32_t out;
  if (abs >= 0x47800000u) {
    // Inf, NaN, or magnitude >= 2^16: quiet-NaN payload or infinity.
    out = abs > 0x7f800000u ? 0x7e00u : 0x7c00u;
  } else if (abs < 0x38800000u) {
    // Result is binary16 subnormal or zero: let the FPU do the
    // denormalizing shift + RTNE by adding 0.5f (whose exponent places
    // the binary16 subnormal ulp just above the float mantissa), then
    // strip the 0.5f bit pattern back off.
    const float shifted = std::bit_cast<float>(abs) + 0.5f;
    out = std::bit_cast<std::uint32_t>(shifted) - 0x3f000000u;
  } else {
    // Normal range: rebias the exponent and round to nearest even; a
    // mantissa carry overflows into the exponent (and to inf) correctly.
    const std::uint32_t mant_odd = (abs >> 13) & 1u;
    abs += 0xc8000000u + 0xfffu + mant_odd;  // ((15-127)<<23) rebias + rtne
    out = abs >> 13;
  }
  return static_cast<std::uint16_t>(out | sign);
}

/// Exact binary16 -> float (every binary16 value is representable).
inline float HalfBitsToFloat(std::uint16_t h) {
  const std::uint32_t sign = (static_cast<std::uint32_t>(h) & 0x8000u) << 16;
  std::uint32_t bits = (static_cast<std::uint32_t>(h) & 0x7fffu) << 13;
  const std::uint32_t exp = bits & 0x0f800000u;  // binary16 exponent field
  bits += (127u - 15u) << 23;                    // rebias to binary32
  if (exp == 0x0f800000u) {
    bits += (128u - 16u) << 23;  // inf/NaN: push exponent to 255
  } else if (exp == 0u) {
    // Zero/subnormal: renormalize through float arithmetic (exact).
    bits += 1u << 23;
    bits = std::bit_cast<std::uint32_t>(std::bit_cast<float>(bits) -
                                        std::bit_cast<float>(0x38800000u));
  }
  return std::bit_cast<float>(sign | bits);
}

/// Software IEEE 754 binary16 ("half") value.
///
/// Summit's Tensor Cores operate on FP16 inputs; on this substrate we
/// emulate the storage format exactly (round-to-nearest-even conversion,
/// denormals, infinities, NaN) so that the paper's mixed-precision
/// numerical-stability findings (Sec V-B1) reproduce faithfully. Arithmetic
/// is performed by converting through float, matching the FP16-in/FP32-out
/// accumulate behaviour of the Tensor Core FMA path.
class Half {
 public:
  constexpr Half() = default;

  /// Converts from float with round-to-nearest-even, overflowing to +/-inf.
  explicit Half(float value) : bits_(FloatToHalfBits(value)) {}

  /// Reinterprets raw binary16 bits.
  static constexpr Half FromBits(std::uint16_t bits) {
    Half h;
    h.bits_ = bits;
    return h;
  }

  /// Converts to float exactly (every binary16 value is representable).
  float ToFloat() const { return HalfBitsToFloat(bits_); }
  explicit operator float() const { return ToFloat(); }

  constexpr std::uint16_t bits() const { return bits_; }

  bool IsNan() const {
    return (bits_ & 0x7c00u) == 0x7c00u && (bits_ & 0x03ffu) != 0;
  }
  bool IsInf() const {
    return (bits_ & 0x7c00u) == 0x7c00u && (bits_ & 0x03ffu) == 0;
  }
  bool IsFinite() const { return (bits_ & 0x7c00u) != 0x7c00u; }

  /// Largest finite binary16 value (65504).
  static constexpr Half Max() { return FromBits(0x7bffu); }
  /// Smallest positive normal binary16 value (2^-14).
  static constexpr Half MinNormal() { return FromBits(0x0400u); }
  /// Smallest positive subnormal binary16 value (2^-24).
  static constexpr Half MinSubnormal() { return FromBits(0x0001u); }

  friend bool operator==(Half a, Half b) {
    if (a.IsNan() || b.IsNan()) return false;
    // +0 == -0.
    if (((a.bits_ | b.bits_) & 0x7fffu) == 0) return true;
    return a.bits_ == b.bits_;
  }
  friend bool operator!=(Half a, Half b) { return !(a == b); }
  friend bool operator<(Half a, Half b) { return a.ToFloat() < b.ToFloat(); }

  friend Half operator+(Half a, Half b) {
    return Half(a.ToFloat() + b.ToFloat());
  }
  friend Half operator-(Half a, Half b) {
    return Half(a.ToFloat() - b.ToFloat());
  }
  friend Half operator*(Half a, Half b) {
    return Half(a.ToFloat() * b.ToFloat());
  }
  friend Half operator/(Half a, Half b) {
    return Half(a.ToFloat() / b.ToFloat());
  }
  friend Half operator-(Half a) { return FromBits(a.bits_ ^ 0x8000u); }

  Half& operator+=(Half other) { return *this = *this + other; }
  Half& operator-=(Half other) { return *this = *this - other; }
  Half& operator*=(Half other) { return *this = *this * other; }
  Half& operator/=(Half other) { return *this = *this / other; }

 private:
  std::uint16_t bits_ = 0;
};

std::ostream& operator<<(std::ostream& os, Half h);

/// Relative unit roundoff of binary16 (2^-11); useful for test tolerances.
inline constexpr float kHalfEpsilonRel = 1.0f / 2048.0f;

}  // namespace exaclim

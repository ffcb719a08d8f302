#pragma once

// Parsing shared by the EXACLIM_* environment knobs, so one spelling
// means one thing whichever module reads it. Each helper takes the
// knob's name, reads it with getenv and names it in any error.

#include <cstdint>
#include <optional>

namespace exaclim {

/// A boolean knob: `fallback` when `name` is unset; off for "", "0",
/// "off" and "false"; on for any other value.
bool EnvFlag(const char* name, bool fallback);

/// A non-negative whole-number knob; nullopt when unset. The value must
/// be decimal digits and nothing else: "4M", "-1", "abc" and "" fail an
/// EXACLIM_CHECK that names the knob.
std::optional<std::int64_t> EnvNonNegativeInt(const char* name);

/// A whole-number knob that must lie in [lo, hi]; nullopt when unset.
/// Parsed as EnvNonNegativeInt; a value outside the range fails an
/// EXACLIM_CHECK that names the knob and the range.
std::optional<std::int64_t> EnvIntInRange(const char* name, std::int64_t lo,
                                          std::int64_t hi);

/// A non-negative decimal-number knob (e.g. "2.5"); nullopt when unset.
/// Trailing characters, a sign, "inf"/"nan" and "" fail an
/// EXACLIM_CHECK that names the knob.
std::optional<double> EnvNonNegativeNumber(const char* name);

}  // namespace exaclim

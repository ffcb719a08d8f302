#include "common/env.hpp"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <string_view>
#include <system_error>

#include "common/error.hpp"

namespace exaclim {
namespace {

// Parses the whole of `text` into `out` with std::from_chars; false on
// an empty string, a leading sign or any unparsed trailing character.
template <typename T>
bool ParseWhole(std::string_view text, T* out) {
  if (text.empty() ||
      (std::isdigit(static_cast<unsigned char>(text.front())) == 0 &&
       text.front() != '.')) {
    return false;
  }
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

bool EnvFlag(const char* name, bool fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  const std::string_view v(env);
  return !(v.empty() || v == "0" || v == "off" || v == "false");
}

std::optional<std::int64_t> EnvNonNegativeInt(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr) return std::nullopt;
  std::int64_t value = 0;
  EXACLIM_CHECK(ParseWhole(env, &value),
                name << "='" << env
                     << "': expected a non-negative whole number "
                        "(decimal digits only, no unit suffix)");
  return value;
}

std::optional<std::int64_t> EnvIntInRange(const char* name, std::int64_t lo,
                                          std::int64_t hi) {
  const std::optional<std::int64_t> value = EnvNonNegativeInt(name);
  EXACLIM_CHECK(!value || (*value >= lo && *value <= hi),
                name << "=" << *value << ": expected a whole number in ["
                     << lo << ", " << hi << "]");
  return value;
}

std::optional<double> EnvNonNegativeNumber(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr) return std::nullopt;
  double value = 0.0;
  EXACLIM_CHECK(ParseWhole(env, &value),
                name << "='" << env
                     << "': expected a non-negative decimal number "
                        "(e.g. 5 or 2.5, no unit suffix)");
  return value;
}

}  // namespace exaclim

#pragma once

// Sets one environment variable for a test's scope and restores the old
// value (or unsets it) on exit, so an EXPECT_THROW or a failed assertion
// never leaks a knob into the next test.

#include <cstdlib>
#include <optional>
#include <string>

namespace exaclim::testing {

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (saved_) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

}  // namespace exaclim::testing

// Error reporting for the cicmon library.
//
// Fatal misuse of the public API (malformed assembly, invalid configuration,
// out-of-range memory image accesses during *construction*) throws CicError
// with a formatted message. Run-time simulation outcomes that a caller is
// expected to handle (program terminated by the monitor, fault detected /
// escaped) are ordinary return values, never exceptions.
#pragma once

#include <stdexcept>
#include <string>

namespace cicmon::support {

class CicError : public std::runtime_error {
 public:
  explicit CicError(std::string message) : std::runtime_error(std::move(message)) {}
};

// Throws CicError when `condition` is false. `message` should name the
// violated precondition from the caller's perspective. A literal message
// becomes a std::string only on failure, so a passing check costs a branch;
// a message built by concatenation is built before the test, so on a
// per-cell or per-trial path put it behind an `if (!condition)` instead.
inline void check(bool condition, const char* message) {
  if (!condition) throw CicError(message);
}
inline void check(bool condition, const std::string& message) {
  if (!condition) throw CicError(message);
}

}  // namespace cicmon::support

// Lightweight invariant checking for the simulator.
//
// Simulation bugs must fail loudly: a silently-corrupt coherence protocol
// produces plausible-looking numbers. GLOCKS_CHECK is always on (it is not
// compiled out in release builds); the per-cycle cost is negligible next to
// the component tick work.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace glocks {

/// Thrown when a simulator invariant is violated.
class SimError : public std::runtime_error {
 public:
  explicit SimError(const std::string& what)
      : std::runtime_error(what), reason_(what) {}
  SimError(const std::string& what, const std::string& reason)
      : std::runtime_error(what), reason_(reason) {}
  /// The failed check's own message, without the "invariant violated"
  /// preamble and source location what() carries.
  const std::string& reason() const { return reason_; }

 private:
  std::string reason_;
};

namespace detail {
[[noreturn]] void check_failed(const char* expr, const char* file, int line,
                               const std::string& msg);
}  // namespace detail

}  // namespace glocks

// Always-on invariant check. `msg` is a streamable expression, e.g.
//   GLOCKS_CHECK(state == State::kShared, "line " << line << " bad state");
#define GLOCKS_CHECK(expr, msg)                                          \
  do {                                                                   \
    if (!(expr)) [[unlikely]] {                                          \
      std::ostringstream oss_;                                           \
      oss_ << msg; /* NOLINT */                                          \
      ::glocks::detail::check_failed(#expr, __FILE__, __LINE__,          \
                                     oss_.str());                        \
    }                                                                    \
  } while (false)

#define GLOCKS_UNREACHABLE(msg) GLOCKS_CHECK(false, msg)

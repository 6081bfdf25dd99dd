#include "common/check.hpp"

namespace glocks::detail {

void check_failed(const char* expr, const char* file, int line,
                  const std::string& msg) {
  std::ostringstream oss;
  oss << "simulator invariant violated: " << expr << " at " << file << ":"
      << line;
  if (!msg.empty()) oss << " — " << msg;
  throw SimError(oss.str(), msg.empty() ? expr : msg);
}

}  // namespace glocks::detail

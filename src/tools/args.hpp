// Tiny command-line flag parser for the glocksim and glocks-sweep tools.
#pragma once

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace glocks::tools {

class Args {
 public:
  /// Parses `--flag value` and `--flag` (boolean) style arguments. Every
  /// flag must be declared: `bool_flags` take no value, `value_flags`
  /// take exactly one. An undeclared flag, a missing value or a
  /// positional argument throws, naming the offending argument.
  Args(int argc, const char* const* argv,
       const std::vector<std::string>& bool_flags,
       const std::vector<std::string>& value_flags) {
    const auto declared = [](const std::vector<std::string>& v,
                             const std::string& f) {
      return std::find(v.begin(), v.end(), f) != v.end();
    };
    for (int i = 1; i < argc; ++i) {
      std::string a = argv[i];
      GLOCKS_CHECK(a.rfind("--", 0) == 0, "unexpected argument: " << a);
      a = a.substr(2);
      if (declared(bool_flags, a)) {
        values_[a] = "1";
        continue;
      }
      GLOCKS_CHECK(declared(value_flags, a), "unknown flag --" << a);
      GLOCKS_CHECK(i + 1 < argc, "flag --" << a << " needs a value");
      values_[a] = argv[++i];
    }
  }

  bool has(const std::string& name) const { return values_.count(name) > 0; }

  std::string get(const std::string& name,
                  const std::string& fallback = "") const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

  std::uint64_t get_u64(const std::string& name,
                        std::uint64_t fallback) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    return parse_u64(name, it->second);
  }

  double get_double(const std::string& name, double fallback) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    const std::string& text = it->second;
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(text.c_str(), &end);
    GLOCKS_CHECK(!text.empty() && *end == '\0' && errno == 0,
                 "--" << name << " expects a number, got '" << text << "'");
    return v;
  }

  /// Parses `text`, the value (or one list element) of flag --`flag`, as
  /// a non-negative decimal integer.
  static std::uint64_t parse_u64(const std::string& flag,
                                 const std::string& text) {
    const bool digits =
        !text.empty() &&
        text.find_first_not_of("0123456789") == std::string::npos;
    errno = 0;
    const std::uint64_t v =
        digits ? std::strtoull(text.c_str(), nullptr, 10) : 0;
    GLOCKS_CHECK(digits && errno == 0,
                 "--" << flag << " expects a non-negative integer, got '"
                      << text << "'");
    return v;
  }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace glocks::tools

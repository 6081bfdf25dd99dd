// Flattens a JSON document into `dotted.key -> number` pairs, so the
// benchmark reads the simulator's report and perf counters by name. A
// counter the library stops printing simply drops out of the map; the
// benchmark then omits the metric instead of failing to compile.
#pragma once

#include <cctype>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>

namespace perfbench {

using FlatJson = std::map<std::string, double>;

namespace detail {

class Flattener {
 public:
  Flattener(std::string_view text, FlatJson& out) : s_(text), out_(out) {}

  void parse() {
    value("");
    skip_ws();
    if (i_ != s_.size()) fail("trailing bytes");
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error(std::string("json: ") + what + " at byte " +
                             std::to_string(i_));
  }
  void skip_ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_])))
      ++i_;
  }
  bool eat(char c) {
    skip_ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  std::string string_token() {
    if (!eat('"')) fail("expected string");
    std::string v;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\' && i_ + 1 < s_.size()) ++i_;
      v += s_[i_++];
    }
    if (i_ == s_.size()) fail("unterminated string");
    ++i_;
    return v;
  }
  static std::string join(const std::string& prefix, const std::string& k) {
    return prefix.empty() ? k : prefix + "." + k;
  }
  void value(const std::string& key) {
    skip_ws();
    if (i_ >= s_.size()) fail("unexpected end");
    const char c = s_[i_];
    if (c == '{') {
      ++i_;
      if (eat('}')) return;
      do {
        const std::string k = string_token();
        if (!eat(':')) fail("expected ':'");
        value(join(key, k));
      } while (eat(','));
      if (!eat('}')) fail("expected '}'");
    } else if (c == '[') {
      ++i_;
      if (eat(']')) return;
      std::size_t n = 0;
      do {
        value(join(key, std::to_string(n++)));
      } while (eat(','));
      if (!eat(']')) fail("expected ']'");
    } else if (c == '"') {
      string_token();
    } else if (s_.compare(i_, 4, "true") == 0) {
      out_[key] = 1.0;
      i_ += 4;
    } else if (s_.compare(i_, 5, "false") == 0) {
      out_[key] = 0.0;
      i_ += 5;
    } else if (s_.compare(i_, 4, "null") == 0) {
      i_ += 4;
    } else {
      const std::string rest(s_.substr(i_, 64));
      char* end = nullptr;
      const double v = std::strtod(rest.c_str(), &end);
      if (end == rest.c_str()) fail("expected a value");
      out_[key] = v;
      i_ += static_cast<std::size_t>(end - rest.c_str());
    }
  }

  std::string_view s_;
  std::size_t i_ = 0;
  FlatJson& out_;
};

}  // namespace detail

/// Parses `text`; throws std::runtime_error on malformed input.
inline FlatJson flatten_json(std::string_view text) {
  FlatJson out;
  detail::Flattener(text, out).parse();
  return out;
}

}  // namespace perfbench

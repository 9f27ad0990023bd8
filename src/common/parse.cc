#include "src/common/parse.h"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>

namespace declust {

namespace {

// Built with append() rather than operator+ chains: GCC 12's -Wrestrict
// flags the latter with a false positive at -O2.
std::string Quoted(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('\'');
  out.append(s);
  out.push_back('\'');
  return out;
}

}  // namespace

Result<int64_t> ParseInt64(std::string_view s, int64_t min, int64_t max) {
  if (s.empty()) {
    return Status::InvalidArgument("expected an integer, got empty string");
  }
  // strtoll itself skips leading whitespace; a flag value with stray spaces
  // is a quoting mistake we want surfaced, not absorbed.
  if (std::isspace(static_cast<unsigned char>(s.front()))) {
    return Status::InvalidArgument("expected an integer, got " + Quoted(s));
  }
  const std::string buf(s);
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(buf.c_str(), &end, 10);
  if (end == buf.c_str() || end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("expected an integer, got " + Quoted(s));
  }
  if (errno == ERANGE) {
    return Status::InvalidArgument("integer out of range: " + Quoted(s));
  }
  if (v < min || v > max) {
    return Status::InvalidArgument(Quoted(s) + " out of range [" +
                                   std::to_string(min) + ", " +
                                   std::to_string(max) + "]");
  }
  return static_cast<int64_t>(v);
}

Result<int> ParseInt(std::string_view s, int min, int max) {
  DECLUST_ASSIGN_OR_RETURN(const int64_t v, ParseInt64(s, min, max));
  return static_cast<int>(v);
}

Result<double> ParseDouble(std::string_view s, double min, double max) {
  if (s.empty()) {
    return Status::InvalidArgument("expected a number, got empty string");
  }
  if (std::isspace(static_cast<unsigned char>(s.front()))) {
    return Status::InvalidArgument("expected a number, got " + Quoted(s));
  }
  const std::string buf(s);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(buf.c_str(), &end);
  if (end == buf.c_str() || end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("expected a number, got " + Quoted(s));
  }
  if (!std::isfinite(v)) {
    return Status::InvalidArgument("number not finite: " + Quoted(s));
  }
  if (v < min || v > max) {
    return Status::InvalidArgument(Quoted(s) + " out of range [" +
                                   std::to_string(min) + ", " +
                                   std::to_string(max) + "]");
  }
  return v;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

Result<double> ParseTimeMs(std::string_view s, std::string_view what,
                           std::string_view grammar) {
  double scale = 1000.0;  // bare numbers are seconds
  if (s.size() >= 2 && s.substr(s.size() - 2) == "ms") {
    scale = 1.0;
    s.remove_suffix(2);
  } else if (!s.empty() && s.back() == 's') {
    s.remove_suffix(1);
  }
  // The upper bound keeps the scaled result finite as well.
  auto v = ParseDouble(s, 0.0, std::numeric_limits<double>::max() / scale);
  if (!v.ok()) {
    std::string msg(grammar);
    msg.append(": bad ").append(what).append(" value ").append(Quoted(s));
    return Status::InvalidArgument(std::move(msg));
  }
  return *v * scale;
}

}  // namespace declust

#include "support/strings.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <cstdio>

namespace statsym {

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\n' || s[b] == '\r'))
    ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\n' ||
                   s[e - 1] == '\r'))
    --e;
  return s.substr(b, e - b);
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string fmt_double(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

bool parse_i64(std::string_view s, std::int64_t& out) {
  // strtoll would skip leading whitespace; the value must be the whole text.
  if (s.empty() || std::isspace(static_cast<unsigned char>(s.front()))) {
    return false;
  }
  std::string tmp(s);
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(tmp.c_str(), &end, 10);
  if (errno != 0 || end != tmp.c_str() + tmp.size()) return false;
  out = v;
  return true;
}

bool parse_u64(std::string_view s, std::uint64_t& out) {
  std::uint64_t v = 0;
  const char* end = s.data() + s.size();
  // from_chars takes neither a sign nor leading whitespace, nor "".
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end) return false;
  out = v;
  return true;
}

bool parse_count(std::string_view s, std::size_t& out) {
  std::uint64_t v = 0;
  if (!parse_u64(s, v)) return false;
  out = static_cast<std::size_t>(v);
  return true;
}

bool parse_double(std::string_view s, double& out) {
  if (s.empty() || std::isspace(static_cast<unsigned char>(s.front()))) {
    return false;
  }
  std::string tmp(s);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(tmp.c_str(), &end);
  if (errno != 0 || end != tmp.c_str() + tmp.size()) return false;
  out = v;
  return true;
}

}  // namespace statsym

// Small string helpers shared across modules.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace statsym {

// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view s, char sep);

// Joins `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

// Trims ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

// True if `s` starts with / ends with the given prefix or suffix.
bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

// Formats a double with `digits` decimals (fixed notation).
std::string fmt_double(double v, int digits);

// Parses a signed integer; returns false on malformed input (including
// surrounding whitespace) or overflow.
bool parse_i64(std::string_view s, std::int64_t& out);

// Parses an unsigned 64-bit decimal integer over its full range. Strict:
// digits only — no sign, no whitespace, no trailing junk — and false on
// overflow (`strtoull` alone would accept "-3" as 2^64 - 3).
bool parse_u64(std::string_view s, std::uint64_t& out);
// parse_u64 into a count or size.
bool parse_count(std::string_view s, std::size_t& out);

// Parses a double; returns false on malformed input (including surrounding
// whitespace).
bool parse_double(std::string_view s, double& out);

}  // namespace statsym

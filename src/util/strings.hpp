#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace prpart {

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Splits on `sep`, trimming each piece; empty pieces are dropped.
std::vector<std::string> split(std::string_view s, char sep);

/// True when `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Parses a non-negative integer; throws ParseError on anything else.
std::uint64_t parse_u64(std::string_view s);

/// Parses a 32-bit count (a resource amount): a non-negative integer no
/// larger than 4,294,967,295. Throws ParseError on anything else; a larger
/// value is an error, never wrapped.
std::uint32_t parse_u32(std::string_view s);

/// Formats `v` with thousands separators ("1,234,567"), for report tables.
std::string with_commas(std::uint64_t v);

/// Fixed-point formatting with `decimals` digits after the point.
std::string fixed(double v, int decimals);

}  // namespace prpart

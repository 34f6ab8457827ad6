// Strict parsing of numeric command-line values, shared by coeffctl,
// the figure and micro benchmarks and the examples: the whole token
// must be a decimal number in range of the target type, so "2x", "",
// " 3" or "1e999" is a usage error instead of a silent 0, a truncated
// number or a default.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <type_traits>

namespace coeff::sim {

/// Parse `text` as a T: all of it, decimal, in range of T (and finite
/// for floating point). Unsigned types take no sign. nullopt on any
/// stray character.
template <typename T>
std::optional<T> parse_number(const char* text) {
  if (text[0] == '\0' || std::isspace(static_cast<unsigned char>(text[0]))) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  if constexpr (std::is_floating_point_v<T>) {
    const double value = std::strtod(text, &end);
    if (*end != '\0' || !std::isfinite(value)) return std::nullopt;
    return static_cast<T>(value);
  } else if constexpr (std::is_unsigned_v<T>) {
    // strtoull would wrap "-1" to the maximum.
    if (!std::isdigit(static_cast<unsigned char>(text[0]))) return std::nullopt;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (errno != 0 || *end != '\0' || value > std::numeric_limits<T>::max()) {
      return std::nullopt;
    }
    return static_cast<T>(value);
  } else {
    const long long value = std::strtoll(text, &end, 10);
    if (errno != 0 || *end != '\0' ||
        value < std::numeric_limits<T>::min() ||
        value > std::numeric_limits<T>::max()) {
      return std::nullopt;
    }
    return static_cast<T>(value);
  }
}

}  // namespace coeff::sim

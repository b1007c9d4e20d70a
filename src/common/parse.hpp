// Strict numeric parsing for command-line flags. A value is accepted
// only if the whole string is one base-10 number inside the requested
// range: no surrounding whitespace or trailing bytes, no sign on an
// unsigned value, and floating-point values must be finite.
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>

#include "common/status.hpp"

namespace corec {

/// Parses an unsigned integer in [0, max].
StatusOr<std::uint64_t> parse_uint(
    std::string_view text,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// Parses a finite floating-point number in [min, max].
StatusOr<double> parse_double(std::string_view text, double min,
                              double max);

}  // namespace corec

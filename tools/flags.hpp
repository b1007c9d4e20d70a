// Numeric flag values for the corec command-line tools: strict parsing
// (common/parse.hpp), and on bad input "<flag>: <reason>" on stderr and
// exit status 2.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string_view>

#include "common/parse.hpp"

namespace corec {

[[noreturn]] inline void exit_bad_flag(std::string_view flag,
                                       const Status& status) {
  std::fprintf(stderr, "%.*s: %s\n", static_cast<int>(flag.size()),
               flag.data(), status.message().c_str());
  std::exit(2);
}

/// Unsigned flag value, bounded by T's range (or `max`).
template <typename T = std::uint64_t>
T flag_uint(std::string_view flag, std::string_view text,
            T max = std::numeric_limits<T>::max()) {
  auto v = parse_uint(text, static_cast<std::uint64_t>(max));
  if (!v.ok()) exit_bad_flag(flag, v.status());
  return static_cast<T>(*v);
}

/// Count flag value: at least 1, bounded by T's range.
template <typename T = std::size_t>
T flag_count(std::string_view flag, std::string_view text) {
  const auto v = flag_uint<T>(flag, text);
  if (v == 0) {
    exit_bad_flag(flag, Status::InvalidArgument("must be at least 1"));
  }
  return v;
}

/// Finite floating-point flag value in [min, max].
inline double flag_double(std::string_view flag, std::string_view text,
                          double min, double max) {
  auto v = parse_double(text, min, max);
  if (!v.ok()) exit_bad_flag(flag, v.status());
  return *v;
}

}  // namespace corec

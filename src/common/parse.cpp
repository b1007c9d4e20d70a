#include "common/parse.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>
#include <system_error>

namespace corec {
namespace {

Status rejected(std::string_view text, const std::string& why) {
  // Appended piecewise: GCC 12's -Wrestrict misfires on a string
  // literal + std::string temporary in Release builds.
  std::string msg = "'";
  msg.append(text).append("' ").append(why);
  return Status::InvalidArgument(msg);
}

/// from_chars over the whole of `text`; rejects empty input, trailing
/// bytes and values outside T.
template <typename T>
StatusOr<T> parse_whole(std::string_view text) {
  if (text.empty()) return Status::InvalidArgument("empty value");
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc::result_out_of_range) {
    return rejected(text, "is out of range");
  }
  if (ec != std::errc() || ptr != end) {
    return rejected(text, "is not a number");
  }
  return value;
}

}  // namespace

StatusOr<std::uint64_t> parse_uint(std::string_view text,
                                   std::uint64_t max) {
  COREC_ASSIGN_OR_RETURN(std::uint64_t v, parse_whole<std::uint64_t>(text));
  if (v > max) return rejected(text, "exceeds " + std::to_string(max));
  return v;
}

StatusOr<double> parse_double(std::string_view text, double min,
                              double max) {
  COREC_ASSIGN_OR_RETURN(double v, parse_whole<double>(text));
  if (!std::isfinite(v)) return rejected(text, "is not finite");
  if (v < min || v > max) {
    char range[64];
    std::snprintf(range, sizeof(range), "is outside [%g, %g]", min, max);
    return rejected(text, range);
  }
  return v;
}

}  // namespace corec

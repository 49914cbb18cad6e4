#include "util/env.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <type_traits>

#include "util/logging.h"

namespace p2paqp::util {

namespace {

// Parses `name` as a whole number (T = uint64_t) or a decimal (T = double).
// The value must start with a digit (or a point, for a decimal):
// strtoull/strtod alone would skip leading space and accept a sign.
template <typename T>
std::optional<T> ParseKnob(const char* name) {
  constexpr bool kDecimal = std::is_floating_point_v<T>;
  const char* value = std::getenv(name);
  if (value == nullptr) return std::nullopt;
  const auto first = static_cast<unsigned char>(value[0]);
  char* end = nullptr;
  errno = 0;
  T parsed{};
  if constexpr (kDecimal) {
    parsed = std::strtod(value, &end);
  } else {
    parsed = std::strtoull(value, &end, 10);
  }
  P2PAQP_CHECK((std::isdigit(first) || (kDecimal && first == '.')) &&
               end != value && *end == '\0' && errno == 0 &&
               std::isfinite(static_cast<double>(parsed)))
      << name << "=\"" << value << "\" is not a "
      << (kDecimal ? "decimal number" : "whole number");
  return parsed;
}

}  // namespace

std::optional<uint64_t> EnvWholeNumber(const char* name) {
  return ParseKnob<uint64_t>(name);
}

std::optional<double> EnvDecimal(const char* name) {
  return ParseKnob<double>(name);
}

}  // namespace p2paqp::util

// Strict parsing of the P2PAQP_* environment knobs: a knob is unset or a
// well-formed number, and anything else aborts naming the variable, so a
// typo cannot silently run another configuration (P2PAQP_THREADS=4x,
// P2PAQP_NUMA=yes, P2PAQP_SCALE=0,05). Defaults and ranges stay with the
// callers.
#ifndef P2PAQP_UTIL_ENV_H_
#define P2PAQP_UTIL_ENV_H_

#include <cstdint>
#include <optional>

namespace p2paqp::util {

// nullopt when unset; otherwise decimal digits only (no sign, space, suffix
// or point) that fit 64 bits.
std::optional<uint64_t> EnvWholeNumber(const char* name);

// nullopt when unset; otherwise a finite non-negative decimal number such
// as "0.05", "1.0", "10" or "2.5e-1".
std::optional<double> EnvDecimal(const char* name);

}  // namespace p2paqp::util

#endif  // P2PAQP_UTIL_ENV_H_

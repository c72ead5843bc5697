#ifndef RANDRANK_UTIL_PARSE_H_
#define RANDRANK_UTIL_PARSE_H_

#include <cstdint>
#include <limits>
#include <string_view>

namespace randrank {

/// Strict decimal parse of an unsigned integer in [min, max]: `s` must be
/// one or more ASCII digits and nothing else — no sign, no whitespace, no
/// base prefix — and its value must lie in the range. Values past
/// 2^64 - 1 are rejected, never wrapped or saturated the way strtoull and
/// `%zu` treat them. Returns false and leaves `*out` untouched on any
/// rejection.
bool ParseU64(std::string_view s, uint64_t* out, uint64_t min = 0,
              uint64_t max = std::numeric_limits<uint64_t>::max());

}  // namespace randrank

#endif  // RANDRANK_UTIL_PARSE_H_

#include "util/parse.h"

namespace randrank {

bool ParseU64(std::string_view s, uint64_t* out, uint64_t min, uint64_t max) {
  if (s.empty()) return false;
  uint64_t value = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    const auto digit = static_cast<uint64_t>(c - '0');
    if (value > (std::numeric_limits<uint64_t>::max() - digit) / 10) {
      return false;  // would wrap
    }
    value = value * 10 + digit;
  }
  if (value < min || value > max) return false;
  *out = value;
  return true;
}

}  // namespace randrank

#include "core/ranking_policy.h"

#include <cstdio>
#include <string_view>

#include "util/parse.h"

namespace randrank {

RankPromotionConfig RankPromotionConfig::None() {
  return {PromotionRule::kNone, 0.0, 1};
}

RankPromotionConfig RankPromotionConfig::Uniform(double r, size_t k) {
  return {PromotionRule::kUniform, r, k};
}

RankPromotionConfig RankPromotionConfig::Selective(double r, size_t k) {
  return {PromotionRule::kSelective, r, k};
}

RankPromotionConfig RankPromotionConfig::Recommended(size_t k) {
  return Selective(0.1, k);
}

RankPromotionConfig RankPromotionConfig::FixedPosition(size_t position) {
  return Selective(1.0, position);
}

bool RankPromotionConfig::Valid() const {
  if (k < 1) return false;
  if (!(r >= 0.0 && r <= 1.0)) return false;  // also rejects NaN
  if (rule == PromotionRule::kNone) return r == 0.0;
  return true;
}

bool RankPromotionConfig::ParseLabel(const std::string& label,
                                     RankPromotionConfig* out) {
  if (label == "none") {
    *out = None();
    return true;
  }
  double r = 0.0;
  uint64_t k = 0;
  // %n marks where k starts; k is then the strict "<digits>)" tail, so a
  // sign, trailing garbage ("uniform(r=0.10,k=1)x") or a k past 2^64 - 1 is
  // rejected instead of wrapped or saturated.
  const auto parse = [&](const char* format) {
    int k_at = 0;
    return std::sscanf(label.c_str(), format, &r, &k_at) == 1 && k_at > 0 &&
           ParseLabelCount(label, static_cast<size_t>(k_at), &k);
  };
  RankPromotionConfig parsed;
  if (parse("uniform(r=%lf,k=%n")) {
    parsed = Uniform(r, k);
  } else if (parse("selective(r=%lf,k=%n")) {
    parsed = Selective(r, k);
  } else {
    return false;
  }
  if (!parsed.Valid()) return false;
  *out = parsed;
  return true;
}

bool ParseLabelCount(const std::string& label, size_t at, uint64_t* count) {
  if (at >= label.size() || label.back() != ')') return false;
  const std::string_view digits =
      std::string_view(label).substr(at, label.size() - 1 - at);
  return ParseU64(digits, count);
}

std::string RankPromotionConfig::Label() const {
  char buf[64];
  switch (rule) {
    case PromotionRule::kNone:
      return "none";
    case PromotionRule::kUniform:
      std::snprintf(buf, sizeof(buf), "uniform(r=%.2f,k=%zu)", r, k);
      return buf;
    case PromotionRule::kSelective:
      std::snprintf(buf, sizeof(buf), "selective(r=%.2f,k=%zu)", r, k);
      return buf;
  }
  return "?";
}

}  // namespace randrank

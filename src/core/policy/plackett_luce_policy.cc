#include "core/policy/plackett_luce_policy.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

#include "util/alias_table.h"

namespace randrank {

namespace {

/// Standard Gumbel draw; u is guarded away from 0 so the key stays finite.
double NextGumbel(Rng& rng) {
  double u;
  do {
    u = rng.NextDouble();
  } while (u <= 0.0);
  return -std::log(-std::log1p(u - 1.0));
}

/// Per-epoch state: the alias table over exp(score/T), indexed by
/// deterministic rank (the table samples *positions* in the view's det
/// array; page ids are resolved through the view at serve time, so the
/// state borrows nothing).
class PlackettLuceEpochState final : public PolicyEpochState {
 public:
  AliasTable table;

  /// One column per det position; every acceptance a probability and every
  /// alias a det position, so each column holds exactly 1/n of the mass.
  std::string Check(const RankView& view) const override {
    if (table.size() != view.det_size) {
      return "alias table has " + std::to_string(table.size()) +
             " columns for " + std::to_string(view.det_size) + " det pages";
    }
    for (size_t i = 0; i < table.size(); ++i) {
      if (!(table.accept(i) >= 0.0 && table.accept(i) <= 1.0) ||
          table.alias(i) >= table.size()) {
        return "alias column " + std::to_string(i) + " is not normalized";
      }
    }
    return "";
  }
};

}  // namespace

std::string PlackettLucePolicy::Label() const {
  return FormatLabel("plackett-luce(T=%.2f)", temperature_);
}

bool PlackettLucePolicy::ParseLabel(const std::string& label,
                                    double* temperature) {
  double t = 0.0;
  int consumed = 0;
  if (std::sscanf(label.c_str(), "plackett-luce(T=%lf)%n", &t, &consumed) !=
          1 ||
      static_cast<size_t>(consumed) != label.size()) {
    return false;
  }
  *temperature = t;
  return true;
}

std::shared_ptr<const PolicyEpochState> PlackettLucePolicy::BuildEpochState(
    const RankView& view) const {
  assert(view.pool_size == 0 && "weighted families keep no pool");
  if (view.det_size == 0) return nullptr;
  // Weights are shifted by the max score before exponentiation so small
  // temperatures saturate to 0 on the tail instead of overflowing the head;
  // the alias table normalizes, so the shift cancels.
  double max_score = view.det_score[0];
  for (size_t j = 1; j < view.det_size; ++j) {
    max_score = std::max(max_score, view.det_score[j]);
  }
  std::vector<double> weight(view.det_size);
  for (size_t j = 0; j < view.det_size; ++j) {
    weight[j] = std::exp((view.det_score[j] - max_score) / temperature_);
  }
  auto state = std::make_shared<PlackettLuceEpochState>();
  state->table.Build(weight);
  return state;
}

size_t PlackettLucePolicy::ServePrefix(const RankView& view,
                                       const PolicyEpochState* epoch_state,
                                       PolicyScratch& scratch, size_t m,
                                       Rng& rng,
                                       std::vector<uint32_t>* out) const {
  const size_t n = view.det_size;
  const size_t count = std::min(m, n);
  if (count == 0) return 0;
  assert(view.det_score != nullptr);

  // Drawing from the *unconditional* softmax and rejecting already-served
  // pages realizes exactly sequential softmax sampling without replacement
  // (the rejected draws are uniform noise over the served mass), so the
  // alias draws and the Gumbel tail below share one law. Expected attempts
  // per slot are 1/(1 - served_mass): O(1) while the served prefix holds a
  // bounded share of the softmax mass, i.e. O(m) expected per query for
  // m << n at sane temperatures.
  //
  // The cap bounds the degenerate regimes (tiny T concentrating the mass on
  // a handful of pages, or m -> n) where served_mass -> 1 and the rejection
  // loop would otherwise be unbounded: after O(log n) failed attempts the
  // remainder of the query falls back to Gumbel-max over the not-yet-served
  // pages — the exact conditional law — so a query never costs more than
  // the O(n log n) Gumbel path.
  scratch.emitted.clear();
  size_t appended = 0;
  if (epoch_state != nullptr) {
    const AliasTable& table =
        static_cast<const PlackettLuceEpochState*>(epoch_state)->table;
    assert(table.size() == n);
    size_t max_attempts = 16;
    for (size_t span = n; span > 0; span >>= 1) max_attempts += 4;
    while (appended < count) {
      bool served = false;
      for (size_t attempt = 0; attempt < max_attempts; ++attempt) {
        const size_t idx = table.Sample(rng);
        if (scratch.emitted.insert(view.det[idx]).second) {
          out->push_back(view.det[idx]);
          ++appended;
          served = true;
          break;
        }
      }
      if (!served) break;  // rejection regime went degenerate
    }
    if (appended == count) return count;
  }

  // Gumbel-max over the pages not yet served: one perturbed key per page,
  // top keys descending. Conditioning a Plackett-Luce realization on its
  // first `appended` entries leaves a Plackett-Luce law over the remainder,
  // which Gumbel-max samples exactly; with nothing served it is the whole
  // query.
  scratch.keyed.clear();
  scratch.keyed.reserve(n - appended);
  for (size_t j = 0; j < n; ++j) {
    if (appended > 0 && scratch.emitted.count(view.det[j]) > 0) continue;
    scratch.keyed.emplace_back(
        view.det_score[j] / temperature_ + NextGumbel(rng), view.det[j]);
  }
  const size_t rest = count - appended;
  // Ties have probability zero in exact arithmetic; break them by page id so
  // floating-point collisions stay deterministic.
  const auto better = [](const std::pair<double, uint32_t>& a,
                         const std::pair<double, uint32_t>& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  };
  if (rest < scratch.keyed.size()) {
    std::nth_element(scratch.keyed.begin(),
                     scratch.keyed.begin() + static_cast<ptrdiff_t>(rest - 1),
                     scratch.keyed.end(), better);
  }
  std::sort(scratch.keyed.begin(),
            scratch.keyed.begin() + static_cast<ptrdiff_t>(rest), better);
  for (size_t j = 0; j < rest; ++j) out->push_back(scratch.keyed[j].second);
  return count;
}

std::vector<uint32_t> PlackettLucePolicy::MaterializeReference(
    const RankView& view, Rng& rng) const {
  // Naive sequential softmax sampling without replacement — the textbook
  // Plackett-Luce definition, independent of both fast paths.
  assert(view.det_score != nullptr);
  const size_t n = view.det_size;
  double max_score = 0.0;
  for (size_t j = 0; j < n; ++j) {
    max_score = std::max(max_score, view.det_score[j]);
  }
  std::vector<double> weight(n);
  double mass = 0.0;
  for (size_t j = 0; j < n; ++j) {
    weight[j] = std::exp((view.det_score[j] - max_score) / temperature_);
    mass += weight[j];
  }

  std::vector<uint32_t> out;
  out.reserve(n);
  for (size_t slot = 0; slot < n; ++slot) {
    double target = rng.NextDouble() * mass;
    size_t pick = n;
    for (size_t j = 0; j < n; ++j) {
      if (weight[j] == 0.0) continue;
      pick = j;  // last live page absorbs rounding leftovers
      target -= weight[j];
      if (target < 0.0) break;
    }
    assert(pick < n);
    out.push_back(view.det[pick]);
    mass -= weight[pick];
    weight[pick] = 0.0;
  }
  return out;
}

std::shared_ptr<const StochasticRankingPolicy> MakePlackettLucePolicy(
    double temperature) {
  return std::make_shared<PlackettLucePolicy>(temperature);
}

}  // namespace randrank

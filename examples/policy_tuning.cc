// Tune the stochastic-ranking policy for a community, in two stages:
//
//  1. Promotion family (the paper's Section 6.4 workflow): sweep rule, r,
//     and k with the analytical model (seconds instead of
//     simulation-hours) and print the QPC landscape plus the recommended
//     configuration.
//  2. Cross-family comparison: serve every policy in the harness's
//     PolicyTuningGrid (promotion, Plackett-Luce, epsilon-tail) against
//     one synthetic corpus through the real ShardedRankServer and print
//     click-weighted exposure metrics side by side — the families the
//     analytic model cannot score are measured instead of modeled.
//
//   ./build/examples/policy_tuning [--pages N] [--users N] [--visits V]

#include <algorithm>
#include <cstring>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "core/community.h"
#include "core/policy/stochastic_ranking_policy.h"
#include "core/ranking_policy.h"
#include "core/visit_law.h"
#include "harness/presets.h"
#include "model/analytic_model.h"
#include "serve/sharded_rank_server.h"
#include "util/rng.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace randrank;
  CommunityParams params = CommunityParams::Default();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--pages") == 0 && i + 1 < argc) {
      params.n = std::stoul(argv[++i]);
    } else if (std::strcmp(argv[i], "--users") == 0 && i + 1 < argc) {
      params.u = std::stoul(argv[++i]);
      params.m = std::max<size_t>(1, params.u / 10);
    } else if (std::strcmp(argv[i], "--visits") == 0 && i + 1 < argc) {
      params.visits_per_day = std::stod(argv[++i]);
    }
  }
  if (!params.Valid()) {
    std::cerr << "invalid community parameters\n";
    return 1;
  }

  std::cout << "Tuning rank promotion for a community with n=" << params.n
            << " pages, u=" << params.u << " users, vu="
            << params.visits_per_day << " visits/day.\n\n";

  const std::vector<double> rs{0.02, 0.05, 0.1, 0.2};
  const std::vector<size_t> ks{1, 2, 6};

  double best_qpc = 0.0;
  RankPromotionConfig best = RankPromotionConfig::None();

  AnalyticModel baseline(params, RankPromotionConfig::None());
  const double none_qpc = baseline.NormalizedQpc();
  std::cout << "deterministic baseline QPC: " << FormatFixed(none_qpc, 3)
            << " (normalized), TBP(q=0.4): "
            << FormatFixed(baseline.Tbp(0.4), 0) << " days\n\n";

  Table table({"rule", "r", "k", "QPC", "TBP(0.4) days", "vs baseline"});
  for (const bool selective : {true, false}) {
    for (const size_t k : ks) {
      for (const double r : rs) {
        const RankPromotionConfig config =
            selective ? RankPromotionConfig::Selective(r, k)
                      : RankPromotionConfig::Uniform(r, k);
        AnalyticModel model(params, config);
        const double qpc = model.NormalizedQpc();
        table.Row()
            .Cell(selective ? "selective" : "uniform")
            .Cell(r, 2)
            .Cell(static_cast<long long>(k))
            .Cell(qpc, 3)
            .Cell(model.Tbp(0.4), 0)
            .Cell((qpc / none_qpc - 1.0) * 100.0, 1);
        if (qpc > best_qpc) {
          best_qpc = qpc;
          best = config;
        }
      }
    }
  }
  table.Print(std::cout);

  std::cout << "\nrecommended: " << best.Label() << " (QPC "
            << FormatFixed(best_qpc, 3) << ", "
            << FormatFixed((best_qpc / none_qpc - 1.0) * 100.0, 0)
            << "% over deterministic ranking)\n"
            << "paper's recipe: selective, r=0.1, k in {1,2} -- expect "
               "agreement for default-like communities.\n";

  // --- Stage 2: cross-family comparison on the serving stack ------------
  //
  // Synthetic corpus: every page has a true quality in [0, 0.4]; a tenth of
  // them have never been seen (zero awareness, ranking popularity 0) while
  // the rest are fully discovered (popularity == quality). A policy that
  // never surfaces the unknown tail forfeits whatever quality hides there.
  const size_t corpus_n = std::max<size_t>(2000, params.n);
  const size_t top_m = 20;
  const size_t queries = 4000;
  std::vector<double> quality(corpus_n);
  std::vector<double> popularity(corpus_n);
  std::vector<uint8_t> zero(corpus_n);
  std::vector<int64_t> birth(corpus_n);
  Rng corpus_rng(1234);
  for (size_t p = 0; p < corpus_n; ++p) {
    quality[p] = corpus_rng.NextDouble() * 0.4;
    zero[p] = p % 10 == 0;
    popularity[p] = zero[p] ? 0.0 : quality[p];
    birth[p] = static_cast<int64_t>(p % 512);
  }

  std::cout << "\nCross-family serving comparison (n=" << corpus_n
            << " pages, 10% undiscovered, m=" << top_m << ", " << queries
            << " queries):\n"
            << "  click-QPC  = expected quality per click (rank-biased "
               "clicks over the served top-m)\n"
            << "  tail-share = fraction of clicks landing on undiscovered "
               "pages (exploration spent)\n"
            << "  distinct   = distinct pages surfaced anywhere in a "
               "top-m across all queries\n\n";

  const VisitLaw click_law(top_m, 1.0, params.rank_bias_exponent);
  Table families({"family", "policy", "click-QPC", "tail-share", "distinct"});
  for (const auto& policy : PolicyTuningGrid()) {
    ServeOptions opts;
    opts.seed = 0xfa51ULL;
    ShardedRankServer server(policy, corpus_n, opts);
    server.Update(popularity, zero, birth);
    auto ctx = server.CreateContext();

    double qpc_weighted = 0.0;
    double tail_weighted = 0.0;
    std::set<uint32_t> distinct;
    std::vector<uint32_t> out;
    for (size_t q = 0; q < queries; ++q) {
      server.ServeTopM(ctx, top_m, &out);
      for (size_t j = 0; j < out.size(); ++j) {
        const double w = click_law.RankProbability(j + 1);
        qpc_weighted += w * quality[out[j]];
        tail_weighted += w * (zero[out[j]] ? 1.0 : 0.0);
        distinct.insert(out[j]);
      }
    }
    const std::string label = policy->Label();
    families.Row()
        .Cell(label.substr(0, label.find('(')))
        .Cell(label)
        .Cell(qpc_weighted / static_cast<double>(queries), 4)
        .Cell(tail_weighted / static_cast<double>(queries), 4)
        .Cell(static_cast<long long>(distinct.size()));
  }
  families.Print(std::cout);

  std::cout << "\nreading: the promotion family spends its exploration "
               "budget only on undiscovered pages; Plackett-Luce mixes by "
               "score everywhere (higher temperatures trade head quality "
               "for tail reach); eps-tail explores uniformly below the "
               "protected prefix. Pick by how much of the corpus is worth "
               "discovering.\n";
  return 0;
}

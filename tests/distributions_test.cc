#include "util/distributions.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <optional>
#include <random>
#include <vector>

#include "util/rng.h"

namespace randrank {
namespace {

TEST(PowerLawQuantilesTest, TopValueIsMax) {
  PowerLawQuantiles q(2.1, 0.4);
  EXPECT_DOUBLE_EQ(q.Value(0, 100), 0.4);
}

TEST(PowerLawQuantilesTest, Decreasing) {
  PowerLawQuantiles q(2.1, 0.4);
  const std::vector<double> values = q.Values(1000);
  for (size_t i = 1; i < values.size(); ++i) {
    EXPECT_LT(values[i], values[i - 1]);
  }
}

TEST(PowerLawQuantilesTest, TailExponentMatches) {
  // value(i) ~ i^{-1/(a-1)}; check the log-log slope between far apart ranks.
  PowerLawQuantiles q(2.1, 0.4);
  const double v10 = q.Value(9, 100000);
  const double v1000 = q.Value(999, 100000);
  const double slope = (std::log(v1000) - std::log(v10)) /
                       (std::log(1000.0) - std::log(10.0));
  EXPECT_NEAR(slope, -1.0 / 1.1, 1e-9);
}

TEST(PowerLawQuantilesTest, AllPositive) {
  PowerLawQuantiles q(2.1, 0.4);
  for (const double v : q.Values(10000)) EXPECT_GT(v, 0.0);
}

TEST(ZipfSamplerTest, PmfSumsToOne) {
  ZipfSampler zipf(50, 1.2);
  double total = 0.0;
  for (size_t k = 1; k <= 50; ++k) total += zipf.Pmf(k);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(ZipfSamplerTest, PmfDecreasing) {
  ZipfSampler zipf(50, 1.2);
  for (size_t k = 2; k <= 50; ++k) EXPECT_LT(zipf.Pmf(k), zipf.Pmf(k - 1));
}

TEST(ZipfSamplerTest, SampleMatchesPmf) {
  ZipfSampler zipf(10, 1.0);
  Rng rng(61);
  std::vector<int> counts(11, 0);
  const int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) ++counts[zipf.Sample(rng)];
  for (size_t k = 1; k <= 10; ++k) {
    EXPECT_NEAR(static_cast<double>(counts[k]) / kDraws, zipf.Pmf(k), 0.01);
  }
}

TEST(AliasSamplerTest, MatchesWeights) {
  const std::vector<double> weights{1.0, 2.0, 3.0, 4.0};
  AliasSampler alias(weights);
  Rng rng(67);
  std::vector<int> counts(4, 0);
  const int kDraws = 400000;
  for (int i = 0; i < kDraws; ++i) ++counts[alias.Sample(rng)];
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / kDraws, weights[i] / 10.0,
                0.01);
  }
}

TEST(AliasSamplerTest, ZeroWeightNeverDrawn) {
  AliasSampler alias({0.0, 1.0, 0.0, 1.0});
  Rng rng(71);
  for (int i = 0; i < 10000; ++i) {
    const size_t s = alias.Sample(rng);
    EXPECT_TRUE(s == 1 || s == 3);
  }
}

TEST(AliasSamplerTest, SingleEntry) {
  AliasSampler alias({5.0});
  Rng rng(73);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(alias.Sample(rng), 0u);
}

TEST(RankBiasSamplerTest, PmfSumsToOne) {
  RankBiasSampler sampler(1000);
  double total = 0.0;
  for (size_t i = 1; i <= 1000; ++i) total += sampler.Pmf(i);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(RankBiasSamplerTest, FollowsPowerLaw) {
  RankBiasSampler sampler(1000);
  // Pmf(i) proportional to i^{-3/2}: check ratio between ranks 1 and 4 is 8.
  EXPECT_NEAR(sampler.Pmf(1) / sampler.Pmf(4), 8.0, 1e-9);
}

TEST(RankBiasSamplerTest, SamplesConcentrateOnTop) {
  RankBiasSampler sampler(10000);
  Rng rng(79);
  int top10 = 0;
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) top10 += sampler.Sample(rng) <= 10;
  // P(rank <= 10) = sum_{1..10} i^-1.5 / sum_{1..10000} i^-1.5 ~ 0.78.
  double expected = 0.0;
  for (size_t i = 1; i <= 10; ++i) expected += sampler.Pmf(i);
  EXPECT_NEAR(static_cast<double>(top10) / kDraws, expected, 0.01);
}

TEST(RankBiasSamplerTest, ThetaNormalizes) {
  RankBiasSampler sampler(100);
  double total = 0.0;
  for (size_t i = 1; i <= 100; ++i) {
    total += sampler.theta() * std::pow(static_cast<double>(i), -1.5);
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(RankBiasSamplerTest, CustomExponent) {
  RankBiasSampler sampler(100, 2.0);
  EXPECT_NEAR(sampler.Pmf(1) / sampler.Pmf(2), 4.0, 1e-9);
}

TEST(RankBiasSamplerTest, SampleWithinRange) {
  RankBiasSampler sampler(17);
  Rng rng(83);
  for (int i = 0; i < 10000; ++i) {
    const size_t rank = sampler.Sample(rng);
    EXPECT_GE(rank, 1u);
    EXPECT_LE(rank, 17u);
  }
}

TEST(IncompleteBetaTest, MatchesClosedForms) {
  for (const double x : {0.0, 1e-9, 0.1, 0.37, 0.5, 0.9, 1.0 - 1e-9, 1.0}) {
    for (const double b : {0.5, 1.0, 3.0, 40.0}) {
      // I_x(1, b) = 1 - (1 - x)^b and I_x(a, 1) = x^a.
      EXPECT_NEAR(RegularizedIncompleteBeta(x, 1.0, b),
                  1.0 - std::pow(1.0 - x, b), 1e-13)
          << x << " " << b;
      EXPECT_NEAR(RegularizedIncompleteBeta(x, b, 1.0), std::pow(x, b), 1e-13)
          << x << " " << b;
      // The reflection I_x(a, b) = 1 - I_{1-x}(b, a).
      EXPECT_NEAR(RegularizedIncompleteBeta(x, 2.5, b),
                  1.0 - RegularizedIncompleteBeta(1.0 - x, b, 2.5), 1e-13);
    }
  }
  for (const double a : {0.3, 2.0, 17.5, 1e4}) {
    EXPECT_NEAR(RegularizedIncompleteBeta(0.5, a, a), 0.5, 1e-12) << a;
  }
}

/// ts-promo's duel at normalized head score s: P(Beta(a, b) > Beta(1 + c s,
/// 1 + c (1 - s))), where a closed form applies.
std::optional<double> Duel(double a, double b, double c, double s) {
  return BetaDuelWinProbability(a, b, 1.0 + c * s, 1.0 + c * (1.0 - s));
}

// The evaluator against duels drawn with <random>'s gamma sampler, which
// shares no code with it (nor with the policy's Marsaglia-Tsang reference).
// Points cover c in {0, 1, 20, 200}, a non-integer a (the mirror in b) and
// a non-integer b (the sum in a).
TEST(BetaDuelTest, MatchesMonteCarloDuels) {
  struct Point {
    double a, b, c, s;
  };
  const Point points[] = {
      {1.0, 3.0, 20.0, 0.7},    // the benchmark's prior
      {0.5, 3.0, 0.0, 0.3},     // c = 0: the head posterior is uniform
      {2.5, 1.0, 1.0, 0.3},     // non-integer a: the mirror
      {0.7, 4.0, 20.0, 0.1},    // the mirror
      {3.0, 0.5, 200.0, 0.05},  // integer a, non-integer b
      {1.5, 2.0, 200.0, 0.9},   // the mirror
      {2.0, 4.2, 20.0, 0.5},    // integer a, non-integer b
  };
  constexpr int kDuels = 400000;
  Rng rng(16);
  for (const Point& p : points) {
    const double alpha = 1.0 + p.c * p.s;
    const double beta = 1.0 + p.c * (1.0 - p.s);
    std::gamma_distribution<double> gamma_a(p.a), gamma_b(p.b);
    std::gamma_distribution<double> gamma_alpha(alpha), gamma_beta(beta);
    int wins = 0;
    for (int i = 0; i < kDuels; ++i) {
      const double ga = gamma_a(rng);
      const double x = ga / (ga + gamma_b(rng));
      const double gy = gamma_alpha(rng);
      const double y = gy / (gy + gamma_beta(rng));
      wins += x > y ? 1 : 0;
    }
    const std::optional<double> exact = Duel(p.a, p.b, p.c, p.s);
    ASSERT_TRUE(exact.has_value());
    const double se = std::sqrt(*exact * (1.0 - *exact) / kDuels);
    EXPECT_NEAR(static_cast<double>(wins) / kDuels, *exact, 4.0 * se + 1e-9)
        << "a=" << p.a << " b=" << p.b << " c=" << p.c << " s=" << p.s;
  }
}

/// The duel by numeric integration, independent of the closed form:
/// E[1 - I_Y(a, b)] for Y ~ Beta(alpha, beta), composite Simpson in t with
/// Y = sin^2(pi t / 2), Y's density normalized by the same rule. The
/// substitution turns y^(alpha - 1) dy and (1 - y)^b into powers of sin and
/// cos, smooth when 2 (alpha - 1) and 2 b are integers.
double DuelByIntegration(double a, double b, double alpha, double beta) {
  constexpr int kIntervals = 20000;
  double w_sum = 0.0;
  double ws_sum = 0.0;
  for (int i = 0; i <= kIntervals; ++i) {
    const double t = static_cast<double>(i) / kIntervals;
    const double sn = std::sin(0.5 * std::numbers::pi * t);
    const double cs = std::cos(0.5 * std::numbers::pi * t);
    const double y = sn * sn;
    const double w = std::pow(sn, 2.0 * alpha - 1.0) *
                     std::pow(cs, 2.0 * beta - 1.0) *
                     (i == 0 || i == kIntervals ? 1.0 : (i % 2 == 1 ? 4.0 : 2.0));
    w_sum += w;
    ws_sum += w * (1.0 - RegularizedIncompleteBeta(y, a, b));
  }
  return ws_sum / w_sum;
}

// Where the closed form applies (the sum in a or its mirror) it agrees with
// the numeric integral.
TEST(BetaDuelTest, ClosedFormAgreesWithIntegration) {
  const double priors[][2] = {{1.0, 3.0}, {2.0, 0.5}, {0.5, 4.0},
                              {3.0, 3.0}, {7.0, 1.5}, {1.0, 1.0}};
  for (const auto& prior : priors) {
    const double a = prior[0];
    const double b = prior[1];
    for (const double c : {0.0, 1.0, 20.0, 200.0}) {
      for (const double s : {0.0, 0.5, 1.0}) {
        const double alpha = 1.0 + c * s;
        const double beta = 1.0 + c * (1.0 - s);
        const std::optional<double> p =
            BetaDuelWinProbability(a, b, alpha, beta);
        ASSERT_TRUE(p.has_value());
        EXPECT_NEAR(*p, DuelByIntegration(a, b, alpha, beta), 1e-10)
            << "a=" << a << " b=" << b << " c=" << c << " s=" << s;
      }
    }
  }
}

TEST(BetaDuelTest, KnownValuesAndLimits) {
  for (const double a : {0.5, 1.0, 2.5, 3.0}) {
    for (const double b : {0.5, 3.0, 4.5}) {
      const bool closed = a == std::floor(a) || b == std::floor(b);
      // c = 0: Y is uniform, so the duel is E[X] = a / (a + b); with
      // neither a nor b an integer there is no closed form.
      EXPECT_EQ(Duel(a, b, 0.0, 0.4).has_value(), closed) << a << " " << b;
      EXPECT_EQ(Duel(a, b, 1e9, 0.4).has_value(), closed) << a << " " << b;
      if (closed) {
        EXPECT_NEAR(*Duel(a, b, 0.0, 0.4), a / (a + b), 1e-11)
            << a << " " << b;
        // It approaches the point-mass limit as c grows.
        EXPECT_NEAR(*Duel(a, b, 1e9, 0.3),
                    1.0 - RegularizedIncompleteBeta(0.3, a, b), 1e-6);
      }
      // Huge c: Y is a point mass at s, so the duel is P(X > s), for every
      // prior.
      for (const double s : {0.0, 0.3, 1.0}) {
        EXPECT_NEAR(Duel(a, b, 1e40, s).value(),
                    1.0 - RegularizedIncompleteBeta(s, a, b), 1e-12);
      }
    }
  }
  // a = 1: P(Beta(1, b) > Y) = E[(1 - Y)^b] = B(alpha, beta + b) / B(alpha,
  // beta); at alpha = beta = 2, b = 2 that is (1/20) / (1/6) = 3/10.
  EXPECT_NEAR(BetaDuelWinProbability(1.0, 2.0, 2.0, 2.0).value(), 0.3, 1e-14);
  // Integers past the closed form's 256 terms, and a huge prior that is a
  // point mass: P(Y < 1/2) at alpha = 2, beta = 2 is 1/2.
  EXPECT_FALSE(BetaDuelWinProbability(257.0, 257.5, 2.0, 2.0).has_value());
  EXPECT_NEAR(BetaDuelWinProbability(1e12, 1e12, 2.0, 2.0).value(), 0.5,
              1e-12);
}

// Whatever the parameters of a valid ts-promo policy, a p the evaluator
// returns is a probability and does not rise with the head's score.
TEST(BetaDuelTest, ExtremeParametersStayFiniteAndMonotone) {
  const double priors[] = {1e-3, 0.5, 1.0, 3.0, 3.7, 256.0, 1e6, 1e40};
  int evaluated = 0;
  for (const double a : priors) {
    for (const double b : priors) {
      for (const double c : {0.0, 1e-300, 20.0, 1e6, 1e12, 1e40, 1e308}) {
        double previous = 1.0;
        for (const double s : {0.0, 0.3, 0.31, 0.9, 1.0}) {
          const std::optional<double> p = Duel(a, b, c, s);
          if (!p.has_value()) continue;
          ++evaluated;
          ASSERT_TRUE(*p >= 0.0 && *p <= 1.0)
              << "a=" << a << " b=" << b << " c=" << c << " s=" << s;
          EXPECT_LE(*p, previous + 1e-9)
              << "a=" << a << " b=" << b << " c=" << c << " s=" << s;
          previous = *p;
        }
      }
    }
  }
  EXPECT_GT(evaluated, 1000);
}

}  // namespace
}  // namespace randrank

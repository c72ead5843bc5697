#include "util/distributions.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <optional>

namespace randrank {

PowerLawQuantiles::PowerLawQuantiles(double exponent, double max_value)
    : exponent_(exponent), max_value_(max_value) {
  assert(exponent > 1.0);
  assert(max_value > 0.0);
}

double PowerLawQuantiles::Value(size_t i, size_t n) const {
  assert(i < n);
  (void)n;
  // Order statistics of a Pareto with pdf exponent a: the (i+1)-th largest of
  // n scales as ((i + 1))^(-1/(a-1)) relative to the largest. Using rank
  // directly (rather than rank/n) pins the top value at max_value_.
  const double tail_exponent = 1.0 / (exponent_ - 1.0);
  return max_value_ * std::pow(static_cast<double>(i + 1), -tail_exponent);
}

std::vector<double> PowerLawQuantiles::Values(size_t n) const {
  std::vector<double> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = Value(i, n);
  return out;
}

ZipfSampler::ZipfSampler(size_t n, double s) {
  assert(n > 0);
  cdf_.resize(n);
  double total = 0.0;
  for (size_t k = 1; k <= n; ++k) {
    total += std::pow(static_cast<double>(k), -s);
    cdf_[k - 1] = total;
  }
  for (auto& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against rounding
}

size_t ZipfSampler::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<size_t>(it - cdf_.begin()) + 1;
}

double ZipfSampler::Pmf(size_t k) const {
  assert(k >= 1 && k <= cdf_.size());
  const double below = (k == 1) ? 0.0 : cdf_[k - 2];
  return cdf_[k - 1] - below;
}

AliasSampler::AliasSampler(const std::vector<double>& weights) {
  const size_t n = weights.size();
  assert(n > 0);
  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  assert(total > 0.0);

  std::vector<double> scaled(n);
  for (size_t i = 0; i < n; ++i) scaled[i] = weights[i] * n / total;

  std::vector<uint32_t> small;
  std::vector<uint32_t> large;
  small.reserve(n);
  large.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const uint32_t s = small.back();
    small.pop_back();
    const uint32_t l = large.back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  for (const uint32_t i : large) prob_[i] = 1.0;
  for (const uint32_t i : small) prob_[i] = 1.0;  // numerical leftovers
}

size_t AliasSampler::Sample(Rng& rng) const {
  const size_t column = rng.NextIndex(prob_.size());
  return rng.NextDouble() < prob_[column] ? column : alias_[column];
}

RankBiasSampler::RankBiasSampler(size_t n, double exponent)
    : exponent_(exponent) {
  assert(n > 0);
  cdf_.resize(n);
  double total = 0.0;
  for (size_t i = 1; i <= n; ++i) {
    total += std::pow(static_cast<double>(i), -exponent_);
    cdf_[i - 1] = total;
  }
  theta_ = 1.0 / total;
  for (auto& c : cdf_) c /= total;
  cdf_.back() = 1.0;
}

size_t RankBiasSampler::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<size_t>(it - cdf_.begin()) + 1;
}

double RankBiasSampler::Pmf(size_t i) const {
  assert(i >= 1 && i <= cdf_.size());
  const double below = (i == 1) ? 0.0 : cdf_[i - 2];
  return cdf_[i - 1] - below;
}

namespace {

/// A Beta whose parameters sum past this has sd below 1e-5 and counts as a
/// point mass at its mean: the duel is then within O(1 / (a + b)) of its
/// limit, and the continued fraction (O(sqrt(a + b)) steps) stays bounded.
constexpr double kPointMass = 1e10;
/// Largest integer a (or b) summed in closed form: a publish sums at most
/// this many terms per det position of ts-promo's head.
constexpr double kMaxClosedFormTerms = 256;

/// ln Gamma(x); lgamma_r leaves the global signgam alone, so concurrent
/// publishers may call it.
double LogGamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

/// ln Gamma(x + h) - ln Gamma(x) for x, h > 0, without subtracting two large
/// log-gammas: past x = 15 Stirling's series is differenced term by term
/// (its truncation error there is below 1e-14).
double LogGammaRatio(double x, double h) {
  if (x < 15.0) return LogGamma(x + h) - LogGamma(x);
  const auto series = [](double z) {
    const double z2 = 1.0 / (z * z);
    return (1.0 / 12.0 -
            z2 * (1.0 / 360.0 - z2 * (1.0 / 1260.0 - z2 / 1680.0))) /
           z;
  };
  return h * (std::log(x) - 1.0) + (x + h - 0.5) * std::log1p(h / x) +
         series(x + h) - series(x);
}

/// ln B(a, b) = ln Gamma(min) - (ln Gamma(min + max) - ln Gamma(max)).
double LogBeta(double a, double b) {
  const double lo = std::min(a, b);
  return LogGamma(lo) - LogGammaRatio(std::max(a, b), lo);
}

/// The continued fraction of I_x(a, b) (modified Lentz); converges in
/// O(sqrt(max(a, b))) steps for x < (a + 1) / (a + b + 2).
double IncompleteBetaFraction(double x, double a, double b) {
  constexpr double kTiny = 1e-300;
  constexpr double kEpsilon = 1e-15;
  constexpr int kMaxSteps = 1000000;
  const auto guard = [](double v) { return std::fabs(v) < kTiny ? kTiny : v; };
  double c = 1.0;
  double d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0));
  double h = d;
  for (int m = 1; m <= kMaxSteps; ++m) {
    const double m2 = 2.0 * m;
    double step = m * (b - m) * x / ((a - 1.0 + m2) * (a + m2));
    d = 1.0 / guard(1.0 + step * d);
    c = guard(1.0 + step / c);
    h *= d * c;
    step = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2));
    d = 1.0 / guard(1.0 + step * d);
    c = guard(1.0 + step / c);
    const double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < kEpsilon) break;
  }
  return h;
}

/// Both tails of Beta(a, b) at x: {P(X <= x), P(X > x)}. The tail on x's
/// side of the mean comes from the continued fraction and the other as its
/// complement, so a tail near 0 keeps its relative precision.
/// `one_minus_x` is passed so a caller that knows 1 - x precisely keeps it.
struct BetaTails {
  double lower;
  double upper;
};
BetaTails Tails(double x, double one_minus_x, double a, double b,
                double log_beta_ab) {
  if (!(x > 0.0)) return {0.0, 1.0};
  if (!(one_minus_x > 0.0)) return {1.0, 0.0};
  const bool from_below = x < (a + 1.0) / (a + b + 2.0);
  const double log_front = a * std::log(x) + b * std::log(one_minus_x) -
                           log_beta_ab - std::log(from_below ? a : b);
  // A prefactor this small leaves nothing for the fraction to lift.
  const double near =
      log_front < -720.0
          ? 0.0
          : std::clamp(std::exp(log_front) *
                           (from_below
                                ? IncompleteBetaFraction(x, a, b)
                                : IncompleteBetaFraction(one_minus_x, b, a)),
                       0.0, 1.0);
  return from_below ? BetaTails{near, 1.0 - near} : BetaTails{1.0 - near, near};
}

bool IsClosedFormCount(double v) {
  return v >= 1.0 && v <= kMaxClosedFormTerms && v == std::floor(v);
}

/// P(Beta(terms, b) > Beta(alpha, beta)) for a positive integer `terms`:
/// the finite sum, each term from the last by its ratio, accumulated in log
/// space so a large b or alpha + beta neither overflows nor cancels.
double DuelClosedForm(double terms, double b, double alpha, double beta) {
  double log_term = LogGammaRatio(beta, b) - LogGammaRatio(alpha + beta, b);
  double log_max = log_term;
  double sum = 1.0;  // of exp(log term - log_max)
  for (double j = 0.0; j + 1.0 < terms; j += 1.0) {
    log_term += std::log((alpha + j) * (j + b) /
                         ((alpha + beta + b + j) * (j + 1.0)));
    if (log_term > log_max) {
      sum = sum * std::exp(log_max - log_term) + 1.0;
      log_max = log_term;
    } else {
      sum += std::exp(log_term - log_max);
    }
  }
  return std::clamp(std::exp(log_max) * sum, 0.0, 1.0);
}

}  // namespace

double RegularizedIncompleteBeta(double x, double a, double b) {
  assert(a > 0.0 && b > 0.0);
  return Tails(x, 1.0 - x, a, b, LogBeta(a, b)).lower;
}

std::optional<double> BetaDuelWinProbability(double a, double b,
                                             double alpha, double beta) {
  assert(a > 0.0 && b > 0.0 && alpha > 0.0 && beta > 0.0);
  // Means as 1 / (1 + q / p), which stays right when p + q overflows.
  const double nu = 1.0 / (1.0 + b / a);
  const double mu = 1.0 / (1.0 + beta / alpha);
  const bool x_point = a + b > kPointMass;
  const bool y_point = alpha + beta > kPointMass;
  if (x_point && y_point) return nu > mu ? 1.0 : (nu < mu ? 0.0 : 0.5);
  if (x_point) {  // P(Y < nu)
    return Tails(nu, 1.0 / (1.0 + a / b), alpha, beta, LogBeta(alpha, beta))
        .lower;
  }
  if (y_point) {  // P(X > mu)
    return Tails(mu, 1.0 / (1.0 + alpha / beta), a, b, LogBeta(a, b)).upper;
  }
  // The shorter of the sum in a and its mirror: X > Y iff 1 - X < 1 - Y,
  // with 1 - X ~ Beta(b, a).
  const bool sum_in_a = IsClosedFormCount(a) && !(b < a && IsClosedFormCount(b));
  if (sum_in_a) return DuelClosedForm(a, b, alpha, beta);
  if (IsClosedFormCount(b)) return 1.0 - DuelClosedForm(b, a, beta, alpha);
  return std::nullopt;
}

}  // namespace randrank

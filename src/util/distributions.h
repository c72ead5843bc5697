#ifndef RANDRANK_UTIL_DISTRIBUTIONS_H_
#define RANDRANK_UTIL_DISTRIBUTIONS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "util/rng.h"

namespace randrank {

/// Deterministic power-law quantile assignment.
///
/// The paper draws page quality from "the power-law distribution reported for
/// PageRank in [Cho & Roy 2004]" (pdf exponent ~2.1) scaled so the highest
/// quality equals `max_value`. Sampling would inject noise into sweeps, so we
/// instead assign the i-th largest of n values its expected order statistic:
///   value(i) = max_value * ((i + 0.5) / (0.5))^(-1/(exponent-1))  -- i from 0.
/// This keeps the quality distribution stationary across page churn exactly as
/// the model requires (a retired page is replaced by one of equal quality).
class PowerLawQuantiles {
 public:
  /// `exponent` is the pdf exponent (> 1); `max_value` the largest value.
  PowerLawQuantiles(double exponent, double max_value);

  /// Value of the i-th largest out of n (i in [0, n)).
  double Value(size_t i, size_t n) const;

  /// All n values, descending.
  std::vector<double> Values(size_t n) const;

  double exponent() const { return exponent_; }
  double max_value() const { return max_value_; }

 private:
  double exponent_;
  double max_value_;
};

/// Bounded Zipf(s) sampler over {1, ..., n} by inverse-CDF binary search.
/// Used by graph generators and as a property-test reference.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);

  /// Draws a value in [1, n].
  size_t Sample(Rng& rng) const;

  /// P(X = k).
  double Pmf(size_t k) const;

  size_t n() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;  // cdf_[k-1] = P(X <= k)
};

/// Walker alias method for O(1) sampling from a fixed discrete distribution.
/// Weights need not be normalized; zero-weight entries are never drawn.
class AliasSampler {
 public:
  explicit AliasSampler(const std::vector<double>& weights);

  /// Draws an index in [0, size()).
  size_t Sample(Rng& rng) const;

  size_t size() const { return prob_.size(); }

 private:
  std::vector<double> prob_;
  std::vector<uint32_t> alias_;
};

/// Samples a rank position from the paper's rank->visit law
/// F2(i) = theta * i^(-3/2) truncated to ranks 1..n (Eq. 4). Visits to a
/// result list are rank-biased; this is the distribution of the rank position
/// of a single visit. Inverse-CDF lookup via binary search on a precomputed
/// prefix table (exact, not approximate).
class RankBiasSampler {
 public:
  /// `exponent` defaults to the AltaVista-measured 3/2.
  explicit RankBiasSampler(size_t n, double exponent = 1.5);

  /// Draws a rank in [1, n].
  size_t Sample(Rng& rng) const;

  /// P(rank = i), i in [1, n].
  double Pmf(size_t i) const;

  /// Normalization constant theta = 1 / sum_i i^(-exponent) (for unit total).
  double theta() const { return theta_; }

  size_t n() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
  double theta_;
  double exponent_;
};

/// Regularized incomplete beta I_x(a, b) = P(Beta(a, b) <= x) for x in
/// [0, 1] and a, b > 0, by its continued fraction (modified Lentz) with the
/// prefactor in log space.
double RegularizedIncompleteBeta(double x, double a, double b);

/// The duel-win probability P(Beta(a, b) > Beta(alpha, beta)) for
/// independent draws, all parameters positive and finite, where a closed
/// form applies:
///
///  * a positive integer a (up to 256) takes the finite sum
///      g(1) = B(alpha, beta + b) / B(alpha, beta),
///      g(j + 1) = g(j) + B(alpha + j, beta + b) / (j B(j, b) B(alpha, beta)),
///    i.e. a terms from term(0) = g(1) by term(j + 1) = term(j) (alpha + j)
///    (j + b) / ((alpha + beta + b + j)(j + 1)), summed in log space;
///  * an integer b takes the mirror 1 - P(Beta(b, a) > Beta(beta, alpha))
///    (the shorter sum when both are integers);
///  * a Beta whose parameters sum past 10^10 (sd below 10^-5) counts as a
///    point mass at its mean: for huge alpha + beta the duel is its limit
///    1 - I_mu(a, b), mu = alpha / (alpha + beta).
///
/// Otherwise (neither a nor b such an integer, neither Beta a point mass)
/// returns nullopt: the caller draws the duel itself. A returned value is
/// finite and in [0, 1]. Thread-safe (no shared state).
std::optional<double> BetaDuelWinProbability(double a, double b, double alpha,
                                             double beta);

}  // namespace randrank

#endif  // RANDRANK_UTIL_DISTRIBUTIONS_H_

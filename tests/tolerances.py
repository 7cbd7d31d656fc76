"""Statistical tolerances for the tests, each K standard errors of its estimate.

For a normally distributed estimate, a correct program lands outside K = 4
standard errors with probability 2 * (1 - Phi(4)) = 6.3e-5, about one
assertion in 16,000 on a fresh seed. The tests use fixed seeds, so each one
either always passes or always fails.

A bound in SEs never exceeds the hand-picked bound it replaced. Where that
bound was narrower than K SEs of its estimate, the test keeps the narrower
multiple, rounded down to one decimal, so no rewritten test passes a bias
that the old one caught.
"""

import math
from statistics import NormalDist

K = 4.0


def coverage_tolerance(p: float, n: int) -> float:
    """K binomial standard errors of a fraction p over n draws, in the form of
    perfbench's oracle: the variance is floored at one count, so a fraction that
    expects fewer than one miss (or hit) is not judged by a normal approximation."""
    return K * math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)


def mean_se(sigma: float, n: int) -> float:
    """Standard error of the mean of n draws of standard deviation sigma."""
    return sigma / math.sqrt(n)


def sd_se(sigma: float, dof: int) -> float:
    """Standard error of a normal standard deviation sigma estimated with dof
    degrees of freedom, sigma / sqrt(2 dof): n - 1 for a sample standard
    deviation, n - 2 for the residual sigma of a fit of alpha and beta."""
    return sigma / math.sqrt(2.0 * dof)


def skewness_se(n: int) -> float:
    """Standard error of the sample skewness of n normal draws."""
    return math.sqrt(6.0 / n)


def kurtosis_se(n: int) -> float:
    """Standard error of the sample excess kurtosis of n normal draws."""
    return math.sqrt(24.0 / n)


def quantile_se(q: float, sigma: float, n: int) -> float:
    """Standard error of the sample q-quantile of n normal draws of standard
    deviation sigma: sqrt(q (1 - q) / n) over the density at that quantile."""
    z = NormalDist().inv_cdf(q)
    return math.sqrt(q * (1.0 - q) / n) / NormalDist().pdf(z) * sigma


def fit_errors(result, truth) -> tuple[float, float, float]:
    """|fitted - true| of a FitResult's alpha, beta and sigma against the model
    it was drawn from, each in standard errors: the fit's own alpha_se_db and
    beta_se, and sd_se of the true sigma over n - 2 degrees of freedom."""
    fitted = result.model
    return (abs(fitted.alpha_db - truth.alpha_db) / result.alpha_se_db,
            abs(fitted.beta - truth.beta) / result.beta_se,
            abs(fitted.sigma_db - truth.sigma_db) / sd_se(truth.sigma_db, result.n - 2))

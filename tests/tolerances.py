"""Statistical tolerances for the tests, each K standard errors of its estimate.

For a normally distributed estimate, a correct program lands outside K = 4
standard errors with probability 2 * (1 - Phi(4)) = 6.3e-5, about one
assertion in 16,000 on a fresh seed. The tests use fixed seeds, so each one
either always passes or always fails.
"""

import math

K = 4.0


def coverage_tolerance(p: float, n: int) -> float:
    """K binomial standard errors of a fraction p over n draws, in the form of
    perfbench's oracle: the variance is floored at one count, so a fraction that
    expects fewer than one miss (or hit) is not judged by a normal approximation."""
    return K * math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)

"""Reference results the benchmark checks the program's outputs against.

These are written from the textbook formulas, not from busloss's own code
paths: closed-form centred OLS with its standard errors, the binomial
standard error of a Monte-Carlo fraction, and the interference footprint as
the algorithm stood when the benchmark was defined (one Generator, one
standard normal per draw and link in row-major order, SINR combined in mW).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

THERMAL_NOISE_DBM_PER_HZ = -174.0


@dataclass(frozen=True)
class Ols:
    alpha: float
    beta: float
    sigma: float
    n: int
    x_mean: float
    sxx: float

    def se(self, sigma: float) -> tuple[float, float]:
        """(SE alpha, SE beta) for noise of standard deviation sigma."""
        return (sigma * math.sqrt(1.0 / self.n + self.x_mean**2 / self.sxx),
                sigma / math.sqrt(self.sxx))


def ols(distance_m: np.ndarray, path_loss_db: np.ndarray) -> Ols:
    """Closed-form centred least squares of path loss on 10*log10(d)."""
    x = 10.0 * np.log10(distance_m)
    y = np.asarray(path_loss_db, dtype=float)
    x_mean, y_mean = float(x.mean()), float(y.mean())
    xc = x - x_mean
    sxx = float(xc @ xc)
    beta = float(xc @ (y - y_mean)) / sxx
    alpha = y_mean - beta * x_mean
    resid = y - (alpha + beta * x)
    return Ols(alpha, beta, math.sqrt(float(resid @ resid) / (len(y) - 2)),
               len(y), x_mean, sxx)


def fittable(distance_m: np.ndarray) -> bool:
    """The fit contract: at least 3 samples at 2 or more distinct distances."""
    return len(distance_m) >= 3 and np.unique(distance_m).size >= 2


def coverage_tolerance(p: float, n_draws: int, z: float = 5.0) -> float:
    """z binomial standard errors of a fraction over n_draws draws.

    The variance is floored at one count, so links expected to miss (or hit)
    fewer than once are not judged by a normal approximation.
    """
    return z * math.sqrt(max(p * (1.0 - p), 1.0 / n_draws) / n_draws)


def footprint(means_db, sigmas_db, config, seed: int, n_draws: int,
              chunk: int = 50_000) -> list[tuple[float, float, float]]:
    """(mean, median, p05) SINR in dB per link; draws are made in row chunks,
    which yields the same stream as one (n_draws, links) draw."""
    means_db = np.asarray(means_db, dtype=float)
    sigmas_db = np.asarray(sigmas_db, dtype=float)
    k = len(means_db)
    eirp_dbm = config.tx_power_dbm + config.g_tx_dbi + config.g_rx_dbi
    noise_dbm = (THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(config.bandwidth_hz)
                 + config.noise_figure_db)
    noise_mw = 10.0 ** (noise_dbm / 10.0)
    rng = np.random.default_rng(seed)
    sinr = np.empty((k, n_draws))
    for start in range(0, n_draws, chunk):
        rows = min(chunk, n_draws - start)
        rx_mw = 10.0 ** ((eirp_dbm - (means_db + sigmas_db * rng.standard_normal((rows, k)))) / 10.0)
        total = rx_mw.sum(axis=1, keepdims=True)
        sinr[:, start:start + rows] = (10.0 * np.log10(rx_mw / (noise_mw + total - rx_mw))).T
    return [(float(np.mean(row)), float(np.median(row)), float(np.percentile(row, 5.0)))
            for row in sinr]

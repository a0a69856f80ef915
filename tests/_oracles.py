"""Independent oracles for the test suite.

These deliberately avoid the package's optimizer and estimator code paths:
likelihoods are re-expressed directly from the closed forms and maximized
by dense grid search; the undersampling probability comes from exact
inclusion-exclusion. Only package *data* types are imported.
"""

from __future__ import annotations

import math

import numpy as np

from rankfit import RankHistogram


# ---------------------------------------------------------------- histograms

def random_histogram(rng: np.random.Generator, r_max_lo: int = 2, r_max_hi: int = 24,
                     max_freq: int = 2000) -> RankHistogram:
    """Random integer-frequency histogram with non-increasing frequencies."""
    r_max = int(rng.integers(r_max_lo, r_max_hi + 1))
    freqs = np.sort(rng.integers(1, max_freq + 1, size=r_max))[::-1]
    return RankHistogram.from_frequencies([float(f) for f in freqs])


def stats_of(hist: RankHistogram):
    """(F0, F1, FlogR, r_max) computed independently of the package."""
    freqs = hist.frequencies
    F0 = math.fsum(freqs)
    F1 = math.fsum(f * (i + 1) for i, f in enumerate(freqs))
    FlogR = math.fsum(f * math.log(i + 1) for i, f in enumerate(freqs))
    return F0, F1, FlogR, len(freqs)


# ------------------------------------------------------------- grid oracles

def geometric_loglik(q, R: int, F0: float, F1: float):
    """Truncated-geometric log-likelihood, vectorized over q."""
    q = np.asarray(q, dtype=float)
    log1mq = np.log1p(-q)
    c = q / -np.expm1(R * log1mq)
    return F0 * np.log(c) + (F1 - F0) * log1mq


def grid_mle_q(F0: float, F1: float, R: int, step: float = 1e-4):
    """Dense grid argmax of the geometric log-likelihood, refined once.

    Stage 1 walks q = step, 2*step, ..., 1 - step; stage 2 re-grids the
    winning +-step neighborhood at 20001 points (2e-8 resolution).
    Returns (argmax, max log-likelihood).
    """
    grid = np.arange(1, round(1.0 / step)) * step
    q0 = grid[np.argmax(geometric_loglik(grid, R, F0, F1))]
    fine = np.clip(np.linspace(q0 - step, q0 + step, 20001), 1e-9, 1.0 - 1e-9)
    ll = geometric_loglik(fine, R, F0, F1)
    i = int(np.argmax(ll))
    return float(fine[i]), float(ll[i])


class ZetaGridOracle:
    """Dense-grid zeta MLE over alpha in [0, hi], shared across histograms.

    The harmonic normalizer for every truncation rank comes from one
    cumulative sum over the rank axis, so stage 1 costs a single fused
    array expression per histogram.
    """

    def __init__(self, N: int = 24, hi: float = 50.0, step: float = 1e-4):
        self.step = step
        self.grid = np.arange(0, round(hi / step) + 1) * step
        logr = np.log(np.arange(1, N + 1, dtype=float))
        powers = np.exp(-np.outer(self.grid, logr))
        self.logH = np.log(np.cumsum(powers, axis=1))  # logH[:, R-1] = log H(alpha, R)

    def argmax(self, F0: float, FlogR: float, R: int):
        ll = -self.grid * FlogR - F0 * self.logH[:, R - 1]
        a0 = self.grid[np.argmax(ll)]
        fine = np.linspace(max(0.0, a0 - self.step), a0 + self.step, 20001)
        logr = np.log(np.arange(1, R + 1, dtype=float))
        logH = np.log(np.exp(-np.outer(fine, logr)).sum(axis=1))
        llf = -fine * FlogR - F0 * logH
        i = int(np.argmax(llf))
        return float(fine[i]), float(llf[i])


# ----------------------------------------------- the score at an interval end

def score_sign(freqs, R: int, zeta: bool, scalar: float) -> int:
    """Sign of d loglik / d theta = sum_r f_r (E[t] - t(r)) under the zeta (t = log r)
    or geometric (t = r) pmf at scalar on 1..R, from fsum sums over the ranks: -1, 1,
    or 0 within 1e-13 of the sums' size, as an exact tie rounds to."""
    ts = [math.log(r) if zeta else float(r) for r in range(1, R + 1)]
    ws = [math.exp(-scalar * t) if zeta else math.exp((t - 1) * math.log1p(-scalar)) for t in ts]
    F0E = math.fsum(freqs) * math.fsum(w * t for w, t in zip(ws, ts)) / math.fsum(ws)
    Ft = math.fsum(f * t for f, t in zip(freqs, ts))
    return 0 if abs(F0E - Ft) <= 1e-13 * (F0E + Ft) else 1 if F0E > Ft else -1


# ------------------------------------------------- exact attestation oracle

def prob_all_attested(probs, n: int) -> float:
    """P(every category appears in n iid draws), by inclusion-exclusion.

    Sums (-1)^|S| (1 - P(S))^n over all subsets S of categories; feasible
    up to len(probs) ~ 20. Subset sums build up through a one-bit DP.
    """
    N = len(probs)
    if N > 20:
        raise ValueError("inclusion-exclusion oracle limited to 20 categories")
    subtotal = [0.0] * (1 << N)
    sign = [1] * (1 << N)
    for mask in range(1, 1 << N):
        low = mask & -mask
        subtotal[mask] = subtotal[mask ^ low] + probs[low.bit_length() - 1]
        sign[mask] = -sign[mask ^ low]
    return math.fsum(sign[m] * (1.0 - subtotal[m]) ** n for m in range(1 << N))

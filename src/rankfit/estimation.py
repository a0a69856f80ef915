"""Maximum-likelihood fitting of the ensemble members.

The free scalar of each kind is maximized over a fixed interval: alpha on
[0, 1e6], q on [1e-9, 1 - 1e-9] (the open unit interval realized with an
inset). 2-parameter kinds pin the truncation rank to R = r_max before the
scalar search, since the log-likelihood is -inf below r_max and strictly
decreasing above it. Each point of the scan and of the golden-section
refinement evaluates the closed form in F0, F1 and FlogR
(models.scalar_log_likelihood); no model object is built per point. Zeta
points past the short-cut threshold of models.harmonic (alpha >= about
54 + log2(R - 1): all scan points but alpha = 0) cost O(1), not O(R).
"""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import dataclass
from typing import Callable

from .histogram import RankHistogram, SummaryStats, summarize
from .models import DEFAULT_DOMAIN_CEILING, ModelKind, ModelParams, scalar_log_likelihood
from .models import log_likelihood  # noqa: F401  (bench/tracing.py counts calls through this name)

__all__ = [
    "ALPHA_INTERVAL",
    "Q_INTERVAL",
    "ScalarOptimum",
    "FitResult",
    "optimize_scalar",
    "fit",
    "mle_q_untruncated",
]

ALPHA_INTERVAL = (0.0, 1.0e6)
Q_EPS = 1e-9
Q_INTERVAL = (Q_EPS, 1.0 - Q_EPS)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_FLAT_EPS = 1e-12


@dataclass(frozen=True)
class ScalarOptimum:
    argmax: float
    value: float
    iterations: int
    unique: bool = True


@dataclass(frozen=True)
class FitResult:
    """A fitted ensemble member and its maximized log-likelihood (nats)."""

    params: ModelParams
    loglik: float
    n_params: int
    converged: bool
    iterations: int
    warnings: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {
            "kind": self.params.kind.value,
            "params": self.params.as_dict(),
            "loglik": self.loglik,
            "n_params": self.n_params,
            "converged": self.converged,
            "iterations": self.iterations,
            "warnings": list(self.warnings),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FitResult":
        return cls(
            params=ModelParams.from_dict(d["params"]),
            loglik=float(d["loglik"]),
            n_params=int(d["n_params"]),
            converged=bool(d["converged"]),
            iterations=int(d["iterations"]),
            warnings=tuple(d.get("warnings", ())),
        )


def optimize_scalar(objective: Callable[[float], float], lo: float, hi: float,
                    tol: float = 1e-9, *, init: float | None = None,
                    scan_points: int = 1025) -> ScalarOptimum:
    """Maximize a scalar function on [lo, hi].

    A coarse scan over ``scan_points`` equally spaced abscissas (1025 by
    default; an optional ``init`` point is added) brackets the maximum;
    golden-section search then shrinks the winning bracket below ``tol``.
    Deterministic for a given objective. Raises on NaN objective values,
    citing the offending abscissa. A flat scan (spread below 1e-12 of the
    value scale) returns the interval midpoint flagged ``unique=False``.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if scan_points < 3:
        raise ValueError("scan_points must be >= 3")

    evals = 0

    def ev(x: float) -> float:
        nonlocal evals
        evals += 1
        v = objective(x)
        if math.isnan(v):
            raise ValueError(f"objective returned NaN at x={x!r}")
        return v

    xs = [lo + (hi - lo) * k / (scan_points - 1) for k in range(scan_points)]
    xs[-1] = hi
    if init is not None and lo < init < hi:
        xs.append(init)
        xs.sort()
    values = [ev(x) for x in xs]

    vmax = max(values)
    vmin = min(values)
    if vmax - vmin <= _FLAT_EPS * max(1.0, abs(vmax)):
        mid = 0.5 * (lo + hi)
        return ScalarOptimum(argmax=mid, value=ev(mid), iterations=evals, unique=False)

    best = values.index(vmax)
    a = xs[best - 1] if best > 0 else xs[0]
    b = xs[best + 1] if best + 1 < len(xs) else xs[-1]

    # golden-section refinement on [a, b]
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = ev(x1)
    f2 = ev(x2)
    while b - a > tol:
        if f1 >= f2:
            b = x2
            x2, f2 = x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = ev(x1)
        else:
            a = x1
            x1, f1 = x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = ev(x2)
    x_best = 0.5 * (a + b)
    return ScalarOptimum(argmax=x_best, value=ev(x_best), iterations=evals, unique=True)


def mle_q_untruncated(s: SummaryStats) -> float:
    """Closed-form q estimator 1/<r> of the untruncated geometric.

    Used to seed the optimizer and as a sanity reference. Clamped into
    [1e-9, 1 - 1e-9] with a warning when the boundary is hit (mean rank 1
    means every observation sits at rank 1).
    """
    q = 1.0 / s.mean_rank
    if q > Q_INTERVAL[1]:
        _warnings.warn(
            f"mean rank {s.mean_rank} pins q at the upper boundary; clamped to {Q_INTERVAL[1]}"
        )
        return Q_INTERVAL[1]
    if q < Q_INTERVAL[0]:
        _warnings.warn(
            f"mean rank {s.mean_rank} pins q at the lower boundary; clamped to {Q_INTERVAL[0]}"
        )
        return Q_INTERVAL[0]
    return q


def _make_params(kind: ModelKind, scalar: float, R: int, N: int) -> ModelParams:
    if kind.is_zeta:
        return ModelParams(kind=kind, R=R, N=N, alpha=scalar)
    return ModelParams(kind=kind, R=R, N=N, q=scalar)


def fit(kind: ModelKind | str, hist: RankHistogram | SummaryStats,
        N: int = DEFAULT_DOMAIN_CEILING, tol: float = 1e-9) -> FitResult:
    """Fit one ensemble member to a histogram, or its SummaryStats, by maximum likelihood.

    2-parameter kinds get R = r_max (any smaller R has zero likelihood,
    any larger strictly lowers it); 1-parameter kinds get R = N. The free
    scalar is then maximized over its interval. The stats are all a fit
    reads, so ``select`` passes the ones it made and summarizes once.

    Rejects histograms with r_max > N. A single-rank histogram makes the
    scalar of a 2-parameter kind unidentifiable (pmf is the point mass at
    rank 1 regardless); such fits return the interval midpoint with
    ``converged=False`` and a degeneracy warning.
    """
    kind = ModelKind(kind)
    s = hist if isinstance(hist, SummaryStats) else summarize(hist)
    if s.r_max > N:
        raise ValueError(f"dataset attests r_max={s.r_max} ranks, beyond the domain ceiling N={N}")

    R = s.r_max if kind.n_params == 2 else N
    lo, hi = ALPHA_INTERVAL if kind.is_zeta else Q_INTERVAL

    if kind.n_params == 2 and s.r_max == 1:
        midpoint = 0.5 * (lo + hi)
        scalar_name = "alpha" if kind.is_zeta else "q"
        return FitResult(
            params=_make_params(kind, midpoint, R, N),
            loglik=0.0,
            n_params=kind.n_params,
            converged=False,
            iterations=0,
            warnings=(
                f"degenerate fit: r_max=1 makes {scalar_name} unidentifiable "
                f"(flat likelihood); returning the interval midpoint",
            ),
        )

    notes: list[str] = []
    init = None
    if kind.is_geometric:
        with _warnings.catch_warnings(record=True) as caught:
            _warnings.simplefilter("always")
            init = mle_q_untruncated(s)
        notes.extend(str(w.message) for w in caught)

    opt = optimize_scalar(scalar_log_likelihood(kind, R, s), lo, hi, tol=tol, init=init)
    if not opt.unique:
        notes.append("flat log-likelihood over the search interval; optimum is not unique")
    return FitResult(
        params=_make_params(kind, opt.argmax, R, N),
        loglik=opt.value,
        n_params=kind.n_params,
        converged=opt.unique,
        iterations=opt.iterations,
        warnings=tuple(notes),
    )

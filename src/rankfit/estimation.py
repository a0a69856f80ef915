"""Maximum-likelihood fitting of the ensemble members.

The free scalar of each kind is maximized over a fixed interval: alpha on
[0, 1e6], q on [1e-9, 1 - 1e-9] (the open unit interval realized with an
inset). 2-parameter kinds pin the truncation rank to R = r_max before the
scalar search, since the log-likelihood is -inf below r_max and strictly
decreasing above it. The search is fixed: a scan of 1025 equally spaced
points (plus, for geometric kinds, the start q = 1/mean_rank) brackets the
maximum, and golden-section search shrinks the bracket below 1e-9. Each
point evaluates the closed form in F0, F1 and FlogR
(models.scalar_log_likelihood); no model object is built per point. Zeta
points past the short-cut threshold of models.harmonic (alpha >= about
54 + log2(R - 1): all scan points but alpha = 0) cost O(1), not O(R).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .histogram import RankHistogram, SummaryStats, summarize
from .models import DEFAULT_DOMAIN_CEILING, ModelKind, ModelParams, scalar_log_likelihood
from .models import log_likelihood  # noqa: F401  (bench/tracing.py counts calls through this name)

__all__ = ["ALPHA_INTERVAL", "Q_INTERVAL", "FitResult", "fit"]

ALPHA_INTERVAL = (0.0, 1.0e6)
Q_INTERVAL = (1e-9, 1.0 - 1e-9)

_SCAN_POINTS = 1025
_TOL = 1e-9
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_FLAT_EPS = 1e-12


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


def _maximize(objective: Callable[[float], float], lo: float, hi: float,
              init: float | None) -> tuple[float, float, int, bool]:
    """Maximize objective on [lo, hi]: (argmax, value, evaluations, unique).

    The scan points (and init, if inside the interval) bracket the maximum;
    golden-section search shrinks the winning bracket below _TOL. Raises on
    a NaN objective value, citing the abscissa. A flat scan (spread below
    _FLAT_EPS of the value scale) returns the interval midpoint, not unique.
    """
    evals = 0

    def ev(x: float) -> float:
        nonlocal evals
        evals += 1
        v = objective(x)
        if math.isnan(v):
            raise ValueError(f"objective returned NaN at x={x!r}")
        return v

    xs = [lo + (hi - lo) * k / (_SCAN_POINTS - 1) for k in range(_SCAN_POINTS)]
    xs[-1] = hi
    if init is not None and lo < init < hi:
        xs.append(init)
        xs.sort()
    values = [ev(x) for x in xs]

    vmax = max(values)
    vmin = min(values)
    if vmax - vmin <= _FLAT_EPS * max(1.0, abs(vmax)):
        mid = 0.5 * (lo + hi)
        return mid, ev(mid), evals, False

    best = values.index(vmax)
    a = xs[best - 1] if best > 0 else xs[0]
    b = xs[best + 1] if best + 1 < len(xs) else xs[-1]

    # golden-section refinement on [a, b]
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = ev(x1)
    f2 = ev(x2)
    while b - a > _TOL:
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
    return x_best, ev(x_best), evals, True


def fit(kind: ModelKind | str, hist: RankHistogram | SummaryStats,
        N: int = DEFAULT_DOMAIN_CEILING) -> FitResult:
    """Fit one ensemble member to a histogram, or its SummaryStats, by maximum likelihood.

    2-parameter kinds get R = r_max (any smaller R has zero likelihood,
    any larger strictly lowers it); 1-parameter kinds get R = N. The free
    scalar is then maximized over its interval by the fixed scan and
    golden-section search of the module docstring. The stats are all a fit
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
    name = kind.scalar_name

    if kind.n_params == 2 and s.r_max == 1:
        return FitResult(
            params=ModelParams(kind=kind, R=R, N=N, **{name: 0.5 * (lo + hi)}),
            loglik=0.0,
            n_params=kind.n_params,
            converged=False,
            iterations=0,
            warnings=(
                f"degenerate fit: r_max=1 makes {name} unidentifiable "
                f"(flat likelihood); returning the interval midpoint",
            ),
        )

    notes: list[str] = []
    init = None
    if kind.is_geometric:
        init = 1.0 / s.mean_rank  # the untruncated MLE; 1 when every draw sits at rank 1
        if init > hi:
            notes.append(f"mean rank {s.mean_rank} pins q at the upper boundary; clamped to {hi}")
            init = hi

    argmax, value, evals, unique = _maximize(scalar_log_likelihood(kind, R, s), lo, hi, init)
    if not unique:
        notes.append("flat log-likelihood over the search interval; optimum is not unique")
    return FitResult(
        params=ModelParams(kind=kind, R=R, N=N, **{name: argmax}),
        loglik=value,
        n_params=kind.n_params,
        converged=unique,
        iterations=evals,
        warnings=tuple(notes),
    )

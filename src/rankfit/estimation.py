"""Maximum-likelihood fitting of the ensemble members.

The free scalar of each kind is maximized over a fixed interval: alpha on
[0, 1e6], q on [1e-9, 1 - 1e-9] (the open unit interval realized with an
inset). 2-parameter kinds pin the truncation rank to R = r_max before the
scalar search, since the log-likelihood is -inf below r_max and strictly
decreasing above it. The search is the same for every kind: a scan of 1025
equally spaced points brackets the maximum, and golden-section search
shrinks the bracket below 1e-9. Each point evaluates the closed form in F0,
F1 and FlogR (the family's objective in models); no model object is built
per point, and since SummaryStats holds only finite moments no value is
NaN. Zeta points past the short-cut threshold of models.harmonic (alpha >=
about 54 + log2(R - 1): all scan points but alpha = 0) cost O(1), not O(R).

Two rules, both ahead of the search, cover the edge cases. At R = 1 the likelihood is
flat, and the fit is unconverged at the interval midpoint. Otherwise the log-likelihood
is concave in the natural parameter, so an interval end where the score has that end's
sign is the maximum (models._Family.end), returned exactly with a "boundary:" warning.
Whichever way the scalar is found, the reported loglik is log_likelihood(params, stats).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

from ._io import json_object
from .histogram import RankHistogram, SummaryStats, summarize
from .models import (ALPHA_INTERVAL, DEFAULT_DOMAIN_CEILING, Q_INTERVAL, ModelKind, ModelParams,
                     _whole, log_likelihood)

__all__ = ["ALPHA_INTERVAL", "Q_INTERVAL", "FitResult", "fit"]

_SCAN_POINTS = 1025
_TOL = 1e-9
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class FitResult:
    """A fitted ensemble member and its maximized log-likelihood (nats); n_params
    and converged (R > 1: at R = 1 the likelihood is flat) follow from params."""

    params: ModelParams
    loglik: float
    iterations: int
    warnings: tuple[str, ...] = ()

    @property
    def n_params(self) -> int:
        return self.params.kind.n_params

    @property
    def converged(self) -> bool:
        return self.params.R > 1

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
        """as_dict's inverse; ValueError naming a field that is missing, unknown,
        of the wrong type or at odds with params."""
        json_object(d, ("kind", "params", "loglik", "n_params", "converged", "iterations"),
                    ("warnings",), "fit file")
        loglik, notes = d["loglik"], d.get("warnings", [])
        if isinstance(loglik, bool) or not (isinstance(loglik, numbers.Real)
                                            and math.isfinite(loglik)):
            raise ValueError(f"loglik must be a finite number, got {loglik!r}")
        if not (isinstance(notes, list) and all(isinstance(n, str) for n in notes)):
            raise ValueError(f"warnings must be a list of strings, got {notes!r}")
        result = cls(
            params=ModelParams.from_dict(d["params"], "params"),
            loglik=float(loglik),
            iterations=_whole(d["iterations"], "iterations", 0, 2 ** 63),
            warnings=tuple(notes),
        )
        derived = result.as_dict()  # its kind, n_params and converged follow from params
        for name, value in (("kind", d["kind"]), ("converged", d["converged"]),
                            ("n_params", _whole(d["n_params"], "n_params", 1, 3))):
            want = derived[name]
            if type(value) is not type(want) or value != want:
                raise ValueError(f"{name} must be {want!r} for these params, got {value!r}")
        return result


def _maximize(objective: Callable[[float], float], lo: float, hi: float) -> tuple[float, int]:
    """Maximize a unimodal objective on [lo, hi]: (argmax, evaluations), the count
    including the argmax's, which fit evaluates for the reported log-likelihood.

    The scan points bracket the maximum; golden-section search shrinks the
    winning bracket below _TOL. The argmax is the bracket's midpoint, never
    lo or hi: fit decides an interval-end maximum before calling this.
    """
    xs = [lo + (hi - lo) * k / (_SCAN_POINTS - 1) for k in range(_SCAN_POINTS)]
    xs[-1] = hi
    values = list(map(objective, xs))

    best = values.index(max(values))
    a, b = xs[max(best - 1, 0)], xs[min(best + 1, _SCAN_POINTS - 1)]

    # golden-section refinement on [a, b]
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = objective(x1), objective(x2)
    evals = _SCAN_POINTS + 3  # the scan, x1, x2 and fit's at the argmax; then one per step
    while b - a > _TOL:
        evals += 1
        if f1 >= f2:
            b = x2
            x2, f2 = x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = objective(x1)
        else:
            a = x1
            x1, f1 = x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = objective(x2)
    return 0.5 * (a + b), evals


def fit(kind: ModelKind | str, hist: RankHistogram | SummaryStats,
        N: int = DEFAULT_DOMAIN_CEILING) -> FitResult:
    """Fit one ensemble member to a histogram, or its SummaryStats, by maximum likelihood.

    2-parameter kinds get R = r_max (any smaller R has zero likelihood,
    any larger strictly lowers it); 1-parameter kinds get R = N. The free
    scalar is then maximized over its interval by the fixed scan and
    golden-section search of the module docstring. The stats are all a fit
    reads, so ``select`` passes the ones it made and summarizes once.

    Rejects an N below 1 or not whole, and r_max > N. At R = 1 (a single-rank
    histogram under a 2-parameter kind, or N = 1) the pmf is the point mass at
    rank 1 whatever the scalar, so the fit returns the interval midpoint with
    ``converged=False`` and an "unidentifiable" warning; every other fit is
    converged. An interval-end optimum has a "boundary:" warning and 0 iterations.
    """
    kind, N = ModelKind(kind), _whole(N, "N", 1, 2 ** 63)
    family = kind.family
    s = hist if isinstance(hist, SummaryStats) else summarize(hist)
    if s.r_max > N:
        raise ValueError(f"dataset attests r_max={s.r_max} ranks, beyond the domain ceiling N={N}")

    R = s.r_max if kind.n_params == 2 else N
    (lo, hi), name = family.interval, family.scalar_name

    if R == 1:  # every scalar gives the point mass at rank 1
        argmax, evals = 0.5 * (lo + hi), 0
        notes = (f"degenerate fit: r_max=1 makes {name} unidentifiable "
                 f"(flat likelihood); returning the interval midpoint",)
    elif (end := family.end(s, R)) is not None:  # no search: the score's sign decides
        argmax, evals = end, 0
        notes = (f"boundary: optimum at the end {name}={end!r} of [{lo!r}, {hi!r}]",)
    else:
        argmax, evals = _maximize(family.objective(s, R), lo, hi)
        notes = ()
    params = ModelParams(kind=kind, R=R, N=N, **{name: argmax})
    return FitResult(params, log_likelihood(params, s), evals, notes)

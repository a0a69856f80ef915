"""Maximum-likelihood fitting of the ensemble members.

The free scalar of each kind is maximized over a fixed interval: alpha on [0, 1e6],
q on [1e-9, 1 - 1e-9] (the open unit interval realized with an inset). 2-parameter
kinds pin the truncation rank to R = r_max first, since the log-likelihood is -inf
below r_max and strictly decreasing above it. At R = 1 the likelihood is flat, and the
fit is unconverged at the interval midpoint. Otherwise the log-likelihood is concave in
the natural parameter theta, with score F0 (E_theta[t] - tbar), and one rule decides: an
interval end where the score has that end's sign is the maximum, returned exactly with a
"boundary:" warning (models._Family.end), else the score's root is. A scan of 1025 equally
spaced points of models._log_likelihood (zeta points past the underflow of 2**-alpha cost
O(1)) picks Newton's start and bracket. loglik is log_likelihood(params, s): one formula.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from ._io import json_object
from .histogram import RankHistogram, SummaryStats, summarize
from .models import (ALPHA_INTERVAL, DEFAULT_DOMAIN_CEILING, Q_INTERVAL, ModelKind, ModelParams,
                     _log_likelihood, _whole, log_likelihood)

__all__ = ["ALPHA_INTERVAL", "Q_INTERVAL", "FitResult", "fit"]

_SCAN_POINTS = 1025


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


def _maximize(family, s: SummaryStats, R: int) -> tuple[float, int]:
    """The interior maximum of _log_likelihood(family, s, R) and the evaluations: the scan
    points, the Newton steps and fit's at the argmax. The best scan point starts Newton's
    method on the score in theta, its neighbours bracket the root, and a step that leaves the
    bracket bisects it; the step is tested for convergence first, as the bracket may end at theta."""
    lo, hi = family.interval
    xs = [lo + (hi - lo) * k / (_SCAN_POINTS - 1) for k in range(_SCAN_POINTS)]
    xs[-1] = hi
    thetas = list(map(family.theta, xs))
    values = list(map(_log_likelihood(family, s, R), thetas))

    k = values.index(max(values))
    a, theta, b = thetas[max(k - 1, 0)], thetas[k], thetas[min(k + 1, _SCAN_POINTS - 1)]
    tbar, evals = family.mean(s), _SCAN_POINTS + 1  # the scan and fit's at the argmax
    while True:
        E, var = family.moments(theta, R)
        evals += 1
        # var = 0 only where every zeta weight past rank 1 underflows: E = 0 < tbar
        step = (E - tbar) / var if var else -math.inf
        if abs(step) <= 1e-13 * max(1.0, theta):
            return family.scalar(theta + step), evals
        a, b = (theta, b) if step > 0 else (a, theta)
        theta = theta + step if a < theta + step < b else 0.5 * (a + b)
        if theta in (a, b):  # no float lies between a and b
            return family.scalar(theta), evals


def fit(kind: ModelKind | str, hist: RankHistogram | SummaryStats,
        N: int = DEFAULT_DOMAIN_CEILING) -> FitResult:
    """Fit one ensemble member to a histogram, or its SummaryStats, by maximum likelihood.

    2-parameter kinds get R = r_max (any smaller R has zero likelihood,
    any larger strictly lowers it); 1-parameter kinds get R = N. The free
    scalar is then maximized over its interval by the end rule, or the scan
    and Newton steps, of the module docstring. The stats are all a fit
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
        argmax, evals = _maximize(family, s, R)
        notes = ()
    params = ModelParams(kind=kind, R=R, N=N, **{name: argmax})
    return FitResult(params, log_likelihood(params, s), evals, notes)

"""Information-criterion scoring and ensemble-level model selection.

Both criteria are of the form -2*loglik + penalty, lower is better:

  AICc = -2 L + 2 K F0 / (F0 - K - 1)
  BIC  = -2 L + K log F0

Criterion weights are exp(-delta/2) normalized over the ensemble, where
delta is the score difference to the best model; the ratio of two weights
is the evidence of one model over the other. select fits only the rows it
can score, and a family once per truncation rank R (at r_max = N both of
its kinds have R = N, so the 2-parameter fit equals the 1-parameter one).
"""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import dataclass, replace
from operator import itemgetter

from ._io import tsv
from .estimation import FitResult, fit
from .histogram import RankHistogram, SummaryStats, summarize
from .models import DEFAULT_DOMAIN_CEILING, ModelKind, _kinds, _whole, log_likelihood

__all__ = [
    "DEFAULT_ENSEMBLE",
    "SelectionRow",
    "SelectionTable",
    "aicc",
    "bic",
    "weights",
    "evidence_ratio",
    "aicc_evidence_ratio",
    "bic_evidence_ratio",
    "select",
    "cross_apply",
    "selection_table_tsv",
    "selection_table_dict",
    "best_params_tsv",
    "best_params_dict",
]

DEFAULT_ENSEMBLE = tuple(ModelKind)  # all four kinds, in ModelKind's order

SELECTION_COLUMNS = ("model", "loglik", "AICc", "delta_AICc", "w_AICc",
                     "BIC", "delta_BIC", "w_BIC")


def _check_domain(K: int, F0: float, with_aicc: bool = True) -> None:
    """ValueError unless K >= 1, AICc (F0 > K + 1, if with_aicc) and BIC (F0 > 1) hold."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if with_aicc and not F0 > K + 1:
        raise ValueError(f"AICc needs F0 > K + 1 (got F0={F0}, K={K})")
    if not F0 > 1:
        raise ValueError(f"BIC needs F0 > 1 (got F0={F0})")


def aicc(loglik: float, K: int, F0: float) -> float:
    """Corrected Akaike criterion; requires F0 > K + 1."""
    _check_domain(K, F0)
    return -2.0 * loglik + 2.0 * K * F0 / (F0 - K - 1.0)


def bic(loglik: float, K: int, F0: float) -> float:
    """Bayesian information criterion; requires F0 > 1."""
    _check_domain(K, F0, with_aicc=False)
    return -2.0 * loglik + K * math.log(F0)


def weights(scores: list[float]) -> list[float]:
    """Criterion weights exp(-delta/2) / sum, deltas against the minimum.

    Scores may be +inf (a model with -inf log-likelihood), which yields
    weight exactly 0. Deltas are taken against the finite minimum, so the
    largest exponential term is exactly 1 and the sum cannot overflow.
    """
    if not scores:
        raise ValueError("empty score list")
    for s in scores:
        if math.isnan(s) or s == -math.inf:
            raise ValueError(f"scores must be finite or +inf, got {s}")
    best = min(scores)
    if math.isinf(best):
        raise ValueError("all scores are infinite; no model can be weighted")
    raw = [math.exp(-0.5 * (s - best)) for s in scores]
    total = math.fsum(raw)
    return [w / total for w in raw]


def evidence_ratio(w_i: float, w_j: float) -> float:
    """Ratio w_i / w_j of two criterion weights."""
    if w_j == 0.0:
        _warnings.warn("evidence ratio against a zero-weight model is +inf")
        return math.inf
    return w_i / w_j


def _exp(x: float) -> float:
    # likelihood ratios overflow the double range long before they stop
    # being meaningful; saturate instead of raising
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def aicc_evidence_ratio(loglik_i: float, k_i: int, loglik_j: float, k_j: int,
                        F0: float) -> float:
    """AICc evidence of model i over model j from raw fits.

    Equals (L_i/L_j) * exp(F0 * (K_j/(F0-K_j-1) - K_i/(F0-K_i-1))), the
    closed form of the weight ratio.
    """
    lr = _exp(loglik_i - loglik_j)
    return lr * _exp(F0 * (k_j / (F0 - k_j - 1.0) - k_i / (F0 - k_i - 1.0)))


def bic_evidence_ratio(loglik_i: float, k_i: int, loglik_j: float, k_j: int,
                       F0: float) -> float:
    """BIC evidence of model i over model j: (L_i/L_j) * F0**((K_j-K_i)/2).

    The penalty factor is computed as sqrt(F0)**(K_j-K_i) so that integer
    parameter-count differences stay exact (equal likelihoods and a one
    parameter gap at F0=36 give exactly 6).
    """
    lr = _exp(loglik_i - loglik_j)
    dk = k_j - k_i
    root = math.sqrt(F0)
    return lr * (root ** dk if dk >= 0 else 1.0 / root ** -dk)


@dataclass(frozen=True)
class SelectionRow:
    kind: ModelKind
    fit: FitResult | None = None
    aicc: float | None = None
    delta_aicc: float | None = None
    w_aicc: float | None = None
    bic: float | None = None
    delta_bic: float | None = None
    w_bic: float | None = None
    error: str | None = None

    @property
    def loglik(self) -> float | None:
        return None if self.fit is None else self.fit.loglik


def _argbest(rows, score_of) -> ModelKind:
    scored = [r for r in rows if score_of(r) is not None]
    # ties break toward fewer parameters, then kind name
    best = min(scored, key=lambda r: (score_of(r), r.kind.n_params, r.kind.value))
    return best.kind


@dataclass(frozen=True)
class SelectionTable:
    """Per-model criterion scores for one histogram (one row per kind), best kinds derived."""

    rows: tuple[SelectionRow, ...]
    F0: float

    @property
    def best_by_aicc(self) -> ModelKind:
        return _argbest(self.rows, lambda r: r.aicc)

    @property
    def best_by_bic(self) -> ModelKind:
        return _argbest(self.rows, lambda r: r.bic)

    def row(self, kind: ModelKind | str) -> SelectionRow:
        kind = ModelKind(kind)
        for r in self.rows:
            if r.kind == kind:
                return r
        raise KeyError(kind.value)


def select(hist: RankHistogram | SummaryStats, N: int = DEFAULT_DOMAIN_CEILING,
           ensemble=None) -> SelectionTable:
    """Fit every ensemble member to a histogram, or its SummaryStats, and
    score it with AICc and BIC.

    Rows whose fit or scoring fails (for instance AICc with F0 <= K + 1)
    keep their error message and are excluded from delta and weight
    normalization; the remaining weights still sum to 1.
    """
    kinds, N = _kinds(ensemble), _whole(N, "N", 1, 2 ** 63)
    s = hist if isinstance(hist, SummaryStats) else summarize(hist)

    rows, fits = [], {}
    for kind in kinds:
        try:
            _check_domain(kind.n_params, s.F0)
            key = (kind.family, s.r_max if kind.n_params == 2 else N)  # with the stats, all that fit reads
            fr = fits[key] = fit(kind, s, N) if key not in fits else replace(
                fits[key], params=replace(fits[key].params, kind=kind))
            rows.append(SelectionRow(kind=kind, fit=fr, aicc=aicc(fr.loglik, fr.n_params, s.F0),
                                     bic=bic(fr.loglik, fr.n_params, s.F0)))
        except ValueError as exc:
            rows.append(SelectionRow(kind=kind, error=str(exc)))

    scored = [r for r in rows if r.error is None]
    if not scored:
        reasons = "; ".join(dict.fromkeys(r.error for r in rows))  # distinct, in ensemble order
        raise ValueError(f"no ensemble member could be fitted and scored: {reasons}")
    min_a, w_a = min(r.aicc for r in scored), iter(weights([r.aicc for r in scored]))
    min_b, w_b = min(r.bic for r in scored), iter(weights([r.bic for r in scored]))
    rows = [replace(r, delta_aicc=r.aicc - min_a, w_aicc=next(w_a),
                    delta_bic=r.bic - min_b, w_bic=next(w_b))
            if r.error is None else r for r in rows]

    return SelectionTable(rows=tuple(rows), F0=s.F0)


def cross_apply(fit_result: FitResult, other: RankHistogram) -> float:
    """Log-likelihood of a previously fitted model on another dataset.

    -inf when the other dataset attests ranks beyond the fitted support
    (r_max > R); that is a legitimate value, not an error.
    """
    return log_likelihood(fit_result.params, summarize(other))


def selection_table_tsv(table: SelectionTable) -> str:
    """The rows of ``selection_table_dict`` without the error column."""
    rows = selection_table_dict(table)["rows"]
    return tsv(SELECTION_COLUMNS, map(itemgetter(*SELECTION_COLUMNS), rows))


def selection_table_dict(table: SelectionTable) -> dict:
    return {
        "F0": table.F0,
        "best_by_AICc": table.best_by_aicc.value,
        "best_by_BIC": table.best_by_bic.value,
        "rows": [
            {
                "model": r.kind.value,
                "loglik": r.loglik,
                "AICc": r.aicc,
                "delta_AICc": r.delta_aicc,
                "w_AICc": r.w_aicc,
                "BIC": r.bic,
                "delta_BIC": r.delta_bic,
                "w_BIC": r.w_bic,
                "error": r.error,
            }
            for r in table.rows
        ],
    }


def best_params_tsv(table: SelectionTable) -> str:
    """Fitted-parameter table: one row per model with R, alpha and q."""
    columns = ("model", "R", "alpha", "q")
    return tsv(columns, map(itemgetter(*columns), best_params_dict(table)["rows"]))


def best_params_dict(table: SelectionTable) -> dict:
    rows = []
    for r in table.rows:
        p = None if r.fit is None else r.fit.params  # getattr(None, ...) gives None
        rows.append({"model": r.kind.value, **{k: getattr(p, k, None) for k in ("R", "alpha", "q")},
                     "error": r.error})
    return {"rows": rows}

"""The model ensemble: right-truncated zeta and geometric distributions.

Four members are supported. The 2-parameter kinds carry a free truncation
rank R; the 1-parameter kinds pin R to the domain ceiling N:

  zeta1        p(r) = r**-alpha / H(alpha, N)          on 1..N
  zeta2        p(r) = r**-alpha / H(alpha, R)          on 1..R
  geometric1   p(r) = c(q, N) * (1-q)**(r-1)           on 1..N
  geometric2   p(r) = c(q, R) * (1-q)**(r-1)           on 1..R

with H the generalized harmonic number and c(q, R) = q / (1 - (1-q)**R).
All logarithms are natural; log-likelihoods are in nats.

Both are one-parameter exponential families on ranks 1..R; what separates
them is stated once, in the record that ModelKind.family returns.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import repeat
from typing import Callable, NamedTuple

from ._io import json_object
from .histogram import SummaryStats

__all__ = [
    "DEFAULT_DOMAIN_CEILING",
    "ModelKind",
    "ModelParams",
    "ExponentialForm",
    "harmonic",
    "geom_norm",
    "pmf",
    "log_likelihood",
    "expected_frequency",
    "to_exponential_form",
    "zeta1",
    "zeta2",
    "geometric1",
    "geometric2",
]

DEFAULT_DOMAIN_CEILING = 24

_MAX_RANKS = 10 ** 6  # the largest R harmonic sums and sample_counts draws over

ALPHA_INTERVAL = (0.0, 1.0e6)
Q_INTERVAL = (1e-9, 1.0 - 1e-9)


class ModelKind(str, Enum):
    ZETA1 = "zeta1"
    ZETA2 = "zeta2"
    GEOMETRIC1 = "geometric1"
    GEOMETRIC2 = "geometric2"

    @classmethod
    def _missing_(cls, value):
        raise ValueError(f"unknown model kind {value!r}; valid kinds: {', '.join(cls)}")

    @property
    def n_params(self) -> int:
        return 1 if self in (ModelKind.ZETA1, ModelKind.GEOMETRIC1) else 2

    @property
    def is_zeta(self) -> bool:
        return self in (ModelKind.ZETA1, ModelKind.ZETA2)

    @property
    def is_geometric(self) -> bool:
        return self in (ModelKind.GEOMETRIC1, ModelKind.GEOMETRIC2)

    @cached_property
    def family(self) -> "_Family":
        """The family record of this kind, resolved once per kind."""
        return _ZETA if self.is_zeta else _GEOMETRIC


@dataclass(frozen=True)
class ModelParams:
    """Parameters of one ensemble member.

    R is the truncation rank (largest rank with non-zero probability) and
    N the domain ceiling; 1-parameter kinds have R = N by construction.
    Zeta kinds carry alpha >= 0, geometric kinds carry q in (0, 1).
    """

    kind: ModelKind
    R: int
    N: int = DEFAULT_DOMAIN_CEILING
    alpha: float | None = None
    q: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", ModelKind(self.kind))
        if not (isinstance(self.N, int) and self.N >= 1):
            raise ValueError("N must be a positive integer")
        if not (isinstance(self.R, int) and 1 <= self.R <= self.N):
            raise ValueError(f"R must satisfy 1 <= R <= N, got R={self.R}, N={self.N}")
        if self.kind.n_params == 1 and self.R != self.N:
            raise ValueError(f"{self.kind.value} has R = N by construction")
        family = self.kind.family
        for other in {"alpha", "q"} - {family.scalar_name}:
            if getattr(self, other) is not None:
                raise ValueError(f"{family.name} kinds take {family.scalar_name}, not {other}")
        value = self.scalar
        # a bool is a number to Python (JSON true is 1), but no scalar
        if type(value) is bool or not (isinstance(value, numbers.Real) and family.in_domain(value)):
            raise ValueError(f"{family.domain}, got {value!r}")

    @cached_property
    def scalar(self) -> float:
        """The free scalar, named by kind.family.scalar_name."""
        return getattr(self, self.kind.family.scalar_name)

    @cached_property
    def _norm(self) -> float:
        """Normalizer, once per model: H(alpha, R) or c(q, R)."""
        return self.kind.family.norm(self.scalar, self.R)

    @cached_property
    def _probabilities(self):
        """The pmf on 1..R as a numpy float array, once per model, by pmf's formula."""
        import numpy as np
        # float ranks: int ranks cannot take an int alpha's negative power
        return self.kind.family.p(self.scalar, self._norm, np.arange(1.0, self.R + 1))

    def as_dict(self) -> dict:
        return {"kind": self.kind.value, "R": self.R, "N": self.N,
                self.kind.family.scalar_name: self.scalar}

    @classmethod
    def from_dict(cls, d: dict, name: str = "model") -> "ModelParams":
        json_object(d, ("kind", "R", "N"), ("alpha", "q"), name)
        return cls(kind=ModelKind(d["kind"]), R=_whole(d["R"], "R", 1, 2 ** 63),
                   N=_whole(d["N"], "N", 1, 2 ** 63), alpha=d.get("alpha"), q=d.get("q"))


def _whole(value, name: str, lo: int, hi: int) -> int:
    """value as an int; ValueError naming the setting unless it is a whole
    number in [lo, hi). The range test runs before int(), so inf and nan fail
    it with that message, not with int()'s."""
    if isinstance(value, bool) or not (
            isinstance(value, numbers.Real) and lo <= value < hi and value == int(value)):
        raise ValueError(f"{name} must be a whole number from {lo} to {hi - 1}, got {value!r}")
    return int(value)


def zeta1(alpha: float, N: int = DEFAULT_DOMAIN_CEILING) -> ModelParams:
    return ModelParams(kind=ModelKind.ZETA1, R=N, N=N, alpha=alpha)


def zeta2(alpha: float, R: int, N: int = DEFAULT_DOMAIN_CEILING) -> ModelParams:
    return ModelParams(kind=ModelKind.ZETA2, R=R, N=N, alpha=alpha)


def geometric1(q: float, N: int = DEFAULT_DOMAIN_CEILING) -> ModelParams:
    return ModelParams(kind=ModelKind.GEOMETRIC1, R=N, N=N, q=q)


def geometric2(q: float, R: int, N: int = DEFAULT_DOMAIN_CEILING) -> ModelParams:
    return ModelParams(kind=ModelKind.GEOMETRIC2, R=R, N=N, q=q)


def harmonic(alpha: float, R: int) -> float:
    """Generalized harmonic number: sum of r**-alpha for r = 1..R.

    Summed from r = R down to 1 so the smallest terms accumulate first;
    fsum keeps the result exactly rounded either way. Once (R - 1) * 2**-alpha
    <= 2**-54 (alpha >= about 54 + log2(R - 1)) the terms below rank 1 total
    under half an ulp of 1 (factor 2 spare for pow rounding), so 1.0 is exact.
    R may not exceed _MAX_RANKS, so no sum costs more than 10**6 terms.
    """
    if R < 1:
        raise ValueError("R must be >= 1")
    if R > _MAX_RANKS:
        raise ValueError(f"the zeta normalizer sums at most {_MAX_RANKS} ranks, got R={R}")
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError("alpha must be a finite real >= 0")
    if (R - 1) * 2.0 ** -alpha <= 2.0 ** -54:
        return 1.0
    return math.fsum(map(pow, range(R, 0, -1), repeat(-alpha)))


def geom_norm(q: float, R: int) -> float:
    """Normalizer q / (1 - (1-q)**R) of the right-truncated geometric.

    Computed through expm1/log1p so large R or q near 1 underflow cleanly
    to the untruncated limit q instead of losing precision.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    if R < 1:
        raise ValueError("R must be >= 1")
    if R == 1:
        return 1.0
    return q / -math.expm1(R * math.log1p(-q))


class _Family(NamedTuple):
    """One family: its name, its scalar's name, domain test (stated by domain)
    and search interval, the normalizer norm(scalar, R), the pmf p(scalar, norm, r)
    at an int rank or a numpy float array of ranks, and the closed-form
    log-likelihood objective(stats, R)(scalar) on 1..R for r_max <= R."""

    name: str
    scalar_name: str
    in_domain: Callable[[float], bool]
    domain: str
    interval: tuple[float, float]
    norm: Callable[[float, int], float]
    p: Callable
    objective: Callable[[SummaryStats, int], Callable[[float], float]]


def _zeta_objective(s: SummaryStats, R: int) -> Callable[[float], float]:
    """alpha -> -alpha * FlogR - F0 * log H(alpha, R)"""
    F0, FlogR = s.F0, s.FlogR
    return lambda alpha: -alpha * FlogR - F0 * math.log(harmonic(alpha, R))


def _geometric_objective(s: SummaryStats, R: int) -> Callable[[float], float]:
    """q -> F0 * log c(q, R) + (F1 - F0) * log(1 - q)"""
    F0, tail = s.F0, s.F1 - s.F0
    return lambda q: F0 * math.log(geom_norm(q, R)) + tail * math.log1p(-q)


# norm reaches harmonic and geom_norm through the module globals at call
# time, so a replaced module attribute is the one every caller uses
_ZETA = _Family(
    name="zeta", scalar_name="alpha", in_domain=lambda alpha: 0.0 <= alpha < math.inf,
    domain="alpha must be a finite real >= 0", interval=ALPHA_INTERVAL,
    norm=lambda alpha, R: harmonic(alpha, R),
    p=lambda alpha, H, r: r ** -alpha / H,
    objective=_zeta_objective,
)
_GEOMETRIC = _Family(
    name="geometric", scalar_name="q", in_domain=lambda q: 0.0 < q < 1.0,
    domain="q must lie in the open interval (0, 1)", interval=Q_INTERVAL,
    norm=lambda q, R: geom_norm(q, R),
    p=lambda q, c, r: c * (1.0 - q) ** (r - 1),
    objective=_geometric_objective,
)


def pmf(m: ModelParams, r: int) -> float:
    """Probability of rank r under m; zero outside the support 1..R."""
    if r < 1 or r > m.R:
        return 0.0
    return m.kind.family.p(m.scalar, m._norm, r)


def log_likelihood(m: ModelParams, s: SummaryStats) -> float:
    """Log-likelihood of a histogram (via its summary stats) under m, in nats.

    Returns -inf when the data attest a rank beyond the model support
    (r_max > R), since some observation then has zero probability, and
    the family's closed form otherwise.
    """
    if s.r_max > m.R:
        return -math.inf
    return m.kind.family.objective(s, m.R)(m.scalar)


def expected_frequency(m: ModelParams, F0: float, r: int) -> float:
    """Expected frequency of rank r in a sample of total size F0: F0 * p(r)."""
    if not F0 > 0:
        raise ValueError("F0 must be positive")
    return F0 * pmf(m, r)


@dataclass(frozen=True)
class ExponentialForm:
    """Literal-exponential parameters (c', beta) of a geometric pmf."""

    c_prime: float
    beta: float

    def __post_init__(self):
        if not (self.c_prime > 0 and self.beta > 0):
            raise ValueError("c_prime and beta must be positive")

    def value(self, r: float) -> float:
        return self.c_prime * math.exp(-self.beta * r)


def to_exponential_form(q: float, c: float) -> ExponentialForm:
    """Rewrite c * (1-q)**(r-1) as c' * exp(-beta * r).

    c' = c / (1-q) and beta = -log(1-q); the two forms agree for every
    integer r.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    if not c > 0:
        raise ValueError("c must be positive")
    return ExponentialForm(c_prime=c / (1.0 - q), beta=-math.log1p(-q))

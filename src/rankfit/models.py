"""The model ensemble: right-truncated zeta and geometric distributions.

Four members are supported. The 2-parameter kinds carry a free truncation
rank R; the 1-parameter kinds pin R to the domain ceiling N:

  zeta1        p(r) = r**-alpha / H(alpha, N)          on 1..N
  zeta2        p(r) = r**-alpha / H(alpha, R)          on 1..R
  geometric1   p(r) = c(q, N) * (1-q)**(r-1)           on 1..N
  geometric2   p(r) = c(q, R) * (1-q)**(r-1)           on 1..R

with H the generalized harmonic number and c(q, R) = q / (1 - (1-q)**R).
All logarithms are natural; log-likelihoods are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import repeat
from typing import Callable

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
    "scalar_log_likelihood",
    "expected_frequency",
    "to_exponential_form",
    "zeta1",
    "zeta2",
    "geometric1",
    "geometric2",
]

DEFAULT_DOMAIN_CEILING = 24


class ModelKind(str, Enum):
    ZETA1 = "zeta1"
    ZETA2 = "zeta2"
    GEOMETRIC1 = "geometric1"
    GEOMETRIC2 = "geometric2"

    @property
    def n_params(self) -> int:
        return 1 if self in (ModelKind.ZETA1, ModelKind.GEOMETRIC1) else 2

    @property
    def is_zeta(self) -> bool:
        return self in (ModelKind.ZETA1, ModelKind.ZETA2)

    @property
    def is_geometric(self) -> bool:
        return self in (ModelKind.GEOMETRIC1, ModelKind.GEOMETRIC2)

    @property
    def scalar_name(self) -> str:
        """Name of the free scalar: "alpha" for zeta kinds, "q" for geometric kinds."""
        return "alpha" if self.is_zeta else "q"


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
        if self.kind.is_zeta:
            if self.q is not None:
                raise ValueError("zeta kinds take alpha, not q")
            if self.alpha is None or not (math.isfinite(self.alpha) and self.alpha >= 0):
                raise ValueError("alpha must be a finite real >= 0")
        else:
            if self.alpha is not None:
                raise ValueError("geometric kinds take q, not alpha")
            if self.q is None or not 0.0 < self.q < 1.0:
                raise ValueError("q must lie in the open interval (0, 1)")

    @property
    def scalar(self) -> float:
        """The free scalar, named by kind.scalar_name."""
        return getattr(self, self.kind.scalar_name)

    @cached_property
    def _norm(self) -> float:
        """Normalizer, once per model: pmf divides by H(alpha, R) or multiplies by c(q, R)."""
        return harmonic(self.alpha, self.R) if self.kind.is_zeta else geom_norm(self.q, self.R)

    def as_dict(self) -> dict:
        d = {"kind": self.kind.value, "R": self.R, "N": self.N}
        if self.alpha is not None:
            d["alpha"] = self.alpha
        if self.q is not None:
            d["q"] = self.q
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelParams":
        return cls(kind=ModelKind(d["kind"]), R=int(d["R"]), N=int(d["N"]),
                   alpha=d.get("alpha"), q=d.get("q"))


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
    """
    if R < 1:
        raise ValueError("R must be >= 1")
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


def pmf(m: ModelParams, r: int) -> float:
    """Probability of rank r under m; zero outside the support 1..R."""
    if r < 1 or r > m.R:
        return 0.0
    if m.kind.is_zeta:
        return r ** -m.alpha / m._norm
    return m._norm * (1.0 - m.q) ** (r - 1)


def log_likelihood(m: ModelParams, s: SummaryStats) -> float:
    """Log-likelihood of a histogram (via its summary stats) under m, in nats.

    Returns -inf when the data attest a rank beyond the model support
    (r_max > R), since some observation then has zero probability, and
    the closed form of scalar_log_likelihood otherwise.
    """
    if s.r_max > m.R:
        return -math.inf
    return scalar_log_likelihood(m.kind, m.R, s)(m.scalar)


def scalar_log_likelihood(kind: ModelKind, R: int, s: SummaryStats) -> Callable[[float], float]:
    """log_likelihood on 1..R as a function of the free scalar, for r_max <= R:

      zeta:       alpha -> -alpha * FlogR - F0 * log H(alpha, R)
      geometric:  q -> F0 * log c(q, R) + (F1 - F0) * log(1 - q)

    The optimizer calls it per evaluation, so no ModelParams is built there.
    """
    F0, FlogR, tail = s.F0, s.FlogR, s.F1 - s.F0
    if kind.is_zeta:
        return lambda alpha: -alpha * FlogR - F0 * math.log(harmonic(alpha, R))
    return lambda q: F0 * math.log(geom_norm(q, R)) + tail * math.log1p(-q)


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

"""Monte Carlo engine: sampling, undersampling estimates, recovery runs.

Each trial is one multinomial draw of its per-rank counts over the R-point
pmf, so a trial costs O(R) time and memory whatever its number of draws.
The probability vector is built once per model and kept on it, so every
trial of one call draws from the same vector. Randomness comes from
numpy's PCG64 generator. Each trial derives its own substream from
(seed, indices) through SeedSequence, so results do not depend on
execution order; identical configurations reproduce identical outputs
bit for bit.

numpy loads only when a simulation runs (sample_counts, sample,
undersampling_probability, recovery_experiment), not on import.
"""

from __future__ import annotations

import math
import numbers
import statistics
from dataclasses import asdict, dataclass
from typing import NamedTuple

from .histogram import RankHistogram
from .models import ModelParams, _whole
from .models import pmf  # noqa: F401  (bench/tracing.py counts calls through this name)
from .selection import DEFAULT_ENSEMBLE, select

__all__ = [
    "SimulationConfig",
    "UndersamplingEstimate",
    "SizeRecovery",
    "RecoveryStats",
    "sample",
    "sample_counts",
    "undersampling_probability",
    "recovery_experiment",
]


@dataclass(frozen=True)
class SimulationConfig:
    """One recovery experiment: a true model, trial count and sample sizes."""

    seed: int
    trials: int
    sample_sizes: tuple[int, ...]
    model: ModelParams

    def __post_init__(self):
        object.__setattr__(self, "seed", _whole(self.seed, "seed", 0, 2 ** 64))
        object.__setattr__(self, "trials", _whole(self.trials, "trials", 1, 2 ** 63))
        if not self.sample_sizes:
            raise ValueError("sample sizes must not be empty")
        object.__setattr__(self, "sample_sizes", tuple(
            _draw_count(s, "sample sizes") for s in self.sample_sizes))

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "sample_sizes": list(self.sample_sizes),
            "model": self.model.as_dict(),
        }


class UndersamplingEstimate(NamedTuple):
    estimate: float
    half_width: float


def _child_seed(seed: int, *key: int) -> int:
    import numpy as np
    ss = np.random.SeedSequence((int(seed),) + tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def _draw_count(n, name: str) -> int:
    """n as an int; ValueError unless it is a whole number in [1, 2**63 - 1]."""
    if not (isinstance(n, numbers.Real) and 1 <= n < 2 ** 63 and n == int(n)):
        raise ValueError(f"{name} must be a whole number from 1 to 2**63 - 1, got {n!r}")
    return int(n)


def sample_counts(m: ModelParams, n: int, seed: int):
    """Draw n ranks from the model pmf; returns numpy counts per category 1..R.

    One multinomial draw over the R-point pmf, which the model builds in
    O(R) once and keeps. Time and memory do not depend on n. Deterministic
    for a fixed seed.
    """
    import numpy as np
    n = _draw_count(n, "n")
    return np.random.default_rng(seed).multinomial(n, m._probabilities)


def sample(m: ModelParams, n: int, seed: int) -> RankHistogram:
    """Sample n draws and aggregate them into a rank histogram.

    Categories are re-ranked by descending observed count (count ties break
    by category index), mirroring how rank-frequency data are built from
    raw category counts; unattested categories are omitted.
    """
    counts = sample_counts(m, n, seed)
    order = sorted(range(m.R), key=lambda i: (-counts[i], i))
    attested = [i for i in order if counts[i] > 0]
    width = len(str(m.R))
    return RankHistogram.from_frequencies(
        [float(counts[i]) for i in attested],
        names=[f"c{i + 1:0{width}d}" for i in attested],
    )


def undersampling_probability(m: ModelParams, n: int, trials: int,
                              seed: int) -> UndersamplingEstimate:
    """Monte Carlo probability that n draws attest fewer than N ranks.

    The half width is the 95% normal-approximation interval with a 1/(2T)
    continuity correction, which keeps coverage conservative at moderate
    trial counts.
    """
    import numpy as np
    trials, seed = _whole(trials, "trials", 1, 2 ** 63), _whole(seed, "seed", 0, 2 ** 64)
    under = 0
    for t in range(trials):
        counts = sample_counts(m, n, _child_seed(seed, t))
        if int(np.count_nonzero(counts)) < m.N:
            under += 1
    p = under / trials
    half_width = 1.96 * math.sqrt(p * (1.0 - p) / trials) + 0.5 / trials
    return UndersamplingEstimate(estimate=p, half_width=half_width)


@dataclass(frozen=True)
class SizeRecovery:
    sample_size: int
    trials: int
    failures: int
    median_abs_param_error: float | None
    aicc_true_fraction: float | None
    bic_true_fraction: float | None
    undersampled_fraction: float | None

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RecoveryStats:
    config: SimulationConfig
    ensemble: tuple
    per_size: tuple[SizeRecovery, ...]

    def as_dict(self) -> dict:
        d = self.config.as_dict()
        d["ensemble"] = [k.value for k in self.ensemble]
        d["per_size"] = [s.as_dict() for s in self.per_size]
        return d


def recovery_experiment(cfg: SimulationConfig, ensemble=None) -> RecoveryStats:
    """Sample, select and score: can the criteria find the true model back?

    For every (sample size, trial) pair a fresh histogram is drawn from the
    true model and run through ensemble selection. Recorded per size: the
    median absolute error of the true kind's fitted scalar, the fraction of
    trials where each criterion picks the true kind, and the fraction of
    undersampled trials (r_max < N). Trials whose selection fails (for
    instance AICc undefined at tiny F0) count as failures and drop out of
    the aggregates.
    """
    kinds = tuple(ensemble if ensemble is not None else DEFAULT_ENSEMBLE)
    true_kind = cfg.model.kind
    if true_kind not in kinds:
        raise ValueError("ensemble must contain the true model kind")
    truth = cfg.model.scalar

    per_size = []
    for i_size, n in enumerate(cfg.sample_sizes):
        errors = []
        aicc_hits = 0
        bic_hits = 0
        undersampled = 0
        failures = 0
        for t in range(cfg.trials):
            hist = sample(cfg.model, n, _child_seed(cfg.seed, i_size, t))
            try:
                table = select(hist, N=cfg.model.N, ensemble=kinds)
            except ValueError:
                failures += 1
                continue
            row = table.row(true_kind)
            if row.fit is None:
                failures += 1
                continue
            errors.append(abs(row.fit.params.scalar - truth))
            aicc_hits += table.best_by_aicc == true_kind
            bic_hits += table.best_by_bic == true_kind
            undersampled += hist.r_max < cfg.model.N
        done = cfg.trials - failures
        per_size.append(SizeRecovery(
            sample_size=n,
            trials=cfg.trials,
            failures=failures,
            median_abs_param_error=statistics.median(errors) if errors else None,
            aicc_true_fraction=aicc_hits / done if done else None,
            bic_true_fraction=bic_hits / done if done else None,
            undersampled_fraction=undersampled / done if done else None,
        ))
    return RecoveryStats(config=cfg, ensemble=kinds, per_size=tuple(per_size))

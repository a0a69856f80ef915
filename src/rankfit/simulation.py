"""Monte Carlo engine: sampling, undersampling estimates, recovery runs.

Each trial is one multinomial draw of its per-rank counts over the R-point
pmf (R <= 10**6), so a trial costs O(R) time and memory whatever its
number of draws. The probability vector is built once per model and kept
on it, so every trial of one call draws from the same vector. Trial t draws
from default_rng(SeedSequence((seed, *key, t)).generate_state(1, uint64)[0])
(numpy's PCG64), key () in undersampling_probability and (i,) for the i-th
sample size in recovery_experiment. The seeds are hashed in blocks of trials
with SeedSequence's result, so results do not depend on execution order and
identical configurations reproduce outputs bit for bit.

undersampling_probability and recovery_experiment share one trial loop,
_trial_counts. Recovery selects on the SummaryStats of each trial's
attested counts, those of summarize(sample(...)), and builds no histogram;
a trial whose true kind cannot be scored fails without a selection.

numpy loads only when a simulation runs (sample_counts, sample,
undersampling_probability, recovery_experiment), not on import.
"""

from __future__ import annotations

import itertools
import math
import statistics
from dataclasses import asdict, dataclass
from typing import NamedTuple

from .histogram import RankHistogram, _summary
from .models import _MAX_RANKS, ModelKind, ModelParams, _whole
from .models import pmf  # noqa: F401  (bench/tracing.py counts calls through this name)
from .selection import DEFAULT_ENSEMBLE, _check_domain, select

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
    """One recovery experiment: a true model, trial count, sample sizes and
    the ensemble selected from, which must contain the true kind."""

    seed: int
    trials: int
    sample_sizes: tuple[int, ...]
    model: ModelParams
    ensemble: tuple[ModelKind, ...] = DEFAULT_ENSEMBLE

    def __post_init__(self):
        object.__setattr__(self, "seed", _whole(self.seed, "seed", 0, 2 ** 64))
        object.__setattr__(self, "trials", _whole(self.trials, "trials", 1, 2 ** 63))
        object.__setattr__(self, "sample_sizes", _sample_sizes(self.sample_sizes))
        object.__setattr__(self, "ensemble", tuple(map(ModelKind, self.ensemble)))
        if self.model.kind not in self.ensemble:
            raise ValueError("ensemble must contain the true model kind")

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "sample_sizes": list(self.sample_sizes),
            "model": self.model.as_dict(),
            "ensemble": [k.value for k in self.ensemble],
        }


def _sample_sizes(sizes) -> tuple[int, ...]:
    """sizes, a non-empty list or tuple of whole numbers, as a tuple of ints."""
    if not (isinstance(sizes, (list, tuple)) and sizes):
        raise ValueError(f"sample sizes must be a non-empty list, got {sizes!r}")
    return tuple(_whole(s, "sample sizes", 1, 2 ** 63) for s in sizes)


class UndersamplingEstimate(NamedTuple):
    estimate: float
    half_width: float


_BLOCK = 1 << 12  # seeds hashed at once; a power of two, so no block straddles t = 2**32


def _hasher(const: int, mult: int):
    """O'Neill's hashmix on uint32 arrays; its multiplier steps on each call."""
    def hashmix(v):
        nonlocal const
        v, const = v ^ const, const * mult & 0xFFFFFFFF
        v = v * const
        return v ^ v >> 16
    return hashmix


def _stream_seeds(*entropy) -> list[int]:
    """int(SeedSequence(row).generate_state(1, np.uint64)[0]) for each row
    of the broadcast arrays entropy, in C order: numpy's hash (O'Neill's
    seed_seq) on uint32 arrays. A value is one word, two from 2**32 on, so
    all values of one array must lie on the same side of 2**32."""
    import numpy as np
    words = []
    for col in np.broadcast_arrays(*(np.asarray(c, np.uint64) for c in entropy)):
        high = col >> 32
        words += [col.astype(np.uint32)] + ([high.astype(np.uint32)] if high.any() else [])
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(w) for w in (words + [np.zeros_like(words[0])] * 4)[:4]]

    def mix(dst, w):
        r = pool[dst] * 0xCA01F9DD - hashmix(w) * 0x4973F715
        pool[dst] = r ^ r >> 16

    for src, dst in itertools.permutations(range(4), 2):
        mix(dst, pool[src])
    for w, dst in itertools.product(words[4:], range(4)):
        mix(dst, w)
    state = _hasher(0x8B51F9DD, 0x58F38DED)
    lo, hi = (state(w).astype(np.uint64) for w in pool[:2])
    return (lo | hi << 32).ravel().tolist()


def _trial_seeds(seed: int, trials: int, keys: int = 0):
    """Yield the seed of each trial's substream: that of (seed, t) for
    t < trials or, given keys, of (seed, i, t) for i < keys and t < trials,
    i-major. Keys share a block when there are fewer trials than _BLOCK."""
    import numpy as np
    per = max(1, _BLOCK // trials)
    for i0 in range(0, max(keys, 1), per):
        i = np.arange(i0, min(i0 + per, max(keys, 1)), dtype=np.uint64)[:, None]
        for t0 in range(0, trials, _BLOCK):
            t = np.arange(t0, min(t0 + _BLOCK, trials), dtype=np.uint64)
            yield from _stream_seeds(seed, *((i,) if keys else ()), t)


def sample_counts(m: ModelParams, n: int, seed: int):
    """Draw n ranks from the model pmf; returns numpy counts per category 1..R.

    One multinomial draw over the R-point pmf, which the model builds in
    O(R) once and keeps; R may not exceed _MAX_RANKS (one draw there peaks
    near 23 MB). Time and memory do not depend on n. Deterministic for a
    fixed seed.
    """
    n = _whole(n, "n", 1, 2 ** 63)
    if m.R > _MAX_RANKS:
        raise ValueError(f"simulation draws over at most {_MAX_RANKS} ranks, got R={m.R}")
    import numpy as np
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


def _trial_counts(m: ModelParams, n: int, trials: int, seeds):
    """Yield the per-rank counts of trials runs of n draws from m, each run
    drawing from the next seed of the iterator seeds."""
    for child in itertools.islice(seeds, trials):
        yield sample_counts(m, n, child)


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
    for counts in _trial_counts(m, n, trials, _trial_seeds(seed, trials)):
        under += int(np.count_nonzero(counts)) < m.N
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
    per_size: tuple[SizeRecovery, ...]

    def as_dict(self) -> dict:
        return {**self.config.as_dict(), "per_size": [s.as_dict() for s in self.per_size]}


def recovery_experiment(cfg: SimulationConfig) -> RecoveryStats:
    """Sample, select and score: can the criteria find the true model back?

    For every (sample size, trial) pair fresh counts are drawn from the
    true model, summarized as sample() ranks them, and run through selection
    over cfg.ensemble. Recorded per size: the median absolute error of the
    true kind's fitted scalar, the fraction of trials where each criterion
    picks the true kind, and the fraction of undersampled trials (r_max < N).
    Trials whose true kind the criteria cannot score (AICc needs F0 > K + 1)
    count as failures without a selection and drop out of the aggregates.
    """
    true_kind = cfg.model.kind
    truth = cfg.model.scalar

    seeds = _trial_seeds(cfg.seed, cfg.trials, len(cfg.sample_sizes))
    per_size = []
    for n in cfg.sample_sizes:
        errors = []
        aicc_hits = 0
        bic_hits = 0
        undersampled = 0
        failures = 0
        for counts in _trial_counts(cfg.model, n, cfg.trials, seeds):
            stats = _summary(sorted((float(c) for c in counts.tolist() if c), reverse=True))
            try:
                _check_domain(true_kind.n_params, stats.F0)
                table = select(stats, N=cfg.model.N, ensemble=cfg.ensemble)
            except ValueError:
                failures += 1
                continue
            errors.append(abs(table.row(true_kind).fit.params.scalar - truth))
            aicc_hits += table.best_by_aicc == true_kind
            bic_hits += table.best_by_bic == true_kind
            undersampled += stats.r_max < cfg.model.N
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
    return RecoveryStats(config=cfg, per_size=tuple(per_size))

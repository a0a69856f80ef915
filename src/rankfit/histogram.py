"""Rank-frequency histograms: ingestion, ranking and summary statistics."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from ._io import number

__all__ = [
    "ParseError",
    "RankHistogram",
    "SummaryStats",
    "parse_dataset",
    "summarize",
]


class ParseError(ValueError):
    """Malformed dataset text; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class RankHistogram:
    """Observed frequency per rank, with rank 1 the most frequent record.

    ``frequencies[r - 1]`` is the frequency of rank r, for ranks 1..r_max;
    frequencies are positive reals and non-increasing in rank. ``names``
    carries the record label behind each rank. ``warnings`` collects
    parse-time notes (ties, dropped records) and is excluded from equality.
    """

    frequencies: tuple[float, ...]
    names: tuple[str, ...]
    warnings: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if not self.frequencies:
            raise ValueError("histogram must contain at least one rank")
        if len(self.names) != len(self.frequencies):
            raise ValueError("histogram needs exactly one name per rank")
        prev = math.inf
        for rank, freq in enumerate(self.frequencies, start=1):
            if not (isinstance(freq, float) and math.isfinite(freq) and freq > 0):
                raise ValueError(f"rank {rank}: frequency must be a positive finite real")
            if freq > prev:
                raise ValueError(f"rank {rank}: frequencies must be non-increasing")
            prev = freq

    @classmethod
    def from_frequencies(cls, freqs, names=None) -> "RankHistogram":
        """Build a histogram from frequencies already sorted by rank."""
        freqs = tuple(float(f) for f in freqs)
        if names is None:
            names = tuple(f"r{i}" for i in range(1, len(freqs) + 1))
        return cls(frequencies=freqs, names=tuple(names))

    @property
    def r_max(self) -> int:
        return len(self.frequencies)

    @property
    def entries(self) -> tuple[tuple[int, float], ...]:
        """(rank, frequency) pairs for ranks 1..r_max."""
        return tuple(enumerate(self.frequencies, start=1))


@dataclass(frozen=True)
class SummaryStats:
    """Frequency moments of one histogram.

    F0 is the total frequency (the sample size), F1 the frequency-weighted
    rank sum, FlogR the frequency-weighted sum of log-ranks, mean_rank
    their ratio F1/F0, and r_max the number of attested ranks.
    """

    F0: float
    F1: float
    FlogR: float
    mean_rank: float
    r_max: int

    def __post_init__(self):
        slack = 1e-9 * max(1.0, abs(self.F1))
        if not (self.F0 <= self.F1 + slack and self.F1 <= self.F0 * self.r_max + slack):
            raise ValueError("F0 <= F1 <= F0*r_max violated")
        if not (1.0 - 1e-12 <= self.mean_rank <= self.r_max + 1e-12):
            raise ValueError("mean_rank outside [1, r_max]")
        if self.FlogR < -1e-12 or (self.r_max == 1 and self.FlogR != 0.0):
            raise ValueError("FlogR must be >= 0 and zero iff r_max == 1")

    def as_dict(self) -> dict:
        return asdict(self)


def parse_dataset(text: str, *, delimiter: str = "\t") -> RankHistogram:
    """Parse delimited label/frequency records into a rank histogram.

    Records are sorted by descending frequency (stable, so ties keep input
    order and are flagged with a warning); rank i goes to the i-th record
    after sorting. Zero-frequency records are dropped with a warning. The
    first non-blank line is skipped when its frequency field is
    non-numeric (which covers a ``label\\tfrequency`` header).
    """
    records: list[tuple[int, str, float]] = []
    notes: list[str] = []
    seen_first = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip("\r")
        if not line.strip():
            continue
        first = not seen_first
        seen_first = True
        parts = line.split(delimiter)
        if len(parts) != 2:
            raise ParseError(
                f"expected 2 fields separated by {delimiter!r}, got {len(parts)}",
                line=lineno,
            )
        name, freq_text = parts[0], parts[1]
        try:
            freq = float(freq_text)
        except ValueError:
            if first:
                continue
            raise ParseError(f"non-numeric frequency field {freq_text!r}", line=lineno) from None
        if math.isnan(freq) or math.isinf(freq):
            raise ParseError(f"non-finite frequency {freq_text!r}", line=lineno)
        if freq < 0:
            raise ParseError(f"negative frequency {number(freq)}", line=lineno)
        if freq == 0:
            notes.append(f"dropped zero-frequency record {name!r} (line {lineno})")
            continue
        records.append((lineno, name, freq))
    if not records:
        raise ParseError("empty input: no usable records")

    records.sort(key=lambda rec: -rec[2])

    # flag tie groups: stable sort already fixed their order to input order
    i = 0
    while i < len(records):
        j = i
        while j + 1 < len(records) and records[j + 1][2] == records[i][2]:
            j += 1
        if j > i:
            tied = ", ".join(repr(rec[1]) for rec in records[i:j + 1])
            notes.append(
                f"tie at frequency {number(records[i][2])} broken by "
                f"input order: {tied}"
            )
        i = j + 1

    return RankHistogram(
        frequencies=tuple(rec[2] for rec in records),
        names=tuple(rec[1] for rec in records),
        warnings=tuple(notes),
    )


def summarize(hist: RankHistogram) -> SummaryStats:
    """Compute F0, F1, FlogR, mean rank and r_max for a histogram."""
    freqs = hist.frequencies
    F0 = math.fsum(freqs)
    F1 = math.fsum(f * r for r, f in enumerate(freqs, start=1))
    FlogR = math.fsum(f * math.log(r) for r, f in enumerate(freqs, start=1))
    return SummaryStats(F0=F0, F1=F1, FlogR=FlogR, mean_rank=F1 / F0, r_max=hist.r_max)

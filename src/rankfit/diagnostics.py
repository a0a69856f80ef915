"""Scale diagnostics: plot-ready series and straight-line slope checks.

A family's pmf is a straight line with slope -theta (models._Family.theta)
in its own scale: linear-log for the geometric, log-log for zeta.
The diagnostic regressions compare how straight the observed data look in
each scale and report the model-predicted slopes next to the fitted ones.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from ._io import json_text, number, tsv, write_text
from .estimation import FitResult
from .histogram import RankHistogram
from .models import ModelKind, ModelParams, expected_frequency

__all__ = [
    "Scale",
    "PlotSeries",
    "SlopeFit",
    "DiagnosticReport",
    "transform_series",
    "expected_series",
    "slope_fit",
    "diagnose",
    "emit_plot_data",
    "R2_MARGIN",
]

R2_MARGIN = 0.02  # the verdict's r2 margin, which as_dict records as "margin"


class Scale(str, Enum):
    NORMAL = "normal"
    LINEAR_LOG = "linear-log"
    LOG_LOG = "log-log"


@dataclass(frozen=True)
class PlotSeries:
    """Points of one curve in one scale.

    normal: (r, f(r)); linear-log: (r, log f(r)); log-log: (log r, log f(r)).
    ``source`` is "observed" or "expected"; expected series carry the model
    kind they came from.
    """

    scale: Scale
    points: tuple[tuple[float, float], ...]
    source: str
    model: ModelKind | None = None


class SlopeFit(NamedTuple):
    slope: float
    intercept: float
    r2: float


@dataclass(frozen=True)
class DiagnosticReport:
    linlog_slope: float
    linlog_r2: float
    loglog_slope: float
    loglog_r2: float
    geometric_slope_prediction: float
    zeta_slope_prediction: float
    verdict: str

    def as_dict(self) -> dict:
        return {**asdict(self), "margin": R2_MARGIN}


def _transform(points, scale: Scale):
    if scale == Scale.NORMAL:
        return tuple((float(r), float(f)) for r, f in points)
    if scale == Scale.LINEAR_LOG:
        return tuple((float(r), math.log(f)) for r, f in points)
    return tuple((math.log(r), math.log(f)) for r, f in points)


def transform_series(hist: RankHistogram, scale: Scale | str) -> PlotSeries:
    """Observed (rank, frequency) pairs in the requested scale, natural logs."""
    scale = Scale(scale)
    return PlotSeries(scale=scale, points=_transform(hist.entries, scale),
                      source="observed")


def expected_series(m: ModelParams, F0: float, scale: Scale | str) -> PlotSeries:
    """Model-expected frequencies F0*p(r) over the support 1..R, transformed."""
    scale = Scale(scale)
    pts = [(r, expected_frequency(m, F0, r)) for r in range(1, m.R + 1)]
    pts = [(r, f) for r, f in pts if f > 0]
    return PlotSeries(scale=scale, points=_transform(pts, scale),
                      source="expected", model=m.kind)


def slope_fit(series: PlotSeries) -> SlopeFit:
    """Unweighted ordinary least squares over the series points.

    r2 = 1 - SSres/SStot, with all-equal y (SStot = 0 in exact arithmetic)
    defined as a perfect horizontal fit: slope 0, r2 = 1.
    """
    pts = series.points
    if len(pts) < 2:
        raise ValueError("slope fit needs at least 2 points")
    n = len(pts)
    xbar = math.fsum(x for x, _ in pts) / n
    ybar = math.fsum(y for _, y in pts) / n
    sxx = math.fsum((x - xbar) ** 2 for x, _ in pts)
    if sxx == 0.0:
        raise ValueError("slope fit needs at least 2 distinct x values")
    # tested on the points themselves: ybar can round away from an
    # all-equal y, which leaves SStot a tiny nonzero number and r2 = 0
    if all(y == pts[0][1] for _, y in pts):
        return SlopeFit(slope=0.0, intercept=pts[0][1], r2=1.0)
    sstot = math.fsum((y - ybar) ** 2 for _, y in pts)
    sxy = math.fsum((x - xbar) * (y - ybar) for x, y in pts)
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    ssres = math.fsum((y - (intercept + slope * x)) ** 2 for x, y in pts)
    return SlopeFit(slope=slope, intercept=intercept, r2=1.0 - ssres / sstot)


def _pick(fits, family_name: str) -> FitResult:
    group = [f for f in fits if f.params.kind.family.name == family_name]
    if not group:
        raise ValueError(f"diagnose needs at least one {family_name} fit")
    # best log-likelihood wins; ties go to the simpler model
    return max(group, key=lambda f: (f.loglik, -f.n_params))


def diagnose(hist: RankHistogram, fits) -> DiagnosticReport:
    """Regress the observed data in both log scales and compare linearity.

    The verdict is exponential-like iff the linear-log r2 beats the
    log-log r2 by more than R2_MARGIN, power-law-like in the mirrored
    case, inconclusive otherwise. Slope predictions are -theta of the best
    geometric fit and of the best zeta fit supplied.
    """
    if hist.r_max < 2:
        raise ValueError(f"diagnose needs at least 2 attested ranks, got r_max={hist.r_max}")
    geo, zet = (_pick(fits, name).params for name in ("geometric", "zeta"))
    linlog = slope_fit(transform_series(hist, Scale.LINEAR_LOG))
    loglog = slope_fit(transform_series(hist, Scale.LOG_LOG))
    gap = linlog.r2 - loglog.r2  # exactly -(loglog.r2 - linlog.r2)
    verdict = ("exponential-like" if gap > R2_MARGIN else
               "power-law-like" if -gap > R2_MARGIN else "inconclusive")
    return DiagnosticReport(
        linlog_slope=linlog.slope,
        linlog_r2=linlog.r2,
        loglog_slope=loglog.slope,
        loglog_r2=loglog.r2,
        geometric_slope_prediction=-geo.kind.family.theta(geo.scalar),
        zeta_slope_prediction=-zet.kind.family.theta(zet.scalar),
        verdict=verdict,
    )


def emit_plot_data(hist: RankHistogram, fits, directory) -> list[Path]:
    """Write one TSV per (scale, source) plus a series manifest.

    Observed data produce three files (one per scale); every fit adds
    three expected-frequency files. ``manifest.json`` lists each series
    with its file, scale, source and model. Returns all written paths,
    manifest last.
    """
    directory = Path(directory)
    F0 = math.fsum(hist.frequencies)
    curves = [("observed", transform_series(hist, scale), {"source": "observed"})
              for scale in Scale]
    curves += [(f"expected_{fr.params.kind.value}", expected_series(fr.params, F0, scale),
                {"source": "expected", "model": fr.params.kind.value})
               for fr in fits for scale in Scale]

    written: list[Path] = []
    manifest = []
    for stem, series, entry in curves:
        path = directory / f"{stem}_{series.scale.value.replace('-', '_')}.tsv"
        write_text(path, tsv(("x", "y"), ((number(x), number(y)) for x, y in series.points)))
        written.append(path)
        manifest.append({"file": path.name, "scale": series.scale.value, **entry})

    manifest_path = directory / "manifest.json"
    write_text(manifest_path, json_text({"series": manifest}))
    written.append(manifest_path)
    return written

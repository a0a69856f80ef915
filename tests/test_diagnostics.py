import json
import math

import numpy as np
import pytest

from rankfit import (
    FitResult,
    ModelKind,
    ModelParams,
    RankHistogram,
    Scale,
    diagnose,
    emit_plot_data,
    expected_frequency,
    expected_series,
    fit,
    geometric1,
    geometric2,
    parse_dataset,
    sample,
    slope_fit,
    transform_series,
    zeta1,
    zeta2,
)
from rankfit.diagnostics import PlotSeries
from rankfit.models import harmonic

from _oracles import random_histogram


def exact_histogram(model, F0):
    freqs = [expected_frequency(model, F0, r) for r in range(1, model.R + 1)]
    return RankHistogram.from_frequencies(freqs)


def test_transform_series_examples():
    h = RankHistogram.from_frequencies([4, 2, 1])
    normal = transform_series(h, Scale.NORMAL)
    assert normal.points == ((1.0, 4.0), (2.0, 2.0), (3.0, 1.0))
    linlog = transform_series(h, Scale.LINEAR_LOG)
    assert linlog.points == ((1.0, math.log(4)), (2.0, math.log(2)), (3.0, 0.0))
    loglog = transform_series(h, Scale.LOG_LOG)
    assert loglog.points == ((0.0, math.log(4)), (math.log(2), math.log(2)),
                             (math.log(3), 0.0))


def test_transform_consistency():
    h = RankHistogram.from_frequencies([10.5, 4.25, 1.125])
    normal = transform_series(h, Scale.NORMAL)
    linlog = transform_series(h, Scale.LINEAR_LOG)
    for (x0, y0), (x1, y1) in zip(normal.points, linlog.points):
        assert x0 == x1
        assert math.exp(y1) == pytest.approx(y0, rel=1e-12)


def test_expected_series_normalizes_once(monkeypatch):
    calls = []

    def counting(alpha, R):
        calls.append((alpha, R))
        return harmonic(alpha, R)

    monkeypatch.setattr("rankfit.models.harmonic", counting)
    series = expected_series(zeta1(1.0, 500), 100.0, "normal")
    assert len(calls) == 1
    assert len(series.points) == 500
    assert series.points[1] == (2.0, 100.0 * (2 ** -1.0 / harmonic(1.0, 500)))


def test_slope_fit_exact_geometric_line():
    series = expected_series(geometric2(0.5, 10), 1.0, Scale.LINEAR_LOG)
    result = slope_fit(series)
    assert result.slope == pytest.approx(math.log(0.5), abs=1e-12)
    assert result.r2 == pytest.approx(1.0, abs=1e-12)


def test_slope_fit_exact_zeta_line():
    series = expected_series(zeta2(1.5, 10), 1.0, Scale.LOG_LOG)
    result = slope_fit(series)
    assert result.slope == pytest.approx(-1.5, abs=1e-12)
    assert result.r2 == pytest.approx(1.0, abs=1e-12)


def test_slope_fit_two_points_gives_r2_one():
    series = PlotSeries(scale=Scale.NORMAL, points=((0.0, 1.0), (1.0, 5.0)),
                        source="observed")
    assert slope_fit(series).r2 == pytest.approx(1.0, abs=1e-12)


def test_slope_fit_flat_series():
    series = PlotSeries(scale=Scale.NORMAL,
                        points=((0.0, 2.0), (1.0, 2.0), (2.0, 2.0)),
                        source="observed")
    result = slope_fit(series)
    assert result.slope == 0.0
    assert result.r2 == 1.0


@pytest.mark.parametrize("freqs", [[4.45] * 24, [0.38] * 200])
def test_slope_fit_flat_series_whose_mean_rounds(freqs):
    # fsum(y)/n lands one ulp off log(f) here, so SStot is not exactly 0
    series = transform_series(RankHistogram.from_frequencies(freqs), Scale.LINEAR_LOG)
    result = slope_fit(series)
    assert result.slope == 0.0
    assert result.r2 == 1.0


def test_slope_fit_rejections():
    with pytest.raises(ValueError):
        slope_fit(PlotSeries(scale=Scale.NORMAL, points=((1.0, 1.0),),
                             source="observed"))
    with pytest.raises(ValueError):
        slope_fit(PlotSeries(scale=Scale.NORMAL,
                             points=((1.0, 1.0), (1.0, 2.0)), source="observed"))


def test_diagnose_exact_geometric_data():
    h = exact_histogram(geometric1(0.4, 24), 1000.0)
    fits = [fit(k, h) for k in ModelKind]
    report = diagnose(h, fits)
    assert report.verdict == "exponential-like"
    assert report.linlog_r2 == pytest.approx(1.0, abs=1e-12)
    assert report.linlog_slope == pytest.approx(math.log(0.6), abs=1e-9)
    # the fitted geometric recovers q, so the predicted slope matches
    assert report.geometric_slope_prediction == pytest.approx(math.log(0.6), abs=1e-6)


def test_diagnose_exact_zeta_data():
    h = exact_histogram(zeta2(1.4, 20), 500.0)
    fits = [fit(k, h) for k in ModelKind]
    report = diagnose(h, fits)
    assert report.verdict == "power-law-like"
    assert report.loglog_r2 == pytest.approx(1.0, abs=1e-12)
    assert report.zeta_slope_prediction == pytest.approx(-1.4, abs=1e-6)


def test_diagnose_inconclusive_within_the_margin():
    h = RankHistogram.from_frequencies([9, 5, 1, 1])
    report = diagnose(h, [fit(k, h) for k in ModelKind])
    assert abs(report.linlog_r2 - report.loglog_r2) < 0.001  # well inside the margin
    assert report.verdict == "inconclusive"
    assert report.as_dict()["margin"] == 0.02


def test_diagnose_needs_both_families():
    h = RankHistogram.from_frequencies([5, 3, 1])
    only_geo = [fit(ModelKind.GEOMETRIC1, h)]
    with pytest.raises(ValueError, match="zeta"):
        diagnose(h, only_geo)


def test_diagnose_predicts_the_picked_fits_slopes_bit_for_bit():
    # -theta is log1p(-q) and -alpha exactly: the fit with the best loglik per family is picked
    rng = np.random.default_rng(32)
    for _ in range(200):
        h = random_histogram(rng)
        fits = []
        for kind in ModelKind:
            R = h.r_max if kind.n_params == 2 else 24
            q = float(rng.choice([1e-9, 1 - 1e-9, rng.uniform(), 10.0 ** rng.uniform(-9, 0)]))
            alpha = float(rng.choice([0.0, 1e6, rng.uniform(0, 5), 10.0 ** rng.uniform(-9, 6)]))
            params = (ModelParams(kind, R=R, N=24, q=q) if kind.family.name == "geometric"
                      else ModelParams(kind, R=R, N=24, alpha=alpha))
            fits.append(FitResult(params=params, loglik=float(-rng.uniform(1, 1e4)), iterations=0))
        geo = max((f for f in fits if f.params.q is not None), key=lambda f: f.loglik)
        zet = max((f for f in fits if f.params.alpha is not None), key=lambda f: f.loglik)
        report = diagnose(h, fits)
        assert report.geometric_slope_prediction == math.log1p(-geo.params.q)
        assert report.zeta_slope_prediction == -zet.params.alpha


def test_diagnose_names_single_rank_data():
    h = RankHistogram.from_frequencies([7.0])
    with pytest.raises(ValueError, match=r"^diagnose needs at least 2 attested ranks, got r_max=1$"):
        diagnose(h, [fit(k, h) for k in ModelKind])


def test_diagnose_sampled_geometric_data():
    hits = 0
    for seed in range(100):
        h = sample(geometric1(0.4, 24), 1000, seed)
        fits = [fit(k, h) for k in (ModelKind.GEOMETRIC2, ModelKind.ZETA2)]
        hits += diagnose(h, fits).verdict == "exponential-like"
    assert hits >= 95


def test_loglog_curvature_of_exact_geometric_data():
    # slope between consecutive log-log points must strictly decrease
    for q in (0.2, 0.4, 0.6):
        h = exact_histogram(geometric2(q, 15), 100.0)
        pts = transform_series(h, Scale.LOG_LOG).points
        slopes = [(y1 - y0) / (x1 - x0)
                  for (x0, y0), (x1, y1) in zip(pts, pts[1:])]
        assert all(a > b for a, b in zip(slopes, slopes[1:]))


def test_emit_plot_data_layout(tmp_path):
    h = RankHistogram.from_frequencies([21, 13, 8, 5, 3, 2, 1])
    fits = [fit(k, h) for k in ModelKind]
    files = emit_plot_data(h, fits, tmp_path)
    assert len(files) == 3 + 12 + 1
    names = {p.name for p in files}
    assert "observed_normal.tsv" in names
    assert "expected_geometric2_log_log.tsv" in names
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert len(manifest["series"]) == 15
    observed = [s for s in manifest["series"] if s["source"] == "observed"]
    assert {s["scale"] for s in observed} == {"normal", "linear-log", "log-log"}


def test_emit_plot_data_observed_only(tmp_path):
    h = RankHistogram.from_frequencies([3, 1])
    files = emit_plot_data(h, [], tmp_path)
    assert len(files) == 4  # three scales + manifest


def test_emit_plot_data_round_trip(tmp_path):
    h = RankHistogram.from_frequencies([21.5, 13.25, 8.0, 1.0625])
    emit_plot_data(h, [], tmp_path)
    text = (tmp_path / "observed_normal.tsv").read_text()
    again = parse_dataset(text)  # x column doubles as the label field
    lines = [ln.split("\t") for ln in text.strip().splitlines()[1:]]
    parsed = [(float(x), float(y)) for x, y in lines]
    assert parsed == [(float(r), f) for r, f in h.entries]
    assert again.frequencies == h.frequencies

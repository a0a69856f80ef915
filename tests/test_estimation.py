import math

import numpy as np
import pytest

from rankfit import (
    ALPHA_INTERVAL,
    FitResult,
    ModelKind,
    ModelParams,
    Q_INTERVAL,
    RankHistogram,
    expected_frequency,
    fit,
    geometric1,
    log_likelihood,
    select,
    summarize,
    zeta2,
    geometric2,
)
from rankfit.estimation import _maximize
from _oracles import ZetaGridOracle, grid_mle_q, random_histogram, stats_of


# ------------------------------------------------------------------ _maximize

def test_optimizer_finds_parabola_maximum():
    argmax, _, _ = _maximize(lambda x: -(x - 0.25) ** 2, 0.0, 1.0, None)
    assert abs(argmax - 0.25) <= 1e-9


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), ALPHA_INTERVAL, Q_INTERVAL])
@pytest.mark.parametrize("init", [None, 0.3])
def test_optimizer_returns_the_interval_end_of_a_monotone_objective(lo, hi, init):
    assert _maximize(lambda x: x, lo, hi, init)[:2] == (hi, hi)
    assert _maximize(lambda x: -x, lo, hi, init)[:2] == (lo, -lo)
    assert _maximize(lambda x: -math.exp(-x), lo, hi, init)[0] == hi


def test_optimizer_rejects_nan():
    def objective(x):
        return float("nan") if x > 0.7 else -x
    with pytest.raises(ValueError, match="NaN"):
        _maximize(objective, 0.0, 1.0, None)


def test_optimizer_matches_grid_oracle_on_geometric_objective():
    h = RankHistogram.from_frequencies([8, 4, 2, 1])
    F0, F1, _, r_max = stats_of(h)
    s = summarize(h)

    def objective(q):
        return log_likelihood(geometric2(q, r_max), s)

    argmax, value, _ = _maximize(objective, *Q_INTERVAL, None)
    q_star, ll_star = grid_mle_q(F0, F1, r_max)
    assert abs(argmax - q_star) <= 1e-6
    assert abs(value - ll_star) <= 1e-8
    # moment matching makes the optimum exactly 1/2 for these frequencies
    assert abs(argmax - 0.5) <= 1e-6


def test_optimizer_deterministic():
    h = random_histogram(np.random.default_rng(0))
    s = summarize(h)

    def objective(q):
        return log_likelihood(geometric2(q, s.r_max), s)

    assert _maximize(objective, *Q_INTERVAL, None) == _maximize(objective, *Q_INTERVAL, None)


# ------------------------------------------------------------------------ fit

def test_fit_recovers_q_from_exact_expected_frequencies():
    m = geometric1(0.4, 24)
    freqs = [expected_frequency(m, 1000.0, r) for r in range(1, 25)]
    h = RankHistogram.from_frequencies(freqs)
    result = fit(ModelKind.GEOMETRIC1, h, N=24)
    assert abs(result.params.q - 0.4) <= 1e-6
    assert result.converged
    assert result.params.R == 24
    # and the grid oracle agrees
    F0, F1, _, _ = stats_of(h)
    q_star, _ = grid_mle_q(F0, F1, 24)
    assert abs(result.params.q - q_star) <= 1e-6


def test_fit_recovers_alpha_from_exact_expected_frequencies():
    m = zeta2(1.5, 6)
    freqs = [expected_frequency(m, 100.0, r) for r in range(1, 7)]
    h = RankHistogram.from_frequencies(freqs)
    result = fit(ModelKind.ZETA2, h, N=24)
    assert abs(result.params.alpha - 1.5) <= 1e-6
    assert result.params.R == 6


def test_fit_two_parameter_kinds_truncate_at_r_max():
    h = RankHistogram.from_frequencies(list(range(14, 0, -1)))
    for kind in (ModelKind.GEOMETRIC2, ModelKind.ZETA2):
        assert fit(kind, h, N=24).params.R == 14
    for kind in (ModelKind.GEOMETRIC1, ModelKind.ZETA1):
        assert fit(kind, h, N=24).params.R == 24


def test_fit_degenerate_single_rank():
    h = RankHistogram.from_frequencies([1])
    result = fit(ModelKind.ZETA2, h, N=24)
    assert not result.converged
    assert result.params.alpha == 0.5 * (ALPHA_INTERVAL[0] + ALPHA_INTERVAL[1])
    assert result.loglik == 0.0
    assert any("unidentifiable" in w for w in result.warnings)
    result_g = fit(ModelKind.GEOMETRIC2, h, N=24)
    assert not result_g.converged
    assert result_g.params.q == 0.5


@pytest.mark.parametrize("kind", list(ModelKind))
def test_fit_builds_no_model_params_per_evaluation(kind, monkeypatch):
    built = []
    post_init = ModelParams.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(ModelParams, "__post_init__", counting)
    result = fit(kind, RankHistogram.from_frequencies([40, 22, 13, 9, 5, 3, 2, 1]))
    assert result.iterations > 1000
    assert len(built) <= 2


@pytest.mark.parametrize("N", [24, 200])
def test_fits_are_bit_identical_to_the_plain_harmonic_sum(N, monkeypatch):
    rng = np.random.default_rng(8)
    hists = [random_histogram(rng, r_max_lo=2, r_max_hi=N) for _ in range(3)]
    hists.append(RankHistogram.from_frequencies([5.5, 2.25, 0.75]))
    kinds = list(ModelKind)
    fast = [fit(kind, h, N).as_dict() for h in hists for kind in kinds]
    monkeypatch.setattr("rankfit.models.harmonic",
                        lambda alpha, R: math.fsum(r ** -alpha for r in range(R, 0, -1)))
    assert [fit(kind, h, N).as_dict() for h in hists for kind in kinds] == fast


@pytest.mark.parametrize("kind", list(ModelKind))
def test_fit_takes_summary_stats_in_place_of_the_histogram(kind):
    h = RankHistogram.from_frequencies([40, 22, 13, 9, 5, 3, 2, 1])
    assert fit(kind, summarize(h)) == fit(kind, h)


def test_select_summarizes_once(monkeypatch):
    calls = []

    def counting(hist):
        calls.append(hist)
        return summarize(hist)

    monkeypatch.setattr("rankfit.estimation.summarize", counting)
    monkeypatch.setattr("rankfit.selection.summarize", counting)
    select(RankHistogram.from_frequencies([40, 22, 13, 9, 5, 3, 2, 1]))
    assert len(calls) == 1


@pytest.mark.parametrize("freqs, kind, end", [
    ([7.0] * 24, "zeta1", ALPHA_INTERVAL[0]),  # uniform data: alpha = 0, q -> 0
    ([7.0] * 24, "zeta2", ALPHA_INTERVAL[0]),
    ([7.0] * 24, "geometric1", Q_INTERVAL[0]),
    ([7.0] * 24, "geometric2", Q_INTERVAL[0]),
    ([7.0], "zeta1", ALPHA_INTERVAL[1]),  # every draw at rank 1 of 24: alpha -> inf, q -> 1
    ([7.0], "geometric1", Q_INTERVAL[1]),
], ids=["uniform-zeta1", "uniform-zeta2", "uniform-geometric1", "uniform-geometric2",
        "one-rank-zeta1", "one-rank-geometric1"])
def test_fit_reports_an_interval_end_as_a_boundary_optimum(freqs, kind, end):
    result = fit(kind, RankHistogram.from_frequencies(freqs), N=24)
    assert result.params.scalar == end
    assert result.converged
    assert len(result.warnings) == 1
    assert result.warnings[0].startswith("boundary:")
    assert result.iterations > 1000


@pytest.mark.parametrize("kind", list(ModelKind))
def test_fit_at_N_1_is_the_degenerate_result(kind):
    lo, hi = ALPHA_INTERVAL if kind.is_zeta else Q_INTERVAL
    result = fit(kind, RankHistogram.from_frequencies([7.0]), N=1)
    assert result.params.scalar == 0.5 * (lo + hi)
    assert result.params.R == 1
    assert (result.loglik, result.converged, result.iterations) == (0.0, False, 0)
    assert len(result.warnings) == 1 and "unidentifiable" in result.warnings[0]


@pytest.mark.parametrize("kind", list(ModelKind))
def test_interior_fit_carries_no_warning(kind):
    result = fit(kind, RankHistogram.from_frequencies([40, 22, 13, 9, 5, 3, 2, 1]))
    lo, hi = ALPHA_INTERVAL if result.params.kind.is_zeta else Q_INTERVAL
    assert lo < result.params.scalar < hi
    assert result.converged
    assert result.warnings == ()


def test_fit_rejects_r_max_beyond_ceiling():
    h = RankHistogram.from_frequencies(list(range(25, 0, -1)))
    with pytest.raises(ValueError, match="ceiling"):
        fit(ModelKind.GEOMETRIC1, h, N=24)


def test_fit_result_json_round_trip():
    h = RankHistogram.from_frequencies([9, 5, 2])
    result = fit(ModelKind.GEOMETRIC2, h)
    assert FitResult.from_dict(result.as_dict()) == result


# ------------------------------------------------------------------ theorems

def test_truncation_rule_on_random_histograms():
    rng = np.random.default_rng(1234)
    for _ in range(25):
        h = random_histogram(rng, r_max_lo=2, r_max_hi=20)
        s = summarize(h)
        q = float(rng.uniform(0.05, 0.6))
        alpha = float(rng.uniform(0.2, 4.0))
        for below in range(1, s.r_max):
            assert log_likelihood(geometric2(q, below), s) == -math.inf
            assert log_likelihood(zeta2(alpha, below), s) == -math.inf
        geo = [log_likelihood(geometric2(q, R), s) for R in range(s.r_max, 25)]
        zet = [log_likelihood(zeta2(alpha, R), s) for R in range(s.r_max, 25)]
        assert all(a > b for a, b in zip(geo, geo[1:]))
        assert all(a > b for a, b in zip(zet, zet[1:]))


def test_two_parameter_fit_nests_one_parameter_fit():
    rng = np.random.default_rng(77)
    for _ in range(10):
        h = random_histogram(rng)
        g2 = fit(ModelKind.GEOMETRIC2, h).loglik
        g1 = fit(ModelKind.GEOMETRIC1, h).loglik
        z2 = fit(ModelKind.ZETA2, h).loglik
        z1 = fit(ModelKind.ZETA1, h).loglik
        assert g2 >= g1 - 1e-9
        assert z2 >= z1 - 1e-9
        if h.r_max == 24:
            assert g2 == pytest.approx(g1, abs=1e-6)
            assert z2 == pytest.approx(z1, abs=1e-6)


def test_fitted_q_ordering():
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(15):
        h = random_histogram(rng, r_max_lo=2, r_max_hi=20)
        if h.r_max >= 24:
            continue
        q1 = fit(ModelKind.GEOMETRIC1, h).params.q
        q2 = fit(ModelKind.GEOMETRIC2, h).params.q
        assert q1 > q2, f"expected q1 > q2, got {q1} <= {q2}"
        checked += 1
    assert checked > 0


def test_fit_agrees_with_grid_oracle():
    rng = np.random.default_rng(2024)
    zeta_oracle = ZetaGridOracle(N=24)
    for _ in range(10):
        h = random_histogram(rng)
        F0, F1, FlogR, r_max = stats_of(h)

        for kind, R in ((ModelKind.GEOMETRIC2, r_max), (ModelKind.GEOMETRIC1, 24)):
            result = fit(kind, h)
            q_star, ll_star = grid_mle_q(F0, F1, R)
            assert abs(result.params.q - q_star) <= 1e-6
            assert abs(result.loglik - ll_star) <= 1e-8

        for kind, R in ((ModelKind.ZETA2, r_max), (ModelKind.ZETA1, 24)):
            result = fit(kind, h)
            a_star, ll_star = zeta_oracle.argmax(F0, FlogR, R)
            assert a_star < 49.0  # oracle grid interior
            assert abs(result.params.alpha - a_star) <= 1e-6
            assert abs(result.loglik - ll_star) <= 1e-8


def test_statistical_recovery_median_error():
    from rankfit import SimulationConfig, recovery_experiment

    cfg = SimulationConfig(seed=314, trials=200, sample_sizes=(500,),
                           model=geometric1(0.35, 24))
    stats = recovery_experiment(cfg, ensemble=(ModelKind.GEOMETRIC1,))
    assert stats.per_size[0].median_abs_param_error <= 0.02

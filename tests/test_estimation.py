import math
import operator

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rankfit import (
    ALPHA_INTERVAL,
    FitResult,
    ModelKind,
    ModelParams,
    Q_INTERVAL,
    RankHistogram,
    SummaryStats,
    cross_apply,
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
from _oracles import ZetaGridOracle, grid_mle_q, random_histogram, score_sign, stats_of


# ------------------------------------------------------------------ _maximize

def test_optimizer_finds_parabola_maximum():
    argmax, _ = _maximize(lambda x: -(x - 0.25) ** 2, 0.0, 1.0)
    assert abs(argmax - 0.25) <= 1e-9


@pytest.mark.parametrize("field", ["F0", "F1", "FlogR"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_summary_stats_reject_non_finite_values_so_no_fit_sees_them(field, value):
    # the objective is finite or -inf on finite stats; NaN could only come from these
    with pytest.raises(ValueError, match=f"^{field} must be finite, got"):
        SummaryStats(**{"F0": 10.0, "F1": 20.0, "FlogR": 5.0, "r_max": 3, field: value})


def test_optimizer_matches_grid_oracle_on_geometric_objective():
    h = RankHistogram.from_frequencies([8, 4, 2, 1])
    F0, F1, _, r_max = stats_of(h)
    s = summarize(h)

    def objective(q):
        return log_likelihood(geometric2(q, r_max), s)

    argmax, _ = _maximize(objective, *Q_INTERVAL)
    q_star, ll_star = grid_mle_q(F0, F1, r_max)
    assert abs(argmax - q_star) <= 1e-6
    assert abs(objective(argmax) - ll_star) <= 1e-8
    # moment matching makes the optimum exactly 1/2 for these frequencies
    assert abs(argmax - 0.5) <= 1e-6


def test_optimizer_deterministic():
    h = random_histogram(np.random.default_rng(0))
    s = summarize(h)

    def objective(q):
        return log_likelihood(geometric2(q, s.r_max), s)

    assert _maximize(objective, *Q_INTERVAL) == _maximize(objective, *Q_INTERVAL)


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


def assert_boundary_fit(result, end):
    assert result.params.scalar == end
    assert result.iterations == 0  # the score's sign decides the end, with no search
    assert len(result.warnings) == 1 and result.warnings[0].startswith("boundary:")


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
    assert_boundary_fit(result, end)
    assert result.converged


# Near alpha = 0 (or q = 1e-9) these likelihoods are flat to rounding, so no
# comparison of values can find the end; the score's sign there decides it.
@pytest.mark.parametrize("freqs, kind, N, end", [
    ([1.0] * 24, "zeta1", 24, ALPHA_INTERVAL[0]),
    ([1.0] * 24, "zeta2", 24, ALPHA_INTERVAL[0]),
    ([6.54] * 137, "zeta2", 200, ALPHA_INTERVAL[0]),
    ([1.0, 1.0], "geometric2", 24, Q_INTERVAL[0]),
], ids=["ones-zeta1", "ones-zeta2", "6.54-zeta2-N200", "two-ones-geometric2"])
def test_uniform_data_flat_to_rounding_fit_the_interval_end(freqs, kind, N, end):
    assert_boundary_fit(fit(kind, RankHistogram.from_frequencies(freqs), N=N), end)


# Equal frequencies tie the zeta test at alpha = 0 in exact arithmetic; in
# floating point log(R!)/R and FlogR/F0 land up to 2.5 eps apart (relative).
@given(st.integers(2, 200), st.one_of(st.integers(1, 10 ** 6).map(float),
                                      st.floats(1e-6, 1e9)))
@settings(max_examples=300, deadline=None)
def test_equal_frequencies_fit_the_lower_end_under_every_kind_with_R_at_r_max(r_max, f):
    hist = RankHistogram.from_frequencies([f] * r_max)
    for kind in ModelKind:
        assert_boundary_fit(fit(kind, hist, N=r_max), kind.family.interval[0])


@given(st.floats(1e-6, 1e9), st.integers(2, 10 ** 6))
@settings(max_examples=100, deadline=None)
def test_one_rank_data_fit_the_upper_end_under_one_parameter_kinds(f, N):
    for kind in (ModelKind.ZETA1, ModelKind.GEOMETRIC1):
        assert_boundary_fit(fit(kind, RankHistogram.from_frequencies([f]), N=N),
                            kind.family.interval[1])


@pytest.mark.parametrize("kind", [ModelKind.ZETA1, ModelKind.GEOMETRIC1])
def test_one_rank_at_a_million_ranks_is_decided_without_a_search(kind):
    result = fit(kind, RankHistogram.from_frequencies([7.0]), N=10 ** 6)
    assert_boundary_fit(result, kind.family.interval[1])


def stats_in_order(freqs):
    """The stats of freqs at ranks 1, 2, ... in any order, so rising data reach the lower end too."""
    ranks = range(1, len(freqs) + 1)
    return SummaryStats(F0=math.fsum(freqs), F1=math.fsum(map(operator.mul, freqs, ranks)),
                        FlogR=math.fsum(f * math.log(r) for f, r in zip(freqs, ranks)),
                        r_max=len(freqs))


@given(st.lists(st.integers(1, 50), min_size=1, max_size=200), st.integers(0, 20),
       st.sampled_from(list(ModelKind)))
@settings(max_examples=300, deadline=None)
def test_fit_returns_an_end_iff_the_score_there_has_that_ends_sign(freqs, extra, kind):
    R = len(freqs) + (extra if kind.n_params == 1 else 0)
    assume(R > 1)
    s = stats_in_order(freqs)
    result = fit(kind, s, N=len(freqs) + extra)
    lo, hi = kind.family.interval
    if score_sign(freqs, R, kind.is_zeta, lo) <= 0:
        assert_boundary_fit(result, lo)
    elif score_sign(freqs, R, kind.is_zeta, hi) >= 0:
        assert_boundary_fit(result, hi)
    else:
        assert lo < result.params.scalar < hi and result.warnings == ()


# R = 1, both interval ends and interior optima: uniform lists fit the lower end, one-rank
# lists the upper end under 1-parameter kinds with N > 1 (R = 1 otherwise), other lists
# an end or the interior.
@given(st.one_of(st.lists(st.integers(1, 50), min_size=1, max_size=200),
                 st.builds(lambda f, n: [f] * n, st.integers(1, 50), st.integers(1, 200))),
       st.integers(0, 200), st.sampled_from(list(ModelKind)))
@settings(max_examples=300, deadline=None)
def test_fit_reports_log_likelihood_at_its_params_and_a_zero_as_plus_zero(freqs, extra, kind):
    s = stats_in_order(freqs)
    result = fit(kind, s, N=min(len(freqs) + extra, 200))
    assert repr(result.loglik) == repr(log_likelihood(result.params, s))
    if result.loglik == 0.0:
        assert math.copysign(1.0, result.loglik) == 1.0


def test_one_rank_fits_and_their_cross_apply_report_plus_zero():
    one = RankHistogram.from_frequencies([7.0])
    zeta2_fit = fit("zeta2", one)  # R = 1: the degenerate fit
    for loglik in (fit("zeta1", one, N=24).loglik, zeta2_fit.loglik, cross_apply(zeta2_fit, one)):
        assert repr(loglik) == "0.0"


# On ranks {1, 2} every pmf is both a truncated zeta and a truncated geometric, so the two
# maximized log-likelihoods are equal in exact arithmetic; each kind still reaches its own by
# its own objective, 1-2 ulps apart, and that ulp decides AICc and BIC between them.
@pytest.mark.xfail(strict=True, reason="ROADMAP item 16: the R = 2 tie of zeta2 and geometric2 "
                                       "is broken by rounding; item 16 removes this marker")
@pytest.mark.parametrize("freqs", [[5, 5], [9, 4], [7, 2], [1848, 296], [820, 607]],
                         ids=["5-5", "9-4", "7-2", "golden-52", "golden-78"])
def test_zeta2_and_geometric2_fit_the_same_log_likelihood_at_two_ranks(freqs):
    hist = RankHistogram.from_frequencies([float(f) for f in freqs])
    assert fit("zeta2", hist).loglik == fit("geometric2", hist).loglik


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
                           model=geometric1(0.35, 24), ensemble=(ModelKind.GEOMETRIC1,))
    stats = recovery_experiment(cfg)
    assert stats.per_size[0].median_abs_param_error <= 0.02


@pytest.mark.parametrize("N", [0, -3, 2.5, math.inf, math.nan, True, "24", None])
def test_fit_checks_N_by_name(N):
    h = RankHistogram.from_frequencies([9, 3, 1])
    with pytest.raises(ValueError, match=r"^N must be a whole number from 1 to \d+, got "):
        fit("geometric1", h, N=N)


def test_fit_takes_a_whole_float_or_numpy_N_as_an_int():
    h = RankHistogram.from_frequencies([9, 3, 1])
    for N in (24.0, np.int64(24)):
        assert fit("geometric1", h, N=N) == fit("geometric1", h, N=24)

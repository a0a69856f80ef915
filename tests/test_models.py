import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankfit import (
    ExponentialForm,
    ModelKind,
    ModelParams,
    RankHistogram,
    expected_frequency,
    geom_norm,
    geometric1,
    geometric2,
    harmonic,
    log_likelihood,
    pmf,
    summarize,
    to_exponential_form,
    zeta1,
    zeta2,
)
from rankfit.models import Q_INTERVAL, _GEOMETRIC, _geometric_moments, _zeta_moments

ALPHA_GRID = (0.0, 0.5, 1.0, 2.0, 5.0)
Q_GRID = (0.05, 0.3, 0.5, 0.9)
R_GRID = (1, 2, 17, 24)


def test_harmonic_examples():
    assert harmonic(0.0, 5) == 5.0
    assert harmonic(1.0, 3) == pytest.approx(11 / 6, abs=1e-15)
    for alpha in ALPHA_GRID:
        assert harmonic(alpha, 1) == 1.0


@pytest.mark.parametrize("alpha", [0.0, 1e-12, 1.0, 976.5625, 1e6])
@pytest.mark.parametrize("R", [1, 24, 200])
def test_harmonic_is_the_exactly_rounded_sum_from_r_equals_R_down(alpha, R):
    assert harmonic(alpha, R) == math.fsum(r ** -alpha for r in range(R, 0, -1))


@pytest.mark.parametrize("R", [1, 2, 24, 200, 5000])
def test_harmonic_short_cut_is_exact(R):
    # the short-cut starts at (R - 1) * 2**-alpha <= 2**-54, about 54 + log2(R - 1);
    # 4 below it the exact sum still exceeds 1.0, so an early short-cut fails here
    threshold = 54.0 + math.log2(max(R - 1, 1))
    near = [threshold + 0.01 * k for k in range(-400, 101)]
    scan = [976.5625 * k for k in range(1025)]  # the fit's scan of alpha over [0, 1e6]
    for alpha in near + scan:
        assert harmonic(alpha, R) == math.fsum(r ** -alpha for r in range(R, 0, -1)), alpha


def test_geom_norm_examples():
    assert geom_norm(0.5, 2) == pytest.approx(2 / 3, abs=1e-15)
    assert geom_norm(0.5, 1) == 1.0
    # untruncated limit
    assert geom_norm(0.3, 200) == pytest.approx(0.3, rel=1e-12)


@pytest.mark.parametrize("q", Q_GRID)
@pytest.mark.parametrize("R", R_GRID)
def test_geom_norm_matches_direct_sum(q, R):
    direct = 1.0 / math.fsum((1 - q) ** (r - 1) for r in range(1, R + 1))
    assert geom_norm(q, R) == pytest.approx(direct, rel=1e-12)


def test_geom_norm_decreasing_in_r_toward_q():
    for q in Q_GRID:
        values = [geom_norm(q, R) for R in range(1, 51)]
        # strictly decreasing while the decrement (about q^2 (1-q)^R) is
        # still representable in double precision, weakly decreasing after
        strict_horizon = min(50, int(13 / -math.log10(1 - q)))
        head = values[:strict_horizon]
        assert all(a > b for a, b in zip(head, head[1:]))
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert abs(geom_norm(q, 1500) - q) <= 1e-12


def test_pmf_zeta_example():
    m = zeta2(1.0, 3)
    assert pmf(m, 1) == pytest.approx(6 / 11, abs=1e-15)
    assert pmf(m, 2) == pytest.approx(3 / 11, abs=1e-15)
    assert pmf(m, 3) == pytest.approx(2 / 11, abs=1e-15)
    assert pmf(m, 0) == 0.0
    assert pmf(m, 4) == 0.0


def test_pmf_geometric_example():
    m = geometric2(0.5, 2)
    assert pmf(m, 1) == pytest.approx(2 / 3, abs=1e-15)
    assert pmf(m, 2) == pytest.approx(1 / 3, abs=1e-15)
    assert pmf(m, 3) == 0.0


@pytest.mark.parametrize("R", R_GRID)
def test_pmf_is_the_written_out_formula_bit_for_bit(R):
    ranks = range(1, R + 1)
    for alpha in ALPHA_GRID + (1, 2):
        H = harmonic(alpha, R)
        for m in (zeta2(alpha, R), zeta1(alpha, R)):
            assert [pmf(m, r) for r in ranks] == [r ** -alpha / H for r in ranks]
    for q in Q_GRID:
        c = geom_norm(q, R)
        for m in (geometric2(q, R), geometric1(q, R)):
            assert [pmf(m, r) for r in ranks] == [c * (1.0 - q) ** (r - 1) for r in ranks]


def test_pmf_zero_beyond_truncation_rank():
    # a model truncated at 17 puts zero probability on rank 18
    m = geometric2(0.42, 17)
    assert pmf(m, 18) == 0.0


@pytest.mark.parametrize("R", R_GRID)
def test_pmf_normalization_grid(R):
    for alpha in ALPHA_GRID:
        total = math.fsum(pmf(zeta2(alpha, R), r) for r in range(1, R + 1))
        assert abs(total - 1.0) <= 1e-12
    for q in Q_GRID:
        total = math.fsum(pmf(geometric2(q, R), r) for r in range(1, R + 1))
        assert abs(total - 1.0) <= 1e-12


def test_pmf_monotone_decreasing():
    for alpha in (0.3, 1.0, 2.5):
        values = [pmf(zeta2(alpha, 24), r) for r in range(1, 25)]
        assert all(a > b for a, b in zip(values, values[1:]))
    for q in Q_GRID:
        values = [pmf(geometric2(q, 24), r) for r in range(1, 25)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_log_likelihood_hand_example():
    s = summarize(RankHistogram.from_frequencies([2, 1]))
    value = log_likelihood(geometric2(0.5, 2), s)
    assert value == pytest.approx(3 * math.log(2 / 3) + math.log(0.5), abs=1e-12)
    assert value == pytest.approx(-1.909543, abs=1e-6)


def test_log_likelihood_alpha_zero_is_uniform():
    for freqs in ([5, 3, 2], [10, 1], [4, 4, 4, 4]):
        s = summarize(RankHistogram.from_frequencies(freqs))
        expect = -s.F0 * math.log(s.r_max)
        assert log_likelihood(zeta2(0.0, s.r_max), s) == pytest.approx(expect, abs=1e-12)


def test_log_likelihood_minus_inf_when_support_too_short():
    s = summarize(RankHistogram.from_frequencies(list(range(18, 0, -1))))  # r_max=18
    assert log_likelihood(geometric2(0.4, 17), s) == -math.inf
    assert log_likelihood(zeta2(1.0, 17), s) == -math.inf
    assert math.isfinite(log_likelihood(geometric1(0.4, 24), s))


freq_lists = st.lists(
    st.floats(min_value=0.5, max_value=1e3, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=24,
).map(lambda xs: sorted(xs, reverse=True))


@given(freq_lists, st.floats(min_value=0.0, max_value=8.0),
       st.floats(min_value=0.01, max_value=0.95))
@settings(max_examples=100)
def test_closed_forms_match_direct_sum(freqs, alpha, q):
    h = RankHistogram.from_frequencies(freqs)
    s = summarize(h)
    for m in (zeta2(alpha, s.r_max), zeta1(alpha, 24), geometric2(q, s.r_max),
              geometric1(q, 24)):
        direct = math.fsum(f * math.log(pmf(m, r)) for r, f in h.entries)
        assert log_likelihood(m, s) == pytest.approx(direct, abs=1e-9)


def test_expected_frequency_examples():
    assert expected_frequency(geometric2(0.5, 2), 30.0, 1) == pytest.approx(20.0, abs=1e-12)
    assert expected_frequency(geometric2(0.5, 2), 30.0, 5) == 0.0
    assert expected_frequency(zeta2(1.0, 3), 11.0, 2) == pytest.approx(3.0, abs=1e-12)
    with pytest.raises(ValueError):
        expected_frequency(zeta2(1.0, 3), 0.0, 1)


def test_exponential_form_examples():
    form = to_exponential_form(0.5, 2 / 3)
    assert form.beta == pytest.approx(math.log(2), abs=1e-15)
    assert form.c_prime == pytest.approx(4 / 3, abs=1e-15)
    # identity at r=1 recovers c
    assert form.value(1) == pytest.approx(2 / 3, rel=1e-12)
    form2 = to_exponential_form(1 - 1 / math.e, 1.0)
    assert form2.beta == pytest.approx(1.0, rel=1e-12)
    assert form2.c_prime == pytest.approx(math.e, rel=1e-12)


@pytest.mark.parametrize("q", Q_GRID)
def test_exponential_form_identity_over_support(q):
    c = geom_norm(q, 24)
    form = to_exponential_form(q, c)
    for r in range(1, 101):
        geometric = c * (1 - q) ** (r - 1)
        assert abs(geometric - form.value(r)) <= 1e-12 * c


@given(st.floats(min_value=1e-12, max_value=1 - 1e-12), st.floats(min_value=1e-6, max_value=1.0))
def test_exponential_form_beta_is_minus_log1p_of_minus_q(q, c):
    assert to_exponential_form(q, c).beta == -math.log1p(-q)


@pytest.mark.parametrize("kind", list(ModelKind))
@pytest.mark.parametrize("scalar", [0.05, 0.6, 0.95])
def test_pmf_is_exp_of_minus_theta_times_the_statistic(kind, scalar):
    # p(r) / p(1) = exp(-theta (t(r) - t(1))), t(r) = log r (zeta) or r (geometric)
    m = ModelParams(kind, R=24, N=24, **{kind.family.scalar_name: scalar})
    t = math.log if kind.is_zeta else float
    theta = kind.family.theta(scalar)
    for r in range(1, 25):
        assert pmf(m, r) / pmf(m, 1) == pytest.approx(math.exp(-theta * (t(r) - t(1))), rel=1e-12)


@pytest.mark.parametrize("family, bad", [
    ("zeta", -0.5), ("zeta", math.nan), ("zeta", math.inf),
    ("geometric", 0.0), ("geometric", 1.0), ("geometric", -0.1), ("geometric", math.nan),
])
def test_an_out_of_domain_scalar_raises_its_family_text_everywhere(family, bad):
    kind = ModelKind.ZETA1 if family == "zeta" else ModelKind.GEOMETRIC1
    text = kind.family.domain
    calls = [lambda: ModelParams(kind, R=24, N=24, **{kind.family.scalar_name: bad})]
    calls += ([lambda: harmonic(bad, 24)] if family == "zeta" else
              [lambda: geom_norm(bad, 24), lambda: to_exponential_form(bad, 0.5)])
    for call in calls:
        with pytest.raises(ValueError) as caught:
            call()
        assert str(caught.value) in (text, f"{text}, got {bad!r}")


def test_model_params_validation():
    with pytest.raises(ValueError):
        geometric2(0.5, 25)  # R > N
    with pytest.raises(ValueError):
        geometric2(1.0, 10)  # q outside (0,1)
    with pytest.raises(ValueError):
        zeta2(-0.5, 10)  # negative alpha
    with pytest.raises(ValueError):
        ModelParams(kind=ModelKind.GEOMETRIC1, R=10, N=24, q=0.5)  # R != N
    with pytest.raises(ValueError):
        ModelParams(kind=ModelKind.ZETA2, R=5, N=24, alpha=1.0, q=0.5)
    with pytest.raises(ValueError, match="geometric kinds take q, not alpha"):
        ModelParams(kind=ModelKind.GEOMETRIC2, R=5, N=24, alpha=1.0, q=0.5)
    for N in (0, 24.0, True):
        with pytest.raises(ValueError, match="N must be a positive integer"):
            ModelParams(kind=ModelKind.ZETA2, R=1, N=N, alpha=1.0)
    # as_dict would write a bool R or N as JSON true, which from_dict cannot read back
    with pytest.raises(ValueError, match="N must be a positive integer"):
        ModelParams(kind="zeta1", R=True, N=True, alpha=1.0)
    with pytest.raises(ValueError, match=r"R must satisfy 1 <= R <= N, got R=True, N=24"):
        ModelParams(kind="zeta2", R=True, N=24, alpha=1.0)


@pytest.mark.parametrize("call, named", [
    (lambda: harmonic(1.0, 0), "R must be >= 1"),
    (lambda: harmonic(-0.5, 24), "alpha must be a finite real >= 0"),
    (lambda: harmonic(math.nan, 24), "alpha must be a finite real >= 0"),
    (lambda: harmonic(math.inf, 24), "alpha must be a finite real >= 0"),
    (lambda: geom_norm(0.0, 24), "q must lie in"),
    (lambda: geom_norm(1.0, 24), "q must lie in"),
    (lambda: geom_norm(0.5, 0), "R must be >= 1"),
    (lambda: harmonic(1.0, 2.5), "R must be >= 1 and an int, got 2.5"),
    (lambda: geom_norm(0.5, 2.5), "R must be >= 1 and an int, got 2.5"),
    (lambda: to_exponential_form(1.0, 0.5), "q must lie in"),
    (lambda: to_exponential_form(0.5, 0.0), "c must be positive"),
    (lambda: ExponentialForm(c_prime=0.0, beta=1.0), "c_prime and beta must be positive"),
    (lambda: ExponentialForm(c_prime=1.0, beta=-1.0), "c_prime and beta must be positive"),
], ids=["harmonic-R0", "harmonic-negative", "harmonic-nan", "harmonic-inf", "geom_norm-q0",
        "geom_norm-q1", "geom_norm-R0", "harmonic-R-not-whole", "geom_norm-R-not-whole",
        "exp-form-q1", "exp-form-c0", "exp-form-c_prime0", "exp-form-beta-negative"])
def test_normalizers_and_exponential_form_reject_bad_arguments(call, named):
    with pytest.raises(ValueError, match=named):
        call()


def test_model_params_json_round_trip():
    for m in (zeta1(1.2), zeta2(0.7, 11), geometric1(0.3), geometric2(0.9, 2)):
        assert ModelParams.from_dict(m.as_dict()) == m
        assert m.as_dict()["kind"] == m.kind.value


def test_model_params_from_dict_takes_whole_numbers_only():
    d = {"kind": "zeta2", "R": 10.0, "N": 24.0, "alpha": 1.5}
    assert ModelParams.from_dict(d) == zeta2(1.5, 10)
    for key, value in (("R", 10.7), ("N", 24.9), ("R", "10"), ("N", math.inf), ("R", True)):
        with pytest.raises(ValueError):
            ModelParams.from_dict({**d, key: value})


def test_model_params_from_dict_names_N_before_R():
    # R defaults to N where the model comes from flags, so a bad N must be named as N
    d = {"kind": "zeta1", "R": 0, "N": 0, "alpha": 1.0}
    with pytest.raises(ValueError, match=r"^N must be a whole number from 1 to \d+, got 0$"):
        ModelParams.from_dict(d)


@pytest.mark.parametrize("kind, scalar", [("zeta1", {"alpha": True}), ("zeta2", {"alpha": False}),
                                          ("geometric1", {"q": True}),
                                          ("geometric2", {"q": False})])
def test_model_params_reject_a_boolean_scalar(kind, scalar):
    # a JSON true or false would otherwise pass as the number 1 or 0
    with pytest.raises(ValueError, match=next(iter(scalar))):
        ModelParams(kind=kind, R=24, N=24, **scalar)


def test_harmonic_rejects_more_than_a_million_ranks_before_summing():
    # alpha = 1e6 would take the 1.0 short-cut at any R; the limit comes first
    for alpha, R in ((1.0, 10 ** 6 + 1), (0.0, 10 ** 9), (1e6, 10 ** 9)):
        with pytest.raises(ValueError, match=f"at most 1000000 ranks, got R={R}$"):
            harmonic(alpha, R)
    # the limit itself still sums: H(1, n) = log n + gamma + 1/(2n) - 1/(12n**2) + ...
    n = 10 ** 6
    euler_gamma = 0.5772156649015329
    assert harmonic(1.0, n) == pytest.approx(math.log(n) + euler_gamma + 0.5 / n, rel=1e-13)


def test_scalar_property():
    assert zeta2(1.5, 4).scalar == 1.5
    assert geometric1(0.25).scalar == 0.25


@pytest.mark.parametrize("beta", [_GEOMETRIC.theta(Q_INTERVAL[0]), 1e-7, 1e-6, 1e-3, 1.0,
                                  _GEOMETRIC.theta(Q_INTERVAL[1])])
@pytest.mark.parametrize("R", [2, 3, 24, 499, 501, 1304, 99999, 145431, 539574, 10 ** 6])
def test_geometric_mean_rank_matches_the_fsum_sums(beta, R):
    # R = 145431 is past beta R = 1e-4 at q = 1e-9, where the closed form is 2.4e-12 off;
    # at beta = 1e-6, R = 499 and 501 sit on either side of the series' switch at beta R = 5e-4
    w = np.exp(-beta * np.arange(R))
    ranks = np.arange(1.0, R + 1)
    direct = math.fsum(w * ranks) / math.fsum(w)
    mean, var = _geometric_moments(beta, R)
    assert mean == pytest.approx(direct, rel=1e-12, abs=0)
    # the closed-form variance cancels to about 50 eps / (beta R)**2 above the switch (1.5e-8
    # at beta R = 5.4e-4); it only scales Newton's steps, whose root E = tbar the mean decides
    assert var == pytest.approx(math.fsum(w * (ranks - direct) ** 2) / math.fsum(w), rel=1e-7, abs=0)


def zeta_moments_by_fsum(alpha, R, k):
    """E and Var of log r on 1..R under the weights (r / k)**-alpha, r**-alpha scaled by k**alpha
    so that ranks up to about 2k stay clear of underflow."""
    logs = [math.log(r) for r in range(1, R + 1)]
    weights = [(r / k) ** -alpha for r in range(1, R + 1)]
    Z = math.fsum(weights)
    E = math.fsum(w * t for w, t in zip(weights, logs)) / Z
    return E, math.fsum(w * (t - E) ** 2 for w, t in zip(weights, logs)) / Z


@pytest.mark.parametrize("alpha", [1e-3, 0.5, 1.0, 2.5, 7.0])
@pytest.mark.parametrize("R", [2, 24, 200])
def test_zeta_moments_are_the_derivatives_of_log_harmonic(alpha, R):
    # E = -d log H / d alpha and Var = d^2 log H / d alpha^2, by central differences
    h = 1e-4
    below, at, above = (math.log(harmonic(alpha + k * h, R)) for k in (-1, 0, 1))
    E, var = _zeta_moments(alpha, R)
    assert E == pytest.approx((below - above) / (2 * h), rel=1e-8)
    assert var == pytest.approx((below - 2 * at + above) / h ** 2, rel=1e-5)
    assert (E, var) == pytest.approx(zeta_moments_by_fsum(alpha, R, 1), rel=1e-14)


@pytest.mark.parametrize("alpha, R", [(300.0, 24), (300.0, 200), (1000.0, 200), (1100.0, 24)])
def test_zeta_moments_where_the_weights_underflow(alpha, R):
    # r**-alpha is 0.0 from rank 12 on at alpha = 300 and from rank 2 on at alpha = 1100
    if alpha > 1075:
        assert _zeta_moments(alpha, R) == (0.0, 0.0)  # the exact moments are below 1e-323
    else:
        assert _zeta_moments(alpha, R) == pytest.approx(zeta_moments_by_fsum(alpha, R, 2),
                                                        rel=1e-13, abs=0)

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rankfit.selection

from rankfit import (
    DEFAULT_ENSEMBLE,
    ModelKind,
    RankHistogram,
    aicc,
    aicc_evidence_ratio,
    bic,
    bic_evidence_ratio,
    cross_apply,
    evidence_ratio,
    fit,
    geometric1,
    log_likelihood,
    sample,
    select,
    summarize,
    weights,
)
from rankfit.histogram import _summary
from rankfit.selection import (SelectionRow, SelectionTable, best_params_dict, best_params_tsv,
                               selection_table_dict, selection_table_tsv)

from _oracles import random_histogram


# -------------------------------------------------------------------- scores

def test_aicc_examples():
    assert aicc(-10.0, 1, 15.0) == pytest.approx(20 + 30 / 13, abs=1e-12)
    assert aicc(0.0, 2, 103.0) == pytest.approx(4.12, abs=1e-12)
    # large-sample limit approaches plain AIC
    assert aicc(-10.0, 2, 1e12) == pytest.approx(20 + 4, rel=1e-9)


def test_aicc_rejects_tiny_samples():
    with pytest.raises(ValueError):
        aicc(-1.0, 2, 3.0)
    with pytest.raises(ValueError):
        aicc(-1.0, 1, 2.0)
    for score in (aicc, bic):
        with pytest.raises(ValueError, match="K must be >= 1"):
            score(-1.0, 0, 100.0)


def test_bic_examples():
    assert bic(-10.0, 1, 15.0) == pytest.approx(20 + math.log(15), abs=1e-12)
    assert bic(-10.0, 2, 15.0) == pytest.approx(20 + 2 * math.log(15), abs=1e-12)
    assert bic(-5.0, 2, 15.0) - bic(-5.0, 1, 15.0) == pytest.approx(math.log(15), abs=1e-12)
    with pytest.raises(ValueError):
        bic(-1.0, 1, 1.0)


def test_weights_examples():
    w = weights([0.0, 2.0])
    assert w[0] == pytest.approx(1 / (1 + math.exp(-1)), abs=1e-12)
    assert w[1] == pytest.approx(math.exp(-1) / (1 + math.exp(-1)), abs=1e-12)
    assert weights([7.0, 7.0, 7.0]) == pytest.approx([1 / 3] * 3, abs=1e-15)
    w_inf = weights([1.0, math.inf, 3.0])
    assert w_inf[1] == 0.0
    assert math.fsum(w_inf) == pytest.approx(1.0, abs=1e-12)


def test_weights_rejections():
    with pytest.raises(ValueError):
        weights([])
    with pytest.raises(ValueError):
        weights([math.inf, math.inf])
    with pytest.raises(ValueError):
        weights([1.0, -math.inf])
    with pytest.raises(ValueError):
        weights([float("nan")])


def test_weights_sum_to_one_and_stay_in_unit_interval():
    rng = np.random.default_rng(5)
    for _ in range(20):
        scores = list(rng.normal(100, 40, size=rng.integers(2, 8)))
        w = weights(scores)
        assert abs(math.fsum(w) - 1.0) <= 1e-12
        assert all(0.0 <= x <= 1.0 for x in w)
        assert int(np.argmin(scores)) == int(np.argmax(w))


def test_evidence_ratio_basics():
    assert evidence_ratio(0.4, 0.4) == 1.0
    with pytest.warns(UserWarning):
        assert evidence_ratio(0.2, 0.0) == math.inf


def test_bic_evidence_closed_form_sqrt_f0():
    # equal likelihoods, one extra parameter, F0=36: ratio is exactly 6
    assert bic_evidence_ratio(-8.0, 1, -8.0, 2, 36.0) == 6.0


def test_evidence_ratios_saturate_to_inf_past_the_double_range():
    # exp(1000) overflows; the ratio is +inf, not an OverflowError
    assert aicc_evidence_ratio(0.0, 1, -1000.0, 1, 100.0) == math.inf
    assert bic_evidence_ratio(0.0, 1, -1000.0, 1, 100.0) == math.inf


def test_evidence_ratio_paths_agree():
    # comparison restricted to pairs whose weights sit in the normal float
    # range; below ~1e-290 the weight path has no digits left to compare
    floor = 1e-290
    rng = np.random.default_rng(31)
    compared = 0
    for _ in range(25):
        h = random_histogram(rng, max_freq=500)
        table = select(h)
        rows = [r for r in table.rows if r.error is None]
        for ri in rows:
            for rj in rows:
                if min(ri.w_bic, rj.w_bic) > floor:
                    direct = evidence_ratio(ri.w_bic, rj.w_bic)
                    closed = bic_evidence_ratio(ri.loglik, ri.kind.n_params,
                                                rj.loglik, rj.kind.n_params, table.F0)
                    assert direct == pytest.approx(closed, rel=1e-9)
                    compared += 1
                if min(ri.w_aicc, rj.w_aicc) > floor:
                    direct = evidence_ratio(ri.w_aicc, rj.w_aicc)
                    closed = aicc_evidence_ratio(ri.loglik, ri.kind.n_params,
                                                 rj.loglik, rj.kind.n_params, table.F0)
                    assert direct == pytest.approx(closed, rel=1e-9)
                    compared += 1
    assert compared >= 100


def test_bic_penalty_dominates_plain_aic_penalty():
    # K log F0 > 2K once F0 exceeds e^2
    for F0 in (7.5, 10.0, 100.0, 1e6):
        for K in (1, 2, 3):
            assert K * math.log(F0) > 2 * K


# -------------------------------------------------------------------- select

def test_select_table_structure_and_invariants():
    h = RankHistogram.from_frequencies([55, 34, 21, 13, 8, 5, 3, 2, 1])
    table = select(h)
    assert [r.kind for r in table.rows] == list(
        (ModelKind.ZETA1, ModelKind.ZETA2, ModelKind.GEOMETRIC1, ModelKind.GEOMETRIC2))
    assert min(r.delta_aicc for r in table.rows) == 0.0
    assert min(r.delta_bic for r in table.rows) == 0.0
    assert abs(math.fsum(r.w_aicc for r in table.rows) - 1.0) <= 1e-12
    assert abs(math.fsum(r.w_bic for r in table.rows) - 1.0) <= 1e-12
    assert all(0.0 <= r.w_aicc <= 1.0 for r in table.rows)
    # argmin of scores equals argmax of weights
    best_a = min(table.rows, key=lambda r: r.aicc)
    assert max(table.rows, key=lambda r: r.w_aicc).kind == best_a.kind
    assert table.best_by_aicc == best_a.kind


@pytest.mark.parametrize("N", [24, 200])
def test_select_takes_summary_stats_in_place_of_the_histogram(N):
    rng = np.random.default_rng(31)
    hists = [random_histogram(rng, r_max_lo=1, r_max_hi=N, max_freq=int(rng.integers(1, 60)))
             for _ in range(20)]
    hists.append(RankHistogram.from_frequencies([2, 1]))  # AICc error rows
    for h in hists:
        assert select(summarize(h), N=N) == select(h, N=N)


def test_select_prefers_geometric_on_geometric_data():
    h = sample(geometric1(0.4, 24), 1000, seed=2)
    table = select(h)
    geo_aicc = [r.aicc for r in table.rows if r.kind.is_geometric]
    zet_aicc = [r.aicc for r in table.rows if r.kind.is_zeta]
    assert max(geo_aicc) < min(zet_aicc)
    geo_bic = [r.bic for r in table.rows if r.kind.is_geometric]
    zet_bic = [r.bic for r in table.rows if r.kind.is_zeta]
    assert max(geo_bic) < min(zet_bic)


@pytest.mark.parametrize("ensemble", [("zeta2", "zeta2", "geometric2"),
                                      (ModelKind.GEOMETRIC1, "geometric1"), ()],
                         ids=["names", "kind-and-name", "empty"])
def test_select_rejects_a_kind_listed_twice_or_no_kind(ensemble):
    # a repeated kind would count twice in the weight normalization
    h = RankHistogram.from_frequencies([30, 20, 14, 9, 7, 5, 4, 3, 2, 2, 1, 1])
    listed = [ModelKind(k).value for k in ensemble]
    with pytest.raises(ValueError) as exc:
        select(h, ensemble=ensemble)
    assert str(exc.value) == f"ensemble must list one or more kinds, each once, got {listed}"


@pytest.mark.parametrize("N", [0, -3, 2.5, math.inf, math.nan, True, "24"])
def test_select_checks_N_before_fitting_any_row(N):
    h = RankHistogram.from_frequencies([9, 3, 1])
    with pytest.raises(ValueError, match=r"^N must be a whole number from 1 to \d+, got "):
        select(h, N=N)


def test_select_annotates_unscorable_rows():
    # F0 = 3 leaves AICc undefined for the 2-parameter kinds (F0 <= K+1)
    h = RankHistogram.from_frequencies([2, 1])
    table = select(h)
    two_param = [r for r in table.rows if r.kind.n_params == 2]
    one_param = [r for r in table.rows if r.kind.n_params == 1]
    assert all(r.error is not None and r.w_aicc is None for r in two_param)
    assert abs(math.fsum(r.w_aicc for r in one_param) - 1.0) <= 1e-12
    assert table.best_by_aicc in {r.kind for r in one_param}


def test_select_restricted_ensemble():
    h = RankHistogram.from_frequencies([10, 6, 3, 1])
    table = select(h, ensemble=(ModelKind.ZETA1, ModelKind.ZETA2))
    assert len(table.rows) == 2
    assert {r.kind for r in table.rows} == {ModelKind.ZETA1, ModelKind.ZETA2}
    with pytest.raises(KeyError, match="geometric1"):
        table.row("geometric1")


@pytest.mark.parametrize("names, kinds", [
    ("zeta1", (ModelKind.ZETA1,)),
    ("geometric1, zeta2", (ModelKind.GEOMETRIC1, ModelKind.ZETA2)),
], ids=["one-name", "two-names"])
def test_select_reads_a_string_ensemble_as_comma_separated_names(names, kinds):
    h = RankHistogram.from_frequencies([10, 6, 3, 1])
    assert select(h, ensemble=names) == select(h, ensemble=kinds)


def test_select_reads_another_ensemble_value_as_one_kind():
    h = RankHistogram.from_frequencies([10, 6, 3, 1])
    with pytest.raises(ValueError, match=r"^ensemble: unknown model kind 5; valid kinds: "):
        select(h, ensemble=5)


def test_select_tie_breaks_toward_fewer_parameters():
    # a full-support histogram makes the 2-parameter fits equal the
    # 1-parameter ones (R = r_max = N), so BIC ties break to K=1
    h = RankHistogram.from_frequencies(list(range(24, 0, -1)))
    table = select(h, N=24)
    assert table.row(ModelKind.GEOMETRIC2).loglik == pytest.approx(
        table.row(ModelKind.GEOMETRIC1).loglik, abs=1e-6)
    assert table.best_by_bic.n_params == 1


# On ranks {1, 2} every pmf is both a truncated zeta and a truncated geometric, so the fits at
# R = 2 are one model wherever both scalars reach the data's pmf. fit cannot tie them: each
# kind's log-likelihood is read at its own scalar, 1-2 ulps apart on [5, 5] and golden
# histogram 52. select scores fits that agree to 1e-12 relative from one, the larger; past
# p1/p2 = 1e9 geometric2 stops at q = 1 - 1e-9 and keeps its own, lower log-likelihood
# (each pair sums to F0 >= 4, so the 2-parameter rows are scorable).
@given(st.lists(st.one_of(st.integers(2, 2000).map(float), st.floats(2.0, 1e12)),
                min_size=2, max_size=2))
@example([5.0, 5.0])
@example([7.0, 2.0])
@example([1848.0, 296.0])  # golden histograms 52 and 78
@example([820.0, 607.0])
@example([1e12, 2.0])
@example([1e100, 1.0])
@settings(max_examples=200, deadline=None)
def test_zeta2_and_geometric2_score_one_log_likelihood_at_two_ranks(freqs):
    hist = RankHistogram.from_frequencies(sorted(freqs, reverse=True))
    s = summarize(hist)
    own = {kind: log_likelihood(fit(kind, s).params, s) for kind in ("zeta2", "geometric2")}
    top = max(own.values())
    for ensemble in (None, ("zeta2", "geometric2")):
        table = select(hist, ensemble=ensemble)
        for kind, loglik in own.items():
            shared = abs(loglik - top) <= 1e-12 * abs(loglik)
            assert repr(table.row(kind).loglik) == repr(top if shared else loglik)
    assert table.best_by_aicc == table.best_by_bic
    if table.row("zeta2").loglik == table.row("geometric2").loglik:
        assert table.best_by_aicc == ModelKind.GEOMETRIC2  # the name rule


@pytest.mark.parametrize("freqs", [[1e12, 2.0], [1e100, 1.0]])
def test_zeta2_wins_at_two_ranks_past_the_geometric_interval_end(freqs):
    # p1/p2 > 1e9 lies past q = 1 - 1e-9: geometric2 is an end fit far below zeta2's maximum,
    # so it keeps its own log-likelihood and zeta2 is best under both criteria
    hist = RankHistogram.from_frequencies(freqs)
    table = select(hist, ensemble=("zeta2", "geometric2"))
    geometric2 = table.row("geometric2")
    assert geometric2.fit.warnings[0].startswith("boundary: optimum at the end q=0.999999999")
    assert geometric2.loglik == log_likelihood(geometric2.fit.params, summarize(hist))
    assert geometric2.loglik < table.row("zeta2").loglik - 900
    assert table.best_by_aicc == table.best_by_bic == ModelKind.ZETA2


# --------------------------------------------------------------- cross_apply

def _reference_select(s, N, kinds):
    """select as one fit per kind scored with aicc and bic, the scored fits at R = 2 whose
    log-likelihoods lie within 1e-12 relative of the largest (one model) by that largest, as
    (table, (best by AICc, best by BIC)); None where select raises."""
    rows = []
    for kind in kinds:
        try:
            fr = fit(kind, s, N)
            aicc(fr.loglik, fr.n_params, s.F0)  # raises where the row cannot be scored
            rows.append(SelectionRow(kind=kind, fit=fr))
        except ValueError as exc:
            rows.append(SelectionRow(kind=kind, error=str(exc)))
    two = max((r.loglik for r in rows if r.fit and r.fit.params.R == 2), default=None)
    rows = [replace(r, fit=replace(r.fit, loglik=two))
            if r.fit and r.fit.params.R == 2 and abs(r.loglik - two) <= 1e-12 * abs(r.loglik)
            else r for r in rows]
    rows = [r if r.fit is None else replace(r, aicc=aicc(r.loglik, r.fit.n_params, s.F0),
                                            bic=bic(r.loglik, r.fit.n_params, s.F0))
            for r in rows]
    scored = [r for r in rows if r.error is None]
    if not scored:
        return None
    w_a = iter(weights([r.aicc for r in scored]))
    w_b = iter(weights([r.bic for r in scored]))
    min_a, min_b = min(r.aicc for r in scored), min(r.bic for r in scored)
    rows = [replace(r, delta_aicc=r.aicc - min_a, w_aicc=next(w_a),
                    delta_bic=r.bic - min_b, w_bic=next(w_b)) if r.error is None else r
            for r in rows]
    best = [min((r for r in rows if r.error is None),
                key=lambda r: (getattr(r, score), r.kind.n_params, r.kind.value)).kind
            for score in ("aicc", "bic")]
    return SelectionTable(rows=tuple(rows), F0=s.F0), tuple(best)


def _edge_case_stats(rng, case, N):
    """Random non-increasing frequencies for one edge case of select."""
    r_max = {"F0<=1": int(rng.integers(1, N + 1)), "1<F0<=3": int(rng.integers(1, N + 1)),
             "r_max=N": N, "r_max=1": 1, "r_max>N": N + 1}[case]
    freqs = np.sort(rng.uniform(0.05, 1.0, size=r_max))[::-1]
    if case == "F0<=1":
        freqs *= rng.uniform(0.2, 1.0) / freqs.sum()
    elif case == "1<F0<=3":
        freqs *= rng.uniform(1.05, 3.0) / freqs.sum()
    else:
        freqs = np.round(freqs * rng.uniform(2.0, 400.0)) + 1.0
    return _summary(sorted(freqs.tolist(), reverse=True))


EDGE_CASES = {
    "F0<=1": lambda s, N: s.F0 <= 1,
    "1<F0<=3": lambda s, N: 1 < s.F0 <= 3,
    "r_max=N": lambda s, N: s.r_max == N,
    "r_max=1": lambda s, N: s.r_max == 1,
    "r_max>N": lambda s, N: s.r_max > N,
}
SHARED_ORDER = (ModelKind.GEOMETRIC2, ModelKind.ZETA2, ModelKind.GEOMETRIC1,
                ModelKind.ZETA1)  # 2-parameter kinds fit first


@pytest.mark.parametrize("freqs, N, reasons", [
    ([9, 5, 3, 1], 3, "dataset attests r_max=4 ranks, beyond the domain ceiling N=3"),
    ([2], 24, "AICc needs F0 > K + 1 (got F0=2.0, K=1); AICc needs F0 > K + 1 (got F0=2.0, K=2)"),
])
def test_select_names_why_no_row_could_be_scored(freqs, N, reasons):
    # the rows' distinct errors, in ensemble order
    with pytest.raises(ValueError) as caught:
        select(RankHistogram.from_frequencies(freqs), N=N)
    assert str(caught.value) == f"no ensemble member could be fitted and scored: {reasons}"


@pytest.mark.parametrize("case", EDGE_CASES)
def test_select_equals_one_fit_per_kind_scored_by_aicc_and_bic(case):
    rng = np.random.default_rng(404)
    tables = 0
    for _ in range(12):
        N = int(rng.choice([2, 3, 5, 24, 200]))
        s = _edge_case_stats(rng, case, N)
        assert EDGE_CASES[case](s, N)
        for kinds in (DEFAULT_ENSEMBLE, SHARED_ORDER):
            ref = _reference_select(s, N, kinds)
            if ref is None:
                with pytest.raises(ValueError, match="no ensemble member"):
                    select(s, N=N, ensemble=kinds)
                continue
            table = select(s, N=N, ensemble=kinds)
            tables += 1
            ref, best = ref
            assert table == ref
            assert (table.best_by_aicc, table.best_by_bic) == best
            assert [r.error for r in table.rows] == [r.error for r in ref.rows]
            assert [r.fit and r.fit.as_dict() for r in table.rows] == \
                [r.fit and r.fit.as_dict() for r in ref.rows]
            assert selection_table_dict(table) == selection_table_dict(ref)
            assert selection_table_tsv(table) == selection_table_tsv(ref)
            assert best_params_dict(table) == best_params_dict(ref)
    assert (tables == 0) == (case in ("F0<=1", "r_max>N"))


@pytest.mark.parametrize("freqs, N, fits", [
    ([float(r) for r in range(24, 0, -1)], 24, 2),  # r_max = N: one fit per family
    ([9.0, 5.0, 2.0], 3, 2),                         # r_max = N below the default ceiling
    ([2.0, 1.0], 24, 2),                             # F0 = 3: no 2-parameter row is scorable
    ([1.5, 1.0, 0.5], 24, 2),                        # F0 = 3 with r_max = 3
    ([9.0, 5.0, 2.0, 1.0], 24, 4),                   # four distinct (family, R) pairs
])
def test_select_fits_each_scorable_family_and_R_once_per_call(freqs, N, fits, monkeypatch):
    calls = []
    monkeypatch.setattr(rankfit.selection, "fit", lambda *a: calls.append(a) or fit(*a))
    s = summarize(RankHistogram.from_frequencies(freqs))
    for _ in range(2):  # nothing is kept from one call to the next
        calls.clear()
        select(s, N=N)
        assert len(calls) == fits


def test_cross_apply_zero_likelihood_on_wider_dataset():
    h17 = RankHistogram.from_frequencies(list(range(17, 0, -1)))
    h18 = RankHistogram.from_frequencies(list(range(18, 0, -1)))
    g2 = fit(ModelKind.GEOMETRIC2, h17, N=24)
    assert g2.params.R == 17
    assert cross_apply(g2, h18) == -math.inf
    g1 = fit(ModelKind.GEOMETRIC1, h17, N=24)
    assert math.isfinite(cross_apply(g1, h18))


def test_cross_apply_self_consistency():
    h = RankHistogram.from_frequencies([40, 25, 12, 5, 2])
    for kind in ModelKind:
        result = fit(kind, h)
        assert cross_apply(result, h) == pytest.approx(result.loglik, abs=1e-12)


# ----------------------------------------------------------------- emissions

def test_selection_table_tsv_schema():
    h = RankHistogram.from_frequencies([13, 8, 5, 3, 2, 1])
    table = select(h)
    text = selection_table_tsv(table)
    lines = text.strip().split("\n")
    assert lines[0].split("\t") == ["model", "loglik", "AICc", "delta_AICc",
                                    "w_AICc", "BIC", "delta_BIC", "w_BIC"]
    assert len(lines) == 5
    # numeric cells parse back
    cells = lines[1].split("\t")
    assert cells[0] == "zeta1"
    float(cells[1])

    params_text = best_params_tsv(table)
    assert params_text.splitlines()[0].split("\t") == ["model", "R", "alpha", "q"]

    d = selection_table_dict(table)
    assert d["best_by_AICc"] in [k.value for k in ModelKind]
    assert len(d["rows"]) == 4
    pd = best_params_dict(table)
    assert {row["model"] for row in pd["rows"]} == {k.value for k in ModelKind}

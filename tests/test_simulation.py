import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2

import rankfit.models
import rankfit.simulation
from rankfit import (
    ModelKind,
    ModelParams,
    SimulationConfig,
    geometric1,
    geometric2,
    pmf,
    recovery_experiment,
    sample,
    sample_counts,
    select,
    undersampling_probability,
    zeta1,
    zeta2,
)

from _oracles import prob_all_attested


def test_sample_degenerate_support():
    h = sample(geometric2(0.5, 1), 10, seed=0)
    assert h.entries == ((1, 10.0),)


def test_sample_single_draw():
    h = sample(geometric1(0.5, 24), 1, seed=123)
    assert h.r_max == 1
    assert h.frequencies == (1.0,)


def test_sample_top_rank_concentration():
    m = geometric1(0.5, 24)
    h = sample(m, 10 ** 5, seed=42)
    assert 0.5 * 0.98 <= h.frequencies[0] / 10 ** 5 <= 0.5 * 1.02


def test_sample_is_deterministic_and_valid():
    m = geometric1(0.3, 24)
    a = sample(m, 5000, seed=9)
    b = sample(m, 5000, seed=9)
    assert a == b
    assert a.warnings == b.warnings
    assert sum(a.frequencies) == 5000.0
    c = sample(m, 5000, seed=10)
    assert c != a


def test_sample_counts_match_sample():
    m = geometric1(0.3, 24)
    counts = sample_counts(m, 2000, seed=4)
    h = sample(m, 2000, seed=4)
    assert sorted(h.frequencies, reverse=True) == sorted(
        (float(c) for c in counts if c > 0), reverse=True)


def test_sample_counts_int_alpha_is_float_alpha():
    for n, seed in ((1, 0), (50, 3), (10 ** 6, 8)):
        assert (sample_counts(zeta1(2, 24), n, seed)
                == sample_counts(zeta1(2.0, 24), n, seed)).all()


def test_undersampling_builds_the_probability_vector_once(monkeypatch):
    calls = []
    for module in (rankfit.models, rankfit.simulation):
        real = module.pmf
        monkeypatch.setattr(module, "pmf",
                            lambda m, r, real=real: calls.append(r) or real(m, r))
    undersampling_probability(zeta1(1.3, 24), 300, trials=50, seed=1)
    assert len(calls) == 1


@pytest.mark.parametrize("model", [geometric1(0.2, 24), zeta2(1.0, 24)])
def test_sampler_chi_square(model):
    # fully specified pmf: df = R - 1; the 0.999 quantile should be
    # exceeded in at most ~1/1000 of runs, so 5/100 is a generous cap
    n = 10 ** 5
    expected = np.array([n * pmf(model, r) for r in range(1, model.R + 1)])
    assert expected.min() > 100  # chi-square approximation is safe
    threshold = chi2.ppf(0.999, df=model.R - 1)
    exceed = 0
    for seed in range(100):
        counts = sample_counts(model, n, seed)
        stat = float(((counts - expected) ** 2 / expected).sum())
        exceed += stat > threshold
    assert exceed <= 5


def test_sample_counts_memory_does_not_grow_with_n():
    m = geometric1(0.3, 24)
    sample_counts(m, 10, seed=1)  # the first default_rng call in a process allocates ~1 MB once
    tracemalloc.start()
    try:
        counts = sample_counts(m, 10 ** 12, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.shape == (24,)
    assert int(counts.sum()) == 10 ** 12
    assert peak < 64 * 1024


@pytest.mark.parametrize("n", [0, -3, 150.5, 0.5, math.inf, -math.inf, math.nan,
                               2 ** 63, 10 ** 20, "100", None])
def test_bad_draw_counts_are_value_errors(n):
    m = geometric1(0.4, 24)
    with pytest.raises(ValueError, match="whole number"):
        sample_counts(m, n, seed=1)
    with pytest.raises(ValueError, match="whole number"):
        SimulationConfig(seed=1, trials=5, sample_sizes=(10, n), model=m)


def test_undersampling_degenerate_cases():
    # support strictly smaller than N: always undersampled
    est = undersampling_probability(geometric2(0.5, 1, N=24), 100, trials=40, seed=0)
    assert est.estimate == 1.0
    # a single draw attests one rank
    est = undersampling_probability(geometric1(0.5, 24), 1, trials=40, seed=0)
    assert est.estimate == 1.0


def test_undersampling_matches_exact_oracle():
    m = ModelParams(kind=ModelKind.GEOMETRIC1, R=12, N=12, q=0.3)
    probs = [pmf(m, r) for r in range(1, 13)]
    exact = 1.0 - prob_all_attested(probs, 80)
    est = undersampling_probability(m, 80, trials=600, seed=11)
    assert abs(est.estimate - exact) <= est.half_width
    assert 0.0 < est.estimate < 1.0


def test_undersampling_rejects_bad_trials():
    with pytest.raises(ValueError):
        undersampling_probability(geometric1(0.5, 24), 10, trials=0, seed=1)


@pytest.mark.parametrize("trials, seed", [(2.5, 1), (4, 1.5), (4, -1), (4, 2 ** 64)])
def test_undersampling_trials_and_seed_must_be_whole(trials, seed):
    with pytest.raises(ValueError, match="must be a whole number"):
        undersampling_probability(geometric1(0.5, 24), 30, trials=trials, seed=seed)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, None])
@pytest.mark.parametrize("name", ["trials", "seed"])
def test_undersampling_non_numbers_are_value_errors(name, bad):
    settings = {"trials": 4, "seed": 1, name: bad}
    with pytest.raises(ValueError) as caught:
        undersampling_probability(geometric1(0.5, 24), 30, **settings)
    if bad is None or math.isinf(bad):  # int() raised TypeError or OverflowError; its text is kept
        assert isinstance(caught.value.__cause__, (TypeError, OverflowError))
        assert str(caught.value) == str(caught.value.__cause__)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, None])
@pytest.mark.parametrize("name", ["trials", "seed"])
def test_simulation_config_non_numbers_are_value_errors(name, bad):
    settings = {"trials": 4, "seed": 1, name: bad}
    with pytest.raises(ValueError):
        SimulationConfig(sample_sizes=(30,), model=geometric1(0.5, 24), **settings)


def test_recovery_trials_must_be_whole():
    with pytest.raises(ValueError, match="trials must be a whole number"):
        recovery_experiment(SimulationConfig(seed=1, trials=2.5, sample_sizes=(30,),
                                             model=geometric1(0.5, 24)))
    cfg = SimulationConfig(seed=1, trials=2.0, sample_sizes=(30,), model=geometric1(0.5, 24))
    assert type(cfg.trials) is int and cfg.as_dict()["trials"] == 2


@pytest.mark.parametrize("seed", [7.0, np.int64(7)])
def test_simulation_config_seed_is_stored_as_int(seed):
    cfg = SimulationConfig(seed=seed, trials=1, sample_sizes=(30,), model=geometric1(0.5, 24))
    assert cfg.seed == 7 and type(cfg.seed) is int
    with pytest.raises(ValueError, match="seed must be a whole number"):
        SimulationConfig(seed=7.5, trials=1, sample_sizes=(30,), model=geometric1(0.5, 24))


def test_simulation_config_validation():
    m = geometric1(0.4, 24)
    with pytest.raises(ValueError):
        SimulationConfig(seed=1, trials=0, sample_sizes=(10,), model=m)
    with pytest.raises(ValueError):
        SimulationConfig(seed=1, trials=5, sample_sizes=(), model=m)
    with pytest.raises(ValueError):
        SimulationConfig(seed=1, trials=5, sample_sizes=(0.5,), model=m)
    with pytest.raises(ValueError):
        SimulationConfig(seed=-3, trials=5, sample_sizes=(10,), model=m)


def test_recovery_experiment_deterministic():
    cfg = SimulationConfig(seed=21, trials=1, sample_sizes=(300,),
                           model=geometric1(0.4, 24))
    a = recovery_experiment(cfg)
    b = recovery_experiment(cfg)
    assert a == b
    assert a.as_dict() == b.as_dict()


def test_recovery_requires_true_kind_in_ensemble():
    cfg = SimulationConfig(seed=3, trials=1, sample_sizes=(50,),
                           model=geometric1(0.4, 24))
    with pytest.raises(ValueError, match="true model kind"):
        recovery_experiment(cfg, ensemble=(ModelKind.ZETA1,))


@pytest.mark.parametrize("model, size, select_raises", [
    (geometric1(0.4), 1, True),  # BIC needs F0 > 1, so no row can be scored
    (zeta2(1.0, 10), 3, False),  # AICc needs F0 > K + 1: the true kind's row has no fit
])
def test_recovery_counts_failed_trials(model, size, select_raises):
    if select_raises:
        with pytest.raises(ValueError):
            select(sample(model, size, seed=0))
    else:
        assert select(sample(model, size, seed=0)).row(model.kind).fit is None
    cfg = SimulationConfig(seed=11, trials=5, sample_sizes=(size,), model=model)
    (row,) = recovery_experiment(cfg).per_size
    assert row.failures == 5
    assert (row.median_abs_param_error, row.aicc_true_fraction, row.bic_true_fraction,
            row.undersampled_fraction) == (None, None, None, None)


def test_recovery_bic_fraction_trend():
    cfg = SimulationConfig(seed=42, trials=100, sample_sizes=(100, 1000, 5000),
                           model=geometric1(0.4, 24))
    stats = recovery_experiment(cfg)
    fracs = [s.bic_true_fraction for s in stats.per_size]
    assert all(f is not None for f in fracs)
    # consistency trend: non-decreasing within Monte Carlo noise of 0.1
    assert fracs[1] >= fracs[0] - 0.1
    assert fracs[2] >= fracs[1] - 0.1
    assert all(s.undersampled_fraction is not None for s in stats.per_size)


def test_recovery_concentrated_q_small_error():
    cfg = SimulationConfig(seed=7, trials=50, sample_sizes=(10 ** 4,),
                           model=geometric1(0.9, 24))
    stats = recovery_experiment(
        cfg, ensemble=(ModelKind.GEOMETRIC1, ModelKind.GEOMETRIC2))
    assert stats.per_size[0].median_abs_param_error <= 0.01


def test_recovery_stats_json_shape():
    cfg = SimulationConfig(seed=1, trials=2, sample_sizes=(60,),
                           model=geometric1(0.5, 24))
    d = recovery_experiment(cfg).as_dict()
    assert d["seed"] == 1
    assert d["model"]["kind"] == "geometric1"
    assert set(d["per_size"][0]) == {
        "sample_size", "trials", "failures", "median_abs_param_error",
        "aicc_true_fraction", "bic_true_fraction", "undersampled_fraction"}


def test_sample_sizes_stay_exact_ints():
    big = 2 ** 63 - 1  # float() would round it to 2**63, past the draw-count limit
    cfg = SimulationConfig(seed=1, trials=1, sample_sizes=(big, 40.0),
                           model=geometric1(0.4, 24))
    assert cfg.sample_sizes == (big, 40)
    assert all(type(s) is int for s in cfg.sample_sizes)
    d = recovery_experiment(cfg, ensemble=(ModelKind.GEOMETRIC1,)).as_dict()
    assert d["sample_sizes"] == [big, 40]
    assert [s["sample_size"] for s in d["per_size"]] == [big, 40]

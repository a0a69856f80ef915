import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2

import rankfit.selection
import rankfit.simulation
from rankfit import (
    ModelKind,
    ModelParams,
    RankHistogram,
    SimulationConfig,
    fit,
    geometric1,
    geometric2,
    pmf,
    recovery_experiment,
    sample,
    sample_counts,
    select,
    summarize,
    undersampling_probability,
    zeta1,
    zeta2,
)

from rankfit.histogram import _summary

from _oracles import prob_all_attested


def _trial_seed(seed, *spawn_key):
    """The seed of one trial's stream: numpy's substream (*key, t) of seed."""
    return np.random.SeedSequence(seed, spawn_key=spawn_key)


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
    # every pmf value goes through the family's formula p: one call per build
    # of the vector, one per rank if pmf were called rank by rank
    calls = []
    family = ModelKind.ZETA1.family
    monkeypatch.setattr(ModelKind.ZETA1, "family", family._replace(
        p=lambda alpha, H, r: calls.append(r) or family.p(alpha, H, r)))
    undersampling_probability(zeta1(1.3, 24), 300, trials=50, seed=1)
    assert len(calls) == 1 and len(calls[0]) == 24


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


def test_sample_counts_rejects_R_past_the_limit_before_allocating():
    m = geometric1(0.4, 10 ** 9)
    tracemalloc.start()
    try:
        for draw in (sample_counts, sample):
            with pytest.raises(ValueError, match=r"at most 1000000 ranks, got R=1000000000"):
                draw(m, 10, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert int(sample_counts(geometric1(0.4, 10 ** 6), 10, seed=1).sum()) == 10


@pytest.mark.parametrize("n", [0, -3, 150.5, 0.5, math.inf, -math.inf, math.nan,
                               2 ** 63, 10 ** 20, "100", None, True])
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


@pytest.mark.parametrize("trials, seed", [(2.5, 1), (4, 1.5), (4, -1), (4, 2 ** 64),
                                         (True, 1), (4, False)])
def test_undersampling_trials_and_seed_must_be_whole(trials, seed):
    with pytest.raises(ValueError, match="must be a whole number"):
        undersampling_probability(geometric1(0.5, 24), 30, trials=trials, seed=seed)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, None])
@pytest.mark.parametrize("name", ["trials", "seed"])
def test_undersampling_non_numbers_are_value_errors(name, bad):
    settings = {"trials": 4, "seed": 1, name: bad}
    with pytest.raises(ValueError, match=f"^{name} must be a whole number from"):
        undersampling_probability(geometric1(0.5, 24), 30, **settings)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, None, True, False])
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


def test_recovery_builds_no_histogram(monkeypatch):
    built = []
    post_init = RankHistogram.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(RankHistogram, "__post_init__", counting)
    cfg = SimulationConfig(seed=5, trials=3, sample_sizes=(3, 400), model=zeta2(1.0, 10))
    recovery_experiment(cfg)
    assert built == []


@pytest.mark.parametrize("N", [1, 24, 200])
def test_recovery_trial_stats_are_those_of_the_sampled_histogram(N, monkeypatch):
    built, selected = [], []
    monkeypatch.setattr(rankfit.simulation, "_summary",
                        lambda freqs: built.append(_summary(freqs)) or built[-1])
    monkeypatch.setattr(rankfit.simulation, "select",
                        lambda s, **kw: selected.append(s) or select(s, **kw))
    sizes = (1, 7, 300, 10 ** 6)
    for m in (zeta1(1.1, N), zeta2(0.9, max(1, N // 2), N),
              geometric1(0.3, N), geometric2(0.2, max(1, N - 1), N)):
        built.clear()
        selected.clear()
        recovery_experiment(SimulationConfig(seed=13, trials=3, sample_sizes=sizes, model=m))
        expected = [summarize(sample(m, n, _trial_seed(13, i, t)))
                    for i, n in enumerate(sizes) for t in range(3)]
        assert [s.as_dict() for s in built] == [s.as_dict() for s in expected]
        # select sees exactly the trials whose true kind AICc can score (F0 > K + 1)
        scorable = [s for s in built if s.F0 > m.kind.n_params + 1]
        assert 0 < len(scorable) < len(built)
        assert list(map(id, selected)) == list(map(id, scorable))


def test_recovery_skips_select_when_the_true_kind_cannot_be_scored(monkeypatch):
    # zeta2 at 3 draws: F0 = 3 <= K + 1, so AICc cannot score the true kind
    calls = []
    monkeypatch.setattr(rankfit.selection, "fit", lambda *a: calls.append(a) or fit(*a))
    cfg = SimulationConfig(seed=11, trials=5, sample_sizes=(3,), model=zeta2(1.0, 10))
    (row,) = recovery_experiment(cfg).per_size
    assert calls == []
    assert row.failures == 5


@pytest.mark.parametrize("ensemble, message", [
    ((ModelKind.ZETA1,), "ensemble must contain the true model kind"),
    ((), "ensemble must list one or more kinds, each once, got []"),
    (("geometric1", "zeta1", "geometric1"),
     "ensemble must list one or more kinds, each once, got ['geometric1', 'zeta1', 'geometric1']"),
], ids=["true-kind-missing", "empty", "kind-twice"])
def test_recovery_ensemble_lists_the_true_kind_and_each_kind_once(ensemble, message):
    with pytest.raises(ValueError) as exc:
        SimulationConfig(seed=3, trials=1, sample_sizes=(50,),
                         model=geometric1(0.4, 24), ensemble=ensemble)
    assert str(exc.value) == message


@pytest.mark.parametrize("model, names, kinds", [
    (zeta1(1.0), "zeta1", (ModelKind.ZETA1,)),
    (geometric1(0.4), "geometric1, zeta2", (ModelKind.GEOMETRIC1, ModelKind.ZETA2)),
], ids=["one-name", "two-names"])
def test_recovery_reads_a_string_ensemble_as_comma_separated_names(model, names, kinds):
    def config(ensemble):
        return SimulationConfig(seed=3, trials=1, sample_sizes=(50,), model=model,
                                ensemble=ensemble)
    assert config(names) == config(kinds)
    assert config(names).ensemble == kinds


def test_recovery_reads_another_ensemble_value_as_one_kind():
    with pytest.raises(ValueError, match=r"^ensemble: unknown model kind 5; valid kinds: "):
        SimulationConfig(seed=3, trials=1, sample_sizes=(50,), model=geometric1(0.4),
                         ensemble=5)


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
                           model=geometric1(0.9, 24),
                           ensemble=(ModelKind.GEOMETRIC1, ModelKind.GEOMETRIC2))
    stats = recovery_experiment(cfg)
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
                           model=geometric1(0.4, 24), ensemble=(ModelKind.GEOMETRIC1,))
    assert cfg.sample_sizes == (big, 40)
    assert all(type(s) is int for s in cfg.sample_sizes)
    d = recovery_experiment(cfg).as_dict()
    assert d["sample_sizes"] == [big, 40]
    assert [s["sample_size"] for s in d["per_size"]] == [big, 40]


def _recorded_counts(monkeypatch):
    drawn = []
    monkeypatch.setattr(rankfit.simulation, "sample_counts",
                        lambda m, n, s: drawn.append(sample_counts(m, n, s)) or drawn[-1])
    return drawn


def _reference_counts(m, n, trial_ids):
    # one default_rng per (seed, *key, t), on numpy's SeedSequence substream of that trial
    return [np.random.default_rng(_trial_seed(*e)).multinomial(n, m._probabilities)
            for e in trial_ids]


def test_undersampling_trial_t_draws_from_spawn_key_t(monkeypatch):
    m, n, trials, seed = zeta1(1.3, 24), 60, 4099, 2 ** 33 + 5
    drawn = _recorded_counts(monkeypatch)
    est = undersampling_probability(m, n, trials, seed)
    expected = _reference_counts(m, n, [(seed, t) for t in range(trials)])
    assert all((a == b).all() for a, b in zip(drawn, expected, strict=True))
    under = sum(int(np.count_nonzero(c)) < m.N for c in expected)
    assert est.estimate == under / trials


def _recovery_draws(m, seed, trials, sizes, monkeypatch):
    """The counts recovery_experiment draws, every trial failing fast after its draw."""
    drawn = _recorded_counts(monkeypatch)

    def skip_selection(*args, **kwargs):
        raise ValueError("selection skipped")

    monkeypatch.setattr(rankfit.simulation, "select", skip_selection)
    cfg = SimulationConfig(seed=seed, trials=trials, sample_sizes=sizes, model=m)
    assert [s.failures for s in recovery_experiment(cfg).per_size] == [trials] * len(sizes)
    return drawn


@pytest.mark.parametrize("seed, trials, sizes", [
    (99, 4098, (5,)), (99, 2049, (5, 9, 20)), (2 ** 64 - 1, 3, (5, 9))])
def test_recovery_trial_t_of_size_i_draws_from_spawn_key_i_t(seed, trials, sizes, monkeypatch):
    m = geometric1(0.4, 24)
    drawn = _recovery_draws(m, seed, trials, sizes, monkeypatch)
    expected = [c for i, n in enumerate(sizes)
                for c in _reference_counts(m, n, [(seed, i, t) for t in range(trials)])]
    assert all((a == b).all() for a, b in zip(drawn, expected, strict=True))


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
def test_the_readme_spawn_recipe_gives_the_counts_each_loop_drew(seed, monkeypatch):
    m, sizes, trials = zeta2(0.9, 5, 24), (5, 9, 40), 4
    drawn = _recovery_draws(m, seed, trials, sizes, monkeypatch)
    expected = [np.random.default_rng(s).multinomial(n, m._probabilities)
                for n, child in zip(sizes, np.random.SeedSequence(seed).spawn(len(sizes)))
                for s in child.spawn(trials)]
    assert all((a == b).all() for a, b in zip(drawn, expected, strict=True))
    drawn.clear()
    undersampling_probability(m, 30, trials, seed)
    expected = [np.random.default_rng(s).multinomial(30, m._probabilities)
                for s in np.random.SeedSequence(seed).spawn(trials)]
    assert all((a == b).all() for a, b in zip(drawn, expected, strict=True))


def test_sample_counts_passes_a_seed_sequence_to_default_rng_unchanged():
    m, ss = geometric2(0.2, 3, 50), np.random.SeedSequence(5, spawn_key=(2, 7))
    expected = np.random.default_rng(ss).multinomial(1000, m._probabilities)
    assert (sample_counts(m, 1000, ss) == expected).all()


# seeds where numpy's SeedSequence entropy gains a 32-bit word, and both ends of the range
_EDGE_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]


def _run_trials(seed, trials, sizes, monkeypatch):
    """The seeds and counts one loop hands sample_counts: undersampling_probability at
    n=30 when sizes is None, else recovery_experiment with every selection skipped."""
    m, handed, drawn = geometric1(0.4, 24), [], []

    def record(m, n, s):
        handed.append(s)
        drawn.append(sample_counts(m, n, s))
        return drawn[-1]

    def skip_selection(*args, **kwargs):
        raise ValueError("selection skipped")

    monkeypatch.setattr(rankfit.simulation, "sample_counts", record)
    monkeypatch.setattr(rankfit.simulation, "select", skip_selection)
    if sizes is None:
        undersampling_probability(m, 30, trials, seed)
    else:
        recovery_experiment(SimulationConfig(seed=seed, trials=trials, sample_sizes=sizes, model=m))
    return m, handed, drawn


@pytest.mark.parametrize("seed", _EDGE_SEEDS)
@pytest.mark.parametrize("trials, sizes", [
    (1, None), (4, None), (1, (5,)), (4, (5,)), (2, (5, 9, 20)), (3, (9, 5))])
def test_each_trial_hands_numpy_the_seed_and_its_own_spawn_key(seed, trials, sizes, monkeypatch):
    _, handed, _ = _run_trials(seed, trials, sizes, monkeypatch)
    keys = [()] if sizes is None else [(i,) for i in range(len(sizes))]
    assert all(type(s) is np.random.SeedSequence for s in handed)
    # the seed reaches numpy whole, and no trial's stream hangs on a shared parent's spawn count
    assert [(s.entropy, s.spawn_key, s.n_children_spawned) for s in handed] == [
        (seed, (*key, t), 0) for key in keys for t in range(trials)]


@pytest.mark.parametrize("seed", _EDGE_SEEDS)
@pytest.mark.parametrize("i, t", [(0, 0), (0, 3), (1, 2), (2, 0), (2, 3)])
def test_recovery_trial_t_of_size_i_reproduces_alone_from_numpy(seed, i, t, monkeypatch):
    sizes = (5, 9, 20)
    m, _, drawn = _run_trials(seed, 4, sizes, monkeypatch)
    # spawn only as far as (i, t): no other trial is drawn or counted
    alone = np.random.SeedSequence(seed).spawn(i + 1)[i].spawn(t + 1)[t]
    expected = np.random.default_rng(alone).multinomial(sizes[i], m._probabilities)
    assert (drawn[i * 4 + t] == expected).all()


@pytest.mark.parametrize("seed", _EDGE_SEEDS)
@pytest.mark.parametrize("t", [0, 2, 5])
def test_undersampling_trial_t_reproduces_alone_from_numpy(seed, t, monkeypatch):
    m, _, drawn = _run_trials(seed, 6, None, monkeypatch)
    alone = np.random.SeedSequence(seed).spawn(t + 1)[t]
    assert (drawn[t] == np.random.default_rng(alone).multinomial(30, m._probabilities)).all()


@pytest.mark.parametrize("seed", _EDGE_SEEDS)
@pytest.mark.parametrize("short, long", [((3, None), (7, None)), ((3, (5, 9)), (6, (5, 9, 20)))])
def test_a_trials_draw_does_not_depend_on_the_trial_count_or_later_sizes(seed, short, long,
                                                                          monkeypatch):
    _, _, few = _run_trials(seed, *short, monkeypatch)
    _, _, many = _run_trials(seed, *long, monkeypatch)
    (t_few, sizes), t_many = short, long[0]
    for i in range(1 if sizes is None else len(sizes)):
        prefix = many[i * t_many:i * t_many + t_few]
        assert all((a == b).all() for a, b in zip(few[i * t_few:(i + 1) * t_few], prefix,
                                                  strict=True))

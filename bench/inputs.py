"""Seeded inputs for the four benchmark workloads.

Everything here depends on numpy only, never on rankfit, so the inputs
and the reference values in ``checks.py`` stay independent of the code
under test. The same ``seed`` always gives the same inputs.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np

# The canonical example shipped with the repository; part of corpus_select.
DEMO_DATASET = "data/demo_synthetic.tsv"

# corpus_select: datasets drawn from a model, per domain ceiling N. Two
# thirds of the corpus is N=24, so the median op is a N=24 dataset and the
# 90th percentile a N=200 one, whatever the seed.
MODEL_DATASETS = {24: 20, 200: 8}

# corpus_select: all-equal frequencies, fixed across seeds. The MLE sits on
# the boundary (alpha=0, q->0). The N=200 pairs also reproduce a defect of
# diagnostics.slope_fit: when the mean of equal values rounds, it reports
# r2 = 0 instead of the documented 1 for a flat series.
UNIFORM_DATASETS = {24: ((24, 7), (16, 2.5)), 200: ((41, 31), (137, 6.54))}

# recovery_sweep: sample sizes per recovery_experiment call. 3 draws make
# AICc undefined for the 2-parameter kinds (F0 <= K + 1), so trials of a
# 2-parameter true kind fail there; 10**6 draws load the O(n) sampler.
RECOVERY_SIZES = (3, 40, 2000, 1_000_000)
RECOVERY_TRIALS = 1
RECOVERY_CALLS_PER_KIND = 3

# undersampling_grid cells: (kind, scalar, N, draws per trial, trials).
# Mid-range cells (N=24, probability 0.3-0.7) are checked against exact
# inclusion-exclusion; the others sit where the probability is 0 or 1 to
# within 1e-9, so any estimate other than exactly 0 or 1 is wrong.
# Small n at N=200 spends its time in the O(R^2) cumulative table (pmf,
# hence harmonic, once per rank); n >= 1e5 spends it in the O(n) draw.
UNDERSAMPLING_CELLS = (
    ("zeta1", 1.3, 24, 300, 200),
    ("zeta1", 1.0, 24, 200, 200),
    ("geometric1", 0.25, 24, 4000, 200),
    ("zeta1", 1.3, 24, 100_000, 20),
    ("geometric1", 0.25, 24, 1_000_000, 4),
    ("zeta1", 1.0, 200, 100, 20),
    ("zeta1", 1.0, 200, 1000, 20),
    ("zeta1", 1.3, 200, 300_000, 8),
    ("zeta1", 1.0, 200, 1_000_000, 4),
    ("geometric1", 0.03, 200, 100, 40),
    ("geometric1", 0.03, 200, 1_000_000, 4),
)


def model_pmf(family: str, scalar: float, R: int) -> np.ndarray:
    """pmf over ranks 1..R of a right-truncated zeta or geometric model."""
    r = np.arange(1, R + 1, dtype=float)
    if family == "zeta":
        w = r ** -scalar
    else:
        w = (1.0 - scalar) ** (r - 1.0)
    return w / w.sum()


def _stream(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def _fmt(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def _write_tsv(path: Path, freqs, rng: np.random.Generator, header: bool):
    """Write label<TAB>frequency records in shuffled order."""
    lines = ["label\tfrequency"] if header else []
    records = [(f"w{i:03d}", f) for i, f in enumerate(freqs, start=1)]
    for j in rng.permutation(len(records)):
        name, f = records[j]
        lines.append(f"{name}\t{_fmt(f)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _model_frequencies(rng, family: str, N: int, r_max: int, integer: bool):
    """Frequencies of a model-drawn dataset whose last attested rank is r_max.

    Integer data: a multinomial sample over 1..r_max plus one per rank
    (so every rank is attested and ties are common). Real data: the
    expected frequencies under multiplicative noise, rounded to three
    significant digits.
    """
    if family == "zeta":
        scalar = float(rng.uniform(0.6, 1.8))
    else:
        # keep p(r_max)/p(1) above 1e-4 so real-valued tails stay representable
        q_cap = 1.0 - 1e-4 ** (1.0 / max(r_max - 1, 1))
        q_hi = 0.5 if N <= 24 else 0.06
        scalar = float(rng.uniform(0.01, min(q_hi, q_cap)))
    p = model_pmf(family, scalar, r_max)
    if integer:
        F0 = int(np.exp(rng.uniform(np.log(30), np.log(3000))))
        return [int(c) + 1 for c in rng.multinomial(F0, p)]
    # F0 >= 5 keeps AICc defined for every row; small_f0 covers F0 <= K + 1
    F0 = float(np.exp(rng.uniform(np.log(5.0), np.log(1e4))))
    noisy = F0 * p * np.exp(rng.normal(0.0, 0.25, size=r_max))
    return [float(f"{f:.3g}") for f in noisy]


def _edge_cases(rng, N: int):
    """(role, frequencies) for the datasets that probe documented edges."""
    (n_int, v_int), (n_real, v_real) = UNIFORM_DATASETS[N]
    small = [[1.5, 1.0], [1, 1, 1], [2, 0.75], [1.2, 1.2, 0.5]][int(rng.integers(4))]
    return [
        ("uniform_int", [v_int] * n_int),
        ("uniform_real", [v_real] * n_real),
        # r_max = 1: 2-parameter scalars are unidentifiable, diagnose rejects it;
        # the zero-frequency record is dropped with a parse note
        ("single_rank", [int(rng.integers(5, 500)), 0]),
        # 2 < F0 <= 3: AICc is undefined for the 2-parameter rows
        ("small_f0", small),
    ]


def corpus_select(seed: int, work: Path) -> dict:
    rng = _stream(seed, "corpus_select")
    datasets = [{"file": DEMO_DATASET, "N": 24, "role": "demo"}]
    for N, count in MODEL_DATASETS.items():
        roles = []
        # r_max targets spread evenly over 2..N so fit cost (which grows
        # with R for the zeta kinds) does not drift with the seed
        targets = 2 + np.floor((np.arange(count) + rng.uniform(size=count)) * (N - 1) / count)
        targets = rng.permutation(np.minimum(targets.astype(int), N))
        for i, r_max in enumerate(targets):
            family = "zeta" if i % 2 == 0 else "geometric"
            integer = (i // 2) % 2 == 0
            freqs = _model_frequencies(rng, family, N, int(r_max), integer)
            roles.append((f"{family}_{'int' if integer else 'real'}", freqs))
        roles.extend(_edge_cases(rng, N))
        for role, freqs in roles:
            path = work / "corpus" / f"N{N}_{len(datasets):02d}_{role}.tsv"
            path.parent.mkdir(parents=True, exist_ok=True)
            _write_tsv(path, freqs, rng, header=bool(rng.integers(2)))
            datasets.append({"file": str(path), "N": N, "role": role})
    order = rng.permutation(len(datasets))
    return {"datasets": [datasets[i] for i in order]}


def recovery_sweep(seed: int, work: Path) -> dict:
    rng = _stream(seed, "recovery_sweep")
    calls = []
    for k in range(RECOVERY_CALLS_PER_KIND):
        for kind in ("zeta1", "zeta2", "geometric1", "geometric2"):
            N = 24
            R = int(rng.integers(14, 23)) if kind.endswith("2") else N
            if kind.startswith("zeta"):
                params = {"alpha": round(float(rng.uniform(0.8, 1.6)), 4)}
            else:
                params = {"q": round(float(rng.uniform(0.2, 0.5)), 4)}
            calls.append({"kind": kind, "R": R, "N": N, **params,
                          "sizes": list(RECOVERY_SIZES), "trials": RECOVERY_TRIALS,
                          "seed": int(rng.integers(2 ** 63))})
    return {"calls": calls}


def undersampling_grid(seed: int, work: Path) -> dict:
    rng = _stream(seed, "undersampling_grid")
    cells = []
    for kind, scalar, N, n, trials in UNDERSAMPLING_CELLS:
        key = "alpha" if kind.startswith("zeta") else "q"
        cells.append({"kind": kind, key: scalar, "R": N, "N": N, "n": n,
                      "trials": trials, "seed": int(rng.integers(2 ** 63))})
    return {"cells": cells}


def cli_session(seed: int, work: Path) -> dict:
    """Input files plus the argument lists of one pass of CLI invocations.

    ``{out}`` in an argument is replaced by a fresh per-invocation output
    directory, so no invocation overwrites an earlier file: on ext4 a
    truncating overwrite forces a flush, which would time the disk rather
    than rankfit. ``{fit}`` is the fit file written earlier in the pass.
    """
    rng = _stream(seed, "cli_session")
    files = work / "cli_inputs"
    files.mkdir(parents=True, exist_ok=True)
    a = files / "a.tsv"
    b = files / "b.tsv"
    _write_tsv(a, _model_frequencies(rng, "geometric", 24, int(rng.integers(12, 25)), True), rng, True)
    _write_tsv(b, _model_frequencies(rng, "zeta", 24, int(rng.integers(12, 25)), True), rng, True)
    malformed = files / "malformed.tsv"
    malformed.write_text("label\tfrequency\nx\t5\ny\t3\textra\n", encoding="utf-8")
    non_utf8 = files / "non_utf8.tsv"
    non_utf8.write_bytes(b"label\tfrequency\n\xff\xfe\t4\n")
    sim_seed = int(rng.integers(2 ** 31))
    cfg = files / "recovery.json"
    # kept light, like every other invocation, so that no single slow
    # subcommand sits at the 90th percentile of the session's latencies
    cfg.write_text(json.dumps({"mode": "recovery", "seed": sim_seed, "trials": 1,
                               "sample_sizes": [40, 400],
                               "model": {"kind": "geometric1", "R": 24, "N": 24, "q": 0.35}}),
                   encoding="utf-8")
    cfg_list = files / "config_list.json"
    cfg_list.write_text("[1, 2, 3]\n", encoding="utf-8")
    missing = files / "does_not_exist.tsv"
    kind = ("zeta2", "geometric2")[int(rng.integers(2))]

    def ok(subcommand, args, outputs):
        return {"subcommand": subcommand, "expect": "ok", "args": args, "outputs": outputs}

    def error(args, known_defect=None):
        # must exit 1 with a one-line "error:" message
        return {"subcommand": "error", "expect": "error", "args": args, "outputs": [],
                "known_defect": known_defect}

    invocations = [
        ok("summarize", ["summarize", "--input", str(a), "--out", "{out}/summary.json"],
           ["summary.json", "summary.json.manifest.json"]),
        ok("fit", ["fit", "--input", str(a), "--model", kind, "--out", "{out}/fit.json"],
           ["fit.json", "fit.json.manifest.json"]),
        ok("select", ["select", "--input", str(a), "--out-dir", "{out}"],
           ["selection.json", "best_params.json", "run_manifest.json"]),
        ok("diagnose", ["diagnose", "--input", str(b), "--out-dir", "{out}"],
           ["diagnostic_report.json", "manifest.json", "run_manifest.json"]),
        ok("cross-apply", ["cross-apply", "--fit", "{fit}", "--input", str(b),
                           "--out", "{out}/cross.json"],
           ["cross.json", "cross.json.manifest.json"]),
        ok("simulate", ["simulate", "--mode", "undersampling", "--model", "geometric1",
                        "--q", "0.3", "--n", "1000", "--trials", "40",
                        "--seed", str(sim_seed), "--out", "{out}/under.json"],
           ["under.json", "under.json.manifest.json"]),
        ok("simulate", ["simulate", "--config", str(cfg), "--out", "{out}/recovery.json"],
           ["recovery.json", "recovery.json.manifest.json"]),
        error(["summarize", "--input", str(missing), "--out", "{out}/s.json"]),
        error(["select", "--input", str(malformed), "--out-dir", "{out}"]),
        error(["select", "--input", str(a), "--ensemble", "zeta1,bogus", "--out-dir", "{out}"]),
        # ROADMAP item 1: these two crash with a traceback at the time of writing
        error(["summarize", "--input", str(non_utf8), "--out", "{out}/s.json"],
              "non-UTF-8 input crashes with UnicodeDecodeError"),
        error(["simulate", "--config", str(cfg_list), "--out", "{out}/s.json"],
              "JSON --config that is not an object crashes with AttributeError"),
    ]
    return {"invocations": invocations, "fit_invocation": 1}


MAKERS = {
    "corpus_select": corpus_select,
    "recovery_sweep": recovery_sweep,
    "undersampling_grid": undersampling_grid,
    "cli_session": cli_session,
}


def make(workload: str, seed: int, work: Path) -> Path:
    """Write the workload's inputs under ``work``; return the inputs file."""
    spec = MAKERS[workload](seed, work)
    spec["workload"] = workload
    spec["seed"] = seed
    path = work / "inputs.json"
    path.write_text(json.dumps(spec, indent=1), encoding="utf-8")
    return path

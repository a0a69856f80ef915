import collections
import contextlib
import copy
import hashlib
import io
import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rankfit.cli
import rankfit.estimation
import rankfit.models
import rankfit.selection
import rankfit.simulation
from conftest import cli_env, readme_cli_commands
from rankfit._io import json_text
from rankfit.cli import _write_json, build_parser, main
from rankfit.models import ModelKind

REPO = Path(__file__).resolve().parent.parent
DEMO = REPO / "data" / "demo_synthetic.tsv"


def run_cli(*args, cwd):
    return subprocess.run([sys.executable, "-m", "rankfit.cli", *map(str, args)],
                          capture_output=True, text=True, cwd=cwd, env=cli_env())


def one_line_error(proc) -> str:
    """The single `error:` line of a failed run; no traceback allowed."""
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    return lines[0]


def write_dataset(path: Path, r_max: int):
    path.write_text("label\tfrequency\n" +
                    "".join(f"w{r}\t{r_max - r + 1}\n" for r in range(1, r_max + 1)),
                    encoding="utf-8")


def test_summarize_demo_dataset(tmp_path):
    out = tmp_path / "summary.json"
    proc = run_cli("summarize", "--input", DEMO, "--out", out, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    assert {"F0", "F1", "FlogR", "mean_rank", "r_max"} <= set(data)
    manifest = json.loads((tmp_path / "summary.json.manifest.json").read_text())
    assert manifest["command"] == "summarize"
    assert manifest["inputs"][0]["path"] == str(DEMO)
    assert len(manifest["inputs"][0]["sha256"]) == 64
    assert Path(manifest["outputs"][0]).exists()


def test_summarize_24_rows(tmp_path):
    data = tmp_path / "d24.tsv"
    write_dataset(data, 24)
    out = tmp_path / "s.json"
    proc = run_cli("summarize", "--input", data, "--out", out, cwd=tmp_path)
    assert proc.returncode == 0
    assert json.loads(out.read_text())["r_max"] == 24


def test_summarize_tsv_stdout(tmp_path):
    data = tmp_path / "d5.tsv"
    write_dataset(data, 5)
    proc = run_cli("summarize", "--input", data, "--out", tmp_path / "s.json",
                   "--format", "tsv", cwd=tmp_path)
    assert proc.returncode == 0
    header, values = proc.stdout.strip().splitlines()
    assert header.split("\t") == ["F0", "F1", "FlogR", "mean_rank", "r_max"]
    assert values.split("\t")[4] == "5"


def test_summarize_non_utf8_input_is_one_line_error(tmp_path):
    bad = tmp_path / "latin.tsv"
    bad.write_bytes(b"label\tfrequency\n\xff\xfe\t4\n")
    proc = run_cli("summarize", "--input", bad, "--out", tmp_path / "x.json",
                   cwd=tmp_path)
    assert str(bad) in one_line_error(proc)
    assert not (tmp_path / "x.json").exists()


def test_summarize_overflowing_frequencies_is_one_line_error(tmp_path):
    big = tmp_path / "big.tsv"
    big.write_text("a\t1.5e308\nb\t1e308\n", encoding="utf-8")
    proc = run_cli("summarize", "--input", big, "--out", tmp_path / "x.json", cwd=tmp_path)
    assert "frequencies too large" in one_line_error(proc)
    assert not (tmp_path / "x.json").exists()


def test_failed_command_prints_no_parse_note(tmp_path):
    # the tie note would precede the error line if notes were printed at parse time
    tied = tmp_path / "tied.tsv"
    tied.write_text("a\t1e308\nb\t1e308\n", encoding="utf-8")
    proc = run_cli("summarize", "--input", tied, "--out", tmp_path / "x.json", cwd=tmp_path)
    assert "frequencies too large" in one_line_error(proc)
    tied.write_text("a\t5\nb\t5\n", encoding="utf-8")
    proc = run_cli("summarize", "--input", tied, "--out", tmp_path / "x.json", cwd=tmp_path)
    assert proc.returncode == 0 and proc.stderr.startswith("note: tie at frequency")


def test_summarize_malformed_row_cites_line(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("label\tfrequency\na\t5\nb\toops\n", encoding="utf-8")
    proc = run_cli("summarize", "--input", bad, "--out", tmp_path / "x.json",
                   cwd=tmp_path)
    assert proc.returncode != 0
    assert "line 3" in proc.stderr


def test_fit_truncates_at_r_max(tmp_path):
    data = tmp_path / "d17.tsv"
    write_dataset(data, 17)
    out = tmp_path / "fit17.json"
    proc = run_cli("fit", "--input", data, "--model", "geometric2", "--out", out,
                   cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    stored = json.loads(out.read_text())
    assert stored["params"]["R"] == 17
    assert stored["kind"] == "geometric2"


def test_fit_one_parameter_uses_ceiling(tmp_path):
    data = tmp_path / "d10.tsv"
    write_dataset(data, 10)
    out = tmp_path / "fit1.json"
    proc = run_cli("fit", "--input", data, "--model", "geometric1", "--N", 24,
                   "--out", out, cwd=tmp_path)
    assert proc.returncode == 0
    assert json.loads(out.read_text())["params"]["R"] == 24


def test_fit_unknown_model_lists_kinds(tmp_path):
    proc = run_cli("fit", "--input", DEMO, "--model", "weibull", cwd=tmp_path)
    assert proc.returncode != 0
    for kind in ("zeta1", "zeta2", "geometric1", "geometric2"):
        assert kind in proc.stderr


def test_select_outputs_and_restricted_ensemble(tmp_path):
    out_dir = tmp_path / "sel"
    proc = run_cli("select", "--input", DEMO, "--out-dir", out_dir, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name in ("selection.tsv", "selection.json", "best_params.tsv",
                 "best_params.json", "run_manifest.json"):
        assert (out_dir / name).exists()
    header = (out_dir / "selection.tsv").read_text().splitlines()[0]
    assert header.split("\t") == ["model", "loglik", "AICc", "delta_AICc",
                                  "w_AICc", "BIC", "delta_BIC", "w_BIC"]
    table = json.loads((out_dir / "selection.json").read_text())
    assert len(table["rows"]) == 4
    # demo data are geometric-sampled: both criteria favor geometric kinds
    assert table["best_by_AICc"].startswith("geometric")
    assert table["best_by_BIC"].startswith("geometric")

    out_dir2 = tmp_path / "sel2"
    proc = run_cli("select", "--input", DEMO, "--ensemble", "zeta1,zeta2",
                   "--out-dir", out_dir2, cwd=tmp_path)
    assert proc.returncode == 0
    table2 = json.loads((out_dir2 / "selection.json").read_text())
    assert [r["model"] for r in table2["rows"]] == ["zeta1", "zeta2"]


def test_select_rejects_unknown_ensemble_member(tmp_path):
    # an empty --ensemble names no kind; only an absent one means all four
    for ensemble in ("zeta1,nope", ""):
        proc = run_cli("select", "--input", DEMO, "--ensemble", ensemble,
                       "--out-dir", tmp_path / "x", cwd=tmp_path)
        assert "geometric2" in one_line_error(proc)  # lists valid kinds
        assert not (tmp_path / "x").exists()


def test_diagnose_end_to_end(tmp_path):
    out_dir = tmp_path / "diag"
    proc = run_cli("diagnose", "--input", DEMO, "--out-dir", out_dir, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((out_dir / "diagnostic_report.json").read_text())
    assert report["verdict"] in ("exponential-like", "power-law-like", "inconclusive")
    assert (out_dir / "observed_linear_log.tsv").exists()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert len(manifest["series"]) == 15


def test_diagnose_summarizes_once(tmp_path, monkeypatch):
    calls = []
    for module in (rankfit.cli, rankfit.estimation, rankfit.selection):
        def counting(hist, summarize=module.summarize):
            calls.append(hist)
            return summarize(hist)
        monkeypatch.setattr(module, "summarize", counting)
    assert main(["diagnose", "--input", str(DEMO), "--out-dir", str(tmp_path / "d")]) == 0
    assert len(calls) == 1


def test_cross_apply_reports_minus_inf(tmp_path):
    d17 = tmp_path / "d17.tsv"
    d18 = tmp_path / "d18.tsv"
    write_dataset(d17, 17)
    write_dataset(d18, 18)
    fit17 = tmp_path / "fit17.json"
    assert run_cli("fit", "--input", d17, "--model", "geometric2", "--out", fit17,
                   cwd=tmp_path).returncode == 0
    out = tmp_path / "ca.json"
    proc = run_cli("cross-apply", "--fit", fit17, "--input", d18, "--out", out,
                   cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert payload["loglik"] == "-inf"
    assert payload["finite"] is False


def test_cross_apply_self_matches_stored_loglik(tmp_path):
    fit_path = tmp_path / "fit.json"
    assert run_cli("fit", "--input", DEMO, "--model", "geometric1", "--out",
                   fit_path, cwd=tmp_path).returncode == 0
    out = tmp_path / "ca.json"
    proc = run_cli("cross-apply", "--fit", fit_path, "--input", DEMO, "--out", out,
                   cwd=tmp_path)
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    stored = json.loads(fit_path.read_text())
    assert payload["finite"] is True
    assert payload["loglik"] == pytest.approx(stored["loglik"], abs=1e-9)


def test_cross_apply_fit_file_with_fractional_R_is_one_line_error(tmp_path):
    fit_path = tmp_path / "fit.json"
    fit_path.write_text(json.dumps({
        "kind": "geometric2", "params": {"kind": "geometric2", "R": 10.7, "N": 24, "q": 0.4},
        "loglik": -1.0, "n_params": 2, "converged": True, "iterations": 1, "warnings": []}),
        encoding="utf-8")
    out = tmp_path / "ca.json"
    proc = run_cli("cross-apply", "--fit", fit_path, "--input", DEMO, "--out", out,
                   cwd=tmp_path)
    assert "R must be a whole number" in one_line_error(proc)
    assert not out.exists()


BAD_FIT_FIELDS = [
    # a non-number, an infinity (1e400 reads as inf) or null is named like a fraction
    ("n_params", 2.9, "n_params must be a whole number"),
    ("iterations", 3.7, "iterations must be a whole number"),
    ("n_params", "x", "n_params must be a whole number"),
    ("iterations", 1e400, "iterations must be a whole number"),
    ("R", None, "R must be a whole number"),
    ("loglik", True, "loglik must be a finite number, got True"),
    ("loglik", "x", "loglik must be a finite number, got 'x'"),
    # n_params and converged must agree with the geometric2 params at R = 10
    ("converged", "false", "converged must be True for these params, got 'false'"),
    ("n_params", 1, "n_params must be 2 for these params, got 1"),
    ("kind", "zeta1", "kind must be 'geometric2' for these params, got 'zeta1'"),
    # a string would otherwise load as its characters
    ("warnings", "abc", "warnings must be a list of strings, got 'abc'"),
    ("warnings", [1], "warnings must be a list of strings, got [1]"),
    # keys as_dict never writes, at the top and in params
    ("extra", 1, "unknown fit file key 'extra'"),
    ("bogus", 1, "unknown params key 'bogus'"),
]


@pytest.mark.parametrize("field, bad, named", [pytest.param(*case, id=f"{case[0]}-{case[1]}")
                                               for case in BAD_FIT_FIELDS])
def test_cross_apply_fit_file_with_fractional_count_is_one_line_error(tmp_path, field, bad,
                                                                      named):
    stored = {
        "kind": "geometric2", "params": {"kind": "geometric2", "R": 10, "N": 24, "q": 0.4},
        "loglik": -1.0, "n_params": 2, "converged": True, "iterations": 1, "warnings": []}
    (stored["params"] if field in ("R", "bogus") else stored)[field] = bad
    fit_path = tmp_path / "fit.json"
    fit_path.write_text(json.dumps(stored), encoding="utf-8")
    out = tmp_path / "ca.json"
    proc = run_cli("cross-apply", "--fit", fit_path, "--input", DEMO, "--out", out,
                   cwd=tmp_path)
    assert named in one_line_error(proc)
    assert not out.exists()


@pytest.mark.parametrize("text, named", [
    ("null", "null"), ("[1, 2, 3]", "an array"), ('"zeta1"', "a string"), ("3", "a number"),
    ("2.5", "a number"), ("true", "a boolean"),
])
@pytest.mark.parametrize("flag", ["--config", "--fit"])
def test_a_file_not_holding_an_object_is_named_in_json_terms(tmp_path, capsys, flag, text,
                                                             named):
    path = tmp_path / "not_an_object.json"
    path.write_text(text + "\n", encoding="utf-8")
    argv, prefix = ((["simulate"], "bad simulation configuration: ") if flag == "--config"
                    else (["cross-apply", "--input", str(DEMO)], ""))
    with pytest.raises(SystemExit) as exit_:
        main([*argv, flag, str(path), "--out", str(tmp_path / "out.json")])
    assert exit_.value.code == 1
    assert capsys.readouterr().err == (
        f"error: {prefix}{path} must be a JSON object, not {named}\n")


@pytest.mark.parametrize("flag", ["--config", "--fit"])
def test_json_nested_past_the_recursion_limit_is_one_line_error(tmp_path, capsys, flag):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    argv = ["simulate"] if flag == "--config" else ["cross-apply", "--input", str(DEMO)]
    with pytest.raises(SystemExit) as exit_:
        main([*argv, flag, str(path), "--out", str(tmp_path / "out.json")])
    assert exit_.value.code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and f"{path} is not valid JSON: maximum recursion depth" in lines[0]


def test_fit_file_missing_a_key_names_it(tmp_path):
    fit_path = tmp_path / "fit.json"
    assert main(["fit", "--input", str(DEMO), "--model", "zeta2", "--out", str(fit_path)]) == 0
    stored = json.loads(fit_path.read_text())
    del stored["loglik"]
    fit_path.write_text(json.dumps(stored), encoding="utf-8")
    proc = run_cli("cross-apply", "--fit", fit_path, "--input", DEMO, cwd=tmp_path)
    assert one_line_error(proc) == (
        f"error: unreadable fit file {fit_path}: missing fit file key 'loglik'")


def test_cross_apply_missing_fit_file(tmp_path):
    proc = run_cli("cross-apply", "--fit", tmp_path / "absent.json", "--input",
                   DEMO, "--out", tmp_path / "o.json", cwd=tmp_path)
    assert proc.returncode != 0
    assert "not found" in proc.stderr


def test_simulate_undersampling_and_determinism(tmp_path):
    args = ("simulate", "--mode", "undersampling", "--model", "geometric1",
            "--q", "0.4", "--N", 12, "--n", 60, "--trials", 80, "--seed", 5)
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run_cli(*args, "--out", out1, cwd=tmp_path).returncode == 0
    assert run_cli(*args, "--out", out2, cwd=tmp_path).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert 0.0 <= payload["estimate"] <= 1.0
    assert payload["seed"] == 5


def test_simulate_recovery_with_config_file(tmp_path):
    cfg = {
        "mode": "recovery",
        "seed": 77,
        "trials": 3,
        "sample_sizes": [120],
        "model": {"kind": "geometric1", "q": 0.45, "R": 24, "N": 24},
        "ensemble": ["geometric1", "geometric2"],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "rec.json"
    proc = run_cli("simulate", "--config", cfg_path, "--out", out, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert payload["mode"] == "recovery"
    assert payload["per_size"][0]["sample_size"] == 120
    assert payload["seed"] == 77


def test_simulate_default_seed_documented_constant(tmp_path):
    out = tmp_path / "s.json"
    proc = run_cli("simulate", "--mode", "undersampling", "--model", "geometric1",
                   "--q", "0.5", "--N", 6, "--n", 10, "--trials", 10,
                   "--out", out, cwd=tmp_path)
    assert proc.returncode == 0
    assert json.loads(out.read_text())["seed"] == 12345


@pytest.mark.parametrize("trials, seed, named", [
    (2.5, 7, "trials must"),
    (3, 7.9, "seed must"),
    (3, 2 ** 64, "seed must"),
    (3, -1, "seed must"),
    (True, 7, "trials must"),  # JSON true and false are Python's 1 and 0
    (3, False, "seed must"),
    (True, False, "seed must"),
])
def test_simulate_trials_and_seed_must_be_whole(tmp_path, trials, seed, named):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"trials": trials, "seed": seed}), encoding="utf-8")
    out = tmp_path / "s.json"
    proc = run_cli("simulate", "--mode", "recovery", "--model", "geometric1", "--q", "0.4",
                   "--sizes", "50", "--config", cfg_path, "--out", out, cwd=tmp_path)
    assert named in one_line_error(proc)
    assert not out.exists()


@pytest.mark.parametrize("model, named", [
    ({"kind": "geometric2", "R": 10.7, "N": 24, "q": 0.4}, "R must be a whole number"),
    ({"kind": "zeta1", "R": 24, "N": 24.9, "alpha": 1.0}, "N must be a whole number"),
    ({"kind": "geometric2", "R": None, "N": 24, "q": 0.4}, "R must be a whole number"),
])
def test_simulate_fractional_R_or_N_is_one_line_error(tmp_path, model, named):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"mode": "undersampling", "n": 10, "model": model}),
                        encoding="utf-8")
    out = tmp_path / "s.json"
    proc = run_cli("simulate", "--config", cfg_path, "--out", out, cwd=tmp_path)
    assert named in one_line_error(proc)
    assert not out.exists()


def test_simulate_absurd_N_is_one_line_error(tmp_path):
    # 10**15 ranks are past the 10**6 a simulation draws over, so nothing is allocated
    out = tmp_path / "s.json"
    proc = run_cli("simulate", "--mode", "undersampling", "--model", "geometric1",
                   "--q", "0.4", "--N", 10 ** 15, "--n", 10, "--out", out, cwd=tmp_path)
    one_line_error(proc)
    assert not out.exists()


@pytest.mark.parametrize("mode", [("--mode", "undersampling", "--n", 100),
                                  ("--mode", "recovery", "--sizes", "10,100")])
def test_simulate_large_N_is_rejected_before_it_is_allocated(tmp_path, mode):
    # 10**9 ranks would need tens of GB; the sampler rejects R > 10**6 first
    out = tmp_path / "s.json"
    proc = run_cli("simulate", *mode, "--model", "geometric1", "--q", "0.4",
                   "--N", 10 ** 9, "--out", out, cwd=tmp_path)
    assert "at most 1000000 ranks, got R=1000000000" in one_line_error(proc)
    assert not out.exists()


def test_simulate_whole_valued_floats_are_written_as_ints(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"trials": 2.0, "seed": 7.0, "sample_sizes": [40.0]}),
                        encoding="utf-8")
    out = tmp_path / "s.json"
    proc = run_cli("simulate", "--mode", "recovery", "--model", "geometric1", "--q", "0.4",
                   "--ensemble", "geometric1", "--config", cfg_path, "--out", out,
                   cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    text = out.read_text()
    assert '"trials": 2,' in text and '"seed": 7,' in text
    sizes = json.loads(text)["sample_sizes"]
    manifest = json.loads((tmp_path / "s.json.manifest.json").read_text())
    for listed in (sizes, manifest["parameters"]["sample_sizes"]):
        assert listed == [40] and type(listed[0]) is int
    assert manifest["parameters"]["trials"] == 2 and manifest["parameters"]["seed"] == 7


@pytest.mark.parametrize("mode, config, n, sizes", [
    ("undersampling", {"n": 60.0, "sample_sizes": [10]}, 60, None),
    ("recovery", {"n": 60.0, "sample_sizes": [40.0]}, None, [40]),
])
def test_simulate_manifest_records_the_settings_used(tmp_path, mode, config, n, sizes):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"mode": mode, "trials": 2, **config}), encoding="utf-8")
    out = tmp_path / "s.json"
    proc = run_cli("simulate", "--model", "geometric1", "--q", "0.4", "--ensemble",
                   "geometric1", "--config", cfg_path, "--out", out, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    params = json.loads((tmp_path / "s.json.manifest.json").read_text())["parameters"]
    # each mode records only its own settings: n or sample_sizes, and the ensemble
    assert (params.get("n"), params.get("sample_sizes")) == (n, sizes)
    assert params.get("ensemble") == (None if mode == "undersampling" else ["geometric1"])
    assert '"n": 60.0' not in (tmp_path / "s.json.manifest.json").read_text()
    if mode == "undersampling":
        assert json.loads(out.read_text())["n"] == params["n"]


def test_simulate_sizes_flag_keeps_exact_ints(tmp_path):
    out = tmp_path / "s.json"
    proc = run_cli("simulate", "--mode", "recovery", "--model", "geometric1", "--q", "0.4",
                   "--sizes", f"40,{2 ** 63 - 1}", "--trials", 1, "--ensemble",
                   "geometric1", "--out", out, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert payload["sample_sizes"] == [40, 2 ** 63 - 1]
    assert [s["sample_size"] for s in payload["per_size"]] == [40, 2 ** 63 - 1]


NUMPY_PROBE = """
import sys
import rankfit, rankfit.cli
assert rankfit.cli.main(["select", "--input", sys.argv[1], "--out-dir", sys.argv[2]]) == 0
assert "numpy" not in sys.modules, "select loaded numpy"
rankfit.undersampling_probability(rankfit.geometric1(0.4, 12), 30, trials=2, seed=1)
assert "numpy" in sys.modules, "undersampling_probability ran without numpy"
"""


def test_numpy_loads_only_when_simulating(tmp_path):
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE, str(DEMO), str(tmp_path / "sel")],
                          capture_output=True, text=True, cwd=tmp_path, env=cli_env())
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sel" / "selection.tsv").exists()


def test_fit_rerun_byte_identical(tmp_path):
    out1 = tmp_path / "f1.json"
    out2 = tmp_path / "f2.json"
    for out in (out1, out2):
        assert run_cli("fit", "--input", DEMO, "--model", "zeta2", "--out", out,
                       cwd=tmp_path).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_config_must_be_json_object(tmp_path):
    cfg_path = tmp_path / "list.json"
    cfg_path.write_text("[1, 2, 3]\n", encoding="utf-8")
    proc = run_cli("simulate", "--config", cfg_path, "--out", tmp_path / "s.json",
                   cwd=tmp_path)
    assert str(cfg_path) in one_line_error(proc)


@pytest.mark.parametrize("flags, model, named", [
    ((), None, "--model"),
    (("--model", "geometric1"), None, " q "),
    ((), {"R": 24, "N": 24, "q": 0.4}, "'kind'"),
    ((), {"kind": "zeta1", "R": 24, "N": 24}, "alpha"),
])
def test_simulate_missing_model_setting_is_named(tmp_path, flags, model, named):
    args = ["simulate", "--mode", "undersampling", "--n", 50, "--trials", 5, *flags]
    if model is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": model}), encoding="utf-8")
        args += ["--config", cfg_path]
    proc = run_cli(*args, "--out", tmp_path / "s.json", cwd=tmp_path)
    assert named in one_line_error(proc)


@pytest.mark.parametrize("config_seed, expected", [(None, 31), (77, 77)])
def test_simulate_config_seed_overrides_flag(tmp_path, config_seed, expected):
    cfg = {"mode": "undersampling", "n": 40, "trials": 5,
           "model": {"kind": "geometric1", "q": 0.4, "R": 12, "N": 12}}
    if config_seed is not None:
        cfg["seed"] = config_seed
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "s.json"
    proc = run_cli("simulate", "--config", cfg_path, "--seed", 31, "--out", out,
                   cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["seed"] == expected


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_output_is_strict(tmp_path, value):
    with pytest.raises(ValueError):
        json_text({"loglik": value})
    out = tmp_path / "sub" / "x.json"
    with pytest.raises(ValueError):
        _write_json({"loglik": value}, out)
    assert not out.parent.exists()  # serialised before any file is opened


@pytest.mark.parametrize("flags, config, named", [
    (("--mode", "undersampling", "--n", "100000000000000000000"), None, "n must"),
    (("--mode", "recovery", "--sizes", "inf"), None, "sample sizes must"),
    (("--mode", "recovery", "--sizes", "100,150.5"), None, "sample sizes must"),
    ((), {"mode": "undersampling", "n": math.inf}, "n must"),
    ((), {"mode": "undersampling", "n": 50, "trials": math.inf}, "trials must"),
    ((), {"mode": "undersampling", "n": True}, "n must"),
    (("--mode", "recovery"), {"sample_sizes": [True]}, "sample sizes must"),
], ids=["n-1e20", "sizes-inf", "sizes-fraction", "config-n-inf", "config-trials-inf",
        "config-n-true", "config-sizes-true"])
def test_simulate_bad_draw_count_is_one_line_error(tmp_path, flags, config, named):
    args = ["simulate", "--model", "geometric1", "--q", "0.4", "--trials", 5, *flags]
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        args += ["--config", cfg_path]
    out = tmp_path / "s.json"
    proc = run_cli(*args, "--out", out, cwd=tmp_path)
    assert named in one_line_error(proc)
    assert not out.exists()


@pytest.mark.parametrize("model, named", [
    ({"kind": "zeta1", "R": 24, "N": 24, "alpha": True}, "alpha must be"),
    ({"kind": "geometric1", "R": 24, "N": 24, "q": True}, "q must"),
    ({"kind": "geometric2", "R": True, "N": 24, "q": 0.4}, "R must be a whole number"),
])
def test_simulate_boolean_model_values_are_one_line_errors(tmp_path, model, named):
    # JSON true is Python's 1, which would otherwise run as alpha = 1 or R = 1
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"mode": "undersampling", "n": 10, "trials": 2,
                                    "model": model}), encoding="utf-8")
    out = tmp_path / "s.json"
    proc = run_cli("simulate", "--config", cfg_path, "--out", out, cwd=tmp_path)
    assert named in one_line_error(proc)
    assert not out.exists()


SETTINGS_ERRORS = [
    # every error in the settings, from a flag or a --config key, carries one prefix
    ((), {"ensemble": ["zeta1", "bogus"]},
     "ensemble: unknown model kind 'bogus'; valid kinds: zeta1, zeta2, geometric1, geometric2"),
    ((), {"ensemble": 5},
     "ensemble: unknown model kind 5; valid kinds: zeta1, zeta2, geometric1, geometric2"),
    ((), {"model": None, "seed": "x"}, "simulate needs --model (or a model in the --config file)"),
    ((), {"mode": "other"}, "unknown simulate mode 'other'"),
    ((), {"ensemble": []}, "ensemble must list one or more kinds, each once, got []"),
    ((), {"ensemble": ["geometric1", "geometric1"]},
     "ensemble must list one or more kinds, each once, got ['geometric1', 'geometric1']"),
    ((), {"trails": 5}, "unknown config key 'trails'"),
    ((), {"sizes": [10]}, "unknown config key 'sizes'"),
    ((), {"model": {"kind": "geometric1", "R": 24, "N": 24, "q": 0.4, "bogus": 1}},
     "unknown model key 'bogus'"),
    ((), {"model": {"kind": "geometric1", "N": 24, "q": 0.4}}, "missing model key 'R'"),
    ((), {"model": 3}, "model must be a JSON object, not a number"),
    ((), {"model": {"kind": "x", "R": 24, "N": 24, "q": 0.4}},
     "unknown model kind 'x'; valid kinds: zeta1, zeta2, geometric1, geometric2"),
    ((), {"model": {"kind": "zeta1", "R": 24, "N": 24, "alpha": "1"}},
     "alpha must be a finite real >= 0, got '1'"),
    ((), {"sample_sizes": 10}, "sample sizes must be a non-empty list, got 10"),
    # recovery mode uses no n, but checks one it is given
    (("--n", "-5"), {}, "n must be a whole number from 1 to 9223372036854775807, got -5"),
    (("--sizes", "10,"), {}, "sample sizes must be a whole number from 1 to 9223372036854775807, "
                             "got ''"),
    (("--trials", "0"), {}, "trials must be a whole number from 1 to 9223372036854775807, got 0"),
    # the rank limit is checked once the run starts, and carries the prefix too
    (("--N", "1000000000"), {},
     "simulation draws over at most 1000000 ranks, got R=1000000000"),
    (("--mode", "undersampling", "--n", "10", "--N", "1000000000"), {},
     "simulation draws over at most 1000000 ranks, got R=1000000000"),
]


@pytest.mark.parametrize("flags, config, message", SETTINGS_ERRORS, ids=[
    "unknown-kind", "ensemble-not-a-list", "no-model", "unknown-mode", "ensemble-empty",
    "ensemble-repeated",
    "unknown-key", "old-sizes-key", "unknown-model-key", "missing-model-key",
    "model-not-an-object", "unknown-model-kind", "string-alpha", "sizes-not-a-list",
    "recovery-n-negative", "sizes-trailing-comma", "trials-zero", "recovery-too-many-ranks",
    "undersampling-too-many-ranks"])
def test_simulate_settings_errors_all_carry_one_prefix(tmp_path, flags, config, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    proc = run_cli("simulate", "--model", "geometric1", "--q", "0.4", "--sizes", "10", *flags,
                   "--config", cfg_path, "--out", tmp_path / "s.json", cwd=tmp_path)
    assert one_line_error(proc) == f"error: bad simulation configuration: {message}"
    assert not (tmp_path / "s.json").exists()


class _FirstDraw(Exception):
    pass


@pytest.mark.parametrize("mode", ["recovery", "undersampling"])
def test_simulate_converts_each_setting_once(tmp_path, monkeypatch, mode):
    # every conversion up to the first draw, which ends the run: _whole by the
    # setting it names (the model's N and R included), _sample_sizes and _kinds
    calls = collections.Counter()

    def count(module, function, key):
        real = getattr(module, function)

        def counted(*args):
            calls[key(*args)] += 1
            return real(*args)
        monkeypatch.setattr(module, function, counted)

    modules = (rankfit.cli, rankfit.models, rankfit.selection, rankfit.estimation,
               rankfit.simulation)
    for module in modules:
        count(module, "_whole", lambda value, name, lo, hi: name)
        if hasattr(module, "_kinds"):
            count(module, "_kinds", lambda ensemble=None: "ensemble")
    count(rankfit.simulation, "_sample_sizes", lambda sizes: "_sample_sizes")

    def first_draw(m, n, seed):
        raise _FirstDraw
    monkeypatch.setattr(rankfit.simulation, "sample_counts", first_draw)
    with pytest.raises(_FirstDraw):
        main(["simulate", "--mode", mode, "--model", "geometric1", "--q", "0.4", "--sizes",
              "20,40", "--trials", "3", "--ensemble", "geometric1,zeta2", "--n", "30",
              "--out", str(tmp_path / "s.json")])
    # one _whole call per sample size, inside the one _sample_sizes call
    assert calls == {"N": 1, "R": 1, "seed": 1, "trials": 1, "n": 1, "_sample_sizes": 1,
                     "sample sizes": 2, "ensemble": 1}


def test_zeta1_past_a_million_ranks_fails_at_once_and_select_keeps_the_other_rows(tmp_path):
    out = tmp_path / "fit.json"
    proc = run_cli("fit", "--input", DEMO, "--model", "zeta1", "--N", 10 ** 9, "--out", out,
                   cwd=tmp_path)
    assert "at most 1000000 ranks, got R=1000000000" in one_line_error(proc)
    assert not out.exists()
    proc = run_cli("select", "--input", DEMO, "--N", 10 ** 9, "--out-dir", tmp_path / "sel",
                   cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    table = json.loads((tmp_path / "sel" / "selection.json").read_text())
    rows = {r["model"]: r for r in table["rows"]}
    assert "at most 1000000 ranks, got R=1000000000" in rows["zeta1"]["error"]
    assert [rows[k]["error"] for k in ("zeta2", "geometric1", "geometric2")] == [None] * 3


# ---- bad flags: the parser's errors take main's one error path

WHOLE_FROM_1 = "must be a whole number from 1 to 9223372036854775807, got"
FLAG_ERRORS = {
    "bad-int": (["simulate", "--model", "geometric1", "--q", "0.4", "--sizes", "10", "--trials",
                 "x"], "argument --trials: invalid int value: 'x'"),
    "bad-float": (["simulate", "--model", "geometric1", "--q", "x", "--sizes", "10"],
                  "argument --q: invalid float value: 'x'"),
    "bad-N": (["fit", "--input", DEMO, "--model", "zeta1", "--N", "x"],
              "argument --N: invalid int value: 'x'"),
    "unknown-kind": (["fit", "--input", DEMO, "--model", "bogus"],
                     "unknown model kind 'bogus'; valid kinds: zeta1, zeta2, geometric1, "
                     "geometric2"),
    "no-command": ([], "the following arguments are required: command"),
    "unknown-command": (["bogus"], "argument command: invalid choice: 'bogus' (choose from "
                        "'summarize', 'fit', 'select', 'diagnose', 'simulate', 'cross-apply')"),
    "no-input": (["summarize"], "the following arguments are required: --input"),
    "bad-format": (["summarize", "--input", DEMO, "--format", "xml"],
                   "argument --format: invalid choice: 'xml' (choose from 'json', 'tsv')"),
    "unknown-flag": (["summarize", "--input", DEMO, "--bogus", "1"],
                     "unrecognized arguments: --bogus 1"),
    "empty-delimiter": (["summarize", "--input", DEMO, "--delimiter", ""],
                        "delimiter must not be empty"),
    # the empty path reads as the working directory
    "empty-input": (["summarize", "--input", ""], "'' names a directory, not a file"),
    "select-N-0": (["select", "--input", DEMO, "--N", "0"], f"N {WHOLE_FROM_1} 0"),
    "fit-N-negative": (["fit", "--input", DEMO, "--model", "zeta2", "--N", "-3"],
                       f"N {WHOLE_FROM_1} -3"),
    "diagnose-N-0": (["diagnose", "--input", DEMO, "--N", "0"], f"N {WHOLE_FROM_1} 0"),
    # R defaults to --N, so the setting at fault is N
    "simulate-N-0": (["simulate", "--model", "zeta1", "--alpha", "1", "--N", "0", "--sizes", "10"],
                     f"bad simulation configuration: N {WHOLE_FROM_1} 0"),
    "unknown-mode": (["simulate", "--mode", "other", "--model", "zeta1", "--alpha", "1"],
                     "bad simulation configuration: unknown simulate mode 'other'"),
    "select-kind-twice": (["select", "--input", DEMO, "--ensemble", "zeta2,zeta2,geometric2"],
                          "ensemble must list one or more kinds, each once, got "
                          "['zeta2', 'zeta2', 'geometric2']"),
    "diagnose-kind-twice": (["diagnose", "--input", DEMO, "--ensemble",
                             "geometric1,geometric1,zeta1"],
                            "ensemble must list one or more kinds, each once, got "
                            "['geometric1', 'geometric1', 'zeta1']"),
}


@pytest.mark.parametrize("argv, message", FLAG_ERRORS.values(), ids=FLAG_ERRORS)
def test_a_bad_flag_is_one_error_line_and_exit_1(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)  # the default output paths are relative
    with pytest.raises(SystemExit) as exit_:
        main([str(a) for a in argv])
    assert exit_.value.code == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, r_max, N, cause", [
    ("select", 4, 3, "no ensemble member could be fitted and scored: dataset attests r_max=4"),
    ("diagnose", 1, 24, "diagnose needs at least 2 attested ranks, got r_max=1"),
])
def test_select_and_diagnose_name_why_they_fail(tmp_path, command, r_max, N, cause):
    data = tmp_path / "d.tsv"
    write_dataset(data, r_max)
    proc = run_cli(command, "--input", data, "--N", N, "--out-dir", tmp_path / "o", cwd=tmp_path)
    assert one_line_error(proc).startswith(f"error: {cause}")


def test_diagnose_rejects_one_rank_at_a_million_ranks_with_one_error_line(tmp_path, capsys):
    # each kind's fit of one rank is an interval end, decided with no search over 10^6 ranks
    data = tmp_path / "d.tsv"
    write_dataset(data, 1)
    with pytest.raises(SystemExit) as exit_:
        main(["diagnose", "--input", str(data), "--N", "1000000", "--out-dir", str(tmp_path / "o")])
    assert exit_.value.code == 1
    assert capsys.readouterr() == ("", "error: diagnose needs at least 2 attested ranks, "
                                       "got r_max=1\n")


def test_a_bad_flag_prints_no_usage_block_from_the_console(tmp_path):
    argv, message = FLAG_ERRORS["bad-int"]
    assert one_line_error(run_cli(*argv, cwd=tmp_path)) == f"error: {message}"


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["fit", "--help"],
                                  ["simulate", "--help"]])
def test_help_and_version_still_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0
    out, err = capsys.readouterr()
    assert out and not err
    if argv[0] in ("fit", "simulate"):  # --model's help lists the kinds ModelKind has
        assert f"model kind: {', '.join(k.value for k in ModelKind)}" in " ".join(out.split())


def files_under(root: Path) -> set:
    return {p for p in root.rglob("*") if p.is_file()}


def test_every_readme_command_writes_one_manifest_of_its_run(tmp_path):
    (tmp_path / "data").mkdir()
    shutil.copy(DEMO, tmp_path / "data" / DEMO.name)
    commands = readme_cli_commands()
    assert {argv[0] for argv in commands} == {"summarize", "fit", "select", "diagnose",
                                              "cross-apply", "simulate"}
    for argv in commands:
        args = build_parser().parse_args(argv)
        before = files_under(tmp_path)
        proc = run_cli(*argv, cwd=tmp_path)
        assert proc.returncode == 0, (argv, proc.stderr)
        where = (Path(args.out_dir, "run_manifest.json") if hasattr(args, "out_dir")
                 else Path(args.out + ".manifest.json"))
        manifest = json.loads((tmp_path / where).read_text())
        # the one run manifest lists every other file the run wrote, and only those
        written = {tmp_path / p for p in manifest["outputs"]} | {tmp_path / where}
        assert files_under(tmp_path) - before == written, argv
        assert not [p for p in manifest["outputs"]
                    if p.endswith(("run_manifest.json", ".manifest.json"))], argv
        assert manifest["command"] == argv[0]
        read = [getattr(args, k) for k in ("fit", "input", "config") if getattr(args, k, None)]
        assert [i["path"] for i in manifest["inputs"]] == read
        for i in manifest["inputs"]:
            assert i["sha256"] == hashlib.sha256((tmp_path / i["path"]).read_bytes()).hexdigest()
        if argv[0] == "simulate":  # the output without its results, plus out
            output = json.loads((tmp_path / args.out).read_text())
            results = ("per_size",) if args.mode == "recovery" else ("estimate", "half_width")
            expected = {**{k: v for k, v in output.items() if k not in results}, "out": args.out}
            # the settings the output records are the checked flags it ran with
            model = {"kind": args.model, "R": args.N, "N": args.N, "q": args.q}
            settings = ({"sample_sizes": [int(s) for s in args.sizes.split(",")],
                         "ensemble": [k.value for k in ModelKind]} if args.mode == "recovery"
                        else {"n": args.n})
            assert expected == {"mode": args.mode, "seed": args.seed, "trials": args.trials,
                                "model": model, **settings, "out": args.out}, argv
        else:
            expected = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
        assert manifest["parameters"] == expected, argv


# ---- fuzz: mutated --config, --fit and dataset files through main, in-process

FUZZ_POOL = [None, True, 3, -5, 2.5, 1e300, "x", [], [1], {}]
DELETE = object()  # the mutation that deletes the key instead of setting it
FUZZ_CONFIGS = [
    {"mode": "recovery", "seed": 7, "trials": 1, "sample_sizes": [40], "n": 40,
     "ensemble": ["geometric1", "zeta2"],
     "model": {"kind": "geometric1", "R": 24, "N": 24, "q": 0.4}},
    {"mode": "undersampling", "seed": 7, "trials": 1, "sample_sizes": [40], "n": 40,
     "ensemble": ["zeta2"], "model": {"kind": "zeta2", "R": 10, "N": 24, "alpha": 1.2}},
]
FUZZ_FIT = {
    "kind": "geometric2", "params": {"kind": "geometric2", "R": 10, "N": 24, "q": 0.4},
    "loglik": -1.0, "n_params": 2, "converged": True, "iterations": 1, "warnings": []}
FUZZ_ROWS = [("label", "frequency"), ("a", "9"), ("b", "5"), ("c", "5"), ("d", "2"), ("e", "1")]


def key_paths(obj, prefix=()):
    """Every key of a JSON object, nested objects' keys included, as a path."""
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


def mutated(obj, path, value):
    obj = copy.deepcopy(obj)
    *parents, key = path
    target = obj
    for parent in parents:
        target = target[parent]
    if value is DELETE:
        del target[key]
    else:
        target[key] = value
    return obj


@st.composite
def fuzz_runs(draw):
    """(argv without --out, path of the mutated file, its text, the key the
    mutation touched); a dataset row's key is its line."""
    mutation = st.sampled_from([DELETE, *FUZZ_POOL])
    kind = draw(st.sampled_from(["config", "fit", "dataset"]))
    if kind == "dataset":
        line = draw(st.integers(1, len(FUZZ_ROWS)))
        value = draw(mutation)
        rows = [row if i != line else (row[0], json.dumps(value))
                for i, row in enumerate(FUZZ_ROWS, start=1) if i != line or value is not DELETE]
        text = "".join(f"{label}\t{freq}\n" for label, freq in rows)
        return ["select", "--input", "{file}"], "data.tsv", text, f"line {line}"
    base = FUZZ_FIT if kind == "fit" else draw(st.sampled_from(FUZZ_CONFIGS))
    path = draw(st.sampled_from(list(key_paths(base))))
    text = json.dumps(mutated(base, path, draw(mutation)))
    if kind == "fit":
        return (["cross-apply", "--fit", "{file}", "--input", str(DEMO)], "fit.json", text,
                path[-1])
    return ["simulate", "--trials", "1", "--config", "{file}"], "cfg.json", text, path[-1]


def names(line: str, key: str, path: str) -> bool:
    """Whether line names key as a word, an underscore read as a space, or path."""
    words = re.escape(key.replace("_", " "))
    return path in line or re.search(rf"(?<!\w){words}(?!\w)", line.replace("_", " "))


PYTHON_TEXTS = ("object is not", "not supported between", "indices must be",
                "is not a valid ModelKind", "NoneType")


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(fuzz_runs())
def test_fuzzed_inputs_exit_0_or_name_what_is_wrong(run):
    argv, name, text, key = run
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp, name))
        Path(path).write_text(text, encoding="utf-8")
        out = ["--out-dir", str(Path(tmp, "sel"))] if argv[0] == "select" else [
            "--out", str(Path(tmp, "out.json"))]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            try:
                code = main([path if a == "{file}" else a for a in argv] + out)
            except SystemExit as exc:
                code = exc.code
    lines = stderr.getvalue().splitlines()
    if code == 0:
        assert not [line for line in lines if line.startswith("error:")], lines
        return
    assert code == 1 and len(lines) == 1 and lines[0].startswith("error: "), (text, lines)
    assert names(lines[0], key, path), (text, key, lines[0])
    assert not [t for t in PYTHON_TEXTS if t in lines[0]], (text, lines[0])


# ---- fuzz: one flag's value mutated, a required flag dropped or an unknown one added

FLAG_POOL = ["x", "", "0", "-5", "2.5", "nan", "1e300", "zeta1,zeta1"]
PATHS = ("--out", "--out-dir", "--config", "--fit")  # left as they are
REQUIRED = ("--input", "--model", "--q", "--alpha", "--sizes", "--n")  # a base fails without one
FLAG_BASES = [  # one valid argv per subcommand, simulate in both modes; {tmp} is the run's dir
    ["summarize", "--input", str(DEMO), "--delimiter", "\t", "--format", "tsv",
     "--out", "{tmp}/s.json"],
    ["fit", "--input", str(DEMO), "--model", "zeta2", "--N", "24", "--out", "{tmp}/f.json"],
    ["select", "--input", str(DEMO), "--N", "24", "--ensemble", "zeta2,geometric2",
     "--format", "json", "--out-dir", "{tmp}/sel"],
    ["diagnose", "--input", str(DEMO), "--N", "24", "--ensemble", "zeta1,geometric1",
     "--out-dir", "{tmp}/diag"],
    ["simulate", "--mode", "recovery", "--model", "geometric1", "--q", "0.4", "--N", "24",
     "--sizes", "20,40", "--trials", "1", "--seed", "7", "--ensemble", "geometric1,zeta2",
     "--out", "{tmp}/r.json"],
    ["simulate", "--mode", "undersampling", "--model", "zeta2", "--alpha", "1.2", "--R", "10",
     "--N", "24", "--n", "20", "--trials", "1", "--seed", "7", "--out", "{tmp}/u.json"],
    ["cross-apply", "--fit", "{tmp}/fit.json", "--input", str(DEMO), "--delimiter", "\t",
     "--out", "{tmp}/x.json"],
]


@st.composite
def flag_runs(draw):
    """(argv, the flag the mutation touched, the value it gave, or None)."""
    argv = list(draw(st.sampled_from(FLAG_BASES)))
    flags = [i for i, a in enumerate(argv) if a.startswith("--") and a not in PATHS]
    how = draw(st.sampled_from(["value", "drop", "add"]))
    if how == "add":
        return argv + ["--bogus", "1"], "--bogus", None
    if how == "drop":
        i = draw(st.sampled_from([i for i in flags if argv[i] in REQUIRED]))
        return argv[:i] + argv[i + 2:], argv[i], None
    i = draw(st.sampled_from(flags))
    value = draw(st.sampled_from(FLAG_POOL))
    return argv[:i + 1] + [value] + argv[i + 2:], argv[i], value


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(flag_runs())
def test_fuzzed_flags_exit_0_or_name_what_is_wrong(run):
    argv, flag, value = run
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "fit.json").write_text(json.dumps(FUZZ_FIT), encoding="utf-8")
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            try:
                code = main([a.replace("{tmp}", tmp) for a in argv])
            except SystemExit as exc:
                code = exc.code
    text = stderr.getvalue()
    lines = text.splitlines()
    if code == 0:
        assert not [line for line in lines if line.startswith("error:")], (argv, lines)
        return
    assert code == 1 and len(lines) == 1 and lines[0].startswith("error: "), (argv, text)
    assert "usage:" not in text and "Traceback" not in text, (argv, text)
    # the flag by its name, the dataset line at fault, or the bad value (a path: the file)
    assert (names(lines[0], flag.lstrip("-"), flag)
            or re.search(r"\bline \d+\b", lines[0])
            or value is not None and (repr(value) in lines[0]
                                      or value and lines[0].endswith(f": {value}"))), \
        (argv, lines[0])

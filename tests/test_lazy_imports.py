"""The lazy package namespace, and the modules each CLI subcommand loads.

``import rankfit`` loads no submodule; a public name is looked up in its
home module on each access. A CLI run loads only the modules its
subcommand runs, only ``simulate`` loads numpy, and a failed run does not
load hashlib (and with it OpenSSL). The load checks run
in fresh interpreters, since the test process has loaded everything.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import rankfit
from conftest import cli_env
from rankfit.cli import main

DEMO = Path(__file__).resolve().parent.parent / "data" / "demo_synthetic.tsv"
SUBMODULES = ("histogram", "models", "estimation", "selection", "diagnostics", "simulation")


def home_module(name: str):
    """The one submodule whose own __all__ lists name."""
    homes = [m for m in SUBMODULES if name in importlib.import_module(f"rankfit.{m}").__all__]
    assert len(homes) == 1, (name, homes)
    return importlib.import_module(f"rankfit.{homes[0]}")


@pytest.mark.parametrize("name", rankfit.__all__)
def test_every_public_name_is_its_home_modules_object(name):
    if name in SUBMODULES:
        assert getattr(rankfit, name) is importlib.import_module(f"rankfit.{name}")
    else:
        assert getattr(rankfit, name) is getattr(home_module(name), name)


def test_dir_covers_all():
    assert set(rankfit.__all__) | {"__version__"} <= set(dir(rankfit))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'rankfit' has no attribute 'no_such_name'"):
        rankfit.no_such_name  # noqa: B018
    assert not hasattr(rankfit, "summarise")


def test_star_import_binds_all():
    namespace = {}
    exec("from rankfit import *", namespace)
    assert {name: namespace[name] for name in rankfit.__all__} == {
        name: getattr(rankfit, name) for name in rankfit.__all__}


def test_a_name_follows_its_module_through_a_patch_and_back(monkeypatch):
    # a package that cached the patched value would still return it afterwards
    original = rankfit.models.harmonic
    with monkeypatch.context() as patch:
        patch.setattr("rankfit.models.harmonic", lambda *a: 0.0)
        assert rankfit.harmonic is rankfit.models.harmonic is not original
    assert rankfit.harmonic is original


LOADED_PROBE = """
import json, runpy, sys
sys.argv = ["rankfit", *sys.argv[1:]]
code = None
try:
    runpy.run_module("rankfit.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("rankfit.")),
                  [m for m in ("hashlib", "numpy") if m in sys.modules]]), file=sys.stderr)
"""

BASE = ["rankfit._io", "rankfit.histogram", "rankfit.models"]


def loaded(*argv, cwd):
    """The exit status of one `python -m rankfit.cli` run, the rankfit
    submodules it loaded, which of hashlib and numpy it loaded, and its
    stderr lines."""
    proc = subprocess.run([sys.executable, "-c", LOADED_PROBE, *map(str, argv)],
                          capture_output=True, text=True, cwd=cwd, env=cli_env())
    *before, last = proc.stderr.splitlines()
    code, modules, heavy = json.loads(last)
    return code, [m for m in modules if m != "rankfit.cli"], heavy, before


def test_import_rankfit_loads_no_submodule(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, rankfit; print(sorted(m for m in sys.modules if 'rankfit' in m))"],
        capture_output=True, text=True, cwd=tmp_path, env=cli_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['rankfit']"


@pytest.mark.parametrize("argv, extra", [
    (["summarize", "--out", "s.json"], []),
    (["fit", "--model", "zeta2", "--out", "f.json"], ["estimation"]),
    (["select", "--out-dir", "sel"], ["estimation", "selection"]),
    (["diagnose", "--out-dir", "diag"], ["diagnostics", "estimation"]),
    (["cross-apply", "--fit", "stored.json", "--out", "x.json"], ["estimation", "selection"]),
], ids=["summarize", "fit", "select", "diagnose", "cross-apply"])
def test_each_subcommand_loads_only_what_it_runs(tmp_path, argv, extra):
    assert main(["fit", "--input", str(DEMO), "--model", "zeta2",
                 "--out", str(tmp_path / "stored.json")]) == 0
    code, modules, heavy, stderr = loaded(*argv, "--input", DEMO, cwd=tmp_path)
    assert code == 0, stderr
    assert modules == sorted(BASE + [f"rankfit.{m}" for m in extra])
    assert heavy == ["hashlib"]


def test_a_failed_summarize_loads_only_io_histogram_and_models(tmp_path):
    code, modules, heavy, stderr = loaded("summarize", "--input", tmp_path / "missing.tsv",
                                          cwd=tmp_path)
    assert code == 1
    assert modules == BASE and heavy == []
    assert stderr == [f"error: file not found: {tmp_path / 'missing.tsv'}"]


def test_simulate_alone_loads_numpy(tmp_path):
    code, modules, heavy, stderr = loaded(
        "simulate", "--mode", "undersampling", "--model", "geometric1", "--q", "0.4",
        "--n", 20, "--trials", 2, "--out", "u.json", cwd=tmp_path)
    assert code == 0, stderr
    assert modules == sorted(BASE + ["rankfit.estimation", "rankfit.selection",
                                     "rankfit.simulation"])
    assert heavy == ["hashlib", "numpy"]

"""Golden outputs: what rankfit computes on a fixed corpus, kept as text.

Three files sit next to this script:

- ``fits.tsv``: 100 ``_oracles.random_histogram`` histograms (seed 404)
  fitted under each of the four kinds at N = 24 and N = 200, one row per
  fit with the repr of the scalar and of the log-likelihood, the
  iteration count and the warnings;
- ``simulation.json``: one 20-trial recovery run and one undersampling run;
- ``cli.txt``: each command of the README ``## CLI`` block, run in an empty
  directory holding ``data/demo_synthetic.tsv`` (which also stands in for
  ``other.tsv``), with its exit code, stdout, stderr and every file it wrote
  except the run manifests.

The first line of each file records the numpy version that wrote it: the
histograms and the simulations come from numpy's random streams.
``tests/test_golden.py`` compares the rest of each file exactly.

    python tests/golden/regen.py

rewrites the files and prints, per file and column, how many values
changed and the largest absolute and relative change of the numeric ones.
A change nobody intended is a defect to fix, not a file to regenerate.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shlex
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path[:0] = [str(REPO / "src"), str(HERE.parent)]

import numpy as np  # noqa: E402

import rankfit  # noqa: E402
from _oracles import random_histogram  # noqa: E402
from conftest import readme_cli_commands  # noqa: E402
from rankfit.cli import main  # noqa: E402

DEMO = REPO / "data" / "demo_synthetic.tsv"
FIT_COLUMNS = ("histogram", "N", "kind", "scalar", "loglik", "iterations", "warnings")


def version_line() -> str:
    return f"# numpy {np.__version__}\n"


def fits_text() -> str:
    rng = np.random.default_rng(404)
    hists = [random_histogram(rng) for _ in range(100)]
    lines = ["\t".join(FIT_COLUMNS)]
    for i, hist in enumerate(hists):
        stats = rankfit.summarize(hist)
        for N in (24, 200):
            for kind in rankfit.ModelKind:
                fr = rankfit.fit(kind, stats, N)
                lines.append("\t".join((str(i), str(N), kind.value, repr(fr.params.scalar),
                                        repr(fr.loglik), str(fr.iterations),
                                        " | ".join(fr.warnings))))
    return "\n".join(lines) + "\n"


def simulation_text() -> str:
    cfg = rankfit.SimulationConfig(seed=404, trials=20, sample_sizes=(30, 300),
                                   model=rankfit.zeta2(1.1, 20))
    est = rankfit.undersampling_probability(rankfit.geometric1(0.15, 24), 200, 200, 404)
    return json.dumps({"recovery": rankfit.recovery_experiment(cfg).as_dict(),
                       "undersampling": est._asdict()}, indent=1) + "\n"


def _is_run_manifest(path: Path) -> bool:
    return path.name == "run_manifest.json" or path.name.endswith(".manifest.json")


def cli_text() -> str:
    parts = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "data").mkdir()
        shutil.copy(DEMO, root / "data" / DEMO.name)
        os.chdir(root)
        try:
            for argv in readme_cli_commands():
                before = set(root.rglob("*"))
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = main(argv)
                    except SystemExit as exc:
                        code = exc.code
                parts.append(f"=== rankfit {shlex.join(argv)}\n--- exit {code}\n"
                             f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")
                for path in sorted(set(root.rglob("*")) - before):
                    if path.is_file() and not _is_run_manifest(path):
                        parts.append(f"--- file {path.relative_to(root).as_posix()}\n"
                                     f"{path.read_text(encoding='utf-8')}")
        finally:
            os.chdir(cwd)
    return "".join(parts)


def generate() -> dict[str, str]:
    """Each golden file's text after its numpy version line."""
    return {"fits.tsv": fits_text(), "simulation.json": simulation_text(),
            "cli.txt": cli_text()}


def body(path: Path) -> str:
    """A golden file's text without its first (numpy version) line."""
    return path.read_text(encoding="utf-8").split("\n", 1)[1]


# ------------------------------------------------------------ change report

def _number(text: str):
    """The number a cell or a ``"key": value,`` line holds, or None."""
    text = text.rstrip(",").rpartition(": ")[2]
    try:
        return float(text)
    except ValueError:
        return None


def _cells(name: str, text: str) -> dict[str, list[str]]:
    """Values of a golden text by column: the TSV's columns, the JSON's leaf
    paths with list indices dropped, or one column per line of cli.txt's
    sections."""
    if name.endswith(".tsv"):
        rows = [line.split("\t") for line in text.splitlines()]
        return {col: [r[j] if j < len(r) else "" for r in rows[1:]]
                for j, col in enumerate(rows[0])}
    columns: dict[str, list[str]] = {}
    if name.endswith(".json"):
        def walk(obj, path):
            if isinstance(obj, dict):
                for k, v in obj.items():
                    walk(v, f"{path}.{k}" if path else k)
            elif isinstance(obj, list):
                for v in obj:
                    walk(v, path)
            else:
                columns.setdefault(path, []).append(json.dumps(obj))
        walk(json.loads(text), "")
        return columns
    section = ""
    for line in text.splitlines():
        if line.startswith(("=== ", "--- file ")):
            section = line
        columns.setdefault(section, []).append(line)
    return columns


def report(name: str, old: str, new: str) -> list[str]:
    """One line per column whose values changed."""
    lines = []
    old_cols, new_cols = _cells(name, old), _cells(name, new)
    for col in dict.fromkeys([*old_cols, *new_cols]):
        a, b = old_cols.get(col, []), new_cols.get(col, [])
        changed = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
        if not changed:
            continue
        abs_max = rel_max = 0.0
        for x, y in zip(a, b):
            fx, fy = _number(x), _number(y)
            if x != y and fx is not None and fy is not None and math.isfinite(fx - fy):
                abs_max = max(abs_max, abs(fx - fy))
                rel_max = max(rel_max, abs(fx - fy) / max(abs(fx), abs(fy)))
        lines.append(f"{name}\t{col}\t{changed} of {max(len(a), len(b))} changed"
                     f"\tmax abs {abs_max!r}\tmax rel {rel_max!r}")
    return lines


def regenerate() -> None:
    for name, text in generate().items():
        path = HERE / name
        old = body(path) if path.exists() else None
        path.write_text(version_line() + text, encoding="utf-8", newline="\n")
        if old is None:
            print(f"{name}\tnew")
        else:
            print("\n".join(report(name, old, text) or [f"{name}\tunchanged"]))


if __name__ == "__main__":
    regenerate()

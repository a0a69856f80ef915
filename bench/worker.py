"""Run one workload in a fresh interpreter and write what it measured.

Started by run.py with the absolute ``src`` directory on PYTHONPATH:

  worker.py --inputs FILE --mode setup                 set up, report set-up time
  worker.py --inputs FILE --mode run --seconds S [--trace]
  worker.py --inputs FILE --mode recount               one traced pass, exact counts

Each workload is a closed loop with one client: the next operation starts
when the previous one returns. The loop runs whole passes over the
workload's inputs until ``--seconds`` have elapsed and at least MIN_OPS
operations are done, so every pass does the same work and the figures do
not depend on where the clock stops.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from tracing import CLI_SUBCOMMANDS, Tracer

rf = None  # the rankfit package, imported inside the timed set-up
MIN_OPS = 110  # so that at least ten latency samples lie beyond the 90th percentile


def _plain(x):
    """JSON-safe copy: -inf/inf/nan become strings."""
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


def _digest(result) -> str:
    if isinstance(result, dict) and "out" in result:
        result = {k: v for k, v in result.items() if k != "out"}  # fresh per invocation
    return hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()[:16]


class Op(NamedTuple):
    latency: float
    items: int
    status: str  # "ok", or why the op failed
    result: object


# ------------------------------------------------------------- in-process

class CorpusSelect:
    """parse -> select -> diagnose -> cross_apply, one dataset per op.

    Loads the optimizer (estimation) through selection; simulation and the
    CLI stay idle.
    """

    def __init__(self, spec):
        self.spec = spec
        self.datasets = [(Path(d["file"]).read_text(encoding="utf-8"), d["N"])
                         for d in spec["datasets"]]
        self.prev_best = None

    def setup(self):
        self._op(0, cross=False)
        self._op(len(self.datasets) - 1)  # leaves the fit that pass 1 starts from

    def ops(self):
        return range(len(self.datasets))

    def _op(self, i, cross=True):
        text, N = self.datasets[i]
        hist = rf.parse_dataset(text)
        table = rf.select(hist, N=N)
        fits = [r.fit for r in table.rows if r.fit is not None]
        try:
            diag = _plain(rf.diagnose(hist, fits).as_dict())
        except ValueError as exc:
            diag = {"rejected": str(exc)}
        # the previous dataset's AICc-best fit, applied to this one
        value = rf.cross_apply(self.prev_best, hist) if cross else None
        self.prev_best = table.row(table.best_by_aicc).fit
        return {
            "r_max": hist.r_max,
            "rows": [{"kind": r.kind.value, "error": r.error,
                      "fit": None if r.fit is None else _plain(r.fit.as_dict()),
                      "aicc": r.aicc, "bic": r.bic}
                     for r in table.rows],
            "best_aicc": table.best_by_aicc.value,
            "diagnose": diag,
            "cross_apply": _plain(value),
        }

    def run(self, i):
        return 1, self._op(i), "ok"


class RecoverySweep:
    """recovery_experiment calls: sampler, RankHistogram building and select."""

    def __init__(self, spec):
        self.spec = spec
        self.calls = spec["calls"]

    def setup(self):
        c = dict(self.calls[0], sizes=[3, 40], trials=1)
        self._call(c)

    def ops(self):
        return range(len(self.calls))

    def _call(self, c):
        model = rf.ModelParams(kind=c["kind"], R=c["R"], N=c["N"],
                               alpha=c.get("alpha"), q=c.get("q"))
        cfg = rf.SimulationConfig(seed=c["seed"], trials=c["trials"],
                                  sample_sizes=tuple(c["sizes"]), model=model)
        return _plain([s.as_dict() for s in rf.recovery_experiment(cfg).per_size])

    def run(self, i):
        c = self.calls[i]
        return c["trials"] * len(c["sizes"]), self._call(c), "ok"


class UndersamplingGrid:
    """undersampling_probability cells: the sampler alone, no fit at all."""

    def __init__(self, spec):
        self.spec = spec
        self.cells = spec["cells"]

    def setup(self):
        for c in (self.cells[0], self.cells[-1]):
            self._call(dict(c, n=min(c["n"], 1000), trials=2))

    def ops(self):
        return range(len(self.cells))

    def _call(self, c):
        model = rf.ModelParams(kind=c["kind"], R=c["R"], N=c["N"],
                               alpha=c.get("alpha"), q=c.get("q"))
        est = rf.undersampling_probability(model, c["n"], c["trials"], c["seed"])
        return {"estimate": est.estimate, "half_width": est.half_width}

    def run(self, i):
        c = self.cells[i]
        return c["trials"], self._call(c), "ok"


# ------------------------------------------------------------------- CLI

class CliSession:
    """One `python -m rankfit.cli` child at a time.

    Pays interpreter start, the numpy import, file I/O and manifest
    hashing, which no in-process workload pays.
    """

    def __init__(self, spec, work: Path):
        self.invocations = spec["invocations"]
        self.fit_invocation = spec["fit_invocation"]
        self.out_root = work / "cli_out"
        self.env = dict(os.environ)
        self.counter = 0
        self.fit_path = None

    def _child(self, args):
        return subprocess.run([sys.executable, "-m", "rankfit.cli", *args], env=self.env,
                              capture_output=True, text=True, errors="replace", timeout=60)

    def _fresh_dir(self) -> Path:
        self.counter += 1
        return self.out_root / f"{self.counter:05d}"

    def setup(self):
        """The first, untimed invocation; returns its wall time."""
        first = self.invocations[0]
        out = self._fresh_dir()
        t0 = time.perf_counter()
        proc = self._child([a.replace("{out}", str(out)) for a in first["args"]])
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up invocation failed: {proc.stderr.strip()}")
        return wall

    def ops(self):
        return range(len(self.invocations))

    def run(self, i):
        inv = self.invocations[i]
        out = self._fresh_dir()
        args = [a.replace("{out}", str(out)).replace("{fit}", str(self.fit_path))
                for a in inv["args"]]
        proc = self._child(args)
        if i == self.fit_invocation:
            self.fit_path = out / "fit.json"
        err_lines = proc.stderr.strip().splitlines()
        traceback = "Traceback (most recent call last)" in proc.stderr
        if traceback:
            status = "traceback"
        elif inv["expect"] == "ok":
            status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}"
        elif (proc.returncode == 1 and err_lines and err_lines[-1].startswith("error: ")
              and all(ln.startswith("note: ") for ln in err_lines[:-1])):
            status = "ok"  # parse notes may precede the one-line error
        else:
            status = f"exit {proc.returncode} without a one-line error message"
        result = {"subcommand": inv["subcommand"], "returncode": proc.returncode,
                  "traceback": traceback, "out": str(out),
                  "stderr_tail": err_lines[-1] if err_lines else ""}
        return 1, result, status


# ------------------------------------------------------------------ loop

def run_pass(runner, tracer=None):
    ops = []
    for i in runner.ops():
        if tracer is not None:
            tracer.op_index = i
        t0 = time.perf_counter()
        try:
            items, result, status = runner.run(i)
        except Exception as exc:  # an unexpected exception fails the op
            items, result, status = 0, None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        ops.append(Op(latency, items, status, result))
    if tracer is not None:
        tracer.end_pass()
    return ops


def timed_loop(runner, seconds, tracer=None, min_ops=0):
    """Whole passes until ``seconds`` elapse and ``min_ops`` ops are done.

    Returns (passes, wall seconds of each pass).
    """
    passes, pass_s = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(runner, tracer))
        pass_s.append(time.perf_counter() - t0)
        if t0 + pass_s[-1] - start >= seconds and sum(map(len, passes)) >= min_ops:
            return passes, pass_s


def summarize_passes(passes, pass_s, cli=False):
    first = passes[0]
    summary = {
        "pass_s": pass_s,
        "pass_items": [sum(op.items for op in p) for p in passes],
        "passes": len(passes),
        "latencies_s": [op.latency for p in passes for op in p],
        "statuses": [[op.status for op in p] for p in passes],
        "digests": [[_digest(op.result) for op in p] for p in passes],
        "first_pass": [op.result for op in first],
    }
    if cli:  # each pass's output directories, to compare what they hold
        summary["outs"] = [[op.result["out"] for op in p] for p in passes]
    return summary


def _median_wall(cmd, env, repeats=7):
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, capture_output=True, timeout=60, check=True)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def _bytes_written(ops) -> int:
    return sum(p.stat().st_size for op in ops for p in Path(op.result["out"]).rglob("*")
               if p.is_file())


def pass_counts(tracer: Tracer, passes, workload: str) -> list[dict]:
    """Exact counts of each pass: the tracer's, plus the CLI's own."""
    counts = tracer.per_pass_counts()
    if workload == "cli_session":
        for c, ops in zip(counts, passes):
            c["cli.tracebacks"] = sum(op.result["traceback"] for op in ops)
            c["cli.bytes_written"] = _bytes_written(ops)
    return counts


def cli_layer_metrics(runner: CliSession, passes) -> dict:
    walls = {s: [] for s in CLI_SUBCOMMANDS}
    for p in passes:
        for op in p:
            walls[op.result["subcommand"]].append(op.latency * 1e3)
    interp = _median_wall([sys.executable, "-c", "pass"], runner.env)
    imported = _median_wall([sys.executable, "-c", "import rankfit"], runner.env)
    m = {"cli.interp_ms": interp * 1e3, "cli.import_ms": (imported - interp) * 1e3}
    for s in CLI_SUBCOMMANDS:
        m[f"cli.wall_ms.{s}"] = statistics.median(walls[s]) if walls[s] else 0.0
    return m


def peak_bytes_per_draw(spec) -> float:
    """tracemalloc peak of one sample_counts call at the workload's largest n."""
    import tracemalloc

    cells = spec.get("cells") or [dict(c, n=max(c["sizes"])) for c in spec.get("calls", [])]
    if not cells:
        return 0.0
    c = max(cells, key=lambda c: c["n"])
    model = rf.ModelParams(kind=c["kind"], R=c["R"], N=c["N"],
                           alpha=c.get("alpha"), q=c.get("q"))
    tracemalloc.start()
    try:
        rf.simulation.sample_counts(model, c["n"], 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / c["n"]


def traced_pass_loop(runner, seconds, workload, spans_path):
    """The traced half of a --trace run: layer metrics and exact counts."""
    tracer = Tracer()
    if workload != "cli_session":
        tracer.install()
    try:
        passes, pass_s = timed_loop(runner, seconds, tracer)
    finally:
        tracer.uninstall()
    layers = {"cli.interp_ms": 0.0, "cli.import_ms": 0.0}
    layers.update({f"cli.wall_ms.{s}": 0.0 for s in CLI_SUBCOMMANDS})
    layers.update(tracer.layer_metrics())
    counts = pass_counts(tracer, passes, workload)
    if workload == "cli_session":
        layers.update(cli_layer_metrics(runner, passes))
        layers["simulation.peak_bytes_per_draw"] = 0.0
    else:
        layers["simulation.peak_bytes_per_draw"] = peak_bytes_per_draw(runner.spec)
    layers["cli.bytes_written"] = counts[0].get("cli.bytes_written", 0)
    layers["cli.tracebacks"] = counts[0].get("cli.tracebacks", 0)
    if spans_path:
        with open(spans_path, "w", encoding="utf-8") as fh:
            tracer.dump_spans(fh)
    return summarize_passes(passes, pass_s, workload == "cli_session"), layers, counts


RUNNERS = {"corpus_select": CorpusSelect, "recovery_sweep": RecoverySweep,
           "undersampling_grid": UndersamplingGrid}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--mode", choices=("setup", "run", "recount"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    inputs = Path(args.inputs)
    spec = json.loads(inputs.read_text(encoding="utf-8"))
    workload = spec["workload"]
    if workload == "cli_session":
        runner = CliSession(spec, inputs.parent)
        setup_s = runner.setup()
    else:
        runner = RUNNERS[workload](spec)
        t0 = time.perf_counter()
        global rf
        import rankfit as rf

        runner.setup()
        setup_s = time.perf_counter() - t0
    out = {"setup_s": setup_s}

    if args.mode == "recount":
        tracer = Tracer()
        if workload != "cli_session":
            tracer.install()
        out["counts"] = pass_counts(tracer, [run_pass(runner, tracer)], workload)
    elif args.mode == "run":
        seconds = args.seconds / 2 if args.trace else args.seconds
        # the untraced loop reports p90 latency, so it needs 10 ops beyond it
        passes, pass_s = timed_loop(runner, seconds, min_ops=0 if args.trace else MIN_OPS)
        out["run"] = summarize_passes(passes, pass_s, workload == "cli_session")
        who = resource.RUSAGE_CHILDREN if workload == "cli_session" else resource.RUSAGE_SELF
        out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        if args.trace:
            out["traced"], out["layers"], out["counts"] = traced_pass_loop(
                runner, seconds, workload, args.spans)
    Path(args.out).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

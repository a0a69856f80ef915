"""rankfit benchmark: one seeded workload, checked outputs, one JSON line.

Run from the root of a rankfit checkout:

  python3 bench/run.py --workload corpus_select --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 the per-layer ones,
the tracing overhead, and checks that exact counts repeat in a second
process. The last line of standard output is the JSON result; the lines
before it are a readable report, and the full record (environment,
metrics, counts) goes to .bench_out/.

Workloads (see BENCHMARK.json for the one-line reasons):
  corpus_select       loads histogram, estimation (the optimizer), selection
                      and diagnostics; bypasses simulation and the CLI
  recovery_sweep      loads simulation (sampler, per-trial histograms) and
                      selection/estimation behind it; bypasses the CLI
  undersampling_grid  loads the sampler alone; bypasses estimation, so an
                      optimizer change must read as no change here
  cli_session         loads the CLI process: interpreter start, numpy
                      import, file I/O, manifest hashing
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = (
    "corpus_select",       # loads the optimizer through select; simulation and CLI idle
    "recovery_sweep",      # loads sampler, per-trial histograms and select together
    "undersampling_grid",  # loads the sampler alone; bypasses estimation entirely
    "cli_session",         # loads process start, numpy import, file I/O; nothing in-process
)
SETUP_SAMPLES = 9    # fresh processes whose set-up time gives setup_s (median)
DEADLINE_S = 170.0   # the whole run, children included, ends before this


def declared_units(root: Path, key: str) -> dict:
    """name -> unit of the BENCHMARK.json metrics under ``key``."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[key]}


def environment(root: Path, seed: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((root / "src" / "rankfit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None  # a plain source checkout has no git metadata
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_commit": commit, "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), "seed": seed}


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def failures(workload: str, spec: dict, run: dict) -> tuple[int, int, list[str]]:
    """(failed ops, failed ops not explained by a known defect, notes) of a run.

    An op fails when it raised, exited wrongly, gave a wrong result, or
    gave a different result in a later pass than in the first.
    """
    import checks

    wrong = checks.CHECKS[workload](spec, run["first_pass"])
    n_ops = len(run["first_pass"])
    mismatched = {i for digests in run["digests"] for i in range(n_ops)
                  if digests[i] != run["digests"][0][i]}
    if workload == "cli_session":
        first = checks.output_digests(run["first_pass"])
        for outs in run["outs"][1:]:
            later = checks.output_digests([{"out": o} for o in outs])
            mismatched.update(i for i in range(n_ops) if later[i] != first[i])
    known_crash = [inv.get("known_defect") for inv in spec.get("invocations", [])] \
        or [None] * n_ops

    failed = unexpected = 0
    notes = {}
    for statuses in run["statuses"]:
        for i, status in enumerate(statuses):
            why = []
            if status != "ok":
                why.append(f"{checks.KNOWN}{known_crash[i]} ({status})" if known_crash[i]
                           else status)
            if i in wrong:
                why.append(wrong[i])
            if i in mismatched:
                why.append("result differs between passes")
            if why:
                failed += 1
                unexpected += not all(w.startswith(checks.KNOWN) for w in why)
                notes.setdefault(i, "; ".join(why))
    return failed, unexpected, [f"op {i}: {why}" for i, why in sorted(notes.items())]


# Every pass repeats the same operations, so each operation's latency is its
# median over the passes and the throughput is the median pass rate: the
# passes that a burst of load from outside the benchmark slowed are
# out-voted instead of skewing the figures.

def items_per_s(run: dict) -> float:
    """Median over passes of items done per second of the pass."""
    return statistics.median(n / t for n, t in zip(run["pass_items"], run["pass_s"]))


def op_latencies_ms(run: dict) -> list[float]:
    """Each operation's median latency over the passes, in ms."""
    n_ops = len(run["first_pass"])
    lat = run["latencies_s"]
    return [statistics.median(lat[i::n_ops]) * 1e3 for i in range(n_ops)]


def end_to_end_metrics(main_run: dict, setups: list, failed: int, attempted: int) -> dict:
    run = main_run["run"]
    op_ms = op_latencies_ms(run)
    return {
        "setup_s": statistics.median(setups),
        "items_per_s": items_per_s(run),
        "latency_p50_ms": percentile(op_ms, 50),
        "latency_p90_ms": percentile(op_ms, 90),
        "success_rate": 1.0 - failed / attempted,
        "peak_rss_mb": main_run["peak_rss_mb"],
    }


def layer_metrics(main_run: dict) -> dict:
    untraced = items_per_s(main_run["run"])
    traced = items_per_s(main_run["traced"])
    return {**main_run["layers"],
            "trace.items_per_s_untraced": untraced,
            "trace.items_per_s_traced": traced,
            "trace.overhead_pct": 100.0 * (untraced - traced) / untraced}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    started = time.perf_counter()
    root = Path.cwd()
    src = root / "src"
    if not (src / "rankfit" / "__init__.py").is_file():
        print("error: run from the root of a rankfit checkout (src/rankfit not found)",
              file=sys.stderr)
        return 2

    import inputs

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = Path(".bench_work") / tag
    out_dir = Path(".bench_out")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    env = dict(os.environ)
    # absolute, so children resolve rankfit whatever their working directory
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src.resolve())] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    try:
        inputs_path = inputs.make(args.workload, args.seed, work)
        spec = json.loads(inputs_path.read_text(encoding="utf-8"))

        def worker(mode: str, name: str, *extra: str) -> dict:
            out = work / f"{name}.json"
            remaining = DEADLINE_S - (time.perf_counter() - started)
            subprocess.run([sys.executable, str(HERE / "worker.py"), "--inputs", str(inputs_path),
                            "--mode", mode, "--out", str(out), *extra],
                           env=env, cwd=root, check=True, timeout=max(remaining, 1.0))
            return json.loads(out.read_text(encoding="utf-8"))

        if args.trace:
            main_run = worker("run", "run", "--seconds", repr(args.seconds), "--trace",
                              "--spans", str(out_dir / f"{tag}.spans.jsonl"))
            runs = [main_run["run"], main_run["traced"]]
        else:
            setups = [worker("setup", f"setup{k}")["setup_s"] for k in range(SETUP_SAMPLES - 1)]
            main_run = worker("run", "run", "--seconds", repr(args.seconds))
            setups.append(main_run["setup_s"])
            runs = [main_run["run"]]

        attempted = failed = unexpected = 0
        notes = []
        for run in runs:
            f, u, n = failures(args.workload, spec, run)
            attempted += run["passes"] * len(run["first_pass"])
            failed, unexpected = failed + f, unexpected + u
            notes.extend(n)
        notes = list(dict.fromkeys(notes))

        counts_repeat = True
        if args.trace:
            # exact counts: every traced pass, and one pass in a fresh process
            counts = main_run["counts"]
            recount = worker("recount", "recount")["counts"]
            counts_repeat = all(c == counts[0] for c in counts) and recount == counts[:1]
            if not counts_repeat:
                notes.append(f"exact counts differ: {counts[0]} vs {recount}")
            metrics = layer_metrics(main_run)
            units = declared_units(root, "per_layer")
        else:
            metrics = end_to_end_metrics(main_run, setups, failed, attempted)
            units = declared_units(root, "end_to_end")
        if set(metrics) != set(units):
            raise RuntimeError(f"metrics do not match BENCHMARK.json: {set(metrics) ^ set(units)}")
        correct = unexpected == 0 and counts_repeat

        record = {"workload": args.workload, "trace": args.trace,
                  "environment": environment(root, args.seed),
                  "correct": correct, "attempted": attempted, "failed": failed,
                  "error_rate": failed / attempted, "notes": notes,
                  "passes": [r["passes"] for r in runs],
                  "ops": [len(r["latencies_s"]) for r in runs],
                  "metrics": metrics, "counts": main_run.get("counts"),
                  "pooled_latency_ms": {f"p{q}": percentile(runs[0]["latencies_s"], q) * 1e3
                                        for q in (50, 90)}}
        (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"rankfit benchmark  workload={args.workload} seed={args.seed} trace={args.trace}")
    print("environment  " + " ".join(f"{k}={v}" for k, v in record["environment"].items()))
    print(f"ops attempted={attempted} failed={failed} error_rate={failed / attempted:.4f} "
          f"unexpected_failures={unexpected} passes={record['passes']}")
    if not args.trace:
        lat_ms = [t * 1e3 for t in runs[0]["latencies_s"]]
        beyond = sum(t > metrics["latency_p90_ms"] for t in lat_ms)
        print(f"latency samples={len(lat_ms)} beyond_p90={beyond} "
              f"pooled_p50_ms={percentile(lat_ms, 50):.4g} pooled_p90_ms={percentile(lat_ms, 90):.4g}")
    for note in notes[:20]:
        print(f"note  {note}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

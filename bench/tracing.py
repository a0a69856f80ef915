"""Layer spans recorded from outside rankfit, at the calls between its modules.

The tracer replaces module attributes through which one layer calls
another (``rankfit.selection.fit``, ``rankfit.simulation.sample_counts``,
...) with timing wrappers. Coarse calls become spans (name, start, end,
parent, pass, op); calls made about a thousand times per fit
(``log_likelihood``, ``pmf``) only bump a call counter and a time total,
since a span each would cost more than the call. Everything stays in
memory until the run ends. Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import Counter, defaultdict
from time import perf_counter

KINDS = ("zeta1", "zeta2", "geometric1", "geometric2")
CLI_SUBCOMMANDS = ("summarize", "fit", "select", "diagnose", "simulate", "cross-apply", "error")

# (module, attribute, span name); the same function reached through two
# modules gets one name
SPANS = (
    ("rankfit", "parse_dataset", "histogram.parse"),
    ("rankfit.estimation", "summarize", "histogram.summarize"),
    ("rankfit.selection", "summarize", "histogram.summarize"),
    ("rankfit.selection", "fit", "estimation.fit"),
    ("rankfit", "select", "selection.select"),
    ("rankfit.simulation", "select", "selection.select"),
    ("rankfit", "cross_apply", "selection.cross_apply"),
    ("rankfit", "diagnose", "diagnostics.diagnose"),
    ("rankfit.simulation", "sample_counts", "simulation.sample_counts"),
    ("rankfit.simulation", "sample", "simulation.sample"),
    ("rankfit", "recovery_experiment", "simulation.recovery"),
    ("rankfit", "undersampling_probability", "simulation.undersampling"),
)
COUNTERS = (
    ("rankfit.estimation", "log_likelihood", "models.loglik"),
    ("rankfit.selection", "log_likelihood", "models.loglik"),
    ("rankfit.simulation", "pmf", "models.pmf"),
)

# counts that must repeat exactly for the same inputs
EXACT_COUNTS = (
    "estimation.fit_calls", "estimation.evals", "estimation.evals_max",
    "estimation.nonconverged", "models.loglik_calls", "models.pmf_calls",
    "histogram.summarize_calls", "selection.neg_inf", "selection.row_errors",
    "diagnostics.rejected", "simulation.sample_counts_calls", "simulation.draws",
    "simulation.failed_trials",
)


def _note(name: str, args, out) -> dict | None:
    """Facts about one call that the layer metrics need."""
    if name == "estimation.fit":
        return {"kind": str(getattr(args[0], "value", args[0])),
                "iterations": out.iterations, "converged": out.converged}
    if name == "selection.select":
        return {"row_errors": sum(r.error is not None for r in out.rows)}
    if name == "selection.cross_apply":
        return {"neg_inf": out == -math.inf}
    if name == "simulation.sample_counts":
        return {"n": int(args[1])}
    if name == "simulation.recovery":
        return {"failed_trials": sum(s.failures for s in out.per_size)}
    return None


class Tracer:
    def __init__(self):
        # [name, start, end, parent, pass, op, note]; the loop ends only at the
        # end of a pass, so every span belongs to a completed pass
        self.spans: list[list] = []
        self.counters: dict[str, list] = {}  # name -> [calls, seconds]
        self.counter_passes: list[dict] = []  # counter snapshot after each pass
        self.pass_index = 0
        self.op_index = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self):
        import importlib

        for module_name, attr, name in SPANS:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self._span(name, getattr(module, attr)))
        for module_name, attr, name in COUNTERS:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self._counter(name, getattr(module, attr)))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _patch(self, module, attr, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   self.pass_index, self.op_index, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                rec[2] = perf_counter()
                rec[6] = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
            rec[2] = perf_counter()
            rec[6] = _note(name, args, out)
            return out

        return wrapper

    def _counter(self, name, fn):
        acc = self.counters.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            t = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                acc[1] += perf_counter() - t
                acc[0] += 1

        return wrapper

    def end_pass(self):
        self.counter_passes.append({k: list(v) for k, v in self.counters.items()})
        self.pass_index += 1

    # ------------------------------------------------------------ analysis

    def per_pass_counts(self) -> list[dict]:
        """The EXACT_COUNTS of every completed pass, in pass order."""
        passes = [Counter() for _ in self.counter_passes]
        for name, _, _, _, p, _, note in self.spans:
            c, note = passes[p], note or {}
            if name == "histogram.summarize":
                c["histogram.summarize_calls"] += 1
            elif name == "estimation.fit" and "iterations" in note:
                c["estimation.fit_calls"] += 1
                c["estimation.evals"] += note["iterations"]
                c["estimation.evals_max"] = max(c["estimation.evals_max"], note["iterations"])
                c["estimation.nonconverged"] += not note["converged"]
            elif name == "selection.select" and "row_errors" in note:
                c["selection.row_errors"] += note["row_errors"]
            elif name == "selection.cross_apply" and "neg_inf" in note:
                c["selection.neg_inf"] += note["neg_inf"]
            elif name == "diagnostics.diagnose" and "error" in note:
                c["diagnostics.rejected"] += 1
            elif name == "simulation.sample_counts" and "n" in note:
                c["simulation.sample_counts_calls"] += 1
                c["simulation.draws"] += note["n"]
            elif name == "simulation.recovery" and "failed_trials" in note:
                c["simulation.failed_trials"] += note["failed_trials"]
        previous = {}
        for c, snap in zip(passes, self.counter_passes):
            for key, metric in (("models.loglik", "models.loglik_calls"),
                                ("models.pmf", "models.pmf_calls")):
                calls = snap.get(key, [0, 0.0])[0]
                c[metric] = calls - previous.get(key, 0)
            previous = {k: v[0] for k, v in snap.items()}
        return [{k: int(c.get(k, 0)) for k in EXACT_COUNTS} for c in passes]

    def layer_metrics(self) -> dict:
        """Per-layer metrics: times in seconds per pass, counts per pass."""
        n_pass = max(len(self.counter_passes), 1)
        child_time = defaultdict(float)
        sample_counts_child = defaultdict(float)
        for s in self.spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
                if s[0] == "simulation.sample_counts":
                    sample_counts_child[s[3]] += s[2] - s[1]

        total = defaultdict(float)
        self_time = defaultdict(float)
        hist_build = 0.0
        fit_ms = defaultdict(list)
        sc_n, sc_t = [], []
        for i, s in enumerate(self.spans):
            name, dur, note = s[0], s[2] - s[1], s[6] or {}
            total[name] += dur
            self_time[name] += dur - child_time[i]
            if name == "simulation.sample":
                hist_build += dur - sample_counts_child[i]
            elif name == "estimation.fit" and "kind" in note:
                fit_ms[note["kind"]].append(dur * 1e3)
            elif name == "simulation.sample_counts" and "n" in note:
                sc_n.append(note["n"])
                sc_t.append(dur)

        counts = self.per_pass_counts()
        first = counts[0] if counts else {k: 0 for k in EXACT_COUNTS}
        last_snap = self.counter_passes[-1] if self.counter_passes else {}
        loglik_s = last_snap.get("models.loglik", [0, 0.0])[1]

        if len(set(sc_n)) >= 2:
            import numpy as np  # not at module level: set-up time counts the numpy import

            slope, intercept = np.polyfit(np.asarray(sc_n, float), np.asarray(sc_t), 1)
        else:
            slope = intercept = 0.0
        sc_total = total["simulation.sample_counts"]
        draws_total = sum(sc_n)
        fits = first["estimation.fit_calls"]

        m = {
            "histogram.parse_s": total["histogram.parse"] / n_pass,
            "histogram.summarize_s": total["histogram.summarize"] / n_pass,
            "histogram.summarize_calls": first["histogram.summarize_calls"],
            "models.loglik_calls": first["models.loglik_calls"],
            "models.loglik_s": loglik_s / n_pass,
            "models.pmf_calls": first["models.pmf_calls"],
            "estimation.fit_calls": fits,
            "estimation.fit_s": total["estimation.fit"] / n_pass,
            "estimation.evals_per_fit": first["estimation.evals"] / fits if fits else 0.0,
            "estimation.evals_max": first["estimation.evals_max"],
            "estimation.nonconverged": first["estimation.nonconverged"],
            "selection.select_s": total["selection.select"] / n_pass,
            "selection.self_s": self_time["selection.select"] / n_pass,
            "selection.row_errors": first["selection.row_errors"],
            "selection.cross_apply_s": total["selection.cross_apply"] / n_pass,
            "selection.neg_inf": first["selection.neg_inf"],
            "diagnostics.diagnose_s": total["diagnostics.diagnose"] / n_pass,
            "diagnostics.rejected": first["diagnostics.rejected"],
            "simulation.sample_counts_calls": first["simulation.sample_counts_calls"],
            "simulation.sample_counts_s": sc_total / n_pass,
            "simulation.draws": first["simulation.draws"],
            "simulation.draws_per_s": draws_total / sc_total if sc_total > 0 else 0.0,
            "simulation.sample_fixed_us": float(intercept) * 1e6,
            "simulation.sample_ns_per_draw": float(slope) * 1e9,
            "simulation.hist_build_s": hist_build / n_pass,
            "simulation.recovery_self_s": self_time["simulation.recovery"] / n_pass,
            "simulation.failed_trials": first["simulation.failed_trials"],
        }
        for kind in KINDS:
            m[f"estimation.fit_ms_p50.{kind}"] = (
                statistics.median(fit_ms[kind]) if fit_ms[kind] else 0.0)
        return m

    def dump_spans(self, fh):
        """Write spans as JSON lines: name, start, end, parent, pass, op, note."""
        for s in self.spans:
            fh.write(json.dumps(s) + "\n")

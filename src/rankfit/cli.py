"""Command-line interface: summarize, fit, select, diagnose, simulate, cross-apply.

Every command writes its primary outputs plus a run manifest recording the
command, input digests, parameters and produced files. Outputs are fully
determined by inputs and flags, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from pathlib import Path

from . import __version__
from ._io import json_text, read_json_object, read_text, tsv, write_text
from .diagnostics import DEFAULT_R2_MARGIN, diagnose, emit_plot_data
from .estimation import FitResult, fit
from .histogram import RankHistogram, parse_dataset, summarize
from .models import DEFAULT_DOMAIN_CEILING, ModelKind, ModelParams, _whole
from .selection import (
    DEFAULT_ENSEMBLE,
    best_params_dict,
    best_params_tsv,
    cross_apply,
    select,
    selection_table_dict,
    selection_table_tsv,
)
from .simulation import (SimulationConfig, _draw_count, recovery_experiment,
                         undersampling_probability)

DEFAULT_SEED = 12345
KIND_NAMES = tuple(k.value for k in ModelKind)


def _die(message: str, code: int = 1):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _loglik_json(value: float) -> dict:
    # JSON numbers cannot express -inf; ship the string form plus a flag
    if value == -math.inf:
        return {"loglik": "-inf", "finite": False}
    return {"loglik": value, "finite": True}


def _write_json(obj, path: Path) -> str:
    """Write ``obj`` to ``path`` as strict JSON; returns the text written."""
    text = json_text(obj)
    write_text(path, text)
    return text


def _write_manifest(path: Path, command: str, inputs: list[str],
                    parameters: dict, outputs: list[Path]):
    manifest = {
        "command": command,
        "inputs": [{"path": p, "sha256": _sha256(p)} for p in inputs],
        "parameters": parameters,
        "version": __version__,
        "outputs": [str(p) for p in outputs],
    }
    _write_json(manifest, path)


def _parse_input(args) -> RankHistogram:
    hist = parse_dataset(read_text(args.input), delimiter=args.delimiter)
    for note in hist.warnings:
        print(f"note: {note}", file=sys.stderr)
    return hist


def _ensemble(names) -> tuple:
    """Model kinds from a comma-separated --ensemble value or a config list."""
    if not names:
        return DEFAULT_ENSEMBLE
    kinds = []
    for name in names.split(",") if isinstance(names, str) else names:
        name = str(name).strip()
        if name not in KIND_NAMES:
            _die(f"unknown model kind {name!r}; valid kinds: {', '.join(KIND_NAMES)}")
        kinds.append(ModelKind(name))
    return tuple(kinds)


def cmd_summarize(args) -> int:
    hist = _parse_input(args)
    stats = summarize(hist).as_dict()
    out = Path(args.out)
    text = _write_json(stats, out)
    sys.stdout.write(tsv(stats, [stats.values()]) if args.format == "tsv" else text)
    _write_manifest(Path(str(out) + ".manifest.json"), "summarize", [args.input],
                    {"input": args.input, "delimiter": args.delimiter,
                     "format": args.format, "out": str(out)}, [out])
    return 0


def cmd_fit(args) -> int:
    hist = _parse_input(args)
    result = fit(ModelKind(args.model), hist, N=args.N)
    out = Path(args.out)
    _write_json(result.as_dict(), out)
    p = result.params
    print(f"{p.kind.value}: {p.kind.family.scalar_name}={p.scalar!r} R={p.R} N={p.N} "
          f"loglik={result.loglik!r} converged={result.converged}")
    for note in result.warnings:
        print(f"note: {note}", file=sys.stderr)
    _write_manifest(Path(str(out) + ".manifest.json"), "fit", [args.input],
                    {"input": args.input, "model": args.model, "N": args.N,
                     "delimiter": args.delimiter, "out": str(out)}, [out])
    return 0


def cmd_select(args) -> int:
    hist = _parse_input(args)
    table = select(hist, N=args.N, ensemble=_ensemble(args.ensemble))
    out_dir = Path(args.out_dir)
    outputs = {
        "selection.tsv": selection_table_tsv(table),
        "best_params.tsv": best_params_tsv(table),
        "selection.json": json_text(selection_table_dict(table)),
        "best_params.json": json_text(best_params_dict(table)),
    }
    for name, text in outputs.items():
        write_text(out_dir / name, text)
    sys.stdout.write(outputs[f"selection.{args.format}"])
    print(f"best by AICc: {table.best_by_aicc.value}", file=sys.stderr)
    print(f"best by BIC:  {table.best_by_bic.value}", file=sys.stderr)
    _write_manifest(out_dir / "run_manifest.json", "select", [args.input],
                    {"input": args.input, "N": args.N, "ensemble": args.ensemble,
                     "delimiter": args.delimiter, "format": args.format,
                     "out_dir": str(out_dir)}, [out_dir / name for name in outputs])
    return 0


def cmd_diagnose(args) -> int:
    hist = _parse_input(args)
    s = summarize(hist)
    fits = [fit(k, s, N=args.N) for k in _ensemble(args.ensemble)]
    report = diagnose(hist, fits, margin=args.margin)
    out_dir = Path(args.out_dir)
    files = emit_plot_data(hist, fits, out_dir)
    report_path = out_dir / "diagnostic_report.json"
    sys.stdout.write(_write_json(report.as_dict(), report_path))
    _write_manifest(out_dir / "run_manifest.json", "diagnose", [args.input],
                    {"input": args.input, "N": args.N, "margin": args.margin,
                     "ensemble": args.ensemble, "delimiter": args.delimiter,
                     "out_dir": str(out_dir)}, files + [report_path])
    return 0


def _simulation_settings(args) -> dict:
    """The flags as one settings dict; keys of a --config object override them."""
    settings = {
        "mode": args.mode,
        "model": {"kind": args.model, "R": args.N if args.R is None else args.R,
                  "N": args.N, "alpha": args.alpha, "q": args.q},
        "seed": DEFAULT_SEED if args.seed is None else args.seed,
        "trials": args.trials,
        # whole numbers stay exact ints: float() rounds them above 2**53
        "sample_sizes": [int(s) if s.strip().isdigit() else float(s)
                         for s in args.sizes.split(",")] if args.sizes else None,
        "n": args.n,
        "ensemble": args.ensemble,
    }
    if args.config:
        settings.update(read_json_object(args.config))
    return settings


def cmd_simulate(args) -> int:
    try:
        settings = _simulation_settings(args)
        if settings["model"]["kind"] is None:
            _die("simulate needs --model (or a model in the --config file)")
        mode, n = settings["mode"], settings["n"]
        model = ModelParams.from_dict(settings["model"])
        seed = _whole(settings["seed"], "seed", 0, 2 ** 64)
        trials = _whole(settings["trials"], "trials", 1, 2 ** 63)
        sizes = None if settings["sample_sizes"] is None else tuple(settings["sample_sizes"])
        ensemble = _ensemble(settings["ensemble"])
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        _die(f"bad simulation configuration: {exc}")

    if mode == "undersampling":
        if n is None:
            _die("undersampling mode needs --n (draws per trial)")
        n, sizes = _draw_count(n, "n"), None
        est = undersampling_probability(model, n, trials, seed)
        payload = {"mode": "undersampling", "model": model.as_dict(), "n": n,
                   "trials": trials, "seed": seed, **est._asdict()}
    elif mode == "recovery":
        if not sizes:
            _die("recovery mode needs --sizes (comma-separated draw counts)")
        cfg = SimulationConfig(seed=seed, trials=trials, sample_sizes=sizes, model=model)
        n, sizes = None, cfg.sample_sizes
        stats = recovery_experiment(cfg, ensemble=ensemble)
        payload = {"mode": "recovery", **stats.as_dict()}
    else:
        _die(f"unknown simulate mode {mode!r}")
    out = Path(args.out)
    sys.stdout.write(_write_json(payload, out))
    _write_manifest(Path(str(out) + ".manifest.json"), "simulate",
                    [args.config] if args.config else [],
                    {"mode": mode, "model": model.as_dict(), "seed": seed,
                     "trials": trials, "sizes": sizes, "n": n,
                     "out": str(out)}, [out])
    return 0


def cmd_cross_apply(args) -> int:
    fit_path = Path(args.fit)
    stored = read_json_object(fit_path)
    try:
        fitted = FitResult.from_dict(stored)
    except (ValueError, KeyError, TypeError) as exc:
        _die(f"unreadable fit file {fit_path}: {exc}")
    hist = _parse_input(args)
    value = cross_apply(fitted, hist)
    payload = {
        "fit": fitted.params.as_dict(),
        "input": args.input,
        **_loglik_json(value),
    }
    out = Path(args.out)
    sys.stdout.write(_write_json(payload, out))
    _write_manifest(Path(str(out) + ".manifest.json"), "cross-apply",
                    [str(fit_path), args.input],
                    {"fit": str(fit_path), "input": args.input,
                     "delimiter": args.delimiter, "out": str(out)}, [out])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankfit",
        description="Fit right-truncated zeta/geometric models to rank-frequency "
                    "data, select among them with AICc/BIC, and probe them with "
                    "diagnostics and simulation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("--input", required=True, help="rank-frequency dataset (label<SEP>frequency per line)")
        p.add_argument("--delimiter", default="\t", help="field separator (default: tab)")

    p = sub.add_parser("summarize", help="frequency moments of a dataset")
    add_input(p)
    p.add_argument("--out", default="summary.json", help="summary JSON path")
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("fit", help="maximum-likelihood fit of one model kind")
    add_input(p)
    p.add_argument("--model", required=True, choices=KIND_NAMES)
    p.add_argument("--N", type=int, default=DEFAULT_DOMAIN_CEILING,
                   help="domain ceiling (default: 24)")
    p.add_argument("--out", default="fit.json", help="fit JSON path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("select", help="fit the ensemble and rank it by AICc/BIC")
    add_input(p)
    p.add_argument("--N", type=int, default=DEFAULT_DOMAIN_CEILING)
    p.add_argument("--ensemble", default=None,
                   help="comma-separated model kinds (default: all four)")
    p.add_argument("--out-dir", default="selection_out", help="output directory")
    p.add_argument("--format", choices=("tsv", "json"), default="tsv",
                   help="stdout rendering of the selection table")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("diagnose", help="scale diagnostics and plot data")
    add_input(p)
    p.add_argument("--N", type=int, default=DEFAULT_DOMAIN_CEILING)
    p.add_argument("--ensemble", default=None)
    p.add_argument("--margin", type=float, default=DEFAULT_R2_MARGIN,
                   help="r2 margin for the verdict rule (default: 0.02)")
    p.add_argument("--out-dir", default="diagnose_out")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("simulate", help="Monte Carlo recovery or undersampling runs")
    p.add_argument("--mode", choices=("recovery", "undersampling"), default="recovery")
    p.add_argument("--config", default=None, help="JSON object whose keys override the matching flags")
    p.add_argument("--model", choices=KIND_NAMES, default=None)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--R", type=int, default=None)
    p.add_argument("--N", type=int, default=DEFAULT_DOMAIN_CEILING)
    p.add_argument("--sizes", default=None, help="comma-separated sample sizes (recovery mode)")
    p.add_argument("--n", type=int, default=None, help="draws per trial (undersampling mode)")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=None,
                   help=f"RNG seed (default: {DEFAULT_SEED})")
    p.add_argument("--ensemble", default=None)
    p.add_argument("--out", default="simulation.json")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("cross-apply", help="score a stored fit against another dataset")
    p.add_argument("--fit", required=True, help="fit JSON produced by the fit command")
    add_input(p)
    p.add_argument("--out", default="cross_apply.json")
    p.set_defaults(func=cmd_cross_apply)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, MemoryError) as exc:
        _die(str(exc))


if __name__ == "__main__":
    sys.exit(main())

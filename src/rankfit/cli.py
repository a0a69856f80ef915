"""Command-line interface: summarize, fit, select, diagnose, simulate, cross-apply.

Every command writes its primary outputs and returns what it read and wrote;
``main`` then writes the run manifest (command, input digests, parameters and
produced files) and is the one place a failure becomes an ``error:`` line. A
failed run prints that line alone; notes on stderr wait for success. Each JSON
input's reader names the field at fault; ``simulate`` and ``cross-apply`` only
prefix it with ``bad simulation configuration:`` or ``unreadable fit file F:``.
Outputs are fully determined by inputs and flags, so reruns are byte-identical.

A run loads only the modules its subcommand runs: ``_io``, ``histogram`` and
``models`` always, the rest inside each ``cmd_*``, so ``summarize`` imports
nothing more, and only ``simulate`` loads numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import sys
from pathlib import Path

from . import __version__
from ._io import json_object, json_text, read_json_object, read_text, tsv, write_text
from .histogram import RankHistogram, parse_dataset, summarize
from .models import DEFAULT_DOMAIN_CEILING, ModelKind, ModelParams, _whole

DEFAULT_SEED = 12345
KIND_NAMES = tuple(k.value for k in ModelKind)


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


def _write_manifest(args, inputs: list[str], outputs: list[Path], parameters=None):
    """Write run_manifest.json in --out-dir, or else <out>.manifest.json; its
    parameters are the parsed flags unless the command passes its own."""
    import hashlib
    path = (Path(args.out_dir, "run_manifest.json") if hasattr(args, "out_dir")
            else Path(f"{Path(args.out)}.manifest.json"))
    if parameters is None:
        parameters = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    _write_json({
        "command": args.command,
        "inputs": [{"path": p, "sha256": hashlib.sha256(Path(p).read_bytes()).hexdigest()}
                   for p in inputs],
        "parameters": parameters,
        "version": __version__,
        "outputs": [str(p) for p in outputs],
    }, path)


def _parse_input(args) -> RankHistogram:
    hist = parse_dataset(read_text(args.input), delimiter=args.delimiter)
    for note in hist.warnings:
        print(f"note: {note}", file=sys.stderr)
    return hist


def _ensemble(names) -> tuple:
    """Model kinds from a comma-separated --ensemble value or a config list (any
    other value is a list of one); only an absent value means all four kinds."""
    if names is None:
        return tuple(ModelKind)
    names = [name.strip() for name in names.split(",")] if isinstance(names, str) else names
    try:
        return tuple(map(ModelKind, names if isinstance(names, list) else [names]))
    except ValueError as exc:
        raise ValueError(f"ensemble: {exc}") from None


def cmd_summarize(args):
    stats = summarize(_parse_input(args)).as_dict()
    out = Path(args.out)
    text = _write_json(stats, out)
    sys.stdout.write(tsv(stats, [stats.values()]) if args.format == "tsv" else text)
    return [args.input], [out]


def cmd_fit(args):
    from .estimation import fit
    hist = _parse_input(args)
    result = fit(ModelKind(args.model), hist, N=args.N)
    out = Path(args.out)
    _write_json(result.as_dict(), out)
    p = result.params
    print(f"{p.kind.value}: {p.kind.family.scalar_name}={p.scalar!r} R={p.R} N={p.N} "
          f"loglik={result.loglik!r} converged={result.converged}")
    for note in result.warnings:
        print(f"note: {note}", file=sys.stderr)
    return [args.input], [out]


def cmd_select(args):
    from .selection import (best_params_dict, best_params_tsv, select, selection_table_dict,
                            selection_table_tsv)
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
    return [args.input], [out_dir / name for name in outputs]


def cmd_diagnose(args):
    from .diagnostics import diagnose, emit_plot_data
    from .estimation import fit
    hist = _parse_input(args)
    s = summarize(hist)
    fits = [fit(k, s, N=args.N) for k in _ensemble(args.ensemble)]
    report = diagnose(hist, fits)
    out_dir = Path(args.out_dir)
    files = emit_plot_data(hist, fits, out_dir)
    report_path = out_dir / "diagnostic_report.json"
    sys.stdout.write(_write_json(report.as_dict(), report_path))
    return [args.input], files + [report_path]


def _simulation_settings(args) -> tuple:
    """The checked settings (mode, model, seed, trials, n, sample sizes, ensemble): the
    flags, overridden by a --config object's keys, each checked if given, used or not."""
    from .simulation import _sample_sizes
    # --sizes: digits stay exact ints (float() rounds above 2**53); a non-number stays text
    flag_sizes = args.sizes and args.sizes.split(",")
    for i, text in enumerate(flag_sizes or ()):
        with contextlib.suppress(ValueError):
            flag_sizes[i] = int(text) if text.strip().isdigit() else float(text)
    settings = {
        "mode": args.mode,
        "model": None if args.model is None else {
            "kind": args.model, "R": args.N if args.R is None else args.R, "N": args.N,
            "alpha": args.alpha, "q": args.q},
        "seed": DEFAULT_SEED if args.seed is None else args.seed,
        "trials": args.trials,
        "sample_sizes": flag_sizes or None,
        "n": args.n,
        "ensemble": args.ensemble,
    }
    if args.config:
        settings.update(json_object(read_json_object(args.config), (), settings, "config"))
    if settings["model"] is None:
        raise ValueError("simulate needs --model (or a model in the --config file)")
    n, sizes = settings["n"], settings["sample_sizes"]
    return (settings["mode"], ModelParams.from_dict(settings["model"]),
            _whole(settings["seed"], "seed", 0, 2 ** 64),
            _whole(settings["trials"], "trials", 1, 2 ** 63),
            None if n is None else _whole(n, "n", 1, 2 ** 63),
            None if sizes is None else _sample_sizes(sizes), _ensemble(settings["ensemble"]))


def cmd_simulate(args):
    from .simulation import SimulationConfig, recovery_experiment, undersampling_probability
    # run: the checked settings of the mode, which the output and the manifest both record
    try:
        mode, model, seed, trials, n, sizes, ensemble = _simulation_settings(args)
        if mode == "undersampling":
            if n is None:
                raise ValueError("undersampling mode needs --n (draws per trial)")
            run = {"mode": mode, "model": model.as_dict(), "n": n, "trials": trials, "seed": seed}
        elif mode == "recovery":
            if sizes is None:
                raise ValueError("recovery mode needs --sizes (comma-separated sample sizes)")
            cfg = SimulationConfig(seed=seed, trials=trials, sample_sizes=sizes, model=model,
                                   ensemble=ensemble)
            run = {"mode": mode, **cfg.as_dict()}
        else:
            raise ValueError(f"unknown simulate mode {mode!r}")
    except ValueError as exc:
        raise ValueError(f"bad simulation configuration: {exc}") from None
    results = (recovery_experiment(cfg).as_dict() if mode == "recovery"
               else undersampling_probability(model, n, trials, seed)._asdict())
    out = Path(args.out)
    sys.stdout.write(_write_json({**run, **results}, out))
    return [args.config] if args.config else [], [out], {**run, "out": args.out}


def cmd_cross_apply(args):
    from .estimation import FitResult
    from .selection import cross_apply
    fit_path = Path(args.fit)
    stored = read_json_object(fit_path)
    try:
        fitted = FitResult.from_dict(stored)
    except ValueError as exc:
        raise ValueError(f"unreadable fit file {fit_path}: {exc}") from None
    payload = {"fit": fitted.params.as_dict(), "input": args.input,
               **_loglik_json(cross_apply(fitted, _parse_input(args)))}
    out = Path(args.out)
    sys.stdout.write(_write_json(payload, out))
    return [str(fit_path), args.input], [out]


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
        with contextlib.redirect_stderr(io.StringIO()) as notes:
            _write_manifest(args, *args.func(args))
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
    sys.stderr.write(notes.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Output checks, computed independently of rankfit (numpy only).

Each ``check_<workload>`` takes the workload's inputs and the results of
the first pass and returns {op index: reason} for every operation whose
output is wrong. The checks run after the timed loop.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from inputs import model_pmf

ALPHA_INTERVAL = (0.0, 1.0e6)
Q_INTERVAL = (1e-9, 1.0 - 1e-9)
PARAM_TOL = 1e-6   # criterion-04 tolerance on the fitted scalar
LOGLIK_TOL = 1e-8  # the fit's log-likelihood may not fall below the grid's by more
R2_MARGIN = 0.02   # rankfit.diagnose default verdict margin
# Reasons starting with this mark a defect of rankfit already on record:
# the op still counts as failed, but the run stays "correct".
KNOWN = "known defect: "
# recovery_sweep: the true kind's median absolute scalar error at 10**6
# draws must stay under this (its standard error there is about 1e-3)
RECOVERY_ERROR_BOUND = 0.02


# ------------------------------------------------------------ histograms

def read_frequencies(text: str) -> list[float]:
    """label<TAB>frequency records, header skipped, zeros dropped, sorted."""
    freqs = []
    for k, line in enumerate(ln for ln in text.splitlines() if ln.strip()):
        _, field = line.split("\t")
        try:
            f = float(field)
        except ValueError:
            if k == 0:
                continue
            raise
        if f > 0:
            freqs.append(f)
    return sorted(freqs, reverse=True)


class Stats:
    def __init__(self, freqs):
        self.freqs = freqs
        self.r_max = len(freqs)
        self.F0 = math.fsum(freqs)
        self.F1 = math.fsum(f * r for r, f in enumerate(freqs, start=1))
        self.FlogR = math.fsum(f * math.log(r) for r, f in enumerate(freqs, start=1))


# ---------------------------------------------------------- likelihoods

def zeta_loglik(alpha, R: int, s: Stats):
    """-alpha FlogR - F0 log H(alpha, R), vectorized over alpha."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    logr = np.log(np.arange(2, R + 1, dtype=float))
    tail = np.exp(-np.outer(alpha, logr)).sum(axis=1) if R > 1 else np.zeros(len(alpha))
    return -alpha * s.FlogR - s.F0 * np.log1p(tail)


def geometric_loglik(q, R: int, s: Stats):
    """F0 log c(q, R) + (F1 - F0) log(1 - q), vectorized over q."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    log1mq = np.log1p(-q)
    c = np.ones_like(q) if R == 1 else q / -np.expm1(R * log1mq)
    return s.F0 * np.log(c) + (s.F1 - s.F0) * log1mq


def loglik(kind: str, scalar: float, R: int, s: Stats) -> float:
    if s.r_max > R:
        return -math.inf
    f = zeta_loglik if kind.startswith("zeta") else geometric_loglik
    return float(f(scalar, R, s)[0])


def grid_argmax(kind: str, R: int, s: Stats, points: int = 2001, width: float = 1e-10):
    """Dense-grid maximizer of the log-likelihood on the package's interval.

    Both log-likelihoods are unimodal in the scalar (concave in the
    natural parameter), so each stage keeps the two grid cells around the
    best point and re-grids them, 1000x finer, until the cells are
    narrower than ``width``. Returns (argmax, max log-likelihood).
    """
    f = zeta_loglik if kind.startswith("zeta") else geometric_loglik
    lo, hi = ALPHA_INTERVAL if kind.startswith("zeta") else Q_INTERVAL
    while True:
        x = np.linspace(lo, hi, points)
        v = f(x, R, s)
        k = int(np.argmax(v))
        if x[1] - x[0] <= width:
            return float(x[k]), float(v[k])
        lo, hi = x[max(k - 1, 0)], x[min(k + 1, points - 1)]


def _close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


# -------------------------------------------------------- corpus_select

def _check_fit(fit: dict, N: int, s: Stats) -> str | None:
    kind = fit["kind"]
    p = fit["params"]
    two = kind.endswith("2")
    R = s.r_max if two else N
    if p["R"] != R:
        return f"{kind}: R={p['R']}, expected {R}"
    scalar = p["alpha"] if kind.startswith("zeta") else p["q"]
    if not _close(fit["loglik"], loglik(kind, scalar, R, s)):
        return f"{kind}: reported loglik {fit['loglik']!r} is not the loglik of its params"
    if s.r_max == 1:
        # all mass on rank 1: no finite scalar maximizes the likelihood
        if two:  # documented degenerate case
            return None if (not fit["converged"] and fit["loglik"] == 0.0) else \
                f"{kind}: r_max=1 fit should be flagged unconverged with loglik 0"
        # the fit must approach the supremum 0 (alpha -> inf, q -> 1)
        return None if fit["loglik"] >= -LOGLIK_TOL * s.F0 else \
            f"{kind}: r_max=1 loglik {fit['loglik']!r} is not near its supremum 0"
    best_x, best_ll = grid_argmax(kind, R, s)
    if fit["loglik"] < best_ll - LOGLIK_TOL:
        return f"{kind}: loglik {fit['loglik']!r} below grid maximum {best_ll!r}"
    if abs(scalar - best_x) > PARAM_TOL:
        return f"{kind}: scalar {scalar!r} differs from grid argmax {best_x!r}"
    return None


def _ols(x, y):
    x, y = np.asarray(x, float), np.asarray(y, float)
    if np.all(y == y[0]):
        return 0.0, 1.0
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (intercept + slope * x)
    return float(slope), float(1.0 - (resid @ resid) / ((y - y.mean()) @ (y - y.mean())))


def _check_diagnose(diag: dict, fits: list[dict], s: Stats) -> str | None:
    if s.r_max == 1:
        return None if "rejected" in diag else "diagnose accepted a single-rank histogram"
    if "rejected" in diag:
        return f"diagnose rejected r_max={s.r_max}: {diag['rejected']}"
    r = np.arange(1, s.r_max + 1, dtype=float)
    logf = np.log(s.freqs)
    lin_slope, lin_r2 = _ols(r, logf)
    log_slope, log_r2 = _ols(np.log(r), logf)
    if len(set(s.freqs)) == 1 and diag["linlog_r2"] == diag["loglog_r2"] == 0.0:
        return (KNOWN + "diagnostics.slope_fit gives r2=0, not the documented 1, for a "
                "flat series whose mean rounds")
    for key, want in (("linlog_slope", lin_slope), ("linlog_r2", lin_r2),
                      ("loglog_slope", log_slope), ("loglog_r2", log_r2)):
        if not _close(diag[key], want, 1e-7):
            return f"diagnose {key}={diag[key]!r}, expected {want!r}"

    def best(family):
        group = [f for f in fits if f["kind"].startswith(family)]
        return max(group, key=lambda f: (f["loglik"], -f["n_params"]))

    geo, zet = best("geometric"), best("zeta")
    if not (_close(diag["geometric_slope_prediction"], math.log1p(-geo["params"]["q"]))
            and _close(diag["zeta_slope_prediction"], -zet["params"]["alpha"])):
        return "diagnose slope predictions do not match the best fits"
    gap = lin_r2 - log_r2
    if abs(abs(gap) - R2_MARGIN) > 1e-9:
        want = ("exponential-like" if gap > R2_MARGIN else
                "power-law-like" if -gap > R2_MARGIN else "inconclusive")
        if diag["verdict"] != want:
            return f"diagnose verdict {diag['verdict']!r}, expected {want!r}"
    return None


def check_corpus_select(spec: dict, results: list) -> dict[int, str]:
    datasets = spec["datasets"]
    stats = [Stats(read_frequencies(Path(d["file"]).read_text(encoding="utf-8")))
             for d in datasets]
    bad = {}
    for i, (d, s, res) in enumerate(zip(datasets, stats, results)):
        if res is None:
            continue  # raised; already counted as failed
        problems = []
        if res["r_max"] != s.r_max:
            problems.append(f"r_max {res['r_max']}, expected {s.r_max}")
        for row in res["rows"]:
            K = 2 if row["kind"].endswith("2") else 1
            should_fail = not (s.F0 > K + 1)
            if (row["error"] is not None) != should_fail:
                problems.append(f"{row['kind']}: row error {row['error']!r} with F0={s.F0}")
            if row["fit"] is not None:
                why = _check_fit(row["fit"], d["N"], s)
                if why:
                    problems.append(why)
        fits = [r["fit"] for r in res["rows"] if r["fit"] is not None]
        why = _check_diagnose(res["diagnose"], fits, s)
        if why:
            problems.append(why)
        prev = results[i - 1]
        if prev is not None:
            best = next(r["fit"] for r in prev["rows"] if r["kind"] == prev["best_aicc"])
            p = best["params"]
            scalar = p["alpha"] if best["kind"].startswith("zeta") else p["q"]
            want = loglik(best["kind"], scalar, p["R"], s)
            got = res["cross_apply"]
            got = -math.inf if got == "-inf" else got
            if not (got == want == -math.inf or
                    (math.isfinite(want) and isinstance(got, float) and _close(got, want))):
                problems.append(f"cross_apply {got!r}, expected {want!r}")
        if problems:
            bad[i] = "; ".join(sorted(problems, key=lambda p: p.startswith(KNOWN)))
    return bad


# ------------------------------------------------------- recovery_sweep

def check_recovery_sweep(spec: dict, results: list) -> dict[int, str]:
    bad = {}
    for i, (call, per_size) in enumerate(zip(spec["calls"], results)):
        if per_size is None:
            continue
        problems = []
        for row in per_size:
            for key, v in row.items():
                if not (v is None or (isinstance(v, (int, float)) and math.isfinite(v))):
                    problems.append(f"n={row['sample_size']}: {key}={v!r} is not finite or null")
            n, trials = row["sample_size"], row["trials"]
            # F0 = 3 leaves AICc undefined exactly for the 2-parameter kinds
            expect_fail = trials if (n <= 3 and call["kind"].endswith("2")) else 0
            if n <= 3 and row["failures"] != expect_fail:
                problems.append(f"n={n}: {row['failures']} failures, expected {expect_fail}")
            if n >= 40 and row["failures"] != 0:
                problems.append(f"n={n}: {row['failures']} failures, expected 0")
            if n >= 10 ** 6:
                err = row["median_abs_param_error"]
                if err is None or not err < RECOVERY_ERROR_BOUND:
                    problems.append(f"n={n}: true-kind error {err!r} not under "
                                    f"{RECOVERY_ERROR_BOUND}")
        if problems:
            bad[i] = "; ".join(problems)
    return bad


# --------------------------------------------------- undersampling_grid

def _subset_sums(p):
    sums, signs = np.zeros(1), np.ones(1)
    for x in p:
        sums = np.concatenate([sums, sums + x])
        signs = np.concatenate([signs, -signs])
    return sums, signs


def undersampling_exact(p: np.ndarray, n: int, block: int = 256) -> float:
    """P(some category unattested in n draws), full inclusion-exclusion.

    1 - sum over all subsets S of (-1)^|S| (1 - P(S))^n, with the subsets
    split into two halves so no more than ``block`` x 2^(N/2) terms are
    held at once. Feasible to about N = 24.
    """
    half = len(p) // 2
    lo_sums, lo_signs = _subset_sums(p[:half])
    hi_sums, hi_signs = _subset_sums(p[half:])
    total = 0.0
    for b in range(0, len(hi_sums), block):
        P = np.minimum(lo_sums[None, :] + hi_sums[b:b + block, None], 1.0)
        with np.errstate(divide="ignore"):
            terms = np.exp(n * np.log1p(-P))
        total += float((hi_signs[b:b + block, None] * lo_signs[None, :] * terms).sum())
    return 1.0 - total


def undersampling_reference(p: np.ndarray, n: int) -> tuple[float, float]:
    """An interval that holds the exact undersampling probability.

    n < N: certain. Otherwise the inclusion-exclusion sum: in full when N
    is small enough; else its first two Bonferroni terms
    (S1 - S2 <= P <= S1) when S1 is small, or the negative-association
    bound P >= 1 - prod_i (1 - (1 - p_i)^n) when that is close to 1.
    """
    N = len(p)
    if n < N:
        return 1.0, 1.0
    miss = np.exp(n * np.log1p(-p))  # P(category i unattested)
    S1 = float(miss.sum())
    if S1 < 1e-3:
        pair = np.minimum(p[:, None] + p[None, :], 1.0)[np.triu_indices(N, 1)]
        with np.errstate(divide="ignore"):
            S2 = float(np.exp(n * np.log1p(-pair)).sum())
        return max(S1 - S2, 0.0), S1
    if N <= 24:
        v = undersampling_exact(p, n)
        return v, v
    lo = 1.0 - float(np.prod(1.0 - miss))
    if lo > 1.0 - 1e-9:
        return lo, 1.0
    raise ValueError(f"no exact reference for N={N}, n={n}")


def check_undersampling_grid(spec: dict, results: list) -> dict[int, str]:
    bad = {}
    refs = {}
    for i, (c, res) in enumerate(zip(spec["cells"], results)):
        if res is None:
            continue
        family = "zeta" if c["kind"].startswith("zeta") else "geometric"
        scalar = c["alpha"] if family == "zeta" else c["q"]
        key = (family, scalar, c["R"], c["n"])
        if key not in refs:
            refs[key] = undersampling_reference(model_pmf(family, scalar, c["R"]), c["n"])
        lo, hi = refs[key]
        p = 0.5 * (lo + hi)
        T = c["trials"]
        est = res["estimate"]
        # 4 sigma plus the 1/(2T) continuity correction rankfit itself uses
        tol = 4.0 * math.sqrt(p * (1.0 - p) / T) + 0.5 / T + 0.5 * (hi - lo)
        problems = []
        if abs(est - p) > tol:
            problems.append(f"estimate {est} vs exact {p:.6g} (tolerance {tol:.3g})")
        want_hw = 1.96 * math.sqrt(est * (1.0 - est) / T) + 0.5 / T
        if not _close(res["half_width"], want_hw, 1e-12):
            problems.append(f"half width {res['half_width']!r}, expected {want_hw!r}")
        if problems:
            bad[i] = "; ".join(problems)
    return bad


# ---------------------------------------------------------- cli_session

def _strict_json(path: Path):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


def check_cli_session(spec: dict, results: list) -> dict[int, str]:
    bad = {}
    for i, (inv, res) in enumerate(zip(spec["invocations"], results)):
        if res["returncode"] != 0:
            continue  # already failed by its exit status, or an expected error
        out = Path(res["out"])
        problems = []
        for name in inv["outputs"]:
            path = out / name
            try:
                _strict_json(path)
            except (OSError, ValueError) as exc:
                problems.append(f"{name}: {exc}")
        if problems:
            bad[i] = "; ".join(problems)
    return bad


def output_digests(results: list) -> list[dict]:
    """sha256 of every non-manifest file each CLI invocation wrote."""
    digests = []
    for res in results:
        out = Path(res["out"])
        files = sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []
        digests.append({p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in files if "manifest" not in p.name})
    return digests


CHECKS = {
    "corpus_select": check_corpus_select,
    "recovery_sweep": check_recovery_sweep,
    "undersampling_grid": check_undersampling_grid,
    "cli_session": check_cli_session,
}

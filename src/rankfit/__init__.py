"""rankfit: maximum-likelihood fitting and selection of rank-frequency models.

Fits right-truncated zeta (power-law) and geometric (exponential)
distributions to rank-frequency histograms, ranks them with AICc/BIC
weights and evidence ratios, and backs the verdicts with scale
diagnostics and Monte Carlo simulation.

``import rankfit`` loads no submodule: each public name is looked up in
its home module on every access (PEP 562), and that module is imported
on first use.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it gives the package
_EXPORTS = {
    "histogram": ("ParseError", "RankHistogram", "SummaryStats", "parse_dataset", "summarize"),
    "models": ("DEFAULT_DOMAIN_CEILING", "ExponentialForm", "ModelKind", "ModelParams",
               "expected_frequency", "geom_norm", "geometric1", "geometric2", "harmonic",
               "log_likelihood", "pmf", "to_exponential_form", "zeta1", "zeta2"),
    "estimation": ("ALPHA_INTERVAL", "Q_INTERVAL", "FitResult", "fit"),
    "selection": ("DEFAULT_ENSEMBLE", "SelectionRow", "SelectionTable", "aicc",
                  "aicc_evidence_ratio", "bic", "bic_evidence_ratio", "cross_apply",
                  "evidence_ratio", "select", "weights"),
    "diagnostics": ("DiagnosticReport", "PlotSeries", "Scale", "SlopeFit", "diagnose",
                    "emit_plot_data", "expected_series", "slope_fit", "transform_series"),
    "simulation": ("RecoveryStats", "SimulationConfig", "UndersamplingEstimate",
                   "recovery_experiment", "sample", "sample_counts",
                   "undersampling_probability"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    # nothing is cached here, so a name patched in its module and restored
    # reads as the module has it now
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})

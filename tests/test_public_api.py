"""The public names of rankfit, pinned: adding or removing one is a deliberate
change that updates this list, CHANGES.md and the README together. The same
holds for the fields and options of the histogram API."""

import dataclasses
import inspect

import rankfit
import rankfit.models

PACKAGE = [
    "ALPHA_INTERVAL", "DEFAULT_DOMAIN_CEILING", "DEFAULT_ENSEMBLE", "DiagnosticReport",
    "ExponentialForm", "FitResult", "ModelKind", "ModelParams", "ParseError", "PlotSeries",
    "Q_INTERVAL", "RankHistogram", "RecoveryStats", "Scale", "SelectionRow",
    "SelectionTable", "SimulationConfig", "SlopeFit", "SummaryStats",
    "UndersamplingEstimate", "aicc", "aicc_evidence_ratio", "bic", "bic_evidence_ratio",
    "cross_apply", "diagnose", "diagnostics", "emit_plot_data", "estimation",
    "evidence_ratio", "expected_frequency", "expected_series", "fit", "geom_norm",
    "geometric1", "geometric2", "harmonic", "histogram", "log_likelihood", "models",
    "parse_dataset", "pmf", "recovery_experiment", "sample", "sample_counts", "select",
    "selection", "simulation", "slope_fit", "summarize", "to_exponential_form",
    "transform_series", "undersampling_probability", "weights", "zeta1", "zeta2",
]

MODELS = [
    "DEFAULT_DOMAIN_CEILING", "ModelKind", "ModelParams",
    "ExponentialForm", "harmonic", "geom_norm", "pmf", "log_likelihood",
    "expected_frequency", "to_exponential_form", "zeta1", "zeta2", "geometric1",
    "geometric2",
]


def test_package_public_names():
    assert sorted(rankfit.__all__) == sorted(PACKAGE)


def test_models_public_names():
    assert rankfit.models.__all__ == MODELS


def test_histogram_fields_and_options():
    assert [f.name for f in dataclasses.fields(rankfit.RankHistogram)] == [
        "frequencies", "names", "warnings"]
    assert list(inspect.signature(rankfit.parse_dataset).parameters) == ["text", "delimiter"]
    assert list(inspect.signature(rankfit.RankHistogram.from_frequencies).parameters) == [
        "freqs", "names"]

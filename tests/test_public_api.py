"""The public names of rankfit, pinned: adding or removing one is a deliberate
change that updates this list, CHANGES.md and the README together. The same
holds for the fields and options of the histogram, result and simulation APIs."""

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


def test_selection_row_fields_and_defaults():
    fields = dataclasses.fields(rankfit.SelectionRow)
    assert [f.name for f in fields] == [
        "kind", "fit", "aicc", "delta_aicc", "w_aicc", "bic", "delta_bic", "w_bic", "error"]
    assert fields[0].default is dataclasses.MISSING
    assert all(f.default is None for f in fields[1:])


def test_result_fields_and_options():
    # what a field would repeat (mean_rank, n_params, converged, a row's loglik,
    # the best kinds) is a read-only property, and the r2 margin is a constant
    def names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    assert names(rankfit.FitResult) == ["params", "loglik", "iterations", "warnings"]
    assert names(rankfit.SummaryStats) == ["F0", "F1", "FlogR", "r_max"]
    assert names(rankfit.SelectionTable) == ["rows", "F0"]
    assert "margin" not in names(rankfit.DiagnosticReport)
    assert list(inspect.signature(rankfit.diagnose).parameters) == ["hist", "fits"]


def test_simulation_fields_and_options():
    assert [f.name for f in dataclasses.fields(rankfit.SimulationConfig)] == [
        "seed", "trials", "sample_sizes", "model", "ensemble"]
    assert [f.name for f in dataclasses.fields(rankfit.RecoveryStats)] == ["config", "per_size"]
    assert list(inspect.signature(rankfit.recovery_experiment).parameters) == ["cfg"]

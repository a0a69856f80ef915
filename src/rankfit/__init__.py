"""rankfit: maximum-likelihood fitting and selection of rank-frequency models.

Fits right-truncated zeta (power-law) and geometric (exponential)
distributions to rank-frequency histograms, ranks them with AICc/BIC
weights and evidence ratios, and backs the verdicts with scale
diagnostics and Monte Carlo simulation.
"""

__version__ = "0.1.0"

from .histogram import (
    ParseError,
    RankHistogram,
    SummaryStats,
    parse_dataset,
    summarize,
)
from .models import (
    DEFAULT_DOMAIN_CEILING,
    ExponentialForm,
    ModelKind,
    ModelParams,
    expected_frequency,
    geom_norm,
    geometric1,
    geometric2,
    harmonic,
    log_likelihood,
    pmf,
    to_exponential_form,
    zeta1,
    zeta2,
)
from .estimation import (
    ALPHA_INTERVAL,
    Q_INTERVAL,
    FitResult,
    fit,
)
from .selection import (
    DEFAULT_ENSEMBLE,
    SelectionRow,
    SelectionTable,
    aicc,
    aicc_evidence_ratio,
    bic,
    bic_evidence_ratio,
    cross_apply,
    evidence_ratio,
    select,
    weights,
)
from .diagnostics import (
    DiagnosticReport,
    PlotSeries,
    Scale,
    SlopeFit,
    diagnose,
    emit_plot_data,
    expected_series,
    slope_fit,
    transform_series,
)
from .simulation import (
    RecoveryStats,
    SimulationConfig,
    UndersamplingEstimate,
    recovery_experiment,
    sample,
    sample_counts,
    undersampling_probability,
)

__all__ = [name for name in dir() if not name.startswith("_")]

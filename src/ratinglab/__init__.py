"""Bank-rating migration analysis on a 15-notch scale.

Event-list panels of rating histories, duration-based generator
estimation, rolling homogeneity and semigroup-consistency diagnostics,
and a scenario simulator for calibrating both tests against known
processes.
"""

from .dates import DAYS_PER_YEAR
from .descriptive import (
    Histogram,
    MomentPoint,
    MomentSet,
    increment_histogram,
    moment_series,
    moments,
    rating_histogram,
    write_moment_series_csv,
)
from .diagnostics import (
    TestPoint,
    TestSeries,
    ck_deviation,
    homogeneity_statistic,
    l2_norm,
    rolling_series,
    write_test_series_csv,
)
from .errors import DataFormatError, RatingLabError, SpanError
from .estimation import (
    CountMatrix,
    ExposureVector,
    GeneratorMatrix,
    TransitionMatrix,
    count_transitions,
    empirical_transition_matrix,
    estimate_generator,
    exposures,
    matrix_exponential,
    read_matrix_csv,
    write_matrix_csv,
)
from .ingest import (
    daily_counts,
    infer_span,
    parse_panel,
    transitions_per_bank,
    write_count_series_csv,
    write_panel_csv,
)
from .panel import Increment, Panel, RatingEvent, RatingHistory
from .scale import N_STATES, RATING_LABELS, WITHDRAWN_LABEL, decode, encode
from .simulator import (
    Excitation,
    Scenario,
    load_scenario,
    point_mass_distribution,
    random_generator,
    scenario_from_mapping,
    simulate,
    uniform_distribution,
)

__version__ = "0.1.0"

__all__ = [
    "DAYS_PER_YEAR",
    "N_STATES",
    "RATING_LABELS",
    "WITHDRAWN_LABEL",
    "encode",
    "decode",
    "RatingEvent",
    "RatingHistory",
    "Increment",
    "Panel",
    "RatingLabError",
    "DataFormatError",
    "SpanError",
    "parse_panel",
    "infer_span",
    "write_count_series_csv",
    "write_moment_series_csv",
    "write_panel_csv",
    "daily_counts",
    "transitions_per_bank",
    "Histogram",
    "MomentSet",
    "MomentPoint",
    "moments",
    "moment_series",
    "rating_histogram",
    "increment_histogram",
    "CountMatrix",
    "ExposureVector",
    "TransitionMatrix",
    "GeneratorMatrix",
    "count_transitions",
    "exposures",
    "estimate_generator",
    "matrix_exponential",
    "empirical_transition_matrix",
    "write_matrix_csv",
    "read_matrix_csv",
    "TestPoint",
    "TestSeries",
    "l2_norm",
    "homogeneity_statistic",
    "ck_deviation",
    "rolling_series",
    "write_test_series_csv",
    "Excitation",
    "Scenario",
    "simulate",
    "random_generator",
    "scenario_from_mapping",
    "uniform_distribution",
    "point_mass_distribution",
    "load_scenario",
]

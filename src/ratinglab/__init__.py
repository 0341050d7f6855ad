"""Bank-rating migration analysis on a 15-notch scale.

Event-list panels of rating histories, duration-based generator
estimation, rolling homogeneity and semigroup-consistency diagnostics,
and a scenario simulator for calibrating both tests against known
processes.

Each module's ``__all__`` is its public API; the package re-exports
exactly those names.
"""

from . import dates, descriptive, diagnostics, errors, estimation, ingest, panel, scale, simulator
from .dates import *
from .descriptive import *
from .diagnostics import *
from .errors import *
from .estimation import *
from .ingest import *
from .panel import *
from .scale import *
from .simulator import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (dates, descriptive, diagnostics, errors, estimation, ingest, panel, scale, simulator)
    for name in module.__all__
]

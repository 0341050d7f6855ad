"""The 15-level bank financial-strength rating scale.

States are ordered by credit quality: index 0 is ``E-`` (highest risk,
bottom of the scale) and index 14 is ``A+`` (best financial health).
All matrices and vectors in this package index rows/columns by state;
label text becomes a state only when :mod:`ingest` reads a panel.
"""

from __future__ import annotations

__all__ = ["N_STATES", "RATING_LABELS", "WITHDRAWN_LABEL"]

RATING_LABELS: tuple[str, ...] = (
    "E-", "E", "E+",
    "D-", "D", "D+",
    "C-", "C", "C+",
    "B-", "B", "B+",
    "A-", "A", "A+",
)

N_STATES: int = len(RATING_LABELS)

#: Sentinel label closing a bank's coverage in event CSV files.
WITHDRAWN_LABEL: str = "WR"

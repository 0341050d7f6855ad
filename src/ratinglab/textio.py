"""The one place that turns a path or a text stream into an open text stream, and the one CSV writer."""

from __future__ import annotations

import contextlib
import csv
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional, Sequence, Union

Target = Union[str, Path, IO[str]]


@contextlib.contextmanager
def text_stream(target: Target, mode: str = "r") -> Iterator[IO[str]]:
    """Yield ``target`` as a text stream opened for ``mode`` ("r" or "w").

    A path is opened as UTF-8 (with ``newline=""`` for the csv module)
    and closed on exit; a text stream is used as it is and left open.
    """
    if isinstance(target, (str, Path)):
        with open(target, mode, encoding="utf-8", newline="") as stream:
            yield stream
    else:
        yield target


def write_csv(target: Target, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and ``rows`` as CSV, cells as given (floats via :func:`format_float`)."""
    with text_stream(target, "w") as stream:
        writer = csv.writer(stream)
        writer.writerow(header)
        writer.writerows(rows)


def format_float(value: Optional[float]) -> str:
    """A CSV cell for a number: 12 significant digits, ``None`` as an empty cell."""
    return "" if value is None else format(value, ".12g")

"""The one place that turns a path or a text stream into an open text stream, and the one CSV writer."""

from __future__ import annotations

import contextlib
import csv
import re
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional, Sequence, Union

Target = Union[str, Path, IO[str]]


@contextlib.contextmanager
def text_stream(target: Target, mode: str = "r") -> Iterator[IO[str]]:
    """Yield ``target`` as a text stream opened for ``mode`` ("r" or "w").

    A path is opened as UTF-8 (with ``newline=""`` for the csv module)
    and closed on exit; a text stream is used as it is and left open.
    Reading skips a leading byte order mark, which spreadsheets write;
    writing never writes one.  A byte that is not UTF-8 reads as a lone
    surrogate (see :func:`not_utf8`).
    """
    if isinstance(target, (str, Path)):
        encoding = "utf-8-sig" if mode == "r" else "utf-8"
        with open(target, mode, encoding=encoding, errors="surrogateescape", newline="") as stream:
            yield stream
    else:
        yield target


def not_utf8(text: str) -> Optional[str]:
    """The first lone surrogate in ``text`` (a byte surrogateescape kept, or a code point), or ``None``."""
    found = re.search("[\ud800-\udfff]", text)
    if found is None:
        return None
    point = ord(found[0])
    return f"byte 0x{point - 0xDC00:02x}" if 0xDC80 <= point <= 0xDCFF else f"code point U+{point:04X}"


def write_csv(target: Target, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and ``rows`` as CSV, cells as given (floats via :func:`format_float`)."""
    with text_stream(target, "w") as stream:
        writer = csv.writer(stream)
        writer.writerow(header)
        writer.writerows(rows)


def format_float(value: Optional[float]) -> str:
    """A CSV cell for a number: 12 significant digits, ``None`` as an empty cell."""
    return "" if value is None else format(value, ".12g")

"""The one place that turns a path-or-stream argument into a text stream."""

from __future__ import annotations

import contextlib
import io
from pathlib import Path
from typing import IO, Iterator, Union

Target = Union[str, Path, IO[str], IO[bytes]]


@contextlib.contextmanager
def text_stream(target: Target, mode: str = "r") -> Iterator[IO[str]]:
    """Yield ``target`` as a UTF-8 text stream opened for ``mode`` ("r" or "w").

    A path is opened (with ``newline=""`` for the csv module) and closed
    on exit; a stream is used as it is and left open.  A byte stream
    being read is wrapped for decoding and unwrapped on exit, since a
    discarded wrapper would close the caller's stream.
    """
    if isinstance(target, (str, Path)):
        with open(target, mode, encoding="utf-8", newline="") as stream:
            yield stream
    elif mode == "r" and not isinstance(target, io.TextIOBase):
        wrapper = io.TextIOWrapper(target, encoding="utf-8", newline="")
        try:
            yield wrapper
        finally:
            wrapper.detach()
    else:
        yield target

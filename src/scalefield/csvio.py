"""CSV emission with reproducible, round-trip-exact number formatting.

Floats are printed with %.17g: seventeen significant digits reproduce the
binary value exactly on re-parse, and the fixed rule keeps output bytes
stable across platforms.  Lines end with '\n' and fields follow RFC 4180
quoting.
"""

from __future__ import annotations

import csv
import io
from typing import Iterable, Sequence

from .errors import IoError


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, complex):
        raise TypeError("split complex values into re/im columns")
    return str(value)


def render_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    if not header or any(not name for name in header):
        raise ValueError("header names must be non-empty")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(header))
    width = len(header)
    for i, row in enumerate(rows):
        cells = [format_cell(v) for v in row]
        if len(cells) != width:
            raise ValueError(f"row {i} has {len(cells)} cells, "
                             f"header has {width}")
        writer.writerow(cells)
    return buffer.getvalue()


def emit_csv(header: Sequence[str], rows: Iterable[Sequence],
             target: str) -> None:
    write_text(target, render_csv(header, rows))


def write_text(target: str, text: str) -> None:
    """Write rendered CSV or JSON text as UTF-8, byte for byte;
    OSError -> IoError."""
    try:
        with open(target, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as err:
        raise IoError(f"cannot write {target}: {err.strerror}")

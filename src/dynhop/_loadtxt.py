"""Reading the rows of the comma-separated files the package reads.

``harness.data.ingest_csv`` (series), ``graphs.graph_from_csv`` (edge lists)
and ``harness.experiment.read_reports`` (curves) open their files with
:func:`csv_file` and read them with one row reader, :func:`numbered_rows`,
and one cell parser, :func:`cell_value`, so a bad row or cell reads the same
in every kind of file. Series and curves, a header over rows of numbers,
both go through :func:`numeric_table`. The series and edge-list readers
first try one ``np.loadtxt`` pass (:func:`loadtxt_rows`) over the rows after
the header and read the file row by row only where that pass refuses it.
Both parsers round each number with ``PyOS_string_to_double``, so every
value the loadtxt pass accepts has the bits the row reader would give it.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from functools import cache
from itertools import chain
from pathlib import Path
from typing import TextIO

import numpy as np

# an ``accept`` pair of :func:`cell_value`: a value must pass the test, else
# its cell "is not <kind>"
FINITE = (math.isfinite, "finite")


@contextmanager
def csv_file(path: str | Path) -> Iterator[TextIO]:
    """``path`` open for reading as UTF-8, a byte order mark dropped. Text
    that is not UTF-8, or that ``csv`` refuses (a cell past its field size
    limit), raises a ``ValueError`` naming the file."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield fh
    except (UnicodeDecodeError, csv.Error) as err:
        raise ValueError(f"{path}: {err}") from None


def numbered_rows(
    fh: TextIO, path: str | Path, width: int | None = None, lines_read: int = 0
) -> Iterator[tuple[int, list[str]]]:
    """The non-blank rows left in ``fh``, as ``csv`` reads them, each with the
    1-based file line it starts on (``lines_read`` lines precede ``fh``'s
    position; a quoted cell may span lines). A row whose cell count differs
    from ``width``, by default the first row's, raises ``ValueError``:
    ``"<path>: line L has K cells, expected W"``."""
    reader = csv.reader(fh)
    line = lines_read + 1
    for row in reader:
        if row:
            width = len(row) if width is None else width
            if len(row) != width:
                raise ValueError(f"{path}: line {line} has {len(row)} cells, expected {width}")
            yield line, row
        line = lines_read + reader.line_num + 1


def cell_value(path: str | Path, line: int, column: str, cell: str, parse: type = float,
               accept: tuple[Callable[[float], bool], str] | None = None):
    """``parse(cell)``, ``parse`` being ``int`` or ``float``. A cell that
    ``parse`` refuses, or whose value fails the ``(test, kind)`` pair
    ``accept``, raises ``ValueError``:
    ``"<path>: line L, column 'C': 'x' is not <kind>"``, where the kind of a
    refused cell is "an integer" or "numeric"."""
    try:
        value = parse(cell)
    except ValueError:
        kind = "an integer" if parse is int else "numeric"
    else:
        if accept is None or accept[0](value):
            return value
        kind = accept[1]
    raise ValueError(f"{path}: line {line}, column {column!r}: {cell!r} is not {kind}")


def numeric_table(
    path: str | Path, width: int | None = None, accept: tuple | None = None
) -> tuple[list[str], list[float]]:
    """The header, its cells stripped, and the row-major values of a CSV
    whose first non-blank row names the columns and whose later rows hold
    one number per column, each passing ``accept``. An empty file or one
    without data rows raises ``ValueError``, as do the row reader and the
    cell parser."""
    with csv_file(path) as fh:
        rows = numbered_rows(fh, path, width)
        _, header = next(rows, (1, None))
        if header is None:
            raise ValueError(f"{path}: file is empty")
        header = [cell.strip() for cell in header]
        values = [
            cell_value(path, line, name, cell, accept=accept)
            for line, row in rows
            for name, cell in zip(header, row)
        ]
    if not values:
        raise ValueError(f"{path}: header only, no data rows")
    return header, values


def loadtxt_rows(fh: TextIO, dtype, ndmin: int) -> np.ndarray | None:
    """The rows left in ``fh``, or None where ``np.loadtxt`` refuses them.

    No quote or comment character is set, so a quoted cell or a ``#`` is a
    bad value here. Blank lines are skipped, as ``csv`` skips them. Refused
    are cells that are not plain ASCII numbers (``1_000``, non-ASCII digits,
    empty or whitespace-only cells), rows of differing length, and no rows
    at all.
    """
    # loadtxt warns instead of raising when no row is left; a warning filter
    # would reset the once-per-location registry of every other warning
    first = next((line for line in fh if line.rstrip("\r\n")), None)
    if first is None:
        return None
    try:
        return np.loadtxt(
            chain((first,), fh), dtype=dtype, delimiter=",", comments=None, ndmin=ndmin
        )
    except ValueError:
        return None


@cache
def parses_integers_strictly() -> bool:
    """Whether ``np.loadtxt`` refuses ``1.0`` in an integer column, as ``int``
    does. NumPy releases that still parse such a cell through ``float``
    (with a DeprecationWarning) do not, so their integer columns must be read
    row by row."""
    try:
        np.loadtxt(["1.0"], dtype=np.int64)
    except ValueError:
        return True
    except DeprecationWarning:  # raised where warnings are errors
        return False
    return False

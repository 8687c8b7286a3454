"""The comma-separated files the package reads and writes.

A bad data file raises a :class:`DataError` whose message starts with the
file's path, so no caller translates a reader's error. The harness's own
checks of the values read (too few nodes, a split past the series) raise it
too, without a path.
:func:`write_rows` writes every CSV in the dialect the readers read.

``harness.data.ingest_csv`` (series), ``graphs.graph_from_csv`` (edge lists)
and ``harness.experiment.read_reports`` (curves) open each file once, with
:func:`csv_file`, read its header and take the lines after it as one list.
An edge list's optional ``#`` line before its header is read as raw text,
never by ``csv``.
That list is parsed in one ``np.loadtxt`` pass (:func:`loadtxt_pass`), and
only where the pass refuses it is the same list read with one row reader,
:func:`numbered_rows`, and one cell parser, :func:`cell_value`, so a bad row
or cell reads the same in every kind of file. Series and curves, a header
over rows of numbers, both go through :func:`numeric_table`. Both parsers
round each number with ``PyOS_string_to_double``, so every value the loadtxt
pass accepts has the bits the row reader would give it.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from functools import cache
from pathlib import Path
from typing import TextIO

import numpy as np

# an ``accept`` pair of :func:`cell_value`: a value must pass the test, else
# its cell "is not <kind>"
FINITE = (math.isfinite, "finite")


class DataError(ValueError):
    """Problem with an input data file or the data read from it. A
    ``ValueError``, so code that catches ``ValueError`` catches it too."""


def write_rows(path: str | Path, header, rows, comment: str | None = None) -> None:
    """``header`` and ``rows`` written to ``path`` as UTF-8 CSV in ``csv``'s
    dialect, after one raw ``# comment`` line if ``comment`` is given."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@contextmanager
def csv_file(path: str | Path) -> Iterator[TextIO]:
    """``path`` open for reading as UTF-8, a byte order mark dropped. Text
    that is not UTF-8, or that ``csv`` refuses (a cell past its field size
    limit), raises a :class:`DataError` naming the file."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield fh
    except (UnicodeDecodeError, csv.Error) as err:
        raise DataError(f"{path}: {err}") from None


def numbered_rows(
    reader, path: str | Path, width: int | None = None, lines_read: int = 0
) -> Iterator[tuple[int, list[str]]]:
    """The non-blank rows left in ``reader``, a ``csv.reader``, each with the
    1-based file line it starts on (``lines_read`` lines precede the reader's
    first line; a quoted cell may span lines). A row whose cell count differs
    from ``width``, by default the first row's, raises :class:`DataError`:
    ``"<path>: line L has K cells, expected W"``."""
    line = lines_read + 1
    for row in reader:
        if row:
            width = len(row) if width is None else width
            if len(row) != width:
                raise DataError(f"{path}: line {line} has {len(row)} cells, expected {width}")
            yield line, row
        line = lines_read + reader.line_num + 1


def cell_value(path: str | Path, line: int, column: str, cell: str, parse: type = float,
               accept: tuple[Callable[[float], bool], str] | None = None):
    """``parse(cell)``, ``parse`` being ``int`` or ``float``. A cell that
    ``parse`` refuses, or whose value fails the ``(test, kind)`` pair
    ``accept``, raises :class:`DataError`:
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
    raise DataError(f"{path}: line {line}, column {column!r}: {cell!r} is not {kind}")


def loadtxt_pass(lines: list[str], dtype, ndmin: int) -> np.ndarray | None:
    """``lines`` parsed in one ``np.loadtxt`` pass, or None where it refuses
    them.

    No quote or comment character is set, so a quoted cell or a ``#`` is a
    bad value here. Blank lines are skipped, as ``csv`` skips them. Refused
    are cells that are not plain ASCII numbers (``1_000``, non-ASCII digits,
    empty or whitespace-only cells), rows of differing length, and no rows
    at all.
    """
    # loadtxt warns instead of raising when no row is left; a warning filter
    # would reset the once-per-location registry of every other warning
    if not any(line.rstrip("\r\n") for line in lines):
        return None
    try:
        return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=ndmin)
    except ValueError:
        return None


def numeric_table(
    path: str | Path, width: int | None = None, finite: bool = False
) -> tuple[list[str], np.ndarray]:
    """The header, its cells stripped, and the (rows, columns) values of a
    CSV whose first non-blank row names the columns and whose later rows hold
    one number per column, finite if ``finite`` is set. An empty file or one
    without data rows raises :class:`DataError`, as do the row reader and the
    cell parser, for the first ragged row or bad cell in file order."""
    with csv_file(path) as fh:
        reader = csv.reader(fh)
        _, header = next(numbered_rows(reader, path, width), (1, None))
        if header is None:
            raise DataError(f"{path}: file is empty")
        header = [cell.strip() for cell in header]
        lines = fh.readlines()
        values = loadtxt_pass(lines, float, ndmin=2)
        if (values is None or values.shape[1] != len(header)
                or finite and not np.isfinite(values).all()):
            accept = FINITE if finite else None
            rows = numbered_rows(csv.reader(lines), path, len(header), reader.line_num)
            values = np.array([
                cell_value(path, line, name, cell, accept=accept)
                for line, row in rows
                for name, cell in zip(header, row)
            ]).reshape(-1, len(header))
    if not len(values):
        raise DataError(f"{path}: header only, no data rows")
    return header, values


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

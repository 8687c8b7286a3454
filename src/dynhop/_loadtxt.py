"""One ``np.loadtxt`` pass over the numeric rows of a comma-separated file.

``graphs.graph_from_csv`` and ``harness.data.ingest_csv`` read the header
with the ``csv`` module and hand the rest of the open file here. Where this
pass refuses the text they parse it again row by row with ``csv`` and
``float``/``int``, which names the first bad row. Both parsers round each
number with ``PyOS_string_to_double``, so every value this pass accepts has
the bits the row parser would give it.
"""

from __future__ import annotations

from functools import cache
from itertools import chain
from typing import TextIO

import numpy as np


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

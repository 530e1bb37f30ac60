"""Panel data model: treatment assignments, outcomes and covariates, and
their CSV interchange.

Conventions used throughout the package:

* units are indexed 0..N-1;
* treatment rounds run 1..T and map to columns 0..T-1 of the treatment matrix;
* outcome rounds run 0..T (round 0 is the pre-intervention baseline) and map
  directly to columns 0..T of the outcome matrix.

All panel types are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import csv
import re
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


class RoundPanel:
    """Round-indexed accessors over ``values``: one row per unit, one column
    per round from ``first_round`` through ``n_rounds`` (any further axes
    belong to each entry)."""

    first_round = 1

    @property
    def n_units(self) -> int:
        return self.values.shape[0]

    @property
    def n_rounds(self) -> int:
        return self.values.shape[1] - 1 + self.first_round

    def column(self, t: int) -> np.ndarray:
        """Values of round t, for t in first_round..n_rounds."""
        if not self.first_round <= t <= self.n_rounds:
            raise IndexError(f"round {t} outside {self.first_round}..{self.n_rounds}")
        return self.values[:, t - self.first_round]


@dataclass(frozen=True)
class TreatmentPanel(RoundPanel):
    """Binary assignment matrix with shape (n_units, n_rounds)."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise ValueError("treatment panel must be a 2-d array")
        n, t = vals.shape
        if n < 1 or t < 1:
            raise ValueError(f"treatment panel needs at least one unit and one round, got {vals.shape}")
        if not np.all((vals == 0.0) | (vals == 1.0)):
            raise ValueError("treatment panel entries must be exactly 0 or 1")
        object.__setattr__(self, "values", _freeze(vals))


@dataclass(frozen=True)
class OutcomePanel(RoundPanel):
    """Real outcome matrix with shape (n_units, n_rounds + 1); column 0 is the
    pre-intervention baseline."""

    values: np.ndarray
    first_round = 0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise ValueError("outcome panel must be a 2-d array")
        n, cols = vals.shape
        if n < 1 or cols < 2:
            raise ValueError("outcome panel needs at least one unit and rounds 0..1")
        if not np.all(np.isfinite(vals)):
            raise ValueError("outcome panel entries must all be finite")
        object.__setattr__(self, "values", _freeze(vals))

    @classmethod
    def views(cls, buffer: np.ndarray) -> list["OutcomePanel"]:
        """One panel per ``buffer[k]`` of an (s, n_units, n_rounds + 1) float64
        buffer, sharing its memory instead of copying it.

        The caller hands the buffer over after checking that every entry is
        finite: it is made read-only here and must not be written again."""
        if buffer.dtype != np.float64 or buffer.ndim != 3 or buffer.shape[1] < 1 or buffer.shape[2] < 2:
            raise ValueError(f"outcome buffer of shape {buffer.shape} holds no panels")
        buffer.setflags(write=False)
        panels = []
        for k in range(buffer.shape[0]):
            panel = object.__new__(cls)
            object.__setattr__(panel, "values", buffer[k])
            panels.append(panel)
        return panels


@dataclass(frozen=True)
class CovariatePanel(RoundPanel):
    """Covariate array with shape (n_units, n_rounds, dim), rounds 1..T; a
    round's column has shape (n_units, dim)."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 3:
            raise ValueError("covariate panel must be a 3-d array (units, rounds, dim)")
        n, t, d = vals.shape
        if n < 1 or t < 1 or d < 1:
            raise ValueError(f"covariate panel has degenerate shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("covariate entries must all be finite")
        object.__setattr__(self, "values", _freeze(vals))

    @property
    def dim(self) -> int:
        return self.values.shape[2]


def round_index_covariates(n_units: int, n_rounds: int) -> CovariatePanel:
    """Default covariates: dim 1, carrying the round number t.

    The values are a read-only broadcast of rounds 1..T over the units, so no
    (n_units, n_rounds) array is allocated or scanned."""
    if n_units < 1 or n_rounds < 1:
        raise ValueError(f"covariate panel has degenerate shape {(n_units, n_rounds, 1)}")
    panel = object.__new__(CovariatePanel)
    rounds = np.arange(1.0, n_rounds + 1.0)
    object.__setattr__(panel, "values", np.broadcast_to(rounds[None, :, None], (n_units, n_rounds, 1)))
    return panel


def column_mean(panel: TreatmentPanel | OutcomePanel, t: int) -> float:
    """Arithmetic mean of a panel column; round indexing per the panel type."""
    return float(panel.column(t).mean())


# --- CSV interchange -------------------------------------------------------
#
# Format: a header naming the three columns, then one row "row,col,value" per
# matrix cell. Panel files use the header "unit,round,value"; outcome files
# carry rounds 0..T, treatment and exposure files rounds 1..T. Unit ids are
# 0-based. Writers emit cells in unit-major order, values as Python ``repr``
# floats, lines ended by CRLF (the bytes ``csv.writer`` produces). Readers
# accept rows in any order, LF or CRLF line ends and blank lines.

PANEL_HEADER = ("unit", "round", "value")

_CELL = np.dtype([("row", np.int64), ("col", np.int64), ("value", np.float64)])
# Cells formatted per ``fh.write``; bounds the text held in memory at once.
_BLOCK_CELLS = 1 << 16
_INT_FIELD = re.compile(r"\s*[+-]?\d+\s*", re.ASCII)


def write_outcome_csv(path, panel: OutcomePanel) -> None:
    write_cells(path, panel.values, first_col=0)


def write_treatment_csv(path, panel: TreatmentPanel) -> None:
    write_cells(path, panel.values, first_col=1)


def write_matrix_csv(path, matrix: np.ndarray, first_round: int = 1) -> None:
    """Write a (units, rounds) matrix, e.g. an exposure matrix, in panel CSV form."""
    write_cells(path, matrix, first_col=first_round)


def read_outcome_csv(path) -> OutcomePanel:
    return OutcomePanel(read_cells(path, first_col=0))


def read_treatment_csv(path) -> TreatmentPanel:
    return TreatmentPanel(read_cells(path, first_col=1))


def write_cells(path, values: np.ndarray, first_col: int = 0, header: Sequence[str] = PANEL_HEADER) -> None:
    """Write a 2-d matrix as one CSV row "row,col,value" per cell, unit-major.

    Columns are numbered from ``first_col``. Each block of units is one
    ``%``-format of a template stamped per unit, so no Python code runs per
    cell.
    """
    values = np.asarray(values, dtype=np.float64)
    n, cols = values.shape
    unit_rows = "".join(f"#,{first_col + c},%r\r\n" for c in range(cols))
    per_block = max(1, _BLOCK_CELLS // max(cols, 1))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, n, per_block):
            hi = min(n, lo + per_block)
            template = "".join([unit_rows.replace("#", str(i)) for i in range(lo, hi)])
            fh.write(template % tuple(values[lo:hi].ravel().tolist()))


def read_cells(
    path,
    first_col: int = 0,
    header: Sequence[str] = PANEL_HEADER,
    shape: Callable[[int, int], tuple[int, int]] | None = None,
) -> np.ndarray:
    """Read a CSV written by ``write_cells`` back into its matrix.

    Row ids start at 0 and column ids at ``first_col``; every (row, col) cell
    in the bounding rectangle must appear exactly once, in any order, with a
    finite value. ``shape``, if given, maps the (rows, cols) extent of the keys
    to the matrix shape to allocate, and may raise before that allocation.
    Errors name the file and, where one row is at fault, its line.
    """
    row_name, col_name, value_name = header
    with open(path) as fh:
        if next(csv.reader([fh.readline()]), None) != list(header):
            raise ValueError(f"{path}: expected header {','.join(header)}")
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                cells = np.loadtxt(fh, dtype=_CELL, delimiter=",", comments=None, quotechar='"', ndmin=1)
        except ValueError as exc:
            raise _parse_fault(path, header) or ValueError(f"{path}: {exc}") from None
    if cells.size == 0:
        raise ValueError(f"{path}: no data rows")
    a, b, v = cells["row"], cells["col"], cells["value"]

    for ids, name, start in ((a, row_name, 0), (b, col_name, first_col)):
        low = ids < start
        if low.any():
            k = int(np.argmax(low))
            raise _row_fault(path, k, f"{name} {ids[k]} is out of range (first {name} is {start})")
    bad = ~np.isfinite(v)
    if bad.any():
        k = int(np.argmax(bad))
        raise _row_fault(path, k, f"non-finite {value_name} at {row_name} {a[k]}, {col_name} {b[k]}")

    rows, cols = int(a.max()) + 1, int(b.max()) - first_col + 1
    if shape is not None:
        rows, cols = shape(rows, cols)
    if rows * cols == cells.size:
        flat = a * cols + (b - first_col)
        if np.bincount(flat, minlength=cells.size).max() == 1:
            values = np.empty(rows * cols)
            values[flat] = v
            return values.reshape(rows, cols)
    raise _key_fault(path, a, b, first_col, cols, header)


def _data_lines(path) -> list[tuple[int, str]]:
    """(line number, text) of the rows ``np.loadtxt`` parses, in order: every
    line after the header that is not empty."""
    with open(path) as fh:
        fh.readline()
        return [(n, line.rstrip("\n")) for n, line in enumerate(fh, start=2) if line != "\n"]


def _row_fault(path, k: int, message: str) -> ValueError:
    line, text = _data_lines(path)[k]
    return ValueError(f"{path}:{line}: {message}: {text!r}")


def _parse_fault(path, header: Sequence[str]) -> ValueError | None:
    """The first row ``np.loadtxt`` could not parse, found by a rescan in Python."""
    for line, text in _data_lines(path):
        message = _field_fault(next(csv.reader([text])), header)
        if message is not None:
            return ValueError(f"{path}:{line}: {message}: {text!r}")
    return None


def _field_fault(fields: list[str], header: Sequence[str]) -> str | None:
    if len(fields) != 3:
        return f"expected 3 fields {','.join(header)}, found {len(fields)}"
    for name, field in zip(header, fields[:2]):
        if not _INT_FIELD.fullmatch(field) or not -(2**63) <= int(field) < 2**63:
            return f"{name} {field!r} is not an integer id"
    try:
        float(fields[2])
    except ValueError:
        return f"{header[2]} {fields[2]!r} is not a number"
    return None


def _key_fault(path, a: np.ndarray, b: np.ndarray, first_col: int, cols: int, header: Sequence[str]) -> ValueError:
    """Name the first repeated key in file order, else the first missing cell
    in row-major order. Only called once the keys are known to be faulty."""
    row_name, col_name, _ = header
    order = np.lexsort((b, a))  # stable: a repeated key keeps its file order
    sa, sb = a[order], b[order]
    repeats = order[1:][(sa[1:] == sa[:-1]) & (sb[1:] == sb[:-1])]
    if repeats.size:
        k = int(repeats.min())
        first = int(np.flatnonzero((a == a[k]) & (b == b[k]))[0])
        first_line = _data_lines(path)[first][0]
        return _row_fault(
            path, k, f"duplicate ({row_name}, {col_name}) key ({a[k]}, {b[k]}), first at line {first_line}"
        )
    expected = np.arange(sa.size)
    off = np.flatnonzero((sa != expected // cols) | (sb != first_col + expected % cols))
    j = int(off[0]) if off.size else sa.size
    return ValueError(f"{path}: no row for {row_name} {j // cols}, {col_name} {first_col + j % cols}")

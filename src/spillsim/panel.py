"""Panel data model: treatment assignments, outcomes and covariates, and
their CSV interchange.

Conventions used throughout the package:

* units are indexed 0..N-1;
* treatment rounds run 1..T and map to columns 0..T-1 of the treatment matrix;
* outcome rounds run 0..T (round 0 is the pre-intervention baseline) and map
  directly to columns 0..T of the outcome matrix.

All panel types are immutable after construction and safe to share between
threads: a panel the package builds itself is a read-only view
(``RoundPanel.views``) of a buffer that is read-only too.
"""

from __future__ import annotations

import csv
import os
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class RoundPanel:
    """Round-indexed accessors over ``values``: one row per unit, one column
    per round from ``first_round`` through ``n_rounds`` (any further axes
    belong to each entry).

    Construction copies ``values`` to a read-only float64 array and checks
    that it has ``ndim`` non-empty axes, a round 1 and finite entries."""

    values: np.ndarray
    ndim = 2
    first_round = 1
    name = "panel"

    def __post_init__(self):
        object.__setattr__(self, "values", np.array(self.values, dtype=np.float64))
        self._check_shape()
        if not np.all(np.isfinite(self.values)):
            raise ValueError(f"{self.name} entries must all be finite")
        self.values.setflags(write=False)

    @classmethod
    def _built(cls, values: np.ndarray):
        """A panel over ``values``, a read-only array the package built itself
        and whose entries are valid, such as a broadcast of one valid value:
        only its shape is checked, nothing is copied."""
        panel = object.__new__(cls)
        object.__setattr__(panel, "values", values)
        panel._check_shape()
        return panel

    @classmethod
    def views(cls, buffer: np.ndarray) -> list:
        """One panel per ``buffer[k]`` of an (s, n_units, rounds) float64 array
        of valid entries, sharing its memory. The engines pass a transposed
        view of a round-major (rounds, s, n_units) buffer, so ``column(t)`` is
        one contiguous run of units. The buffer and the array that owns its
        memory are made read-only: no panel can be changed through either."""
        for array in (buffer, buffer.base):
            if array is not None:
                array.setflags(write=False)
        return [cls._built(values) for values in buffer]

    def _check_shape(self) -> None:
        if self.values.ndim != self.ndim:
            raise ValueError(f"{self.name} must be a {self.ndim}-d array, got {self.values.ndim}-d")
        if min(self.values.shape) < 1 or self.n_rounds < 1:
            raise ValueError(f"{self.name} has degenerate shape {self.values.shape}")

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


class TreatmentPanel(RoundPanel):
    """Binary assignment matrix with shape (n_units, n_rounds)."""

    name = "treatment panel"

    def __post_init__(self):
        super().__post_init__()
        if not np.all((self.values == 0.0) | (self.values == 1.0)):
            raise ValueError("treatment panel entries must be exactly 0 or 1")


class OutcomePanel(RoundPanel):
    """Real outcome matrix with shape (n_units, n_rounds + 1); column 0 is the
    pre-intervention baseline."""

    first_round = 0
    name = "outcome panel"


class CovariatePanel(RoundPanel):
    """Covariate array with shape (n_units, n_rounds, dim), rounds 1..T; a
    round's column has shape (n_units, dim)."""

    ndim = 3
    name = "covariate panel"

    @property
    def dim(self) -> int:
        return self.values.shape[2]


def round_index_covariates(n_units: int, n_rounds: int) -> CovariatePanel:
    """Default covariates: dim 1, carrying the round number t.

    The values are a read-only broadcast of rounds 1..T over the units, so no
    (n_units, n_rounds) array is allocated or scanned."""
    rounds = np.arange(1.0, n_rounds + 1.0)
    return CovariatePanel._built(np.broadcast_to(rounds[None, :, None], (n_units, n_rounds, 1)))


def column_mean(panel: TreatmentPanel | OutcomePanel, t: int) -> float:
    """Arithmetic mean of a panel column; round indexing per the panel type."""
    return float(panel.column(t).mean())


# --- CSV interchange -------------------------------------------------------
#
# Format: the header "unit,round,value", then one row per matrix cell.
# Outcome files carry rounds 0..T, treatment and exposure files rounds 1..T.
# Unit ids are 0-based. Writers emit cells in unit-major order, values as
# Python ``repr`` floats, lines ended by CRLF (the bytes ``csv.writer``
# produces). A block whose values repeat gets one ``repr`` per distinct value;
# a block of mostly distinct values is filled with its floats, whose ``%s`` is
# their ``repr``. Readers accept rows in any order, LF or CRLF line ends and
# blank lines. A reader checks the header itself, then hands numpy's chunked
# parser the file by its absolute path, which numpy cannot take for a URL;
# given a handle, numpy would pull one line at a time through Python. numpy
# would also pick a decompressor by suffix, so such suffixes are refused.

PANEL_HEADER = ("unit", "round", "value")

_CELL = np.dtype([("row", np.int64), ("col", np.int64), ("value", np.float64)])
# Cells formatted per ``fh.write``. Bounds what the writer holds at once: the
# block's text plus one ``str`` (about 76 bytes) per distinct value in it, or
# one Python float (24 bytes) per cell once most of its values are distinct.
_BLOCK_CELLS = 1 << 14
# ``repr`` of each entry of a float64 array, as an object array of str.
_repr = np.frompyfunc(repr, 1, 1)
_INT_FIELD = re.compile(r"\s*[+-]?\d+\s*", re.ASCII)
# Suffixes for which numpy's datasource would open a path through a decompressor.
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def write_outcome_csv(path, panel: OutcomePanel) -> None:
    write_cells(path, panel.values, first_col=0)


def write_treatment_csv(path, panel: TreatmentPanel) -> None:
    write_cells(path, panel.values, first_col=1)


def write_matrix_csv(path, matrix: np.ndarray, first_round: int = 1) -> None:
    """Write a (units, rounds) matrix, e.g. an exposure matrix, in panel CSV form."""
    write_cells(path, matrix, first_col=first_round)


# A reader's panel copies what ``read_cells`` returns, after the parsed rows
# are freed, so the copy lands low in glibc's heap. Kept in place instead, the
# array sat above the freed rows: a fresh ``spillsim estimate`` of clustered.cfg
# at N = 10^5 peaked at 64.1 MB, not 61.0 (ru_maxrss, numpy 2.4.6, 2 vCPU).
def read_outcome_csv(path) -> OutcomePanel:
    return OutcomePanel(read_cells(path, first_col=0))


def read_treatment_csv(path) -> TreatmentPanel:
    values = read_cells(path, first_col=1)
    if not np.all((values == 0.0) | (values == 1.0)):  # named by its first row in the file
        for k, (_, text) in enumerate(_data_lines(path)):
            unit, round_, value = next(csv.reader([text]))
            if float(value) not in (0.0, 1.0):
                raise _row_fault(path, k, f"value at unit {int(unit)}, round {int(round_)} is not exactly 0 or 1")
    return TreatmentPanel(values)


def write_rows(path, header: Sequence[str], rows) -> None:
    """Write a result table: the header, then one CSV row per entry of
    ``rows``. ``csv.writer`` writes each float as its repr (numpy's too) and
    None as an empty field."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_cells(path, values: np.ndarray, first_col: int = 0) -> None:
    """Write a 2-d matrix as one CSV row "row,col,value" per cell, unit-major.

    Columns are numbered from ``first_col``. Units are written in blocks of
    about ``_BLOCK_CELLS`` (2^14) cells, and only one block at a time is
    copied or formatted, so memory is bounded by one block whatever the size
    or memory order of ``values``. The rows of a block are one ``%``-format of
    a template stamped per unit, so no Python code runs per cell. In a block
    whose values repeat, each distinct value, told apart by its bits, is
    formatted by ``repr`` once: a 0/1 treatment matrix or an exposure matrix
    with a few values per round thus costs little to write. A block in which
    more than half the cells are distinct, such as noisy outcomes, is filled
    with its floats, so it holds no ``str`` per cell before the text.
    """
    values = np.asarray(values, dtype=np.float64)
    n, cols = values.shape
    unit_rows = "".join(f"#,{first_col + c},%s\r\n" for c in range(cols))
    per_block = max(1, _BLOCK_CELLS // max(cols, 1))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(PANEL_HEADER) + "\r\n")
        for lo in range(0, n, per_block):
            fh.write(_block_rows(values, lo, min(n, lo + per_block), unit_rows))


def _block_rows(values: np.ndarray, lo: int, hi: int, unit_rows: str) -> str:
    """The CSV rows of units lo..hi-1, ``unit_rows`` stamped with each unit id
    and filled with the repr of its values. If more than half the cells are
    distinct, the fill is the block's Python floats, as ``%s`` of a float is
    its ``repr``; otherwise it is one ``repr`` per distinct value, gathered.
    Keying on bits keeps -0.0 apart from 0.0; every NaN prints as ``nan``."""
    block = np.ascontiguousarray(values[lo:hi]).ravel()
    # Counted on a sort: np.unique without an inverse takes over 10x as long.
    n_distinct = 1 + np.count_nonzero(np.diff(np.sort(block.view(np.uint64))))
    if 2 * n_distinct > block.size:
        cells = tuple(block.tolist())
    else:
        distinct, inverse = np.unique(block.view(np.uint64), return_inverse=True)
        del block  # each transient goes before the next one is made
        cells = tuple(_repr(distinct.view(np.float64))[inverse].tolist())
        del distinct, inverse
    return "".join([unit_rows.replace("#", str(i)) for i in range(lo, hi)]) % cells


def read_cells(path, first_col: int = 0) -> np.ndarray:
    """Read a CSV written by ``write_cells`` back into its matrix.

    Row ids start at 0 and column ids at ``first_col``; every (row, col) cell
    in the bounding rectangle must appear exactly once, in any order, with a
    finite value. Errors name the file and, where one row is at fault, its
    line.
    """
    suffix = os.path.splitext(path)[1]
    if suffix in _COMPRESSED_SUFFIXES:
        raise ValueError(f"{path}: panel CSVs are read as plain text, not as {suffix} archives")
    row_name, col_name, value_name = PANEL_HEADER
    try:
        with open(path) as fh:
            header_ok = next(csv.reader([fh.readline()]), None) == list(PANEL_HEADER)
        if header_ok:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                cells = np.loadtxt(os.path.abspath(path), dtype=_CELL, delimiter=",", comments=None, quotechar='"',
                                   ndmin=1, skiprows=1)
    except ValueError as exc:
        raise _parse_fault(path) or ValueError(f"{path}: {exc}") from None
    if not header_ok:
        raise ValueError(f"{path}: expected header {','.join(PANEL_HEADER)}")
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
    if rows * cols == cells.size:  # then the keys are all present iff none repeats
        flat = a * cols
        flat += b - first_col
        hit = np.zeros(cells.size, dtype=bool)
        hit[flat] = True
        if hit.all():
            del hit  # each transient goes before the next one is made
            values = np.empty(rows * cols)
            values[flat] = v
            return values.reshape(rows, cols)
    raise _key_fault(path, a, b, first_col, cols)


def undecodable_line(path, encoding: str) -> tuple[int, str]:
    """The number of the first line of ``path`` that ``encoding`` cannot
    decode, and which byte of it fails. Only called once decoding the file is
    known to fail."""
    for number, line in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            line.decode(encoding)
        except UnicodeDecodeError as exc:
            return number, f"byte 0x{line[exc.start]:02x} at column {exc.start + 1} is not valid {exc.encoding}"
    raise ValueError(f"{path}: every line decodes as {encoding}")


def _data_lines(path) -> list[tuple[int, str]]:
    """(line number, text) of the rows ``np.loadtxt`` parses, in order: every
    line after the header that is not empty."""
    with open(path) as fh:
        fh.readline()
        return [(n, line.rstrip("\n")) for n, line in enumerate(fh, start=2) if line != "\n"]


def _row_fault(path, k: int, message: str) -> ValueError:
    line, text = _data_lines(path)[k]
    return ValueError(f"{path}:{line}: {message}: {text!r}")


def _parse_fault(path) -> ValueError | None:
    """The first line that does not decode, else the first row ``np.loadtxt``
    could not parse, found by a rescan in Python."""
    try:
        lines = _data_lines(path)
    except UnicodeDecodeError as exc:
        line, message = undecodable_line(path, exc.encoding)
        return ValueError(f"{path}:{line}: {message}")
    for line, text in lines:
        message = _field_fault(next(csv.reader([text])))
        if message is not None:
            return ValueError(f"{path}:{line}: {message}: {text!r}")
    return None


def _field_fault(fields: list[str]) -> str | None:
    if len(fields) != 3:
        return f"expected 3 fields {','.join(PANEL_HEADER)}, found {len(fields)}"
    for name, field in zip(PANEL_HEADER, fields[:2]):
        if not _INT_FIELD.fullmatch(field) or not -(2**63) <= int(field) < 2**63:
            return f"{name} {field!r} is not an integer id"
    try:
        float(fields[2])
    except ValueError:
        return f"{PANEL_HEADER[2]} {fields[2]!r} is not a number"
    return None


def _key_fault(path, a: np.ndarray, b: np.ndarray, first_col: int, cols: int) -> ValueError:
    """Name the first repeated key in file order, else the first missing cell
    in row-major order. Only called once the keys are known to be faulty."""
    row_name, col_name, _ = PANEL_HEADER
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

import csv
import os
import random
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spillsim import panel as panel_mod
from spillsim.design import DesignSpec, assign, constant_design
from spillsim.dynamics import ExposureMatrix
from spillsim.panel import (
    CovariatePanel,
    OutcomePanel,
    RoundPanel,
    TreatmentPanel,
    column_mean,
    read_outcome_csv,
    read_treatment_csv,
    round_index_covariates,
    write_matrix_csv,
    write_outcome_csv,
    write_rows,
    write_treatment_csv,
)


def test_treatment_panel_rejects_nonbinary():
    for bad in (0.5, -1.0, 2.0):
        with pytest.raises(ValueError, match="exactly 0 or 1"):
            TreatmentPanel(np.array([[0.0, bad], [1.0, 1.0]]))


def test_treatment_column_mean():
    w = TreatmentPanel(np.array([[1.0], [0.0], [1.0]]))
    assert column_mean(w, 1) == pytest.approx(2.0 / 3.0)


def test_column_mean_zero_column():
    w = TreatmentPanel(np.zeros((4, 2)))
    assert column_mean(w, 1) == 0.0


def test_outcome_column_mean():
    y = OutcomePanel(np.array([[0.0, 2.0], [0.0, 4.0], [0.0, 6.0]]))
    assert column_mean(y, 1) == 4.0


def test_column_out_of_range():
    y = OutcomePanel(np.zeros((2, 3)))
    with pytest.raises(IndexError):
        y.column(3)
    w = TreatmentPanel(np.ones((2, 2)))
    with pytest.raises(IndexError):
        w.column(0)


@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=30))
def test_treatment_column_mean_in_unit_interval(bits):
    w = TreatmentPanel(np.array(bits, dtype=float).reshape(-1, 1))
    m = column_mean(w, 1)
    assert 0.0 <= m <= 1.0
    assert (m == 0.0) == all(b == 0 for b in bits)
    assert (m == 1.0) == all(b == 1 for b in bits)


def test_csv_roundtrip(tmp_path):
    y = OutcomePanel(np.array([[0.25, -1.5, 3.0], [1.0, 2.0, -0.125]]))
    w = TreatmentPanel(np.array([[1.0, 0.0], [0.0, 1.0]]))
    write_outcome_csv(tmp_path / "y.csv", y)
    write_treatment_csv(tmp_path / "w.csv", w)
    assert np.array_equal(read_outcome_csv(tmp_path / "y.csv").values, y.values)
    assert np.array_equal(read_treatment_csv(tmp_path / "w.csv").values, w.values)


def test_csv_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("unit,round,value\n0,0,1.0\n0,0,2.0\n")
    with pytest.raises(ValueError, match="duplicate"):
        read_outcome_csv(path)


def test_csv_rejects_missing_cells(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("unit,round,value\n0,0,1.0\n0,1,1.0\n1,0,1.0\n")
    with pytest.raises(ValueError):
        read_outcome_csv(path)


def _reference_csv(path, values, first_round):
    # The format's definition: csv.writer rows of int ids and repr floats.
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["unit", "round", "value"])
        for i in range(values.shape[0]):
            for c in range(values.shape[1]):
                writer.writerow([i, first_round + c, repr(float(values[i, c]))])


_EDGE_VALUES = [-0.0, 0.0, 5e-324, 1e-5, 1e16, 1e22, 0.1 + 0.2, 3.0, -7.0, 1e300, float("nan"), float("inf"), -float("inf")]


@pytest.mark.parametrize("first_round", [0, 1, 5])
def test_csv_writer_matches_csv_module_bytes(tmp_path, first_round):
    # 3 columns x 30001 units spans two write blocks, the last one partial.
    values = np.random.default_rng(1).standard_normal((30001, 3)) * 10.0 ** np.arange(-3, 0)
    assert values.size > panel_mod._BLOCK_CELLS
    values.ravel()[: len(_EDGE_VALUES)] = _EDGE_VALUES
    values[-1] = [1.0, 2.0, -0.0]
    write_matrix_csv(tmp_path / "new.csv", values, first_round=first_round)
    _reference_csv(tmp_path / "ref.csv", values, first_round)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_csv_writer_small_blocks_match_reference(tmp_path, monkeypatch):
    values = np.arange(35, dtype=float).reshape(7, 5) / 3.0
    _reference_csv(tmp_path / "ref.csv", values, 0)
    for block in (1, 4, 5, 6, 35, 36):
        monkeypatch.setattr(panel_mod, "_BLOCK_CELLS", block)
        write_outcome_csv(tmp_path / "new.csv", OutcomePanel(values))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes(), block


def test_csv_writer_memory_is_bounded_by_block(tmp_path, monkeypatch):
    # 20 blocks: the writer must hold about one block of text, not the file.
    monkeypatch.setattr(panel_mod, "_BLOCK_CELLS", 4096)
    values = np.random.default_rng(2).standard_normal((20_480, 4))
    tracemalloc.start()
    try:
        write_matrix_csv(tmp_path / "big.csv", values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < os.path.getsize(tmp_path / "big.csv") / 4


def test_csv_writer_memory_is_bounded_by_block_for_fortran_order(tmp_path, monkeypatch):
    # Only one block at a time is made contiguous, never the whole matrix.
    monkeypatch.setattr(panel_mod, "_BLOCK_CELLS", 4096)
    values = np.asfortranarray(np.random.default_rng(2).standard_normal((20_480, 4)))
    tracemalloc.start()
    try:
        write_matrix_csv(tmp_path / "big.csv", values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < os.path.getsize(tmp_path / "big.csv") / 4


@pytest.mark.parametrize("value", [0, 1])
def test_csv_writer_on_a_constant_broadcast(tmp_path, monkeypatch, value):
    # A constant observed design is a stride-0 broadcast: it is written block
    # by block, as the matrix it stands for, never materialized whole.
    monkeypatch.setattr(panel_mod, "_BLOCK_CELLS", 4096)
    w = assign(constant_design(20_480, 4, value), 0)
    assert w.values.strides == (0, 0)
    tracemalloc.start()
    try:
        write_treatment_csv(tmp_path / "broadcast.csv", w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    write_treatment_csv(tmp_path / "copy.csv", TreatmentPanel(np.array(w.values)))
    assert (tmp_path / "broadcast.csv").read_bytes() == (tmp_path / "copy.csv").read_bytes()
    assert peak < os.path.getsize(tmp_path / "broadcast.csv") / 4


def _from_bits(bits: int) -> float:
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


# Values that compare equal but print apart (the zeros), that print alike but
# differ in their bits (the NaN payloads), and a few whose repr is long.
_REPEATED_VALUES = [0.0, -0.0, _from_bits(0x7FF8000000000001), _from_bits(0xFFF8000000000000), 5e-324, 1e22, 0.1 + 0.2]


@given(st.lists(st.sampled_from(_REPEATED_VALUES[2:]), max_size=2), st.integers(1, 7), st.integers(1, 6),
       st.integers(1, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_csv_writer_matches_reference_on_repeated_values(tmp_path_factory, others, block, n, cols, data):
    # Both zeros are in every pool, so most examples put them in one block.
    pool = [0.0, -0.0, *others]
    cells = data.draw(st.lists(st.sampled_from(pool), min_size=n * cols, max_size=n * cols))
    values = np.array(cells, dtype=np.float64).reshape(n, cols)
    path = tmp_path_factory.mktemp("rep")
    _reference_csv(path / "ref.csv", values, 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(panel_mod, "_BLOCK_CELLS", block)
        write_matrix_csv(path / "new.csv", values)
    assert (path / "new.csv").read_bytes() == (path / "ref.csv").read_bytes()


def test_csv_writer_repeats_a_value_across_a_block_boundary(tmp_path, monkeypatch):
    # Blocks of two units, each holding both rows: every value repeats across
    # each block boundary, and both zeros share every block.
    monkeypatch.setattr(panel_mod, "_BLOCK_CELLS", 8)
    zero, negzero, nan_a, nan_b, tiny, big, sum_ = _REPEATED_VALUES
    first, second = [zero, negzero, nan_a, big], [nan_b, tiny, sum_, negzero]
    values = np.array([first, second, second, first, first, second, second])
    _reference_csv(tmp_path / "ref.csv", values, 1)
    write_matrix_csv(tmp_path / "new.csv", values)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


_any_finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


@given(st.integers(1, 6), st.integers(2, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_csv_roundtrip_is_bit_exact(tmp_path_factory, n, cols, data):
    flat = data.draw(st.lists(_any_finite, min_size=n * cols, max_size=n * cols))
    values = np.array(flat, dtype=np.float64).reshape(n, cols)
    path = tmp_path_factory.mktemp("rt") / "y.csv"
    write_outcome_csv(path, OutcomePanel(values))
    again = read_outcome_csv(path).values
    assert np.array_equal(again.view(np.uint64), values.view(np.uint64))


def test_csv_reader_accepts_any_order_line_ends_and_blank_lines(tmp_path):
    y = OutcomePanel(np.array([[0.25, -1.5, 3.0], [1.0, 2.0, -0.0]]))
    write_outcome_csv(tmp_path / "y.csv", y)
    header, *rows = (tmp_path / "y.csv").read_text().splitlines()
    random.Random(3).shuffle(rows)
    variants = {
        "shuffled_crlf": "\r\n".join([header, *rows]) + "\r\n",
        "lf_only": "\n".join([header, *rows]) + "\n",
        "blank_lines": "\n".join([header, "", rows[0], "", "", *rows[1:], ""]) + "\n",
        "no_final_newline": "\n".join([header, *rows]),
    }
    for name, text in variants.items():
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text.encode())
        got = read_outcome_csv(path).values
        assert np.array_equal(got.view(np.uint64), y.values.view(np.uint64)), name


_BAD_PANELS = {
    "duplicate": ("0,0,1.0\n0,1,1.0\n\n0,1,2.0\n", r":5: duplicate \(unit, round\) key \(0, 1\), first at line 3"),
    "gap": ("0,0,1.0\n0,1,1.0\n1,1,1.0\n", r": no row for unit 1, round 0$"),
    "missing_unit": ("0,0,1.0\n0,1,1.0\n2,0,1.0\n2,1,1.0\n", r": no row for unit 1, round 0$"),
    "negative_unit": ("0,0,1.0\n-1,1,1.0\n", r":3: unit -1 is out of range \(first unit is 0\)"),
    "fractional_unit": ("0,0,1.0\n1.5,0,1.0\n", r":3: unit '1.5' is not an integer id"),
    "exponent_round": ("0,0,1.0\n0,1e0,1.0\n", r":3: round '1e0' is not an integer id"),
    "short_row": ("0,0,1.0\n0,1\n", r":3: expected 3 fields unit,round,value, found 2"),
    "long_row": ("0,0,1.0\n0,1,1.0,2.0\n", r":3: expected 3 fields unit,round,value, found 4"),
    "bad_value": ("0,0,1.0\n\n0,1,one\n", r":4: value 'one' is not a number"),
    "non_finite": ("0,0,1.0\n0,1,nan\n", r":3: non-finite value at unit 0, round 1"),
    # The byte 0xff, written through surrogateescape.
    "undecodable_byte": ("0,0,1.0\n0,1,1.\udcff\n", r":3: byte 0xff at column 7 is not valid utf-8$"),
    # Past the first 8 KiB, which the header check decodes, so numpy's parser meets it.
    "undecodable_byte_past_8_kib": (
        "".join(f"{i},0,1.0\n" for i in range(1000)) + "1000,0,\udcff\n",
        r":1002: byte 0xff at column 8 is not valid utf-8$",
    ),
}


@pytest.mark.parametrize("case", sorted(_BAD_PANELS))
def test_csv_reader_errors_name_file_and_line(tmp_path, case):
    body, pattern = _BAD_PANELS[case]
    path = tmp_path / f"{case}.csv"
    path.write_text("unit,round,value\n" + body, errors="surrogateescape")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}{pattern}"):
        read_outcome_csv(path)


def test_csv_reader_names_an_undecodable_header_byte(tmp_path):
    path = tmp_path / "y.csv"
    path.write_bytes(b"unit,round,val\xffe\n0,0,1.0\n0,1,1.0\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: byte 0xff at column 15 is not valid utf-8$"):
        read_outcome_csv(path)


def test_csv_reader_takes_a_str_or_a_path(tmp_path):
    w = TreatmentPanel(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
    path = tmp_path / "w.csv"
    write_treatment_csv(path, w)
    for given in (str(path), path):
        assert np.array_equal(read_treatment_csv(given).values, w.values)


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_csv_reader_refuses_a_compression_suffix_by_name(tmp_path, monkeypatch, suffix):
    # A plain-text panel: numpy would open it through a decompressor by its suffix.
    path = tmp_path / f"outcomes.csv{suffix}"
    write_outcome_csv(path, OutcomePanel(np.array([[0.25, -1.5]])))

    def opened(*args, **kwargs):
        raise AssertionError("the reader opened the file")

    monkeypatch.setattr(np, "loadtxt", opened)
    monkeypatch.setattr("builtins.open", opened)
    message = f"{path}: panel CSVs are read as plain text, not as {suffix} archives"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_outcome_csv(path)


def test_csv_reader_rejects_round_before_first(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("unit,round,value\n0,1,1.0\n0,0,1.0\n")
    with pytest.raises(ValueError, match=r"w\.csv:3: round 0 is out of range \(first round is 1\)"):
        read_treatment_csv(path)


def test_csv_reader_header_only_file_warns_nothing(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("unit,round,value\r\n\r\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no data rows"):
            read_outcome_csv(path)


@pytest.mark.parametrize("n, t", [(1, 1), (5, 4), (3, 9)])
def test_round_index_covariates_broadcast_the_round_numbers(n, t):
    x = round_index_covariates(n, t)
    materialized = np.zeros((n, t, 1))
    materialized[:, :, 0] = np.arange(1, t + 1)
    assert (x.n_units, x.n_rounds, x.dim) == (n, t, 1)
    assert x.values.dtype == np.float64 and x.values.shape == materialized.shape
    assert x.values.strides[0] == 0  # one row of round numbers serves every unit
    assert np.array_equal(x.values.view(np.uint64), materialized.view(np.uint64))
    for r in range(1, t + 1):
        assert np.array_equal(x.column(r), materialized[:, r - 1])
    with pytest.raises(ValueError, match="read-only"):
        x.values[0, 0, 0] = 7.0
    with pytest.raises(ValueError, match="read-only"):
        x.column(t)[:] = 7.0


def _rolling_column_held_as(layout: str, n: int, t_max: int) -> tuple[tuple[float, ...], RoundPanel]:
    """The round means of a suite column evolved without its history, and a
    panel of ``layout`` that holds the same column's values."""
    from spillsim.dynamics import DynamicsSpec, LinearPeer, LinearUnit, WeightedSumExposure, ZeroPeer
    from spillsim.dynamics import counterfactual_suite
    from spillsim.weights import gen_clustered

    rng = np.random.default_rng(n + t_max)
    spec = DynamicsSpec(LinearUnit(w_coef=1.3, y_coef=0.9, intercept=-0.4), LinearPeer(0.5, 0.2),
                        WeightedSumExposure(), noise_sd=2.0)
    w = assign(DesignSpec(kind="bernoulli", n_units=n, n_rounds=t_max, probs=(0.3,) * t_max), 4)
    y0 = rng.normal(7.0, 1e3, n)
    if layout == "broadcast":  # every unit alike, so one unit's row holds the column
        spec = DynamicsSpec(spec.unit, spec.peer, spec.exposure)
        w, y0 = assign(constant_design(n, t_max, 1), 0), np.full(n, y0[0])
    if layout == "treatment":  # outcomes that are the assignments themselves
        spec, y0 = DynamicsSpec(LinearUnit(w_coef=1.0), ZeroPeer(), WeightedSumExposure()), np.zeros(n)
    args = (spec, gen_clustered(n, 1, 1.0, 0.0), [assign(constant_design(n, t_max, 0), 0), w],
            round_index_covariates(n, t_max), y0, 5)
    suite, full = counterfactual_suite(*args, keep=[0]), counterfactual_suite(*args)[1]
    assert suite[1] is None
    # A kept column is a view of a round-major (T+1, s, N) buffer: its round
    # columns are contiguous, and consecutive rounds are s*N entries apart.
    assert full.values.strides == (8, 2 * n * 8)
    panels = {
        "c_ordered": OutcomePanel(np.ascontiguousarray(full.values)),
        "f_ordered": OutcomePanel(np.asfortranarray(full.values)),
        "evolved_view": full,
        "broadcast": OutcomePanel._built(np.broadcast_to(full.values[0], full.values.shape)),
        "treatment": w,
    }
    held = panels[layout]
    assert np.array_equal(held.values, full.values[:, held.first_round:])
    return suite.means[1], held


@pytest.mark.parametrize("layout", ["c_ordered", "f_ordered", "evolved_view", "broadcast", "treatment"])
@pytest.mark.parametrize("n, t_max", [(1, 1), (1000, 4), (4099, 3), (20000, 8)])
def test_round_means_are_the_column_means_bit_for_bit(layout, n, t_max):
    # Evolution reduces each round of a column it keeps no history for as the
    # round is written; those means are column_mean's bits of any panel that
    # holds the column, whatever its memory layout.
    means, panel = _rolling_column_held_as(layout, n, t_max)
    want = [column_mean(panel, t) for t in range(panel.first_round, panel.n_rounds + 1)]
    got = means[panel.first_round:]
    assert all(type(m) is float for m in got)
    assert np.array(got).view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()


def test_round_index_covariates_reject_an_empty_population():
    with pytest.raises(ValueError, match="degenerate shape"):
        round_index_covariates(0, 3)


@pytest.mark.parametrize(
    "cls, shape",
    [(TreatmentPanel, (2, 3)), (OutcomePanel, (2, 3)), (CovariatePanel, (2, 3, 1)), (ExposureMatrix, (2, 3))],
)
def test_every_round_panel_checks_copies_and_freezes_its_values(cls, shape):
    outside = np.ones(shape)
    panel = cls(outside)
    outside[0, 0] = 0.0
    assert np.all(panel.values == 1.0) and panel.values.dtype == np.float64
    with pytest.raises(ValueError, match="read-only"):
        panel.values[0, 0] = 0.0
    with pytest.raises(AttributeError):
        panel.values = outside
    assert cls(np.ones(shape, dtype=np.int64)).values.dtype == np.float64

    with pytest.raises(ValueError, match=f"{len(shape)}-d"):
        cls(np.ones(shape[:-1]))
    with pytest.raises(ValueError, match=f"{len(shape)}-d"):
        cls(np.ones((*shape, 1)))
    for empty_axis in range(len(shape)):
        degenerate = list(shape)
        degenerate[empty_axis] = 0
        with pytest.raises(ValueError, match="degenerate shape"):
            cls(np.ones(degenerate))
    for bad in (np.nan, np.inf, -np.inf):
        vals = np.ones(shape)
        vals[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            cls(vals)


def test_outcome_panel_needs_a_round_after_the_baseline():
    assert OutcomePanel(np.zeros((2, 2))).n_rounds == 1
    with pytest.raises(ValueError, match="degenerate shape"):
        OutcomePanel(np.zeros((2, 1)))


def test_write_rows_gives_the_bytes_of_repr_formatting(tmp_path):
    floats = [float("nan"), -0.0, 1e300, 1e-310, float("inf"), -float("inf"), 0.1 + 0.2, 1e16, 1e-5, 123456.789, 5e-324]
    floats += list(np.random.default_rng(5).standard_normal(50) * 10.0 ** np.arange(-25, 25))
    rows = [["name", k, float(v), np.float64(v), None, "" if k % 2 else None] for k, v in enumerate(floats)]
    header = ["estimator", "round", "python", "numpy", "none", "empty"]
    write_rows(tmp_path / "rows.csv", header, rows)

    with open(tmp_path / "old.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for name, k, v, nv, _, _ in rows:
            writer.writerow([name, k, repr(v), repr(float(nv)), "", ""])
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

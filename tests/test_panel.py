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
from spillsim.panel import (
    CovariatePanel,
    OutcomePanel,
    TreatmentPanel,
    column_mean,
    read_outcome_csv,
    read_treatment_csv,
    round_index_covariates,
    write_matrix_csv,
    write_outcome_csv,
    write_treatment_csv,
)


def test_treatment_panel_rejects_nonbinary():
    with pytest.raises(ValueError):
        TreatmentPanel(np.array([[0.5]]))


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
}


@pytest.mark.parametrize("case", sorted(_BAD_PANELS))
def test_csv_reader_errors_name_file_and_line(tmp_path, case):
    body, pattern = _BAD_PANELS[case]
    path = tmp_path / f"{case}.csv"
    path.write_text("unit,round,value\n" + body)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}{pattern}"):
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


def test_round_index_covariates_reject_an_empty_population():
    with pytest.raises(ValueError, match="degenerate shape"):
        round_index_covariates(0, 3)


def test_covariate_panel_checks_and_freezes_outside_arrays():
    outside = np.ones((2, 3, 1))
    x = CovariatePanel(outside)
    outside[0, 0, 0] = 5.0
    assert x.values[0, 0, 0] == 1.0 and not x.values.flags.writeable
    with pytest.raises(ValueError, match="3-d"):
        CovariatePanel(np.ones((2, 3)))
    with pytest.raises(ValueError, match="degenerate"):
        CovariatePanel(np.ones((2, 0, 1)))
    with pytest.raises(ValueError, match="finite"):
        CovariatePanel(np.full((2, 3, 1), np.nan))

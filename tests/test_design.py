import tracemalloc

import numpy as np
import pytest

from spillsim.design import DRAW_BLOCK, DesignSpec, assign, constant_design, ramp_design
from spillsim.panel import TreatmentPanel
from spillsim.rng import substream


def test_degenerate_probs():
    spec = DesignSpec(kind="bernoulli", n_units=20, n_rounds=3, probs=(0.0, 0.0, 0.0))
    assert not assign(spec, 1).values.any()
    spec = DesignSpec(kind="bernoulli", n_units=20, n_rounds=3, probs=(1.0, 1.0, 1.0))
    assert assign(spec, 1).values.all()


def test_constant_design():
    # A read-only broadcast of the one value: no (n_units, n_rounds) array.
    for value in (0, 1):
        w = assign(constant_design(5, 2, value), 0)
        assert w.values.shape == (5, 2) and (w.n_units, w.n_rounds) == (5, 2)
        assert w.values.dtype == np.float64 and w.values.strides == (0, 0)
        assert not w.values.flags.writeable
        assert np.array_equal(w.values, np.full((5, 2), float(value)))


def test_constant_panel_allocates_no_panel():
    # A (10^6, 5) float64 panel is 40 MB; the broadcast holds one value.
    spec = constant_design(10**6, 5, 1)
    tracemalloc.start()
    try:
        w = assign(spec, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w.values.shape == (10**6, 5)
    assert peak < 64 * 1024


def _copied_bernoulli(spec: DesignSpec, seed: int) -> TreatmentPanel:
    # The construction before the one-pass panel: a bool comparison, an
    # F-ordered copy, then the scanned float64 copy of the constructor.
    u = substream(seed, "design").random((spec.n_units, spec.n_rounds))
    return TreatmentPanel(np.asfortranarray(u < np.asarray(spec.probs)))


# Populations of several draw blocks, with and without a partial last block,
# check that the block draws continue the one-shot draw's stream.
@pytest.mark.parametrize("n", [1, 1000, 4099, DRAW_BLOCK, DRAW_BLOCK + 1, 100003])
def test_bernoulli_panel_matches_the_copied_construction_bit_for_bit(n):
    spec = DesignSpec(kind="bernoulli", n_units=n, n_rounds=5, probs=(0.0, 0.2, 1.0, 0.5, 0.999))
    for seed in (0, 7, 12345):
        w, ref = assign(spec, seed), _copied_bernoulli(spec, seed)
        assert w.values.shape == ref.values.shape == (n, 5)
        assert w.values.dtype == np.float64 and w.values.flags.f_contiguous
        assert not w.values.flags.writeable
        assert np.array_equal(w.values.view(np.uint64), ref.values.view(np.uint64))
        assert not w.column(1).any() and w.column(3).all()


def test_bernoulli_panel_allocates_its_draw_and_itself_only():
    # The panel is 40 MB at (10^6, 5). Its uniforms are drawn one block of
    # units at a time, and a block is freed when the next one is drawn: one
    # (10^6, 5) draw peaked at 80 MB, the copied construction near 95 MB.
    spec = DesignSpec(kind="bernoulli", n_units=10**6, n_rounds=5, probs=(0.0, 0.2, 0.4, 0.6, 0.8))
    tracemalloc.start()
    try:
        w = assign(spec, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= w.values.nbytes + 2 * DRAW_BLOCK * 5 * 8 + 2**20


def test_ramp_design_shape():
    spec = ramp_design(5)
    assert spec.probs == (0.0, 0.2, 0.4, 0.8)
    assert spec.n_rounds == 4
    w = assign(spec, 3)
    assert not w.column(1).any()


def test_ramp_realized_fractions_within_binomial_bounds():
    n = 10000
    spec = ramp_design(n)
    w = assign(spec, 42)
    for t, pi in enumerate(spec.probs, start=1):
        bound = 3.0 * np.sqrt(pi * (1 - pi) / n)
        assert abs(w.column(t).mean() - pi) <= bound


def test_assign_pure_function_of_spec_and_seed():
    spec = ramp_design(50)
    assert np.array_equal(assign(spec, 9).values, assign(spec, 9).values)
    assert not np.array_equal(assign(spec, 9).values, assign(spec, 10).values)


def test_invalid_probability_rejected():
    with pytest.raises(ValueError):
        DesignSpec(kind="bernoulli", n_units=2, n_rounds=1, probs=(1.5,))
    with pytest.raises(ValueError):
        DesignSpec(kind="bernoulli", n_units=2, n_rounds=2, probs=(0.5,))
    with pytest.raises(ValueError):
        DesignSpec(kind="constant", n_units=2, n_rounds=1, value=2)


def test_entry_independence_shadow():
    # Correlation between two fixed entries across 200 seeded draws stays
    # within 4/sqrt(200) of zero.
    spec = DesignSpec(kind="bernoulli", n_units=4, n_rounds=2, probs=(0.5, 0.5))
    draws = np.array([assign(spec, s).values.ravel() for s in range(200)])
    a = draws[:, 0]
    for k in range(1, draws.shape[1]):
        b = draws[:, k]
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) <= 4.0 / np.sqrt(200)

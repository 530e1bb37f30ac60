"""Randomized treatment assignment policies."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .panel import TreatmentPanel
from .rng import substream

RAMP_PROBS = (0.0, 0.2, 0.4, 0.8)
DRAW_BLOCK = 1 << 15  # units whose Bernoulli uniforms are drawn at once


@dataclass(frozen=True)
class DesignSpec:
    """Assignment policy: independent per-round Bernoulli draws, or a constant
    panel (used for the universal-treatment and no-treatment scenarios)."""

    kind: str  # "bernoulli" | "constant"
    n_units: int
    n_rounds: int
    probs: tuple[float, ...] | None = None
    value: int | None = None

    def __post_init__(self):
        if self.n_units < 1 or self.n_rounds < 1:
            raise ValueError("design needs at least one unit and one round")
        if self.kind == "bernoulli":
            if self.probs is None or len(self.probs) != self.n_rounds:
                raise ValueError(f"bernoulli design needs {self.n_rounds} per-round probabilities")
            probs = tuple(float(p) for p in self.probs)
            for p in probs:
                if not (np.isfinite(p) and 0.0 <= p <= 1.0):
                    raise ValueError(f"assignment probability {p} outside [0, 1]")
            object.__setattr__(self, "probs", probs)
        elif self.kind == "constant":
            if self.value not in (0, 1):
                raise ValueError("constant design value must be 0 or 1")
        else:
            raise ValueError(f"unknown design kind {self.kind!r}")


def assign(spec: DesignSpec, seed: int) -> TreatmentPanel:
    """Draw one treatment panel; a pure function of (spec, seed). A Bernoulli
    panel is column-contiguous, as evolved outcome panels are, so each
    round's column is one contiguous run of units. Its uniforms are drawn
    ``DRAW_BLOCK`` units at a time, so no (n_units, n_rounds) array of them
    exists whole, and their comparisons are written as 0.0/1.0 straight into
    the round-major float64 buffer behind it, so it is exactly 0/1 by
    construction and is not copied or scanned. A constant panel is a
    read-only broadcast of its one value (strides 0), so no (n_units,
    n_rounds) array is allocated or scanned."""
    shape = (spec.n_units, spec.n_rounds)
    if spec.kind == "constant":
        return TreatmentPanel._built(np.broadcast_to(float(spec.value), shape))
    rng, probs = substream(seed, "design"), np.asarray(spec.probs)[:, None]
    rounds = np.empty(shape[::-1])
    # The uniforms are drawn unit-major in blocks of units, which continues
    # the generator's stream exactly as one (n_units, n_rounds) draw would.
    for start in range(0, spec.n_units, DRAW_BLOCK):
        u = rng.random((min(DRAW_BLOCK, spec.n_units - start), spec.n_rounds))
        np.less(u.T, probs, out=rounds[:, start : start + len(u)])
    return TreatmentPanel.views(rounds.T[None])[0]


def ramp_design(n: int) -> DesignSpec:
    """Four-round ramp: probabilities 0%, 20%, 40%, 80%."""
    return DesignSpec(kind="bernoulli", n_units=n, n_rounds=4, probs=RAMP_PROBS)


def constant_design(n: int, n_rounds: int, value: int) -> DesignSpec:
    return DesignSpec(kind="constant", n_units=n, n_rounds=n_rounds, value=value)

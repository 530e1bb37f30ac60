"""Closed-form round mappings and their expansion coefficients.

A ``PolynomialMapping`` is a scalar function S(w, y, v) of the unit treatment
w, the previous aggregate outcome y, and the scenario-level input v, stored as
a monomial table so that every partial derivative is available exactly.

``expansion_coefficients`` turns such a mapping, linearized around the
no-treatment point (0, y0, v0), into the six regression-style coefficients

    next = c_w*w + c_y*y + c_v*v + c_wy*w*y + c_wv*w*v + c_0

using the fact that w is binary (so w^2 contributes to the w term). The
finite-difference table provides an independent numerical check of the same
partials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .estimators import ESECoefficients

EXPANSION_NAMES = ("w", "y_prev", "v", "w_y_prev", "w_v", "const")
# The partials the coefficients are assembled from, with their (w, y, v)
# derivative orders.
_PARTIALS = {"dx": (1, 0, 0), "dy": (0, 1, 0), "dz": (0, 0, 1), "dxx": (2, 0, 0), "dxy": (1, 1, 0), "dxz": (1, 0, 1)}


@dataclass(frozen=True)
class PolynomialMapping:
    """S(w, y, v) = sum over (i, j, k) of coef * w^i * y^j * v^k, with total
    degree at most 3."""

    terms: Mapping[tuple[int, int, int], float]

    def __post_init__(self):
        clean = {}
        for key, coef in dict(self.terms).items():
            i, j, k = (int(p) for p in key)
            if min(i, j, k) < 0 or i + j + k > 3:
                raise ValueError(f"monomial {key} outside total degree 3")
            if not np.isfinite(coef):
                raise ValueError(f"coefficient for {key} must be finite")
            if coef != 0.0:
                clean[(i, j, k)] = float(coef)
        object.__setattr__(self, "terms", clean)

    def value(self, w: float, y: float, v: float) -> float:
        return float(sum(c * w**i * y**j * v**k for (i, j, k), c in self.terms.items()))

    def partial(self, orders: tuple[int, int, int], at: tuple[float, float, float]) -> float:
        """Exact partial derivative of the given orders, evaluated at ``at``."""
        ow, oy, ov = orders
        w, y, v = at
        total = 0.0
        for (i, j, k), c in self.terms.items():
            if i < ow or j < oy or k < ov:
                continue
            factor = c
            for base, order in ((i, ow), (j, oy), (k, ov)):
                for step in range(order):
                    factor *= base - step
            total += factor * w ** (i - ow) * y ** (j - oy) * v ** (k - ov)
        return float(total)


def linear_mapping(const: float = 0.0, w: float = 0.0, y: float = 0.0, v: float = 0.0) -> PolynomialMapping:
    return PolynomialMapping({(0, 0, 0): const, (1, 0, 0): w, (0, 1, 0): y, (0, 0, 1): v})


def bilinear_mapping() -> PolynomialMapping:
    """S(w, y, v) = w * y."""
    return PolynomialMapping({(1, 1, 0): 1.0})


def expansion_coefficients(mapping: PolynomialMapping, y0: float, v0: float) -> ESECoefficients:
    """Exact expansion coefficients of ``mapping`` at the no-treatment point
    (0, y0, v0), named per EXPANSION_NAMES."""
    at = (0.0, float(y0), float(v0))
    partials = {name: mapping.partial(orders, at) for name, orders in _PARTIALS.items()}
    if not np.all(np.isfinite(list(partials.values()))):
        raise ValueError("mapping derivatives undefined at the baseline point")
    return coefficients_from_partials(partials, mapping.value(*at), y0, v0)


def coefficients_from_partials(partials: Mapping[str, float], mapping_value: float, y0: float, v0: float) -> ESECoefficients:
    """Assemble the six coefficients from a table of the ``_PARTIALS``, exact
    or (for checking the analytic route) finite differences."""
    c_w = partials["dx"] + 0.5 * partials["dxx"] - y0 * partials["dxy"] - v0 * partials["dxz"]
    c_0 = mapping_value - y0 * partials["dy"] - v0 * partials["dz"]
    values = np.array([c_w, partials["dy"], partials["dz"], partials["dxy"], partials["dxz"], c_0])
    return ESECoefficients(names=EXPANSION_NAMES, values=values, rss=0.0, n_rows=0)


def finite_diff_partials(
    mapping: PolynomialMapping, y0: float, v0: float, h: float = 1e-4
) -> dict[str, float]:
    """Central-difference estimates of the six partials used by
    ``expansion_coefficients``, taken at (0, y0, v0)."""
    if not h > 0:
        raise ValueError("step size must be positive")

    def f(w, y, v):
        val = mapping.value(w, y, v)
        if not np.isfinite(val):
            raise FloatingPointError(f"mapping not finite near the baseline at ({w}, {y}, {v})")
        return val

    w0 = 0.0
    out = {
        "dx": (f(w0 + h, y0, v0) - f(w0 - h, y0, v0)) / (2 * h),
        "dy": (f(w0, y0 + h, v0) - f(w0, y0 - h, v0)) / (2 * h),
        "dz": (f(w0, y0, v0 + h) - f(w0, y0, v0 - h)) / (2 * h),
        "dxx": (f(w0 + h, y0, v0) - 2 * f(w0, y0, v0) + f(w0 - h, y0, v0)) / h**2,
        "dxy": (
            f(w0 + h, y0 + h, v0) - f(w0 + h, y0 - h, v0) - f(w0 - h, y0 + h, v0) + f(w0 - h, y0 - h, v0)
        )
        / (4 * h**2),
        "dxz": (
            f(w0 + h, y0, v0 + h) - f(w0 + h, y0, v0 - h) - f(w0 - h, y0, v0 + h) + f(w0 - h, y0, v0 - h)
        )
        / (4 * h**2),
    }
    return out


def apply_expansion(coeffs: ESECoefficients, w: float, y: float, v: float) -> float:
    """Evaluate the six-term expansion at (w, y, v)."""
    if tuple(coeffs.names) != EXPANSION_NAMES:
        raise ValueError("coefficients are not in expansion form")
    c_w, c_y, c_v, c_wy, c_wv, c_0 = coeffs.values
    return float(c_w * w + c_y * y + c_v * v + c_wy * w * y + c_wv * w * v + c_0)


def taylor_propagate(
    mapping: PolynomialMapping,
    y_start: float,
    w_seq: Sequence[float],
    v_seq: Sequence[float],
    baseline_v_seq: Sequence[float] | None = None,
) -> list[float]:
    """Propagate a trajectory with per-round expansion coefficients.

    The coefficients for round t are taken at the no-treatment baseline point
    reached by iterating the mapping itself with w = 0 and the baseline
    scenario inputs. Returns the trajectory including the starting value.
    """
    if len(w_seq) != len(v_seq):
        raise ValueError("w and v sequences must have equal length")
    base_v = list(baseline_v_seq) if baseline_v_seq is not None else [0.0] * len(w_seq)
    if len(base_v) != len(w_seq):
        raise ValueError("baseline scenario sequence length mismatch")
    y_base = float(y_start)
    y = float(y_start)
    out = [y]
    for w_t, v_t, v0_t in zip(w_seq, v_seq, base_v):
        coeffs = expansion_coefficients(mapping, y_base, v0_t)
        y = apply_expansion(coeffs, float(w_t), y, float(v_t))
        y_base = mapping.value(0.0, y_base, v0_t)
        out.append(y)
    return out


def direct_recursion(
    mapping: PolynomialMapping, y_start: float, w_seq: Sequence[float], v_seq: Sequence[float]
) -> list[float]:
    """Iterate the mapping itself; the reference the expansion is checked
    against."""
    y = float(y_start)
    out = [y]
    for w_t, v_t in zip(w_seq, v_seq):
        y = mapping.value(float(w_t), y, float(v_t))
        out.append(y)
    return out

"""Normalized dwell time: a sigmoid reshaping of dwell seconds into a
bounded training weight.

    ndt(T) = a / (1 + exp(-(T - offset) / tau)) - b

The scale pair (a, b) is always derived from (offset, tau, t_max) so that
ndt(0) = 0 and ndt approaches t_max as T grows.  The curve is steepest at
T = offset (put the offset on the valid-read borderline), and tau controls
how quickly the tail flattens; ``solve_tau`` picks the largest tau whose
remaining tail gap at the saturation anchor x_h is within a precision
budget.

Defaults follow the deployed constants offset=15, tau=20, t_max=1.575
(a = 2.319, b = 0.744 to three decimals).  Note tau=20 leaves a tail gap of
about 2.2e-4 at x_h = 200; solving for a 1e-5 gap instead gives tau = 15.
Both parameterizations are supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

DEFAULT_OFFSET_S = 15.0
DEFAULT_TAU_S = 20.0
DEFAULT_T_MAX = 1.575
DEFAULT_PRECISION = 1e-5

NEG_MODES = ("unit", "literal")


def logistic(x):
    """Numerically stable 1 / (1 + exp(-x)); works on scalars and arrays."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True, slots=True)
class NdtParams:
    """Parameters of one normalized dwell-time curve."""

    offset: float
    tau: float
    a: float
    b: float
    t_max: float
    precision: float

    def __post_init__(self):
        if self.tau <= 0 or self.a <= 0 or self.b < 0 or self.t_max <= 0 or self.precision <= 0:
            raise ValueError("tau, a, t_max, precision must be positive and b >= 0")
        if not math.isclose(self.a - self.b, self.t_max, rel_tol=1e-9, abs_tol=1e-12):
            raise ValueError(f"a - b = {self.a - self.b} must equal t_max = {self.t_max}")
        expected_b = self.a * logistic(-self.offset / self.tau)
        if not math.isclose(self.b, expected_b, rel_tol=1e-9, abs_tol=1e-12):
            raise ValueError("b must equal a * logistic(-offset/tau), i.e. ndt(0) = 0")

    @classmethod
    def derive(
        cls,
        offset: float = DEFAULT_OFFSET_S,
        tau: float = DEFAULT_TAU_S,
        t_max: float = DEFAULT_T_MAX,
        precision: float = DEFAULT_PRECISION,
    ) -> "NdtParams":
        a, b = derive_scale(offset, tau, t_max)
        return cls(offset=offset, tau=tau, a=a, b=b, t_max=t_max, precision=precision)

    @classmethod
    def solve(
        cls,
        offset: float,
        x_h: float,
        precision: float = DEFAULT_PRECISION,
        t_max: float = DEFAULT_T_MAX,
    ) -> "NdtParams":
        tau = solve_tau(offset, x_h, precision, t_max)
        return cls.derive(offset=offset, tau=tau, t_max=t_max, precision=precision)

    @classmethod
    def from_doc(cls, doc) -> "NdtParams":
        try:
            return cls(**{field.name: float(doc[field.name]) for field in fields(cls)})
        except (KeyError, TypeError) as err:
            raise ValueError(f"NDT params JSON lacks a numeric field: {err}") from err


def paper_default_params(precision: float = DEFAULT_PRECISION) -> NdtParams:
    """The deployed curve: offset 15s, tau 20s, range 1.575."""
    return NdtParams.derive(DEFAULT_OFFSET_S, DEFAULT_TAU_S, DEFAULT_T_MAX, precision)


def ndt(T, p: NdtParams):
    """Normalized dwell time of T >= 0 seconds; scalar or array.

    Strictly increasing in T, zero at T = 0, approaching t_max from below.
    """
    return p.a * logistic((np.asarray(T, dtype=np.float64) - p.offset) / p.tau) - p.b


def derive_scale(offset: float, tau: float, t_max: float) -> tuple[float, float]:
    """Scale pair (a, b) pinning ndt(0) = 0 and sup ndt = t_max."""
    if tau <= 0 or t_max <= 0:
        raise ValueError("tau and t_max must be positive")
    a = t_max / logistic(offset / tau)
    b = a * logistic(-offset / tau)
    return a, b


def tail_gap(offset: float, tau: float, t_max: float, x_h: float) -> float:
    """How far ndt still is from t_max at T = x_h."""
    a, _ = derive_scale(offset, tau, t_max)
    return a * logistic(-(x_h - offset) / tau)


def check_precision(precision: float = DEFAULT_PRECISION, t_max: float = DEFAULT_T_MAX) -> None:
    """Raise ValueError unless 0 < precision < t_max: a tail gap no curve of
    range t_max can meet otherwise."""
    if precision <= 0 or precision >= t_max:
        raise ValueError(f"precision must be in (0, t_max = {t_max}), got {precision}")


def solve_tau(
    offset: float,
    x_h: float,
    precision: float = DEFAULT_PRECISION,
    t_max: float = DEFAULT_T_MAX,
) -> float:
    """Largest tau whose tail gap at x_h is within ``precision``.

    The gap grows with tau, so bisection brackets the boundary; the result
    is accurate to 1e-3 in tau.  Requires a finite x_h > offset and a
    feasible precision (< t_max).
    """
    if not offset < x_h < math.inf:
        raise ValueError(f"x_h = {x_h} must be finite and exceed offset = {offset}")
    check_precision(precision, t_max)
    lo = 1e-9
    hi = max(x_h - offset, 1.0)
    while tail_gap(offset, hi, t_max, x_h) <= precision:
        hi *= 2.0
        if hi > 1e9:
            raise ValueError("tail gap never exceeds precision; x_h too far out")
    if tail_gap(offset, lo, t_max, x_h) > precision:
        raise ValueError("no feasible tau: gap exceeds precision even as tau -> 0")
    while hi - lo > 1e-3:
        mid = (lo + hi) / 2.0
        if tail_gap(offset, mid, t_max, x_h) <= precision:
            lo = mid
        else:
            hi = mid
    return lo


def tower_weights(positive, transformed, neg_mode: str) -> np.ndarray:
    """Weighted-tower weights from each row's dwell transform.

    Positives weigh their transform.  Negatives weigh 1.0 in unit mode and
    their transform in literal mode.  Arrays (or scalars) in, float64 out.
    """
    if neg_mode not in NEG_MODES:
        raise ValueError(f"neg_mode must be one of {NEG_MODES}, got {neg_mode!r}")
    transformed = np.asarray(transformed, dtype=np.float64)
    if neg_mode == "literal":
        return transformed
    return np.where(positive, transformed, 1.0)


"""Closed-form local and string stability checks for the linear
car-following controller under bounded actuation dynamics, plus 2-D
parameter sweeps producing stability-region maps."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .plant import ControllerConfig

__all__ = [
    "StabilityVerdict",
    "RegionMap",
    "assess",
    "stability_region",
]

SWEEPABLE = ("k_s", "k_v", "k_a", "tau_star")

# margin layout: 5 local conditions then 3 string conditions,
# each expressed as LHS - RHS of a strict inequality (> 0 means satisfied)
N_LOCAL = 5
N_STRING = 3


@dataclass(frozen=True)
class StabilityVerdict:
    locally_stable: bool
    string_stable: bool
    margins: tuple[float, ...]  # 5 local + 3 string

    def __post_init__(self):
        assert len(self.margins) == N_LOCAL + N_STRING

    @property
    def local_margins(self) -> tuple[float, ...]:
        return self.margins[:N_LOCAL]

    @property
    def string_margins(self) -> tuple[float, ...]:
        return self.margins[N_LOCAL:]


def _square(x):
    """``x ** 2``, but +inf where a float's square overflows: Python's float
    power raises there.  ``x * x`` would not raise either, but where the C
    library's ``pow`` is not correctly rounded it differs from ``x ** 2`` in
    the last bit for some floats, and the margins are part of the
    byte-identical artifacts."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def _margin_arrays(k_s, k_v, k_a, tau, t_hi, k_lo, k_hi):
    """All 8 margins, vectorized over the gain/time-gap arguments.  Finite
    input that overflows gives inf or NaN margins, never an exception.
    Margins 4 and 5, the product condition, fall as the lag grows and are
    monotone in 1/K: they bind at (k_lo, t_hi) and (k_hi, t_hi)."""
    combo = k_s * tau + k_v
    local = [
        1.0 - k_hi * k_a,
        combo,
        k_s,
        (1.0 / k_lo - k_a) * combo - (t_hi / k_lo) * k_s,
        (1.0 / k_hi - k_a) * combo - (t_hi / k_hi) * k_s,
    ]
    string = [
        _square(k_hi * k_a - 1.0) - 2.0 * t_hi * k_hi * combo,
        _square(k_lo * k_a - 1.0) - 2.0 * t_hi * k_hi * combo,
        k_lo * (2.0 * k_s * k_a + _square(combo) - _square(k_v)) - 2.0 * k_s,
    ]
    return local, string


def _string_stable(k_s, k_v, k_a, tau, t_hi, k_lo, k_hi):
    """Whether ``|Gamma(jw)| <= 1`` at every w for every plant of the box,
    vectorized over the gain/time-gap arguments; NaN is not stable.  For
    one plant that is ``P = T^2 x^2 + b x + a >= 0`` at every ``x = w^2 >=
    0``, with ``c = k_s tau + k_v``, ``A = c^2 - k_v^2 + 2 k_s k_a``, ``a =
    K (K A - 2 k_s)`` and ``b = (1 - K k_a)^2 - 2 K T c``.  At a fixed ``v =
    T x``, P falls as T grows, so T_hi binds.  In K, P is ``(k_a^2 x + A)
    K^2 - 2 (p x + k_s) K + T^2 x^2 + x`` with ``p = k_a + T c``: least at a
    gain bound or at its vertex, whose value has the sign of ``D(x) = q x^3
    + B x^2 + C x - k_s^2``.  Over the x whose vertex lies between the
    bounds, D is least at its local minimum or at an end of that range:
    where the vertex meets a bound, whose own test decides, or x = 0, where
    P is ``a``, and ``a / K``, linear in K, is not negative at the bounds."""
    with np.errstate(all="ignore"):
        k_s, k_v, k_a, tau = (np.asarray(v, dtype=float) for v in (k_s, k_v, k_a, tau))
        T = float(t_hi)
        combo = k_s * tau + k_v
        A = combo * combo - k_v * k_v + 2.0 * k_s * k_a
        stable = np.bool_(True)
        for K in (float(k_lo), float(k_hi)):
            a = K * (K * A - 2.0 * k_s)
            b = (1.0 - K * k_a) ** 2 - 2.0 * K * T * combo
            stable = stable & (a >= 0) & ((b >= 0) | (b * b < 4.0 * T * T * a))
        p = k_a + T * combo
        q = k_a * k_a * T * T
        B = k_a * k_a + A * T * T - p * p
        C = A - 2.0 * k_s * p
        d = np.sqrt(B * B - 3.0 * q * C)
        # D's local minimum, the larger root of 3 q x^2 + 2 B x + C, in the
        # form that does not cancel; NaN or inf where D has none
        x = np.where(B > 0, -C / (B + d), (d - B) / (3.0 * q))
        alpha, vertex = k_a * k_a * x + A, p * x + k_s
        inside = (x >= 0) & (k_lo * alpha < vertex) & (vertex < k_hi * alpha)
        D = ((q * x + B) * x + C) * x - k_s * k_s
    return stable & ~(inside & (D < 0))


def assess(cfg: ControllerConfig) -> StabilityVerdict:
    """The five local and three string margins of ``cfg`` and both
    verdicts.  Local margins are strict: zero or NaN counts as not
    satisfied.  The string verdict is `_string_stable` over the whole box,
    which margins 6-8 only bound."""
    box = (cfg.k_s, cfg.k_v, cfg.k_a, cfg.tau_star, cfg.T_L_bounds[1],
           *cfg.K_L_bounds)
    # the monitor's bounds are numpy floats, whose overflow warns
    with np.errstate(over="ignore", invalid="ignore"):
        local, string = _margin_arrays(*box)
    local = tuple(float(m) for m in local)
    string = tuple(float(m) for m in string)
    return StabilityVerdict(all(m > 0 for m in local), bool(_string_stable(*box)),
                            local + string)


@dataclass
class RegionMap:
    """Verdicts over a 2-D parameter grid.

    ``margins`` has shape (len(grid1), len(grid2), 8).  A cell with
    ``tau_star <= 0`` is not evaluable: it carries NaN margins and False
    verdicts instead of aborting the sweep.
    """

    grid1: np.ndarray
    grid2: np.ndarray
    margins: np.ndarray
    locally_stable: np.ndarray
    string_stable: np.ndarray

    def stable_cell_count(self) -> int:
        """Cells that are both locally and string stable."""
        return int(np.sum(self.locally_stable & self.string_stable))


def stability_region(
    param1: str,
    grid1: np.ndarray,
    param2: str,
    grid2: np.ndarray,
    fixed: ControllerConfig,
) -> RegionMap:
    """Sweep two of {k_s, k_v, k_a, tau_star} over strictly increasing
    grids, holding everything else at ``fixed``."""
    for p in (param1, param2):
        if p not in SWEEPABLE:
            raise ValueError(f"cannot sweep {p!r}; choose from {SWEEPABLE}")
    if param1 == param2:
        raise ValueError("swept parameters must differ")
    grid1 = np.asarray(grid1, dtype=float)
    grid2 = np.asarray(grid2, dtype=float)
    for name, g in (("grid1", grid1), ("grid2", grid2)):
        if g.size == 0:
            raise ValueError(f"{name} is empty")
        if g.size > 1 and not np.all(np.diff(g) > 0):
            raise ValueError(f"{name} must be strictly increasing")

    vals = {
        "k_s": fixed.k_s, "k_v": fixed.k_v,
        "k_a": fixed.k_a, "tau_star": fixed.tau_star,
    }
    g1, g2 = np.meshgrid(grid1, grid2, indexing="ij")
    vals[param1] = g1
    vals[param2] = g2
    valid = np.ones(g1.shape, dtype=bool)
    if param1 == "tau_star":
        valid &= g1 > 0
    if param2 == "tau_star":
        valid &= g2 > 0

    # huge fixed gains overflow to inf/NaN margins, which fail the verdicts
    with np.errstate(over="ignore", invalid="ignore"):
        box = (vals["k_s"], vals["k_v"], vals["k_a"], vals["tau_star"],
               fixed.T_L_bounds[1], *fixed.K_L_bounds)
        local, string = _margin_arrays(*box)
        exact = _string_stable(*box)
    margins = np.stack(
        [np.broadcast_to(m, g1.shape) for m in local + string], axis=-1
    ).astype(float)
    margins = np.where(valid[..., None], margins, np.nan)
    with np.errstate(invalid="ignore"):
        ok_local = valid & np.all(margins[..., :N_LOCAL] > 0, axis=-1)
        ok_string = valid & np.broadcast_to(exact, g1.shape)
    return RegionMap(grid1, grid2, margins, ok_local, ok_string)


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


def assess(cfg: ControllerConfig) -> StabilityVerdict:
    """The five local and three string margins of ``cfg`` and both
    verdicts.  Margins are strict: zero or NaN counts as not satisfied."""
    local, string = _margin_arrays(
        cfg.k_s, cfg.k_v, cfg.k_a, cfg.tau_star,
        cfg.T_L_bounds[1], cfg.K_L_bounds[0], cfg.K_L_bounds[1],
    )
    local = tuple(float(m) for m in local)
    string = tuple(float(m) for m in string)
    return StabilityVerdict(all(m > 0 for m in local),
                            all(m > 0 for m in string), local + string)


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
        local, string = _margin_arrays(
            vals["k_s"], vals["k_v"], vals["k_a"], vals["tau_star"],
            fixed.T_L_bounds[1], fixed.K_L_bounds[0], fixed.K_L_bounds[1],
        )
    margins = np.stack(
        [np.broadcast_to(m, g1.shape) for m in local + string], axis=-1
    ).astype(float)
    margins = np.where(valid[..., None], margins, np.nan)
    with np.errstate(invalid="ignore"):
        ok_local = valid & np.all(margins[..., :N_LOCAL] > 0, axis=-1)
        ok_string = valid & np.all(margins[..., N_LOCAL:] > 0, axis=-1)
    return RegionMap(grid1, grid2, margins, ok_local, ok_string)


"""Closed-loop experiment harness.

Wires the simulation, the per-window posterior estimation, and the
strategy layer into one deterministic run, and writes all artifacts
(trajectories, estimation reports, decision logs, summaries) as
plot-ready CSV/JSON files.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import json
import math
import os
import shutil
import signal
import tempfile
from dataclasses import dataclass, field, replace

import numpy as np

from . import monitor, plant
from .estimator import (
    GaussianPrior,
    PosteriorEstimate,
    SgldHyper,
    batch_from_series,
    sgld_run,
    update_prior,
)
from .monitor import MonitorPolicy, StrategyDecision
from .plant import ControllerConfig, PlantParams, Trajectory

__all__ = [
    "LeaderSegment",
    "SyntheticLeaderSpec",
    "ScenarioConfig",
    "WindowRecord",
    "RunReport",
    "load_leader",
    "read_csv_columns",
    "write_csv_columns",
    "save_trajectory",
    "smooth_acceleration",
    "synthetic_leader",
    "run_closed_loop",
    "emit_outputs",
    "estimate_record",
    "json_margins",
    "default_scenario",
]

LEADER_COLUMNS = ("time", "position", "speed", "accel")
FOLLOWER_COLUMNS = ("time", "position", "speed", "accel", "jerk", "demanded_accel")
OVERLAY_COLUMNS = ("time", "leader_speed", "leader_accel", "follower_speed",
                   "follower_accel")
TIMELINE_COLUMNS = ("t_end", "K_L_mean", "K_L_lo", "K_L_hi", "T_L_mean", "T_L_lo",
                    "T_L_hi", "anomaly")


@dataclass(frozen=True)
class LeaderSegment:
    duration: float
    accel: float


@dataclass(frozen=True)
class SyntheticLeaderSpec:
    segments: tuple[LeaderSegment, ...]
    v0: float = 20.0


@dataclass
class ScenarioConfig:
    controller: ControllerConfig
    schedule: list[tuple[float, PlantParams]]
    leader_csv: str | None = None
    leader_spec: SyntheticLeaderSpec | None = None
    smoothing_width: float = 0.0
    window_length: float = 2.0
    sgld: SgldHyper = field(default_factory=SgldHyper)
    policy: MonitorPolicy = field(default_factory=MonitorPolicy)
    prior: GaussianPrior = GaussianPrior((1.0, 0.3), 10.0)
    rolling_lambda: float = 1.0
    strategy_enabled: bool = True
    seed: int = 0

    def __post_init__(self):
        if (self.leader_csv is None) == (self.leader_spec is None):
            raise ValueError("specify exactly one of leader_csv / leader_spec")
        steps = self.window_length / self.controller.t_s  # inf for a tiny t_s
        # a window's jerk is a finite difference, which needs two samples
        if (self.window_length <= 0 or not math.isfinite(steps)
                or abs(steps - round(steps)) > 1e-9 or round(steps) < 2):
            raise ValueError("window_length must be a positive multiple of t_s, "
                             "at least 2 steps")
        # checked here too, so a bad value fails before the run, not in it
        if not self.rolling_lambda > 0:
            raise ValueError("rolling_lambda must be positive")
        if 1.0 / self.rolling_lambda == math.inf:  # it becomes a prior variance
            raise ValueError(f"prior.rolling_lambda = {self.rolling_lambda:g} is "
                             "too small: its reciprocal overflows")
        if not self.smoothing_width >= 0:
            raise ValueError("smoothing_width must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        # monitor.apply_decision refuses to shrink a gain, mid-run
        if self.policy.escalation_choice in (monitor.Escalation.GAINS,
                                             monitor.Escalation.BOTH):
            for name, g in zip(("k_s", "k_v", "k_a"), self.policy.gains_escalated):
                if abs(g) < abs(getattr(self.controller, name)):
                    raise ValueError(
                        f"escalated gain {name} = {g:g} is smaller in magnitude "
                        f"than the controller's {getattr(self.controller, name):g}")


@dataclass
class WindowRecord:
    """One estimation window: prior in, posterior out, decision taken."""

    index: int
    t_start: float
    t_end: float
    prior_mean: tuple[float, float]
    prior_variance: float
    estimate: PosteriorEstimate
    decision: StrategyDecision
    applied: bool


@dataclass
class RunReport:
    leader: Trajectory
    follower: plant.SimulationResult
    windows: list[WindowRecord]
    window_length: float
    switch_time: float | None
    collision_time: float | None
    post_switch_accel_rms: float
    max_abs_jerk: float
    min_gap: float


# a header the fast reader takes: printable ASCII, no quote
_PLAIN_HEADER = bytes(b for b in range(32, 127) if b != ord('"'))
_NEWLINE_TO_COMMA = bytes.maketrans(b"\n", b",")
_READ_CHUNK = 1 << 16  # bytes of whole lines parsed at a time
# significant digits read as one int64: below 10**18, so never out of range
_MAX_DIGITS = 18
_MAX_FRACTION = 21  # digits after the point: _POW10 holds 10**0 to 10**21
# bytes searched for a long cell's first significant digit: "-0." and four
# more zeros, more than repr or "%.17g" print before using an exponent
_LEAD_SPAN = 8


def read_csv_columns(path, columns) -> np.ndarray:
    """Read the named float columns of a headed CSV file.

    Returns an ``(rows, len(columns))`` array.  A data row is valid when
    ``float()`` accepts each named cell as `csv.reader` splits it and the
    value is finite; other cells are ignored.  Raises ValueError for an
    empty file, missing columns, or the first malformed or non-finite row,
    by its number in the file.
    A file of plain decimal cells is parsed by `_plain_columns`; any other
    file, or one in which it finds a fault, by the row loop, which decides
    and names the row."""
    with open(path, "rb") as fh:
        data = _plain_columns(fh.read(), columns)
    if data is not None:
        return data
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        missing = [c for c in columns if c not in header]
        if missing:
            raise ValueError(f"{path}: missing columns {missing}")
        idx = [header.index(c) for c in columns]
        rows = []
        for lineno, row in enumerate(reader, start=2):
            try:
                rows.append([float(row[i]) for i in idx])
            except (ValueError, IndexError):
                raise ValueError(f"{path}: malformed row {lineno}") from None
            if not all(map(math.isfinite, rows[-1])):
                raise ValueError(f"{path}: non-finite value in row {lineno}")
    return np.array(rows, dtype=float).reshape(len(rows), len(idx))


def _plain_columns(data: bytes, columns) -> np.ndarray | None:
    """The named columns of a CSV file's bytes, or None for the row loop.

    Takes a printable, unquoted ASCII header that names every column, then
    lines of exactly its width, ended by ``\\n`` or ``\\r\\n`` (the last may
    have none), of cells of digits, points, signs, ``e`` and ``E``.  The
    lines are parsed in chunks of about `_READ_CHUNK` bytes by
    `_plain_rows`."""
    end = data.find(b"\n")
    head = data[:max(end, 0)].removesuffix(b"\r")
    if end < 0 or head.translate(None, _PLAIN_HEADER):
        return None
    header = head.decode("ascii").split(",")
    if any(c not in header for c in columns):
        return None
    idx = [header.index(c) for c in columns]
    if idx == list(range(len(header))):
        idx = slice(None)  # every column, in order: a view, not a copy
    parts = [np.empty((0, len(columns)))]
    lo = end + 1
    while lo < len(data):
        hi = len(data)
        if hi - lo > _READ_CHUNK:  # up to the last line end in the chunk
            hi = (data.rfind(b"\n", lo, lo + _READ_CHUNK) + 1
                  or data.find(b"\n", lo + _READ_CHUNK) + 1 or hi)
        chunk = data[lo:hi]
        if not chunk.endswith(b"\n"):
            chunk += b"\n"
        parts.append(_plain_rows(chunk, len(header), idx))
        if parts[-1] is None:
            return None
        lo = hi
    return np.concatenate(parts)


def _plain_rows(chunk: bytes, width, idx) -> np.ndarray | None:
    """Columns ``idx`` of lines of ``width`` cells, each line ending in
    ``\\n``, as floats bit-identical to ``float(cell)``; None if a line
    holds another byte or number of cells, or a named cell is not a finite
    float.

    With its point and sign deleted, the digits of each cell are read as
    one int64 ``m`` (`np.fromstring`), ``k`` the digits after the point,
    and `_quotient` rounds ``m / 10**k``.  A cell is plain when its bytes
    below ``0`` are at most a minus sign as its first byte and then one
    point, and it has a digit.  Any other cell is not given to
    `np.fromstring` (its bytes are made ``0``), nor is one with ``e`` or
    ``E``, more than `_MAX_DIGITS` significant digits or more than
    `_MAX_FRACTION` digits after the point; if such a cell is named, or
    `_quotient` cannot certify one, ``float()`` reads it."""
    if b"\r" in chunk:
        if chunk.count(b"\r") != chunk.count(b"\r\n"):
            return None
        chunk = chunk.replace(b"\r\n", b"\n")
    buf = np.frombuffer(chunk, np.uint8)
    special = np.flatnonzero(buf < 48)  # the digits are 48-57
    kind = buf[special]
    newline = kind == 10
    if not (((kind >= 43) & (kind <= 46)) | newline).all():  # but \n + , - .
        return None
    last = np.flatnonzero(newline | (kind == 44))  # in special: a cell's end
    ends = special[last]
    rows = len(ends) // width
    if (len(ends) != rows * width or np.count_nonzero(newline) != rows
            or not (buf[ends[width - 1::width]] == 10).all()):
        return None  # a line of more or fewer cells
    starts = np.concatenate(([0], ends[:-1] + 1))
    length = ends - starts
    if not length.all():
        return None  # an empty cell or line
    # a cell's signs and points: the `inner` entries of special before its end
    first = np.concatenate(([0], last[:-1] + 1))
    inner = last - first
    negative = kind[first] == ord("-")
    has_point = (inner > 0) & (kind[last - 1] == ord("."))
    slow = ((inner - negative != has_point)
            | (negative & (special[first] != starts)) | (length <= inner))
    k = np.where(has_point, ends - special[last - 1] - 1, 0)
    if buf.max() > ord("9"):
        high = np.flatnonzero(buf > ord("9"))
        if not ((buf[high] | 0x20) == ord("e")).all():
            return None
        slow[np.searchsorted(ends, high)] = True
    long = np.flatnonzero(length - inner > _MAX_DIGITS)  # every cell with k > 21
    if len(long):  # leading zeros in its first `_LEAD_SPAN` bytes do not count
        # the offset of its first digit 1-9, or 0 where there is none
        span = buf[starts[long, None] + np.arange(_LEAD_SPAN)]
        at = (span > ord("0")).argmax(axis=1)
        lead = at - negative[long] - (has_point[long] & (length[long] - k[long] <= at))
        slow[long] |= ((length[long] - inner[long] - lead > _MAX_DIGITS)
                       | (k[long] > _MAX_FRACTION))
    text = chunk
    if slow.any():
        blank = np.flatnonzero(slow)
        size = length[blank]
        offset = np.repeat(starts[blank] - (np.cumsum(size) - size), size)
        zeroed = buf.copy()
        zeroed[offset + np.arange(size.sum())] = ord("0")
        text = zeroed.tobytes()
        k[blank] = 0
    m = np.fromstring(text.translate(_NEWLINE_TO_COMMA, b".-")[:-1],
                      dtype=np.int64, sep=",")
    x, sure = _quotient(m.reshape(rows, width)[:, idx],
                        k.reshape(rows, width)[:, idx])
    np.negative(x, out=x, where=negative.reshape(rows, width)[:, idx])
    slow = slow.reshape(rows, width)[:, idx] | ~sure
    if slow.any():  # float() reads these, one at a time
        r, c = np.nonzero(slow)
        j = r * width + np.arange(width)[idx][c]
        try:
            x[r, c] = [float(chunk[a:b])
                       for a, b in zip(starts[j].tolist(), ends[j].tolist())]
        except ValueError:
            return None
        if not np.isfinite(x[r, c]).all():
            return None
    return x


def _quotient(m, k):
    """``m / 10**k`` rounded to the nearest double, for integers ``0 <= m
    < 10**18`` and ``0 <= k <= 21``, and where the rounding is certain.

    One division gives ``q``, within 1.5 units in the last place.  The
    residual ``m - q * 10**k`` is exact but for rounding far below an
    ulp: ``m = m_hi + m_lo`` in doubles, `_times_pow10` gives ``q * 10**k``
    as ``hi + lo``, and ``m_hi - hi`` is exact (Sterbenz).  It moves ``q``
    to ``x``.  ``x`` is certain where ``x``'s residual is below half the
    gap to its neighbour on its side, by a margin (the gap below a power
    of two is half as wide); exact ties, rounded to even by ``float()``,
    are left uncertain."""
    m_hi = m.astype(np.float64)
    m_lo = (m - m_hi.astype(np.int64)).astype(np.float64)  # |m_lo| <= 64
    scale = np.take(_POW10, k)
    q = m_hi / scale
    hi, lo = _times_pow10(q, k)
    r = m_hi - hi
    r += m_lo - lo
    x = q + r / scale
    r -= (x - q) * scale  # x - q is a few ulps, and its product exact
    mantissa, e = np.frexp(x)
    half = np.ldexp(scale, e - 54) * (1 - 2.0 ** -30)  # half an ulp, times 10**k
    sure = np.abs(r) < half
    power = mantissa == 0.5  # the gap below is half as wide
    if power.any():
        sure[power] &= r[power] > -0.5 * half[power]
    return x, sure


def load_leader(path) -> Trajectory:
    """Read and validate a leader trajectory CSV (uniform sampling,
    non-negative speed, columns time,position,speed,accel)."""
    data = read_csv_columns(path, LEADER_COLUMNS)
    if len(data) < 2:
        raise ValueError(f"{path}: need at least 2 samples")
    plant.sampling_step(data[:, 0], path=path)
    negative = np.flatnonzero(data[:, 2] < 0)  # row 1 is the header
    if len(negative):
        raise ValueError(f"{path}: negative speed in row {negative[0] + 2}")
    return Trajectory(data[:, 0], data[:, 1], data[:, 2], data[:, 3])


def save_trajectory(traj: Trajectory, path) -> None:
    write_csv_columns([(path, LEADER_COLUMNS,
                        (traj.time, traj.position, traj.speed, traj.accel))])


def smooth_acceleration(traj: Trajectory, kernel_width: float) -> Trajectory:
    """Gaussian-smooth the acceleration profile (std = kernel_width
    seconds, truncated at 3 sigma) and re-integrate speed and position so
    the trajectory stays kinematically consistent.  Width 0 is identity."""
    if not kernel_width >= 0:
        raise ValueError("kernel_width must be non-negative")
    if kernel_width == 0 or len(traj) < 2:
        return Trajectory(traj.time.copy(), traj.position.copy(),
                          traj.speed.copy(), traj.accel.copy())
    t_s = plant.sampling_step(traj.time)
    half = 3 * kernel_width / t_s  # samples each side; inf for a huge width
    # np.convolve's "same" output is as long as the longer input
    if not half <= (len(traj) - 1) // 2:
        raise ValueError(f"smoothing kernel of width {kernel_width:g} s spans "
                         "more than the trajectory (3 widths each side)")
    m = max(1, int(math.ceil(half)))
    offsets = np.arange(-m, m + 1) * t_s
    kernel = np.exp(-0.5 * (offsets / kernel_width) ** 2)
    kernel /= kernel.sum()
    # renormalize at the edges so constants pass through unchanged
    num = np.convolve(traj.accel, kernel, mode="same")
    den = np.convolve(np.ones_like(traj.accel), kernel, mode="same")
    accel = num / den
    speed = np.empty_like(accel)
    position = np.empty_like(accel)
    speed[0] = traj.speed[0]
    position[0] = traj.position[0]
    for i in range(len(accel) - 1):
        speed[i + 1] = max(0.0, speed[i] + t_s * accel[i])
        position[i + 1] = position[i] + t_s * speed[i]
    return Trajectory(traj.time.copy(), position, speed, accel)


def synthetic_leader(spec: SyntheticLeaderSpec,
                     t_s: float = ControllerConfig.t_s) -> Trajectory:
    """Piecewise-constant-acceleration leader, integrated exactly and
    sampled every ``t_s`` seconds."""
    if not spec.segments or sum(s.duration for s in spec.segments) <= 0:
        raise ValueError("leader spec has zero total duration")
    # breakpoints and exact (v, x) at each segment start; x starts at 0 m
    v, x = spec.v0, 0.0
    starts = [0.0]
    states = [(v, x)]
    for seg in spec.segments:
        if seg.duration <= 0:
            raise ValueError("segment durations must be positive")
        v_end = v + seg.accel * seg.duration
        if v_end < 0 or v < 0:
            raise ValueError("leader speed would become negative")
        x += v * seg.duration + 0.5 * seg.accel * seg.duration**2
        v = v_end
        starts.append(starts[-1] + seg.duration)
        states.append((v, x))
    total = starts[-1]
    n = int(round(total / t_s)) + 1
    time = np.arange(n) * t_s
    # the segment of each sample: a sample within 1e-12 s of a segment's
    # start belongs to that segment
    which = np.searchsorted(np.array(starts[1:-1]) - 1e-12, time, side="right")
    v0, x0 = np.array(states[:-1])[which].T
    accel = np.array([segment.accel for segment in spec.segments])[which]
    dt = time - np.array(starts[:-1])[which]
    speed = v0 + accel * dt
    # max(0.0, v) of each sample, -0.0 and NaN included
    speed = np.where(speed > 0.0, speed, 0.0)
    position = x0 + v0 * dt + 0.5 * accel * np.power(dt, 2.0)
    return Trajectory(time, position, speed, accel)


def _window_seed(base_seed: int, window: int) -> int:
    return (base_seed * 1_000_003 + 7919 * (window + 1)) % 2**32


def _resolve_leader(scenario: ScenarioConfig) -> Trajectory:
    if scenario.leader_csv is not None:
        leader = load_leader(scenario.leader_csv)
    else:
        leader = synthetic_leader(scenario.leader_spec, scenario.controller.t_s)
    if scenario.smoothing_width > 0:
        leader = smooth_acceleration(leader, scenario.smoothing_width)
    return leader


def _can_offload() -> bool:
    """True when a forked helper can run beside this process: the platform
    can fork and two or more CPUs are usable."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return hasattr(os, "fork") and cpus >= 2


@contextlib.contextmanager
def _forked(work):
    """Run ``work()`` in a forked child while the block runs.  The child ends
    with `os._exit`: code 0 when ``work`` returns, 1 when it raises.

    Yields ``wait()``, which reaps the child and returns its exit code and
    the error it raised, as text (empty when it raised none), or yields None
    when the fork fails (e.g. at a process limit), so the caller does the
    work itself.  A child not yet reaped when the block ends, normally or by
    an exception, is killed and reaped.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        yield None
        return
    if pid == 0:
        # fork copies only this thread; a child must call no BLAS routine,
        # whose worker threads it would lack
        status = 1
        try:
            work()
            status = 0
        except BaseException as exc:
            os.write(write_end, f"{type(exc).__name__}: {exc}".encode(errors="replace"))
        finally:
            os._exit(status)
    os.close(write_end)
    reaped = False
    with open(read_end, "rb") as errors:
        def wait():
            nonlocal reaped
            # read to the end, which comes when the child exits
            error = errors.read().decode(errors="replace")
            _, status = os.waitpid(pid, 0)
            reaped = True
            return os.waitstatus_to_exitcode(status), error

        try:
            yield wait
        finally:
            if not reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def run_closed_loop(scenario: ScenarioConfig) -> RunReport:
    """Simulate window by window: estimate the dynamics parameters from
    each completed window, evaluate the strategy layer, and (when the
    engine is on) apply decisions at the window boundary.

    Fully deterministic per seed; the plant noise stream is independent of
    the estimator's, so an engine-off run traces the same trajectory as a
    run with no monitoring at all.
    """
    leader = _resolve_leader(scenario)
    cfg = scenario.controller  # strategy-layer view (decided targets)
    tau_active = cfg.tau_star  # slew-limited time gap actually driven
    plant.check_schedule(scenario.schedule, leader, cfg.t_s)

    ego = plant.equilibrium_follower(leader, cfg)
    plant_rng = np.random.default_rng(scenario.seed)
    win_steps = int(round(scenario.window_length / cfg.t_s))
    n = len(leader)
    n_windows = (n - 1) // win_steps

    # the follower's columns, in SimulationResult's order, filled window by
    # window up to `filled`
    follower_cols = np.empty((6, n))
    filled = 0
    windows: list[WindowRecord] = []
    prior = scenario.prior
    collision_time = None
    start = 0
    w = 0
    while start < n:
        stop = min(start + win_steps, n)
        active_cfg = (cfg if tau_active == cfg.tau_star
                      else replace(cfg, tau_star=tau_active))
        piece = plant._simulate_inner(
            leader, active_cfg, scenario.schedule, ego, plant_rng, start, stop
        )
        follower_cols[:, filled:filled + len(piece)] = (
            piece.time, piece.position, piece.speed, piece.accel, piece.jerk,
            piece.demanded_accel)
        filled += len(piece)
        collision_time = piece.collision_time
        if collision_time is not None:
            break
        ego = piece.final_state
        if w < n_windows:
            batch = batch_from_series(
                piece.accel, piece.demanded_accel, cfg.t_s,
                t_start=float(piece.time[0]),
            )
            estimate = sgld_run(batch, prior, replace(
                scenario.sgld, seed=_window_seed(scenario.seed, w)))
            decision = monitor.evaluate(estimate, cfg, scenario.policy)
            applied = False
            if scenario.strategy_enabled and decision.action is not monitor.Action.NONE:
                cfg = monitor.apply_decision(cfg, decision)
                applied = True
            windows.append(WindowRecord(
                w, float(piece.time[0]), float(piece.time[0]) + scenario.window_length,
                prior.mean, prior.variance, estimate, decision, applied,
            ))
            # no verdict: the estimate is low-confidence or no valid
            # configuration could be built from it, so it seeds no prior
            if decision.stability_verdict is not None:
                prior = update_prior(estimate, scenario.rolling_lambda)
            w += 1
            max_step = scenario.policy.tau_star_slew * scenario.window_length
            # apply_decision never lowers cfg.tau_star, so the slew only rises
            if tau_active < cfg.tau_star:
                tau_active = min(cfg.tau_star, tau_active + max_step)
        start = stop

    follower = plant.SimulationResult(*follower_cols[:, :filled], collision_time)
    switch_time = _first_switch(scenario.schedule)
    return RunReport(
        leader=leader,
        follower=follower,
        windows=windows,
        window_length=scenario.window_length,
        switch_time=switch_time,
        collision_time=collision_time,
        post_switch_accel_rms=_accel_rms(follower, switch_time),
        max_abs_jerk=float(np.max(np.abs(follower.jerk))) if len(follower) else 0.0,
        min_gap=_min_gap(leader, follower),
    )


def _first_switch(schedule: list[tuple[float, PlantParams]]) -> float | None:
    return schedule[1][0] if len(schedule) >= 2 else None


def _accel_rms(follower: plant.SimulationResult, switch_time: float | None) -> float:
    accel = follower.accel
    if switch_time is not None:
        accel = accel[follower.time >= switch_time]
    if len(accel) == 0:
        return 0.0
    return float(np.sqrt(np.mean(accel**2)))


def _min_gap(leader: Trajectory, follower: plant.SimulationResult) -> float:
    if len(follower) == 0:
        return math.inf
    gaps = leader.position[: len(follower)] - follower.position
    return float(np.min(gaps))


# ---------------------------------------------------------------------------
# output emission

# rows formatted per block, all of a block's float columns in one kernel
# call: a run's 9 columns make 4608 values, about 96 ns each, where a call
# costs about 100 us however small and a 2048-row block (120 ns a value at
# 2048, 150 at 18 432) spills the caches.  The cells (48 bytes each) and the
# kernel's temporaries (about 240 bytes a value) peak at 1.4 MB traced;
# 768-row blocks write faster but trace 1.9 MB
_EMIT_BLOCK = 512
# a table of more rows is split between this process and a forked helper,
# no slower from 4096 rows on 2 CPUs: three trajectory tables took 1.6-1.8 ms
# longer forked at 2048 rows, -0.2 to +0.1 ms at 4096, 1.4-1.9 ms less at 6001
_SPLIT_ROWS = 4096

# a cell: 48 bytes, that is 24 two-byte slots.  Slot j's first byte holds
# digit j of the 24-digit, zero-padded decimal integer C the kernel prints
# (or NUL), its second byte the decimal point, the sign or NUL; byte 47
# holds the comma after the cell.  NUL bytes are dropped when a line is
# written, so a cell reads as its characters in order.
_POW10 = np.array([float(10 ** i) for i in range(22)])  # exact
_VELTKAMP = 2.0 ** 27 + 1  # splits a double into two 26-bit halves
_POW10_HI = _VELTKAMP * _POW10 - (_VELTKAMP * _POW10 - _POW10)


@functools.cache  # built on first use: a run that writes no CSV needs none
def _cell_tables():
    """The float kernel's lookup tables, as uint64 words of 4 slots.

    ``digits[g + 10000 * trailing]``: the 4-digit group ``g`` in the digit
    bytes of 4 slots; with ``trailing`` set, its trailing zeros are NUL.

    ``heads[((u * 21 + g0) * 2 + trailing) * 2 + negative]``: the cell's
    fixed part, to be OR-ed with the digits of its groups 1-4.  C has its
    units digit in slot u, and its leading group is g0 in slots 4-7,
    printed without leading zeros (and, with ``trailing``, as the last
    nonzero group, without trailing zeros).  Slots from the first digit
    printed to the first after the point get a ``0`` (0x30) OR-ed in, so a
    NUL left there by a zero's removal reads 0: the units digit of a
    value below 1 and the zeros after its point, and the ``.0`` of a whole
    number.  Slot u holds the point, and the slot before the first digit
    the sign."""
    numeral = np.stack(np.indices((10,) * 4, np.uint8).reshape(4, 10000), axis=1)
    kept = numeral != 0  # then: this digit or a later one is not 0
    for place in (2, 1, 0):
        kept[:, place] |= kept[:, place + 1]
    numeral += 48
    # a slot as a little-endian 16-bit number: the digit, then NUL
    digits = np.stack([numeral, np.where(kept, numeral, 0)]).astype("<u2")

    u = np.arange(24)[:, None, None, None]
    first = 7 - np.arange(2)[:, None, None]  # the slot of g0's leading digit
    negative = np.arange(2)[:, None]
    slot = np.arange(24)
    start = np.minimum(first, u)  # the first slot printed
    frame = np.zeros((24, 2, 2, 24, 2), np.uint8)
    frame[..., 0] = np.where((slot >= start)
                             & (slot <= np.maximum(u + 1, first - 1)), 0x30, 0)
    frame[..., 1] = np.where(slot == u, ord("."),
                             np.where((negative == 1) & (slot == start - 1),
                                      ord("-"), 0))
    frame[..., 23, 1] = ord(",")
    g0 = np.arange(21)[:, None, None]
    trailing = np.arange(2)[:, None]
    place = np.arange(4)
    shown = (g0 // 10 ** (3 - place) != 0) & (
        (trailing == 0) | (g0 % 10 ** (4 - place) != 0))
    heads = np.zeros((24, 21, 2, 2, 24, 2), np.uint8)
    heads[...] = frame[:, (np.arange(21) >= 10).astype(int), None]
    heads[..., 4:8, 0] |= np.where(shown, g0 // 10 ** (3 - place) % 10 + 48,
                                   0)[None, :, :, None].astype(np.uint8)
    return (digits.view(np.uint8).view(np.uint64).ravel(),
            heads.reshape(-1, 48).view(np.uint64))


def _cells(text: list[bytes]) -> np.ndarray:
    """Cells holding the given strings of at most 47 bytes."""
    cells = np.array(text, dtype="S48").view(np.uint8).reshape(-1, 48)
    cells[:, 47] = ord(",")
    return cells.view(np.uint64)


_ZERO, _NEG_ZERO = _cells([b"0.0", b"-0.0"])


def _times_pow10(a, k):
    """``a * 10**k`` as ``hi + lo`` exactly (Dekker's TwoProduct), for
    ``0 <= k <= 21``, where 10**k is a double."""
    scale = np.take(_POW10, k)
    hi = a * scale
    a_hi = _VELTKAMP * a
    a_hi -= a_hi - a
    a_lo = a - a_hi
    s_hi = np.take(_POW10_HI, k)
    lo = a_hi * s_hi
    lo -= hi
    scale -= s_hi
    lo += a_hi * scale
    lo += a_lo * s_hi
    lo += a_lo * scale
    return hi, lo


def _shortest(x):
    """Of the decimals in the rounding interval of each ``|x|``, the
    shortest, and of those the nearest to ``|x|``: ``(top * 10**4 + c) *
    10**-k``, with ``top`` and ``c`` integer floats, ``0 <= c < 10**4``.
    Returns ``(certain, k, top, c)``; ``certain`` is False where ``|x|``
    is outside ``[1e-4, 1e16)`` or a bound or a tie lies within 1e-6 of a
    unit, too near to tell here."""
    a = np.abs(x)
    mantissa, e = np.frexp(a)  # a = mantissa * 2**e, 0.5 <= mantissa < 1
    certain = (a >= 1e-4) & (a < 1e16)
    a[~certain] = 1.0
    e[~certain] = 1
    # P = a * 10**k lies in [1e16, 2e17), 1 <= k <= 21: its integer part
    # holds the 17 significant digits repr may need
    k = 16 - np.floor((e - 1) * math.log10(2)).astype(np.intp)
    hi, lo = _times_pow10(a, k)
    # hi >= 2**53 is an integer; its last four digits, `low`, and every
    # offset from top * 10**4 below are small integers, exact as floats
    whole = hi.astype(np.int64)
    top = whole // 10000
    whole -= top * 10000
    low = whole.astype(np.float64)
    # the rounding interval, P + ulp(a) * 10**k / 2 above and as far below
    # (half that for a power of two, whose lower neighbour is nearer), holds
    # the integers (below, above], as offsets; it is wider than 1.1
    half = np.ldexp(np.take(_POW10, k), e - 54)
    below = lo - np.where(mantissa == 0.5, 0.5 * half, half)
    above = lo + half
    # near an integer bound, whether the interval is closed would matter
    unsure = np.abs(below - np.floor(below) - 0.5) > 0.5 - 1e-6
    unsure |= np.abs(above - np.floor(above) - 0.5) > 0.5 - 1e-6
    np.floor(below, out=below)
    np.floor(above, out=above)
    below += low
    above += low
    # unit = 10**t, t + 1 the digits of the interval's integer count: the
    # interval holds a multiple of unit, and at most one of 10 * unit,
    # which is then the shortest decimal
    unit = np.where(above - below >= 10, 10.0, 1.0)
    coarse = np.floor(above / (10 * unit)) * (10 * unit)
    # else the multiple of unit nearest P, moved into the interval
    low += lo
    c = np.floor(low / unit + 0.5) * unit
    low -= c
    unsure |= (coarse <= below) & (np.abs(np.abs(low) - 0.5 * unit) < 1e-6)
    c += np.where(c <= below, unit, 0.0) - np.where(c > above, unit, 0.0)
    c = np.where(coarse > below, coarse, c)
    carry = np.floor(c / 10000)
    c -= carry * 10000
    return certain & ~unsure, k, top + carry, c


def _float_cells(x) -> np.ndarray:
    """The cells of ``repr(float(v))`` for each value of a float column.

    The positional range of repr, ``1e-4 <= |v| < 1e16``, is printed here:
    repr's digits are those of the shortest decimal in v's rounding
    interval, and of those the nearest to v (`_shortest`).  ``0.0`` and
    ``-0.0`` are printed here too.  Everything else goes to ``repr``: NaN,
    infinities, subnormals and the exponent form, and any value for which
    a bound of its rounding interval or a tie between two candidates falls
    within 1e-6 units of a decision."""
    x = np.asarray(x, dtype=np.float64)
    certain, k, top, c = _shortest(x)
    # C = top * 10**4 + c in 4-digit groups g0 (1 to 20) to g4 = c
    g0 = np.floor(top / 1e12)
    top -= g0 * 1e12
    g1 = np.floor(top / 1e8)
    top -= g1 * 1e8
    g2 = np.floor(top / 1e4)
    top -= g2 * 1e4
    # a group is printed without trailing zeros when every later one is 0
    groups = np.empty((len(x), 4), np.intp)
    groups[:, 3] = c + 10000
    zeros = c == 0
    groups[:, 2] = top + 10000 * zeros
    zeros &= top == 0
    groups[:, 1] = g2 + 10000 * zeros
    zeros &= g2 == 0
    groups[:, 0] = g1 + 10000 * zeros
    zeros &= g1 == 0
    negative = np.signbit(x)
    # the heads' index, ((u * 21 + g0) * 2 + trailing) * 2 + negative
    head = (23 - k) * 84 + (g0 * 4).astype(np.intp) + zeros * 2 + negative
    digits, heads = _cell_tables()
    cells = np.take(heads, head, axis=0)
    cells[:, 2:] |= np.take(digits, groups)
    zero = x == 0
    cells[zero] = _ZERO
    cells[zero & negative] = _NEG_ZERO
    slow = np.flatnonzero(~(certain | zero))
    if len(slow):
        cells[slow] = _cells([repr(v).encode() for v in x[slow].tolist()])
    return cells


def _format_blocks(sinks, tables, columns, rows, lo, hi) -> None:
    """Write rows ``[lo, hi)`` of each table to its sink, one block at a
    time.  One `_float_cells` call per block formats every float column,
    a column shared by several tables (the same array object) once."""
    end = np.frombuffer(b"\r\n".ljust(8, b"\0"), np.uint64)
    for b0 in range(lo, hi, _EMIT_BLOCK):
        b1 = min(b0 + _EMIT_BLOCK, hi)
        parts = {key: col[b0:b1] for key, col in columns.items() if len(col) > b0}
        cells = {key: _cells([b"%d" % v for v in part.tolist()])
                 for key, part in parts.items() if part.dtype.kind in "biu"}
        floats = [key for key in parts if key not in cells]
        if floats:
            flat = _float_cells(np.concatenate([parts[key] for key in floats]))
            at = np.cumsum([len(parts[key]) for key in floats])
            cells.update(zip(floats, np.split(flat, at[:-1])))
        for fh, n, (_, _, cols) in zip(sinks, rows, tables):
            if n <= b0:
                continue
            count = min(n, b1) - b0
            # the cells, each ending in a comma but the last, and the line end
            line = np.concatenate([*(cells[id(col)][:count] for col in cols),
                                   np.broadcast_to(end, (count, 1))], axis=1)
            line.view(np.uint8)[:, len(cols) * 48 - 1] = 0
            fh.write(line.tobytes().translate(None, b"\0"))


def write_csv_columns(tables) -> None:
    """Write headed CSV files of numeric columns, byte for byte as the `csv`
    module's writer does with ``\\r\\n`` line ends, a float column's cells
    given as ``repr(float(v))`` and an integer column's as ``int(v)``: the
    counterpart of `read_csv_columns`.

    ``tables`` holds ``(path, header, columns)``; a file has as many rows
    as its shortest column.  Floats are printed by `_float_cells`, which
    leaves few to ``repr``.  When `_can_offload` and the longest file has
    more rows than `_SPLIT_ROWS`, one forked child formats every file's rows
    from the longest's middle row on into anonymous temporary files, each in
    its file's directory, while this process writes the rows before; the
    child's parts are then appended."""
    columns = {id(col): np.asarray(col)
               for _, _, cols in tables for col in cols}
    rows = [min(len(col) for col in cols) for _, _, cols in tables]
    mid = end = max(rows)
    tails = []

    def format_tail():
        _format_blocks(tails, tables, columns, rows, mid, end)
        for tmp in tails:
            tmp.flush()

    with contextlib.ExitStack() as stack:
        # opened before the fork but written after it, so the child's copies
        # hold no buffered data (os._exit would not flush them anyway)
        files = [stack.enter_context(open(path, "wb")) for path, _, _ in tables]
        wait = None
        if end > _SPLIT_ROWS and _can_offload():
            for path, _, _ in tables:
                tails.append(stack.enter_context(tempfile.TemporaryFile(
                    dir=os.path.dirname(path) or os.curdir)))
            mid = end // 2
            wait = stack.enter_context(_forked(format_tail))
            if wait is None:  # format every row here
                mid = end
        for fh, (_, header, _) in zip(files, tables):
            fh.write((",".join(header) + "\r\n").encode())
        _format_blocks(files, tables, columns, rows, 0, mid)
        if wait is not None:
            code, error = wait()
            if code:
                raise OSError(f"the process formatting rows from {mid} on ended "
                              f"with code {code}" + (f": {error}" if error else ""))
            for fh, tmp in zip(files, tails):
                tmp.seek(0)
                shutil.copyfileobj(tmp, fh)


def estimate_record(e: PosteriorEstimate) -> dict:
    """The JSON fields of a posterior estimate, as both `estimates.jsonl`
    and ``cfmonitor estimate`` write them."""
    return {
        "posterior_mean": {"K_L": e.K_L, "T_L": e.T_L},
        "covariance": e.covariance.tolist(),
        "credible_95": {"K_L": e.credible[0].tolist(),
                        "T_L": e.credible[1].tolist()},
        "sample_count": len(e.samples),
        "low_confidence": e.low_confidence,
    }


def json_margins(margins) -> list:
    """Stability margins for strict JSON: a non-finite margin, which only an
    overflowing configuration gives, is written as null."""
    return [m if math.isfinite(m) else None for m in margins]


def _estimates_jsonl(report: RunReport, path) -> None:
    with open(path, "w") as fh:
        for rec in report.windows:
            fh.write(json.dumps({
                "window": rec.index,
                "t_start": rec.t_start,
                "t_end": rec.t_end,
                "prior_mean": list(rec.prior_mean),
                "prior_variance": rec.prior_variance,
                **estimate_record(rec.estimate),
            }) + "\n")


def _decisions_jsonl(report: RunReport, path) -> None:
    with open(path, "w") as fh:
        for rec in report.windows:
            d = rec.decision
            v = d.stability_verdict
            fh.write(json.dumps({
                "window": rec.index,
                "t_end": rec.t_end,
                "anomaly": d.anomaly,
                "action": d.action.value,
                "applied": rec.applied,
                "margins": None if v is None else json_margins(v.margins),
                "locally_stable": None if v is None else v.locally_stable,
                "string_stable": None if v is None else v.string_stable,
                "rationale": d.rationale,
                "new_config": {
                    "k_s": d.new_config.k_s, "k_v": d.new_config.k_v,
                    "k_a": d.new_config.k_a, "tau_star": d.new_config.tau_star,
                    "T_L_nominal": d.new_config.T_L_nominal,
                    "K_L_nominal": d.new_config.K_L_nominal,
                },
            }, allow_nan=False) + "\n")


def emit_outputs(report: RunReport, out_dir) -> list[str]:
    """Write all run artifacts into ``out_dir``; returns the paths.  The four
    CSV tables are written by one `write_csv_columns` call, one fork at most."""
    os.makedirs(out_dir, exist_ok=True)
    names = ["leader.csv", "follower.csv", "estimates.jsonl", "decisions.jsonl",
             "estimate_timeline.csv", "overlay.csv", "summary.json"]
    paths = {name: os.path.join(out_dir, name) for name in names}
    lead, f = report.leader, report.follower
    n = len(f)
    # the follower is sampled on the leader's timestamps, so its time column
    # is normally the leader's own prefix and need not be formatted twice
    time = f.time
    if time.dtype == lead.time.dtype and time.tobytes() == lead.time[:n].tobytes():
        time = lead.time
    est = np.array([(rec.t_end, rec.estimate.K_L, *rec.estimate.credible[0],
                     rec.estimate.T_L, *rec.estimate.credible[1])
                    for rec in report.windows]).reshape(-1, 7)
    anomaly = np.array([rec.decision.anomaly for rec in report.windows], dtype=int)
    try:
        write_csv_columns([
            (paths["leader.csv"], LEADER_COLUMNS,
             (lead.time, lead.position, lead.speed, lead.accel)),
            (paths["follower.csv"], FOLLOWER_COLUMNS,
             (time, f.position, f.speed, f.accel, f.jerk, f.demanded_accel)),
            (paths["overlay.csv"], OVERLAY_COLUMNS,
             (time, lead.speed, lead.accel, f.speed, f.accel)),
            (paths["estimate_timeline.csv"], TIMELINE_COLUMNS, (*est.T, anomaly)),
        ])
        _estimates_jsonl(report, paths["estimates.jsonl"])
        _decisions_jsonl(report, paths["decisions.jsonl"])
        with open(paths["summary.json"], "w") as fh:
            json.dump({
                "samples": len(report.follower),
                "windows": len(report.windows),
                "window_length": report.window_length,
                "switch_time": report.switch_time,
                "collision_time": report.collision_time,
                "post_switch_accel_rms": report.post_switch_accel_rms,
                "max_abs_jerk": report.max_abs_jerk,
                # inf when the run has no follower sample
                "min_gap": report.min_gap if math.isfinite(report.min_gap) else None,
                "anomalies": [rec.t_end for rec in report.windows
                              if rec.decision.anomaly],
            }, fh, indent=2, allow_nan=False)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"failed writing outputs under {out_dir}: {exc}") from exc
    return list(paths.values())


def default_leader_spec() -> SyntheticLeaderSpec:
    """60 s profile with braking/recovery pulses, one of which brackets
    the default switch time so the window right after the switch observes
    an excited response."""
    return SyntheticLeaderSpec(segments=(
        LeaderSegment(8.0, 0.0),
        LeaderSegment(3.0, -1.5),
        LeaderSegment(4.5, 1.0),
        LeaderSegment(9.5, 0.0),
        LeaderSegment(3.0, -1.5),
        LeaderSegment(4.5, 1.0),
        LeaderSegment(12.5, 0.0),
        LeaderSegment(3.0, -1.0),
        LeaderSegment(3.0, 1.0),
        LeaderSegment(9.0, 0.0),
    ), v0=20.0)


def default_scenario(seed: int = 0, strategy_enabled: bool = True) -> ScenarioConfig:
    """The default experiment: nominal plant until t=26 s, then a switch
    to degraded dynamics (T_L=1.5, K_L=0.5), 2 s estimation windows."""
    return ScenarioConfig(
        controller=ControllerConfig(),
        schedule=[
            (0.0, PlantParams(T_L_true=0.3, K_L_true=1.0, sigma_eps=0.05)),
            (26.0, PlantParams(T_L_true=1.5, K_L_true=0.5, sigma_eps=0.3)),
        ],
        leader_spec=default_leader_spec(),
        window_length=2.0,
        strategy_enabled=strategy_enabled,
        seed=seed,
    )

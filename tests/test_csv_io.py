"""The CSV layer against row-by-row references: the artifact writer against
`csv.writer` with ``repr(float(v))`` and ``int(v)`` cells, its float kernel
against ``repr``, the reader against a `csv.reader` + ``float()`` row
loop and its decimal parser against ``float()``, bit for bit."""
import contextlib
import csv
import decimal
import io
import math
import os
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cfmonitor import harness, plant
from cfmonitor.cli import main
from cfmonitor.harness import (
    LeaderSegment,
    RunReport,
    ScenarioConfig,
    SyntheticLeaderSpec,
    WindowRecord,
    emit_outputs,
    load_leader,
    run_closed_loop,
    save_trajectory,
    synthetic_leader,
)
from cfmonitor.estimator import PosteriorEstimate, SgldHyper
from cfmonitor.monitor import Action, StrategyDecision
from cfmonitor.plant import ControllerConfig, PlantParams, Trajectory

BLOCK = harness._EMIT_BLOCK  # rows the float kernel formats at a time
SPLIT = harness._SPLIT_ROWS  # a table of more rows is split with a helper


def reference_csv(path, header, columns, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i in range(rows):
            w.writerow([repr(float(col[i])) for col in columns])


def reference_timeline_csv(report, path):
    """estimate_timeline.csv as the per-row `csv.writer` code wrote it."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t_end", "K_L_mean", "K_L_lo", "K_L_hi",
                    "T_L_mean", "T_L_lo", "T_L_hi", "anomaly"])
        for rec in report.windows:
            e = rec.estimate
            w.writerow([repr(rec.t_end), repr(e.K_L), repr(float(e.credible[0, 0])),
                        repr(float(e.credible[0, 1])), repr(e.T_L),
                        repr(float(e.credible[1, 0])), repr(float(e.credible[1, 1])),
                        int(rec.decision.anomaly)])


def assert_timeline_csv_matches(report, out_dir, ref_dir):
    reference_timeline_csv(report, ref_dir / "estimate_timeline.csv")
    assert ((out_dir / "estimate_timeline.csv").read_bytes()
            == (ref_dir / "estimate_timeline.csv").read_bytes())


def assert_trajectory_csvs_match(report, out_dir, ref_dir):
    lead, f = report.leader, report.follower
    n = len(f)
    reference_csv(ref_dir / "leader.csv", ["time", "position", "speed", "accel"],
                  [lead.time, lead.position, lead.speed, lead.accel], len(lead))
    reference_csv(ref_dir / "follower.csv",
                  ["time", "position", "speed", "accel", "jerk", "demanded_accel"],
                  [f.time, f.position, f.speed, f.accel, f.jerk, f.demanded_accel], n)
    reference_csv(ref_dir / "overlay.csv",
                  ["time", "leader_speed", "leader_accel", "follower_speed",
                   "follower_accel"],
                  [f.time, lead.speed, lead.accel, f.speed, f.accel], n)
    for name in ("leader.csv", "follower.csv", "overlay.csv"):
        assert (out_dir / name).read_bytes() == (ref_dir / name).read_bytes(), name


class TestEmissionMatchesCsvWriter:
    def test_closed_loop_run(self, tmp_path):
        spec = SyntheticLeaderSpec(segments=(
            LeaderSegment(2.0, 0.0), LeaderSegment(2.0, -1.0),
            LeaderSegment(2.0, 1.0), LeaderSegment(2.0, 0.0),
        ), v0=20.0)
        report = run_closed_loop(ScenarioConfig(
            controller=ControllerConfig(),
            schedule=[(0.0, PlantParams(0.3, 1.0, 0.05)), (4.0, PlantParams(1.5, 0.5, 0.3))],
            leader_spec=spec, sgld=SgldHyper(K_iters=200), seed=1))
        assert len(report.follower) > SPLIT and len(report.follower) % SPLIT
        assert any(rec.decision.anomaly for rec in report.windows)
        emit_outputs(report, tmp_path / "out")
        (tmp_path / "ref").mkdir()
        assert_trajectory_csvs_match(report, tmp_path / "out", tmp_path / "ref")
        assert_timeline_csv_matches(report, tmp_path / "out", tmp_path / "ref")

    def test_collision_run(self, tmp_path):
        leader = synthetic_leader(SyntheticLeaderSpec(segments=(
            LeaderSegment(1.0, 0.0), LeaderSegment(5.0, -4.0),
            LeaderSegment(5.0, 0.0),
        ), v0=20.0))
        init = plant.VehicleState(position=leader.position[0] - 6.0, speed=30.0)
        cfg = ControllerConfig()
        res = plant.simulate(leader, cfg, [(0.0, PlantParams(0.3, 1.0, 0.05))], init)
        assert res.collision_time is not None and 0 < len(res) < len(leader)
        report = RunReport(leader, res, [], 2.0, None, res.collision_time, 0.0, 0.0, 0.0)
        emit_outputs(report, tmp_path / "out")
        (tmp_path / "ref").mkdir()
        assert_trajectory_csvs_match(report, tmp_path / "out", tmp_path / "ref")

    @pytest.mark.parametrize("rows", [1, SPLIT, SPLIT + 1, 2 * SPLIT + 7, BLOCK - 1,
                                      BLOCK, BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK + 1])
    @pytest.mark.parametrize("shared_time", [True, False])
    def test_block_edges_and_odd_values(self, tmp_path, rows, shared_time):
        odd = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 1e-300, 5e-324, 1e16,
                        1e-5, 0.1, 123456789.125, -2.5e-7])
        rng = np.random.default_rng(rows)

        def column():
            return np.resize(np.concatenate([odd, rng.standard_normal(rows)]), rows)

        leader = Trajectory(np.arange(rows) * 0.01, column(), column(), column())
        n = max(rows - 3, 0)  # the follower stops three rows short
        time = leader.time[:n].copy() if shared_time else leader.time[:n] + 0.5
        follower = plant.SimulationResult(time, *(column()[:n] for _ in range(5)))
        report = RunReport(leader, follower, [], 2.0, None, None, 0.0, 0.0, 0.0)
        emit_outputs(report, tmp_path / "out")
        (tmp_path / "ref").mkdir()
        assert_trajectory_csvs_match(report, tmp_path / "out", tmp_path / "ref")

    def test_save_trajectory(self, tmp_path):
        traj = synthetic_leader(harness.default_leader_spec())
        save_trajectory(traj, tmp_path / "leader.csv")
        reference_csv(tmp_path / "ref.csv", ["time", "position", "speed", "accel"],
                      [traj.time, traj.position, traj.speed, traj.accel], len(traj))
        assert ((tmp_path / "leader.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())


# ---------------------------------------------------------------------------
# the split writer: a forked child formats the rows from the middle one on


def random_report(rows, follower_rows):
    rng = np.random.default_rng(rows)
    leader = Trajectory(np.arange(rows) * 0.01, *rng.standard_normal((3, rows)))
    follower = plant.SimulationResult(leader.time[:follower_rows].copy(),
                                      *rng.standard_normal((5, follower_rows)))
    return RunReport(leader, follower, [], 2.0, None, None, 0.0, 0.0, 0.0)


def windowed_report(windows):
    """A five-row run with ``windows`` made-up windows, whose estimates hold
    odd floats and every third of which is an anomaly."""
    rng = np.random.default_rng(windows)
    odd = [-0.0, 1e-300, 5e-324, 1e16, 123456789.125, -2.5e-7]
    values = np.resize(np.concatenate([odd, rng.standard_normal(6 * windows)]),
                       (windows, 6))
    cfg = ControllerConfig()
    records = [WindowRecord(
        w, 2.0 * w, 2.0 * w + 2.0, (1.0, 0.3), 1.0,
        PosteriorEstimate(np.zeros((2, 2)), v[:2], np.eye(2), v[2:].reshape(2, 2)),
        StrategyDecision(w % 3 == 0, None, Action.NONE, cfg), False)
        for w, v in enumerate(values)]
    report = random_report(5, 5)
    report.windows = records
    return report


def make_formatter_fail(monkeypatch, in_child,
                        error=RuntimeError("formatter failed")):
    """Make the writer's float formatter raise ``error`` in the forked child
    only, or in this process only."""
    parent = os.getpid()
    real = harness._float_cells

    def bad_float_cells(x):
        if (os.getpid() != parent) == in_child:
            raise error
        return real(x)

    monkeypatch.setattr(harness, "_float_cells", bad_float_cells)


TABLES = {"leader.csv", "follower.csv", "overlay.csv"}


class TestSplitWriter:
    @pytest.mark.parametrize("rows", [1, SPLIT - 1, SPLIT, SPLIT + 1, 2 * SPLIT,
                                      2 * SPLIT + 1, 3 * SPLIT + 1, 2 * BLOCK - 1,
                                      2 * BLOCK, 2 * BLOCK + 1, 3 * BLOCK + 1])
    def test_bytes_equal_csv_writer(self, tmp_path, forks, rows,
                                    assert_no_children):
        # at 2 * BLOCK - 1, 2 * BLOCK and 2 * BLOCK + 1 rows, one half ends
        # a row short of, at or a row past a block's end
        report = random_report(rows, rows)
        emit_outputs(report, tmp_path / "out")
        assert len(forks) == (rows > SPLIT)
        (tmp_path / "ref").mkdir()
        assert_trajectory_csvs_match(report, tmp_path / "out", tmp_path / "ref")
        assert_no_children()

    @pytest.mark.parametrize("follower_rows", [0, SPLIT + 5, 1024, 1025, 1026])
    def test_file_ends_before_split(self, tmp_path, forks, follower_rows):
        # a collision run: the follower and overlay end in the first half,
        # or a row before, at or after the middle one, 1025
        report = random_report(4 * SPLIT + 3, follower_rows)
        emit_outputs(report, tmp_path / "out")
        assert len(forks) == 1
        (tmp_path / "ref").mkdir()
        assert_trajectory_csvs_match(report, tmp_path / "out", tmp_path / "ref")
        assert set(os.listdir(tmp_path / "out")) >= TABLES

    @pytest.mark.parametrize("no_split", ["one_cpu", "no_fork", "fork_fails"])
    def test_one_process_same_bytes(self, tmp_path, monkeypatch, forks, no_split):
        report = random_report(3 * BLOCK + 1, 3 * BLOCK - 2)
        emit_outputs(report, tmp_path / "split")
        if no_split == "one_cpu":
            monkeypatch.setattr(harness, "_can_offload", lambda: False)
        elif no_split == "no_fork":
            monkeypatch.delattr(os, "fork")
        else:
            def fork():
                raise BlockingIOError(11, "Resource temporarily unavailable")
            monkeypatch.setattr(os, "fork", fork)
        emit_outputs(report, tmp_path / "one")
        assert len(forks) == 1
        for name in TABLES:
            assert ((tmp_path / "one" / name).read_bytes()
                    == (tmp_path / "split" / name).read_bytes()), name
        assert set(os.listdir(tmp_path / "one")) == set(os.listdir(tmp_path / "split"))

    @pytest.mark.parametrize("windows", [30, 2 * SPLIT + 7])
    @pytest.mark.parametrize("one_process", [False, True],
                             ids=["forked", "one_process"])
    def test_timeline_bytes_equal_csv_writer(self, tmp_path, monkeypatch, forks,
                                             windows, one_process):
        # the timeline is written by a call of its own, which forks once its
        # rows are more than SPLIT
        if one_process:
            monkeypatch.setattr(harness, "_can_offload", lambda: False)
        report = windowed_report(windows)
        emit_outputs(report, tmp_path / "out")
        assert len(forks) == (windows > SPLIT and not one_process)
        (tmp_path / "ref").mkdir()
        assert_timeline_csv_matches(report, tmp_path / "out", tmp_path / "ref")

    def test_child_failure_raises_oserror(self, tmp_path, monkeypatch, forks,
                                          assert_no_children):
        make_formatter_fail(monkeypatch, in_child=True)
        out = tmp_path / "out"
        with pytest.raises(OSError, match=r"rows from 1024 on ended with code 1: "
                                          r"RuntimeError: formatter failed$"):
            emit_outputs(random_report(4 * SPLIT, 4 * SPLIT), out)
        assert len(forks) == 1
        assert_no_children()
        assert set(os.listdir(out)) <= TABLES

    def test_child_failure_exits_4(self, tmp_path, capsys, monkeypatch, forks,
                                   assert_no_children):
        make_formatter_fail(monkeypatch, in_child=True)
        cfg = tmp_path / "fast.cfg"
        cfg.write_text("sgld.K_iters = 50\n")
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 4
        assert "I/O error: failed writing outputs under" in capsys.readouterr().err
        # the closed loop's SGLD chains fork nothing
        assert forks == ["write_csv_columns"]
        assert_no_children()
        assert set(os.listdir(out)) <= TABLES

    @pytest.mark.parametrize("one_process", [False, True],
                             ids=["forked", "one_process"])
    def test_disk_full_named_on_stderr(self, tmp_path, capsys, monkeypatch, forks,
                                       assert_no_children, one_process):
        # the cause of a failed write reaches the exit-4 message from either
        # process
        if one_process:
            monkeypatch.setattr(harness, "_can_offload", lambda: False)
        make_formatter_fail(monkeypatch, in_child=not one_process,
                            error=OSError(28, "No space left on device"))
        cfg = tmp_path / "fast.cfg"
        cfg.write_text("sgld.K_iters = 50\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("I/O error: failed writing outputs under")
        assert "[Errno 28] No space left on device" in err
        assert forks == ([] if one_process else ["write_csv_columns"])
        assert_no_children()

    def test_cpu_set_left_alone(self, tmp_path, monkeypatch, forks,
                                assert_no_children):
        # the helper runs where the scheduler puts it: neither process
        # changes a CPU set
        def set_affinity(*args):
            raise AssertionError("the writer changed a CPU set")

        monkeypatch.setattr(os, "sched_setaffinity", set_affinity, raising=False)
        column = np.arange(3 * SPLIT, dtype=float) / 7
        harness.write_csv_columns([(tmp_path / "x.csv", ["x"], [column])])
        assert forks == ["write_csv_columns"]
        reference_csv(tmp_path / "ref.csv", ["x"], [column], len(column))
        assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert_no_children()

    def test_parent_failure_reaps_child(self, tmp_path, monkeypatch, forks,
                                        assert_no_children):
        make_formatter_fail(monkeypatch, in_child=False)
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match="formatter failed"):
            emit_outputs(random_report(4 * SPLIT, 4 * SPLIT), out)
        assert len(forks) == 1
        assert_no_children()
        assert set(os.listdir(out)) <= TABLES


# ---------------------------------------------------------------------------
# the float kernel against repr


def cell_text(values):
    """What `harness._float_cells` writes for each value, as text."""
    cells = harness._float_cells(np.asarray(values, dtype=np.float64))
    rows = cells.view(np.uint8).reshape(-1, 48)
    # byte 47 holds the comma that follows a cell
    assert (rows[:, 47] == ord(",")).all()
    return [row[:47].tobytes().replace(b"\0", b"").decode() for row in rows]


def assert_repr(values):
    values = np.asarray(values, dtype=np.float64)
    got = cell_text(values)
    want = [repr(v) for v in values.tolist()]
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad, bad[:10]


def nudged(values, ulps):
    """``values`` moved by ``ulps`` units in the last place (up or down)."""
    out = np.asarray(values, dtype=np.float64)
    for _ in range(abs(ulps)):
        out = np.nextafter(out, np.inf if ulps > 0 else -np.inf)
    return out


def adversarial():
    """Values where a shortest-digit search tends to go wrong."""
    base = np.concatenate([10.0 ** np.arange(-6, 18), 2.0 ** np.arange(-20, 61),
                           [1e-4, 1e16]])
    near = [nudged(base, ulps) for ulps in range(-3, 4)]
    # halfway at 17 digits: the 17-digit decimal ending in 5 lies between
    # the 16-digit neighbours
    rng = np.random.default_rng(17)
    halves = [float(f"{m}5e{e}") for m, e in zip(rng.integers(10**15, 10**16, 400),
                                                  rng.integers(-20, 0, 400))]
    odd = [0.1 + 0.2, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
           9007199254740993.0, 9999999999999998.0, 123456789.125, 0.3, 2.5e-7]
    values = np.concatenate(near + [halves, odd])
    return np.concatenate([values, -values])


BITS = st.integers(0, 2**64 - 1)


class TestFloatCells:
    @given(bits=st.lists(BITS, max_size=40))
    @settings(deadline=None)
    def test_bit_patterns(self, bits):
        # NaN payloads, subnormals, zeros and infinities included
        assert_repr(np.array(bits, dtype=np.uint64).view(np.float64))

    @given(values=st.lists(st.floats(), max_size=40))
    @settings(deadline=None)
    def test_floats(self, values):
        assert_repr(values)

    @given(mantissa=st.integers(1, 10**17), exponent=st.integers(-22, 16),
           ulps=st.integers(-3, 3))
    @settings(deadline=None)
    def test_short_decimals(self, mantissa, exponent, ulps):
        # a decimal of up to 17 digits, and its neighbours, across the range
        # the kernel prints
        assert_repr(nudged([float(f"{mantissa}e{exponent}")], ulps))

    def test_adversarial(self):
        assert_repr(adversarial())

    def test_seeded_sweep(self):
        rng = np.random.default_rng(2024)
        n = 250_000
        assert_repr(np.concatenate([
            rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),
            rng.standard_normal(n) * 10.0 ** rng.integers(-5, 17, n),
            np.round(rng.standard_normal(n) * 1e4, rng.integers(0, 12)),
            rng.uniform(-100, 100, n)]))

    def test_zeros_and_fallbacks(self, monkeypatch):
        # 0.0 and -0.0 are printed by the kernel, the rest by repr
        calls = []
        monkeypatch.setattr(harness, "repr", lambda v: calls.append(v) or repr(v),
                            raising=False)
        fallbacks = [np.nan, np.inf, -np.inf, 5e-324, 1e-5, 1e16]
        assert cell_text([0.0, -0.0, *fallbacks, 0.5, -4.0, 1.5]) == [
            "0.0", "-0.0", "nan", "inf", "-inf", "5e-324", "1e-05", "1e+16", "0.5",
            "-4.0", "1.5"]
        assert len(calls) == len(fallbacks)

    @pytest.mark.parametrize("rows", [0, 1])
    def test_empty_and_one_row(self, tmp_path, rows):
        columns = [np.full(rows, -0.125), np.arange(rows), np.full(rows, 1e300)]
        harness.write_csv_columns([(tmp_path / "x.csv", ["a", "b", "c"], columns)])
        reference = "a,b,c\r\n" + "-0.125,0,1e+300\r\n" * rows
        assert (tmp_path / "x.csv").read_bytes() == reference.encode()

    def test_integer_columns(self, tmp_path):
        # integer cells are int(v), whatever their width or sign
        ints = np.array([0, 1, -1, 7, 2**62, -2**63, 123456789], dtype=np.int64)
        columns = [ints, ints.astype(np.int8), np.resize([True, False], 7),
                   ints.astype(float)]
        harness.write_csv_columns([(tmp_path / "x.csv", list("abcd"), columns)])
        reference = "a,b,c,d\r\n" + "".join(
            f"{a},{b},{int(c)},{float(d)!r}\r\n"
            for a, b, c, d in zip(*(col.tolist() for col in columns)))
        assert (tmp_path / "x.csv").read_bytes() == reference.encode()


def long_scenario():
    """A 600 s run of 60 001 rows with 20 s windows, as a replay would be."""
    pulses = (LeaderSegment(20.0, 0.0), LeaderSegment(4.0, -1.5),
              LeaderSegment(6.0, 1.0), LeaderSegment(10.0, 0.5),
              LeaderSegment(10.0, -0.5))
    return ScenarioConfig(
        controller=ControllerConfig(),
        schedule=[(0.0, PlantParams(0.3, 1.0, 0.05)), (300.0, PlantParams(1.5, 0.5, 0.3))],
        leader_spec=SyntheticLeaderSpec(segments=pulses * 12, v0=20.0),
        window_length=20.0, sgld=SgldHyper(K_iters=1000), seed=7)


class TestKernelShare:
    """Nearly every float cell of a run's artifacts comes from the kernel: a
    writer that sent every cell to repr would match every byte test."""

    @pytest.mark.parametrize("scenario", [lambda: harness.default_scenario(7),
                                          long_scenario], ids=["default", "long"])
    def test_at_most_one_percent_to_repr(self, tmp_path, monkeypatch, scenario):
        report = run_closed_loop(scenario())
        calls = []
        monkeypatch.setattr(harness, "repr", lambda v: calls.append(v) or repr(v),
                            raising=False)
        emit_outputs(report, tmp_path / "out")
        lead, f = report.leader, report.follower
        # the distinct float columns: the follower's time is the leader's
        floats = 4 * len(lead) + 5 * len(f) + 7 * len(report.windows)
        assert len(lead) == (6001, 60001)[scenario is long_scenario]
        assert len(calls) <= 0.01 * floats
        (tmp_path / "ref").mkdir()
        assert_trajectory_csvs_match(report, tmp_path / "out", tmp_path / "ref")


# ---------------------------------------------------------------------------
# reader


def reference_rows(text, columns):
    """The row loop: ("malformed" or "non-finite value in", row number) for
    the first bad row, or ("ok", data)."""
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader)
    idx = [header.index(c) for c in columns]
    rows = []
    for lineno, row in enumerate(reader, start=2):
        try:
            rows.append([float(row[i]) for i in idx])
        except (ValueError, IndexError):
            return "malformed", lineno
        if not np.isfinite(rows[-1]).all():
            return "non-finite value in", lineno
    return "ok", np.array(rows, dtype=float).reshape(len(rows), len(columns))


def write_text(path, text):
    path.write_bytes(text.encode("ascii"))


def examples(n):
    """``n`` examples, or the profile's count where that is more (as with
    ``--hypothesis-profile thorough``)."""
    return max(n, settings().max_examples)


# a float as repr, numpy's "%.17g" (the benchmark's inputs), "%.15g" or
# "%.6f" spell it
NUMBER = st.tuples(st.floats(width=64),
                   st.sampled_from(["%r", "%.17g", "%.15g", "%.6f"])).map(
    lambda pair: pair[1] % pair[0])
ODD_CELL = st.one_of(
    NUMBER.map(lambda s: f'"{s}"'),
    st.integers(1, 10**7).map(lambda i: f"{i:_}"),
    st.sampled_from(["", " ", "abc", "1e", "--1", "1.2.3", " 1.5", "1.5 ", "\t2",
                     "\x1c1", "1\x1f", "1_", "_1", "0x10", "nan", "-inf", "1e999",
                     '"', '1"', '"1', '""', "1\x00", "#1", "1-5", "5-", "+-1", "1+",
                     ".", "-", "-.", "5..", "1e5.5", "1\r5"]),
)


@st.composite
def csv_texts(draw, columns):
    """A headed CSV with the named columns (shuffled, plus an unused one)
    whose rows mix uniform times, numbers, odd cells, blank, short and long
    rows, with LF or CRLF line ends.  In half the texts no speed number has
    a sign, so that a leader with more than a few rows still loads."""
    header = draw(st.permutations(list(columns) + ["note"]))
    odd_pct = draw(st.sampled_from([0, 0, 3, 20]))
    signed_speed = draw(st.booleans())

    def odd():
        return draw(st.integers(0, 99)) < odd_pct

    lines = [",".join(header)]
    for i in range(draw(st.integers(0, 10))):
        cells = []
        for name in header:
            if odd():
                cells.append(draw(ODD_CELL))
            elif name == "time":
                cells.append(repr(i * 0.01))
            elif name == "speed" and not signed_speed:
                cells.append(draw(NUMBER).lstrip("-"))
            else:
                cells.append(draw(NUMBER))
        if odd():
            shape = draw(st.sampled_from(["blank", "short", "long"]))
            if shape == "blank":
                cells = []
            elif shape == "short":
                cells = cells[:draw(st.integers(0, len(cells) - 1))]
            else:
                cells += draw(st.lists(st.one_of(NUMBER, ODD_CELL), min_size=1,
                                       max_size=3))
        lines.append(",".join(cells))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


LEADER = ("time", "position", "speed", "accel")
LOG = ("time", "accel", "demand")


class TestReaderMatchesRowLoop:
    @given(text=csv_texts(LEADER))
    @settings(max_examples=examples(300), deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_load_leader(self, csv_dir, text):
        path = csv_dir / "leader.csv"
        write_text(path, text)
        outcome, ref = reference_rows(text, LEADER)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the reader warns about nothing
            try:
                traj = load_leader(path)
            except ValueError as exc:
                error = str(exc)
            else:
                error = None
        if outcome != "ok":
            assert error is not None and re.search(rf"{outcome} row {ref}$", error)
            return
        # the row of the first negative speed, with the header as row 1
        negative = next(iter(np.flatnonzero(ref[:, 2] < 0) + 2), None)
        if error is not None:
            assert not re.search(r"(malformed|non-finite value in) row", error)
            assert (len(ref) < 2 or "non-uniform" in error
                    or error == f"{path}: negative speed in row {negative}")
            return
        assert negative is None
        for k, name in enumerate(LEADER):
            assert getattr(traj, name).tobytes() == ref[:, k].tobytes()

    @given(text=csv_texts(LOG))
    @settings(max_examples=examples(120), deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_cli_estimate(self, csv_dir, text):
        path = csv_dir / "log.csv"
        write_text(path, text)
        cfg = csv_dir / "fast.cfg"
        cfg.write_text("sgld.K_iters = 50\n")
        outcome, ref = reference_rows(text, LOG)
        with contextlib.redirect_stderr(io.StringIO()) as stderr:
            code = main(["estimate", str(path), "--config", str(cfg),
                         "--out", str(csv_dir / "estimate.json")])
        err = stderr.getvalue()
        assert code in (0, 2)
        if outcome != "ok":
            assert code == 2
            assert re.search(rf"{outcome} row {ref}$", err.strip())
        else:
            assert not re.search(r"(malformed|non-finite value in) row", err)
            if len(ref) < 3:
                assert code == 2 and "need at least 3 samples" in err


class TestReaderCases:
    HEADER = "time,position,speed,accel\n"

    def test_blank_data_line_is_malformed(self, tmp_path):
        path = tmp_path / "leader.csv"
        write_text(path, self.HEADER + "0.0,0,1,0\n\n0.02,0.02,1,0\n")
        with pytest.raises(ValueError, match=r"malformed row 3$"):
            load_leader(path)

    def test_row_loop_spellings_accepted(self, tmp_path):
        # quoting and underscores are valid for csv.reader + float()
        path = tmp_path / "leader.csv"
        write_text(path, self.HEADER + '0.0,1_0,"1.5",0\r\n0.01,1_0.5, 1.5 ,0\r\n')
        traj = load_leader(path)
        assert traj.position.tolist() == [10.0, 10.5]
        assert traj.speed.tolist() == [1.5, 1.5]

    def test_separator_control_characters_rejected(self, tmp_path):
        # float() rejects the separators \x1c-\x1f, which numpy's parsers
        # strip around a number as whitespace
        path = tmp_path / "leader.csv"
        write_text(path, self.HEADER + "0.0,0,1,0\n0.01,0\x1c,1,0\n")
        with pytest.raises(ValueError, match=r"malformed row 3$"):
            load_leader(path)

    @pytest.mark.parametrize("cell", ["1-5", "5-", "1.5-", "-1-", "--1", "+-1", "1+",
                                      ".", "-", "-.", "1.2.3", "5..", "1e5.5", "e5",
                                      "1e", "0.0000000000000000000001e"])
    def test_misplaced_signs_and_points_are_malformed(self, tmp_path, cell):
        path = tmp_path / "leader.csv"
        write_text(path, self.HEADER + f"0.0,0,1,0\n0.01,{cell},1,0\n")
        with pytest.raises(ValueError, match=r"malformed row 3$"):
            load_leader(path)

    def test_quoted_field_spanning_lines(self, tmp_path):
        # one csv record over two physical lines, each of which parses alone
        path = tmp_path / "leader.csv"
        write_text(path, "time,position,speed,accel,note\n"
                         '0.0,0,1,0,"a\n0.01,0,1,0,b"\n0.01,0.01,1,0,c\n')
        traj = load_leader(path)
        assert traj.time.tolist() == [0.0, 0.01]

    def test_large_file_matches_row_loop(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((3000, 3)) * 10.0 ** rng.integers(-20, 20, (3000, 3))
        path = tmp_path / "log.csv"
        text = "demand,time,accel\r\n" + "".join(
            f"{u!r},{i * 0.01!r},{a!r}\r\n" for i, (u, _, a) in enumerate(data.tolist()))
        write_text(path, text)
        got = harness.read_csv_columns(path, LOG)
        assert got.tobytes() == reference_rows(text, LOG)[1].tobytes()

    def test_peak_memory(self, long_leader_csv):
        # the file's bytes, the result and a chunk's work, with no copy of
        # the body and no string per line
        tracemalloc.start()
        try:
            traj = load_leader(long_leader_csv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj) == 60001
        assert peak < 2.5 * long_leader_csv.stat().st_size

    def test_benchmark_spelling_parsed_exactly(self, long_leader_csv, monkeypatch,
                                               no_row_loop):
        # nearly every "%.17g" cell is certified by the parser: a reader
        # that sent every cell to float() would match every bit test
        calls = []
        monkeypatch.setattr(harness, "float", lambda v: calls.append(v) or float(v),
                            raising=False)
        got = harness.read_csv_columns(long_leader_csv, LEADER)
        assert len(calls) <= 0.001 * got.size
        text = long_leader_csv.read_text()
        assert got.tobytes() == reference_rows(text, LEADER)[1].tobytes()


@pytest.fixture(scope="module")
def long_leader_csv(tmp_path_factory):
    """A 60 001-row leader printed as the benchmark prints its inputs."""
    traj = synthetic_leader(long_scenario().leader_spec)
    path = tmp_path_factory.mktemp("long") / "leader.csv"
    np.savetxt(path, np.column_stack([traj.time, traj.position, traj.speed,
                                      traj.accel]),
               delimiter=",", fmt="%.17g", header=",".join(LEADER), comments="")
    return path


# ---------------------------------------------------------------------------
# the reader's decimal parser against float()


@pytest.fixture
def no_row_loop(monkeypatch):
    """Fail where the decimal parser hands a file to the row loop."""
    class NoCsv:
        @staticmethod
        def reader(*args, **kwargs):
            raise AssertionError("the row loop read the file")

    monkeypatch.setattr(harness, "csv", NoCsv)


def assert_reads_as_float(path, cells, end="\n"):
    """A file of one column ``x`` holding ``cells`` reads back as
    ``float(cell)``, bit for bit."""
    path.write_bytes(end.join(["x", *cells, ""]).encode())
    got = harness.read_csv_columns(path, ["x"])[:, 0]
    want = np.array([float(c) for c in cells])
    bad = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert not len(bad), [(cells[i], got[i], want[i]) for i in bad[:10]]


def midpoint_decimals():
    """Decimals of 16-19 significant digits at, and 1 or 2 units in their
    last digit from, the midpoint between adjacent doubles: where rounding
    is hardest to certify.  The doubles include each power of two from
    2**-12 to 2**40 and its lower neighbour, so that the midpoints just
    below and just above each power, whose gaps differ, are tested."""
    rng = np.random.default_rng(11)
    powers = 2.0 ** np.arange(-12, 41)
    doubles = np.concatenate([powers, np.nextafter(powers, 0),
                              rng.uniform(0, 1, 40),
                              rng.uniform(1, 2, 20) * 10.0 ** rng.integers(1, 15, 20)])
    cells = []
    for x in doubles.tolist():
        mid = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
        for digits in (16, 17, 18, 19):
            near = decimal.Context(prec=digits).divide(
                decimal.Decimal(mid.numerator), decimal.Decimal(mid.denominator))
            unit = decimal.Decimal(1).scaleb(near.adjusted() - digits + 1)
            for step in (-2, -1, 0, 1, 2):
                cell = format(near + step * unit, "f")
                cells += [cell, "-" + cell]
    return cells


class TestReaderExact:
    def test_midpoints(self, tmp_path, no_row_loop):
        assert_reads_as_float(tmp_path / "x.csv", midpoint_decimals())

    def test_ties_go_to_float(self, tmp_path, monkeypatch, no_row_loop):
        # halfway between doubles next to 2**53 (below it, the gap is half
        # as wide): float() rounds them to even
        cells = ["9007199254740993", "9007199254740991.5", "-9007199254740993",
                 "9007199254740995", "4503599627370495.75"]
        calls = []
        monkeypatch.setattr(harness, "float", lambda v: calls.append(v) or float(v),
                            raising=False)
        assert_reads_as_float(tmp_path / "x.csv", cells)
        assert [c.decode() for c in calls] == cells
        assert harness.read_csv_columns(tmp_path / "x.csv", ["x"])[:2, 0].tolist() == [
            9007199254740992.0, 9007199254740992.0]

    def test_long_mantissas(self, tmp_path, no_row_loop):
        # 18 digits fit an int64; 19 and 20 need not, and go to float()
        cells = ["123456789012345678", "999999999999999999", "1234567890123456789",
                 "9999999999999999999", "-9999999999999999999", "12345678901234567890",
                 "99999999999999999999.5", "0.123456789012345678",
                 "0.1234567890123456789", "0.01234567890123456789",
                 "-0.0012345678901234567", "1.00000000000000000000",
                 "00000000000000000000001.5", "0000.00000000000000000001"]
        assert_reads_as_float(tmp_path / "x.csv", cells)

    def test_odd_spellings(self, tmp_path, no_row_loop):
        # leading zeros are not octal; signs, a bare point, the exponent
        # form and fractions of 22 digits, of up to 18 significant ones
        cells = ["0.0089", "0.0012", "0089", "-0.0", "-0", "0", "5.", ".5", "-.5",
                 "+1.5", "1e-05", "1E+300", "-2.5e-7", "0.1234567890123456789012",
                 "0.0000000000000000000001", "0.000000000000000000001",
                 "0.0000123456789012345678", "-0.0000123456789012345678"]
        assert_reads_as_float(tmp_path / "x.csv", cells)
        got = harness.read_csv_columns(tmp_path / "x.csv", ["x"])[:, 0]
        assert got[:2].tolist() == [0.0089, 0.0012]
        assert np.signbit(got[3:5]).all()

    @pytest.mark.parametrize("chunk", [16, 100, harness._READ_CHUNK])
    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("final_end", [True, False])
    def test_rows_across_chunks(self, tmp_path, monkeypatch, no_row_loop, chunk,
                                end, final_end):
        # lines longer than a chunk, and lines split across chunk borders
        monkeypatch.setattr(harness, "_READ_CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        values = rng.standard_normal((4000, 4)) * 10.0 ** rng.integers(-3, 6, (4000, 4))
        spell = rng.choice(["%r", "%.17g", "%.15g", "%.6f"], values.shape)
        lines = ["accel,note,demand,time"] + [
            ",".join(f % v for f, v in zip(fs, row))
            for fs, row in zip(spell.tolist(), values.tolist())]
        text = end.join(lines) + (end if final_end else "")
        path = tmp_path / "log.csv"
        write_text(path, text)
        got = harness.read_csv_columns(path, LOG)
        assert got.tobytes() == reference_rows(text, LOG)[1].tobytes()

    @given(cells=st.lists(st.tuples(st.sampled_from(["", "-", "+"]),
                                    st.text("0123456789", min_size=1, max_size=24),
                                    st.integers(0, 25)), min_size=1, max_size=30))
    @settings(deadline=None)
    def test_decimal_spellings(self, csv_dir, cells):
        # digit strings of up to 24 digits with a point anywhere, or none
        text = [sign + (digits[:point] + "." + digits[point:]
                        if point <= len(digits) else digits)
                for sign, digits, point in cells]
        assert_reads_as_float(csv_dir / "x.csv", text)

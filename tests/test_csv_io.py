"""The CSV layer against row-by-row references: the artifact writer against
`csv.writer` with ``repr(float(v))`` cells, the reader against a
`csv.reader` + ``float()`` row loop."""
import contextlib
import csv
import io
import re
import warnings

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
    emit_outputs,
    load_leader,
    run_closed_loop,
    save_trajectory,
    synthetic_leader,
)
from cfmonitor.estimator import SgldHyper
from cfmonitor.plant import ControllerConfig, PlantParams, Trajectory

BLOCK = harness._EMIT_BLOCK


def reference_csv(path, header, columns, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i in range(rows):
            w.writerow([repr(float(col[i])) for col in columns])


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
        assert len(report.follower) > BLOCK and len(report.follower) % BLOCK
        emit_outputs(report, tmp_path / "out")
        (tmp_path / "ref").mkdir()
        assert_trajectory_csvs_match(report, tmp_path / "out", tmp_path / "ref")

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

    @pytest.mark.parametrize("rows", [1, BLOCK, BLOCK + 1, 2 * BLOCK + 7])
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


NUMBER = st.floats(width=64).map(repr)
ODD_CELL = st.one_of(
    NUMBER.map(lambda s: f'"{s}"'),
    st.integers(1, 10**7).map(lambda i: f"{i:_}"),
    st.sampled_from(["", " ", "abc", "1e", "--1", "1.2.3", " 1.5", "1.5 ", "\t2",
                     "\x1c1", "1\x1f", "1_", "_1", "0x10", "nan", "-inf", "1e999",
                     '"', '1"', '"1', '""', "1\x00", "#1"]),
)


@st.composite
def csv_texts(draw, columns):
    """A headed CSV with the named columns (shuffled, plus an unused one)
    whose rows mix uniform times, numbers, odd cells, blank, short and long
    rows, with LF or CRLF line ends."""
    header = draw(st.permutations(list(columns) + ["note"]))
    odd_pct = draw(st.sampled_from([0, 0, 3, 20]))

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
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_load_leader(self, csv_dir, text):
        path = csv_dir / "leader.csv"
        write_text(path, text)
        outcome, ref = reference_rows(text, LEADER)
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # e.g. loadtxt's "no data"
            try:
                traj = load_leader(path)
            except ValueError as exc:
                error = str(exc)
            else:
                error = None
        if outcome != "ok":
            assert error is not None and re.search(rf"{outcome} row {ref}$", error)
            return
        if error is not None:
            assert not re.search(r"(malformed|non-finite value in) row", error)
            assert len(ref) < 2 or "non-uniform" in error
            return
        for k, name in enumerate(LEADER):
            assert getattr(traj, name).tobytes() == ref[:, k].tobytes()

    @given(text=csv_texts(LOG))
    @settings(max_examples=120, deadline=None,
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
        # numpy strips \x1c-\x1f around a number; float() does not
        path = tmp_path / "leader.csv"
        write_text(path, self.HEADER + "0.0,0,1,0\n0.01,0\x1c,1,0\n")
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

"""cfmonitor benchmark: three workloads through the ``cfmonitor`` CLI.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each exists):

- ``default_drive``: ``cfmonitor simulate --out DIR --seed N``, the default
  60 s scenario with 30 two-second windows of 4000 SGLD iterations;
- ``long_replay``: ``cfmonitor simulate --config CFG --out DIR`` replaying a
  600 s leader CSV generated from the seed, 20 s windows, 1000 iterations;
- ``offline_fit``: 16 ``cfmonitor estimate LOG --seed S_i`` calls on 6000-row
  logs simulated from a first-order plant with known ``(K_L, T_L)``.

Every repetition of a workload runs in a fresh interpreter (perfbench/child.py)
with the BLAS pools pinned to one thread, one command at a time.  The run
starts repetitions until ``--seconds`` is used up, checks every command's
outputs, and prints each metric as ``name = value unit`` followed by one JSON
line.  With ``--trace 1`` every other repetition is traced at the layer
boundaries and the JSON carries the per-layer metrics instead of the
end-to-end ones.  Raw repeats, the environment and the spans are written to
``.perfbench_work/results/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("default_drive", "long_replay", "offline_fit")
H = 0.01  # sample period of every generated input [s]
# long_replay's window length [s] and SGLD iterations per window; with fewer
# iterations on shorter windows the chain stops short and false-alarms
REPLAY_WINDOW_S = 20
REPLAY_ITERS = 1000
FIT_ROWS = 6000  # rows of each offline_fit log: 60 s at 100 Hz
SETUP_PROBES = 5  # import-only interpreters per run, besides the repetitions
MIN_REPS = {0: 3, 1: 4}  # per --trace value; traced runs alternate off/on
CHILD_TIMEOUT_S = 150
# an offline fit fails its check when the posterior mean is further than
# this share of the generating value from it: about twice the worst error
# of 640 logs (seeds 1-40), 1.6 % for K_L and 14.4 % for T_L
FIT_TOLERANCE = {"K_L": 0.04, "T_L": 0.30}
# the documented artifact set of `cfmonitor simulate`, with column counts
# of the CSVs; the digest covers exactly these files
ARTIFACT_CSVS = {"leader.csv": 4, "follower.csv": 6, "overlay.csv": 5,
                 "estimate_timeline.csv": 8}
ARTIFACTS = tuple(sorted([*ARTIFACT_CSVS, "estimates.jsonl", "decisions.jsonl",
                          "summary.json"]))
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}
# span names every traced repetition of a workload must record
REQUIRED_SPANS = {
    "default_drive": ("cli.main", "harness.run_closed_loop", "harness.emit_outputs",
                      "harness.synthetic_leader", "plant.simulate_inner",
                      "estimator.batch_from_series", "estimator.sgld_run",
                      "monitor.evaluate", "stability.assess"),
    "long_replay": ("cli.main", "config.parse_config_file",
                    "config.scenario_from_config", "harness.run_closed_loop",
                    "harness.emit_outputs", "harness.load_leader",
                    "plant.simulate_inner", "estimator.batch_from_series",
                    "estimator.sgld_run", "monitor.evaluate", "stability.assess"),
    "offline_fit": ("cli.main", "cli.read_log_csv", "estimator.batch_from_series",
                    "estimator.sgld_run"),
}
# run_ref_s expresses run time at the speed where one calibration burst
# (child.Calibration) takes this long
REF_BURST_S = 1e-3
# the metrics of the JSON result line, with their units
END_TO_END_UNITS = {"run_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "plant.steps": "count", "plant.busy_s": "s", "plant.us_per_step": "us",
    "estimator.fits": "count", "estimator.iters": "count", "estimator.busy_s": "s",
    "estimator.us_per_iter": "us", "estimator.fit_p50_ms": "ms",
    "estimator.fit_tail_ms": "ms", "estimator.fit_tail_pct": "%",
    "estimator.fit_samples": "count", "estimator.batch_s": "s",
    "estimator.realtime_factor_p50": "ratio", "estimator.realtime_factor_tail": "ratio",
    "stability.assess_calls": "count", "stability.assess_p50_us": "us",
    "stability.busy_s": "s",
    "monitor.evaluate_calls": "count", "monitor.evaluate_p50_us": "us",
    "monitor.busy_s": "s", "monitor.anomalies": "count", "monitor.applied": "count",
    "monitor.low_confidence": "count", "monitor.applied_share": "share",
    "harness.emit_s": "s", "harness.emit_bytes": "B", "harness.emit_MB_per_s": "MB/s",
    "harness.load_leader_s": "s", "harness.leader_rows": "count",
    "harness.synthetic_leader_s": "s", "harness.loop_self_s": "s",
    "cli.read_log_s": "s", "cli.log_rows": "count", "cli.self_s": "s",
    "config.load_s": "s",
    "traced_run_wall_s": "s", "untraced_run_wall_s": "s", "trace_overhead_s": "s",
}
FINDINGS = [
    "SgldHyper resolves burn_in_c to 60 % of K_iters in __post_init__, so "
    "dataclasses.replace(SgldHyper(), K_iters=1000) raises ValueError "
    "(burn_in_c 2400 is not inside (0, 1000)); long_replay therefore sets "
    "sgld.K_iters through its config file.",
]


class BenchError(RuntimeError):
    """The benchmark itself cannot produce a result."""


@dataclass(frozen=True)
class Size:
    """Workload sizes; FULL is the benchmark, the self-test shrinks them."""

    drive_iters: int | None = None  # None: the default scenario unchanged
    replay_seconds: int = 600
    replay_switch: int = 300
    fit_logs: int = 16


FULL = Size()


@dataclass
class Plan:
    """The command lines of one workload repetition and what they must write."""

    workload: str
    commands: list[list[str]]
    outputs: list[Path]  # per command: output directory or estimate JSON
    expect: dict


# ---------------------------------------------------------------------------
# inputs, generated from the seed


def write_leader_csv(rng, path, seconds):
    """Piecewise-constant leader accelerations in [-1.5, 1.0] m/s^2, each
    held 2-8 s, or cut short (to no less than 1 s) so the speed stays in
    [10, 30] m/s; integrated exactly at the sample period H."""
    n = int(round(seconds / H))
    accel = np.zeros(n)
    v, i = 20.0, 0
    while i < n:
        a = rng.uniform(-1.5, 1.0)
        room_s = (v - 10.0) / -a if a < 0 else (30.0 - v) / a
        steps = min(n - i, int(min(rng.uniform(2.0, 8.0), room_s) / H))
        if steps < min(100, n - i):
            continue
        accel[i:i + steps] = a
        v += a * steps * H
        i += steps
    speed = 20.0 + np.concatenate(([0.0], np.cumsum(accel) * H))
    position = np.concatenate(([0.0], np.cumsum(speed[:-1] * H + 0.5 * accel * H * H)))
    table = np.column_stack([np.arange(n + 1) * H, position, speed, np.append(accel, 0.0)])
    np.savetxt(path, table, delimiter=",", fmt="%.17g",
               header="time,position,speed,accel", comments="")
    return n + 1


def write_fit_log(rng, path, rows):
    """A first-order actuation log: jerk = (K_L u - a) / T_L + N(0, 0.05^2),
    Euler-stepped at H, with demand u = two sines plus a random walk.
    Returns the generating (K_L, T_L)."""
    K_L, T_L = rng.uniform(0.4, 1.1), rng.uniform(0.2, 1.6)
    t = np.arange(rows) * H
    f1, f2 = rng.uniform(0.05, 0.3), rng.uniform(0.3, 1.0)
    p1, p2 = rng.uniform(0.0, 2 * np.pi, 2)
    demand = (0.8 * np.sin(2 * np.pi * f1 * t + p1) + 0.4 * np.sin(2 * np.pi * f2 * t + p2)
              + np.cumsum(rng.normal(0.0, 0.02, rows)))
    noise = rng.normal(0.0, 0.05, rows)
    accel = np.zeros(rows)
    for i in range(rows - 1):
        accel[i + 1] = accel[i] + H * ((K_L * demand[i] - accel[i]) / T_L + noise[i])
    np.savetxt(path, np.column_stack([t, accel, demand]), delimiter=",", fmt="%.17g",
               header="time,accel,demand", comments="")
    return float(K_L), float(T_L)


def prepare(workload, seed, size, run_dir) -> Plan:
    """Generate the workload's inputs under ``run_dir`` and its command lines.
    Paths are relative to ROOT, where the children run."""
    rel = run_dir.relative_to(ROOT)
    rng = np.random.default_rng(seed)
    if workload == "default_drive":
        out = rel / "out"
        cmd = ["simulate", "--out", str(out), "--seed", str(seed)]
        if size.drive_iters is not None:
            (run_dir / "drive.cfg").write_text(f"sgld.K_iters = {size.drive_iters}\n")
            cmd += ["--config", str(rel / "drive.cfg")]
        # the default scenario: 60 s at 100 Hz, 2 s windows, switch at 26 s
        return Plan(workload, [cmd], [out], {"windows": 30, "window_s": 2.0,
                                             "switch_s": 26.0, "samples": 6001,
                                             "leader_rows": 6001,
                                             "no_false_alarms": True})
    if workload == "long_replay":
        rows = write_leader_csv(rng, run_dir / "leader.csv", size.replay_seconds)
        (run_dir / "replay.cfg").write_text(
            f"leader.source = {rel / 'leader.csv'}\n"
            f"window.length = {REPLAY_WINDOW_S}\n"
            f"sgld.K_iters = {REPLAY_ITERS}\n"
            f"plant.switch_time = {size.replay_switch}\n"
            f"seed = {seed}\n")
        out = rel / "out"
        return Plan(workload, [["simulate", "--config", str(rel / "replay.cfg"),
                                "--out", str(out)]], [out],
                    {"windows": size.replay_seconds // REPLAY_WINDOW_S,
                     "window_s": float(REPLAY_WINDOW_S),
                     "switch_s": float(size.replay_switch),
                     "samples": rows, "leader_rows": rows, "no_false_alarms": False})
    if workload == "offline_fit":
        commands, outputs, truths = [], [], []
        for i in range(size.fit_logs):
            log = rel / f"log{i:02d}.csv"
            truths.append(write_fit_log(rng, ROOT / log, FIT_ROWS))
            outputs.append(rel / f"estimate{i:02d}.json")
            commands.append(["estimate", str(log), "--seed", str(1000 * seed + i),
                             "--out", str(outputs[-1])])
        return Plan(workload, commands, outputs, {"truths": truths})
    raise BenchError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# children


def run_child(commands, trace, run_dir, tag) -> dict:
    """Run ``commands`` in a fresh interpreter; return its result with
    ``setup_s`` added.  Any failure of the child itself is a BenchError."""
    job, result = run_dir / f"job-{tag}.json", run_dir / f"result-{tag}.json"
    job.write_text(json.dumps({"commands": commands, "trace": bool(trace),
                               "result": str(result)}))
    env = {**os.environ, **PINNED_ENV, "PYTHONPATH": str(ROOT / "src")}
    with open(run_dir / f"stderr-{tag}.txt", "w+") as err:
        started = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(job)],
                                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"repetition {tag} ran over {CHILD_TIMEOUT_S} s") from None
        finally:
            if proc.returncode is None:  # timed out or interrupted
                proc.kill()
                proc.wait()
        err.seek(0)
        if code != 0:
            raise BenchError(f"repetition {tag} exited {code}: {err.read().strip()}")
    with open(result) as fh:
        res = json.load(fh)
    if not res["module_file"].startswith(str(ROOT / "src") + os.sep):
        raise BenchError(f"imported {res['module_file']}, not this checkout's src/")
    res["setup_s"] = res["imported_monotonic"] - started
    return res


# ---------------------------------------------------------------------------
# output checks


def _digest(paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def _jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def check_simulate(out, expect):
    """Check one ``simulate`` output directory.  Returns (reasons it
    failed, quality metrics, artifact digest)."""
    missing = [name for name in ARTIFACTS if not (out / name).is_file()]
    if missing:
        return [f"missing artifacts {missing}"], {}, None
    reasons = []
    try:
        summary = json.loads((out / "summary.json").read_text())
        estimates = _jsonl(out / "estimates.jsonl")
        decisions = _jsonl(out / "decisions.jsonl")
        tables = {name: np.loadtxt(out / name, delimiter=",", skiprows=1, ndmin=2)
                  for name in ARTIFACT_CSVS}
        window_ends = [rec["t_end"] for rec in estimates]
        flagged = [rec["t_end"] for rec in decisions if rec["anomaly"]]
        accel_rms = float(summary["post_switch_accel_rms"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable artifact: {exc}"], {}, None
    n_win = expect["windows"]
    if summary.get("collision_time") is not None:
        reasons.append(f"collision at {summary['collision_time']} s")
    if summary.get("windows") != n_win or len(estimates) != n_win or len(decisions) != n_win:
        reasons.append(f"expected {n_win} windows, summary/estimates/decisions have "
                       f"{summary.get('windows')}/{len(estimates)}/{len(decisions)}")
    if summary.get("samples") != expect["samples"]:
        reasons.append(f"expected {expect['samples']} samples, got {summary.get('samples')}")
    if summary.get("anomalies") != flagged:
        reasons.append("summary anomalies disagree with decisions.jsonl")
    rows = {"leader.csv": expect["leader_rows"], "follower.csv": expect["samples"],
            "overlay.csv": expect["samples"], "estimate_timeline.csv": n_win}
    for name, table in tables.items():
        if table.shape != (rows[name], ARTIFACT_CSVS[name]) or not np.isfinite(table).all():
            reasons.append(f"{name}: shape {table.shape} or non-finite values")
    switch, window = expect["switch_s"], expect["window_s"]
    pre_windows = [t for t in window_ends if t <= switch + 1e-9]
    after = [t for t in flagged if t > switch + 1e-9]
    delay = after[0] - switch if after else math.inf
    if delay > window + 1e-9:
        reasons.append(f"first alert {delay} s after the switch, more than one window")
    false_alarms = sum(t <= switch + 1e-9 for t in flagged)
    if false_alarms and expect["no_false_alarms"]:
        reasons.append(f"{false_alarms} of {len(pre_windows)} pre-switch windows flagged")
    quality = {
        "alert_delay_s": delay,
        "false_alarm_share": false_alarms / len(pre_windows) if pre_windows else 0.0,
        "post_switch_accel_rms": accel_rms,
    }
    return reasons, quality, _digest([out / name for name in ARTIFACTS])


def check_estimate(path, truth):
    """Check one ``estimate`` JSON against its generating (K_L, T_L)."""
    try:
        est = json.loads(path.read_text())
        mean = [float(est["posterior_mean"][p]) for p in ("K_L", "T_L")]
        ci = [est["credible_95"][p] for p in ("K_L", "T_L")]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable estimate: {exc}"], {}, None
    errors = [abs(m - t) / t for m, t in zip(mean, truth)]
    reasons = [f"{p} posterior mean {m:.4g} is {e:.1%} off the true {t:.4g}"
               for p, m, t, e in zip(("K_L", "T_L"), mean, truth, errors)
               if not e <= FIT_TOLERANCE[p]]
    quality = {"rel_err_K_L": errors[0], "rel_err_T_L": errors[1],
               "covered": all(lo <= t <= hi for (lo, hi), t in zip(ci, truth))}
    return reasons, quality, _digest([path])


def score(plan, child, reference=None):
    """Check every command of one repetition.  ``reference`` holds the
    digests of the run's first repetition, which every later one must
    reproduce.  Returns one record per command."""
    records = []
    for i, (cmd, out) in enumerate(zip(child["commands"], plan.outputs)):
        out = ROOT / out
        if plan.workload == "offline_fit":
            reasons, quality, digest = check_estimate(out, plan.expect["truths"][i])
        else:
            reasons, quality, digest = check_simulate(out, plan.expect)
        if cmd["exit"] != 0:
            reasons.insert(0, f"exit {cmd['exit']}")
        if reference is not None and digest != reference[i]:
            reasons.append("artifacts differ from the first repetition of this seed")
        records.append({"ok": not reasons, "reasons": reasons, "quality": quality,
                        "digest": digest, "wall_s": cmd["wall_s"], "cpu_s": cmd["cpu_s"],
                        "bursts_s": cmd["bursts_s"], "probe_s": cmd["probe_s"]})
    return records


def clear_outputs(plan):
    for out in plan.outputs:
        path = ROOT / out
        if path.is_dir():
            shutil.rmtree(path)
        elif path.exists():
            path.unlink()


# ---------------------------------------------------------------------------
# metrics


def tail(values):
    """(value, percentile) of the highest percentile with ten samples
    beyond it, or the maximum when there are fewer than eleven."""
    v = sorted(values)
    if len(v) < 11:
        return v[-1], 100.0
    return v[-11], 100.0 * (len(v) - 10) / len(v)


def own_wall(rep):
    """Wall seconds of a repetition's commands, calibration bursts taken off."""
    return sum(c["wall_s"] - c["probe_s"] for c in rep["commands"])


def ref_time(rep):
    """A repetition's own wall time at the reference speed: scaled by
    REF_BURST_S over the mean calibration burst measured while it ran."""
    bursts = [b for c in rep["commands"] for b in c["bursts_s"]]
    if not bursts:
        raise BenchError("a repetition recorded no calibration bursts")
    return own_wall(rep) * REF_BURST_S / statistics.fmean(bursts)


def end_to_end(workload, setup, untraced, records):
    """Every end-to-end metric of this workload, as {name: (value, unit)}."""
    attempted = sum(len(r) for r in records)
    failed = sum(not c["ok"] for r in records for c in r)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "run_ref_s": (statistics.median(ref_time(rep) for rep in untraced), "s"),
        "run_wall_s": (statistics.median(own_wall(rep) for rep in untraced), "s"),
        "peak_rss_mb": (statistics.median(rep["peak_rss_mb"] for rep in untraced), "MB"),
        "failed_share": (failed / attempted, "share"),
    }
    first = records[0]  # every repetition of a seed writes the same artifacts
    if any(not c["quality"] for c in first):
        return metrics
    if workload == "offline_fit":
        q = [c["quality"] for c in first]
        metrics.update({
            "fit_rel_err_K_L": (statistics.median(x["rel_err_K_L"] for x in q), "ratio"),
            "fit_rel_err_T_L": (statistics.median(x["rel_err_T_L"] for x in q), "ratio"),
            "ci_coverage": (sum(x["covered"] for x in q) / len(q), "share"),
        })
    else:
        q = first[0]["quality"]
        metrics.update({
            "alert_delay_s": (q["alert_delay_s"], "sim_s"),
            "false_alarm_share": (q["false_alarm_share"], "share"),
            "post_switch_accel_rms": (q["post_switch_accel_rms"], "m/s2"),
        })
    return metrics


def _rep_layers(spans):
    """Per-layer sums for one traced repetition, plus per-call durations."""
    dur = {s[1]: (s[5] - s[4]) / 1e9 for s in spans}
    own = dict(dur)
    for s in spans:
        if s[2] is not None:
            own[s[2]] -= dur[s[1]]
    by = defaultdict(list)
    for s in spans:
        by[s[0]].append(s)

    def busy(*names):
        return sum(dur[s[1]] for n in names for s in by[n])

    def self_time(*names):
        return sum(own[s[1]] for n in names for s in by[n])

    def count(name, key):
        return sum(s[6].get(key, 0) for s in by[name])

    # real-time factor: batch construction plus the fit, per window second
    rtf, last_batch = [], {}
    for s in spans:
        if s[0] == "estimator.batch_from_series":
            last_batch[s[2]] = s
        elif s[0] == "estimator.sgld_run" and s[2] in last_batch:
            b = last_batch.pop(s[2])
            rtf.append((dur[b[1]] + dur[s[1]]) / b[6]["window_s"])

    steps, iters = count("plant.simulate_inner", "steps"), count("estimator.sgld_run", "iters")
    windows = count("harness.run_closed_loop", "windows")
    applied = count("harness.run_closed_loop", "applied")
    emit_s, emit_bytes = busy("harness.emit_outputs"), count("harness.emit_outputs", "bytes")
    layers = {
        "plant.steps": steps,
        "plant.busy_s": self_time("plant.simulate_inner"),
        "plant.us_per_step": 1e6 * busy("plant.simulate_inner") / steps if steps else 0.0,
        "estimator.fits": len(by["estimator.sgld_run"]),
        "estimator.iters": iters,
        "estimator.busy_s": self_time("estimator.sgld_run", "estimator.batch_from_series"),
        "estimator.us_per_iter": 1e6 * busy("estimator.sgld_run") / iters if iters else 0.0,
        "estimator.batch_s": busy("estimator.batch_from_series"),
        "stability.assess_calls": len(by["stability.assess"]),
        "stability.busy_s": self_time("stability.assess"),
        "monitor.evaluate_calls": len(by["monitor.evaluate"]),
        "monitor.busy_s": self_time("monitor.evaluate"),
        "monitor.anomalies": count("monitor.evaluate", "anomaly"),
        "monitor.applied": applied,
        "monitor.low_confidence": count("monitor.evaluate", "low_confidence"),
        "monitor.applied_share": applied / windows if windows else 0.0,
        "harness.emit_s": emit_s,
        "harness.emit_bytes": emit_bytes,
        "harness.emit_MB_per_s": emit_bytes / 1e6 / emit_s if emit_s else 0.0,
        "harness.load_leader_s": busy("harness.load_leader"),
        "harness.leader_rows": count("harness.load_leader", "rows"),
        "harness.synthetic_leader_s": busy("harness.synthetic_leader"),
        "harness.loop_self_s": self_time("harness.run_closed_loop"),
        "cli.read_log_s": busy("cli.read_log_csv"),
        "cli.log_rows": count("cli.read_log_csv", "rows"),
        "cli.self_s": self_time("cli.main"),
        "config.load_s": busy("config.parse_config_file", "config.scenario_from_config"),
        "traced_run_wall_s": busy("cli.main"),
    }
    # every span is one of the names above, so the layers' times must add
    # up to the traced wall time; a boundary left out of this sum shows here
    accounted = sum(layers[k] for k in (
        "plant.busy_s", "estimator.busy_s", "stability.busy_s", "monitor.busy_s",
        "harness.emit_s", "harness.load_leader_s", "harness.synthetic_leader_s",
        "harness.loop_self_s", "cli.read_log_s", "cli.self_s", "config.load_s"))
    if abs(accounted - layers["traced_run_wall_s"]) > 1e-6 * max(1.0, accounted):
        raise BenchError(f"layer times add up to {accounted} s, traced wall time is "
                         f"{layers['traced_run_wall_s']} s")
    calls = {"fit": [dur[s[1]] for s in by["estimator.sgld_run"]], "rtf": rtf,
             "assess": [dur[s[1]] for s in by["stability.assess"]],
             "evaluate": [dur[s[1]] for s in by["monitor.evaluate"]]}
    return layers, calls


def per_layer(workload, traced, untraced):
    """Per-layer metrics as {name: (value, unit)} from the traced repetitions."""
    reps = [_rep_layers(rep["spans"]) for rep in traced]
    recorded = {s[0] for rep in traced for s in rep["spans"]}
    missing = [n for n in REQUIRED_SPANS[workload] if n not in recorded]
    if missing:
        raise BenchError(f"{workload}: no calls recorded at {missing}")
    layers = {k: statistics.median(r[0][k] for r in reps) for k in reps[0][0]}
    pooled = defaultdict(list)
    for _, calls in reps:
        for k, v in calls.items():
            pooled[k] += v
    fit_tail, fit_pct = tail(pooled["fit"]) if pooled["fit"] else (0.0, 0.0)
    rtf_tail, _ = tail(pooled["rtf"]) if pooled["rtf"] else (0.0, 0.0)
    p50 = lambda k, scale: scale * statistics.median(pooled[k]) if pooled[k] else 0.0
    untraced_wall = statistics.median(own_wall(rep) for rep in untraced)
    layers.update({
        "estimator.fit_p50_ms": p50("fit", 1e3),
        "estimator.fit_tail_ms": 1e3 * fit_tail,
        "estimator.fit_tail_pct": fit_pct,
        "estimator.fit_samples": len(pooled["fit"]),
        "estimator.realtime_factor_p50": p50("rtf", 1.0),
        "estimator.realtime_factor_tail": rtf_tail,
        "stability.assess_p50_us": p50("assess", 1e6),
        "monitor.evaluate_p50_us": p50("evaluate", 1e6),
        "untraced_run_wall_s": untraced_wall,
        "trace_overhead_s": layers["traced_run_wall_s"] - untraced_wall,
    })
    return {name: (layers[name], unit) for name, unit in PER_LAYER_UNITS.items()}


# ---------------------------------------------------------------------------
# environment and the run


def environment():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": PINNED_ENV["OPENBLAS_NUM_THREADS"],
            "pinned_env": PINNED_ENV, "commit": commit}


def measure(workload, seed, seconds, trace, size=FULL):
    """Run one workload for about ``seconds``; return the result record."""
    if not (ROOT / "src" / "cfmonitor" / "cli.py").is_file():
        raise BenchError(f"no cfmonitor sources under {ROOT / 'src'}")
    run_dir = WORK / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    plan = prepare(workload, seed, size, run_dir)

    run_child([], False, run_dir, "warmup")  # compiles the bytecode caches
    start = time.monotonic()
    setup = [run_child([], False, run_dir, f"probe{i}")["setup_s"]
             for i in range(SETUP_PROBES)]
    reps, records, reference = [], [], None
    while True:
        traced = bool(trace) and len(reps) % 2 == 1
        rep = run_child(plan.commands, traced, run_dir, f"rep{len(reps)}")
        rep["traced"] = traced
        recs = score(plan, rep, reference)
        reference = reference or [c["digest"] for c in recs]
        clear_outputs(plan)
        reps.append(rep)
        records.append(recs)
        setup.append(rep["setup_s"])
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS[trace] and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break

    untraced = [r for r in reps if not r["traced"]]
    metrics = end_to_end(workload, setup, untraced, records)
    layers = per_layer(workload, [r for r in reps if r["traced"]], untraced) if trace else {}
    attempted = sum(len(r) for r in records)
    failed = sum(not c["ok"] for r in records for c in r)
    digest = hashlib.sha256("".join(c["digest"] or "-" for c in records[0]).encode())
    shutil.rmtree(run_dir)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "size": asdict(size), "environment": environment(),
        "commands": plan.commands,
        "attempted": attempted, "failed": failed, "digest": digest.hexdigest(),
        "metrics": metrics, "per_layer": layers, "setup_samples": setup,
        "findings": FINDINGS,
        "repeats": [{"traced": rep["traced"], "setup_s": rep["setup_s"],
                     "peak_rss_mb": rep["peak_rss_mb"],
                     "commands": [{k: c[k] for k in ("ok", "reasons", "digest", "wall_s",
                                                     "cpu_s", "bursts_s", "probe_s", "quality")}
                                  for c in recs]}
                    for rep, recs in zip(reps, records)],
        "spans": [rep["spans"] for rep in reps if rep["traced"]],
    }


def report(result):
    """Print the metrics by name with units, then the JSON result line."""
    env = result["environment"]
    print(f"cfmonitor benchmark: workload={result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} trace={result['trace']}")
    print(f"environment: cpu={env['cpu']!r} nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} blas_threads={env['blas_threads']} "
          f"commit={env['commit']}")
    n_traced = sum(r["traced"] for r in result["repeats"])
    print(f"repetitions: {len(result['repeats']) - n_traced} untraced, {n_traced} traced; "
          f"setup samples {len(result['setup_samples'])}; commands attempted "
          f"{result['attempted']}, failed {result['failed']}")
    for rep in result["repeats"]:
        for c in rep["commands"]:
            if not c["ok"]:
                print(f"failed: {'; '.join(c['reasons'])}")
    print(f"artifact digest: sha256:{result['digest']}")
    for name, (value, unit) in {**result["metrics"], **result["per_layer"]}.items():
        print(f"{name} = {value:.6g} {unit}")
    shown = result["per_layer"] if result["trace"] else {
        k: result["metrics"][k] for k in END_TO_END_UNITS}
    print(json.dumps({
        "correct": result["failed"] == 0, "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))


def main(argv=None, size=FULL):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace, size)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(results / name, "w") as fh:
        json.dump(result, fh, indent=1)
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark at reduced size.

Usage, from the root of a source checkout:

    python3 perfbench/selftest.py

It checks that every workload prints each metric it names with a unit and
ends with a JSON line whose metrics are exactly those of BENCHMARK.json;
that a corrupted artifact, an artifact that differs between two
repetitions of one seed, a false alarm on the default drive and an
out-of-tolerance fit are each counted as a failed command in
``failed_share``; that commands shorter than the calibration period still
give a reference time; and that a missing layer boundary, or one that
records no calls, stops the traced run.  Exits 0 when every check
holds.
"""
from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import sys

import run

sys.path.insert(0, str(run.ROOT / "src"))
import child  # noqa: E402  (imports cfmonitor.cli from src/)

SMALL = run.Size(drive_iters=1000, replay_seconds=120, replay_switch=60, fit_logs=3)
# the end-to-end metrics the benchmark prints for each workload
PRINTED = {
    "default_drive": ("alert_delay_s", "false_alarm_share", "post_switch_accel_rms"),
    "long_replay": ("alert_delay_s", "false_alarm_share", "post_switch_accel_rms"),
    "offline_fit": ("fit_rel_err_K_L", "fit_rel_err_T_L", "ci_coverage"),
}
COMMON = ("run_ref_s", "run_wall_s", "setup_s", "peak_rss_mb", "failed_share")
LINE = re.compile(r"^(\S+) = (\S+) (\S+)$")


def check(cond, message, failures):
    print(("ok   " if cond else "FAIL ") + message)
    if not cond:
        failures.append(message)


def check_printed_metrics(failures):
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", workload, "--seed", "1", "--seconds", "1",
                                 "--trace", str(trace)], size=SMALL)
            lines = out.getvalue().splitlines()
            tag = f"{workload} --trace {trace}"
            check(code == 0, f"{tag}: exit code {code}", failures)
            if code != 0:
                continue
            printed = {m.group(1): m.group(3) for m in map(LINE.match, lines) if m}
            named = [*COMMON, *PRINTED[workload]]
            if trace:
                named += [m["name"] for m in bench["per_layer"]]
            absent = [name for name in named if name not in printed]
            check(not absent, f"{tag}: prints every metric with a unit {absent or ''}",
                  failures)
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}
                  and result["correct"] and result["failed"] == 0,
                  f"{tag}: JSON line is correct with no failures", failures)
            expected = {m["name"]: m["unit"]
                        for m in bench["per_layer" if trace else "end_to_end"]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected, f"{tag}: JSON metrics and units match BENCHMARK.json",
                  failures)


def failed_share(plan, rep, reference=None):
    records = run.score(plan, rep, reference)
    return run.end_to_end(plan.workload, [1.0], [rep], [records])["failed_share"][0]


def check_failures_counted(failures):
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    plan = run.prepare("default_drive", 1, SMALL, work)
    first = run.run_child(plan.commands, False, work, "a")
    reference = [c["digest"] for c in run.score(plan, first)]
    check(failed_share(plan, first) == 0.0, "clean simulate output passes", failures)
    estimates = run.ROOT / plan.outputs[0] / "estimates.jsonl"
    estimates.write_text("".join(estimates.read_text().splitlines(True)[:-1]))
    check(failed_share(plan, first) == 1.0, "truncated estimates.jsonl is a failure",
          failures)

    second = run.run_child(plan.commands, False, work, "b")
    check(failed_share(plan, second, reference) == 0.0,
          "a repetition of the same seed reproduces the artifacts", failures)
    out = run.ROOT / plan.outputs[0]
    decisions = [json.loads(line) for line in (out / "decisions.jsonl").open()]
    summary = json.loads((out / "summary.json").read_text())
    decisions[0]["anomaly"] = True  # flag the first, pre-switch window
    summary["anomalies"].insert(0, decisions[0]["t_end"])
    (out / "decisions.jsonl").write_text("".join(json.dumps(d) + "\n" for d in decisions))
    (out / "summary.json").write_text(json.dumps(summary))
    records = run.score(plan, second)
    check(not records[0]["ok"] and any("pre-switch" in r for r in records[0]["reasons"]),
          "a flagged pre-switch window on the default drive is a failure", failures)
    run.clear_outputs(plan)

    second = run.run_child(plan.commands, False, work, "b")
    follower = out / "follower.csv"
    text = follower.read_text()
    i = text.index("\n", text.index("\n") + 1) - 1  # last digit of the first data row
    follower.write_text(text[:i] + ("1" if text[i] != "1" else "2") + text[i + 1:])
    check(failed_share(plan, second, reference) == 1.0,
          "a changed follower.csv value is a failure (digest mismatch)", failures)
    run.clear_outputs(plan)

    plan = run.prepare("offline_fit", 1, SMALL, work)
    rep = run.run_child(plan.commands, False, work, "c")
    check(failed_share(plan, rep) == 0.0, "clean estimates pass", failures)
    path = run.ROOT / plan.outputs[0]
    est = json.loads(path.read_text())
    est["posterior_mean"]["K_L"] *= 1 + 2 * run.FIT_TOLERANCE["K_L"]
    path.write_text(json.dumps(est))
    check(failed_share(plan, rep) == 1 / len(plan.commands),
          "an out-of-tolerance fit is a failure", failures)
    shutil.rmtree(work)


def check_short_commands(failures):
    """Every command here ends well inside one calibration period, so no
    periodic burst fires; the bracketing bursts must still time the speed."""
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rep = run.run_child([["stability"]] * 3, False, work, "short")
    shutil.rmtree(work)
    short = all(c["exit"] == 0 and c["wall_s"] < child.CALIBRATION_PERIOD_S
                for c in rep["commands"])
    check(short, "stability commands run shorter than the calibration period", failures)
    try:
        ok = run.ref_time(rep) > 0
    except run.BenchError:
        ok = False
    check(ok, "commands shorter than the calibration period give a reference time",
          failures)


def check_missing_boundaries(failures):
    tracer = child.Tracer()
    child.BOUNDARIES.insert(0, ("cfmonitor.cli", "_no_such_boundary", "cli.none", None))
    try:
        tracer.install()
        raised = False
    except LookupError:
        raised = True
    finally:
        child.BOUNDARIES.pop(0)
    check(raised, "a missing boundary stops the traced run", failures)
    spans = [["cli.main", 0, None, 0, 0, 10, {}]]
    try:
        run.per_layer("offline_fit", [{"spans": spans}],
                      [{"commands": [{"wall_s": 1.0, "probe_s": 0.0}]}])
        raised = False
    except run.BenchError:
        raised = True
    check(raised, "a workload that records no calls at a boundary fails", failures)


def main():
    failures = []
    check_printed_metrics(failures)
    check_failures_counted(failures)
    check_short_commands(failures)
    check_missing_boundaries(failures)
    print(f"{len(failures)} self-test failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

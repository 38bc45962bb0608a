"""One benchmark repetition in a fresh interpreter.

Usage: python3 perfbench/child.py JOB.json

The job file names the cfmonitor command lines to run, one after the
other, through ``cfmonitor.cli.main``, whether to trace, and where to
write the result.  The first statements import ``cfmonitor.cli`` and read
the monotonic clock, so the parent can time set-up from the moment it
started this interpreter.

Without tracing, a Calibration probe times a fixed burst of work right
before and right after each command, and interrupts the command every 50 ms
of wall time to time another, so the parent can express the command's time
at a reference machine speed.  With tracing on, there is no
probe; the layer boundaries listed in BOUNDARIES are wrapped where their
callers look them up, and a boundary that no longer exists ends the child
with exit code 3 before any command runs.
"""
import time

import cfmonitor.cli as cli

IMPORTED = time.monotonic()

import importlib
import json
import os
import resource
import signal
import sys
import traceback
from time import perf_counter_ns

import numpy as np

EXIT_MISSING_BOUNDARY = 3
CALIBRATION_PERIOD_S = 0.05
# bursts timed right before and right after each command, so that every
# command gives speed samples however short it is
BRACKET_BURSTS = 2


def _sgld_counts(args, kwargs, est):
    hyper = args[2] if len(args) > 2 else kwargs["hyper"]
    return {"iters": hyper.K_iters, "low_confidence": bool(est.low_confidence)}


def _batch_counts(args, kwargs, batch):
    return {"rows": len(batch), "window_s": batch.t_end - batch.t_start}


def _evaluate_counts(args, kwargs, decision):
    estimate = args[0] if args else kwargs["estimate"]
    return {"anomaly": bool(decision.anomaly),
            "low_confidence": bool(estimate.low_confidence)}


def _loop_counts(args, kwargs, report):
    return {"windows": len(report.windows),
            "applied": sum(rec.applied for rec in report.windows)}


def _no_counts(args, kwargs, result):
    return {}


# (module, attribute, span name, counts taken from the call).  Names that
# cli imports with ``from ... import`` are wrapped on cfmonitor.cli, the
# rest on the module whose attribute the caller reads.
BOUNDARIES = [
    ("cfmonitor.cli", "run_closed_loop", "harness.run_closed_loop", _loop_counts),
    ("cfmonitor.cli", "emit_outputs", "harness.emit_outputs",
     lambda a, k, paths: {"bytes": sum(os.path.getsize(p) for p in paths)}),
    ("cfmonitor.cli", "sgld_run", "estimator.sgld_run", _sgld_counts),
    ("cfmonitor.cli", "batch_from_series", "estimator.batch_from_series", _batch_counts),
    ("cfmonitor.cli", "parse_config_file", "config.parse_config_file", _no_counts),
    ("cfmonitor.cli", "scenario_from_config", "config.scenario_from_config", _no_counts),
    ("cfmonitor.cli", "_read_log_csv", "cli.read_log_csv",
     lambda a, k, res: {"rows": len(res[0])}),
    ("cfmonitor.harness", "sgld_run", "estimator.sgld_run", _sgld_counts),
    ("cfmonitor.harness", "batch_from_series", "estimator.batch_from_series", _batch_counts),
    ("cfmonitor.harness", "load_leader", "harness.load_leader",
     lambda a, k, traj: {"rows": len(traj)}),
    ("cfmonitor.harness", "synthetic_leader", "harness.synthetic_leader", _no_counts),
    ("cfmonitor.plant", "_simulate_inner", "plant.simulate_inner",
     lambda a, k, res: {"steps": len(res)}),
    ("cfmonitor.monitor", "evaluate", "monitor.evaluate", _evaluate_counts),
    ("cfmonitor.stability", "assess", "stability.assess", _no_counts),
]


class Tracer:
    """Records spans in memory: [name, id, parent id, command id, start ns,
    end ns, counts].  Single-threaded, so a stack gives each span's parent."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.command = None

    def install(self):
        for module_name, attr, span_name, counts in BOUNDARIES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                raise LookupError(f"boundary {module_name}.{attr} is missing")
            setattr(module, attr, self._wrap(fn, span_name, counts))

    def _wrap(self, fn, name, counts):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counts)
        return traced

    def call(self, name, fn, args, kwargs, counts=_no_counts):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = [name, sid, parent, self.command, start, end, {"raised": 1}]
        self.spans[sid][6] = counts(args, kwargs, result)
        return result


class Calibration:
    """Times a fixed burst of work like cfmonitor's: 2-vector numpy steps as
    in the sampler and plant loops, float formatting as in the artifact
    writers, and a sweep over a 1 MB array.  The host's CPU speed swings
    within seconds, so the bursts sample it around and throughout a command:
    BRACKET_BURSTS right before and right after it (``bracket``), and while
    active one on a SIGALRM every CALIBRATION_PERIOD_S of wall time.  The
    mean of all bursts is the command's speed reference; the periodic ones
    ran inside the command, and their sum (``inside_s``) is taken off its
    wall time.  Python runs the handler between bytecodes, so the command's
    results are unchanged."""

    def __init__(self):
        self.bursts = []
        self.inside_s = 0.0
        self._array = np.random.default_rng(1).standard_normal(1 << 17)
        self._floats = self._array[:300].tolist()
        self._burst()  # untimed: the first burst of a process pays for warm-up

    def _burst(self):
        start = perf_counter_ns()
        rng = np.random.default_rng(0)
        x, acc = np.zeros(2), 0.0
        for _ in range(120):
            x = x + 1e-3 * rng.standard_normal(2)
            acc += float(x @ x)
        acc += len(",".join([repr(v) for v in self._floats])) + float(self._array.sum())
        return (perf_counter_ns() - start) / 1e9

    def bracket(self):
        self.bursts += [self._burst() for _ in range(BRACKET_BURSTS)]

    def _on_alarm(self, signum, frame):
        duration = self._burst()
        self.bursts.append(duration)
        self.inside_s += duration

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD_S, CALIBRATION_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _run_command(argv, tracer, calibration):
    """Run one command line; return (exit code or error text, wall seconds,
    CPU seconds of this process)."""
    if tracer is None:
        calibration.bracket()
    start, cpu_start = perf_counter_ns(), time.process_time()
    try:
        if tracer is not None:
            code = tracer.call("cli.main", cli.main, (argv,), {})
        else:
            with calibration:
                code = cli.main(argv)
    except Exception:
        code = "raised: " + traceback.format_exc(limit=3)
    except SystemExit as exc:  # argparse rejects a command line this way
        code = f"exit {exc.code}"
    wall, cpu = (perf_counter_ns() - start) / 1e9, time.process_time() - cpu_start
    if tracer is None:
        calibration.bracket()
    return code, wall, cpu


def main(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        try:
            tracer.install()
        except LookupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_MISSING_BOUNDARY
    commands = []
    for cmd_id, argv in enumerate(job["commands"]):
        if tracer is not None:
            tracer.command = cmd_id
        calibration = Calibration()
        code, wall, cpu = _run_command(argv, tracer, calibration)
        commands.append({"argv": argv, "exit": code, "wall_s": wall, "cpu_s": cpu,
                         "bursts_s": calibration.bursts, "probe_s": calibration.inside_s})
    result = {
        "imported_monotonic": IMPORTED,
        "module_file": os.path.abspath(cli.__file__),
        "commands": commands,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "spans": None if tracer is None else tracer.spans,
    }
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

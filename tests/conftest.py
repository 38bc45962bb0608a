"""Fixtures for the forked helper of `cfmonitor.harness`: the float-table
writer's formatter.  Also the ``thorough`` hypothesis profile, for
``--hypothesis-profile thorough``: many more examples for the property tests
that leave their example count to the profile (the float kernel's oracle
tests among them)."""
import os
import sys

import pytest
from hypothesis import settings

from cfmonitor import harness

settings.register_profile("thorough", max_examples=5000)


@pytest.fixture
def forks(monkeypatch):
    """Two usable CPUs whatever the affinity, and a list that gets, per fork
    the harness makes, the name of the harness function that asked for it
    (``write_csv_columns``)."""
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    calls = []
    real_fork = os.fork

    def fork():
        frame = sys._getframe(1)
        # past the shared helper and contextlib's frames
        while (frame.f_code.co_filename != harness.__file__
               or frame.f_code.co_name == "_forked"):
            frame = frame.f_back
        calls.append(frame.f_code.co_name)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return calls


# this thread's CPU set as the tests start
CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


@pytest.fixture(autouse=True)
def cpus_kept():
    """Every test, with the fixtures it sets up (a module's, too), leaves
    this thread's CPU set as the tests started with it.  A set left changed
    is put back, so the tests after the one that changed it still run, and
    check, on the whole set."""
    yield
    if CPUS is not None:
        after = os.sched_getaffinity(0)
        os.sched_setaffinity(0, CPUS)
        assert after == CPUS


@pytest.fixture
def assert_no_children():
    """A check that this process has no child left, running or unreaped."""
    def check():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    return check

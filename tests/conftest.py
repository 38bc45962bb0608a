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
    """A helper wherever the platform can fork, however many CPUs are usable,
    and a list that gets, per fork the harness makes, the name of the
    harness function that asked for it (``write_csv_columns``)."""
    monkeypatch.setattr(harness, "_can_offload", lambda: hasattr(os, "fork"))
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


@pytest.fixture
def assert_no_children():
    """A check that this process has no child left, running or unreaped."""
    def check():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    return check

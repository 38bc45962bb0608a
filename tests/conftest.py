"""Fixtures for the forked helper of `cfmonitor.csvio`, the float-table
writer's formatter: a count of its forks, and a lower split for small
tables.  Also the ``thorough`` hypothesis profile, for ``--hypothesis-profile
thorough``: many more examples for the property tests that leave their
example count to the profile (the float kernel's oracle tests among them)."""
import os

import pytest
from hypothesis import settings

from cfmonitor import csvio

settings.register_profile("thorough", max_examples=5000)

# a split below the writer's own, for tables of a few hundred rows
SMALL_SPLIT = 512


@pytest.fixture
def forks(monkeypatch):
    """A helper wherever the platform can fork, however many CPUs are usable,
    and a list that gets the process id of each child forked (the CSV
    writer's helper is the one fork site)."""
    monkeypatch.setattr(csvio, "_can_offload", lambda: hasattr(os, "fork"))
    pids = []
    real_fork = os.fork

    def fork():
        pids.append(real_fork())
        return pids[-1]

    monkeypatch.setattr(os, "fork", fork)
    return pids


@pytest.fixture
def small_split(monkeypatch):
    """The writer splits tables of more than `SMALL_SPLIT` rows."""
    monkeypatch.setattr(csvio, "_SPLIT_ROWS", SMALL_SPLIT)
    return SMALL_SPLIT


@pytest.fixture
def assert_no_children():
    """A check that this process has no child left, running or unreaped."""
    def check():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    return check

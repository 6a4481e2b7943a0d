"""Shared pytest plumbing: the acceptance suite registers one line per
criterion here and the terminal summary replays them after capture ends.

Hypothesis draws the same examples on every run and keeps no example
database, so runs are reproducible. Its remaining storage (a cache of
constants read from the source) goes to a temporary directory that is
removed at the end of the session, so a run leaves no `.hypothesis/` behind.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("recolat", derandomize=True, database=None)
settings.load_profile("recolat")

CRITERION_LINES: list[str] = []


def pytest_configure(config):
    home = tempfile.TemporaryDirectory(prefix="recolat-hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)

"""Shared fixtures: each `verify` suite runs at most once per test session.

The suite rows of `offsetwords.verify` are the one definition of every
cross-route check.  Tests read those rows through `suite_runs` instead of
re-running the loops, and budget the suites' recorded time.
"""

import time

import pytest

from offsetwords import verify


class SuiteRuns:
    """The rows and elapsed time of each verify suite, run on first use."""

    def __init__(self):
        self._suites = dict(verify.SUITES)
        self._runs = {}

    def _run(self, suite: str) -> tuple:
        if suite not in self._runs:
            start = time.perf_counter()
            rows = self._suites[suite]()
            self._runs[suite] = (rows, time.perf_counter() - start)
        return self._runs[suite]

    def all_rows(self, suite: str) -> list:
        return self._run(suite)[0]

    def check(self, suite: str, *needles: str) -> list:
        """For each needle, the one row of `suite` whose name contains it;
        every picked row must have passed."""
        picked = []
        for needle in needles:
            hits = [row for row in self.all_rows(suite) if needle in row.name]
            assert len(hits) == 1, f"{needle!r} matches {len(hits)} rows of suite {suite!r}"
            assert hits[0].passed, hits[0]
            picked.append(hits[0])
        return picked

    def elapsed(self, *suites: str) -> float:
        return sum(self._run(suite)[1] for suite in suites)


@pytest.fixture(scope="session")
def suite_runs():
    return SuiteRuns()

"""Shared fixtures.

The acceptance criteria are the slowest part of the suite (criterion 2, the
min-form expansion audit, takes seconds), and both tests/test_acceptance.py
and the full ``liprec selftest`` runs in tests/test_cli.py need all eight.
Each criterion is therefore run once per session, on first use, and every
test asserts on that one result.

The worker processes of ``core._map_blocks`` have memory of their own, so
a test that observes them has them append lines to a file
(``process_log``) and reads the file back once the call has returned.
"""

import os

import pytest

from liprec import acceptance


@pytest.fixture(scope="session")
def criterion_result():
    """criterion_result(runner) -> that runner's CriterionResult, computed once."""
    results = {}

    def result(runner):
        if runner not in results:
            results[runner] = runner()
        return results[runner]

    return result


@pytest.fixture
def cached_criteria(monkeypatch, criterion_result):
    """Make ``acceptance.ALL_CRITERIA`` return the session's results.

    ``liprec selftest`` still renders, filters, corrupts and writes them;
    only the measurement is shared.
    """
    cached = tuple((task, lambda runner=runner: criterion_result(runner))
                   for task, runner in acceptance.ALL_CRITERIA)
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", cached)


class ProcessLog:
    """A file that any process appends tagged lines to; read by tag."""

    def __init__(self, path):
        self.path = path

    def append(self, tag, *fields) -> None:
        # One write of one short line to an O_APPEND file: lines of
        # concurrent processes never interleave.
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o600)
        try:
            os.write(fd, (" ".join(map(str, (tag, *fields))) + "\n").encode())
        finally:
            os.close(fd)

    def read(self, tag) -> list:
        """The fields of every line with this tag, as strings, in order."""
        if not self.path.exists():
            return []
        lines = [line.split() for line in self.path.read_text().splitlines()]
        return [tuple(fields) for first, *fields in lines if first == tag]


@pytest.fixture
def process_log(tmp_path):
    return ProcessLog(tmp_path / "process.log")


@pytest.fixture
def no_child_left():
    """A check that this process has no child left, running or unreaped."""
    def check():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    return check

"""Shared fixtures.

The acceptance criteria are the slowest part of the suite (criterion 2, the
min-form expansion audit, takes seconds), and both tests/test_acceptance.py
and the full ``liprec selftest`` runs in tests/test_cli.py need all eight.
Each criterion is therefore run once per session, on first use, and every
test asserts on that one result.
"""

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

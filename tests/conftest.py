"""Settings shared by every test.

A solver regression that cycles stops at the package's own
`simplex.PIVOT_LIMIT`, 20,000 pivots, about 20 times the most that any
in-process solve of the suite takes (989, on a seeded subspace of
`test_certificate.py`), so no test caps it.  A test that needs another
limit sets it with `monkeypatch`, as `pivot_limits.fewest_pivots` does, and
a test of the Sigma levels' check limit sets `zerosum.CHECK_LIMIT` the same
way.

The float oracle's budget is two module constants as well,
`minproj.ORACLE_RESTARTS` and `minproj.ORACLE_ITERATIONS`; a test that
needs another budget sets them through the `oracle_budget` fixture.
"""

import pytest

from projconst import minproj


@pytest.fixture
def oracle_budget(monkeypatch):
    """A setter of the oracle's restarts and iterations for one test."""
    def set_budget(restarts=minproj.ORACLE_RESTARTS, iterations=minproj.ORACLE_ITERATIONS):
        monkeypatch.setattr(minproj, "ORACLE_RESTARTS", restarts)
        monkeypatch.setattr(minproj, "ORACLE_ITERATIONS", iterations)
    return set_budget

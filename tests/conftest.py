"""Settings shared by every test.

A solver regression that cycles would run until `simplex.PIVOT_LIMIT`
(2,000,000 pivots) stops it, for hours.  So every test runs with the limit
capped at `TEST_PIVOT_LIMIT`, about 20 times the most pivots that any
in-process solve of the suite takes (989, on a seeded subspace of
`test_certificate.py`; Sigma_3(ker_3) takes 454).  A test that sets its own
limit, as `pivot_limits.fewest_pivots` does, overrides the cap while it
runs.  Programs run in a subprocess, such as the golden CLI runs, keep the
package's limit.
"""

import pytest

from projconst import simplex

TEST_PIVOT_LIMIT = 20_000


@pytest.fixture(autouse=True)
def cap_pivot_limit(monkeypatch):
    monkeypatch.setattr(simplex, "PIVOT_LIMIT", TEST_PIVOT_LIMIT)

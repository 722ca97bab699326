"""Pivot limits that let one LP solve and stop the next, for inconclusive-path tests."""

from projconst import simplex
from projconst.minproj import projection_constant


def fewest_pivots(monkeypatch, space) -> int:
    """The smallest pivot limit under which the LP of `space` still solves.

    Leaves `simplex.PIVOT_LIMIT` patched to that limit.
    """
    for limit in range(1, 1000):
        monkeypatch.setattr(simplex, "PIVOT_LIMIT", limit)
        try:
            projection_constant(space)
            return limit
        except simplex.PivotLimitExceeded:
            pass
    raise AssertionError("no pivot limit below 1000 suffices")

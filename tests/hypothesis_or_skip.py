"""hypothesis's `given`, `settings`, `assume` and `st`, or stand-ins that skip.

A module that imports these from here runs its exact tests on an
interpreter without hypothesis: its strategies are still defined at import
time, on a stand-in that takes any call or attribute, and each `@given`
test is skipped on its own instead of the whole module.
"""

import pytest

try:
    from hypothesis import assume, given, settings
    from hypothesis import strategies as st
except ImportError:
    class _Strategy:
        """Stands for any strategy, strategy module or decorator."""

        def __getattr__(self, name):
            return self

        def __call__(self, *args, **kwargs):
            return self

    st = _Strategy()

    def assume(condition):
        return True

    def settings(*args, **kwargs):
        return lambda test: test

    def given(*args, **kwargs):
        def skipped(*args, **kwargs):
            pytest.skip("needs hypothesis")
        return lambda test: skipped

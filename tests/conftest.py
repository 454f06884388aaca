"""Fixtures shared by the test modules."""

import sys

import pytest

from recdom import geometry


@pytest.fixture
def fraction_solves(monkeypatch):
    """The calls of the Fraction solvers ``geometry.rref`` and
    ``geometry.solve_exact`` made during the test, by name, counted in every
    recdom module that binds them."""
    calls = []
    for name in ("rref", "solve_exact"):
        original = getattr(geometry, name)

        def counting(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("recdom") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    return calls

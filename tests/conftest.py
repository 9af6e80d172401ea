"""Shared fixtures."""

import numpy as np
import pytest


def _recorded(monkeypatch, names) -> list:
    """The shape of every argument of the named ``np.linalg`` solvers, in
    call order, for as long as the test runs."""
    shapes = []
    for name in names:
        solve = getattr(np.linalg, name)

        def counting(a, *args, _solve=solve, **kwargs):
            shapes.append(np.shape(a))
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return shapes


@pytest.fixture()
def eigensolves(monkeypatch):
    """The shape of every ``np.linalg.eigh`` and ``np.linalg.eigvalsh``
    argument, in call order, for as long as the test runs."""
    return _recorded(monkeypatch, ("eigh", "eigvalsh"))


@pytest.fixture()
def svds(monkeypatch):
    """The shape of every ``np.linalg.svd`` argument, in call order."""
    return _recorded(monkeypatch, ("svd",))

"""Shared fixtures."""

import numpy as np
import pytest


@pytest.fixture()
def eigensolves(monkeypatch):
    """The shape of every ``np.linalg.eigh`` and ``np.linalg.eigvalsh``
    argument, in call order, for as long as the test runs."""
    shapes = []
    for name in ("eigh", "eigvalsh"):
        solve = getattr(np.linalg, name)

        def counting(a, *args, _solve=solve, **kwargs):
            shapes.append(np.shape(a))
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return shapes

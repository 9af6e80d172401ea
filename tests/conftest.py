"""Shared fixtures."""

import types

import numpy as np
import pytest

from qoneshot import qcore


def _recorded(monkeypatch, owner, names) -> list:
    """The shape of the first argument of every call to the named functions
    of ``owner``, in call order, for as long as the test runs."""
    shapes = []
    for name in names:
        solve = getattr(owner, name)

        def counting(a, *args, _solve=solve, **kwargs):
            shapes.append(np.shape(a))
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return shapes


@pytest.fixture()
def eigensolves(monkeypatch):
    """The shape of every matrix (or stack) eigensolved through qcore's one
    entry point, ``_eigh`` or ``_eigvalsh``, in call order, for as long as
    the test runs.  The kernels are recorded where that entry point reads
    them, so every module's eigensolves count, wherever it imported
    ``_eigh`` from."""
    kernels = types.SimpleNamespace(
        eigh_lo=qcore._umath_linalg.eigh_lo, eigvalsh_lo=qcore._umath_linalg.eigvalsh_lo
    )
    monkeypatch.setattr(qcore, "_umath_linalg", kernels)
    return _recorded(monkeypatch, kernels, ("eigh_lo", "eigvalsh_lo"))


@pytest.fixture()
def svds(monkeypatch):
    """The shape of every ``np.linalg.svd`` argument, in call order."""
    return _recorded(monkeypatch, np.linalg, ("svd",))

"""Fixtures shared by the test modules."""

import pytest

import divalg.closure as closure_mod
from divalg.linalg import basis_of


@pytest.fixture
def plain_extraction(monkeypatch):
    """Check every call of ``closure.extract_fibers`` against plain
    elimination: each fiber basis it returns must equal ``basis_of`` of that
    fiber's rows.  The count of fibers checked is returned."""
    counts = {"fibers": 0}
    extract = closure_mod.extract_fibers

    def checked(state, target):
        bases = extract(state, target)
        for n, b in bases.items():
            rows = state.fibers[state.deg_index[n]]
            assert b == basis_of(rows, state.dim), n
            counts["fibers"] += 1
        return bases

    monkeypatch.setattr(closure_mod, "extract_fibers", checked)
    return counts

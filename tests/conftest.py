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


@pytest.fixture
def q_engine(monkeypatch):
    """The engine path of ``closure_q``: ``_close`` with
    ``qder_generators``, ``classify_q`` and ``radical_bound``, which
    ``closure_q`` runs wherever ``off_radical_closure`` does not apply and
    which the tests keep as the reference for that route.  It is returned,
    and patched in for ``cli.closure_q`` so that the CLI runs its q-closures
    on it.  The three functions are read from ``divalg.qder`` at each call,
    so a test may patch them."""
    import divalg.qder as qder_mod

    def engine(q, params, seeds, gen_radius, working, target, max_iters, algebra):
        return closure_mod._close(
            params, seeds, working, target, max_iters,
            lambda: qder_mod.qder_generators(q, params, gen_radius, algebra),
            lambda result: qder_mod.classify_q(result, q, params),
            qder_mod.radical_bound(q, params, seeds))

    monkeypatch.setattr("divalg.cli.closure_q", engine)
    return engine

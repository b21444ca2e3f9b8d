"""The q side on rational roots against the all-Cyc path.

``scalars.root`` gives zeta_N^e as the int 1 or -1 where it is rational, so
at N <= 2 the brackets, the inner action and the torus suite run on ints.
Each test here runs the same seeded work twice: as it is, and with every
``root`` the q side calls patched to return ``Cyc.zeta(N, e)``, the path on
which every root is a Cyc.  Suite summaries must be identical and brackets
and actions equal as values.
"""

import sys
from fractions import Fraction as F
from random import Random

import pytest

import divalg.qtorus
import divalg.verify
from divalg.modules import GradedVec, ModuleParams
from divalg.qder import QDerElem, act_q, bracket_qder
from divalg.qtorus import QMatrix, _zeta_difference, block_normal_q, block_structure
from divalg.reps import RepHandle
from divalg.scalars import Cyc, root
from divalg.verify import (
    equivariance_suite,
    lie_suite_q,
    module_suite_q,
    qtorus_suite,
    sample_graded,
    sample_qder,
)

QS = {
    "22": block_normal_q((2, 2)),
    "221": block_normal_q((2, 2, 1)),
    "33": block_normal_q((3, 3)),
    "44": block_normal_q((4, 4)),
    # every pair of coordinates anticommutes; sigma is not 1 on the radical
    "anticommuting": QMatrix.from_exps(2, [[0, 1, 1], [1, 0, 1], [1, 1, 0]]),
    # sigma takes every cube root of unity on the radical, so outer brackets
    # have cyclotomic coordinates
    "mixed3": QMatrix.from_exps(3, [[0, 1, 1], [2, 0, 1], [2, 2, 0]]),
}


def params_for(q: QMatrix) -> ModuleParams:
    rep = RepHandle.exterior(3, 2) if q.d == 3 else RepHandle.natural(q.d)
    return ModuleParams(q.d, (F(1, 2), F(-1, 3), F(0))[:q.d], rep)


def on_both_paths(monkeypatch, work):
    """(work() on rational roots, work() with every root the q side calls
    returning Cyc.zeta).  The commutator cache is emptied around the second
    run, so neither path sees the other's scalars."""
    callers = [m for name, m in list(sys.modules.items())
               if name.startswith("divalg.") and getattr(m, "root", None) is root]
    assert divalg.qtorus in callers and divalg.verify in callers
    _zeta_difference.cache_clear()
    fast = work()
    _zeta_difference.cache_clear()
    try:
        with monkeypatch.context() as patch:
            for module in callers:
                patch.setattr(module, "root", lambda N, e: Cyc.zeta(N, e))
            reference = work()
    finally:
        _zeta_difference.cache_clear()
    return fast, reference


def scalars_of(value):
    """Every inner coefficient and outer coordinate of a QDerElem, or every
    coordinate of a GradedVec."""
    if isinstance(value, QDerElem):
        return list(value.inner.values()) + [c for u in value.outer.terms.values() for c in u]
    assert isinstance(value, GradedVec)
    return [c for coords in value.fibers.values() for c in coords]


@pytest.mark.parametrize("q", QS.values(), ids=QS.keys())
def test_suites_match_the_all_cyc_path(monkeypatch, q):
    params = params_for(q)

    def work():
        out = [lie_suite_q(q, algebra, 6, Random(31)) for algebra in ("Der", "Lq", "Lqhat")]
        out.append(module_suite_q(q, params, "Lqhat", 8, Random(32)))
        out.append(qtorus_suite(q, 30, Random(33)))
        if block_structure(q) is not None:
            out.append(equivariance_suite(q, params, 8, Random(34)))
        return out

    fast, reference = on_both_paths(monkeypatch, work)
    assert fast == reference
    assert all(s["violations"] == 0 for s in fast)


@pytest.mark.parametrize("q", QS.values(), ids=QS.keys())
def test_brackets_and_actions_match_the_all_cyc_path(monkeypatch, q):
    params = params_for(q)

    def work():
        rng = Random(35)
        out = []
        for _ in range(12):
            x, y = sample_qder(rng, q, "Der"), sample_qder(rng, q, "Lqhat")
            v = sample_graded(rng, params)
            xy = bracket_qder(q, x, y)
            out += [xy, bracket_qder(q, x, x + y), act_q(q, x, v), act_q(q, xy, v)]
        return out

    fast, reference = on_both_paths(monkeypatch, work)
    assert len(fast) == len(reference)
    assert all(a == b for a, b in zip(fast, reference))
    # the values are not all zero, so the comparison has something to compare
    assert sum(not a.is_zero() for a in fast) > len(fast) // 2
    values = [c for a in fast for c in scalars_of(a)]
    assert not any(isinstance(c, float) for c in values)
    if q.N <= 2:
        # every root is rational, so no Cyc is built
        assert all(type(c) in (int, F) for c in values)
    else:
        assert any(isinstance(c, Cyc) for c in values)
    if q is QS["mixed3"]:
        assert any(isinstance(c, Cyc) for a in fast if isinstance(a, QDerElem)
                   for u in a.outer.terms.values() for c in u)

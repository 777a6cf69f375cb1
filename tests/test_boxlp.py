import numpy as np
import pytest
from scipy.optimize import linprog

from kendall_codes.boxlp import BoxSimplex
from kendall_codes.ilp import build_coset_ilp


def _root_box(n, shape):
    """The coset model's box LP at the tree's root: BoxSimplex, b, l, u."""
    m = build_coset_ilp(n, shape)
    b = np.full(m.dim, float(m.rhs))
    u = np.array([m.rhs // d for d in m.matrix.diagonal().tolist()], dtype=float)
    return m, BoxSimplex(m.matrix, b, np.ones(m.dim)), b, np.zeros(m.dim), u


def _reference(mat, b, l, u) -> float:
    res = linprog(-np.ones(mat.shape[1]), A_ub=mat, b_ub=b,
                  bounds=np.column_stack([l, u]), method="highs")
    assert res.status == 0
    return -res.fun


def _check(mat, b, l, u, sol):
    """The solve matches scipy's optimum, its point lies in the LP, and its
    duals are >= 0 and bound its value by weak duality."""
    x, y, value, _warm, _iters = sol
    scale = max(1.0, abs(value))
    assert value == pytest.approx(_reference(mat, b, l, u), rel=1e-9, abs=1e-9)
    assert value == pytest.approx(x.sum(), rel=1e-9)
    assert (x >= l - 1e-7 * scale).all() and (x <= u + 1e-7 * scale).all()
    assert (mat @ x <= b + 1e-7 * scale).all()
    assert (y >= 0).all()
    d = 1.0 - y @ mat
    dual_bound = y @ b + np.where(d > 0, d * u, d * l).sum()
    assert dual_bound >= value - 1e-7 * scale
    assert dual_bound == pytest.approx(value, rel=1e-7)


@pytest.mark.parametrize("n,shape", [
    (4, (3, 1)), (5, (2, 2, 1)), (5, (3, 1, 1)), (7, (4, 3)), (7, (5, 2)),
    # dim 360: 1052 pivots from cold, above any fixed cap of 600
    (6, (2, 1, 1, 1, 1))])
def test_cold_and_warm_solves_match_scipy(n, shape):
    m, box, b, l, u = _root_box(n, shape)
    cold = box.solve(l, u)
    assert cold is not None
    assert cold[4] <= 8 * m.dim
    _check(m.matrix, b, l, u, cold)
    # warm re-solve after tightening the bound of the largest coordinate
    j = int(np.argmax(cold[0]))
    u2 = u.copy()
    u2[j] = np.floor(cold[0][j] / 2)
    warm = box.solve(l, u2, warm=cold[3])
    assert warm is not None
    _check(m.matrix, b, l, u2, warm)
    assert warm[2] <= cold[2] + 1e-9


def test_a_solve_that_runs_past_its_cap_fails():
    _m, box, _b, l, u = _root_box(7, (4, 3))
    assert box.solve(l, u)[4] > 1
    box.max_iter = 1
    assert box.solve(l, u) is None

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
    return m, BoxSimplex(m.matrix, b), b, np.zeros(m.dim), u


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


_SHAPES = [(4, (3, 1)), (5, (2, 2, 1)), (5, (3, 1, 1)), (7, (4, 3)), (7, (5, 2)),
           # dim 360: 1052 pivots from cold, above any fixed cap of 600
           (6, (2, 1, 1, 1, 1))]


@pytest.mark.parametrize("n,shape", _SHAPES)
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


@pytest.mark.parametrize("n,shape", [(5, (3, 2)), (7, (4, 3)), (6, (2, 2, 2))])
def test_a_feasible_upper_corner_is_optimal_from_cold(n, shape):
    # rows sum to n, so x = q.1 with q = rhs // n is feasible; the cold start
    # puts every structural there, dual feasible, so no pivot is needed
    m, box, _b, l, _u = _root_box(n, shape)
    q = m.rhs // n
    x, _y, value, _warm, iters = box.solve(l, np.full(m.dim, float(q)))
    assert iters == 0
    assert value == m.dim * q
    assert np.array_equal(x, np.full(m.dim, float(q)))


def test_a_solve_that_runs_past_its_cap_fails():
    _m, box, _b, l, u = _root_box(7, (4, 3))
    assert box.solve(l, u)[4] > 1
    box.max_iter = 1
    assert box.solve(l, u) is None


def _branch_path(box, l, u, steps):
    """Warm re-solves down one branch path from the cold root: each step
    caps the most fractional coordinate at its floor (the largest
    coordinate once the point is integral).  Returns the solves and the
    boxes they were made on."""
    sols = [box.solve(l, u)]
    boxes = [(l, u)]
    for _ in range(steps):
        x = sols[-1][0]
        frac = np.abs(x - np.rint(x))
        j = int(np.argmax(frac)) if frac.max() > 1e-7 else int(np.argmax(x))
        u = u.copy()
        u[j] = np.floor(x[j]) if frac[j] > 1e-7 else max(x[j] - 1.0, 0.0)
        sol = box.solve(l, u, warm=sols[-1][3])
        if sol is None:
            break
        sols.append(sol)
        boxes.append((l, u))
    return sols, boxes


@pytest.mark.parametrize("n,shape", _SHAPES)
def test_a_warm_start_is_never_written(n, shape):
    _m, box, _b, l, u = _root_box(n, shape)
    cold = box.solve(l, u)
    warm = cold[3]
    before = tuple(a.copy() for a in warm)
    u2 = u.copy()
    j = int(np.argmax(cold[0]))
    u2[j] = np.floor(cold[0][j] / 2)
    first = box.solve(l, u2, warm=warm)
    second = box.solve(l, u2, warm=warm)
    assert first[4] > 0  # the re-solve pivots, so it updates a B^-1
    for a, b in zip(warm, before):
        assert np.array_equal(a, b)
    assert first[2] == second[2]
    assert np.array_equal(first[0], second[0])


@pytest.mark.parametrize("n,shape", _SHAPES)
def test_the_carried_inverse_stays_the_inverse_of_the_basis(n, shape):
    _m, box, _b, l, u = _root_box(n, shape)
    sols, _ = _branch_path(box, l, u, 12)
    assert len(sols) > 3
    for sol in sols:
        basis, _at_upper, binv = sol[3]
        err = np.abs(binv @ box.G[:, basis] - np.eye(box.m)).max()
        assert err < 1e-8


@pytest.mark.parametrize("n,shape", _SHAPES)
def test_a_carried_inverse_and_a_refactored_one_give_the_same_value(n, shape):
    m, box, b, l, u = _root_box(n, shape)
    sols, boxes = _branch_path(box, l, u, 12)
    # re-solve each step from its parent's basis, once with the parent's
    # B^-1 and once refactoring it
    for parent, (lc, uc) in zip(sols, boxes[1:]):
        basis, at_upper, _binv = parent[3]
        carried = box.solve(lc, uc, warm=parent[3])
        refactored = box.solve(lc, uc, warm=(basis, at_upper, None))
        assert carried is not None and refactored is not None
        assert carried[2] == pytest.approx(refactored[2], rel=1e-9, abs=1e-9)
    _check(m.matrix, b, *boxes[-1], sols[-1])

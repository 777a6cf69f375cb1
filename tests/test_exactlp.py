import time
from fractions import Fraction

import pytest

from kendall_codes.exactlp import OPTIMAL, TIME_LIMIT, UNBOUNDED, ExactSimplex


def solve_lp(a_rows, b, c):
    """(status, value, point) of max c.x, a_rows x <= b, x >= 0."""
    sx = ExactSimplex(a_rows, b, c)
    status = sx.solve()
    if status != OPTIMAL:
        return status, None, None
    return status, sx.value(), sx.point()


def test_simple_optimum():
    # max x + y, x + 2y <= 4, 3x + y <= 6 -> (8/5, 6/5), value 14/5
    status, value, point = solve_lp([[1, 2], [3, 1]], [4, 6], [1, 1])
    assert status == OPTIMAL
    assert value == Fraction(14, 5)
    assert point == [Fraction(8, 5), Fraction(6, 5)]


def test_unbounded():
    status, _, _ = solve_lp([[1, -1]], [1], [1, 1])
    assert status == UNBOUNDED


def test_degenerate_does_not_cycle():
    # classic degenerate corner
    rows = [[1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1]]
    b = [1, 1, 1, 1]
    status, value, _ = solve_lp(rows, b, [1, 1, 1])
    assert status == OPTIMAL
    assert value == 1


def test_solution_is_feasible_and_certified():
    rows = [[2, 1, 1], [1, 3, 2], [2, 2, 2]]
    b = [10, 15, 12]
    status, value, point = solve_lp(rows, b, [1, 2, 3])
    assert status == OPTIMAL
    for row, beta in zip(rows, b):
        assert sum(a * v for a, v in zip(row, point)) <= beta
    assert sum(c * v for c, v in zip([1, 2, 3], point)) == value


def test_a_passed_deadline_stops_the_solve_before_its_next_pivot():
    rows, b = [[1, 2], [3, 1]], [4, 6]
    late = ExactSimplex(rows, b, [1, 1])
    assert late.solve(deadline=time.monotonic() - 1.0) == TIME_LIMIT
    assert late.pivots == 0
    on_time = ExactSimplex(rows, b, [1, 1])
    assert on_time.solve(deadline=time.monotonic() + 60.0) == OPTIMAL
    assert on_time.value() == Fraction(14, 5)


def test_gomory_cut_is_valid_and_violated():
    # max x, 2x <= 3: optimum 3/2, the cut must force x <= 1
    sx = ExactSimplex([[2]], [3], [1])
    sx.set_original([[2]], [3])
    assert sx.solve() == OPTIMAL
    assert sx.value() == Fraction(3, 2)
    cuts = sx.gomory_cuts(4)
    assert cuts
    coeffs, rhs = cuts[0]
    # violated by the fractional optimum
    assert coeffs[0] * Fraction(3, 2) > rhs
    # but satisfied by every feasible integer
    for x in (0, 1):
        assert coeffs[0] * x <= rhs


def test_ragged_matrix_rejected():
    with pytest.raises(ValueError):
        ExactSimplex([[1, 2], [1]], [1, 1], [1, 1])


@pytest.mark.parametrize("a_rows,b,c,message", [
    ([[Fraction(1, 2), 1]], [1], [1, 1], "not an integer"),
    ([[1, 1]], [1.0], [1, 1], "not an integer"),
    ([[1, 1]], [1], [1.0, 1], "not an integer"),
    ([[1, 1]], [-1], [1, 1], "nonnegative"),
], ids=["fraction-row", "float-b", "float-c", "negative-b"])
def test_non_integer_or_negative_data_is_refused(a_rows, b, c, message):
    # integer pivoting on a Fraction, or a start from the infeasible slack
    # basis, would return a wrong optimum without an error
    with pytest.raises(ValueError, match=message):
        ExactSimplex(a_rows, b, c)

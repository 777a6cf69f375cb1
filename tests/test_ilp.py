import os
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path
from fractions import Fraction
from types import SimpleNamespace
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kendall_codes import boxlp, exactlp, ilp, young
from kendall_codes.boxlp import BoxSimplex
from kendall_codes.exactlp import ExactSimplex, OPTIMAL
from kendall_codes.ilp import (
    INCUMBENT_ONLY,
    PROVEN_OPTIMAL,
    analytic_prime_bound,
    bound_report,
    build_coset_ilp,
    code_projection,
    export_lp,
    feasible,
    ilp_solve,
    lp_format_lines,
    lp_relax,
    random_feasible,
    systemineq_check,
)
from kendall_codes.perms import Code, all_perms, greedy_code


def test_model_construction():
    m = build_coset_ilp(4, (3, 1))
    assert m.dim == 4
    assert m.rhs == 6
    assert m.matrix[0][0] == 3
    assert m.matrix.dtype == np.int64
    assert not m.matrix.flags.writeable


def test_feasible_trivial_cases():
    m = build_coset_ilp(4, (3, 1))
    assert feasible(m, [0, 0, 0, 0])
    assert not feasible(m, [m.rhs] * m.dim)
    assert not feasible(m, [-1, 0, 0, 0])
    with pytest.raises(ValueError):
        feasible(m, [0, 0])


def test_feasible_rejects_fractional_points():
    m = build_coset_ilp(5, (3, 2))
    assert not feasible(m, [0.5] * m.dim)
    assert not feasible(m, [0.0] * m.dim)
    assert not feasible(m, [Fraction(1, 2)] + [0] * (m.dim - 1))
    # Python and numpy integers are points of the program
    assert feasible(m, [0] * m.dim)
    assert feasible(m, np.zeros(m.dim, dtype=np.int64))
    assert feasible(m, [np.int32(1)] + [0] * (m.dim - 1))


def test_feasible_rejects_huge_coordinates_without_overflow():
    m = build_coset_ilp(5, (3, 2))
    assert not feasible(m, [2**70] + [0] * (m.dim - 1))
    assert not feasible(m, [0] * (m.dim - 1) + [2**63 - 1])


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_hook_lp_value_is_sphere_packing(n):
    sol = lp_relax(build_coset_ilp(n, (n - 1, 1)))
    assert sol.value == factorial(n - 1)


def test_lp_relax_point_is_feasible():
    m = build_coset_ilp(5, (3, 2))
    sol = lp_relax(m)
    for row in m.matrix:
        assert sum(a * v for a, v in zip(row, sol.point)) <= m.rhs


# every mu of n <= 6 whose unfolded LP is cheap (the unfolded (3,1,1,1)@6,
# 120 tabloids, takes 1.1 s on the oracle and (2,1,1,1,1)@6 over a minute),
# and the hooks up to n = 8; n = 7 non-hooks stay out, the unfolded
# (3,2,2)@7 alone takes 11 s
_FOLD_SHAPES = [(sum(mu), mu) for n in range(2, 7) for mu in young.all_partitions(n)
                if young.tabloid_count(mu) <= 90] + [(n, (n - 1, 1)) for n in (7, 8)]


@pytest.mark.parametrize("n,shape", _FOLD_SHAPES, ids=str)
def test_lp_relax_on_the_orbit_fold_equals_the_unfolded_lp(n, shape):
    m = build_coset_ilp(n, shape)
    sol = lp_relax(m)
    sx = ExactSimplex(m.matrix.tolist(), [m.rhs] * m.dim, [1] * m.dim)
    assert sx.solve() == OPTIMAL
    assert sol.status == OPTIMAL and sol.value == sx.value() == sum(sol.point)
    assert all(v >= 0 for v in sol.point)
    for row in m.matrix.tolist():
        assert sum(a * v for a, v in zip(row, sol.point)) <= m.rhs
    for g in young.symmetry_generators(shape):
        assert [sol.point[i] for i in g] == list(sol.point)


def test_blands_rule_reaches_the_optimum_of_dantzigs_rule(monkeypatch):
    # with STALL_LIMIT = 1 the first pivot that does not raise the value
    # switches the simplex to Bland's rule for good
    m = build_coset_ilp(6, (2, 2, 2))
    dantzig = ExactSimplex(m.matrix.tolist(), [m.rhs] * m.dim, [1] * m.dim)
    assert dantzig.solve() == OPTIMAL
    folds = [lp_relax(build_coset_ilp(n, shape)).value for n, shape in _FOLD_SHAPES]
    monkeypatch.setattr(exactlp, "STALL_LIMIT", 1)
    bland = ExactSimplex(m.matrix.tolist(), [m.rhs] * m.dim, [1] * m.dim)
    assert bland.solve() == OPTIMAL
    assert bland.value() == dantzig.value() == 120
    assert bland.pivots != dantzig.pivots
    assert [lp_relax(build_coset_ilp(n, shape)).value for n, shape in _FOLD_SHAPES] == folds


def test_lp_relax_refuses_a_matrix_off_the_tabloid_action(monkeypatch):
    # one more fixed point on tabloid 0 breaks P M P = M for the reversal;
    # the fold would then restrict the LP, so no simplex may be built
    def no_simplex(*args):
        raise AssertionError("the simplex must not be built")

    action = young.build_action_matrix(5, (3, 2))
    entries = action.entries.tolil()
    entries[0, 0] += 1
    m = ilp.model_from_action(replace(action, entries=entries.tocsr()), 6)
    monkeypatch.setattr(ilp, "ExactSimplex", no_simplex)
    with pytest.raises(ValueError, match="not invariant"):
        lp_relax(m)


@pytest.mark.parametrize("n,shape,want", [(4, (3, 1), 5), (5, (4, 1), 23),
                                          (5, (3, 2), 23)])
def test_ilp_small_values(n, shape, want):
    r = ilp_solve(build_coset_ilp(n, shape))
    assert r.status == PROVEN_OPTIMAL
    assert r.optimum == want
    assert feasible(build_coset_ilp(n, shape), r.argmax)
    assert sum(r.argmax) == want
    assert r.dual_bound == want


_PINNED_TREES = [(7, (5, 2), 718, 8), (5, (2, 2, 1), 22, 29), (5, (3, 1, 1), 22, 16),
                 (7, (4, 3), 717, 99)]
#: the paper's headline trees, 116 and 716, solved only in fresh processes
_HEADLINE_TREES = [(7, (5, 1, 1), 716, 1768), (6, (2, 2, 2), 116, 1612)]


@pytest.mark.parametrize("n,shape,want,nodes", _PINNED_TREES)
def test_tree_node_counts_are_pinned(n, shape, want, nodes):
    r = ilp_solve(build_coset_ilp(n, shape))
    assert (r.status, r.optimum, r.nodes_explored) == (PROVEN_OPTIMAL, want, nodes)


def test_node_counts_do_not_depend_on_the_blas_thread_count():
    # the box LP's float noise, and so its tie-breaks, could follow the
    # order of OpenBLAS's sums; the pinned and headline trees are solved in
    # fresh processes with one and with two BLAS threads
    trees = _PINNED_TREES + _HEADLINE_TREES
    code = ("import ast, sys\n"
            "from kendall_codes.ilp import build_coset_ilp, ilp_solve\n"
            "for n, shape in ast.literal_eval(sys.argv[1]):\n"
            "    r = ilp_solve(build_coset_ilp(n, shape))\n"
            "    print(r.optimum, r.nodes_explored)\n")
    shapes = repr([(n, shape) for n, shape, _want, _nodes in trees])
    src = str(Path(ilp.__file__).resolve().parents[1])
    counts = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code, shapes], capture_output=True,
                              text=True, env=env, timeout=120, check=True)
        counts[threads] = [tuple(map(int, line.split())) for line in proc.stdout.splitlines()]
    assert counts["1"] == counts["2"] == [(want, nodes) for *_rest, want, nodes in trees]


@pytest.mark.parametrize("n,shape,full_nodes", [
    (7, (5, 2), 10), (5, (2, 2, 1), 31), (5, (3, 1, 1), 40), (7, (4, 3), 115),
    (11, (9, 2), 991), (13, (11, 2), 1103)])
def test_orbital_branching_keeps_the_answer_of_the_full_tree(n, shape, full_nodes,
                                                           monkeypatch):
    # with G = {id} the root LP runs unfolded and every down branch bounds
    # one variable: the tree is the one that branched on single variables,
    # node for node
    m = build_coset_ilp(n, shape)
    reduced = ilp_solve(m)
    monkeypatch.setattr(young, "group_elements",
                        lambda generators: np.arange(len(generators[0]))[None])
    full = ilp_solve(m)
    assert (full.status, full.optimum) == (reduced.status, reduced.optimum)
    assert full.nodes_explored == full_nodes
    assert feasible(m, full.argmax) and feasible(m, reduced.argmax)


def _brute_force_optimum(model, u=None) -> int:
    """max 1.x over the integer points of M x <= rhs, 0 <= x <= u (no upper
    bound when u is None): a depth-first walk that sets the coordinates in
    order, each from its cap down to 0, and leaves a branch once the caps
    left cannot beat the best sum found."""
    cols = model.matrix.T.tolist()
    u = [model.rhs] * model.dim if u is None else u
    best = 0

    def walk(j, slack, total):
        nonlocal best
        caps = [min([s // c for s, c in zip(slack, col) if c] + [cap])
                for col, cap in zip(cols[j:], u[j:])]
        if total + sum(caps) <= best:
            return
        if j == len(cols):
            best = total
            return
        for v in range(caps[0], -1, -1):
            walk(j + 1, [s - c * v for s, c in zip(slack, cols[j])], total + v)

    walk(0, [model.rhs] * model.dim, 0)
    return best


@pytest.mark.parametrize("n,shape,rhs", [
    (4, (3, 1), 6), (4, (2, 2), 4), (4, (2, 1, 1), 2), (5, (4, 1), 24), (5, (3, 2), 12),
    # right-hand sides where the tree branches, some on orbits of two or more
    (4, (2, 1, 1), 3), (4, (2, 1, 1), 7), (5, (4, 1), 12), (5, (3, 2), 8),
    (5, (3, 2), 9), (6, (5, 1), 9), (6, (5, 1), 10)])
def test_ilp_solve_matches_a_brute_force_walk(n, shape, rhs, monkeypatch):
    # without HiGHS the tree has to find the optimum itself
    _no_milp_heuristic(monkeypatch)
    m = ilp.model_from_action(young.build_action_matrix(n, shape), rhs)
    assert m.dim <= 12
    r = ilp_solve(m)
    assert (r.status, r.optimum) == (PROVEN_OPTIMAL, _brute_force_optimum(m))
    assert feasible(m, r.argmax)


@pytest.mark.parametrize("n,shape,rhs,j", [(4, (3, 1), 6, 0), (6, (5, 1), 9, 2)])
def test_a_box_that_g_does_not_keep_splits_single_variables(n, shape, rhs, j):
    # a lower cap on x_j breaks the symmetry of the root box, though l = 0
    # stays invariant; a down branch on a whole G-orbit there loses points
    m = ilp.model_from_action(young.build_action_matrix(n, shape), rhs)
    u = m.rhs // m.matrix.diagonal()
    u[j] -= 2
    best, point, _nodes, open_bound = ilp._bb_float(
        m, ilp._symmetry_group(m), u, m.dim * m.rhs, 0, [0] * m.dim, None)
    assert open_bound is None
    assert best == _brute_force_optimum(m, u.tolist())
    assert feasible(m, point) and (np.array(point) <= u).all()


def test_a_generator_off_the_symmetries_of_m_is_refused_before_any_solve(monkeypatch):
    # swapping tabloids 0 and 1 of (4,3)@7 does not commute with M; with it
    # among the generators no LP may be built and no node opened
    real = young.symmetry_generators

    def with_a_bad_one(shape):
        bad = np.arange(young.tabloid_count(shape))
        bad[[0, 1]] = [1, 0]
        return real(shape) + [bad]

    def forbidden(*args, **kwargs):
        raise AssertionError("an unchecked group reached a solve")

    monkeypatch.setattr(young, "symmetry_generators", with_a_bad_one)
    for name in ("ExactSimplex", "_milp_heuristic", "_bb_float"):
        monkeypatch.setattr(ilp, name, forbidden)
    with pytest.raises(ValueError, match="not invariant"):
        ilp_solve(build_coset_ilp(7, (4, 3)))


@pytest.mark.parametrize("n,shape,want", [(7, (4, 3), 717), (7, (5, 2), 718),
                                          (5, (2, 2, 1), 22), (5, (3, 1, 1), 22),
                                          (7, (5, 1, 1), 716), (6, (2, 2, 2), 116)])
def test_milp_heuristic_reaches_the_optimum_on_fixed_subspaces(n, shape, want,
                                                               monkeypatch):
    from scipy import optimize
    sizes = []
    real = optimize.milp

    def counted(c, **kwargs):
        sizes.append(len(c))
        return real(c, **kwargs)

    monkeypatch.setattr(optimize, "milp", counted)
    m = build_coset_ilp(n, shape)
    group = ilp._symmetry_group(m)
    x = ilp._milp_heuristic(m, group, (m.rhs // m.matrix.diagonal()).tolist(), None)
    assert feasible(m, x)
    assert sum(x) == want
    # one solve, on the orbits of the involution of G with the most of them
    fixed = [int((g == group[0]).sum()) for g in group[1:]
             if np.array_equal(g[g], group[0])]
    assert sizes == [(m.dim + max(fixed)) // 2]


#: shapes on which w0 times a block relabelling fixes as many tabloids as
#: the relabelling alone
_TIE_SHAPES = [(3, 1, 1, 1), (3, 2, 2, 1)]


@pytest.mark.parametrize("shape", [shape for n in range(1, 8) for shape in young.all_partitions(n)
                                   if young.tabloid_count(shape) <= ilp.ILP_DIMENSION_LIMIT]
                         + [s for s in _TIE_SHAPES if sum(s) > 7], ids=str)
def test_heuristic_involution_fixes_the_most_tabloids_in_g(shape):
    group = young.group_elements(young.symmetry_generators(shape))
    g = ilp._heuristic_involution(group)
    everything = group[0]
    assert any(np.array_equal(g, h) for h in group)
    assert np.array_equal(g[g], everything)
    action = young.build_action_matrix(sum(shape), shape).entries.toarray()
    assert np.array_equal(action[g][:, g], action)
    involutions = [h for h in group[1:] if np.array_equal(h[h], everything)]
    assert np.array_equal(g, everything) == (not involutions)
    assert all((h == everything).sum() <= (g == everything).sum() for h in involutions)
    # a tie goes to the block relabelling, not to w0 times it:
    # symmetry_generators lists the swaps before w0
    if shape in _TIE_SHAPES:
        assert np.array_equal(g, young.image_index(shape, swaps=(2,)))


def test_ilp_determinism():
    m = build_coset_ilp(5, (3, 2))
    a = ilp_solve(m)
    b = ilp_solve(m)
    assert (a.optimum, a.argmax, a.nodes_explored) == \
        (b.optimum, b.argmax, b.nodes_explored)


def _no_milp_heuristic(monkeypatch):
    monkeypatch.setattr(ilp, "_milp_heuristic", lambda *args: None)


def _fail_first_call(monkeypatch, owner, name, failure):
    """Make the first call of owner.name return failure."""
    real = getattr(owner, name)
    calls = []

    def fake(*args, **kwargs):
        calls.append(None)
        return failure if len(calls) == 1 else real(*args, **kwargs)

    monkeypatch.setattr(owner, name, fake)
    return calls


def test_ilp_time_limit_returns_valid_incumbent(monkeypatch):
    _no_milp_heuristic(monkeypatch)
    m = build_coset_ilp(6, (2, 2, 2))
    r = ilp_solve(m, time_limit=3.0)
    assert feasible(m, r.argmax)
    assert Fraction(r.optimum) <= r.dual_bound <= 120
    if r.status == PROVEN_OPTIMAL:  # a very fast box, unlikely but legal
        assert r.optimum == r.dual_bound


@pytest.mark.parametrize("limit,heuristic", [(3.0, True), (1e-3, False)])
def test_ilp_time_limit_bounds_every_phase(limit, heuristic, monkeypatch):
    # with the heuristic on, the root (a few ms on the orbit fold) and the
    # one HiGHS solve (about 1 s on 2 vCPUs) leave the 3 s deadline to land
    # in the tree; a limit that passes during the exact root solve stops the
    # tree at its root, whose bound must still hold
    if not heuristic:
        _no_milp_heuristic(monkeypatch)
    m = build_coset_ilp(6, (2, 2, 2))
    t0 = time.monotonic()
    r = ilp_solve(m, time_limit=limit)
    assert time.monotonic() - t0 <= limit + 3.0
    assert r.status in (INCUMBENT_ONLY, PROVEN_OPTIMAL)
    assert feasible(m, r.argmax)
    assert sum(r.argmax) == r.optimum
    # 116 is the proven optimum (acceptance criterion 2)
    assert r.optimum <= 116 <= r.dual_bound <= 120


def _clocked_milp(monkeypatch, root_seconds: float):
    """Give ilp and the box LP a clock of their own that the root LP moves
    by root_seconds and record (clock, options) at every HiGHS call."""
    from scipy import optimize
    clock = [0.0]
    calls = []
    real_milp, real_root = optimize.milp, ilp.lp_relax

    def timed(c, *, options, **kwargs):
        calls.append((clock[0], dict(options)))
        return real_milp(c, options=options, **kwargs)

    def slow_root(model, deadline, group):
        # the root finishes, root_seconds later on ilp's clock; the exact
        # simplex reads the real clock, so it gets no deadline from this one
        clock[0] += root_seconds
        return real_root(model, group=group)

    monkeypatch.setattr(optimize, "milp", timed)
    monkeypatch.setattr(ilp, "lp_relax", slow_root)
    for module in (ilp, boxlp):
        monkeypatch.setattr(module, "time", SimpleNamespace(monotonic=lambda: clock[0]))
    return calls


def test_no_orbit_solve_starts_after_the_deadline(monkeypatch):
    # the root LP spends the whole 1.5 s: HiGHS never starts, and the tree
    # stops at its root with the rounding incumbent
    calls = _clocked_milp(monkeypatch, 2.0)
    m = build_coset_ilp(6, (2, 2, 2))
    r = ilp_solve(m, time_limit=1.5)
    assert calls == []
    assert r.status == INCUMBENT_ONLY
    assert feasible(m, r.argmax)
    assert r.optimum <= 116 <= r.dual_bound <= 120


def test_the_orbit_solve_gets_the_time_left(monkeypatch):
    calls = _clocked_milp(monkeypatch, 0.5)
    m = build_coset_ilp(7, (4, 3))
    r = ilp_solve(m, time_limit=1.5)
    assert len(calls) == 1
    start, options = calls[0]
    assert start == 0.5
    assert 0 < options["time_limit"] <= (1.5 - start) / 2
    assert options["node_limit"] == ilp._HEURISTIC_NODE_LIMIT
    assert options["mip_heuristic_run_feasibility_jump"] is False
    # the clock stands still, so the tree runs to the end
    assert (r.status, r.optimum, r.nodes_explored) == (PROVEN_OPTIMAL, 717, 99)


def test_the_orbit_solve_leaves_the_tree_time():
    # HiGHS alone would spend any budget on this shape's orbit model
    m = build_coset_ilp(6, (2, 1, 1, 1, 1))
    r = ilp_solve(m, time_limit=2.0)
    assert r.status == INCUMBENT_ONLY
    assert r.nodes_explored >= 1
    assert feasible(m, r.argmax)
    assert r.optimum <= r.dual_bound <= factorial(5)


def test_the_time_limit_holds_inside_the_tree():
    # HiGHS takes half the time left; the root node's cold box LP (about 960
    # pivots) and its strong-branch probes stop at the deadline, and the
    # node is bounded with the root's duals
    m = build_coset_ilp(6, (2, 1, 1, 1, 1))
    t0 = time.monotonic()
    r = ilp_solve(m, time_limit=1.0)
    assert time.monotonic() - t0 < 1.5
    assert r.status == INCUMBENT_ONLY
    assert feasible(m, r.argmax)
    # the projection of any distance-3 code is feasible, so the optimum, and
    # with it a valid dual bound, is at least the size of such a code
    code = greedy_code(6, 3, seed=0)
    assert feasible(m, code_projection(code, (2, 1, 1, 1, 1)))
    assert r.optimum <= r.dual_bound <= factorial(5)
    assert r.dual_bound >= len(code.members)


def test_a_root_stopped_by_the_deadline_still_gives_a_valid_result(monkeypatch):
    # the exact root of (6,5)@11 takes about 20 s; at the deadline neither
    # HiGHS nor the tree may start, the point is the ascent from 0 and the
    # dual bound dim * rhs / n = 10!
    def forbidden(*args, **kwargs):
        raise AssertionError("no phase may start after the root's deadline")

    from scipy import optimize
    monkeypatch.setattr(optimize, "milp", forbidden)
    monkeypatch.setattr(ilp, "_bb_float", forbidden)
    m = build_coset_ilp(11, (6, 5))
    t0 = time.monotonic()
    r = ilp_solve(m, time_limit=1.0)
    assert time.monotonic() - t0 < 5.0
    assert (r.status, r.nodes_explored) == (INCUMBENT_ONLY, 0)
    assert feasible(m, r.argmax)
    assert sum(r.argmax) == r.optimum
    assert list(r.argmax) == ilp._heuristic_incumbent(m, [0] * m.dim)
    assert r.optimum <= r.dual_bound == factorial(10)


def test_a_failing_orbit_solve_is_not_swallowed(monkeypatch):
    # the folded model is built from the model's own arrays, so an
    # exception there is a fault, not a missing incumbent
    from scipy import optimize

    def broken(*args, **kwargs):
        raise TypeError("broken milp")

    monkeypatch.setattr(optimize, "milp", broken)
    with pytest.raises(TypeError, match="broken milp"):
        ilp_solve(build_coset_ilp(7, (4, 3)))


@pytest.mark.parametrize("message, silenced", [
    ("Unrecognized options detected: {'mip_heuristic_run_feasibility_jump'}. "
     "These will be passed to HiGHS verbatim.", True),
    ("overflow encountered in multiply", False),
], ids=["unrecognized-options", "other"])
def test_only_the_verbatim_options_warning_is_silenced(message, silenced, monkeypatch):
    # the feasibility-jump switch is not among milp's documented options, so
    # milp warns before it passes the switch on; no other warning is hidden
    from scipy import optimize
    real_milp = optimize.milp

    def warning_milp(*args, **kwargs):
        warnings.warn(message, RuntimeWarning, stacklevel=2)
        return real_milp(*args, **kwargs)

    monkeypatch.setattr(optimize, "milp", warning_milp)
    m = build_coset_ilp(5, (3, 1, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if silenced:
            r = ilp_solve(m)
            assert (r.status, r.optimum) == (PROVEN_OPTIMAL, 22)
        else:
            with pytest.raises(RuntimeWarning, match="overflow"):
                ilp_solve(m)


@pytest.mark.parametrize("limit", [float("nan"), 0, -1.0, float("-inf"), True, "3",
                                   np.int64(0), np.bool_(True)],
                         ids=repr)
def test_time_limit_must_be_a_positive_number(limit, monkeypatch):
    # NaN once skipped the heuristic and never reached its deadline
    def no_root(model):
        raise AssertionError("the root LP must not run")

    monkeypatch.setattr(ilp, "lp_relax", no_root)
    with pytest.raises(ValueError, match="time limit must be a positive number"):
        ilp_solve(build_coset_ilp(7, (4, 3)), time_limit=limit)
    with pytest.raises(ValueError, match="time limit must be a positive number"):
        bound_report(7, [(4, 3)], time_limit=limit)


@pytest.mark.parametrize("limit", [np.int64(5), np.float32(2.0), np.float64(2.0)],
                         ids=repr)
def test_numpy_time_limits_are_accepted(limit, monkeypatch):
    # numpy's scalars are numbers.Real without being int or float; HiGHS
    # gets its share of the time left as a Python float
    calls = _clocked_milp(monkeypatch, 0.0)
    r = ilp_solve(build_coset_ilp(5, (3, 1, 1)), time_limit=limit)
    assert (r.status, r.optimum) == (PROVEN_OPTIMAL, 22)
    (_, options), = calls
    assert type(options["time_limit"]) is float
    assert options["time_limit"] == float(limit) * ilp._HEURISTIC_TIME_SHARE


def test_node_whose_box_lp_fails_is_still_certified(monkeypatch):
    # the rounding incumbent of (2,2,1)@5 is 21, so the tree must find 22;
    # its root node gets no box-LP solution
    _no_milp_heuristic(monkeypatch)
    box_calls = _fail_first_call(monkeypatch, BoxSimplex, "solve", None)
    m = build_coset_ilp(5, (2, 2, 1))
    r = ilp_solve(m)
    assert len(box_calls) > 1
    assert r.status == PROVEN_OPTIMAL
    assert r.optimum == 22
    assert feasible(m, r.argmax)


def test_integral_lp_point_closes_a_node_only_with_a_certified_bound(monkeypatch):
    # the root's float LP returns the integral, feasible but far from
    # optimal point 0; the node may not be closed on it, since the duals
    # 1/n certify only the root bound 24 and the incumbent is 21
    _no_milp_heuristic(monkeypatch)
    m = build_coset_ilp(5, (2, 2, 1))
    fake = (np.zeros(m.dim), np.full(m.dim, 1.0 / m.n), 0.0, None, 0)
    _fail_first_call(monkeypatch, BoxSimplex, "solve", fake)
    r = ilp_solve(m)
    assert r.status == PROVEN_OPTIMAL
    assert r.optimum == 22


def test_propagate_keeps_the_root_box_when_no_row_is_tight():
    # u0 is about 1.28e17 here, above any fixed sentinel of int64 size
    m = build_coset_ilp(21, (20, 1))
    u0 = m.rhs // m.matrix.diagonal()
    b = np.full(m.dim, m.rhs, dtype=np.int64)
    _l, u = ilp._propagate(m.matrix, b, np.zeros(m.dim, dtype=np.int64), u0)
    assert np.array_equal(u, u0)


def test_models_beyond_int64_are_refused_before_solving(monkeypatch):
    # hand-built models off the shift (r = 1, and (2,2) is not diagonally
    # dominant): one whose row activities pass 2**63, and one whose column
    # sums 4 * 10**6 let the multipliers Y'M pass it
    def no_root(model):
        raise AssertionError("the root LP must not run")

    action = young.build_action_matrix(4, (2, 2))
    huge_rhs = ilp.model_from_action(action, 2**62 + 1)
    huge_columns = ilp.model_from_action(
        replace(action, entries=action.entries * 10**6), 10**7 + 1)
    monkeypatch.setattr(ilp, "lp_relax", no_root)
    for m in (huge_rhs, huge_columns):
        assert ilp._shift(m) is None
        with pytest.raises(young.DimensionLimitError, match="int64"):
            ilp_solve(m)


def test_ilp_dimension_limit_is_checked_before_allocation(monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("the shape must be refused before allocation")

    monkeypatch.setattr(young, "_lex_words", no_allocation)
    monkeypatch.setattr(ilp, "model_from_action", no_allocation)
    assert young.tabloid_count((4, 4, 4)) > ilp.ILP_DIMENSION_LIMIT
    with pytest.raises(young.DimensionLimitError, match="exceeds limit"):
        build_coset_ilp(12, (4, 4, 4))


@pytest.mark.parametrize("n,shape,t", [
    (6, (5, 1), 20),  # r = 0: t = q = 120 / 6
    (4, (2, 2), 1),  # r = 0, although (2,2) is not diagonally dominant
    (7, (6, 1), 90),  # q = 102, r = 6, margin 3: K = ceil(6 * 6 / 3) = 12
    (5, (4, 1), None),  # q = 4, r = 4, margin 1: K = 16 > q
    (5, (2, 2, 1), None),  # r = 4 and margin -3
])
def test_shift_is_taken_only_where_it_is_proven(n, shape, t):
    assert ilp._shift(build_coset_ilp(n, shape)) == t


@pytest.mark.parametrize("changes", [
    {(0, 0): 1},  # row and column 0 sum to n + 1
    {(0, 0): 1, (0, 2): -1, (2, 0): -1, (2, 2): 1},  # sums kept, M_02 = -1
], ids=["sums", "negative"])
def test_shift_needs_a_nonnegative_matrix_with_rows_and_columns_summing_to_n(changes):
    # (6,1)@7 itself shifts by 90; Varah's margin 2 M_ii - n assumes M >= 0
    action = young.build_action_matrix(7, (6, 1))
    entries = action.entries.tolil()
    for (i, j), d in changes.items():
        entries[i, j] += d
    m = ilp.model_from_action(replace(action, entries=entries.tocsr()), factorial(6))
    assert ilp._shift(m) is None


@pytest.mark.parametrize("n,shape", [(6, (5, 1)), (4, (2, 2)), (21, (20, 1))])
def test_rhs_divisible_by_n_is_proven_without_root_or_heuristic(n, shape, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("no LP may be solved when n divides rhs")

    from scipy import optimize
    monkeypatch.setattr(ilp, "lp_relax", forbidden)
    monkeypatch.setattr(optimize, "milp", forbidden)
    m = build_coset_ilp(n, shape)
    r = ilp_solve(m)
    # x = (rhs/n) . 1 meets the LP bound dim * rhs / n = (n-1)!
    assert (r.status, r.optimum, r.nodes_explored) == (PROVEN_OPTIMAL, factorial(n - 1), 0)
    assert r.dual_bound == r.optimum
    assert r.argmax == (m.rhs // n,) * m.dim
    assert feasible(m, r.argmax)


@pytest.mark.parametrize("n,shape,proves", [
    (7, (6, 1), True), (11, (10, 1), True), (17, (16, 1), True),
    (11, (9, 2), True), (19, (18, 1), False)])
def test_the_shifted_solve_agrees_with_the_plain_tree(n, shape, proves):
    # _solve_tree runs root, heuristic and tree on the unshifted model; at
    # rhs = 18! the tree's fixed dual scale 2**36 leaves its bounds too
    # loose to prove within the limit, so (18,1)@19 checks the shifted
    # optimum against the plain incumbent and dual bound instead
    m = build_coset_ilp(n, shape)
    assert ilp._shift(m) > 0
    shifted = ilp_solve(m)
    assert shifted.status == PROVEN_OPTIMAL
    assert feasible(m, shifted.argmax)
    plain = ilp._solve_tree(m, time.monotonic() + (60.0 if proves else 3.0))
    assert (plain.status == PROVEN_OPTIMAL) == proves
    assert plain.optimum <= shifted.optimum <= plain.dual_bound
    if proves:
        assert plain.optimum == shifted.optimum


def test_a_shifted_solve_stopped_by_its_deadline_lifts_both_bounds():
    m = build_coset_ilp(11, (9, 2))
    r = ilp_solve(m, time_limit=0.2)
    assert feasible(m, r.argmax)
    assert sum(r.argmax) == r.optimum
    # 10! - 10 is the proven optimum and 10! the LP bound
    assert r.optimum <= factorial(10) - 10 <= r.dual_bound <= factorial(10)


def _box_lp_value(a_rows: list[list[int]], rhs: int, l, u) -> Fraction | None:
    """Exact optimum of max 1.x, a_rows x <= rhs, l <= x <= u, or None when
    the box holds no LP point.

    Solved on z = x - l >= 0: a_rows z <= rhs - a_rows.l and z <= u - l.
    The rows are nonnegative, so a negative entry of rhs - a_rows.l leaves
    no LP point, and otherwise the right-hand side is nonnegative, as the
    one-phase simplex needs.
    """
    dim = len(a_rows)
    l = [int(v) for v in l]
    b = [rhs - sum(a * v for a, v in zip(row, l)) for row in a_rows]
    if min(b) < 0:
        return None
    rows = list(a_rows)
    for j in range(dim):
        row = [0] * dim
        row[j] = 1
        rows.append(row)
        b.append(int(u[j]) - l[j])
    sx = ExactSimplex(rows, b, [1] * dim)
    assert sx.solve() == OPTIMAL  # the box is bounded
    return sx.value() + sum(l)


# small models, plus the tridiagonal (16,1)@17 and (18,1)@19, whose rhs 16!
# and 18! ilp_solve shifts away before the tree: there the fixed dual scale
# 2**36 gives loose bounds, which must still be sound
_BOUND_MODELS = [build_coset_ilp(n, shape) for n, shape in [
    (3, (2, 1)), (4, (3, 1)), (4, (2, 2)), (4, (2, 1, 1)), (5, (4, 1)),
    (5, (3, 2)), (5, (3, 1, 1)), (5, (2, 2, 1)), (17, (16, 1)), (19, (18, 1))]]


@st.composite
def _boxes_and_duals(draw):
    model = draw(st.sampled_from(_BOUND_MODELS))
    u0 = (model.rhs // model.matrix.diagonal()).tolist()
    u = [draw(st.integers(0, cap)) for cap in u0]
    l = [draw(st.integers(0, hi)) for hi in u]
    base = draw(st.sampled_from([0.0, 1.0 / model.n]))
    noise = st.one_of(st.just(0.0), st.floats(-1e-6, 1e-6),
                      st.floats(-500.0, 500.0),
                      st.sampled_from([np.nan, np.inf, -np.inf]))
    y = [base + draw(noise) for _ in range(model.dim)]
    return model, np.array(l, dtype=np.int64), np.array(u, dtype=np.int64), \
        np.array(y)


@settings(max_examples=150, deadline=None)
@given(_boxes_and_duals())
def test_certified_bound_never_below_the_box_lp_optimum(case):
    model, l, u, y = case
    bound, _coef = ilp._certified_bound(y, model.matrix, model.rhs, l, u)
    value = _box_lp_value(model.matrix.tolist(), model.rhs, l, u)
    if value is not None:  # otherwise the box holds no LP point at all
        assert bound >= ilp._DUAL_SCALE * value


def test_nan_duals_still_give_a_sound_bound():
    model = build_coset_ilp(5, (3, 2))
    l = np.zeros(model.dim, dtype=np.int64)
    u = model.rhs // model.matrix.diagonal()
    bound, _coef = ilp._certified_bound(np.full(model.dim, np.nan), model.matrix,
                                        model.rhs, l, u)
    assert bound >= ilp._DUAL_SCALE * _box_lp_value(model.matrix.tolist(), model.rhs, l, u)


def test_duals_are_clipped_to_zero_and_the_cap():
    # NaN and -inf count as 0, +inf and every dual above the cap as the cap
    model = build_coset_ilp(5, (3, 2))
    cap = ilp._DUAL_CAP
    y = np.array([np.nan, np.inf, -np.inf, -1.0, -0.0, 0.3, cap, cap + 1e-9, 1e300, 7.5])
    want = np.array([0.0, cap, 0.0, 0.0, 0.0, 0.3, cap, cap, cap, 7.5])
    given = y.copy()
    l = np.zeros(model.dim, dtype=np.int64)
    u = model.rhs // model.matrix.diagonal()
    assert ilp._certified_bound(y, model.matrix, model.rhs, l, u) == \
        ilp._certified_bound(want, model.matrix, model.rhs, l, u)
    np.testing.assert_array_equal(y, given)  # the caller's duals stay as they are


def test_exhaustive_oracle_below_ilp_bound():
    from kendall_codes.perms import exhaustive_max_code
    value, _ = exhaustive_max_code(4, 3)
    assert value <= ilp_solve(build_coset_ilp(4, (3, 1))).optimum


# -- projections ---------------------------------------------------------------

def test_projection_singleton_and_full_group():
    c = Code.of([(1, 2, 3, 4)])
    proj = code_projection(c, (3, 1))
    assert sorted(proj) == [0, 0, 0, 1]
    full = Code.of(all_perms(4))
    assert code_projection(full, (3, 1)) == [6, 6, 6, 6]


@pytest.mark.parametrize("n,shape", [(5, (4, 1)), (5, (3, 2)), (6, (2, 2, 2))])
def test_greedy_code_projections_feasible(n, shape):
    m = build_coset_ilp(n, shape)
    for seed in range(10):
        code = greedy_code(n, 3, seed)
        assert feasible(m, code_projection(code, shape))


# -- analytic bound and theorem checks ------------------------------------------

def test_analytic_prime_bound_values():
    assert analytic_prime_bound(19) == factorial(18) - 5
    assert analytic_prime_bound(11) == factorial(10) - 2
    assert analytic_prime_bound(13) == factorial(12) - 3
    for bad in (9, 10, 7, 4):
        with pytest.raises(ValueError):
            analytic_prime_bound(bad)


def test_systemineq_zero_vector():
    assert systemineq_check([0] * 7, 7) == (True, True, True)


def test_systemineq_rejects_infeasible():
    with pytest.raises(ValueError):
        systemineq_check([factorial(6)] * 7, 7)


def test_systemineq_refuses_fractional_vectors():
    # a fractional vector is no point of the integer system, even where
    # truncating it would give a feasible one
    with pytest.raises(ValueError, match="not feasible"):
        systemineq_check([0.5] * 5, 5)
    assert systemineq_check(np.zeros(5, dtype=np.int64), 5) == (True, True, True)


def test_systemineq_random_audit_small():
    for p in (7, 11):
        for seed in range(50):
            x = random_feasible(p, seed)
            c1, c2, c3 = systemineq_check(x, p)
            assert c1 and c2
            if p >= 11:
                assert c3


def test_random_feasible_deterministic_and_seed_sensitive():
    a = random_feasible(7, 1)
    b = random_feasible(7, 1)
    c = random_feasible(7, 2)
    assert a == b
    assert a != c


# -- export --------------------------------------------------------------------

def test_lp_export_is_byte_deterministic(tmp_path):
    m = build_coset_ilp(5, (3, 2))
    a, b = tmp_path / "a.lp", tmp_path / "b.lp"
    export_lp(m, a)
    export_lp(m, b)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().startswith("Maximize")


def test_lp_lines_for_n17_model():
    m = ilp.model_from_action(young.tridiagonal_reference(17),
                              factorial(16))
    lines = list(lp_format_lines(m))
    assert sum(1 for l in lines if l.lstrip().startswith("c")) == 17
    assert "x17" in lines[1]


# -- bound reports ---------------------------------------------------------------

def test_bound_report_sphere_packing():
    rep = bound_report(5)
    assert any(e.method == "sphere-packing" and e.value == 24
               for e in rep.entries)


def test_bound_report_ilp_entry_is_the_proven_optimum():
    rep = bound_report(5, [(3, 2)])
    entry, = (e for e in rep.entries if e.method == "ilp")
    assert (entry.shape, entry.value) == ((3, 2), 23)
    assert entry.provenance == "coset integer program, proven optimal"
    assert rep.minimum().value == 23


def test_bound_report_ilp_entry_floors_the_dual_bound_of_a_stopped_solve(monkeypatch):
    def stopped(model, time_limit=None):
        return ilp.IlpResult(22, (0,) * model.dim, 5, INCUMBENT_ONLY, Fraction(47, 2))

    monkeypatch.setattr(ilp, "ilp_solve", stopped)
    entry, = (e for e in bound_report(5, [(3, 2)], time_limit=1.0).entries
              if e.method == "ilp")
    assert entry.value == 23
    assert entry.provenance == "coset integer program, dual bound (time limit)"


def test_bound_report_literature_entries():
    rep = bound_report(6)
    assert rep.minimum().value == 116
    rep14 = bound_report(14)
    assert any(e.value == factorial(13) - 1 for e in rep14.entries)


def test_bound_report_analytic_for_primes():
    rep = bound_report(19)
    assert any(e.method == "analytic-prime" and e.value == factorial(18) - 5
               for e in rep.entries)


def test_bound_report_json_uses_decimal_strings():
    d = bound_report(17).to_json_dict()
    assert d["minimum"] == str(factorial(16) - 5)
    assert all(isinstance(e["value"], str) for e in d["entries"])

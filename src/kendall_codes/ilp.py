"""Coset integer programs bounding P(n,3), solved exactly.

The model for (n, shape) is: maximize sum x_i subject to M x <= |H| * 1,
x >= 0 integer, where M is the coset-action matrix of shape and |H| the
Young subgroup order.  Any code of minimum Kendall distance >= 3 projects to
a feasible point (coordinate i = codewords in coset i), so the optimum is a
certified upper bound on the code size.

Everything in the certified path is arbitrary-precision integer / rational
arithmetic (ilp_solve): the right-hand side is reduced first (_shift), an
exact root LP on the orbit fold of the shape's symmetry group and one HiGHS
solve on a fixed subspace seed the search, and a deterministic depth-first
tree, which branches on whole orbits of the same group, takes float box-LP
duals (:mod:`kendall_codes.boxlp`) only as a guide: their weak-duality
bound is evaluated exactly, so no pruning decision ever rests on floating
point.
"""

from __future__ import annotations

import numbers
import os
import random
import sys
import time
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from math import factorial

import numpy as np

from kendall_codes import young
from kendall_codes.exactlp import ExactSimplex, OPTIMAL, TIME_LIMIT
from kendall_codes.perfect import _is_prime
from kendall_codes.perms import Code, inverse, sphere_packing_bound
from kendall_codes.young import ActionMatrix, build_action_matrix, check_partition

PROVEN_OPTIMAL = "proven-optimal"
INCUMBENT_ONLY = "incumbent-only"


@dataclass(frozen=True, eq=False)
class IlpModel:
    """max 1.x  s.t.  matrix x <= rhs * 1,  x >= 0 integer.

    ``matrix`` is a read-only int64 array, nonnegative with a positive
    diagonal.
    """

    n: int
    shape: tuple[int, ...]
    dim: int
    matrix: np.ndarray
    rhs: int


@dataclass(frozen=True)
class LpSolution:
    status: str
    value: Fraction | None
    point: tuple[Fraction, ...] | None


@dataclass(frozen=True)
class IlpResult:
    optimum: int
    argmax: tuple[int, ...]
    nodes_explored: int
    status: str  # proven-optimal | incumbent-only
    dual_bound: Fraction


#: HiGHS branch-and-bound nodes allowed to the incumbent heuristic
_HEURISTIC_NODE_LIMIT = 100_000
#: share of the time left after the root that the incumbent heuristic may
#: take, so that the tree keeps the rest
_HEURISTIC_TIME_SHARE = 0.5

#: largest coset ILP (number of tabloids) that build_coset_ilp accepts.  The
#: model and the tree hold dense dim x dim arrays of 8-byte entries at once:
#: the int64 model matrix, BoxSimplex's float G = [M | I] (two), the B^-1
#: that the top two stack entries share (one), a solve's own B^-1 with its
#: rank-one update (two) and _propagate's products mat * (u - l) (one, and
#: a boolean mask), about 57 bytes per entry, besides the symmetry group as
#: one |G| x dim index array (at most 1440 x 720, for the shape (1^6), with
#: a boolean mask of that size per node).  The heuristic runs before
#: the tree and holds less: the model's rows at one tabloid per orbit and
#: the folded k x k matrix that HiGHS copies, k <= dim orbits.  2500
#: tabloids keep them under 512 MiB (340 MiB); the shape is refused before
#: it is enumerated.
ILP_DIMENSION_LIMIT = 2500


def build_coset_ilp(n: int, shape) -> IlpModel:
    """The coset ILP of shape; raises young.DimensionLimitError before any
    enumeration when the shape has more than ILP_DIMENSION_LIMIT tabloids."""
    shape = young.check_shape(n, shape)
    count = young.tabloid_count(shape)
    if count > ILP_DIMENSION_LIMIT:
        raise young.DimensionLimitError(f"{count} tabloids exceeds limit {ILP_DIMENSION_LIMIT}")
    return model_from_action(build_action_matrix(n, shape),
                             young.young_subgroup_order(shape))


def model_from_action(action: ActionMatrix, rhs: int) -> IlpModel:
    matrix = np.asarray(action.entries.toarray(), dtype=np.int64)
    matrix.setflags(write=False)
    return IlpModel(n=action.n, shape=action.shape, dim=action.dim,
                    matrix=matrix, rhs=rhs)


def feasible(model: IlpModel, x) -> bool:
    """True iff x is integral, x >= 0 and M x <= rhs componentwise.

    Exact for any input: a coordinate that is not a numbers.Integral (a
    float, even 0.0, or a Fraction) is not a point of the integer program,
    a coordinate above rhs already breaks its own row (M >= 0 and
    M_jj >= 1), and the product runs on Python integers.
    """
    x = list(x)
    if len(x) != model.dim:
        raise ValueError(f"expected {model.dim} coordinates, got {len(x)}")
    if any(not isinstance(v, numbers.Integral) or v < 0 or v > model.rhs for v in x):
        return False
    return bool((model.matrix @ np.array(x, dtype=object) <= model.rhs).all())


def _fold(matrix: np.ndarray, orbit: np.ndarray):
    """The rows of matrix at the least tabloid of each orbit, with each
    orbit's columns summed, the orbits' sizes and their least tabloids.

    orbit numbers the orbits 0, 1, ... in order of their least tabloid
    (young.orbit_labels).  When the orbits are those of a group whose
    permutations P satisfy P M P^-1 = M, every row of an orbit folds to the
    same row, so the folded rows are the constraints of M x <= b on the
    points constant on each orbit.
    """
    reps = np.unique(orbit, return_index=True)[1]
    folded = np.zeros((len(reps), len(reps)), dtype=matrix.dtype)
    np.add.at(folded.T, orbit, matrix[reps].T)
    return folded, np.bincount(orbit), reps


def _symmetry_group(model: IlpModel) -> np.ndarray:
    """G = <w0> x prod_k S_(m_k) (young.symmetry_generators) as one |G| x dim
    array of tabloid images (young.group_elements).  Raises ValueError
    unless M[g][:, g] == M exactly for every generator g, and so for every
    element of G."""
    generators = young.symmetry_generators(model.shape)
    for g in generators:
        if not np.array_equal(model.matrix[g][:, g], model.matrix):
            raise ValueError(f"the model matrix is not invariant under the "
                             f"symmetries of the shape {model.shape}")
    return young.group_elements(generators)


def lp_relax(model: IlpModel, deadline: float | None = None,
             group: np.ndarray | None = None) -> LpSolution:
    """Exact rational optimum of the LP relaxation, solved on its G-orbit
    fold.

    G = <w0> x prod_k S_(m_k) permutes the tabloids with P M P^-1 = M, so it
    maps the polytope onto itself and fixes the objective 1.x; averaging an
    optimum over G gives an optimum that is constant on every G-orbit (Bodi,
    Herr & Joswig, Math. Program. 137, 2013).  The exact simplex therefore
    runs on one variable per orbit, weighed by the orbit's size, and one row
    per orbit (_fold).  The point returned is that optimum lifted back to
    one value per tabloid: optimal and G-invariant, though not in general a
    vertex of the unfolded LP.  group is G as _symmetry_group returns it,
    built here when None, which raises ValueError before any simplex is
    built unless M commutes with G.  The simplex stops with status
    TIME_LIMIT once deadline (a time.monotonic() value) has passed.
    """
    orbit = young.orbit_labels(_symmetry_group(model) if group is None else group)
    folded, sizes, _ = _fold(model.matrix, orbit)
    sx = ExactSimplex(folded.tolist(), [model.rhs] * len(sizes), sizes.tolist())
    status = sx.solve(deadline)
    if status != OPTIMAL:
        return LpSolution(status=status, value=None, point=None)
    z = sx.point()
    return LpSolution(status=OPTIMAL, value=sx.value(),
                      point=tuple(z[o] for o in orbit.tolist()))


def _heuristic_incumbent(model: IlpModel, lp_point) -> list[int]:
    """Floor the LP point (feasible, since M >= 0), then raise coordinates
    as far as feasibility allows, lowest index first (exact in int64).

    One pass reaches the fixpoint: after x_j is raised some row through j
    has slack below its coefficient, and slacks only shrink afterwards.
    """
    x = np.array([v.numerator // v.denominator for v in lp_point], dtype=np.int64)
    slack = model.rhs - model.matrix @ x
    for j, col in enumerate(model.matrix.T):
        inc = (slack // np.maximum(col, 1))[col > 0].min()
        x[j] += inc
        slack -= col * inc
    return x.tolist()


#: duals y, clipped to [0, _DUAL_CAP], become Y = rint(_DUAL_SCALE y); rounding
#: moves Y'b by at most dim * rhs / 2**37, below dim / 2**13 at rhs < 2**24
_DUAL_SCALE, _DUAL_CAP = 1 << 36, 100


def _propagate(mat: np.ndarray, b: np.ndarray, l: np.ndarray, u: np.ndarray):
    """Tighten u from the row activities at l (exact, int64).

    Rows are nonnegative, so l itself never moves and one pass reaches the
    fixpoint: x_j <= l_j + s_i // mat_ij for every row i with mat_ij > 0,
    where s_i = b_i - mat_i.l.  That cap is below u_j exactly when
    mat_ij (u_j - l_j) > s_i, so only those entries are divided.  Returns
    None when l already violates a row.
    """
    slack = b - mat @ l
    if (slack < 0).any():
        return None
    newu = u
    cut = mat * (u - l) > slack[:, None]
    if cut.any():
        i, j = cut.nonzero()
        newu = u.copy()
        np.minimum.at(newu, j, l[j] + slack[i] // mat[i, j])
    if (newu < l).any():
        return None
    return l, newu


def _certified_bound(y, mat: np.ndarray, rhs: int, l, u):
    """Exact scaled upper bound from (possibly sloppy) float duals.

    For any integer Y >= 0, S.1'x <= Y'b + sum_j max over [l_j, u_j] of
    (S - Y'M)_j x_j with S = _DUAL_SCALE.  Y'M is exact in int64 on every
    model the tree accepts (_solve_tree), the rest runs on Python integers,
    so the bound holds however bad y is: a NaN dual counts as 0, and the
    others are clipped to [0, _DUAL_CAP].  Returns (scaled bound, coef
    list).
    """
    y = np.minimum(np.fmax(y, 0.0), _DUAL_CAP)  # fmax maps NaN to 0
    Y = np.rint(y * _DUAL_SCALE).astype(np.int64)
    coef = (_DUAL_SCALE - Y @ mat).tolist()
    bound = int(Y.sum()) * rhs
    bound += sum(c * h if c > 0 else c * lo_j
                 for c, lo_j, h in zip(coef, l.tolist(), u.tolist()))
    return bound, coef


def _heuristic_involution(group: np.ndarray) -> np.ndarray:
    """The involution g of group (_symmetry_group) with the most orbits
    {t, g(t)}, (dim + #fixed tabloids) / 2: the first such row other than
    the identity, or the identity (row 0) when group has no other."""
    fixed = np.where((np.take_along_axis(group, group, axis=1) == group[0]).all(axis=1),
                     (group == group[0]).sum(axis=1), -1)
    fixed[0] = -1
    return group[fixed.argmax()]


def _milp_heuristic(model: IlpModel, group: np.ndarray, u0, time_limit: float | None):
    """Incumbent from the shape's symmetries: one small HiGHS model over the
    points with x = x o g, for the involution g of G (group, from
    _symmetry_group) with the most orbits (_heuristic_involution).

    The model is the fold of M over the orbits {i, g(i)} (_fold): one
    variable z per orbit, weighed by the orbit's size and bounded by u0 at
    the orbit's least tabloid.  The solve gets _HEURISTIC_NODE_LIMIT HiGHS
    nodes and time_limit seconds (None: no limit; ilp_solve passes
    _HEURISTIC_TIME_SHARE of the time left); it does not start when
    time_limit is 0 or less.  HiGHS's feasibility-jump pass is switched
    off: on these folds it cost 6-15 ms a call and found no incumbent that
    its other heuristics miss (a HiGHS older than 1.12, without the option,
    raises AttributeError).  A solution lifts back by x_i = z at i's orbit
    and is returned only after an exact feasibility check, so this stays
    outside the certified path.  Returns None when HiGHS stops before any
    solution, or its solution is not feasible.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp
    options = {"node_limit": _HEURISTIC_NODE_LIMIT,
               "mip_heuristic_run_feasibility_jump": False}
    if time_limit is not None:
        if time_limit <= 0:
            return None
        options["time_limit"] = time_limit
    orbit = young.orbit_labels([group[0], _heuristic_involution(group)])
    folded, sizes, reps = _fold(model.matrix, orbit)
    # HiGHS writes some diagnostics straight to file descriptor 1; point it
    # at stderr for the solve, so that stdout carries only the result
    sys.stdout.flush()
    saved_stdout = os.dup(1)
    os.dup2(2, 1)
    try:
        with warnings.catch_warnings():
            # milp forwards the keys it does not know to HiGHS verbatim
            warnings.filterwarnings("ignore", "Unrecognized options detected",
                                    RuntimeWarning)
            res = milp(-sizes.astype(float),
                       constraints=LinearConstraint(
                           folded, ub=np.full(len(reps), float(model.rhs))),
                       integrality=np.ones(len(reps)),
                       bounds=Bounds(0.0, np.asarray(u0, dtype=float)[reps]),
                       options=options)
    finally:
        os.dup2(saved_stdout, 1)
        os.close(saved_stdout)
    if res.x is None:
        return None
    z = [int(round(v)) for v in res.x]
    cand = [z[o] for o in orbit.tolist()]
    return cand if feasible(model, cand) else None


def _bb_float(model: IlpModel, group: np.ndarray, u0, root_bound: int,
              best_value: int, best_point, deadline: float | None):
    """Depth-first branch and bound: float LPs for guidance, exact integer
    arithmetic for every pruning decision.

    Per node: propagate bounds, solve the box LP warm-started from the
    parent basis, certify the dual bound exactly, apply exact reduced-cost
    fixing against the incumbent, branch by reliability pseudocosts (the
    first evaluations of a variable are strong-branch probes, later ones
    use the learned per-unit objective degradation; lowest index on ties).
    Branching is orbital (Ostrowski, Linderoth, Rossi & Smriglio, Math.
    Program. 126, 2011): group is G from _symmetry_group, every element of
    which commutes with M, and H is the stabiliser in G of the node's final
    box, {g : l[g] = l, u[g] = u}.  A split of x_j at s gives the down
    child u_k = s for every k in j's H-orbit {g[j] : g in H}, and the up
    child l_j = s + 1.  No value is lost: a point of the box with
    x_k >= s + 1, k = g[j], maps to x[g], a point of the up child with the
    same value, as H keeps the box, M x <= b and 1.x.  The strong-branch
    probes price these same children.
    Both children carry the parent's certified bound and are dropped
    unopened once the incumbent reaches it.  A node whose box LP fails, or
    stops at the deadline, is certified with its parent's duals and split
    at the box midpoint; no probe starts after the deadline.  A
    feasible node is closed only by its certified bound, or when its box is
    a single point.  Returns (best, point, nodes, open_bound) where
    open_bound is None iff the tree was exhausted.
    """
    from kendall_codes.boxlp import BoxSimplex

    mat = model.matrix
    dim = model.dim
    b = np.full(dim, model.rhs, dtype=np.int64)
    box = BoxSimplex(mat, b)
    bounds_T = (best_value + 1) * _DUAL_SCALE
    nodes = 0
    # pseudocost accumulators: per-unit LP objective drop, down and up
    pcd = np.zeros(dim)
    pcd_n = np.zeros(dim)
    pcu = np.zeros(dim)
    pcu_n = np.zeros(dim)
    # stack entries: bounds, warm start (the parent's basis and its B^-1,
    # which both children share), the parent's duals, the parent's
    # certified scaled bound, and the branch that created the node
    # (variable, direction, parent LP value, fractional part) for
    # pseudocost updates; the root carries the root LP bound and the duals
    # 1/n, optimal for the root LP of a coset model (rows sum to n), though
    # any y >= 0 would be sound
    stack = [(np.zeros(dim, dtype=np.int64), np.asarray(u0, dtype=np.int64),
              None, np.full(dim, 1.0 / model.n), root_bound * _DUAL_SCALE, None)]
    while stack:
        l, u, warm, y, parent_bound, pinfo = stack.pop()
        if parent_bound < bounds_T:
            continue
        if deadline is not None and time.monotonic() > deadline:
            top = max([parent_bound] + [entry[4] for entry in stack])
            return best_value, best_point, nodes, Fraction(top, _DUAL_SCALE)
        prop = _propagate(mat, b, l, u)
        if prop is None:
            continue
        l, u = prop
        sol = box.solve(l, u, warm=warm, deadline=deadline)
        x = warm_out = None
        if sol is not None:
            x, y, warm_out = sol[0], sol[1], sol[3]
        bound, coef = _certified_bound(y, mat, model.rhs, l, u)
        obj = bound / _DUAL_SCALE if x is None else float(x.sum())
        if pinfo is not None:
            pj, went_up, pobj, f = pinfo
            gain = max(pobj - obj, 0.0)
            if went_up:
                pcu[pj] += gain / max(1.0 - f, 1e-6)
                pcu_n[pj] += 1.0
            else:
                pcd[pj] += gain / max(f, 1e-6)
                pcd_n[pj] += 1.0
        if bound < bounds_T:
            continue
        # exact reduced-cost fixing: shrinking variable j's box costs |coef_j|
        # per unit, so units beyond slack // |coef_j| cannot beat the incumbent
        slack = bound - bounds_T
        ll = l.tolist()
        uu = u.tolist()
        moved = False
        for j, c in enumerate(coef):
            if c > 0:
                lo = uu[j] - slack // c
                if lo > ll[j]:
                    ll[j], moved = lo, True
            elif c < 0:
                hi = ll[j] - slack // c
                if hi < uu[j]:
                    uu[j], moved = hi, True
        if moved:  # else (l, u) is already _propagate's one-pass fixpoint
            prop = _propagate(mat, b, np.array(ll, dtype=np.int64),
                              np.array(uu, dtype=np.int64))
            if prop is None:
                continue
            l, u = prop
        nodes += 1
        if x is None:  # no LP point: aim at the box midpoint
            x = (l + u) / 2.0
        xc = np.clip(x, l, u)
        frac = np.abs(xc - np.rint(xc))
        frac[l == u] = 0.0
        if float(frac.max()) < 1e-7:
            cand = np.rint(xc).astype(np.int64)
            if (mat @ cand <= b).all():
                point = cand.tolist()
                if sum(point) > best_value:
                    best_value = sum(point)
                    best_point = point
                    bounds_T = (best_value + 1) * _DUAL_SCALE
                if bound < bounds_T:
                    continue  # the certified bound proves cand best here
            # no proven integral optimum: branch on the raw LP point's
            # fractional part, else on the widest variable
            frac = np.abs(x - np.rint(x))
            frac[l == u] = 0.0
            if float(frac.max()) < 1e-7:
                j = int(np.argmax(u - l))
                if u[j] == l[j]:
                    continue  # a single point, feasible, recorded above
                frac[j] = 0.5
        cands = np.flatnonzero(frac > 1e-7)
        stab = group[((l[group] == l) & (u[group] == u)).all(axis=1)]

        def children(j):
            """The down and up boxes of an orbital split of x_j at its LP
            value, and the fractional part of that value."""
            sp = min(max(int(np.floor(xc[j])), int(l[j])), int(u[j]) - 1)
            ud = u.copy()
            ud[stab[:, j]] = sp  # H keeps the box: the orbit shares l_j, u_j
            lu = l.copy()
            lu[j] = sp + 1
            return ud, lu, min(max(float(xc[j]) - sp, 1e-6), 1.0 - 1e-6)

        def probe(lc, uc):
            pr = _propagate(mat, b, lc, uc)
            if pr is None:
                return obj  # the child is infeasible, full objective drop
            s = box.solve(pr[0], pr[1], warm=warm_out, deadline=deadline)
            return 0.0 if s is None else max(obj - s[2], 0.0)

        # no probe budget: a probe makes j reliable for good, so at most dim pairs
        shortlist = sorted(cands.tolist(), key=lambda j: (-frac[j], j))[:8]
        for j in shortlist:
            if pcd_n[j] > 0.0 and pcu_n[j] > 0.0:
                continue
            if deadline is not None and time.monotonic() > deadline:
                break  # the next pop stops the tree
            ud, lu, f = children(j)
            pcd[j] += probe(l, ud) / f
            pcd_n[j] += 1.0
            pcu[j] += probe(lu, u) / (1.0 - f)
            pcu_n[j] += 1.0
        avg_d = float(pcd.sum() / pcd_n.sum()) if pcd_n.sum() > 0 else 1.0
        avg_u = float(pcu.sum() / pcu_n.sum()) if pcu_n.sum() > 0 else 1.0

        # product score of the pseudocost drops; argmax takes the first, so
        # the lowest index, on ties
        f = xc[cands] - np.floor(xc[cands])
        nd, nu = pcd_n[cands], pcu_n[cands]
        rate_d = np.where(nd > 0, pcd[cands] / np.maximum(nd, 1.0), avg_d)
        rate_u = np.where(nu > 0, pcu[cands] / np.maximum(nu, 1.0), avg_u)
        score = np.maximum(rate_d * f, 1e-9) * np.maximum(rate_u * (1.0 - f), 1e-9)
        j = int(cands[np.argmax(score)])
        ud, lu, fpart = children(j)
        if stack and stack[-1][2] is not None:
            # the sibling below drops its B^-1 and refactors when popped, so
            # only the top two entries, which share one, keep it
            e = stack[-1]
            stack[-1] = e[:2] + (e[2][:2] + (None,),) + e[3:]
        stack.append((l, ud, warm_out, y, bound, (j, False, obj, fpart)))
        stack.append((lu, u, warm_out, y, bound, (j, True, obj, fpart)))
    return best_value, best_point, nodes, None


def check_time_limit(time_limit) -> None:
    """Raise ValueError unless time_limit is None or a real number above 0,
    numpy scalars included (NaN, which compares false with everything, and
    booleans are refused)."""
    if time_limit is not None and (isinstance(time_limit, bool)
                                   or not isinstance(time_limit, numbers.Real)
                                   or not time_limit > 0):
        raise ValueError(f"time limit must be a positive number, got {time_limit!r}")


def _shift(model: IlpModel) -> int | None:
    """A t >= 0 with OPT = dim*t + OPT', OPT' the optimum at rhs - n*t
    (x' -> x' + t*1 maps its points into the model), or None.

    Needs 0 <= M <= n with rows and columns summing to n, checked exactly.
    With q, r = divmod(rhs, n), q*1 is feasible.  If r = 0 the duals 1/n
    bound the LP by dim*q, so t = q.  Else an optimum x has z = x - q*1 with
    Mz <= r*1 and sum(Mz) = n*sum(z) >= 0, so |Mz|_inf <= (dim-1)*r.  If the
    margin min_i(2 M_ii - n) is positive, M is strictly diagonally dominant
    and Varah's |M^-1|_inf <= 1/margin (Linear Algebra Appl. 11, 1975) gives
    x >= (q - K)*1, K = ceil((dim-1)*r / margin): t = q - K when K <= q.
    """
    mat, n = model.matrix, model.n
    q, r = divmod(model.rhs, n)
    if (q < 0 or ((mat < 0) | (mat > n)).any()
            or (mat.sum(axis=0) != n).any() or (mat.sum(axis=1) != n).any()):
        return None
    if r == 0:
        return q
    margin = int((2 * mat.diagonal() - n).min())
    k = _ceil_div((model.dim - 1) * r, margin) if margin > 0 else q + 1
    return q - k if k <= q else None


def ilp_solve(model: IlpModel, *, time_limit: float | None = None) -> IlpResult:
    """Certified branch-and-bound for the coset integer program.

    The model is first reduced (_shift), so every model from
    build_coset_ilp reaches the tree with rhs below 2**24, and none at all
    when n divides rhs.  The root LP is solved once, exactly, on its G-orbit
    fold (lp_relax); one small HiGHS model (_milp_heuristic) gives the
    incumbent; per node a float box LP guides the descent, and its duals
    become integer multipliers of one fixed scale whose weak-duality bound
    is evaluated exactly, as is every pruning, bound fixing and incumbent
    update.  So the result is a proof at any rhs that fits the tree's int64
    bounds (larger models raise ``young.DimensionLimitError`` before any
    solve).  Depth-first, branching by reliability pseudocosts (lowest index
    on ties), with each down branch bounding the variable's whole orbit
    under the box's stabiliser in G (orbital branching, _bb_float); the
    box LP never meets an rhs near 10**12, whose float noise makes node
    counts depend on the BLAS thread count.  ``time_limit`` (a
    number of seconds above 0, else ValueError) counts from the call and
    holds in every phase: a root stopped at the deadline gives status
    ``incumbent-only`` with the ascent from 0 and the dual bound
    dim*rhs/min column sum, HiGHS gets half the time left after the root
    (_HEURISTIC_TIME_SHARE), with its feasibility-jump pass off, and does
    not start when none is left, and the tree stops at the deadline with
    status ``incumbent-only`` and a valid dual bound.  An error inside the
    heuristic propagates.
    """
    check_time_limit(time_limit)
    deadline = None if time_limit is None else time.monotonic() + float(time_limit)
    t = _shift(model)
    if t is None:
        return _solve_tree(model, deadline)
    shifted = replace(model, rhs=model.rhs - model.n * t)
    res = (_solve_tree(shifted, deadline) if shifted.rhs else  # x = 0 only
           IlpResult(0, (0,) * model.dim, 0, PROVEN_OPTIMAL, Fraction(0)))
    return IlpResult(res.optimum + model.dim * t, tuple(v + t for v in res.argmax),
                     res.nodes_explored, res.status, res.dual_bound + model.dim * t)


def _solve_tree(model: IlpModel, deadline: float | None) -> IlpResult:
    """Root, incumbents and tree on the model as given (ilp_solve)."""
    u0 = [model.rhs // d for d in model.matrix.diagonal().tolist()]
    # refuse the model if a row activity at the root box plus rhs
    # (_propagate, _heuristic_incumbent) or Y'M (_certified_bound) passes int64
    peak = max(model.rhs + max(model.matrix @ np.array(u0, dtype=object)),
               (_DUAL_CAP + 1) * _DUAL_SCALE * max(model.matrix.sum(axis=0, dtype=object)))
    if peak >= 1 << 63:
        raise young.DimensionLimitError(
            f"the coset ILP of {model.shape} at n={model.n} needs integers "
            f"up to {peak}, beyond int64")

    group = _symmetry_group(model)
    root = lp_relax(model, deadline, group)
    if root.status == TIME_LIMIT:
        # no root point and no tree: the ascent from 0, and the duals
        # 1/min column sum, feasible since the positive diagonal makes every
        # column sum at least 1; their bound dim*rhs/min column sum is
        # (n-1)! on a coset model
        point = _heuristic_incumbent(model, (0,) * model.dim)
        dual = model.dim * model.rhs // int(model.matrix.sum(axis=0).min())
        return IlpResult(sum(point), tuple(point), 0, INCUMBENT_ONLY, Fraction(dual))
    if root.status != OPTIMAL:
        raise ValueError(f"root LP unexpectedly {root.status}")
    root_bound = root.value.numerator // root.value.denominator

    # incumbents: exact rounding ascent, then HiGHS on one fixed subspace
    rounded = _heuristic_incumbent(model, root.point)
    cand = _milp_heuristic(model, group, u0, None if deadline is None else
                           _HEURISTIC_TIME_SHARE * (deadline - time.monotonic()))
    best_point = max([rounded, cand or []], key=sum)  # rounded on a tie

    best_value, best_point, nodes, open_bound = _bb_float(
        model, group, u0, root_bound, sum(best_point), best_point, deadline)
    status, dual = PROVEN_OPTIMAL, Fraction(best_value)
    if open_bound is not None:
        status, dual = INCUMBENT_ONLY, min(root.value, max(open_bound, dual))
    return IlpResult(best_value, tuple(best_point), nodes, status, dual)


# ---------------------------------------------------------------------------
# code projections and theorem checks

def code_projection(code: Code, shape) -> list[int]:
    """Coordinate i counts codewords whose coset (tabloid image) has index i.

    Projects the inverse of each codeword.  Metric neighbours of c are c
    followed by an adjacent transposition t; on inverses that reads t
    followed by c^-1, which moves the coset c^-1 H the same way the model
    matrix moves tabloids.  Inversion preserves pairwise distances, so the
    inverse code has the same minimum distance and the projection of any
    distance-3 code satisfies the coset constraints.
    """
    shape = check_partition(shape)
    if young.partition_n(shape) != code.n:
        raise ValueError("shape and code have different n")
    ref = young.reference_tabloid(shape)
    index = {t: i for i, t in enumerate(young.enumerate_tabloids(shape))}
    counts = [0] * len(index)
    for c in code.members:
        counts[index[young.act(ref, inverse(c))]] += 1
    return counts


def analytic_prime_bound(p: int) -> int:
    """P(p,3) <= (p-1)! - ceil(p/3) + 2 for primes p >= 11."""
    if p < 11 or not _is_prime(p):
        raise ValueError(f"analytic bound requires a prime p >= 11, got {p}")
    return factorial(p - 1) - _ceil_div(p, 3) + 2


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def systemineq_check(x, p: int) -> tuple[bool, bool, bool]:
    """Evaluate the three structural claims on a feasible vector of the
    p x p tridiagonal system M x <= (p-1)! * 1.

    1. at least ceil(p/3) coordinates are <= (p-1)!/p;
    2. with sum x = (p-1)! - k, at least p - k - 2 coordinates attain max x;
    3. sum x <= (p-1)! - ceil(p/3) + 2.

    Raises ValueError unless x is a feasible point of the tridiagonal
    integer program (feasible: a fractional coordinate is refused, not
    truncated).
    """
    model = model_from_action(young.tridiagonal_reference(p), factorial(p - 1))
    x = list(x)
    if not feasible(model, x):
        raise ValueError("vector is not feasible for the tridiagonal system")
    x = [int(v) for v in x]  # numpy integers too: the sums below exceed int64
    bound = Fraction(factorial(p - 1), p)
    claim1 = sum(1 for v in x if v <= bound) >= _ceil_div(p, 3)
    k = factorial(p - 1) - sum(x)
    xmax = max(x)
    claim2 = sum(1 for v in x if v == xmax) >= p - k - 2
    claim3 = sum(x) <= factorial(p - 1) - _ceil_div(p, 3) + 2
    return claim1, claim2, claim3


def random_feasible(p: int, seed: int) -> list[int]:
    """Random coordinate ascent from 0 in the tridiagonal polytope, 200 rounds."""
    rng = random.Random(seed)
    model = model_from_action(young.tridiagonal_reference(p), factorial(p - 1))
    rows = model.matrix.tolist()
    x = [0] * p
    slack = [model.rhs] * p
    for _ in range(200):
        j = rng.randrange(p)
        room = None
        for i, row in enumerate(rows):
            a = row[j]
            if a > 0:
                cap = slack[i] // a
                room = cap if room is None else min(room, cap)
        if room and room > 0:
            inc = rng.randint(1, room)
            x[j] += inc
            for i, row in enumerate(rows):
                slack[i] -= row[j] * inc
    return x


# ---------------------------------------------------------------------------
# LP-format and matrix export

def lp_format_lines(model: IlpModel):
    yield "Maximize"
    yield " obj: " + " + ".join(f"x{i + 1}" for i in range(model.dim))
    yield "Subject To"
    for i, row in enumerate(model.matrix):
        terms = " + ".join(f"{a} x{j + 1}" for j, a in enumerate(row) if a != 0)
        yield f" c{i + 1}: {terms} <= {model.rhs}"
    yield "Bounds"
    for i in range(model.dim):
        yield f" x{i + 1} >= 0"
    yield "General"
    yield " " + " ".join(f"x{i + 1}" for i in range(model.dim))
    yield "End"


def export_lp(model: IlpModel, destination) -> None:
    """Write the model in LP text format (byte-deterministic)."""
    with open(destination, "w") as fh:
        for line in lp_format_lines(model):
            fh.write(line + "\n")


def export_matrix(action: ActionMatrix, destination, fmt: str = "matrixmarket") -> None:
    if fmt == "matrixmarket":
        young.write_matrix_market(action.entries, destination)
    elif fmt == "json":
        import json
        # built first: a refused matrix leaves the destination untouched
        text = json.dumps(young.matrix_json_dense(action), indent=1, sort_keys=True)
        with open(destination, "w") as fh:
            fh.write(text + "\n")
    else:
        raise ValueError(f"unknown matrix format {fmt!r}")


# ---------------------------------------------------------------------------
# bound reports

@dataclass(frozen=True)
class BoundEntry:
    method: str  # sphere-packing | analytic-prime | ilp | literature
    value: int
    provenance: str
    shape: tuple[int, ...] | None = None


@dataclass(frozen=True)
class BoundReport:
    n: int
    d: int
    entries: tuple[BoundEntry, ...]

    def minimum(self) -> BoundEntry:
        return min(self.entries, key=lambda e: (e.value, e.method))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "entries": [
                {
                    "method": e.method,
                    **({"shape": list(e.shape)} if e.shape else {}),
                    "value": str(e.value),
                    "provenance": e.provenance,
                }
                for e in self.entries
            ],
            "minimum": str(self.minimum().value),
        }


#: published upper bounds on P(n,3) (the literature table is data, not a
#: claim this solver re-derives); values are stored evaluated
_LITERATURE_UB = {
    6: [(factorial(5) - 1, "5!-1, ball-intersection bound"),
        (116, "5!-4, coset integer program, shape (2,2,2)")],
    7: [(factorial(6) - 1, "6!-1, ball-intersection bound"),
        (716, "6!-4, coset integer program, shape (5,1,1)")],
    11: [(factorial(10) - 1, "10!-1, ball-intersection bound"),
         (factorial(10) - 10, "10!-10, coset integer program, shape (9,2)")],
    13: [(factorial(12) - 1, "12!-1, ball-intersection bound"),
         (factorial(12) - 12, "12!-12, coset integer program, shape (11,2)")],
    14: [(factorial(13), "13!, sphere packing"),
         (factorial(13) - 1, "13!-1, no 1-perfect code (coset matrix (6,6,2) invertible)")],
    15: [(factorial(14), "14!, sphere packing"),
         (factorial(14) - 1, "14!-1, no 1-perfect code (irreducible constituents invertible)")],
    17: [(factorial(16) - 1, "16!-1, ball-intersection bound"),
         (factorial(16) - 5, "16!-5, coset integer program, shape (16,1)")],
}


def literature_upper_bounds(n: int) -> list[tuple[int, str]]:
    out = list(_LITERATURE_UB.get(n, []))
    if n >= 19 and _is_prime(n):
        out.append((factorial(n - 1) - 1, "(n-1)!-1, ball-intersection bound"))
        out.append((factorial(n - 1) - _ceil_div(n, 3) + 2,
                    "(n-1)!-ceil(n/3)+2, analytic prime bound"))
    return out


def bound_report(n: int, shapes=None, *,
                 time_limit: float | None = None) -> BoundReport:
    """Aggregate sphere-packing, analytic, ILP and literature bounds on P(n,3)."""
    if n < 3:
        raise ValueError("bound reports need n >= 3")
    entries = [BoundEntry(method="sphere-packing", value=sphere_packing_bound(n),
                          provenance="(n-1)! = n!/|B_1|")]
    if n >= 11 and _is_prime(n):
        entries.append(BoundEntry(method="analytic-prime",
                                  value=analytic_prime_bound(n),
                                  provenance="(p-1)! - ceil(p/3) + 2"))
    for shape in shapes or []:
        result = ilp_solve(build_coset_ilp(n, shape), time_limit=time_limit)
        dual = result.dual_bound  # the optimum once proven
        how = "proven optimal" if result.status == PROVEN_OPTIMAL else "dual bound (time limit)"
        entries.append(BoundEntry(method="ilp", shape=tuple(shape),
                                  value=dual.numerator // dual.denominator,
                                  provenance=f"coset integer program, {how}"))
    for value, source in literature_upper_bounds(n):
        entries.append(BoundEntry(method="literature", value=value, provenance=source))
    return BoundReport(n=n, d=3, entries=tuple(entries))

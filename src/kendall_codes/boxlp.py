"""Bounded-variable dual simplex in float64.

Solves max 1.x subject to M x <= b, l <= x <= u.  This is the fast inner
engine of the branch-and-bound in :mod:`kendall_codes.ilp`: it is NOT part
of the certified path.  The caller turns the returned duals into an exact
integer bound (weak duality holds for any nonnegative dual vector), so a
sloppy solve here can only weaken pruning, never correctness.

Every solve is one bounded dual simplex (Koberstein, PhD thesis,
Paderborn, 2005), since every start is dual feasible.  A cold start takes
the slack basis with every structural at its upper bound, where its
reduced cost is 1 > 0 and each slack's is 0.  After variable bound
changes a parent-optimal basis stays dual feasible, so a handful of
pivots restore optimality at a child node.  The warm start carries B^-1
with the basis, so a warm solve factors nothing (a cold one starts from
B^-1 = I).  Each pivot updates the basic values xB and the reduced costs
d by rank-one formulas; a solve that pivoted recomputes them and the
duals y from B^-1 once when it ends, and resumes if the fresh values
break its tolerance.  The leaving row is picked by dual steepest edge
(Forrest & Goldfarb, Math. Program. 57, 1992), whose weights, the
squared norms of the rows of B^-1, are read off the explicit B^-1.
There is no anti-cycling rule: on numerical trouble, after 8*dim
iterations, or once a given deadline has passed, it returns None and the
caller bounds the node with its parent's duals.
"""

from __future__ import annotations

import time

import numpy as np

TOL = 1e-9
#: primal feasibility tolerance
FEAS_TOL = 1e-7
#: smallest pivot element accepted
PIVOT_TOL = 1e-11


class BoxSimplex:
    def __init__(self, M, b):
        M = np.asarray(M, dtype=float)
        self.m, self.n = M.shape
        m, n = self.m, self.n
        self.G = np.hstack([M, np.eye(m)])
        self.c = np.concatenate([np.ones(n), np.zeros(m)])
        self.b = np.asarray(b, dtype=float)
        self.N = n + m
        # the slacks' bounds, [0, inf)
        self._L = np.zeros(n + m)
        self._U = np.full(n + m, np.inf)
        # per solve: every cold solve of a coset model with n <= 30 and
        # dim <= 1000 needs at most 5.66*dim pivots, and a cap stops the
        # cycling that pricing without an anti-cycling rule can fall into
        self.max_iter = 8 * n

    def solve(self, l, u, warm=None, deadline=None):
        """Returns (x, y, value, (basis, at_upper, Binv), iters) or None on
        failure, or once deadline (a time.monotonic() value) has passed.

        u must be finite: a cold solve (warm=None) starts with every
        structural at its upper bound.  warm is the fourth entry of an
        earlier solve's result; its Binv may be None, and is then
        refactored from the basis.  The arrays of warm are never written,
        so several solves may share one warm start.
        """
        m, n, N = self.m, self.n, self.N
        G, c = self.G, self.c
        L = self._L.copy()
        L[:n] = l
        U = self._U.copy()
        U[:n] = u
        # sign is -1 at a column held at its upper bound, else +1
        if warm is None:
            basis = np.arange(n, n + m)
            sign = np.ones(N)
            sign[:n] = -1.0
            Binv, owned = np.eye(m), True
        else:
            basis = warm[0].copy()
            sign = np.where(warm[1], -1.0, 1.0)
            Binv, owned = warm[2], False
            if Binv is None:
                try:
                    Binv, owned = np.linalg.inv(G[:, basis]), True
                except np.linalg.LinAlgError:
                    return None
        free = np.ones(N, dtype=bool)
        free[basis] = False
        LB, UB = L[basis], U[basis]

        def state():
            xN = np.where(sign < 0, U, L)
            xN[basis] = 0.0
            xB = Binv @ (self.b - G @ xN)
            y = c[basis] @ Binv
            return xB, y, c - y @ G

        xB, y, d = state()
        fresh = True
        iters = 0
        while True:
            viol_low = LB - xB
            viol_up = xB - UB
            viol = np.maximum(viol_low, viol_up)
            rows = (viol > FEAS_TOL).nonzero()[0]
            if rows.size == 0:
                if fresh:
                    break
                xB, y, d = state()
                fresh = True
                continue
            r = int(rows[0])
            if rows.size > 1:
                # dual steepest edge: the violation over the norm of its row
                # of B^-1, both exact here
                rho = Binv[rows]
                r = int(rows[(viol[rows] ** 2 / np.einsum("ij,ij->i", rho, rho)).argmax()])
            if iters >= self.max_iter or (deadline is not None
                                           and time.monotonic() > deadline):
                return None
            below = viol_low[r] >= viol_up[r]
            alpha = Binv[r] @ G
            # entering candidates: nonbasic columns whose move off their
            # bound pushes the leaving variable back towards its own
            move = alpha * sign
            elig = (move < -TOL) if below else (move > TOL)
            elig &= free
            idxs = elig.nonzero()[0]
            if idxs.size == 0:
                return None
            ratio = np.abs(d[idxs] / alpha[idxs])
            q = int(idxs[ratio.argmin()])
            w = Binv @ G[:, q]
            if abs(w[r]) < PIVOT_TOL:
                return None
            # x_q moves by t, which takes the leaving variable to its bound
            t = (xB[r] - (LB[r] if below else UB[r])) / w[r]
            xB -= t * w
            xB[r] = (U[q] if sign[q] < 0 else L[q]) + t
            # basis change: d and B^-1 take their rank-one updates (no pivot
            # reads y, which the closing state() recomputes)
            d -= d[q] / alpha[q] * alpha
            d[q] = 0.0
            pr = Binv[r] / w[r]
            if owned:
                Binv -= w[:, None] * pr
            else:  # the first pivot copies a shared B^-1
                Binv, owned = Binv - w[:, None] * pr, True
            Binv[r] = pr
            leaving = int(basis[r])
            basis[r] = q
            free[q], free[leaving] = False, True
            sign[q] = 1.0
            sign[leaving] = 1.0 if below else -1.0
            LB[r], UB[r] = L[q], U[q]
            fresh = False
            iters += 1

        at_upper = sign < 0
        x = np.where(at_upper, U, L)
        x[basis] = xB
        return x[:n], np.maximum(y, 0.0), float(x[:n].sum()), (basis, at_upper, Binv), iters

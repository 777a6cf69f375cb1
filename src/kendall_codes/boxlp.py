"""Bounded-variable revised simplex in float64.

Solves max c.x subject to A x <= b, l <= x <= u.  This is the fast inner
engine of the branch-and-bound in :mod:`kendall_codes.ilp`: it is NOT part
of the certified path.  The caller turns the returned duals into an exact
integer bound (weak duality holds for any nonnegative dual vector), so a
sloppy solve here can only weaken pruning, never correctness.

The solver is warm-startable: after variable bound changes a parent-optimal
basis stays dual feasible, so a handful of dual simplex pivots restore
optimality at a child node.  Both phases pick by largest violation, with
no anti-cycling rule: on numerical trouble, or after 8*dim iterations, it
returns None and the caller bounds the node with its parent's duals.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-9


class BoxSimplex:
    def __init__(self, M, b, c):
        M = np.asarray(M, dtype=float)
        self.m, self.n = M.shape
        m, n = self.m, self.n
        self.G = np.hstack([M, np.eye(m)])
        self.c = np.concatenate([np.asarray(c, dtype=float), np.zeros(m)])
        self.b = np.asarray(b, dtype=float)
        self.N = n + m
        # per solve, both phases together: every cold solve of a coset model
        # with n <= 30 and dim <= 1000 needs at most 4.87*dim pivots, and a
        # cap stops the cycling that largest-violation pricing can fall into
        self.max_iter = 8 * n

    def solve(self, l, u, warm=None):
        """Returns (x, y, value, (basis, at_upper), iters) or None on failure."""
        m, n, N = self.m, self.n, self.N
        L = np.concatenate([np.asarray(l, float), np.zeros(m)])
        U = np.concatenate([np.asarray(u, float), np.full(m, np.inf)])
        if warm is None:
            basis = np.arange(n, n + m)
            at_upper = np.zeros(N, dtype=bool)
        else:
            basis = warm[0].copy()
            at_upper = warm[1].copy()
        try:
            Binv = np.linalg.inv(self.G[:, basis])
        except np.linalg.LinAlgError:
            return None
        is_basic = np.zeros(N, dtype=bool)
        is_basic[basis] = True

        def state():
            xN = np.where(at_upper, U, L)
            xN[is_basic] = 0.0
            xB = Binv @ (self.b - self.G @ xN)
            y = self.c[basis] @ Binv
            d = self.c - y @ self.G
            return xB, y, d

        def pivot(r, q):
            nonlocal Binv
            w = Binv @ self.G[:, q]
            if abs(w[r]) < 1e-11:
                return False
            pr = Binv[r] / w[r]
            Binv = Binv - np.outer(w, pr)
            Binv[r] = pr
            leaving = basis[r]
            basis[r] = q
            is_basic[leaving] = False
            is_basic[q] = True
            at_upper[q] = False
            return leaving

        xB, y, d = state()
        iters = 0
        # --- dual phase: restore primal feasibility -------------------------
        while iters < self.max_iter:
            LB = L[basis]
            UB = U[basis]
            viol_low = LB - xB
            viol_up = xB - UB
            viol = np.maximum(viol_low, viol_up)
            r = int(np.argmax(viol))
            if viol[r] <= 1e-7:
                break
            below = viol_low[r] >= viol_up[r]
            alpha = Binv[r] @ self.G
            if below:
                elig = (~is_basic) & (((~at_upper) & (alpha < -TOL))
                                      | (at_upper & (alpha > TOL)))
            else:
                elig = (~is_basic) & (((~at_upper) & (alpha > TOL))
                                      | (at_upper & (alpha < -TOL)))
            idxs = np.where(elig)[0]
            if idxs.size == 0:
                return None
            ratio = np.abs(d[idxs]) / np.abs(alpha[idxs])
            q = int(idxs[np.argmin(ratio)])
            leaving = pivot(r, q)
            if leaving is False:
                return None
            at_upper[leaving] = not below
            xB, y, d = state()
            iters += 1
        else:
            return None

        # --- primal phase: restore dual feasibility (usually no-op) ---------
        while iters < self.max_iter:
            dd = np.where(is_basic, 0.0, np.where(at_upper, -d, d))
            q = int(np.argmax(dd))
            if dd[q] <= 1e-7:
                break
            sign = -1.0 if at_upper[q] else 1.0
            s = sign * (Binv @ self.G[:, q])
            LB = L[basis]
            UB = U[basis]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                t_lo = np.where(s > TOL, (xB - LB) / s, np.inf)
                t_hi = np.where(s < -TOL, (UB - xB) / (-s), np.inf)
            t_basic = np.minimum(t_lo, t_hi)
            r = int(np.argmin(t_basic))
            t_flip = U[q] - L[q]
            if t_flip <= t_basic[r]:
                at_upper[q] = not at_upper[q]
            else:
                leaving = pivot(r, q)
                if leaving is False:
                    return None
                at_upper[leaving] = s[r] < 0
            xB, y, d = state()
            iters += 1
        else:
            return None

        x = np.where(at_upper, U, L)
        x[is_basic] = 0.0
        x[basis] = xB
        value = float(self.c @ x)
        return x[:self.n], np.maximum(y, 0.0), value, (basis, at_upper), iters

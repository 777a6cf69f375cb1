"""Exact rational linear programming by integer-pivoting simplex.

Solves max c.x subject to A x <= b, x >= 0 with integer (or rational) data,
entirely in exact arithmetic.  The tableau is kept as an integer matrix with
a single positive denominator q (true value = entry / q); pivoting uses the
fraction-free two-step rule

    T'[i][j] = (T[i][j] * T[r][c] - T[i][c] * T[r][j]) // q

whose divisions are exact (integer pivoting, as in lrs).  Entries stay the
size of minors of the input, so arbitrary-precision integers keep the solve
both exact and reasonably fast.

Pivot selection is Dantzig's rule with a permanent switch to Bland's rule
once the objective stalls, which guarantees termination.  All tie-breaks are
by lowest index, so results are fully deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

#: pivots without objective improvement before switching to Bland's rule
STALL_LIMIT = 50


def _scale_row_to_int(coeffs, rhs):
    """Clear denominators of one constraint row; returns (int coeffs, int rhs)."""
    values = [Fraction(v) for v in coeffs] + [Fraction(rhs)]
    denom = 1
    for v in values:
        denom = denom * v.denominator // gcd(denom, v.denominator)
    ints = [int(v * denom) for v in values]
    return ints[:-1], ints[-1]


class ExactSimplex:
    """One LP instance: max c.x, A x <= b, x >= 0, exact arithmetic."""

    def __init__(self, a_rows, b, c):
        self.m = len(a_rows)
        self.nvars = len(c)
        rows = []
        rhs = []
        for coeffs, beta in zip(a_rows, b):
            if len(coeffs) != self.nvars:
                raise ValueError("ragged constraint matrix")
            ic, ib = _scale_row_to_int(coeffs, beta)
            rows.append(ic)
            rhs.append(ib)
        cf = [Fraction(v) for v in c]
        denom = 1
        for v in cf:
            denom = denom * v.denominator // gcd(denom, v.denominator)
        self.obj_scale = denom  # objective stored as c*denom; value unscaled at exit
        cint = [int(v * denom) for v in cf]

        n, m = self.nvars, self.m
        ncols = n + m + 1  # structurals, slacks, rhs
        # row 0: objective (z - c x = 0); rows 1..m: A x + s = b
        self.T: list[list[int]] = []
        self.T.append([-cint[j] for j in range(n)] + [0] * m + [0])
        for i in range(m):
            row = rows[i] + [0] * m + [rhs[i]]
            row[n + i] = 1
            self.T.append(row)
        self.q = 1
        self.basis = [n + i for i in range(m)]  # basis var of row i+1
        self.ncols = ncols
        self.artificial_from = None  # first artificial column index, if any
        self.status = None
        self.pivots = 0

    # -- accessors ---------------------------------------------------------

    def value(self) -> Fraction:
        return Fraction(self.T[0][-1], self.q * self.obj_scale)

    def point(self) -> list[Fraction]:
        x = [Fraction(0)] * self.nvars
        for i, var in enumerate(self.basis):
            if var < self.nvars:
                x[var] = Fraction(self.T[i + 1][-1], self.q)
        return x

    # -- pivoting ----------------------------------------------------------

    def _pivot(self, r: int, c: int):
        T = self.T
        q = self.q
        prow = T[r]
        pval = prow[c]
        for i in range(len(T)):
            if i == r:
                continue
            row = T[i]
            f = row[c]
            if f == 0:
                if pval != q:
                    T[i] = [v * pval // q for v in row]
            else:
                T[i] = [(v * pval - f * pv) // q for v, pv in zip(row, prow)]
        if pval < 0:
            # only pivoting an artificial out of the basis picks a negative
            # element; negate everything so that the sign tests stay valid
            for i, row in enumerate(T):
                T[i] = [-v for v in row]
            pval = -pval
        self.q = pval
        self.basis[r - 1] = c
        self.pivots += 1

    def _ratio_leave(self, c: int) -> int | None:
        """Leaving row for entering column c; None when unbounded."""
        T = self.T
        best = None
        best_num = best_den = 0
        for i in range(1, self.m + 1):
            a = T[i][c]
            if a <= 0:
                continue
            num, den = T[i][-1], a
            if best is None:
                better = True
            else:
                diff = num * best_den - best_num * den
                better = diff < 0 or (diff == 0 and self.basis[i - 1] < self.basis[best - 1])
            if better:
                best, best_num, best_den = i, num, den
        return best

    def _run(self, obj_row: int, allowed_cols) -> str:
        """Primal simplex on the given objective row; returns status."""
        T = self.T
        stall = 0
        bland = False
        last_value = Fraction(T[obj_row][-1], self.q)
        while True:
            enter = None
            if bland:
                for j in allowed_cols:
                    if T[obj_row][j] < 0:
                        enter = j
                        break
            else:
                best = 0
                for j in allowed_cols:
                    v = T[obj_row][j]
                    if v < best:
                        best = v
                        enter = j
            if enter is None:
                return OPTIMAL
            leave = self._ratio_leave(enter)
            if leave is None:
                return UNBOUNDED
            self._pivot(leave, enter)
            value = Fraction(T[obj_row][-1], self.q)
            if value > last_value:
                last_value = value
                stall = 0
            else:
                stall += 1
                if stall >= STALL_LIMIT:
                    bland = True

    def solve(self) -> str:
        n, m = self.nvars, self.m
        negative = [i for i in range(1, m + 1) if self.T[i][-1] < 0]
        if negative:
            self._phase_one(negative)
            if self.status == INFEASIBLE:
                return self.status
        cols = list(range(self.ncols - 1))
        if self.artificial_from is not None:
            cols = [j for j in cols if j < self.artificial_from]
        self.status = self._run(0, cols)
        return self.status

    def _phase_one(self, negative_rows):
        n, m = self.nvars, self.m
        art_from = self.ncols - 1
        n_art = len(negative_rows)
        # append artificial columns before the rhs column
        for i in range(len(self.T)):
            rhs = self.T[i].pop()
            self.T[i].extend([0] * n_art)
            self.T[i].append(rhs)
        w_row = [0] * (art_from + n_art + 1)
        for k, i in enumerate(negative_rows):
            self.T[i] = [-v for v in self.T[i]]
            self.T[i][art_from + k] = self.q  # true coefficient 1
            self.basis[i - 1] = art_from + k
            w_row = [w - v for w, v in zip(w_row, self.T[i])]
            w_row[art_from + k] = 0
        self.T.append(w_row)
        self.ncols = art_from + n_art + 1
        self.artificial_from = art_from
        w_index = len(self.T) - 1

        status = self._run(w_index, list(range(art_from)))
        w_value = Fraction(self.T[w_index][-1], self.q)
        self.T.pop()
        if status != OPTIMAL or w_value < 0:
            self.status = INFEASIBLE
            return
        # pivot remaining artificials out of the basis where possible
        for i in range(1, m + 1):
            if self.basis[i - 1] >= art_from:
                col = next((j for j in range(art_from) if self.T[i][j] != 0), None)
                if col is not None:
                    self._pivot(i, col)
        self.status = None

    # -- Gomory fractional cuts ---------------------------------------------

    def gomory_cuts(self, max_cuts: int) -> list[tuple[list[Fraction], Fraction]]:
        """Cuts (g, g0) meaning sum g[j] x_j <= g0, valid for all integer
        feasible points, violated by the current fractional optimum.

        Derived from tableau rows with fractional basic values; tableau slack
        variables are substituted back via s_i = b_i - A_i x, so the returned
        cuts involve structural variables only.  Rows are scanned in a
        deterministic order of decreasing fractional part, lowest row first
        on ties.
        """
        if self.status != OPTIMAL:
            raise ValueError("cuts require an optimal tableau")
        n, m = self.nvars, self.m
        candidates = []
        for i in range(1, m + 1):
            if self.basis[i - 1] >= n:
                continue  # slack basic rows never cut structurals fractionally
            val = Fraction(self.T[i][-1], self.q)
            frac = val - (val.numerator // val.denominator)
            if frac != 0:
                candidates.append((-frac, i))
        candidates.sort()
        cuts = []
        for _, i in candidates[:max_cuts]:
            row = self.T[i]
            # tableau row: x_B(i) + sum_nonbasic abar_j t_j = bbar
            gx = [Fraction(0)] * n
            gs = [Fraction(0)] * m
            basic_here = set(self.basis)
            for j in range(n):
                if j in basic_here:
                    continue
                a = Fraction(row[j], self.q)
                gx[j] = a - (a.numerator // a.denominator)
            for k in range(m):
                j = n + k
                if j in basic_here:
                    continue
                a = Fraction(row[j], self.q)
                gs[k] = a - (a.numerator // a.denominator)
            bbar = Fraction(row[-1], self.q)
            g0 = bbar - (bbar.numerator // bbar.denominator)
            # cut: sum gx x + sum gs s >= g0 with s = b - A x
            # =>  sum (gx - gs.A) x >= g0 - gs.b
            coeffs = list(gx)
            rhs = g0
            for k in range(m):
                if gs[k] == 0:
                    continue
                arow = self.original_row(k)
                for j in range(n):
                    coeffs[j] -= gs[k] * arow[0][j]
                rhs -= gs[k] * arow[1]
            # as <=: -coeffs . x <= -rhs
            cuts.append(([-v for v in coeffs], -rhs))
        return cuts

    def set_original(self, a_rows, b):
        """Remember the original (unscaled) rows for cut back-substitution."""
        self._orig = ([list(map(Fraction, row)) for row in a_rows],
                      [Fraction(v) for v in b])

    def original_row(self, k: int):
        return self._orig[0][k], self._orig[1][k]


def solve_lp(a_rows, b, c):
    """Convenience wrapper; returns (status, value, point)."""
    sx = ExactSimplex(a_rows, b, c)
    status = sx.solve()
    if status != OPTIMAL:
        return status, None, None
    return status, sx.value(), sx.point()

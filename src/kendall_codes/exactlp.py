"""Exact linear programming by integer-pivoting simplex.

Solves max c.x subject to A x <= b, x >= 0 for integer A, b and c with
b >= 0, entirely in exact arithmetic.  Since b >= 0 the slack basis is
feasible, so a single primal phase starts from it.  The tableau is kept as
an integer matrix with a single positive denominator q (true value =
entry / q); pivoting uses the fraction-free two-step rule

    T'[i][j] = (T[i][j] * T[r][c] - T[i][c] * T[r][j]) // q

whose divisions are exact (integer pivoting, as in lrs).  The ratio test
only picks positive pivots, so q stays positive.  Entries stay the size of
minors of the input, so arbitrary-precision integers keep the solve both
exact and reasonably fast.

Pivot selection is Dantzig's rule with a permanent switch to Bland's rule
once the objective stalls, which guarantees termination.  All tie-breaks are
by lowest index, so results are fully deterministic.
"""

from __future__ import annotations

import numbers
import time
from fractions import Fraction
from itertools import chain

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
TIME_LIMIT = "time-limit"

#: pivots without objective improvement before switching to Bland's rule
STALL_LIMIT = 50


class ExactSimplex:
    """One LP instance: max c.x, A x <= b, x >= 0, exact arithmetic."""

    def __init__(self, a_rows, b, c):
        """Raises ValueError for a coordinate that is not a numbers.Integral,
        a ragged matrix, or a negative entry of b: integer pivoting is exact
        only on integers, and the slack basis is feasible only for b >= 0."""
        self.m = len(a_rows)
        self.nvars = len(c)
        if len(b) != self.m or any(len(row) != self.nvars for row in a_rows):
            raise ValueError("ragged constraint matrix")
        for v in chain(c, b, *a_rows):
            if not isinstance(v, numbers.Integral):
                raise ValueError(f"coordinate {v!r} is not an integer")
        if any(v < 0 for v in b):
            raise ValueError("the right-hand side b must be nonnegative")

        n, m = self.nvars, self.m
        self.ncols = n + m + 1  # structurals, slacks, rhs
        # row 0: objective (z - c x = 0); rows 1..m: A x + s = b
        self.T: list[list[int]] = [[-int(v) for v in c] + [0] * (m + 1)]
        for i, (coeffs, beta) in enumerate(zip(a_rows, b)):
            row = [int(v) for v in coeffs] + [0] * m + [int(beta)]
            row[n + i] = 1
            self.T.append(row)
        self.q = 1
        self.basis = [n + i for i in range(m)]  # basis var of row i+1
        self.status = None
        self.pivots = 0

    # -- accessors ---------------------------------------------------------

    def value(self) -> Fraction:
        return Fraction(self.T[0][-1], self.q)

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

    def solve(self, deadline: float | None = None) -> str:
        """Primal simplex from the slack basis; returns and records the status.

        With a deadline (a time.monotonic() value) the clock is read once per
        pivot, and the solve stops with TIME_LIMIT once it has passed.
        """
        cols = range(self.ncols - 1)
        stall = 0
        bland = False
        last_value = self.value()
        while True:
            if deadline is not None and time.monotonic() > deadline:
                self.status = TIME_LIMIT
                return self.status
            obj = self.T[0]
            enter = None
            if bland:
                enter = next((j for j in cols if obj[j] < 0), None)
            else:
                best = 0
                for j in cols:
                    if obj[j] < best:
                        best = obj[j]
                        enter = j
            if enter is None:
                self.status = OPTIMAL
                return self.status
            leave = self._ratio_leave(enter)
            if leave is None:
                self.status = UNBOUNDED
                return self.status
            self._pivot(leave, enter)
            value = self.value()
            if value > last_value:
                last_value = value
                stall = 0
            else:
                stall += 1
                if stall >= STALL_LIMIT:
                    bland = True

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


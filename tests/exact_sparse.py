"""Exact sparse matrix sums and products for the seminormal checks, the
exact references for the seminormal generators, the blocks and their
invariant form, and their reduction mod p.

A matrix is a dict of rows {i: {j: value}} holding only nonzero entries, so
two matrices are equal exactly when their dicts are.  A seminormal generator
has at most two nonzeros per row, so a product with one costs O(dim) exact
operations instead of the O(dim^3) of a dense product.
"""

from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from kendall_codes import young


def sparse(entries) -> dict:
    """Dict of rows from an {(i, j): value} entry map, zeros dropped."""
    rows: dict = {}
    for (i, j), v in entries.items():
        if v:
            rows.setdefault(i, {})[j] = v
    return rows


def identity(dim: int) -> dict:
    return {i: {i: 1} for i in range(dim)}


def add(a: dict, b: dict) -> dict:
    out = {i: dict(row) for i, row in a.items()}
    for i, brow in b.items():
        acc = out.setdefault(i, {})
        for j, w in brow.items():
            acc[j] = acc.get(j, 0) + w
    return sparse({(i, j): v for i, row in out.items() for j, v in row.items()})


def matmul(a: dict, b: dict) -> dict:
    out = {}
    for i, arow in a.items():
        acc: dict = {}
        for k, v in arow.items():
            for j, w in b.get(k, {}).items():
                acc[j] = acc.get(j, 0) + v * w
        acc = {j: v for j, v in acc.items() if v}
        if acc:
            out[i] = acc
    return out


def seminormal_generators(shape) -> list:
    """Young's seminormal matrix of every generator (i, i+1), i = 1..n-1, as
    {(i, j): Fraction} entry maps on the tableaux of young.enumerate_syt in
    their order, by a loop over the tableau tuples.

    Entries i and i+1 in one row give the diagonal +1, in one column -1;
    otherwise t pairs with t' = s_i t, and for the axial distance
    d = content(i+1) - content(i) > 0 on t the 2x2 block is 1/d at (t, t),
    1 - 1/d^2 at (t, t'), 1 at (t', t) and -1/d at (t', t').
    """
    tableaux = young.enumerate_syt(shape)
    index = {t: k for k, t in enumerate(tableaux)}
    generators = []
    for i in range(1, sum(shape)):
        entries = {}
        for k, t in enumerate(tableaux):
            (r1, c1), (r2, c2) = t[i - 1], t[i]
            d = (c2 - r2) - (c1 - r1)
            if abs(d) == 1:
                entries[k, k] = Fraction(d)
            elif d > 0:
                cells = list(t)
                cells[i - 1], cells[i] = cells[i], cells[i - 1]
                kp = index[tuple(cells)]
                entries[k, k] = Fraction(1, d)
                entries[k, kp] = 1 - Fraction(1, d * d)
                entries[kp, k] = Fraction(1)
                entries[kp, kp] = Fraction(-1, d)
        generators.append(entries)
    return generators


def seminormal_reference(shape) -> dict:
    """T-hat of the shape, the identity plus every seminormal generator
    (seminormal_generators), as an {(i, j): Fraction} entry map, zeros
    dropped: the reference for the array pass of young.irrep_T_matrix."""
    total = {(k, k): Fraction(1) for k in range(young.hook_length_dimension(shape))}
    for entries in seminormal_generators(shape):
        for key, value in entries.items():
            total[key] = total.get(key, 0) + value
    return {key: value for key, value in total.items() if value != 0}


def reduced(dim: int, entries, p: int) -> sp.csr_matrix:
    """An {(i, j): rational} entry map mod p as a dim x dim int64 CSR of
    residues in [0, p), zeros dropped; ValueError when a denominator
    vanishes mod p."""
    residues = {}
    for key, value in entries.items():
        value = Fraction(value)
        r = value.numerator * pow(value.denominator, -1, p) % p
        if r:
            residues[key] = r
    rows = [i for i, _ in residues]
    cols = [j for _, j in residues]
    return sp.csr_matrix((np.array(list(residues.values()), dtype=np.int64), (rows, cols)),
                         shape=(dim, dim))


def invariant_form(dim: int, t_hat: dict) -> list:
    """The positive diagonal W with W T-hat symmetric, over Q, from T-hat's
    own 2x2 pairs: W_t' = W_t T[t, t'] / T[t', t], walked breadth-first from
    W_0 = 1 over the off-diagonal entries.  Raises ValueError unless every
    W_t is set and W T-hat is exactly symmetric.  The exact reference for
    young.irrep_WT_matrix, which computes W T-hat mod p from a closed form
    of W.
    """
    linked = [[] for _ in range(dim)]
    for i, j in t_hat:
        if i != j:
            linked[i].append(j)
    w = [None] * dim
    w[0] = Fraction(1)
    queue = [0]
    for i in queue:
        for j in linked[i]:
            if w[j] is None and t_hat.get((j, i)):
                w[j] = w[i] * t_hat[i, j] / t_hat[j, i]
                queue.append(j)
    if None in w or any(w[i] * value != w[j] * t_hat.get((j, i), 0)
                        for (i, j), value in t_hat.items()):
        raise ValueError("T-hat has no diagonal W with W T-hat symmetric")
    return w

"""Number partitions, Young tabloids, coset-action matrices and seminormal irreps.

A tabloid of shape lambda = (l_1 >= ... >= l_m), sum n, is an ordered tuple of
disjoint blocks partitioning [n] with |block_i| = l_i.  Its canonical form is
the assignment vector a where a[x-1] is the block index (1-based) of element
x; tabloids are indexed in lexicographic order of assignment vectors.  Blocks
of equal size in different tuple positions are distinct tabloids, so counts
are multinomials (90 tabloids for shape (2,2,2)).

The action-matrix entry (i, j) counts generators in T = {adjacent
transpositions} + {1} mapping tabloid i to tabloid j; this is the constraint
matrix of the coset integer program and the obstruction matrix for 1-perfect
codes.

Irreducible representations are realized in Young's seminormal form with
exact rational entries (the orthogonal form needs square roots, which would
break mod-p reduction).  T-hat, the identity plus every generator matrix, is
built from a single enumeration of the standard tableaux.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import factorial

import numpy as np
import scipy.sparse as sp

from kendall_codes.perms import (
    GeneratorSet,
    Permutation,
    compose,
)
from kendall_codes.perms import inverse as perm_inverse

NumberPartition = tuple[int, ...]

#: absolute ceiling on the number of tabloids (sparse construction)
SPARSE_TABLOID_LIMIT = 10_000_000
#: ceiling on irreducible dimensions, read at each call
IRREP_DIMENSION_LIMIT = 100_000


class DimensionLimitError(ValueError):
    """Raised when a matrix would exceed the configured size limit."""


def check_partition(shape) -> NumberPartition:
    parts = tuple(int(x) for x in shape)
    if not parts:
        raise ValueError("partition must be nonempty")
    if any(x < 1 for x in parts):
        raise ValueError(f"partition parts must be positive: {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"partition parts must be non-increasing: {parts}")
    return parts


def partition_n(shape: NumberPartition) -> int:
    return sum(shape)


def young_subgroup_order(shape) -> int:
    shape = check_partition(shape)
    return reduce(lambda a, b: a * b, (factorial(x) for x in shape), 1)


def tabloid_count(shape) -> int:
    """Multinomial n!/(l_1! ... l_m!) = index of the Young subgroup."""
    shape = check_partition(shape)
    return factorial(partition_n(shape)) // young_subgroup_order(shape)


Tabloid = tuple[int, ...]  # assignment vector: element x -> block index


def reference_tabloid(shape) -> Tabloid:
    """Blocks {1..l_1}, {l_1+1..l_1+l_2}, ... as an assignment vector."""
    shape = check_partition(shape)
    assignment = []
    for block, size in enumerate(shape, start=1):
        assignment.extend([block] * size)
    return tuple(assignment)


def enumerate_tabloids(shape, limit: int = SPARSE_TABLOID_LIMIT) -> list[Tabloid]:
    """All tabloids of the shape, sorted lexicographically by assignment vector."""
    shape = check_partition(shape)
    count = tabloid_count(shape)
    if count > limit:
        raise DimensionLimitError(f"{count} tabloids exceeds limit {limit}")
    n = partition_n(shape)
    out: list[Tabloid] = []
    _fill_tabloids(shape, n, 1, tuple(range(1, n + 1)), {}, out)
    out.sort()
    return out


def _fill_tabloids(shape, n: int, block: int, remaining: tuple[int, ...],
                   assignment: dict[int, int], out: list[Tabloid]) -> None:
    """Append to out every tabloid that extends assignment by placing the
    elements of remaining into blocks block, block + 1, ...

    A module-level function rather than a recursive closure: a closure that
    calls itself forms a reference cycle with its cell, which would keep out
    alive until the cyclic garbage collector runs.
    """
    m = len(shape)
    if block > m:
        out.append(tuple(assignment[x] for x in range(1, n + 1)))
        return
    if block == m:
        for x in remaining:
            assignment[x] = block
        _fill_tabloids(shape, n, m + 1, (), assignment, out)
        return
    for chosen in combinations(remaining, shape[block - 1]):
        for x in chosen:
            assignment[x] = block
        rest = tuple(x for x in remaining if x not in set(chosen))
        _fill_tabloids(shape, n, block + 1, rest, assignment, out)


def act(t: Tabloid, sigma: Permutation) -> Tabloid:
    """Blockwise image: element sigma(x) joins the block x was in.

    Right action: act(act(t, g), h) = act(t, compose(g, h)).
    """
    if len(t) != len(sigma):
        raise ValueError("size mismatch between tabloid and permutation")
    image = [0] * len(t)
    for x, block in enumerate(t):
        image[sigma[x] - 1] = block
    return tuple(image)


@dataclass(frozen=True)
class ActionMatrix:
    """Matrix of T = {(i,i+1)} + {1} acting on the tabloids of a shape.

    Every row sums to n, the matrix is symmetric (T is inverse-closed and
    contains 1) and diagonal entries are >= 1 (the identity fixes every
    tabloid).
    """

    n: int
    shape: NumberPartition
    dim: int
    entries: sp.csr_matrix  # dim x dim, nonnegative integers

    def to_dense(self) -> list[list[int]]:
        return [[int(v) for v in row] for row in self.entries.toarray()]

    def row_sums(self) -> list[int]:
        return [int(v) for v in np.asarray(self.entries.sum(axis=1)).ravel()]

    def is_symmetric(self) -> bool:
        return (self.entries != self.entries.T).nnz == 0


def build_action_matrix(n: int, shape,
                        limit: int = SPARSE_TABLOID_LIMIT) -> ActionMatrix:
    """Entry (i, j) = #{s in T : act(t_i, s) = t_j}."""
    shape = check_partition(shape)
    if partition_n(shape) != n:
        raise ValueError(f"shape {shape} is not a partition of {n}")
    tabloids = enumerate_tabloids(shape, limit)
    index = {t: i for i, t in enumerate(tabloids)}
    gens = list(GeneratorSet(n, include_identity=True))
    dim = len(tabloids)
    rows = []
    cols = []
    for i, t in enumerate(tabloids):
        for s in gens:
            rows.append(i)
            cols.append(index[act(t, s)])
    data = np.ones(len(rows), dtype=np.int64)
    mat = sp.csr_matrix((data, (rows, cols)), shape=(dim, dim), dtype=np.int64)
    mat.sum_duplicates()
    return ActionMatrix(n=n, shape=shape, dim=dim, entries=mat)


def double_coset_oracle(n: int, shape, i: int, j: int) -> int:
    """Entry (i, j) by explicit double-coset counting: |T ^ a_i^-1 H a_j|.

    Enumerates the Young subgroup H of the reference tabloid and coset
    representatives a_k with act(ref, a_k) = t_k.  Independent check of
    :func:`build_action_matrix`; intended for n <= 6.
    """
    if n > 6:
        raise ValueError("double-coset oracle is limited to n <= 6")
    shape = check_partition(shape)
    if partition_n(shape) != n:
        raise ValueError(f"shape {shape} is not a partition of {n}")
    from itertools import permutations as iperms

    ref = reference_tabloid(shape)
    tabloids = enumerate_tabloids(shape)
    h_members = []
    reps: dict[Tabloid, Permutation] = {}
    for g in iperms(range(1, n + 1)):
        image = act(ref, g)
        if image == ref:
            h_members.append(g)
        if image not in reps:
            reps[image] = g
    a_i = reps[tabloids[i]]
    a_j = reps[tabloids[j]]
    gens = set(GeneratorSet(n, include_identity=True))
    a_i_inv = perm_inverse(a_i)
    count = 0
    for h in h_members:
        # a_i^-1 * h * a_j under apply-left-then-right composition
        g = compose(compose(a_i_inv, h), a_j)
        if g in gens:
            count += 1
    return count


def tridiagonal_reference(n: int) -> ActionMatrix:
    """The explicit n x n path matrix: diagonal (n-1, n-2, ..., n-2, n-1),
    unit off-diagonals."""
    if n < 2:
        raise ValueError("need n >= 2")
    diag = [n - 2] * n
    diag[0] = diag[-1] = n - 1
    mat = sp.diags([np.ones(n - 1), diag, np.ones(n - 1)], [-1, 0, 1],
                   dtype=np.int64).tocsr()
    return ActionMatrix(n=n, shape=(n - 1, 1), dim=n, entries=mat)


def permutation_similar_to_path(a: ActionMatrix, b: ActionMatrix) -> bool:
    """True iff relabeling a's indices turns it into the path matrix b.

    b must be tridiagonal with a connected path of off-diagonal nonzeros.
    Decided structurally: find a's path endpoints (rows with exactly one
    off-diagonal nonzero), traverse, compare weights forward and reversed.
    """
    if a.dim != b.dim:
        return False
    bd = b.entries.toarray()
    dim = b.dim
    for i in range(dim):
        for j in range(dim):
            if abs(i - j) > 1 and bd[i][j] != 0:
                raise ValueError("reference matrix is not tridiagonal")
    if dim > 1 and any(bd[i][i + 1] == 0 or bd[i + 1][i] == 0 for i in range(dim - 1)):
        raise ValueError("reference matrix is not a connected path")

    ad = a.entries.toarray()
    neighbors = [[j for j in range(dim) if j != i and ad[i][j] != 0]
                 for i in range(dim)]
    if dim == 1:
        return ad[0][0] == bd[0][0]
    endpoints = [i for i in range(dim) if len(neighbors[i]) == 1]
    if len(endpoints) != 2 or any(len(nb) > 2 for nb in neighbors):
        return False

    def walk(start: int) -> list[int] | None:
        path = [start]
        prev = -1
        cur = start
        while len(path) < dim:
            nxt = [j for j in neighbors[cur] if j != prev]
            if len(nxt) != 1:
                return None
            prev, cur = cur, nxt[0]
            path.append(cur)
        return path

    for start in endpoints:
        path = walk(start)
        if path is None or len(set(path)) != dim:
            continue
        if all(ad[path[i]][path[i]] == bd[i][i] for i in range(dim)) and \
           all(ad[path[i]][path[i + 1]] == bd[i][i + 1]
               and ad[path[i + 1]][path[i]] == bd[i + 1][i]
               for i in range(dim - 1)):
            return True
    return False


# ---------------------------------------------------------------------------
# dominance order and constituents

def dominance_geq(lam, mu) -> bool:
    """True iff every prefix sum of lam is >= the corresponding one of mu."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    if partition_n(lam) != partition_n(mu):
        raise ValueError("partitions of different n are incomparable")
    acc_l = acc_m = 0
    for k in range(max(len(lam), len(mu))):
        acc_l += lam[k] if k < len(lam) else 0
        acc_m += mu[k] if k < len(mu) else 0
        if acc_l < acc_m:
            return False
    return True


def all_partitions(n: int) -> list[NumberPartition]:
    """All partitions of n in descending lexicographic order."""
    out: list[NumberPartition] = []

    def gen(remaining: int, maxpart: int, prefix: list[int]):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(maxpart, remaining), 0, -1):
            prefix.append(part)
            gen(remaining - part, part, prefix)
            prefix.pop()

    gen(n, n, [])
    return out


def constituents_dominating(mu) -> list[NumberPartition]:
    """All partitions of n dominating mu, in descending lexicographic order.

    By Young's rule these index the irreducible constituents of the tabloid
    permutation module of shape mu.
    """
    mu = check_partition(mu)
    n = partition_n(mu)
    return [lam for lam in all_partitions(n) if dominance_geq(lam, mu)]


_S15_LIST = (
    (15,), (14, 1), (13, 2), (13, 1, 1), (12, 3), (12, 2, 1), (11, 4),
    (8, 7), (10, 5), (11, 2, 2), (9, 6), (11, 3, 1), (7, 7, 1), (5, 5, 5),
    (10, 4, 1), (10, 3, 2), (9, 5, 1), (8, 6, 1), (9, 3, 3), (9, 2, 2, 2),
    (6, 6, 3), (9, 4, 2), (4, 4, 4, 3), (7, 6, 2), (7, 4, 4), (6, 5, 4),
    (8, 5, 2), (8, 4, 3), (7, 5, 3), (6, 3, 3, 3), (8, 3, 2, 2),
    (5, 4, 4, 2), (7, 3, 3, 2), (5, 5, 3, 2), (6, 5, 2, 2), (7, 4, 2, 2),
    (6, 4, 3, 2),
)


def published_s15_list() -> list[NumberPartition]:
    """The published 37-partition constituent list for shape (4,4,4,3) of 15.

    Note: the computed dominance set :func:`constituents_dominating` is a
    strict superset (e.g. (5,4,3,3) and (12,1,1,1) also dominate (4,4,4,3));
    callers should compare the two and report the difference rather than
    assume they coincide.
    """
    return [check_partition(lam) for lam in _S15_LIST]


# ---------------------------------------------------------------------------
# standard Young tableaux and the seminormal form

# A tableau is stored as cell_of: tuple over entries 1..n of (row, col), 0-based.
StandardYoungTableau = tuple[tuple[int, int], ...]


def hook_length_dimension(shape) -> int:
    """n! divided by the product of the hook lengths."""
    shape = check_partition(shape)
    n = partition_n(shape)
    cols = [0] * shape[0]
    for row_len in shape:
        for c in range(row_len):
            cols[c] += 1
    hooks = 1
    for r, row_len in enumerate(shape):
        for c in range(row_len):
            hooks *= (row_len - c) + (cols[c] - r) - 1
    return factorial(n) // hooks


def enumerate_syt(shape) -> list[StandardYoungTableau]:
    """All standard Young tableaux of the shape, in last-letter order."""
    shape = check_partition(shape)
    dim = hook_length_dimension(shape)
    if dim > IRREP_DIMENSION_LIMIT:
        raise DimensionLimitError(f"dimension {dim} exceeds limit {IRREP_DIMENSION_LIMIT}")
    n = partition_n(shape)
    m = len(shape)
    out: list[StandardYoungTableau] = []
    cells: list[tuple[int, int] | None] = [None] * n
    row_fill = [0] * m

    def place(k: int):
        if k > n:
            out.append(tuple(cells))  # type: ignore[arg-type]
            return
        for r in range(m):
            c = row_fill[r]
            if c < shape[r] and (r == 0 or row_fill[r - 1] > c):
                cells[k - 1] = (r, c)
                row_fill[r] += 1
                place(k + 1)
                row_fill[r] -= 1
        cells[k - 1] = None

    place(1)
    # last-letter order: compare rows of n, then n-1, ...
    out.sort(key=lambda t: tuple(t[k][0] for k in range(n - 1, -1, -1)))
    return out


def _axial_distance(t: StandardYoungTableau, i: int) -> int:
    """content(i+1) - content(i) where content = col - row."""
    r1, c1 = t[i - 1]
    r2, c2 = t[i]
    return (c2 - r2) - (c1 - r1)


def _swap_entries(t: StandardYoungTableau, i: int) -> StandardYoungTableau:
    cells = list(t)
    cells[i - 1], cells[i] = cells[i], cells[i - 1]
    return tuple(cells)


def _seminormal_entries(tableaux: list[StandardYoungTableau],
                        index: dict[StandardYoungTableau, int], i: int):
    """Yield ((row, col), value) for Young's seminormal matrix of (i, i+1).

    On a basis tableau t: entries i, i+1 in the same row give a +1 diagonal,
    same column -1; otherwise t pairs with t' = t with i, i+1 swapped and the
    2x2 block is determined by the axial distance d:
    (taking d > 0 on t) M[t][t] = 1/d, M[t][t'] = 1 - 1/d^2, M[t'][t] = 1,
    M[t'][t'] = -1/d.  Every position is yielded at most once.
    """
    for k, t in enumerate(tableaux):
        d = _axial_distance(t, i)
        if abs(d) == 1:
            # same row (+1) or same column (-1); partner is not standard
            yield (k, k), Fraction(d)
        elif d > 0:  # d < 0 is handled from the other member of the pair
            kp = index[_swap_entries(t, i)]
            yield (k, k), Fraction(1, d)
            yield (k, kp), 1 - Fraction(1, d * d)
            yield (kp, k), Fraction(1)
            yield (kp, kp), Fraction(-1, d)


def seminormal_generator(shape, i: int) -> dict[tuple[int, int], Fraction]:
    """Young's seminormal matrix for the generator (i, i+1) on shape.

    Sparse dict of exact rationals on the SYT basis in last-letter order; at
    most two nonzeros per row; the matrix squares to the identity.
    """
    shape = check_partition(shape)
    n = partition_n(shape)
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index must be in 1..{n - 1}, got {i}")
    tableaux = enumerate_syt(shape)
    index = {t: k for k, t in enumerate(tableaux)}
    return dict(_seminormal_entries(tableaux, index, i))


def irrep_T_matrix(shape) -> dict[tuple[int, int], Fraction]:
    """Identity plus the sum of all seminormal generator matrices.

    Sparse dict of exact rationals; at most 2(n-1)+1 nonzeros per row.  The
    tableaux are enumerated once and every generator is added in one pass.
    """
    shape = check_partition(shape)
    tableaux = enumerate_syt(shape)
    index = {t: k for k, t in enumerate(tableaux)}
    total: dict[tuple[int, int], Fraction] = {
        (k, k): Fraction(1) for k in range(len(tableaux))}
    for i in range(1, partition_n(shape)):
        for key, value in _seminormal_entries(tableaux, index, i):
            total[key] = total.get(key, Fraction(0)) + value
    return {key: value for key, value in total.items() if value != 0}


# ---------------------------------------------------------------------------
# matrix export

def matrix_market_lines(mat: sp.spmatrix):
    """Matrix Market coordinate format, integer general, 1-based indices."""
    coo = mat.tocoo()
    yield "%%MatrixMarket matrix coordinate integer general"
    yield f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}"
    order = np.lexsort((coo.col, coo.row))
    for k in order:
        yield f"{coo.row[k] + 1} {coo.col[k] + 1} {int(coo.data[k])}"


def write_matrix_market(mat: sp.spmatrix, destination) -> None:
    with open(destination, "w") as fh:
        for line in matrix_market_lines(mat):
            fh.write(line + "\n")


def matrix_json_dense(a: ActionMatrix) -> dict:
    """JSON-ready dense form; refused above dimension 200."""
    if a.dim > 200:
        raise DimensionLimitError("dense JSON export is limited to dim <= 200")
    return {
        "n": a.n,
        "shape": list(a.shape),
        "dim": a.dim,
        "rows": a.to_dense(),
    }

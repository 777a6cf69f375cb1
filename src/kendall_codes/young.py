"""Number partitions, Young tabloids, coset-action matrices and seminormal irreps.

A tabloid of shape lambda = (l_1 >= ... >= l_m), sum n, is an ordered tuple of
disjoint blocks partitioning [n] with |block_i| = l_i.  Its canonical form is
the assignment vector a where a[x-1] is the block index (1-based) of element
x; tabloids are indexed in lexicographic order of assignment vectors.  Blocks
of equal size in different tuple positions are distinct tabloids, so counts
are multinomials (90 tabloids for shape (2,2,2)).

Tabloids and standard tableaux come from one enumeration, _lex_words: a
breadth-first walk over an array of partial words that yields the words in
lexicographic order without a sort.

The action-matrix entry (i, j) counts generators in T = {adjacent
transpositions} + {1} mapping tabloid i to tabloid j; this is the constraint
matrix of the coset integer program and the obstruction matrix for 1-perfect
codes.  For the hook shape (n-1, 1) it is the path matrix
tridiagonal_reference(n) itself: in lexicographic order the singleton sits
at n, n-1, ..., 1.

Irreducible representations are realized in Young's seminormal form (the
orthogonal form needs square roots, which would break mod-p reduction).  One
array pass over the standard tableaux gives the contents, the axial
distance of every generator on every tableau and the partner tableau it
pairs with; T-hat, the identity plus every generator matrix, is read off it
either with exact rational entries or straight mod p as a CSR of residues,
and so is the symmetric W T-hat for the invariant form W (irrep_WT_matrix).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import permutations, product
from math import factorial
from typing import TYPE_CHECKING

import numpy as np

from kendall_codes.perms import (
    Permutation,
    adjacent_transposition,
    compose,
    identity,
)
from kendall_codes.perms import inverse as perm_inverse

if TYPE_CHECKING:
    import scipy.sparse as sp

NumberPartition = tuple[int, ...]

#: tabloid ceiling of enumerate_tabloids and build_action_matrix, read at each call
SPARSE_TABLOID_LIMIT = 10_000_000
#: ceiling on irreducible dimensions, read at each call
IRREP_DIMENSION_LIMIT = 100_000
#: largest dimension of a dense JSON export
DENSE_JSON_LIMIT = 200


class DimensionLimitError(ValueError):
    """Raised when a matrix would exceed its size limit."""


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


def check_shape(n: int, shape) -> NumberPartition:
    """The checked partition (check_partition); ValueError unless it is a
    partition of n."""
    shape = check_partition(shape)
    if partition_n(shape) != n:
        raise ValueError(f"shape {shape} is not a partition of {n}")
    return shape


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


def _lex_words(start, length: int, allowed, step: int) -> np.ndarray:
    """Every word of the given length that the counters allow, as the rows of
    an array, in lexicographic order.

    A partial word is one row and carries m counters, one per letter,
    starting at start.  allowed(counters) marks the (word, letter) pairs
    that may extend a word, and appending letter b adds step to counter b.
    np.nonzero lists the pairs in row-major order, so every step keeps the
    words in lexicographic order with no sort.  Letters are 0, ..., m - 1,
    stored in the smallest unsigned type that holds m.
    """
    counters = np.array([start], dtype=np.int64)
    words = np.empty((1, 0), dtype=np.min_scalar_type(len(start)))
    for _ in range(length):
        parent, letter = np.nonzero(allowed(counters))
        counters = counters[parent]
        counters[np.arange(len(parent)), letter] += step
        words = np.column_stack((words[parent], letter.astype(words.dtype)))
    return words


def _tabloid_array(shape) -> np.ndarray:
    """The tabloids of the shape as the rows of a dim x n array of block
    indices, in lexicographic order: block b may follow while it holds
    fewer than shape[b - 1] elements."""
    shape = check_partition(shape)
    count = tabloid_count(shape)
    if count > SPARSE_TABLOID_LIMIT:
        raise DimensionLimitError(f"{count} tabloids exceeds limit {SPARSE_TABLOID_LIMIT}")
    return _lex_words([0] * len(shape), partition_n(shape),
                      lambda used: used < shape, 1) + 1


def enumerate_tabloids(shape) -> list[Tabloid]:
    """All tabloids of the shape, sorted lexicographically by assignment vector."""
    return [tuple(row) for row in _tabloid_array(shape).tolist()]


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


def _image_index(tabloids: np.ndarray, keys: np.ndarray, columns,
                 labels: np.ndarray | None = None) -> np.ndarray:
    """Index of the image of every tabloid when its columns are permuted and
    then, if labels is given, every block index b is replaced by labels[b].

    Each row of the dim x n array of block indices, read as a string of n
    bytes, is a base-256 code of its tabloid (block indices stay below 256:
    a shape with m parts has at least m! tabloids, so the limit refuses it
    first).  keys holds the codes, sorted because the tabloids are, and a
    binary search of the permuted codes gives the images' indices.
    """
    image = tabloids[:, columns]
    if labels is not None:
        image = labels[image]
    image = np.ascontiguousarray(image)
    return np.searchsorted(keys, image.view(keys.dtype).ravel())


def _tabloid_keys(shape: NumberPartition) -> tuple[np.ndarray, np.ndarray]:
    """The tabloid array of a checked shape and its sorted codes."""
    tabloids = _tabloid_array(shape)
    return tabloids, tabloids.view(f"S{partition_n(shape)}").ravel()


def build_action_matrix(n: int, shape) -> ActionMatrix:
    """Entry (i, j) = #{s in T : act(t_i, s) = t_j}.

    The transposition (x, x+1) swaps columns x-1 and x of the tabloid array
    (_image_index).  Row i of the CSR lists its n images (the identity
    first) with unit weights, and sum_duplicates sorts and merges them into
    counts.
    """
    shape = check_shape(n, shape)
    tabloids, keys = _tabloid_keys(shape)
    dim = len(tabloids)
    cols = np.empty((dim, n), dtype=np.intp)
    cols[:, 0] = np.arange(dim)
    for x in range(1, n):
        swap = np.arange(n)
        swap[[x - 1, x]] = x, x - 1
        cols[:, x] = _image_index(tabloids, keys, swap)
    import scipy.sparse as sp  # local: it loads slower than numpy and this package together
    mat = sp.csr_matrix((np.ones(dim * n, dtype=np.int64), cols.ravel(),
                         np.arange(0, dim * n + 1, n)), shape=(dim, dim))
    mat.sum_duplicates()
    return ActionMatrix(n=n, shape=shape, dim=dim, entries=mat)


def _relabelling(shape: NumberPartition, dtype, swaps) -> np.ndarray:
    """labels[b] for the block relabelling that swaps blocks b and b + 1 for
    each b in swaps; labels[0] is unused."""
    labels = np.arange(len(shape) + 1, dtype=dtype)
    for b in swaps:
        if not (1 <= b < len(shape) and shape[b - 1] == shape[b]):
            raise ValueError(f"blocks {b} and {b + 1} of {shape} are not two blocks of equal size")
        labels[[b, b + 1]] = b + 1, b
    return labels


def image_index(shape, reverse: bool = False, swaps=()) -> np.ndarray:
    """Index of g t for every tabloid t, where g reverses the assignment
    vector if reverse (w0: x -> n + 1 - x) and swaps blocks b and b + 1,
    which must be of equal size, for each b in swaps.

    Such relabellings and w0 commute with the action matrix M: a relabelling
    commutes with every permutation of the elements, and w0 s_x w0 =
    s_(n-x).  So the permutation P: t -> g t satisfies P M P^-1 = M.
    """
    shape = check_partition(shape)
    tabloids, keys = _tabloid_keys(shape)
    n = partition_n(shape)
    columns = np.arange(n)[::-1] if reverse else np.arange(n)
    labels = _relabelling(shape, tabloids.dtype, swaps) if swaps else None
    return _image_index(tabloids, keys, columns, labels)


def involution_classes(shape) -> list[np.ndarray]:
    """One involution per conjugacy class of G = <w0> x prod_k S_(m_k), as
    the index of its image of every tabloid (image_index).

    m_k is the multiplicity of the k-th distinct part size, and S_(m_k)
    relabels the blocks of that size.  An involution of G is w0^r times
    t_k disjoint transpositions in each S_(m_k), and (r, t_1, t_2, ...)
    with 0 <= t_k <= m_k // 2 fixes its class, so there are
    2 prod_k (m_k // 2 + 1) - 1 classes besides the identity; each is
    represented by the swaps (b, b + 1), (b + 2, b + 3), ... at the first
    block b of its run.  A class that fixes every tabloid is left out: w0
    for the shape (n), and w0 with the swap of both blocks for (1, 1).
    """
    shape = check_partition(shape)
    runs = []  # [first block, multiplicity] of each part size
    for b, part in enumerate(shape, start=1):
        if b > 1 and part == shape[b - 2]:
            runs[-1][1] += 1
        else:
            runs.append([b, 1])
    out = []
    for reverse, *counts in product((False, True), *(range(m // 2 + 1) for _, m in runs)):
        swaps = [first + 2 * i for (first, _), t in zip(runs, counts) for i in range(t)]
        index = image_index(shape, reverse, swaps)
        if (index != np.arange(len(index))).any():
            out.append(index)
    return out


def symmetry_generators(shape) -> list[np.ndarray]:
    """Generators of G = <w0> x prod_k S_(m_k) as tabloid images
    (image_index): the reversal w0, and the swap of blocks b and b + 1 for
    every b with shape[b - 1] == shape[b], whose transpositions generate
    each S_(m_k).  Every generator is an involution."""
    shape = check_partition(shape)
    return [image_index(shape, reverse=True)] + [
        image_index(shape, swaps=(b,)) for b in range(1, len(shape))
        if shape[b - 1] == shape[b]]


def group_elements(generators) -> np.ndarray:
    """Every element of the group that the index arrays in generators (of
    one length) generate, as one |G| x dim index array, the identity first.

    Breadth-first closure under h -> h[g] for each generator g, with each
    element keyed by its bytes.
    """
    everything = np.arange(len(generators[0]))
    out, seen = [everything], {everything.tobytes()}
    for h in out:  # out grows while it is walked
        for g in generators:
            k = h[g]
            key = k.tobytes()
            if key not in seen:
                seen.add(key)
                out.append(k)
    return np.array(out)


def orbit_labels(group) -> np.ndarray:
    """Orbit of every tabloid under group, an array of index arrays holding
    every element of a group (group_elements), numbered 0, 1, ... in order
    of each orbit's least tabloid: column t's minimum over the group is the
    least tabloid of t's orbit."""
    return np.unique(np.asarray(group).min(axis=0), return_inverse=True)[1]


def double_coset_oracle(n: int, shape, i: int, j: int) -> int:
    """Entry (i, j) by explicit double-coset counting: |T ^ a_i^-1 H a_j|.

    Enumerates the Young subgroup H of the reference tabloid and coset
    representatives a_k with act(ref, a_k) = t_k.  Independent check of
    :func:`build_action_matrix`; intended for n <= 6.
    """
    if n > 6:
        raise ValueError("double-coset oracle is limited to n <= 6")
    shape = check_shape(n, shape)
    ref = reference_tabloid(shape)
    tabloids = enumerate_tabloids(shape)
    h_members = []
    reps: dict[Tabloid, Permutation] = {}
    for g in permutations(range(1, n + 1)):
        image = act(ref, g)
        if image == ref:
            h_members.append(g)
        if image not in reps:
            reps[image] = g
    a_i = reps[tabloids[i]]
    a_j = reps[tabloids[j]]
    gens = {identity(n)} | {adjacent_transposition(n, k) for k in range(1, n)}
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
    import scipy.sparse as sp
    mat = sp.diags([np.ones(n - 1), diag, np.ones(n - 1)], [-1, 0, 1],
                   dtype=np.int64).tocsr()
    return ActionMatrix(n=n, shape=(n - 1, 1), dim=n, entries=mat)


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
    """All partitions of n in descending lexicographic order.

    A depth-first walk on an explicit stack of (remaining, largest part,
    prefix); the smallest next part is pushed first, so it pops last.
    """
    out: list[NumberPartition] = []
    stack = [(n, n, ())]
    while stack:
        remaining, maxpart, prefix = stack.pop()
        if remaining == 0:
            out.append(prefix)
        stack.extend((remaining - part, part, prefix + (part,))
                     for part in range(1, min(maxpart, remaining) + 1))
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


def _syt_words(shape: NumberPartition) -> np.ndarray:
    """The standard tableaux of a checked shape in last-letter order, as the
    rows of an f x n array: word[k, j] is the row (0-based) of entry n - j
    in tableau k.

    Removing n, n-1, ..., 1 from corners, row r may lose its last cell
    while it is longer than row r+1.  A word lists the rows of n, n-1, ...,
    1, so _lex_words yields them in last-letter order.
    """
    dim = hook_length_dimension(shape)
    if dim > IRREP_DIMENSION_LIMIT:
        raise DimensionLimitError(f"dimension {dim} exceeds limit {IRREP_DIMENSION_LIMIT}")
    return _lex_words(shape, partition_n(shape), lambda left: np.diff(left, append=0) < 0, -1)


def enumerate_syt(shape) -> list[StandardYoungTableau]:
    """All standard Young tableaux of the shape, in last-letter order.

    Within a row the entries increase along the columns, so a stable sort of
    the entries by row lists them in row-major order of their cells.  All
    tableaux share the n cell tuples.
    """
    shape = check_partition(shape)
    rows = _syt_words(shape)[:, ::-1]
    cell_number = np.argsort(np.argsort(rows, axis=1, kind="stable"), axis=1)
    cells = [(r, c) for r, size in enumerate(shape) for c in range(size)]
    return [tuple(map(cells.__getitem__, t)) for t in cell_number.tolist()]


def _seminormal_structure(shape: NumberPartition) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Axial distances and partner tableaux of every generator on every
    standard tableau of a checked shape, as two f x (n-1) arrays, and the
    f x n contents: content[k, x-1] = c(x) = col - row of x in tableau k.

    d[k, i-1] = c(i+1) - c(i) on tableau k.
    d = 1 when i and i+1 share a row and d = -1 when they share a column;
    then s_i t_k is not standard and partner[k, i-1] = k.  Otherwise
    partner[k, i-1] is the index of s_i t_k, the tableau with i and i+1
    swapped.

    Columns come from one sweep over the entries 1..n with a counter per
    (tableau, row), in O(f n) time and memory.  s_i swaps two letters of
    the word.  Each word, read as a string of big-endian letters plus one,
    is a code that sorts like the word (letters are never zero bytes, as in
    _image_index), and a binary search of the swapped codes among the
    sorted codes gives the partners.
    """
    words = _syt_words(shape)
    dim, n = words.shape
    tableau = np.arange(dim)
    used = np.zeros((dim, len(shape)), dtype=np.int64)
    content = np.empty((dim, n), dtype=np.int64)
    for x in range(n):
        row = words[:, n - 1 - x]  # the row of entry x + 1
        content[:, x] = used[tableau, row] - row
        used[tableau, row] += 1
    d = np.diff(content, axis=1)
    codes = np.ascontiguousarray(words + 1, dtype=words.dtype.newbyteorder(">"))
    key = f"S{n * codes.itemsize}"
    keys = codes.view(key).ravel()
    partner = np.repeat(tableau[:, None], n - 1, axis=1)
    for i in range(1, n):
        moved = np.flatnonzero(abs(d[:, i - 1]) > 1)
        image = codes[moved]
        # entries i and i+1 are letters n - i and n - i - 1 of the word
        image[:, [n - i - 1, n - i]] = image[:, [n - i, n - i - 1]]
        partner[moved, i - 1] = np.searchsorted(keys, image.view(key).ravel())
    return d, partner, content


def _seminormal_entries(d: np.ndarray, partner: np.ndarray, i: int):
    """Yield ((row, col), value) for Young's seminormal matrix of (i, i+1),
    from the arrays of _seminormal_structure.

    On a basis tableau t with axial distance d: d = +1 or -1 gives the
    diagonal d; otherwise t pairs with t' = s_i t, whose distance is -d, and
    the 2x2 block (taking d > 0 on t) is M[t][t] = 1/d, M[t][t'] = 1 - 1/d^2,
    M[t'][t] = 1, M[t'][t'] = -1/d.  Each tableau yields its own row, so
    every position is yielded once.
    """
    for k, (dk, kp) in enumerate(zip(d[:, i - 1].tolist(), partner[:, i - 1].tolist())):
        if abs(dk) == 1:
            yield (k, k), Fraction(dk)
        else:
            yield (k, k), Fraction(1, dk)
            yield (k, kp), 1 - Fraction(1, dk * dk) if dk > 0 else Fraction(1)


def seminormal_generator(shape, i: int) -> dict[tuple[int, int], Fraction]:
    """Young's seminormal matrix for the generator (i, i+1) on shape.

    Sparse dict of exact rationals on the SYT basis in last-letter order; at
    most two nonzeros per row; the matrix squares to the identity.
    """
    shape = check_partition(shape)
    n = partition_n(shape)
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index must be in 1..{n - 1}, got {i}")
    return dict(_seminormal_entries(*_seminormal_structure(shape)[:2], i))


def _t_hat_residues(shape: NumberPartition, p: int):
    """T-hat mod p of a checked shape as an int64 CSR of residues in [0, p),
    zeros dropped, with the contents (_seminormal_structure) and the table
    of (d^2 - 1)/d^2 mod p for d > 1, else 1, indexed by d + n - 1.
    ValueError for p <= n, where a denominator d may vanish mod p.  Row k
    holds the diagonal 1 + sum_i 1/d[k, i-1] (1/d = d for d = +1 or -1) and,
    for each i with |d| > 1, (d^2 - 1)/d^2 at s_i t_k if d > 0, else 1.
    """
    n = partition_n(shape)
    if p <= n:
        raise ValueError(f"seminormal reduction mod {p} needs p > n = {n}")
    d, partner, content = _seminormal_structure(shape)
    inverse = np.array([pow(x, -1, p) if x else 0 for x in range(1 - n, n)], dtype=np.int64)
    paired = np.array([(x * x - 1) * pow(x, -2, p) % p if x > 1 else 1 for x in range(1 - n, n)],
                      dtype=np.int64)
    index = d + (n - 1)
    k, i = np.nonzero(abs(d) > 1)
    diagonal = np.arange(len(d))
    import scipy.sparse as sp
    mat = sp.csr_matrix((np.concatenate(((1 + inverse[index].sum(axis=1)) % p,
                                         paired[index[k, i]])),
                         (np.concatenate((diagonal, k)),
                          np.concatenate((diagonal, partner[k, i])))),
                        shape=(len(d), len(d)))
    mat.eliminate_zeros()
    return mat, content, paired


def irrep_T_matrix(shape, p: int | None = None
                   ) -> dict[tuple[int, int], Fraction] | sp.csr_matrix:
    """Identity plus the sum of all seminormal generator matrices.

    Without p: a sparse dict of exact rationals, at most 2(n-1)+1 nonzeros
    per row.  With a prime p > n: the same matrix mod p as an int64 CSR of
    residues in [0, p), zeros dropped; ValueError for p <= n
    (_t_hat_residues).  Both come from one pass over the tableaux
    (_seminormal_structure).
    """
    shape = check_partition(shape)
    if p is not None:
        return _t_hat_residues(shape, p)[0]
    d, partner, _ = _seminormal_structure(shape)
    total: dict[tuple[int, int], Fraction] = {(k, k): Fraction(1) for k in range(len(d))}
    for i in range(1, partition_n(shape)):
        for key, value in _seminormal_entries(d, partner, i):
            total[key] = total.get(key, Fraction(0)) + value
    return {key: value for key, value in total.items() if value != 0}


def irrep_WT_matrix(shape, p: int) -> sp.csr_matrix:
    """T-hat mod p (irrep_T_matrix; ValueError for p <= n) with row t scaled
    by W_t, for the diagonal W, W_0 = 1, of Young's seminormal invariant
    form: W T-hat is symmetric.

    A pair t' = s_i t with axial distance d > 1 on t has T[t, t'] =
    (d^2 - 1)/d^2 and T[t', t] = 1, so W_t' = W_t (d^2 - 1)/d^2.  On t',
    i has content d above i + 1, and every other pair keeps its content
    difference, so W_t is, up to scale, the product of 1 - 1/(c(a) - c(b))^2
    over the entries a < b of t with c(a) - c(b) >= 2.  No factor vanishes
    mod p > n.  One entry a at a time keeps the memory O(f n).
    """
    mat, content, paired = _t_hat_residues(check_partition(shape), p)
    dim, n = content.shape
    w = np.ones(dim, dtype=np.int64)
    for a in range(n - 1):
        for factor in paired[content[:, a, None] - content[:, a + 1:] + (n - 1)].T:
            w *= factor
            w %= p
    w = w * pow(int(w[0]), -1, p) % p
    mat.data = mat.data * w[np.repeat(np.arange(dim), np.diff(mat.indptr))] % p
    return mat


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


def check_dense_json(dim: int) -> None:
    """Refuse a dense JSON export of dimension above DENSE_JSON_LIMIT."""
    if dim > DENSE_JSON_LIMIT:
        raise DimensionLimitError(f"dense JSON export is limited to dim <= {DENSE_JSON_LIMIT}")


def matrix_json_dense(a: ActionMatrix) -> dict:
    """JSON-ready dense form; refused above DENSE_JSON_LIMIT."""
    check_dense_json(a.dim)
    return {
        "n": a.n,
        "shape": list(a.shape),
        "dim": a.dim,
        "rows": a.to_dense(),
    }

"""Obstructions to 1-perfect Kendall codes via mod-p invertibility.

A 1-perfect code would force linear counting relations on coset (or irrep)
data; when the relevant matrix is invertible over the rationals and n does
not divide the Young subgroup order, no such code exists.  Invertibility is
certified by modular arithmetic: a nonzero determinant mod p is already a
proof of rational invertibility, while singularity mod p says nothing and is
retried with the next prime from the configured list.

Each matrix is reduced mod p at its known dimension: an irreducible block
T-hat_lam from its exact rational entries at dimension f^lam (hook length
formula), so that an all-zero block is a singular f^lam x f^lam matrix,
never an empty one.  A coset matrix M is certified through its reversal
split (ReversalSplit).  The reversal w0: i -> n + 1 - i conjugates s_i to
s_(n-i), so the tabloid permutation P: t -> w0 t satisfies P M P = M.  On
the P-invariant vectors (e_f for a fixed tabloid, e_r + e_(w0 r) for a
pair) M acts by an integer matrix D+, on the anti-invariant ones
e_r - e_(w0 r) by a symmetric integer matrix D- (the symmetry-adapted basis
of Fassler & Stiefel, "Group Theoretical Methods and Their Applications",
1992), each with about dim / 2 rows.  D = diag(D+, D-) = Q^-1 M Q over Q for
the matrix Q of that basis, so det D = det M as integers: a verdict on D is
a verdict on M at every prime, p = 2 included.  The engine is chosen by M's
dimension, and the report names M.

Two matrix engines are provided.  Dense elimination gives a deterministic
determinant for dimensions up to DENSE_LIMIT; on a coset matrix it takes
det D+ det D-, a quarter of the flops of det M.  It is a right-looking
blocked LU over float64 residues with delayed reduction (Dumas, Giorgi &
Pernet, "FFLAS and FFPACK", ACM TOMS 35(3), 2008): panels of _BLOCK columns
are eliminated with partial pivoting, and the trailing updates U = L^-1 A
and A -= L U run as float64 BLAS products, reduced mod p once per panel.  An
entry gains at most _BLOCK products of residues between reductions, so every
sum stays below p + _BLOCK (p-1)^2 < 2^47 < 2^53 and float64 is exact.  Above
DENSE_LIMIT a black-box check, reported as method 'wiedemann', is used
instead.  It is one engine: scalar Lanczos (Lanczos, J. Res. Nat. Bur.
Standards 49, 1952; LaMacchia & Odlyzko, CRYPTO 1990) on all
WIEDEMANN_SOLVES right-hand sides v_j at once, one lane each.  Lanczos needs
a self-adjoint A, and the engine raises ValueError on any other matrix:

- From w = v, a step takes t = <w, A w>, adds (<w, v> / t) w to the solve x,
  and A-orthogonalises A w against the last two w.  One Krylov pass per
  right-hand side gives the solve itself.  On a coset matrix a lane is a
  (2, L) array over D+ and D- (padded with identity rows that v leaves at
  0): D+ is self-adjoint for <a, b> = a . W b, W = diag(|orbit|), since
  W D+ is symmetric, and D- for the plain dot product.  Each block stops on
  its own, at t = 0 mod p, and one CSR product of diag(D+, D-) serves both,
  so a lane takes about half the steps it would take on M.  Every lane
  stops after B + 1 products, where B bounds the degree of the minimal
  polynomial of A: for a coset matrix B = sum of f^lam over the partitions
  lam dominating the shape (Young's rule: M^mu = sum K_{lam,mu} S^lam);
  otherwise B = dim.  D's residues are signed, in (-p/2, p/2]; when
  R (p-1) < 2^31, R the largest row sum of the absolute residues, two
  lanes share one CSR product of w_0 + 2^32 w_1.
- A seminormal block T-hat_lam is not symmetric, but S = W T-hat_lam is,
  for the positive diagonal W of the invariant form of Young's seminormal
  representation (_invariant_form).  Each W_i is a product of factors
  (d-1)(d+1)/d^2 and their inverses over axial distances 1 < d < n, so
  det W != 0 mod p for every p > n, which the seminormal reduction already
  demands, and a verdict on S is a verdict on T-hat_lam.  S takes a lane
  of one block under the plain dot product, as do symmetric rows given to
  invertible_mod_p; non-symmetric rows are eliminated densely at any
  dimension, since their dense rows are already in memory.
- A lane that Lanczos leaves unsolved (a self-orthogonal w, the cap, or a
  failed exact check) gets one more pass, on D A D for a seeded random
  diagonal D of nonzero residues (a diagonal preconditioner, Eberly &
  Kaltofen, ISSAC 1997).  That pass solves D A D y = D v, with another
  Krylov space but the same v, and x = D y must pass A x = v for the very
  same v.  D A D is self-adjoint wherever A is: D commutes with the weights
  of a split.  The pass keeps the cap of B + 1 products, which stops a
  singular A's second pass as early as its first.  D A D's minimal
  polynomial is not bounded by B, so where B is below a block's L rows
  (say (1^8)@8: B = 764, L = 20160) that pass can fail on an invertible A
  too; that is a false 'singular-mod-p', never a false 'invertible'.  The
  paper's shapes have B > L ((6,6,2)@14: 60581 against 42042), where the
  cap never binds.  A lane still unsolved makes the verdict
  'singular-mod-p': a singular A takes exactly two passes.
- Every solve A x_j = v_j mod p is verified exactly.  The evidence is
  randomized: with independent uniform v_j (from a fixed seed, never
  redrawn), a singular matrix passes only if every v_j lies in range(A),
  which has probability at most p^-2 for two solves.  On a coset matrix
  both segments of each v_j, on D+ and on D-, are uniform, and a singular
  D has a singular block, so the bound is the same.  The method only
  decides whether a solve is found, never whether it is accepted.  An
  invertible matrix can at worst be reported 'singular-mod-p', which
  proves nothing.  At p = 2 or 3 that is common on a split: W vanishes on
  D+'s pair rows mod 2 (and the only D is I), and self-orthogonal vectors
  abound mod 3.  The dense engine is unaffected.

Every certificate records the prime, the method that produced it and the
kind of evidence: deterministic for dense elimination, randomized with error
at most p^-2 for the black-box check.  Primes must lie below PRIME_LIMIT, so
that the black-box sums stay exact in int64 and the dense engine's sums stay
exact in float64.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np
import scipy.sparse as sp

from kendall_codes import young
from kendall_codes.perms import ball_size
from kendall_codes.young import ActionMatrix, check_partition

VERDICT_INVERTIBLE = "invertible"
VERDICT_SINGULAR = "singular-mod-p"
VERDICT_SKIPPED = "skipped"

CONCLUSION_NO_CODE = "no-1-perfect-code"
CONCLUSION_INCONCLUSIVE = "inconclusive"

#: largest dimension handled by dense elimination
DENSE_LIMIT = 4096
#: default skip threshold for per-matrix checks in the irrep route
IRREP_CHECK_LIMIT = 4096
#: primes must lie below this, for two bounds.  In the black-box engine,
#: int64 stays exact for a dot product of two vectors of residues over at
#: most 2^23 entries, since 2^23 (p-1)^2 < 2^63:
#: - a product of a vector in [0, p) is at most R (p-1) in absolute value,
#:   R the largest absolute row sum; two Lanczos lanes packed as
#:   w_0 + 2^32 w_1 share one product only when R (p-1) < 2^31, which keeps
#:   it below 2^63;
#: - Lanczos's dot products run per block of a ReversalSplit, over its L
#:   rows: L = (dim + fixed) / 2 < 5 10^6 < 2^23 below
#:   young.SPARSE_TABLOID_LIMIT (fixed, the palindromic tabloids, is at
#:   most 2 sqrt(dim)); A w enters them unreduced only when
#:   L (R (p-1))^2 < 2^63;
#: - Lanczos's solve gains less than (p-1)^2 a step, over at most dim + 1
#:   steps, before its one reduction;
#: - D A D is scaled entry by entry, |r d_i d_j| < p^3 < 2^60.
#: In the dense engine, a residue plus _BLOCK residue products stays below
#: 2^47, exact in float64 (< 2^53).
PRIME_LIMIT = 2**20
#: columns per panel of the dense engine: its sums stay below
#: p + _BLOCK (p-1)^2 < 2^47 < 2^53 for every p < PRIME_LIMIT
_BLOCK = 128
#: columns per sub-panel: the rank-1 updates touch a dim x 16 slab, which
#: stays in cache (4x faster at dim 858 than rank-1 updates over a panel)
_SUBPANEL = 16
#: fixed primes just above 10^6, below PRIME_LIMIT
DEFAULT_PRIMES = (1000003, 1000033, 1000037)
#: independent verified solves required by the black-box certificate
WIEDEMANN_SOLVES = 2
WIEDEMANN_SEED = 0x5eed


# ---------------------------------------------------------------------------
# matrices over Z/p

@dataclass(frozen=True)
class ModPMatrix:
    """Square matrix of residues mod a prime, stored sparse."""

    dim: int
    p: int
    entries: sp.csr_matrix  # int64 residues r, |r| < p


def _residue(value, p: int) -> int:
    if isinstance(value, Fraction):
        if value.denominator % p == 0:
            raise ValueError(f"denominator {value.denominator} divisible by {p}")
        return value.numerator * pow(value.denominator, -1, p) % p
    return int(value) % p


def modp_from_action(action: ActionMatrix, p: int) -> ModPMatrix:
    """M mod p, unsplit.  Certificates take reversal_split(action) instead;
    this is the reference that the split is checked against."""
    ent = action.entries.astype(np.int64)
    ent.data %= p
    return ModPMatrix(dim=action.dim, p=p, entries=ent)


@dataclass(frozen=True)
class ReversalSplit:
    """A coset matrix M in the basis adapted to the reversal w0.

    P: t -> w0 t is an involution with P M P = M (young.reversal_index).
    Its orbits are the `fixed` tabloids with w0 t = t and `pairs` pairs
    {r, w0 r}, r < w0 r.  On the basis of P-invariant vectors (e_f for each
    fixed tabloid, e_r + e_(w0 r) for each pair) M acts by D+, and on the
    anti-invariant vectors e_r - e_(w0 r) by D-:
        D+[o, o'] = sum of M[r_o, t'] over t' in o',
        D-[o, o'] = M[r_o, r_o'] - M[r_o, w0 r_o'].
    Rows of D+ sum to n, W D+ is symmetric for W = diag(|orbit|), and D- is
    symmetric.  With Q the matrix of the basis, D = diag(D+, D-) = Q^-1 M Q
    over Q, so det D = det M, an integer, and a verdict on D is a verdict
    on M at every prime, p = 2 included.

    D+ has L = pairs + fixed rows, pairs first.  D- is padded with `fixed`
    identity rows, and `entries` holds the integer diag(D+, D-, I) of order
    2 L: one CSR product serves both blocks.  `dim` is M's dimension.
    """

    dim: int
    pairs: int
    fixed: int
    entries: sp.csr_matrix

    def mod(self, p: int) -> ModPMatrix:
        """diag(D+, D-, I) as signed residues in (-p/2, p/2]."""
        ent = self.entries.copy()
        ent.data %= p
        ent.data[ent.data > p // 2] -= p
        ent.eliminate_zeros()
        return ModPMatrix(dim=ent.shape[0], p=p, entries=ent)


def reversal_split(action: ActionMatrix) -> ReversalSplit:
    """The integer matrix diag(D+, D-, I) of a coset matrix (ReversalSplit).

    Row o of D+ is row r_o of M with each column t' moved to its orbit; row
    o of D- is the same row with the pair columns signed, +1 at r_o' and -1
    at w0 r_o', and the fixed columns dropped.  The CSR arrays are built
    from the rows of M directly, and sum_duplicates merges the columns of
    an orbit.  Raises ValueError unless P M P = M, checked exactly on the
    CSR: for any other entries D would not be similar to M.
    """
    rev = young.reversal_index(action.shape)
    m = action.entries
    if m.shape != (len(rev), len(rev)) or (m[rev][:, rev] != m).nnz:
        raise ValueError(f"entries are not the tabloid action of {action.shape}: P M P != M")
    tabloid = np.arange(action.dim)
    reps, fixed = tabloid[tabloid < rev], tabloid[tabloid == rev]
    pairs, size = len(reps), len(reps) + len(fixed)
    orbit = np.empty(action.dim, dtype=action.entries.indices.dtype)
    orbit[reps] = orbit[rev[reps]] = np.arange(pairs)
    orbit[fixed] = np.arange(pairs, size)
    sign = np.zeros(action.dim, dtype=np.int64)
    sign[reps], sign[rev[reps]] = 1, -1
    rows = action.entries[np.concatenate((reps, fixed))]  # r_o for every orbit o
    cut = rows.indptr[pairs]  # the rows of the pairs, which D- takes again
    padding = np.arange(size + pairs, 2 * size, dtype=orbit.dtype)
    indices = np.concatenate((orbit[rows.indices], size + orbit[rows.indices[:cut]], padding))
    data = np.concatenate((rows.data, rows.data[:cut] * sign[rows.indices[:cut]],
                           np.ones(len(fixed), dtype=rows.data.dtype)))
    indptr = np.concatenate((rows.indptr, rows.nnz + rows.indptr[1:pairs + 1],
                             rows.nnz + cut + np.arange(1, len(fixed) + 1)))
    entries = sp.csr_matrix((data, indices, indptr), shape=(2 * size, 2 * size))
    entries.sum_duplicates()
    entries.eliminate_zeros()
    return ReversalSplit(dim=action.dim, pairs=pairs, fixed=len(fixed), entries=entries)


def modp_from_entries(dim: int, entries, p: int, n: int | None = None) -> ModPMatrix:
    """Sparse dict {(i,j): value} -> ModPMatrix; values may be Fractions.

    For seminormal matrices pass n: reduction demands p > n so that no axial
    distance (hence no denominator) vanishes mod p.
    """
    if n is not None and p <= n:
        raise ValueError(f"seminormal reduction mod {p} needs p > n = {n}")
    ii, jj, vv = [], [], []
    for (i, j), value in entries.items():
        r = _residue(value, p)
        if r:
            ii.append(i)
            jj.append(j)
            vv.append(r)
    mat = sp.csr_matrix((np.array(vv, dtype=np.int64),
                         (np.array(ii, dtype=np.intp), np.array(jj, dtype=np.intp))),
                        shape=(dim, dim))
    return ModPMatrix(dim=dim, p=p, entries=mat)


def modp_from_rows(rows, p: int) -> ModPMatrix:
    dim = len(rows)
    entries = {}
    for i, row in enumerate(rows):
        if len(row) != dim:
            raise ValueError("matrix is not square")
        for j, v in enumerate(row):
            entries[(i, j)] = v
    return modp_from_entries(dim, entries, p)


# ---------------------------------------------------------------------------
# determinants

def integer_determinant(rows) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    a = [[int(v) for v in row] for row in rows]
    d = len(a)
    if any(len(row) != d for row in a):
        raise ValueError("matrix is not square")
    sign = 1
    prev = 1
    for k in range(d - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, d) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, d):
            for j in range(k + 1, d):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[d - 1][d - 1]


def _reduce(x: np.ndarray, p: int, scratch: np.ndarray | None = None) -> np.ndarray:
    """Reduce float64 integers |x| < 2^52 mod p in place, into [0, p).

    x / p is an integer or lies at least 1 / p from every integer, and
    fl(x / p) is within |x| / p * 2^-53 < 1 / (2p) of it, so
    floor(fl(x / p)) = floor(x / p); p floor(x / p) and x - p floor(x / p)
    are integers below 2^53, hence exact.  `scratch`, of x's shape, holds
    the quotient.  This is several times faster than np.mod on floats.
    """
    q = np.divide(x, p, out=scratch)
    np.floor(q, out=q)
    q *= p
    x -= q
    return x


def _upper(a: np.ndarray, k0: int, k1: int, end: int, p: int) -> np.ndarray:
    """U = L^-1 A mod p for the rows k0..k1-1 and columns k1..end-1 of a,
    where L is the unit lower triangle of multipliers in a[k0:k1, k0:k1]."""
    inv = np.eye(k1 - k0)
    for i in range(1, k1 - k0):
        # row i of L^-1 is e_i - L[i, :i] L^-1[:i]
        inv[i, :i] = -(a[k0 + i, k0:k0 + i] @ inv[:i, :i])
        _reduce(inv[i, :i], p)
    return _reduce(inv @ _reduce(a[k0:k1, k1:end], p), p)


def _det_mod_dense(matrix: ModPMatrix) -> int:
    """Determinant mod p by right-looking blocked elimination over float64.

    Each panel of _BLOCK columns is eliminated with partial pivoting, one
    sub-panel of _SUBPANEL columns at a time.  Updates inside a panel are left
    unreduced; only the pivot column and the pivot rows are reduced before
    use.  Beyond a sub-panel (and beyond the panel), U = L^-1 A and
    A -= L U are float64 matmuls, and the trailing matrix is reduced once per
    panel, in strips of _BLOCK rows.  Between reductions an entry gains at
    most _BLOCK products of residues, so every sum is exact.
    """
    p, d = matrix.p, matrix.dim
    a = _reduce(matrix.entries.astype(np.float64).toarray(), p)
    det = 1
    for k0 in range(0, d, _BLOCK):
        k1 = min(k0 + _BLOCK, d)
        for c0 in range(k0, k1, _SUBPANEL):
            c1 = min(c0 + _SUBPANEL, k1)
            for k in range(c0, c1):
                col = _reduce(a[k:, k], p)
                nz = np.flatnonzero(col)
                if nz.size == 0:
                    return 0
                i = int(nz[0])
                if i:
                    a[[k, k + i], k0:] = a[[k + i, k], k0:]
                    det = p - det
                piv = int(col[0])
                det = det * piv % p
                mult = col[1:]
                mult *= pow(piv, -1, p)
                _reduce(mult, p)
                if k + 1 < c1:
                    a[k + 1:, k + 1:c1] -= np.outer(mult, _reduce(a[k, k + 1:c1], p))
            if c1 < k1:
                a[c1:, c1:k1] -= a[c1:, c0:c1] @ _upper(a, c0, c1, k1, p)
        if k1 < d:
            u12 = _upper(a, k0, k1, d, p)
            for r0 in range(k1, d, _BLOCK):
                strip = a[r0:r0 + _BLOCK, k1:]
                prod = a[r0:r0 + _BLOCK, k0:k1] @ u12
                strip -= prod
                _reduce(strip, p, prod)
    return det


# ---------------------------------------------------------------------------
# black-box certificate (Lanczos)

def _reduce_int(x: np.ndarray, p: int, scratch: np.ndarray | None = None) -> np.ndarray:
    """Reduce int64 x mod p in place, into [0, p); `scratch`, of x's shape,
    holds the quotient.

    numpy's int64 floor_divide by a scalar is about 3x faster than its %, so
    x - (x // p) p costs about half of x % p.  Floor division rounds towards
    -inf, so negative entries land in [0, p) as well.
    """
    q = np.floor_divide(x, p, out=scratch)
    q *= p
    x -= q
    return x


def _row_max(entries: sp.csr_matrix) -> int:
    """R, the largest row sum of the absolute values of the residues:
    |A y| <= R max|y| for every y.  A plain row sum would undercount a row
    with negative entries."""
    return int(abs(entries).sum(axis=1).max())


def _self_adjoint(matrix: ModPMatrix, pairs: int | None = None) -> bool:
    """Whether A is self-adjoint under the products _lanczos uses: W A is
    symmetric mod p for W = 2 on the first `pairs` rows (D+'s pair rows of a
    ReversalSplit) and 1 on the rest."""
    weighted = matrix.entries.copy()
    weighted.data[:weighted.indptr[pairs or 0]] *= 2
    return not ((weighted - weighted.T).data % matrix.p).any()


def _invariant_form(dim: int, t_hat: dict) -> list[Fraction]:
    """The positive diagonal W with W T-hat symmetric, from T-hat's own 2x2
    pairs.

    A pair t' = s_i t of tableaux, d > 1 the axial distance on t, has
    T[t, t'] = 1 - 1/d^2 and T[t', t] = 1 (young._seminormal_entries), so
    W_t' = W_t T[t, t'] / T[t', t].  W is walked breadth-first from W_0 = 1
    over the off-diagonal entries, which connect the tableaux.  Raises
    ValueError unless every W_i is set and W T-hat is exactly symmetric.
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


def _packs(row_max: int, p: int) -> bool:
    """Whether two lanes can share one CSR product (see _lane_products)."""
    return row_max * (p - 1) < 2**31


def _lane_products(entries: sp.csr_matrix, w: np.ndarray, packed: bool,
                   out: np.ndarray) -> np.ndarray:
    """out[j] = A w_j for every lane (row) w_j of w, whose entries lie in
    [0, p); A may hold negative residues.

    Packed, lanes 2i and 2i+1 share one CSR product of w_2i + 2^32 w_2i+1:
    each product has |A w| <= R (p-1) < 2^31 (_packs), so the word
    lo + 2^32 hi is below 2^63 in absolute value.  With lo + 2^31 in
    [0, 2^32), word + 2^31 holds lo + 2^31 in its low 32 bits and hi above
    them (an arithmetic shift rounds towards -inf).  scipy multiplies one
    vector about five times faster than two columns.
    """
    if not packed:
        for lane, dest in zip(w, out):
            dest[:] = entries.dot(lane)
        return out
    for j in range(0, len(w) - 1, 2):
        word = entries.dot((w[j + 1] << 32) | w[j])
        word += 2**31
        np.right_shift(word, 32, out=out[j + 1])
        np.bitwise_and(word, 0xFFFFFFFF, out=out[j])
        out[j] -= 2**31
    if len(w) % 2:
        out[-1] = entries.dot(w[-1])
    return out


def _lanczos(matrix: ModPMatrix, rhs: list[np.ndarray], steps: int,
             pairs: int | None = None) -> np.ndarray:
    """Candidate solves x_j of A x = v_j mod p for a self-adjoint A, one lane
    per right-hand side v_j (Lanczos, J. Res. Nat. Bur. Standards 49, 1952;
    LaMacchia & Odlyzko, CRYPTO 1990).

    With pairs None, A is symmetric and a lane is one block of dim entries
    under the plain dot product.  Otherwise A is the diag(D+, D-, I) of a
    ReversalSplit with that many pairs, and a lane is a (2, L) array: D+
    under <a, b> = a . W b, W = diag(2 on the pair rows, 1 on the rest), and
    D- with its zero padding under the plain dot product.  Each dot runs in
    int64 over the L entries of a block, and W is applied after it: the dot
    over D+'s pair rows is added once more, mod p.

    From w_0 = v and w_-1 = 0, each step takes t = <w, A w> per block and
        x += (<w, v> / t) w,
        w' = A w - alpha w - beta w_prev,  alpha = <A w, A w> / t,
        beta = t / t_prev,
    which keeps every w A-orthogonal to the earlier ones, so that x solves
    A x = v once w = 0, unless A x - v is a nonzero vector orthogonal to
    itself.  A block stops when its t = 0 mod p: w = 0, or a self-orthogonal
    w (a breakdown); its w is then zeroed, and the other block goes on.
    Every lane stops after `steps` products.  Whether a lane's x solves
    A x = v is left to the caller's exact check.

    Arithmetic is int64, with w in [0, p) before each product.  |A w| is at
    most R (p-1) for the largest absolute row sum R, and A w is reduced
    before the dot products only when L (R (p-1))^2 could reach 2^63.  x
    gains less than (p-1)^2 a step and is reduced once, at the end: exact
    while steps (p-1)^2 < 2^63.
    """
    p = matrix.p
    cut = pairs or 0
    v = np.stack(rhs).reshape(len(rhs), 1 if pairs is None else 2, -1)
    row_max = _row_max(matrix.entries)
    packed = _packs(row_max, p)
    reduce_aw = v.shape[2] * (row_max * (p - 1))**2 >= 2**63
    w, w_prev, x = v.copy(), np.zeros_like(v), np.zeros_like(v)
    aw, scratch = np.empty_like(v), np.empty_like(v)

    def lanes(a):  # one row of dim entries per lane
        return a.reshape(len(a), -1)

    def inner(a, b):  # <a, b> mod p, one per (lane, block)
        full = np.einsum("jbi,jbi->jb", a, b).tolist()
        head = np.einsum("ji,ji->j", a[:, 0, :cut], b[:, 0, :cut]).tolist()
        return [[(f[0] + h) % p] + [s % p for s in f[1:]] for f, h in zip(full, head)]

    def times(values, scales):  # values * scales mod p, per (lane, block)
        return [[a * b % p for a, b in zip(*rows)] for rows in zip(values, scales)]

    inv_prev = np.zeros(v.shape[:2], dtype=np.int64).tolist()
    for _ in range(steps):
        _lane_products(matrix.entries, lanes(w), packed, lanes(aw))
        if reduce_aw:
            _reduce_int(aw, p, scratch)
        t = inner(w, aw)
        if not any(map(any, t)):
            break
        inv = [[pow(s, -1, p) if s else 0 for s in row] for row in t]
        alpha, beta = times(inner(aw, aw), inv), times(t, inv_prev)
        coef = np.array([times(inner(w, v), inv), alpha, beta], dtype=np.int64)[..., None]
        x += np.multiply(w, coef[0], out=scratch)
        aw -= np.multiply(w, coef[1], out=scratch)
        aw -= np.multiply(w_prev, coef[2], out=scratch)
        _reduce_int(aw, p, scratch)
        for j, row in enumerate(t):
            for k, s in enumerate(row):
                if not s:
                    aw[j, k] = 0
        w_prev, w, aw, inv_prev = w, aw, w_prev, inv
    return lanes(_reduce_int(x, p))


def _is_solution(matrix: ModPMatrix, x: np.ndarray, v: np.ndarray) -> bool:
    """Whether A x = v mod p, checked exactly."""
    return bool((_reduce_int(matrix.entries.dot(x), matrix.p) == v).all())


def _rescaled(matrix: ModPMatrix, d: np.ndarray) -> ModPMatrix:
    """D A D mod p for D = diag(d): each entry r d_i d_j, |r d_i d_j| < p^3,
    scaled in int64 and reduced into [0, p)."""
    entries = matrix.entries.copy()
    rows = np.repeat(np.arange(entries.shape[0]), np.diff(entries.indptr))
    entries.data = _reduce_int(entries.data * d[rows] * d[entries.indices], matrix.p)
    return ModPMatrix(dim=matrix.dim, p=matrix.p, entries=entries)


def _certify_wiedemann(matrix: ModPMatrix, bound: int | None = None,
                       pairs: int | None = None) -> str:
    """Verified Lanczos solves of A x = v for WIEDEMANN_SOLVES random v.

    `bound` caps the degree of the minimal polynomial of A (default: dim).
    With `pairs`, A is the diag(D+, D-, I) of a ReversalSplit: each v is
    uniform on the rows of D+ and D- and 0 on the identity rows, and each
    lane runs on both blocks at once.  Otherwise A is symmetric and v
    uniform.  Raises ValueError unless A is self-adjoint (_self_adjoint).

    One Lanczos pass takes every right-hand side, for at most bound + 1
    products.  Each v that it did not solve (a breakdown, the cap, or a
    failed exact check) gets one more pass, on D A D for a random diagonal
    D of nonzero residues drawn after the v's: it solves D A D y = D v
    under the same cap, and x = D y must pass A x = v for the same v
    object.  A v unsolved after both passes makes the verdict
    'singular-mod-p'.  The v's are never redrawn, and 'invertible' needs
    A x_j = v_j verified exactly for every uniform v_j, so the error bound
    p^-WIEDEMANN_SOLVES holds whichever pass found x_j.  A bound below the
    true degree can only produce a false 'singular-mod-p', never a false
    'invertible'.
    """
    if not _self_adjoint(matrix, pairs):
        raise ValueError("the black-box check needs a self-adjoint matrix")
    p, dim = matrix.p, matrix.dim
    bound = dim if bound is None else bound
    support = dim if pairs is None else dim // 2 + pairs
    rng = random.Random(WIEDEMANN_SEED * 1000003 + p * 31 + dim)
    rhs = [np.zeros(dim, dtype=np.int64) for _ in range(WIEDEMANN_SOLVES)]
    for v in rhs:
        v[:support] = [rng.randrange(p) for _ in range(support)]
    solved = _lanczos(matrix, rhs, bound + 1, pairs)
    pending = [v for v, x in zip(rhs, solved) if not _is_solution(matrix, x, v)]
    if not pending:
        return VERDICT_INVERTIBLE
    d = np.array([rng.randrange(1, p) for _ in range(dim)], dtype=np.int64)
    scaled = _lanczos(_rescaled(matrix, d), [d * v % p for v in pending], bound + 1, pairs)
    if all(_is_solution(matrix, d * y % p, v) for v, y in zip(pending, scaled)):
        return VERDICT_INVERTIBLE
    return VERDICT_SINGULAR


# ---------------------------------------------------------------------------
# public certificate interface

_EVIDENCE = {"dense-elimination": "deterministic",
             "wiedemann": f"randomized, error <= p^-{WIEDEMANN_SOLVES}"}


@dataclass(frozen=True)
class MatrixCheck:
    label: str
    dim: int
    prime: int | None
    verdict: str  # invertible | singular-mod-p | skipped
    method: str   # dense-elimination | wiedemann | skipped

    @property
    def evidence(self) -> str | None:
        """What an 'invertible' verdict rests on; None for a skipped check."""
        return _EVIDENCE.get(self.method)

    def to_json_dict(self) -> dict:
        return {"label": self.label, "dim": self.dim, "prime": self.prime,
                "verdict": self.verdict, "method": self.method,
                "evidence": self.evidence}


def invertible_mod_p(matrix, p: int) -> str:
    """'invertible' proves rational invertibility; 'singular-mod-p' proves
    nothing and should be retried at another prime.

    Accepts dense square rows (ints or Fractions) or an ActionMatrix, which
    is certified through its ReversalSplit.  Rows are eliminated densely up
    to DENSE_LIMIT, and at any dimension when they are not symmetric mod p;
    symmetric rows above it take the black-box check.
    """
    _check_prime(p)
    if isinstance(matrix, ActionMatrix):
        verdict, _method = _certify_split(reversal_split(matrix), p)
    else:
        verdict, _method = _certify(modp_from_rows(matrix, p))
    return verdict


def _verdict(det: int) -> str:
    return VERDICT_INVERTIBLE if det else VERDICT_SINGULAR


def _certify(matrix: ModPMatrix, bound: int | None = None) -> tuple[str, str]:
    """Verdict and method: the black-box check for a symmetric matrix above
    DENSE_LIMIT, dense elimination otherwise.  `bound` caps the degree of the
    minimal polynomial (see _certify_wiedemann)."""
    if matrix.dim <= DENSE_LIMIT or not _self_adjoint(matrix):
        return _verdict(_det_mod_dense(matrix)), "dense-elimination"
    return _certify_wiedemann(matrix, bound), "wiedemann"


def _certify_split(split: ReversalSplit, p: int,
                   bound: int | None = None) -> tuple[str, str]:
    """Verdict and method for the coset matrix M of a ReversalSplit, from D
    mod p.  The engine is chosen by M's dimension: dense elimination takes
    det D+ det D-, the black-box check both blocks in one Lanczos pass."""
    blocks = split.mod(p)
    if split.dim <= DENSE_LIMIT:
        size = split.pairs + split.fixed
        det = 1
        for lo, hi in ((0, size), (size, size + split.pairs)):
            block = blocks.entries[lo:hi, lo:hi]
            det = det * _det_mod_dense(ModPMatrix(hi - lo, p, block)) % p
        return _verdict(det), "dense-elimination"
    return _certify_wiedemann(blocks, bound, split.pairs), "wiedemann"


def _check_prime(p: int) -> None:
    if p >= PRIME_LIMIT:
        raise ValueError(f"prime {p} is not below {PRIME_LIMIT}: the mod-p "
                         "engines keep int64 intermediates exact only below it")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# obstruction pipelines

@dataclass(frozen=True)
class ObstructionReport:
    n: int
    route: str
    divisibility_ok: bool
    matrices: tuple[MatrixCheck, ...]
    conclusion: str
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "route": self.route,
            "divisibilityOk": self.divisibility_ok,
            "matrices": [m.to_json_dict() for m in self.matrices],
            "conclusion": self.conclusion,
            "notes": list(self.notes),
        }


def divisibility_precondition(n: int, shape) -> bool:
    """True iff n does not divide |S_shape| = prod(part!)."""
    shape = check_partition(shape)
    if young.partition_n(shape) != n:
        raise ValueError("shape is not a partition of n")
    return young.young_subgroup_order(shape) % n != 0


def perfect_counting_condition(n: int, r: int) -> bool:
    """Necessary counting condition for an r-perfect code: |B_r| divides n!."""
    return factorial(n) % ball_size(n, r) == 0


def _check_one(label: str, dim: int, certify, primes):
    """Run the certificate at successive primes; one MatrixCheck plus notes.

    certify(p) returns the verdict and method at the prime p.
    """
    notes = []
    for p in primes:
        verdict, method = certify(p)
        if verdict == VERDICT_INVERTIBLE:
            return MatrixCheck(label, dim, p, verdict, method), notes
        notes.append(f"{label}: singular mod {p}, retrying")
    return MatrixCheck(label, dim, primes[-1], VERDICT_SINGULAR, method), notes


def obstruction_coset(n: int, shape, primes=DEFAULT_PRIMES) -> ObstructionReport:
    """Coset route: invertibility of the action matrix M on tabloids of shape.

    M is certified through its ReversalSplit D = diag(D+, D-), similar to M
    over Q, so det D = det M and every verdict on D is one on M.  Only D is
    kept: M is dropped once D is built, and D is reduced at each prime.
    """
    shape = check_partition(shape)
    primes = _checked_primes(primes)
    div_ok = divisibility_precondition(n, shape)
    dim = young.tabloid_count(shape)
    notes = []
    if not div_ok:
        notes.append(f"{n} divides the Young subgroup order "
                     f"{young.young_subgroup_order(shape)}; the counting "
                     "argument does not apply")
        return ObstructionReport(n=n, route=f"coset{shape}", divisibility_ok=False,
                                 matrices=(), conclusion=CONCLUSION_INCONCLUSIVE,
                                 notes=tuple(notes))
    split = reversal_split(young.build_action_matrix(n, shape))
    # Young's rule: the minimal polynomial of T on M^shape is the lcm of those
    # of T on the constituents S^lam, lam dominating shape
    bound = sum(young.hook_length_dimension(lam)
                for lam in young.constituents_dominating(shape))
    check, more = _check_one(f"action{shape}", dim,
                             lambda p: _certify_split(split, p, bound), primes)
    notes.extend(more)
    ok = check.verdict == VERDICT_INVERTIBLE
    return ObstructionReport(
        n=n, route=f"coset{shape}", divisibility_ok=True, matrices=(check,),
        conclusion=CONCLUSION_NO_CODE if ok else CONCLUSION_INCONCLUSIVE,
        notes=tuple(notes))


def obstruction_irreps(n: int, mu, use_list: str = "computed",
                       primes=DEFAULT_PRIMES,
                       check_limit: int = IRREP_CHECK_LIMIT) -> ObstructionReport:
    """Irrep route: invertibility of T-hat on every constituent of the
    tabloid module of mu (all partitions dominating mu, by Young's rule).

    A block above DENSE_LIMIT is certified as the symmetric W T-hat
    (_invariant_form), whose verdict is T-hat's at every p > n."""
    mu = check_partition(mu)
    if young.partition_n(mu) != n:
        raise ValueError("mu is not a partition of n")
    primes = _checked_primes(primes)
    if use_list == "computed":
        lams = young.constituents_dominating(mu)
    elif use_list == "published":
        if n != 15 or mu != (4, 4, 4, 3):
            raise ValueError("the published list is specific to mu=(4,4,4,3)")
        lams = young.published_s15_list()
    else:
        raise ValueError(f"use_list must be 'computed' or 'published', got {use_list!r}")
    div_ok = divisibility_precondition(n, mu)
    dims = [young.hook_length_dimension(lam) for lam in lams]
    # a block too large to build is refused before any block is built
    too_large = [d for d in dims if young.IRREP_DIMENSION_LIMIT < d <= check_limit]
    if too_large:
        raise young.DimensionLimitError(f"dimension {max(too_large)} exceeds "
                                        f"limit {young.IRREP_DIMENSION_LIMIT}")
    checks = []
    notes = []
    skipped = 0
    for lam, dim in zip(lams, dims):
        label = f"T-hat{lam}"
        if dim > check_limit:
            checks.append(MatrixCheck(label, dim, None, VERDICT_SKIPPED, "skipped"))
            skipped += 1
            continue
        t_hat = young.irrep_T_matrix(lam)
        if dim > DENSE_LIMIT:
            w = _invariant_form(dim, t_hat)
            t_hat = {(i, j): w[i] * value for (i, j), value in t_hat.items()}
        check, more = _check_one(
            label, dim, lambda p: _certify(modp_from_entries(dim, t_hat, p, n=n)), primes)
        checks.append(check)
        notes.extend(more)
    all_inv = all(c.verdict == VERDICT_INVERTIBLE for c in checks)
    complete = set(lams) >= set(young.constituents_dominating(mu))
    if skipped:
        notes.append(f"{skipped} constituents above dimension {check_limit} skipped")
    if use_list == "published" and not complete:
        notes.append("constituent list is a published subset of the computed "
                     "dominance set; conclusion stays inconclusive")
    conclusive = div_ok and all_inv and complete and not skipped
    return ObstructionReport(
        n=n, route=f"irreps({mu}, {use_list})", divisibility_ok=div_ok,
        matrices=tuple(checks),
        conclusion=CONCLUSION_NO_CODE if conclusive else CONCLUSION_INCONCLUSIVE,
        notes=tuple(notes))


def conjecture_check(p: int, primes=DEFAULT_PRIMES) -> ObstructionReport:
    """Instance check of the (p-1, p-1, 2) family in S_2p for prime p >= 3."""
    if p < 3 or not _is_prime(p):
        raise ValueError(f"need a prime p >= 3, got {p}")
    return obstruction_coset(2 * p, (p - 1, p - 1, 2), primes)


def _checked_primes(primes):
    primes = tuple(primes)
    if not primes:
        raise ValueError("empty prime list")
    for p in primes:
        _check_prime(p)
    return primes

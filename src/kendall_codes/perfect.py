"""Obstructions to 1-perfect Kendall codes via mod-p invertibility.

A 1-perfect code would force linear counting relations on coset (or irrep)
data; when the relevant matrix is invertible over the rationals and n does
not divide the Young subgroup order, no such code exists.  Invertibility is
certified by modular arithmetic: a nonzero determinant mod p is already a
proof of rational invertibility, while singularity mod p says nothing and is
retried with the next prime from the configured list.

An irreducible block T-hat_lam is built straight mod p from the integer
structure of the standard tableaux (young.irrep_T_matrix with p: axial
distances, partner tableaux and a table of 1/d mod p, no rational entry),
at dimension f^lam (hook length formula), so that an all-zero block is a
singular f^lam x f^lam matrix, never an empty one.

A coset matrix M of shape mu is certified in one of two ways, chosen by
its dimension:

- Up to DENSE_LIMIT, through its reversal split (reversal_split).  The
  reversal w0: i -> n + 1 - i conjugates s_i to s_(n-i), so the tabloid
  permutation P: t -> w0 t satisfies P M P = M.  On the P-invariant
  vectors E+ (e_f for a fixed tabloid, e_r + e_(w0 r) for a pair) M acts
  by an integer block D+ = R M E+, on the anti-invariant ones
  E- (e_r - e_(w0 r)) by an integer block D- = R' M E-, where R and R'
  pick one row of each orbit and of each pair (the symmetry-adapted basis
  of Fassler & Stiefel, "Group Theoretical Methods and Their
  Applications", 1992).  diag(D+, D-) = Q^-1 M Q over Q for Q = (E+ E-),
  so det M = det D+ det D- as integers, at every prime.
- Above DENSE_LIMIT, through its isotypic blocks; M itself is never
  built.  By Young's rule M^mu = sum K_{lam,mu} S^lam over Q, for the
  partitions lam dominating mu, so det M = prod det(T-hat_lam)^K_{lam,mu}
  with every K_{lam,mu} >= 1.  Both sides are integral at p > n, so M is
  invertible mod p exactly when every T-hat_lam is, and such a prime is
  required (ValueError otherwise).  The report keeps one check at M's
  dimension, method 'wiedemann', at the last prime any block needed.

Two matrix engines are provided.  Dense elimination gives a deterministic
determinant for dimensions up to DENSE_LIMIT; on a coset matrix it takes
det D+ det D-, a quarter of the flops of det M.  It is a right-looking
blocked LU over float64 residues with delayed reduction (Dumas, Giorgi &
Pernet, "FFLAS and FFPACK", ACM TOMS 35(3), 2008): panels of _BLOCK columns
are eliminated with partial pivoting, and the trailing updates U = L^-1 A
and A -= L U run as float64 BLAS products, reduced mod p once per panel.  An
entry gains at most _BLOCK products of residues between reductions, so every
sum stays below p + _BLOCK (p-1)^2 < 2^47 < 2^53 and float64 is exact.

Above DENSE_LIMIT, and on every block of a coset matrix above it, a
black-box check runs instead, reported as method 'wiedemann'.  It is one
Lanczos pass (Lanczos, J. Res. Nat. Bur. Standards 49, 1952) on a
symmetric S of order f, from a seeded random v, of at most f products:

- From w_0 = v, each step takes t = w . S w and S-orthogonalises S w
  against the last two w.  If all f steps have t != 0 mod p, the w's form
  a matrix K with K^T S K = diag(t), so det(K)^2 det S = prod t != 0 and
  S is invertible mod p.  That is a proof, with no error bound: the
  evidence is deterministic.  A singular S never gets a full pass.
- A seminormal block T-hat_lam is not symmetric, but S = W T-hat_lam is,
  for the positive diagonal W of the invariant form of Young's seminormal
  representation, computed mod p from T-hat_lam's own 2x2 pairs
  (_invariant_form).  Each W_i is a product of factors (d-1)(d+1)/d^2 and
  their inverses over axial distances 1 < d < n, so det W != 0 mod p for
  every p > n, and a verdict on S is a verdict on T-hat_lam.  Symmetric
  rows given to invertible_mod_p take the pass as they are; non-symmetric
  rows are eliminated densely at any dimension, since their dense rows are
  already in memory.
- A pass that stops short, at t = 0 before step f (w = 0, or a
  self-orthogonal w), gets one more pass, from the same v, on D S D for a
  seeded random diagonal D of nonzero residues (a diagonal preconditioner,
  Eberly & Kaltofen, ISSAC 1997); det D != 0, so a full pass there proves
  det S != 0 too.  If that pass stops short as well, the verdict is
  'singular-mod-p' at this prime, which proves nothing: a singular S
  takes exactly two passes, and an invertible one whose passes both break
  down is retried at the next prime.

Every certificate records the prime, the method that produced it and the
kind of evidence, deterministic for both engines.  Primes must lie below
PRIME_LIMIT, so that the Lanczos sums stay exact in int64 and the dense
engine's sums stay exact in float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, inf

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
#: int64 stays exact for a sum of fewer than 2^23 products of residues in
#: [0, p), since 2^23 (p-1)^2 < 2^63, and every order it meets is below
#: 2^23 (young.IRREP_DIMENSION_LIMIT for a block; dense rows of that order
#: would not fit in memory):
#: - a row of S w sums at most f such products;
#: - S w is reduced into [0, p) before its dot products, which run over f
#:   entries; the update S w - alpha w - beta w_prev stays above
#:   -2 (p-1)^2;
#: - D S D is scaled entry by entry, r d_i d_j < p^3 < 2^60.
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
#: seed of the black-box engine's start vector and diagonal, with p and f
WIEDEMANN_SEED = 0x5eed


# ---------------------------------------------------------------------------
# matrices over Z/p

@dataclass(frozen=True)
class ModPMatrix:
    """Square matrix of residues mod a prime, stored sparse."""

    dim: int
    p: int
    entries: sp.csr_matrix  # int64 residues r, |r| < p (dense engine: any |r| < 2^52)


def _residue(value, p: int) -> int:
    if isinstance(value, Fraction):
        if value.denominator % p == 0:
            raise ValueError(f"denominator {value.denominator} divisible by {p}")
        return value.numerator * pow(value.denominator, -1, p) % p
    return int(value) % p


def modp_from_action(action: ActionMatrix, p: int) -> ModPMatrix:
    """M mod p, unsplit.  Certificates take the blocks of reversal_split
    or the isotypic blocks instead; this is the reference both are checked
    against."""
    ent = action.entries.astype(np.int64)
    ent.data %= p
    return ModPMatrix(dim=action.dim, p=p, entries=ent)


def reversal_split(action: ActionMatrix) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """The integer blocks D+ = R M E+ and D- = R' M E- of a coset matrix M.

    P: t -> w0 t is an involution with P M P = M (young.reversal_index).
    Its orbits o are the pairs {r, w0 r}, r < w0 r, then the fixed tabloids
    w0 t = t, each in increasing order of its least tabloid r_o.  E+ holds
    the P-invariant vectors (e_r + e_(w0 r) for each pair, e_f for each
    fixed tabloid) and E- the anti-invariant ones e_r - e_(w0 r); R and R'
    pick row r_o of M for each orbit and for each pair, so that
        D+[o, o'] = sum of M[r_o, t'] over t' in o',
        D-[o, o'] = M[r_o, r_o'] - M[r_o, w0 r_o'].
    Rows of D+ sum to n, W D+ is symmetric for W = diag(|orbit|), and D- is
    symmetric.  With Q = (E+ E-), diag(D+, D-) = Q^-1 M Q over Q, so
    det M = det D+ det D- as integers, and a verdict on the blocks is a
    verdict on M at every prime, p = 2 included.  Raises ValueError unless
    P M P = M, checked exactly on the CSR: for any other entries the blocks
    would not be similar to M.
    """
    rev = young.reversal_index(action.shape)
    m = action.entries
    if m.shape != (len(rev), len(rev)) or (m[rev][:, rev] != m).nnz:
        raise ValueError(f"entries are not the tabloid action of {action.shape}: P M P != M")
    tabloid = np.arange(action.dim)
    reps, fixed = tabloid[tabloid < rev], tabloid[tabloid == rev]
    pairs, size = len(reps), len(reps) + len(fixed)
    orbit = np.empty(action.dim, dtype=np.intp)
    orbit[reps] = orbit[rev[reps]] = np.arange(pairs)
    orbit[fixed] = np.arange(pairs, size)
    e_plus = sp.csr_matrix((np.ones(action.dim, dtype=np.int64), (tabloid, orbit)),
                           shape=(action.dim, size))
    sign = np.where(tabloid < rev, 1, -1)  # -1 at w0 r, on the pair columns
    e_minus = sp.csr_matrix((sign, (tabloid, orbit)), shape=(action.dim, size))[:, :pairs]
    rows = m[np.concatenate((reps, fixed))]  # R M: row r_o of every orbit o
    return rows @ e_plus, rows[:pairs] @ e_minus


def modp_from_entries(dim: int, entries, p: int) -> ModPMatrix:
    """Sparse dict {(i,j): value} -> ModPMatrix; values may be Fractions."""
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
    for k in range(d):
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
    return sign * prev


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
    most _BLOCK products of residues, so every sum is exact.  The entries
    are reduced first, so any integers |r| < 2^52 will do.
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


def _is_symmetric(matrix: ModPMatrix) -> bool:
    """Whether A is symmetric mod p."""
    return not ((matrix.entries - matrix.entries.T).data % matrix.p).any()


def _invariant_form(t_hat: ModPMatrix) -> np.ndarray:
    """The diagonal W mod p, W_0 = 1, with W T-hat symmetric, from T-hat's
    own 2x2 pairs.

    A pair t' = s_i t of tableaux has T[t, t'] = 1 - 1/d^2 and T[t', t] = 1
    for the axial distance d > 1 on t (young.irrep_T_matrix), so
    W_t' = W_t T[t, t'] T[t', t]^-1.  The off-diagonal entries connect the
    tableaux, and each vectorised sweep sets W_t' for every entry (t, t')
    with W_t set and W_t' unset, until none is left.  Every off-diagonal
    residue and every W_t is nonzero mod p > n, so 0 marks an unset W_t.
    Raises ValueError unless T-hat's off-diagonal pattern is symmetric and
    every W_t is set.
    """
    p, dim = t_hat.p, t_hat.dim
    ent, back = t_hat.entries, t_hat.entries.T.tocsr()
    ent.sort_indices()
    back.sort_indices()
    if not (np.array_equal(ent.indptr, back.indptr)
            and np.array_equal(ent.indices, back.indices)):
        raise ValueError("T-hat has no diagonal W with W T-hat symmetric")
    rows = np.repeat(np.arange(dim), np.diff(ent.indptr))
    off = rows != ent.indices
    t, t2 = rows[off], ent.indices[off]  # back.data[e] = T[t2, t]
    values, position = np.unique(back.data[off], return_inverse=True)
    inverses = np.array([pow(int(v), -1, p) for v in values.tolist()], dtype=np.int64)
    ratio = ent.data[off] * inverses[position] % p
    w = np.zeros(dim, dtype=np.int64)
    w[0] = 1
    while len(t):
        step = w[t] != 0
        if not step.any():
            break
        w[t2[step]] = w[t[step]] * ratio[step] % p
        left = w[t2] == 0
        t, t2, ratio = t[left], t2[left], ratio[left]
    if not w.all():
        raise ValueError("T-hat has no diagonal W with W T-hat symmetric")
    return w


def _symmetrised(t_hat: ModPMatrix) -> ModPMatrix:
    """W T-hat mod p for the W of _invariant_form: its rows scaled by W.
    Raises ValueError unless it is symmetric mod p."""
    entries = t_hat.entries.copy()
    rows = np.repeat(np.arange(t_hat.dim), np.diff(entries.indptr))
    entries.data = entries.data * _invariant_form(t_hat)[rows] % t_hat.p
    scaled = ModPMatrix(dim=t_hat.dim, p=t_hat.p, entries=entries)
    if not _is_symmetric(scaled):
        raise ValueError("T-hat has no diagonal W with W T-hat symmetric")
    return scaled


def _lanczos(matrix: ModPMatrix, v: np.ndarray) -> list[int]:
    """The t of every step of one Lanczos pass over F_p on a symmetric S of
    order f (Lanczos, J. Res. Nat. Bur. Standards 49, 1952), up to the
    first t = 0 mod p and for at most f products.

    From w_0 = v and w_-1 = 0, step i takes t_i = w_i . S w_i and
        w_(i+1) = S w_i - alpha w_i - beta w_(i-1),
        alpha = (S w_i . S w_i) / t_i,  beta = t_i / t_(i-1),
    which makes w_(i+1) S-orthogonal to w_i and w_(i-1), and so, S being
    symmetric, to every earlier w.  The pass is full length when it returns
    f values: then K = (w_0 ... w_(f-1)) has K^T S K = diag(t), and
    det(K)^2 det S = prod t != 0.  A shorter list ends at w = 0 (v lies in
    an invariant subspace of S) or at a self-orthogonal w (a breakdown).

    Arithmetic is int64 with w in [0, p) before each product (PRIME_LIMIT);
    S w is reduced into [0, p) before its dot products.
    """
    p, entries = matrix.p, matrix.entries
    w, w_prev = v.copy(), np.zeros_like(v)
    scratch = np.empty_like(v)
    ts: list[int] = []
    inv_prev = 0
    for step in range(matrix.dim):
        sw = _reduce_int(entries @ w, p, scratch)
        t = int(w @ sw) % p
        if not t:
            break
        ts.append(t)
        if step + 1 == matrix.dim:
            break
        inv = pow(t, -1, p)
        sw -= np.multiply(w, int(sw @ sw) % p * inv % p, out=scratch)
        sw -= np.multiply(w_prev, t * inv_prev % p, out=scratch)
        w_prev, w, inv_prev = w, _reduce_int(sw, p, scratch), inv
    return ts


def _rescaled(matrix: ModPMatrix, d: np.ndarray) -> ModPMatrix:
    """D A D mod p for D = diag(d): each entry r d_i d_j, |r d_i d_j| < p^3,
    scaled in int64 and reduced into [0, p)."""
    entries = matrix.entries.copy()
    rows = np.repeat(np.arange(entries.shape[0]), np.diff(entries.indptr))
    entries.data = _reduce_int(entries.data * d[rows] * d[entries.indices], matrix.p)
    return ModPMatrix(dim=matrix.dim, p=matrix.p, entries=entries)


def _certify_wiedemann(matrix: ModPMatrix, checked: bool = False) -> str:
    """The black-box verdict on a symmetric S: 'invertible' when a Lanczos
    pass runs full length (_lanczos), which proves det S != 0 mod p.

    The pass starts from a seeded random v of nonzero residues.  A short
    pass gets one more, from the same v, on D S D for a seeded random
    diagonal D of nonzero residues; det D != 0, so a full pass there is a
    proof too.  Two short passes give 'singular-mod-p', which proves
    nothing.  Raises ValueError unless S is symmetric mod p, which is
    checked here unless the caller has `checked` it.
    """
    if not (checked or _is_symmetric(matrix)):
        raise ValueError("the black-box check needs a symmetric matrix")
    p, dim = matrix.p, matrix.dim
    rng = np.random.default_rng((WIEDEMANN_SEED, p, dim))
    v = rng.integers(1, p, dim, dtype=np.int64)
    if len(_lanczos(matrix, v)) == dim:
        return VERDICT_INVERTIBLE
    d = rng.integers(1, p, dim, dtype=np.int64)
    if len(_lanczos(_rescaled(matrix, d), v)) == dim:
        return VERDICT_INVERTIBLE
    return VERDICT_SINGULAR


# ---------------------------------------------------------------------------
# public certificate interface

@dataclass(frozen=True)
class MatrixCheck:
    label: str
    dim: int
    prime: int | None
    verdict: str  # invertible | singular-mod-p | skipped
    method: str   # dense-elimination | wiedemann | skipped

    @property
    def evidence(self) -> str | None:
        """What an 'invertible' verdict rests on: a determinant or a
        full-length Lanczos pass, both deterministic; None for a skipped
        check."""
        return None if self.method == "skipped" else "deterministic"

    def to_json_dict(self) -> dict:
        return {"label": self.label, "dim": self.dim, "prime": self.prime,
                "verdict": self.verdict, "method": self.method,
                "evidence": self.evidence}


def invertible_mod_p(matrix, p: int) -> str:
    """'invertible' proves rational invertibility; 'singular-mod-p' proves
    nothing and should be retried at another prime.

    Accepts dense square rows (ints or Fractions) or an ActionMatrix, whose
    certificate _coset_certificate chooses.  Rows are eliminated densely up
    to DENSE_LIMIT, and at any dimension when they are not symmetric mod p;
    symmetric rows above it take the black-box check.
    """
    _check_prime(p)
    if not isinstance(matrix, ActionMatrix):
        return _certify(modp_from_rows(matrix, p))[0]
    return _coset_certificate(matrix.n, matrix.shape, (p,), matrix)()[0].verdict


def _verdict(det: int) -> str:
    return VERDICT_INVERTIBLE if det else VERDICT_SINGULAR


def _certify(matrix: ModPMatrix, checked: bool = False) -> tuple[str, str]:
    """Verdict and method: the black-box check for a matrix above
    DENSE_LIMIT that is symmetric mod p (checked here, unless the caller
    has `checked` it), dense elimination otherwise."""
    if matrix.dim <= DENSE_LIMIT or not (checked or _is_symmetric(matrix)):
        return _verdict(_det_mod_dense(matrix)), "dense-elimination"
    return _certify_wiedemann(matrix, checked=True), "wiedemann"


def _certify_split(blocks, p: int) -> str:
    """Dense verdict on a coset matrix M from det D+ det D- mod p, for the
    integer blocks of reversal_split, which the dense engine reduces."""
    det = 1
    for block in blocks:
        det = det * _det_mod_dense(ModPMatrix(block.shape[0], p, block)) % p
    return _verdict(det)


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


def _seminormal_block(lam, dim: int, p: int, symmetric: bool) -> ModPMatrix:
    """T-hat_lam mod p (young.irrep_T_matrix) at dimension f^lam = dim, or,
    if symmetric, the W T-hat_lam of _symmetrised, which has checked that
    it is symmetric, and whose verdict is T-hat_lam's: det W != 0 mod p for
    every p > n."""
    t_hat = ModPMatrix(dim=dim, p=p, entries=young.irrep_T_matrix(lam, p))
    return _symmetrised(t_hat) if symmetric else t_hat


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


def _constituents(n: int, mu, primes, use_list: str = "computed", check_limit=inf):
    """The partitions lam whose T-hat_lam are checked for mu, and their
    dimensions f^lam: every lam dominating mu (Young's rule), or, for the
    use_list 'published', the published list of (4,4,4,3) in S_15.

    Refuses, before any block is built, a prime p <= n (ValueError: the
    seminormal blocks reduce mod p only for p > n, where no axial distance
    vanishes) and a block of dimension up to check_limit, which is to be
    checked, above young.IRREP_DIMENSION_LIMIT (DimensionLimitError).
    """
    small = [p for p in primes if p <= n]
    if small:
        raise ValueError(f"seminormal reduction mod {small[0]} needs p > n = {n}")
    if use_list == "computed":
        lams = young.constituents_dominating(mu)
    elif use_list == "published":
        if n != 15 or mu != (4, 4, 4, 3):
            raise ValueError("the published list is specific to mu=(4,4,4,3)")
        lams = young.published_s15_list()
    else:
        raise ValueError(f"use_list must be 'computed' or 'published', got {use_list!r}")
    dims = [young.hook_length_dimension(lam) for lam in lams]
    too_large = [d for d in dims if young.IRREP_DIMENSION_LIMIT < d <= check_limit]
    if too_large:
        raise young.DimensionLimitError(f"dimension {max(too_large)} exceeds "
                                        f"limit {young.IRREP_DIMENSION_LIMIT}")
    return lams, dims


def _certify_blocks(label: str, dim: int, lams, dims, primes):
    """One MatrixCheck, plus notes, for a coset matrix of dimension dim from
    its blocks: each W T-hat_lam takes the black-box check at successive
    primes until one certifies it.  The check is 'invertible' at the last
    prime, in list order, that any block needed, and 'singular-mod-p' at
    the last prime once a block is singular at every prime."""
    notes = []
    last = 0
    for lam, f in zip(lams, dims):
        for k, p in enumerate(primes):
            block = _seminormal_block(lam, f, p, symmetric=True)
            if _certify_wiedemann(block, checked=True) == VERDICT_INVERTIBLE:
                last = max(last, k)
                break
            notes.append(f"{label}: T-hat{lam} singular mod {p}, retrying")
        else:
            return MatrixCheck(label, dim, primes[-1], VERDICT_SINGULAR, "wiedemann"), notes
    return MatrixCheck(label, dim, primes[last], VERDICT_INVERTIBLE, "wiedemann"), notes


def _coset_certificate(n: int, shape, primes, action: ActionMatrix | None = None):
    """The certificate of the coset matrix M of a shape, chosen by its
    dimension: up to DENSE_LIMIT, dense elimination of the two blocks of
    reversal_split; above it, the black-box check on the isotypic blocks
    T-hat_lam, lam dominating the shape (_certify_blocks), and M is never
    built.

    The guards run here, before M or any block is built: above DENSE_LIMIT,
    the shape must be a partition of n, every prime must exceed n and the
    given `action`, if any, must hold the tabloid action of the shape
    (ValueError; the split only checks P M P = M, which M + I also passes),
    and no block may exceed young.IRREP_DIMENSION_LIMIT
    (DimensionLimitError).  The function returned runs the certificate at
    successive primes, on `action` or on M built from the shape, and gives
    one MatrixCheck plus notes.
    """
    label = f"action{shape}"
    dim = young.tabloid_count(shape) if action is None else action.dim
    if dim <= DENSE_LIMIT:
        def certify():
            split = reversal_split(action if action is not None
                                   else young.build_action_matrix(n, shape))
            return _check_one(label, dim, lambda p: (_certify_split(split, p),
                                                     "dense-elimination"), primes)
        return certify
    if young.partition_n(shape) != n:
        raise ValueError("shape is not a partition of n")
    lams, dims = _constituents(n, shape, primes)
    if action is not None:
        expected = young.build_action_matrix(n, shape).entries
        if action.entries.shape != expected.shape or (action.entries != expected).nnz:
            raise ValueError(f"entries are not the tabloid action of {shape}")
    return lambda: _certify_blocks(label, dim, lams, dims, primes)


def obstruction_coset(n: int, shape, primes=DEFAULT_PRIMES) -> ObstructionReport:
    """Coset route: invertibility of the action matrix M on tabloids of shape.

    Up to DENSE_LIMIT, M is certified through the integer blocks D+ and D-
    of its reversal split, and above it through its isotypic blocks
    T-hat_lam, never building M (_coset_certificate).  Above DENSE_LIMIT, a
    prime p <= n (ValueError) and a block above young.IRREP_DIMENSION_LIMIT
    are refused before any block is built, even when the divisibility check
    fails.
    """
    shape = check_partition(shape)
    primes = _checked_primes(primes)
    div_ok = divisibility_precondition(n, shape)
    certify = _coset_certificate(n, shape, primes)
    if not div_ok:
        note = (f"{n} divides the Young subgroup order {young.young_subgroup_order(shape)}; "
                "the counting argument does not apply")
        return ObstructionReport(n=n, route=f"coset{shape}", divisibility_ok=False,
                                 matrices=(), conclusion=CONCLUSION_INCONCLUSIVE,
                                 notes=(note,))
    check, notes = certify()
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

    Each block is built straight mod p, once per prime tried
    (_seminormal_block); no exact rational entry is formed.  Every prime
    must exceed n, and a prime p <= n anywhere in primes is refused
    (ValueError) before any block is built, as is one at or above
    PRIME_LIMIT."""
    mu = check_partition(mu)
    if young.partition_n(mu) != n:
        raise ValueError("mu is not a partition of n")
    primes = _checked_primes(primes)
    lams, dims = _constituents(n, mu, primes, use_list, check_limit)
    div_ok = divisibility_precondition(n, mu)
    checks = []
    notes = []
    skipped = 0
    for lam, dim in zip(lams, dims):
        label = f"T-hat{lam}"
        if dim > check_limit:
            checks.append(MatrixCheck(label, dim, None, VERDICT_SKIPPED, "skipped"))
            skipped += 1
            continue
        big = dim > DENSE_LIMIT  # symmetrised, and so checked, for the black box
        check, more = _check_one(
            label, dim, lambda p: _certify(_seminormal_block(lam, dim, p, big), checked=big),
            primes)
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

"""Obstructions to 1-perfect Kendall codes via mod-p invertibility.

A 1-perfect code would force linear counting relations on coset (or irrep)
data; when the relevant matrix is invertible over the rationals and n does
not divide the Young subgroup order, no such code exists.  Invertibility is
certified by modular arithmetic: a nonzero determinant mod p is already a
proof of rational invertibility, while singularity mod p says nothing and is
retried with the next prime from the configured list.

An irreducible block T-hat_lam, or the W T-hat_lam of the black-box check,
is built straight mod p from the integer structure of the standard tableaux
(young.irrep_T_matrix and young.irrep_WT_matrix, no rational entry), at
dimension f^lam (hook length formula), so that an all-zero block is a
singular f^lam x f^lam matrix, never an empty one.

A coset matrix M of shape mu is certified in one of two ways, chosen by
its dimension:

- Up to DENSE_LIMIT, by dense elimination of M as it stands
  (modp_from_action), at any prime.
- Above DENSE_LIMIT, through its isotypic blocks; M itself is never
  built.  By Young's rule M^mu = sum K_{lam,mu} S^lam over Q, for the
  partitions lam dominating mu, so det M = prod det(T-hat_lam)^K_{lam,mu}
  with every K_{lam,mu} >= 1.  Both sides are integral at p > n, so M is
  invertible mod p exactly when every T-hat_lam is, and such a prime is
  required (ValueError otherwise).  The report keeps one check at M's
  dimension, method 'wiedemann', at the last prime any block needed.

Two matrix engines are provided.  Dense elimination gives a deterministic
determinant of a coset matrix or an irrep block up to DENSE_LIMIT, and of
rows given to invertible_mod_p at any dimension.  It is a right-looking
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
  representation, built in T-hat_lam's pass from a closed form in the
  tableau contents (young.irrep_WT_matrix).  Each W_t is a ratio of
  products of factors (d-1)(d+1)/d^2, 1 < d < n, so det W != 0 mod p for
  every p > n, and a verdict on S is a verdict on T-hat_lam.  An S that is
  not symmetric mod p is refused (ValueError), as the proof needs it: a
  wrong W can never give a false proof.
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

import numbers
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, inf
from typing import TYPE_CHECKING

import numpy as np

from kendall_codes import young
from kendall_codes.perms import ball_size
from kendall_codes.young import ActionMatrix, check_partition

if TYPE_CHECKING:
    import scipy.sparse as sp

VERDICT_INVERTIBLE = "invertible"
VERDICT_SINGULAR = "singular-mod-p"
VERDICT_SKIPPED = "skipped"

CONCLUSION_NO_CODE = "no-1-perfect-code"
CONCLUSION_INCONCLUSIVE = "inconclusive"

#: largest dimension handled by dense elimination: coset matrices and irrep
#: blocks above it take the black-box check
DENSE_LIMIT = 512
#: default skip threshold for per-matrix checks in the irrep route
IRREP_CHECK_LIMIT = 4096
#: primes must lie below this, for two bounds.  In the black-box engine,
#: int64 stays exact for a sum of fewer than 2^23 products of residues in
#: [0, p), since 2^23 (p-1)^2 < 2^63, and every order it meets is below
#: 2^23 (it runs on irrep blocks, of order at most
#: young.IRREP_DIMENSION_LIMIT):
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
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"entry {value!r} is neither an integer nor a Fraction")
    return int(value) % p


def modp_from_action(action: ActionMatrix, p: int) -> ModPMatrix:
    """M mod p: the matrix a coset certificate up to DENSE_LIMIT eliminates
    as it stands (_coset_certificate)."""
    ent = action.entries.astype(np.int64)
    ent.data %= p
    return ModPMatrix(dim=action.dim, p=p, entries=ent)


def modp_from_entries(dim: int, entries, p: int) -> ModPMatrix:
    """Sparse dict {(i,j): value} -> ModPMatrix; values may be Fractions."""
    ii, jj, vv = [], [], []
    for (i, j), value in entries.items():
        r = _residue(value, p)
        if r:
            ii.append(i)
            jj.append(j)
            vv.append(r)
    import scipy.sparse as sp
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


def _certify_wiedemann(matrix: ModPMatrix) -> str:
    """The black-box verdict on a symmetric S: 'invertible' when a Lanczos
    pass runs full length (_lanczos), which proves det S != 0 mod p.

    The pass starts from a seeded random v of nonzero residues.  A short
    pass gets one more, from the same v, on D S D for a seeded random
    diagonal D of nonzero residues; det D != 0, so a full pass there is a
    proof too.  Two short passes give 'singular-mod-p', which proves
    nothing.  The proof needs S symmetric mod p: ValueError otherwise.
    """
    if not _is_symmetric(matrix):
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

    Accepts dense square rows (integers or Fractions; any other entry is
    refused with ValueError), eliminated densely at any dimension, or an
    ActionMatrix, whose certificate _coset_certificate chooses.
    """
    _check_prime(p)
    if not isinstance(matrix, ActionMatrix):
        return _dense(modp_from_rows(matrix, p))[0]
    return _coset_certificate(matrix.n, matrix.shape, (p,), matrix)()[0].verdict


def _dense(matrix: ModPMatrix) -> tuple[str, str]:
    """The verdict of dense elimination, and its method."""
    return VERDICT_INVERTIBLE if _det_mod_dense(matrix) else VERDICT_SINGULAR, "dense-elimination"


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
    shape = young.check_shape(n, shape)
    return young.young_subgroup_order(shape) % n != 0


def perfect_counting_condition(n: int, r: int) -> bool:
    """Necessary counting condition for an r-perfect code: |B_r| divides n!."""
    return factorial(n) % ball_size(n, r) == 0


def _wiedemann_block(lam, dim: int, p: int) -> tuple[str, str]:
    """The black-box verdict on W T-hat_lam mod p (young.irrep_WT_matrix) at
    dimension f^lam = dim, which is T-hat_lam's, and its method."""
    return _certify_wiedemann(ModPMatrix(dim, p, young.irrep_WT_matrix(lam, p))), "wiedemann"


def _check_one(label: str, dim: int, certify, primes, subject: str | None = None):
    """Run the certificate at successive primes; one MatrixCheck plus notes.

    certify(p) returns the verdict and method at the prime p.  A prime that
    fails gets a note, "{subject} singular mod p, retrying", subject
    defaulting to f"{label}:"."""
    notes = []
    for p in primes:
        verdict, method = certify(p)
        if verdict == VERDICT_INVERTIBLE:
            return MatrixCheck(label, dim, p, verdict, method), notes
        notes.append(f"{subject or label + ':'} singular mod {p}, retrying")
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
    its blocks, each checked at successive primes (_check_one) on the black
    box.  It is 'invertible' at the last prime, in list order, that any
    block needed, or 'singular-mod-p' at the last prime."""
    notes, last = [], 0
    for lam, f in zip(lams, dims):
        check, more = _check_one(f"T-hat{lam}", f, lambda p: _wiedemann_block(lam, f, p),
                                 primes, f"{label}: T-hat{lam}")
        notes += more
        if check.verdict != VERDICT_INVERTIBLE:
            return MatrixCheck(label, dim, primes[-1], VERDICT_SINGULAR, "wiedemann"), notes
        last = max(last, primes.index(check.prime))
    return MatrixCheck(label, dim, primes[last], VERDICT_INVERTIBLE, "wiedemann"), notes


def _coset_certificate(n: int, shape, primes, action: ActionMatrix | None = None):
    """The certificate of the coset matrix M of a shape, chosen by its
    dimension: up to DENSE_LIMIT, dense elimination of M as it stands, on
    `action` (whose entries are certified as given) or on M built from the
    shape; above it, the black-box check on the isotypic blocks T-hat_lam,
    lam dominating the shape (_certify_blocks), and M is never built.

    The guards run here: the shape must be a partition of n and, above
    DENSE_LIMIT and before any block is built, every prime must exceed n,
    the given `action`, if any, must hold the tabloid action of the shape
    (ValueError), and no block may exceed young.IRREP_DIMENSION_LIMIT
    (DimensionLimitError).  The function returned runs the certificate at
    successive primes and gives one MatrixCheck plus notes.
    """
    shape = young.check_shape(n, shape)
    label = f"action{shape}"
    dim = young.tabloid_count(shape) if action is None else action.dim
    if dim <= DENSE_LIMIT:
        def certify():
            m = action if action is not None else young.build_action_matrix(n, shape)
            return _check_one(label, dim, lambda p: _dense(modp_from_action(m, p)), primes)
        return certify
    lams, dims = _constituents(n, shape, primes)
    if action is not None:
        expected = young.build_action_matrix(n, shape).entries
        if action.entries.shape != expected.shape or (action.entries != expected).nnz:
            raise ValueError(f"entries are not the tabloid action of {shape}")
    return lambda: _certify_blocks(label, dim, lams, dims, primes)


def obstruction_coset(n: int, shape, primes=DEFAULT_PRIMES) -> ObstructionReport:
    """Coset route: invertibility of the action matrix M on tabloids of shape.

    Up to DENSE_LIMIT, M is eliminated densely as it stands, and above it
    certified through its isotypic blocks T-hat_lam, never building M
    (_coset_certificate).  Above DENSE_LIMIT, a prime p <= n (ValueError)
    and a block above young.IRREP_DIMENSION_LIMIT are refused before any
    block is built, even when the divisibility check fails.
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

    Each block is built straight mod p, once per prime tried: T-hat_lam for
    dense elimination up to DENSE_LIMIT, W T-hat_lam for the black-box check
    above it (_wiedemann_block); no exact rational entry is formed.  Every prime
    must exceed n, and a prime p <= n anywhere in primes is refused
    (ValueError) before any block is built, as is one at or above
    PRIME_LIMIT."""
    mu = young.check_shape(n, mu)
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
        certify = ((lambda p: _wiedemann_block(lam, dim, p)) if dim > DENSE_LIMIT else
                   (lambda p: _dense(ModPMatrix(dim, p, young.irrep_T_matrix(lam, p)))))
        check, more = _check_one(label, dim, certify, primes)
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

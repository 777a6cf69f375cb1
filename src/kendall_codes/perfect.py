"""Obstructions to 1-perfect Kendall codes via mod-p invertibility.

A 1-perfect code would force linear counting relations on coset (or irrep)
data; when the relevant matrix is invertible over the rationals and n does
not divide the Young subgroup order, no such code exists.  Invertibility is
certified by modular arithmetic: a nonzero determinant mod p is already a
proof of rational invertibility, while singularity mod p says nothing and is
retried with the next prime from the configured list.

Each matrix is reduced mod p at its known dimension: a coset matrix from its
sparse action matrix (one row per tabloid), an irreducible block T-hat_lam
from its exact rational entries at dimension f^lam (hook length formula).
An all-zero block is therefore a singular f^lam x f^lam matrix, never an
empty one.

Two matrix engines are provided.  Dense elimination (numpy, residues mod p)
gives a deterministic determinant for dimensions up to DENSE_LIMIT.  Above
that, elimination fill is prohibitive, so a Wiedemann black-box check is used
instead (Wiedemann, IEEE Trans. Inf. Theory 32(1), 1986):

- One Krylov sequence u . A^k v_1 of 2 B + 2 terms, where B bounds the degree
  of the minimal polynomial of A, goes through one Berlekamp-Massey pass,
  which returns the minimal generator g of the sequence.  For a coset matrix
  B = sum of f^lam over the partitions lam dominating the shape (Young's
  rule: M^mu = sum K_{lam,mu} S^lam); otherwise B = dim.
- When g(0) != 0 the same annihilator is shared by all WIEDEMANN_SOLVES
  right-hand sides: w_j = -g(0)^-1 (A^(d-1) v_j + ... + c_(d-1) v_j), and
  A w_j = v_j mod p is verified exactly for every j.  A v_j that fails gets
  a fresh sequence of its own.
- The evidence is randomized: with independent uniform v_j (from a fixed
  seed), a singular matrix passes only if every v_j lies in range(A), which
  has probability at most p^-2 for two solves.  An invertible matrix can at
  worst be reported 'singular-mod-p', which proves nothing.

Every certificate records the prime and the method that produced it.  Primes
must lie below PRIME_LIMIT so that int64 arithmetic stays exact.
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
#: primes must lie below this: residue products summed over a row, a
#: Krylov projection or a Berlekamp-Massey discrepancy then stay exact in int64
PRIME_LIMIT = 2**20
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
    entries: sp.csr_matrix  # int64 residues in [0, p)


def _residue(value, p: int) -> int:
    if isinstance(value, Fraction):
        if value.denominator % p == 0:
            raise ValueError(f"denominator {value.denominator} divisible by {p}")
        return value.numerator * pow(value.denominator, -1, p) % p
    return int(value) % p


def modp_from_action(action: ActionMatrix, p: int) -> ModPMatrix:
    ent = action.entries.astype(np.int64).copy()
    ent.data %= p
    return ModPMatrix(dim=action.dim, p=p, entries=ent)


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


def _det_mod_dense(matrix: ModPMatrix) -> int:
    p = matrix.p
    a = np.mod(matrix.entries.toarray().astype(np.int64), p)
    d = matrix.dim
    det = 1
    for k in range(d):
        nz = np.nonzero(a[k:, k])[0]
        if nz.size == 0:
            return 0
        i = k + int(nz[0])
        if i != k:
            a[[k, i], k:] = a[[i, k], k:]
            det = p - det
        piv = int(a[k, k])
        det = det * piv % p
        a[k, k:] = a[k, k:] * pow(piv, -1, p) % p
        col = a[k + 1:, k]
        if col.any():
            a[k + 1:, k:] = (a[k + 1:, k:] - col[:, None] * a[k, k:][None, :]) % p
    return det


# ---------------------------------------------------------------------------
# black-box certificate (Wiedemann)

def _berlekamp_massey(seq, p: int) -> list[int]:
    """Shortest LFSR c (c[0] = 1) with sum_i c[i] s[k-i] = 0 mod p.

    One pass over the sequence.  Each step is a dot product over the L
    active coefficients of c and, on a nonzero discrepancy, a scaled
    subtraction of the previous connection polynomial b shifted by m, over
    its deg(b) + 1 coefficients only.  Entries stay below p < PRIME_LIMIT and
    lengths below 2**18, so every int64 intermediate fits comfortably.
    """
    s = np.asarray(seq, dtype=np.int64) % p
    n = len(s)
    rev = s[::-1].copy()  # rev[n-k:n-k+L] = s[k-1], ..., s[k-L]
    c = np.zeros(n + 1, dtype=np.int64)
    b = np.zeros(n + 1, dtype=np.int64)
    c[0] = b[0] = 1
    L = lb = 0  # lengths of c and b
    m = 1
    bb = 1
    for k in range(n):
        delta = int((s[k] + c[1:L + 1] @ rev[n - k:n - k + L]) % p)
        if delta == 0:
            m += 1
            continue
        coef = delta * pow(bb, -1, p) % p
        # deg(x^m b) <= max(L, k + 1 - L), so c keeps at most L + 1 terms
        if 2 * L <= k:
            old_c = c[:L + 1].copy()
            c[m:m + lb + 1] = (c[m:m + lb + 1] - coef * b[:lb + 1]) % p
            b[:L + 1] = old_c
            lb, L = L, k + 1 - L
            bb = delta
            m = 1
        else:
            c[m:m + lb + 1] = (c[m:m + lb + 1] - coef * b[:lb + 1]) % p
            m += 1
    return [int(v) for v in c[:L + 1]]


def _matvec_mod(entries: sp.csr_matrix, x: np.ndarray, p: int) -> np.ndarray:
    return entries.dot(x) % p


def _krylov_sequence(matrix: ModPMatrix, u, v, length: int) -> np.ndarray:
    """The first `length` terms of u . A^k v mod p."""
    p = matrix.p
    seq = np.empty(length, dtype=np.int64)
    w = v
    for k in range(length):
        if k:
            w = _matvec_mod(matrix.entries, w, p)
        seq[k] = u.dot(w) % p
    return seq


def _solves(matrix: ModPMatrix, c: list[int], v: np.ndarray) -> bool:
    """Whether w = -c[d]^-1 (A^(d-1) v + c[1] A^(d-2) v + ... + c[d-1] v)
    satisfies A w = v mod p, as it does when g(A) v = 0 for the recurrence
    polynomial g(x) = x^d + c[1] x^(d-1) + ... + c[d] with c[d] != 0."""
    p = matrix.p
    deg = len(c) - 1
    w = v
    for i in range(1, deg):
        w = (_matvec_mod(matrix.entries, w, p) + c[i] * v) % p
    w = (-pow(c[deg], -1, p)) % p * w % p
    return bool((_matvec_mod(matrix.entries, w, p) == v).all())


def _certify_wiedemann(matrix: ModPMatrix, bound: int | None = None) -> str:
    """Verified black-box solves of A w = v for WIEDEMANN_SOLVES random v.

    `bound` caps the degree of the minimal polynomial of A (default: dim).
    One Krylov sequence u . A^k v of 2 bound + 2 terms and one BM pass give
    its minimal generator g, which annihilates A for almost every u and v,
    so g is shared by every right-hand side.  A right-hand side whose exact
    check fails gets a fresh sequence of its own, with up to 3 projections
    u each.  A bound below the true degree can only produce a false
    'singular-mod-p', never a false 'invertible'.
    """
    p, dim = matrix.p, matrix.dim
    length = 2 * (dim if bound is None else bound) + 2
    rng = random.Random(WIEDEMANN_SEED * 1000003 + p * 31 + dim)

    def uniform():
        return np.array([rng.randrange(p) for _ in range(dim)], dtype=np.int64)

    pending = [uniform() for _ in range(WIEDEMANN_SOLVES)]
    tries = 0
    while pending:
        if tries == 3:
            return VERDICT_SINGULAR
        tries += 1
        c = _berlekamp_massey(_krylov_sequence(matrix, uniform(), pending[0], length), p)
        if len(c) == 1 or c[-1] == 0 or not _solves(matrix, c, pending[0]):
            continue
        tries = 0
        pending = [v for v in pending[1:] if not _solves(matrix, c, v)]
    return VERDICT_INVERTIBLE


# ---------------------------------------------------------------------------
# public certificate interface

@dataclass(frozen=True)
class MatrixCheck:
    label: str
    dim: int
    prime: int | None
    verdict: str  # invertible | singular-mod-p | skipped
    method: str   # dense-elimination | wiedemann | skipped

    def to_json_dict(self) -> dict:
        return {"label": self.label, "dim": self.dim, "prime": self.prime,
                "verdict": self.verdict, "method": self.method}


def invertible_mod_p(matrix, p: int) -> str:
    """'invertible' proves rational invertibility; 'singular-mod-p' proves
    nothing and should be retried at another prime.

    Accepts dense square rows (ints or Fractions) or an ActionMatrix.
    """
    _check_prime(p)
    reduce = modp_from_action if isinstance(matrix, ActionMatrix) else modp_from_rows
    verdict, _method = _certify(reduce(matrix, p))
    return verdict


def _certify(matrix: ModPMatrix, bound: int | None = None) -> tuple[str, str]:
    """Verdict and method; `bound` caps the degree of the minimal polynomial
    (see _certify_wiedemann)."""
    if matrix.dim <= DENSE_LIMIT:
        det = _det_mod_dense(matrix)
        return (VERDICT_INVERTIBLE if det else VERDICT_SINGULAR,
                "dense-elimination")
    return _certify_wiedemann(matrix, bound), "wiedemann"


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


def _check_one(label: str, dim: int, reduce, primes, bound: int | None = None):
    """Run the certificate at successive primes; one MatrixCheck plus notes.

    reduce(p) returns the dim x dim matrix as a ModPMatrix at the prime p.
    """
    notes = []
    for p in primes:
        verdict, method = _certify(reduce(p), bound)
        if verdict == VERDICT_INVERTIBLE:
            return MatrixCheck(label, dim, p, verdict, method), notes
        notes.append(f"{label}: singular mod {p}, retrying")
    return MatrixCheck(label, dim, primes[-1], VERDICT_SINGULAR, method), notes


def obstruction_coset(n: int, shape, primes=DEFAULT_PRIMES) -> ObstructionReport:
    """Coset route: invertibility of the action matrix on tabloids of shape."""
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
    action = young.build_action_matrix(n, shape)
    # Young's rule: the minimal polynomial of T on M^shape is the lcm of those
    # of T on the constituents S^lam, lam dominating shape
    bound = sum(young.hook_length_dimension(lam)
                for lam in young.constituents_dominating(shape))
    check, more = _check_one(f"action{shape}", dim,
                             lambda p: modp_from_action(action, p), primes,
                             bound=bound)
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
    tabloid module of mu (all partitions dominating mu, by Young's rule)."""
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
        check, more = _check_one(
            label, dim, lambda p: modp_from_entries(dim, t_hat, p, n=n), primes)
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

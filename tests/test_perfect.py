import errno
import functools
import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from kendall_codes import perfect, young
from kendall_codes.perfect import (
    CONCLUSION_INCONCLUSIVE,
    CONCLUSION_NO_CODE,
    DEFAULT_PRIMES,
    DENSE_LIMIT,
    PRIME_LIMIT,
    VERDICT_INVERTIBLE,
    VERDICT_SINGULAR,
    ModPMatrix,
    conjecture_check,
    divisibility_precondition,
    integer_determinant,
    invertible_mod_p,
    modp_from_entries,
    obstruction_coset,
    obstruction_irreps,
    perfect_counting_condition,
)

from exact_sparse import invariant_form, seminormal_reference


def test_default_primes_are_prime():
    for p in DEFAULT_PRIMES:
        assert perfect._is_prime(p)
        assert p > 10**6


# -- determinants ---------------------------------------------------------------

def test_integer_determinant_known_values():
    assert integer_determinant([[1, 0], [0, 1]]) == 1
    assert integer_determinant([[0, 1], [1, 0]]) == -1
    assert integer_determinant([[1, 1], [1, 1]]) == 0
    assert integer_determinant([[2, 1], [7, 4]]) == 1
    assert integer_determinant(
        young.tridiagonal_reference(5).to_dense()) == 275


def test_determinant_of_the_empty_matrix_is_one():
    # the 0 x 0 matrix
    assert integer_determinant([]) == 1
    p = DEFAULT_PRIMES[0]
    assert perfect._det_mod_dense(perfect.modp_from_rows([], p)) == 1
    assert invertible_mod_p([], p) == VERDICT_INVERTIBLE


@pytest.mark.parametrize("n", range(2, 13))
def test_modular_verdict_matches_exact_determinant(n):
    rows = young.tridiagonal_reference(n).to_dense()
    det = integer_determinant(rows)
    for p in DEFAULT_PRIMES:
        verdict = invertible_mod_p(rows, p)
        assert (verdict == VERDICT_INVERTIBLE) == (det % p != 0)


def test_invertible_mod_p_simple_cases():
    assert invertible_mod_p([[1, 0], [0, 1]], 101) == VERDICT_INVERTIBLE
    assert invertible_mod_p([[1, 1], [1, 1]], 101) == VERDICT_SINGULAR
    assert invertible_mod_p(young.tridiagonal_reference(5).to_dense(),
                            101) == VERDICT_INVERTIBLE  # det 275, 101 prime


def test_invertible_mod_p_refuses_entries_that_are_not_integers():
    # int() would truncate 0.5 to 0 and certify the singular [[0.5, 1], [1, 2]]
    p = DEFAULT_PRIMES[0]
    for rows in ([[0.5, 1], [1, 2]], [[1, "2"], [3, 4]]):
        with pytest.raises(ValueError, match="neither an integer nor a Fraction"):
            invertible_mod_p(rows, p)
    assert invertible_mod_p([[Fraction(1, 2), 1], [1, 2]], p) == VERDICT_SINGULAR
    assert invertible_mod_p([[np.int64(1), 1], [1, 2]], p) == VERDICT_INVERTIBLE


def test_invertible_mod_p_rejects_composite():
    with pytest.raises(ValueError):
        invertible_mod_p([[1]], 100)


def _no_matrix_work(*args, **kwargs):
    raise AssertionError("matrix work started")


def _no_block(shape, p=None):
    raise AssertionError(f"block {shape} built")


def _refuse_blocks(mp):
    """Refuse every block build, T-hat_lam and W T-hat_lam alike."""
    mp.setattr(young, "irrep_T_matrix", _no_block)
    mp.setattr(young, "irrep_WT_matrix", _no_block)


def test_primes_at_or_above_limit_are_rejected(monkeypatch):
    monkeypatch.setattr(young, "build_action_matrix", _no_matrix_work)
    _refuse_blocks(monkeypatch)
    for name in ("modp_from_action", "modp_from_entries", "modp_from_rows"):
        monkeypatch.setattr(perfect, name, _no_matrix_work)
    for p in (1048583, 2147483647):  # the first prime >= 2**20, and 2**31 - 1
        assert p >= PRIME_LIMIT and perfect._is_prime(p)
        with pytest.raises(ValueError, match="not below"):
            obstruction_coset(11, (6, 3, 2), primes=(p,))
        with pytest.raises(ValueError, match="not below"):
            obstruction_irreps(11, (6, 3, 2), primes=(DEFAULT_PRIMES[0], p))
        with pytest.raises(ValueError, match="not below"):
            conjecture_check(7, primes=(p,))
        with pytest.raises(ValueError, match="not below"):
            invertible_mod_p([[1]], p)


def test_largest_prime_below_limit_is_accepted():
    assert invertible_mod_p([[2, 1], [7, 4]], 1048573) == VERDICT_INVERTIBLE


def test_fraction_entries_and_bad_denominator():
    assert invertible_mod_p([[Fraction(1, 2)]], 101) == VERDICT_INVERTIBLE
    with pytest.raises(ValueError):
        modp_from_entries(1, {(0, 0): Fraction(1, 101)}, 101)


def test_seminormal_prime_gate():
    # an axial distance, hence a denominator, may vanish mod p <= n
    for p in (2, 3):
        for build in (young.irrep_T_matrix, young.irrep_WT_matrix):
            with pytest.raises(ValueError, match="p > n"):
                build((2, 1), p)
    assert young.irrep_T_matrix((2, 1), 5).shape == (2, 2)


def test_primes_at_or_below_n_are_refused_before_any_block(monkeypatch):
    _refuse_blocks(monkeypatch)
    for primes in ((DEFAULT_PRIMES[0], 3), (3, DEFAULT_PRIMES[0])):
        with pytest.raises(ValueError, match="p > n = 4"):
            obstruction_irreps(4, (3, 1), primes=primes)
    with pytest.raises(ValueError, match="p > n = 8"):
        obstruction_irreps(8, (4, 4), primes=(7,))


def _smallest_prime_above(n):
    return next(p for p in range(n + 1, 2 * n + 3) if perfect._is_prime(p))


@pytest.mark.parametrize("n", range(1, 9))
def test_residue_block_equals_exact_block_reduced(n):
    for lam in young.all_partitions(n):
        dim = young.hook_length_dimension(lam)
        exact = young.irrep_T_matrix(lam)
        for p in (*DEFAULT_PRIMES, _smallest_prime_above(n)):
            block = young.irrep_T_matrix(lam, p)
            reduced = modp_from_entries(dim, exact, p).entries
            assert block.dtype == np.int64 and block.shape == (dim, dim), (lam, p)
            assert block.nnz == reduced.nnz and (block != reduced).nnz == 0, (lam, p)
            assert ((0 <= block.data) & (block.data < p)).all(), (lam, p)


def test_zero_residue_block_is_singular():
    # the sign irrep of S_2: a 1 x 1 zero matrix at every prime
    for p in (3, *DEFAULT_PRIMES):
        block = young.irrep_T_matrix((1, 1), p)
        assert block.shape == (1, 1) and block.nnz == 0
        assert perfect._det_mod_dense(ModPMatrix(1, p, block)) == 0


# -- dense engine -----------------------------------------------------------------

def test_dense_engine_sums_stay_exact_in_float64():
    # a residue plus _BLOCK residue products, the largest sum between two
    # reductions, for the largest admissible prime
    assert perfect._BLOCK * (PRIME_LIMIT - 1)**2 + PRIME_LIMIT < 2**47 < 2**53


def test_reduce_is_exact_at_the_largest_sums():
    p = 1048573
    top = p - 1 + perfect._BLOCK * (p - 1)**2
    q = top // p
    values = [0, 1, p - 1, p, top, -top, q * p, q * p - 1, q * p + 1,
              -q * p, -q * p - 1, -q * p + 1]
    got = perfect._reduce(np.array(values, dtype=np.float64), p)
    assert [int(v) for v in got] == [v % p for v in values]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from((2, 3, 1000003, 1048573)),
       st.lists(st.one_of(st.integers(-2**62, 2**62 - 1), st.integers(-4, 4),
                          st.sampled_from((-2**62, 2**62 - 1))), min_size=1, max_size=40))
def test_int64_reduction_matches_python_mod(p, values):
    x = np.array(values, dtype=np.int64)
    assert perfect._reduce_int(x, p) is x  # in place
    assert x.tolist() == [v % p for v in values]
    scratch = np.empty_like(x)
    y = np.array(values, dtype=np.int64)
    assert perfect._reduce_int(y, p, scratch).tolist() == [v % p for v in values]


def test_dense_engine_at_worst_magnitude_over_two_panels():
    # every entry p - 1 except a zero shifted diagonal: (p - 1)(J - P) with P
    # the cyclic shift, determinant (p - 1)^d (d - 1)
    p, d = 1048573, perfect._BLOCK + 32
    rows = [[0 if j == (i + 1) % d else p - 1 for j in range(d)] for i in range(d)]
    m = perfect.modp_from_rows(rows, p)
    assert perfect._det_mod_dense(m) == integer_determinant(rows) % p != 0


def test_dense_engine_on_a_multi_panel_coset_matrix():
    # (10,2,1)@13 has 858 tabloids: 7 panels of at most 128 columns
    p = DEFAULT_PRIMES[0]
    m = perfect.modp_from_action(young.build_action_matrix(13, (10, 2, 1)), p)
    assert m.dim == 858 > 6 * perfect._BLOCK
    assert perfect._det_mod_dense(m)
    dense = m.entries.toarray()
    dense[400] = (dense[10] + dense[800]) % p  # rows of panels 0 and 6
    assert perfect._det_mod_dense(perfect.ModPMatrix(m.dim, p, sp.csr_matrix(dense))) == 0


@st.composite
def _small_matrices(draw):
    """A small integer matrix, sometimes made singular by a repeated row or a
    combination of two rows; a prime; panel and sub-panel widths."""
    p = draw(st.sampled_from((2, 3, 1000003, 1048573)))
    d = draw(st.integers(1, 14))
    rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=d, max_size=d),
                         min_size=d, max_size=d))
    if d > 1 and draw(st.booleans()):
        i, j, k = (draw(st.integers(0, d - 1)) for _ in range(3))
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    subpanel = draw(st.integers(1, 3))
    return p, rows, draw(st.integers(subpanel, 8)), subpanel


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_small_matrices())
def test_dense_and_wiedemann_verdicts_match_integer_determinant(case):
    p, rows, block, subpanel = case
    det = integer_determinant(rows) % p
    expected = VERDICT_INVERTIBLE if det else VERDICT_SINGULAR
    m = perfect.modp_from_rows(rows, p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(perfect, "_BLOCK", block)
        mp.setattr(perfect, "_SUBPANEL", subpanel)
        assert perfect._det_mod_dense(m) == det
        assert invertible_mod_p(rows, p) == expected
    if p > 10**6 and rows == [list(col) for col in zip(*rows)]:
        assert perfect._certify_wiedemann(m) == expected


# -- black-box (Lanczos) path ----------------------------------------------------

def test_wiedemann_agrees_with_dense_verdict():
    p = DEFAULT_PRIMES[0]
    inv = perfect.modp_from_action(young.tridiagonal_reference(9), p)
    assert perfect._certify_wiedemann(inv) == VERDICT_INVERTIBLE
    sing = perfect.modp_from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 1]], p)
    assert perfect._certify_wiedemann(sing) == VERDICT_SINGULAR


@st.composite
def _symmetric_matrices(draw):
    """A small symmetric integer matrix, sometimes made singular by a
    symmetric row-and-column combination (P^T M P, where column i of P is
    a e_j + b e_k); a prime."""
    p = draw(st.sampled_from((1000003, 1048573)))
    d = draw(st.integers(1, 14))
    upper = draw(st.lists(st.integers(-4, 4), min_size=d * (d + 1) // 2,
                          max_size=d * (d + 1) // 2))
    rows = [[0] * d for _ in range(d)]
    pairs = ((i, j) for i in range(d) for j in range(i, d))
    for (i, j), x in zip(pairs, upper):
        rows[i][j] = rows[j][i] = x
    if d > 1 and draw(st.booleans()):
        i = draw(st.integers(0, d - 1))
        others = [x for x in range(d) if x != i]
        j, k = draw(st.sampled_from(others)), draw(st.sampled_from(others))
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
        for row in rows:
            row[i] = a * row[j] + b * row[k]
    return p, rows


def _record_lanczos(mp):
    """Wrap _lanczos: returns a list of (matrix, v, ts) per pass."""
    calls = []
    real = perfect._lanczos

    def recorded(matrix, v):
        ts = real(matrix, v)
        calls.append((matrix, v, ts))
        return ts

    mp.setattr(perfect, "_lanczos", recorded)
    return calls


def _one_worker(mp):
    """Check every block in the caller, where a wrapper installed by a test
    sees each call (a forked worker's calls never reach it)."""
    mp.setattr(perfect, "_usable_cpus", lambda: 1)


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(perfect, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(perfect, name, counted)
    return calls


def _start_vector(p: int, dim: int) -> np.ndarray:
    """The v that _certify_wiedemann draws first at (p, dim)."""
    rng = np.random.default_rng((perfect.WIEDEMANN_SEED, p, dim))
    return rng.integers(1, p, dim, dtype=np.int64)


def _products(ts, dim: int) -> int:
    """Products a pass took: one per t != 0, plus the one that gave t = 0
    when it stopped short."""
    return min(len(ts) + 1, dim)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_symmetric_matrices())
def test_symmetric_wiedemann_verdict_matches_integer_determinant(case):
    p, rows = case
    assert all(row == list(col) for row, col in zip(rows, zip(*rows)))
    expected = VERDICT_INVERTIBLE if integer_determinant(rows) % p else VERDICT_SINGULAR
    with pytest.MonkeyPatch.context() as mp:
        lanczos = _record_lanczos(mp)
        assert perfect._certify_wiedemann(perfect.modp_from_rows(rows, p)) == expected
    (matrix, v, ts), *retry = lanczos
    # a full first pass is the proof; a short one gets exactly one more, on
    # D S D from the same v, and a singular matrix never gets a full pass
    assert len(retry) == (0 if len(ts) == matrix.dim else 1)
    assert all(r[1] is v and r[0].dim == matrix.dim for r in retry)
    if expected == VERDICT_SINGULAR:
        assert all(len(c[2]) < matrix.dim for c in lanczos)


def test_lanczos_takes_at_most_bound_plus_one_products(monkeypatch):
    # the w with t != 0 are S-orthogonal, hence independent, in the Krylov
    # space of v, whose dimension is at most the degree B of the minimal
    # polynomial: a pass on M stops within B + 1 products.  By Young's rule
    # that degree is at most sum f^lam over the blocks, which the block
    # route runs one full pass each
    shape = (3, 2, 1)
    bound = _young_bound(shape)
    m = perfect.modp_from_action(young.build_action_matrix(6, shape), DEFAULT_PRIMES[0])
    assert m.dim == 60 and bound == 46
    assert _action_determinant(shape) % m.p  # invertible: every block certifies
    ts = perfect._lanczos(m, _start_vector(m.p, m.dim))
    assert len(ts) < m.dim and _products(ts, m.dim) <= bound + 1
    lanczos = _record_lanczos(monkeypatch)
    _one_worker(monkeypatch)
    monkeypatch.setattr(perfect, "DENSE_LIMIT", 0)
    assert invertible_mod_p(young.build_action_matrix(6, shape), m.p) == VERDICT_INVERTIBLE
    assert [len(c[2]) for c in lanczos] == [c[0].dim for c in lanczos]
    assert sum(_products(c[2], c[0].dim) for c in lanczos) == bound


def _exact_lanczos(rows, v, p) -> list[int]:
    """_lanczos in Python integers, on dense rows."""
    dim = len(rows)
    w, w_prev, inv_prev, ts = [int(x) for x in v], [0] * dim, 0, []
    for _ in range(dim):
        sw = [sum(a * b for a, b in zip(row, w)) % p for row in rows]
        t = sum(a * b for a, b in zip(w, sw)) % p
        if not t:
            break
        ts.append(t)
        inv = pow(t, -1, p)
        alpha, beta = sum(x * x for x in sw) * inv % p, t * inv_prev % p
        w, w_prev, inv_prev = [(a - alpha * b - beta * c) % p
                               for a, b, c in zip(sw, w, w_prev)], w, inv
    return ts


@pytest.mark.parametrize("packed", [False, True], ids=["unpacked", "packed"])
def test_lanczos_is_exact_where_a_w_must_be_reduced(packed):
    # R (p-1), R the largest absolute row sum, fits in 31 bits ("packed",
    # two lanes of S w could share an int64 word) or exceeds it; on both,
    # S w . S w overflows int64 unless S w is reduced first
    p = 1048573
    if packed:  # 2032 I + J: row sums 2048, R (p-1) just below 2^31
        d = 16
        rows = [[2032 * (i == j) + 1 for j in range(d)] for i in range(d)]
    else:  # (p-1)(J - I): every off-diagonal residue p - 1
        d = 8
        rows = [[(p - 1) * (i != j) for j in range(d)] for i in range(d)]
    assert integer_determinant(rows) % p
    row_max = max(sum(abs(a) for a in row) for row in rows)
    assert (row_max * (p - 1) < 2**31) == packed
    assert d * (row_max * (p - 1))**2 >= 2**63
    m = perfect.modp_from_rows(rows, p)
    for v in (np.full(d, p - 1, dtype=np.int64), _start_vector(p, d)):
        assert perfect._lanczos(m, v) == _exact_lanczos(rows, v, p)


def test_lanczos_is_exact_at_the_largest_residues():
    # (p-1) J + I at the largest admissible prime: every term of a product
    # or a dot product is as large as a residue allows
    p, d = 1048573, 12
    rows = [[(p - 1) + (i == j) for j in range(d)] for i in range(d)]
    assert integer_determinant(rows) % p
    m = perfect.modp_from_rows(rows, p)
    for v in (np.full(d, p - 1, dtype=np.int64), _start_vector(p, d)):
        ts = perfect._lanczos(m, v)
        assert ts == _exact_lanczos(m.entries.toarray().tolist(), v, p)
    # a seminormal block at the largest prime: full length, as exact
    s = ModPMatrix(35, p, young.irrep_WT_matrix((4, 2, 1), p))
    v = _start_vector(p, 35)
    assert perfect._lanczos(s, v) == _exact_lanczos(s.entries.toarray().tolist(), v, p)
    assert len(perfect._lanczos(s, v)) == 35


def _refuse_symmetric(*args):
    raise AssertionError("Lanczos on a non-symmetric matrix")


def test_nonsymmetric_matrix_never_takes_the_symmetric_path(monkeypatch):
    monkeypatch.setattr(perfect, "_lanczos", _refuse_symmetric)
    p = DEFAULT_PRIMES[0]
    tri = young.tridiagonal_reference(9).to_dense()
    tri[0][8] = 1  # one entry off the symmetric pattern
    with pytest.raises(ValueError, match="symmetric"):
        perfect._certify_wiedemann(perfect.modp_from_rows(tri, p))
    # a coset matrix with its rows scaled, D M, is self-adjoint only under the
    # D-weighted product, and a seminormal block only as W T-hat: both are
    # refused as they are
    m = young.build_action_matrix(5, (4, 1)).to_dense()
    scaled = sp.csr_matrix(np.arange(1, 6)[:, None] * np.array(m, dtype=np.int64))
    block = ModPMatrix(35, p, young.irrep_T_matrix((4, 2, 1), p))
    for matrix in (ModPMatrix(5, p, scaled), block):
        with pytest.raises(ValueError, match="symmetric"):
            perfect._certify_wiedemann(matrix)


def test_invertible_mod_p_eliminates_nonsymmetric_rows_at_any_dimension(monkeypatch):
    p = DEFAULT_PRIMES[0]
    tri = young.tridiagonal_reference(9).to_dense()
    asym = [row[:] for row in tri]
    asym[0][8] = 1
    monkeypatch.setattr(perfect, "DENSE_LIMIT", 0)
    lanczos = _count_calls(monkeypatch, "_lanczos")
    dense = _count_calls(monkeypatch, "_det_mod_dense")
    for rows in (asym, [[1, 2, 0], [1, 2, 0], [0, 0, 1]]):
        expected = VERDICT_INVERTIBLE if integer_determinant(rows) % p else VERDICT_SINGULAR
        assert invertible_mod_p(rows, p) == expected
    assert len(dense) == 2 and lanczos == []
    # symmetric rows above the limit are eliminated densely too
    assert invertible_mod_p(tri, p) == VERDICT_INVERTIBLE
    assert len(dense) == 3 and lanczos == []


def test_singular_matrix_takes_exactly_two_lanczos_passes(monkeypatch):
    p = DEFAULT_PRIMES[0]
    lanczos = _record_lanczos(monkeypatch)
    sing = perfect.modp_from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 1]], p)
    assert perfect._certify_wiedemann(sing) == VERDICT_SINGULAR
    assert len(lanczos) == 2
    # (2,2,2)@6 is singular over Q through its block T-hat(2,2,2), the last
    # of its seven: six full passes, then the two short ones of that block
    shape = (2, 2, 2)
    assert _action_determinant(shape) == 0
    lanczos.clear()
    _one_worker(monkeypatch)
    monkeypatch.setattr(perfect, "DENSE_LIMIT", 0)
    assert invertible_mod_p(young.build_action_matrix(6, shape), p) == VERDICT_SINGULAR
    assert [(c[0].dim, len(c[2]) == c[0].dim) for c in lanczos] == [
        (1, True), (5, True), (9, True), (10, True), (5, True), (16, True), (5, False),
        (5, False)]


def _isotropic_diagonal(p: int, dim: int) -> list[list[int]]:
    """A diagonal matrix D, invertible mod p, with v . D v = 0 mod p for the
    first v that _certify_wiedemann draws at (p, dim)."""
    v = [int(x) for x in _start_vector(p, dim)]
    diag = [0] + [1] * (dim - 1)
    diag[0] = -sum(x * x for x in v[1:]) * pow(v[0] * v[0], -1, p) % p
    assert diag[0] and sum(d * x * x for d, x in zip(diag, v)) % p == 0
    return [[diag[i] if i == j else 0 for j in range(dim)] for i in range(dim)]


def _assert_one_rescaled_pass(lanczos, rescaled):
    """The second of exactly two Lanczos passes runs on D S D for one
    diagonal D of nonzero residues, from the very v of the first."""
    (matrix, v, ts), (scaled, v2, _) = lanczos
    [(unscaled, d)] = rescaled
    p, d = matrix.p, [int(di) for di in d]
    assert unscaled is matrix and all(0 < di < p for di in d)
    a = matrix.entries.toarray().tolist()
    assert scaled.entries.toarray().tolist() == [
        [d[i] * a[i][j] * d[j] % p for j in range(len(d))] for i in range(len(d))]
    assert len(ts) < matrix.dim and v2 is v


@pytest.mark.parametrize("failure", ["breakdown", "short-pass"])
def test_failed_lanczos_lane_falls_back_with_the_same_right_hand_side(monkeypatch, failure):
    p = DEFAULT_PRIMES[0]
    if failure == "breakdown":  # t = v . S v = 0 at the first step, with v != 0
        m = perfect.modp_from_rows(_isotropic_diagonal(p, 9), p)
    else:  # S = 3 I: w_1 = 0, a one-step pass; D S D = 3 D^2 has 9 eigenvalues
        m = perfect.modp_from_rows((3 * np.eye(9, dtype=int)).tolist(), p)
    lanczos = _record_lanczos(monkeypatch)
    rescaled = _count_calls(monkeypatch, "_rescaled")
    assert perfect._certify_wiedemann(m) == VERDICT_INVERTIBLE
    _assert_one_rescaled_pass(lanczos, rescaled)
    assert len(lanczos[0][2]) == (0 if failure == "breakdown" else 1)
    assert len(lanczos[1][2]) == 9


def test_forced_breakdown_retries_once_and_never_certifies(monkeypatch):
    # every pass breaks down one step short: the invertible block T-hat(4,2,1)
    # is retried once on D S D, then reported 'singular-mod-p'
    p = DEFAULT_PRIMES[0]
    real = perfect._lanczos
    monkeypatch.setattr(perfect, "_lanczos", lambda matrix, v: real(matrix, v)[:-1])
    lanczos = _record_lanczos(monkeypatch)
    rescaled = _count_calls(monkeypatch, "_rescaled")
    s = ModPMatrix(35, p, young.irrep_WT_matrix((4, 2, 1), p))
    assert perfect._certify_wiedemann(s) == VERDICT_SINGULAR
    _assert_one_rescaled_pass(lanczos, rescaled)
    # a coset on the block route then moves to the next prime, and no prime
    # certifies it
    monkeypatch.setattr(perfect, "DENSE_LIMIT", 0)
    report = obstruction_coset(7, (4, 2, 1))
    assert report.matrices[0].verdict == VERDICT_SINGULAR
    assert report.matrices[0].prime == DEFAULT_PRIMES[-1]
    assert report.conclusion == CONCLUSION_INCONCLUSIVE
    assert report.notes == tuple(f"action(4, 2, 1): T-hat(7,) singular mod {p}, retrying"
                                 for p in DEFAULT_PRIMES)


def test_full_pass_runs_iff_the_block_is_invertible():
    # at DEFAULT_PRIMES[0], for every lam |- n <= 8: the first pass on
    # S = W T-hat_lam is full length exactly when T-hat_lam is invertible,
    # and then prod t = det(K)^2 det S, so prod t * det S is a nonzero
    # square (Euler's criterion)
    p = DEFAULT_PRIMES[0]
    for n in range(1, 9):
        for lam in young.all_partitions(n):
            f = young.hook_length_dimension(lam)
            t_hat = ModPMatrix(f, p, young.irrep_T_matrix(lam, p))
            s = ModPMatrix(f, p, young.irrep_WT_matrix(lam, p))
            ts = perfect._lanczos(s, _start_vector(p, f))
            assert (len(ts) == f) == bool(perfect._det_mod_dense(t_hat)), lam
            if len(ts) == f:
                square = functools.reduce(lambda a, b: a * b % p, ts, perfect._det_mod_dense(s))
                assert square and pow(square, (p - 1) // 2, p) == 1, lam


def test_singular_matrix_is_never_certified_at_a_small_prime(monkeypatch):
    # the singular (1,1)@2 on the black box at p = 3, from 60 seeds: no
    # full pass exists, so the verdict is never 'invertible'; the block
    # route says the same, through the zero block T-hat(1,1)
    m = perfect.modp_from_action(young.build_action_matrix(2, (1, 1)), 3)
    assert integer_determinant(m.entries.toarray().tolist()) == 0
    for seed in range(60):
        monkeypatch.setattr(perfect, "WIEDEMANN_SEED", seed)
        assert perfect._certify_wiedemann(m) == VERDICT_SINGULAR
    monkeypatch.setattr(perfect, "DENSE_LIMIT", 0)
    assert invertible_mod_p(young.build_action_matrix(2, (1, 1)), 3) == VERDICT_SINGULAR


SMALL_COSET_SHAPES = [shape for n in range(2, 8) for shape in young.all_partitions(n)]
#: integer_determinant takes about a second at this dimension
EXACT_DET_DIM = 210


def _young_bound(shape) -> int:
    return sum(young.hook_length_dimension(lam)
               for lam in young.constituents_dominating(shape))


@functools.cache
def _action_determinant(shape) -> int:
    """Exact determinant of the action matrix on tabloids of shape.

    Above EXACT_DET_DIM, integer_determinant is too slow; there the
    determinant is 0 when that of a dominating shape nu is 0.  By Young's
    rule every constituent S^lam of M^nu (lam dominating nu) is one of M^mu
    when nu dominates mu, so a singular block of M^nu is a block of M^mu.
    """
    n = sum(shape)
    if young.tabloid_count(shape) <= EXACT_DET_DIM:
        return integer_determinant(young.build_action_matrix(n, shape).to_dense())
    witnesses = [nu for nu in young.all_partitions(n)
                 if nu != shape and young.dominance_geq(nu, shape)
                 and young.tabloid_count(nu) <= EXACT_DET_DIM
                 and _action_determinant(nu) == 0]
    assert witnesses, f"no exact determinant for {shape}"
    return 0


@pytest.mark.parametrize("shape", SMALL_COSET_SHAPES, ids=str)
def test_wiedemann_matches_integer_determinant_on_action_matrices(shape, monkeypatch):
    # forced onto the block route, the black box certifies M exactly when
    # its integer determinant is nonzero mod p
    p = DEFAULT_PRIMES[0]
    action = young.build_action_matrix(sum(shape), shape)
    expected = VERDICT_INVERTIBLE if _action_determinant(shape) % p else VERDICT_SINGULAR
    monkeypatch.setattr(perfect, "DENSE_LIMIT", 0)
    assert invertible_mod_p(action, p) == expected


@pytest.mark.parametrize("shape", SMALL_COSET_SHAPES, ids=str)
def test_krylov_degree_within_young_bound(shape):
    # the w with t != 0 are S-orthogonal, hence independent, in the Krylov
    # space of v, whose dimension is at most the degree of the minimal
    # polynomial of M: at most B = sum f^lam by Young's rule, so a pass on
    # M stops within B + 1 products
    p = DEFAULT_PRIMES[0]
    m = perfect.modp_from_action(young.build_action_matrix(sum(shape), shape), p)
    bound = _young_bound(shape)
    ts = perfect._lanczos(m, _start_vector(p, m.dim))
    assert 0 < _products(ts, m.dim) <= bound + 1
    assert len(ts) <= bound


def _kostka(lam, mu) -> int:
    """Semistandard tableaux of shape lam and content mu, counted by filling
    the cells in row-major order: rows weakly increase, columns strictly."""
    cells = [(r, c) for r, size in enumerate(lam) for c in range(size)]

    def fill(k, left, grid):
        if k == len(cells):
            return 1
        r, c = cells[k]
        low = max(grid.get((r, c - 1), 0), grid.get((r - 1, c), -1) + 1)
        count = 0
        for x in range(low, len(mu)):
            if left[x]:
                left[x] -= 1
                grid[r, c] = x
                count += fill(k + 1, left, grid)
                left[x] += 1
        grid.pop((r, c), None)
        return count

    return fill(0, list(mu), {})


def test_kostka_numbers_by_brute_force_count_small_cases():
    assert _kostka((2, 1), (1, 1, 1)) == 2  # f^(2,1)
    assert _kostka((3,), (1, 1, 1)) == 1
    assert _kostka((2, 2), (2, 1, 1)) == 1 and _kostka((3, 1), (2, 1, 1)) == 2
    assert _kostka((2, 1), (3,)) == 0


@pytest.mark.parametrize("n", range(1, 8))
def test_youngs_rule_gives_the_coset_determinant_from_the_blocks(n):
    # M^mu = sum K_{lam,mu} S^lam: det M = prod det(T-hat_lam)^K_{lam,mu}
    # mod p, both sides by dense elimination, for every mu |- n with
    # dim M <= 4096; K_{lam,mu} = 0 unless lam dominates mu
    p = DEFAULT_PRIMES[0]
    blocks = {lam: perfect._det_mod_dense(
                  ModPMatrix(young.hook_length_dimension(lam), p, young.irrep_T_matrix(lam, p)))
              for lam in young.all_partitions(n)}
    for mu in young.all_partitions(n):
        if young.tabloid_count(mu) > 4096:
            continue
        kostka = {lam: _kostka(lam, mu) for lam in blocks}
        assert all((k > 0) == young.dominance_geq(lam, mu) for lam, k in kostka.items()), mu
        assert sum(k * young.hook_length_dimension(lam)
                   for lam, k in kostka.items()) == young.tabloid_count(mu)
        det = perfect._det_mod_dense(perfect.modp_from_action(young.build_action_matrix(n, mu), p))
        product = functools.reduce(lambda a, b: a * b % p,
                                   (pow(blocks[lam], k, p) for lam, k in kostka.items()), 1)
        assert det == product, mu


def test_invariant_form_symmetrises_every_seminormal_block():
    # for every lam |- n <= 10, young.irrep_WT_matrix, from W's closed form
    # in the tableau contents, is the exact W times the exact T-hat reduced
    # mod p, entry by entry, and symmetric
    for lam in (lam for n in range(1, 11) for lam in young.all_partitions(n)):
        dim = young.hook_length_dimension(lam)
        t_hat = seminormal_reference(lam)
        w = invariant_form(dim, t_hat)
        assert all(x > 0 for x in w), lam
        exact = {(i, j): w[i] * value for (i, j), value in t_hat.items()}
        for p in (*DEFAULT_PRIMES, _smallest_prime_above(sum(lam))):
            block = young.irrep_WT_matrix(lam, p)
            reduced = modp_from_entries(dim, exact, p).entries
            assert block.shape == (dim, dim) and block.nnz == reduced.nnz, (lam, p)
            assert (block != reduced).nnz == 0, (lam, p)
            assert not ((block - block.T).data % p).any(), (lam, p)


def test_a_wrong_invariant_form_is_refused_by_the_black_box():
    # W with one factor (d^2 - 1)/d^2 taken at a wrong d, on any one
    # tableau t: row t of W T-hat is scaled by r_2 / r_3 != 1, so W T-hat is
    # no longer symmetric and the check refuses it, before any pass
    p = DEFAULT_PRIMES[0]
    wrong = 3 * 9 * pow(4 * 8, -1, p) % p  # r_2 / r_3 = (3/4) / (8/9)
    s = young.irrep_WT_matrix((4, 2, 1), p)
    assert perfect._certify_wiedemann(ModPMatrix(35, p, s)) == VERDICT_INVERTIBLE
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(perfect, "_lanczos", _refuse_symmetric)
        for t in range(35):
            scaled = s.copy()
            row = slice(s.indptr[t], s.indptr[t + 1])
            scaled.data[row] = scaled.data[row] * wrong % p
            with pytest.raises(ValueError, match="symmetric"):
                perfect._certify_wiedemann(ModPMatrix(35, p, scaled))


@pytest.mark.parametrize("n", range(2, 8))
def test_irreps_route_on_the_black_box_matches_the_dense_route(n, monkeypatch):
    dense = {mu: obstruction_irreps(n, mu) for mu in young.all_partitions(n)}
    monkeypatch.setattr(perfect, "DENSE_LIMIT", 0)
    for mu, expected in dense.items():
        report = obstruction_irreps(n, mu)
        assert report.conclusion == expected.conclusion, mu
        assert ([(c.label, c.dim, c.prime, c.verdict) for c in report.matrices]
                == [(c.label, c.dim, c.prime, c.verdict) for c in expected.matrices]), mu
        assert {c.method for c in report.matrices} == {"wiedemann"}


# -- isotypic split ----------------------------------------------------------------

def _exact_block_determinant(lam) -> Fraction:
    """det T-hat_lam over Q, from the exact entries scaled to integers."""
    f = young.hook_length_dimension(lam)
    entries = young.irrep_T_matrix(lam)
    scale = math.lcm(*(Fraction(v).denominator for v in entries.values()))
    rows = [[0] * f for _ in range(f)]
    for (i, j), value in entries.items():
        rows[i][j] = int(value * scale)
    return Fraction(integer_determinant(rows), scale**f)


@pytest.mark.parametrize("shape", [shape for n in range(1, 13) for shape in young.all_partitions(n)
                                   if young.tabloid_count(shape) <= 60], ids=str)
def test_split_determinant_equals_action_determinant(shape):
    # M split into its isotypic blocks (Young's rule, the block route above
    # DENSE_LIMIT): det M = prod det(T-hat_lam)^K_{lam,mu} exactly over Q
    n = sum(shape)
    kostka = {lam: _kostka(lam, shape) for lam in young.constituents_dominating(shape)}
    assert sum(k * young.hook_length_dimension(lam)
               for lam, k in kostka.items()) == young.tabloid_count(shape)
    product = functools.reduce(lambda a, b: a * b,
                               (_exact_block_determinant(lam)**k for lam, k in kostka.items()),
                               Fraction(1))
    assert integer_determinant(young.build_action_matrix(n, shape).to_dense()) == product


#: coset shapes (those that pass the divisibility check) with n <= 8, up to a
#: dimension whose dense elimination takes a fraction of a second; the seven
#: larger ones, (2,1,1,1,1,1)@7 to (1^8)@8, meet the block route in
#: test_coset_and_irrep_routes_agree
SPLIT_SHAPES = [shape for n in range(2, 9) for shape in young.all_partitions(n)
                if divisibility_precondition(n, shape) and young.tabloid_count(shape) <= 1260]


@pytest.mark.parametrize("shape", SPLIT_SHAPES, ids=str)
def test_split_verdict_equals_unsplit_verdict(shape, monkeypatch):
    # invertible_mod_p on M split into its isotypic blocks gives the verdict
    # of dense elimination of M as it stands, at every p > n; a prime p <= n
    # is refused before any block
    action = young.build_action_matrix(sum(shape), shape)
    for p in DEFAULT_PRIMES + (2, 3):
        det = perfect._det_mod_dense(perfect.modp_from_action(action, p))
        dense = VERDICT_INVERTIBLE if det else VERDICT_SINGULAR
        if p == DEFAULT_PRIMES[0]:
            assert invertible_mod_p(action, p) == dense
        with monkeypatch.context() as mp:
            mp.setattr(perfect, "DENSE_LIMIT", 0)
            if p > sum(shape):
                assert invertible_mod_p(action, p) == dense
            else:
                _refuse_blocks(mp)
                with pytest.raises(ValueError, match="p > n"):
                    invertible_mod_p(action, p)


@pytest.mark.parametrize("shape", [(4, 2, 1), (3, 3, 1)], ids=str)
def test_dense_limit_is_the_largest_dimension_eliminated_densely(shape, monkeypatch):
    n = sum(shape)
    dim = young.tabloid_count(shape)
    dense = _count_calls(monkeypatch, "_det_mod_dense")
    blocks = []

    def recorded(real):
        return lambda lam, p=None: blocks.append(lam) or real(lam, p)

    for name in ("irrep_T_matrix", "irrep_WT_matrix"):
        monkeypatch.setattr(young, name, recorded(getattr(young, name)))
    checks = {}
    for limit in (dim, dim - 1):
        monkeypatch.setattr(perfect, "DENSE_LIMIT", limit)
        dense.clear()
        blocks.clear()
        checks[limit] = obstruction_coset(n, shape).matrices[0]
        assert (len(dense), bool(blocks)) == ((1, False) if limit == dim else (0, True))
    assert checks[dim].method == "dense-elimination" and checks[dim - 1].method == "wiedemann"
    assert checks[dim].verdict == checks[dim - 1].verdict


@pytest.mark.parametrize("n", [5, 11, 41])
def test_a_block_that_stops_long_before_the_other_still_solves(n, monkeypatch):
    # (n-1,1) on the block route: T-hat(n) is 1 x 1 and its pass stops at
    # the first product, long before the n - 1 products of T-hat(n-1,1);
    # each block is certified on its own, and M with them
    p = DEFAULT_PRIMES[0]
    action = young.build_action_matrix(n, (n - 1, 1))
    assert perfect._det_mod_dense(perfect.modp_from_action(action, p))
    lanczos = _record_lanczos(monkeypatch)
    _one_worker(monkeypatch)
    monkeypatch.setattr(perfect, "DENSE_LIMIT", 0)
    assert invertible_mod_p(action, p) == VERDICT_INVERTIBLE
    assert [(c[0].dim, len(c[2])) for c in lanczos] == [(1, 1), (n - 1, n - 1)]


def test_block_route_guards_come_before_any_block(monkeypatch):
    _refuse_blocks(monkeypatch)
    # a prime p <= n, anywhere in the list
    for primes in ((7,), (DEFAULT_PRIMES[0], 11)):
        with pytest.raises(ValueError, match="p > n = 11"):
            obstruction_coset(11, (6, 3, 2), primes=primes)
    with pytest.raises(ValueError, match="p > n = 11"):
        invertible_mod_p(young.build_action_matrix(11, (6, 3, 2)), 7)
    # a constituent too large to build
    monkeypatch.setattr(young, "IRREP_DIMENSION_LIMIT", 500)
    with pytest.raises(young.DimensionLimitError, match="990"):
        obstruction_coset(11, (6, 3, 2))
    monkeypatch.undo()
    # entries that are not the tabloid action of the shape, such as M + I
    monkeypatch.setattr(perfect, "DENSE_LIMIT", 0)
    _refuse_blocks(monkeypatch)
    action = young.build_action_matrix(5, (4, 1))
    shifted = action.entries + sp.identity(5, dtype=np.int64, format="csr")
    wrong = young.ActionMatrix(n=5, shape=(4, 1), dim=5, entries=shifted)
    with pytest.raises(ValueError, match="tabloid action"):
        invertible_mod_p(wrong, DEFAULT_PRIMES[0])


# -- blocks on every usable CPU ------------------------------------------------------

def _no_child_left():
    """No child of this process remains, not even one waiting to be reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _workers(mp, k):
    """Spread the black-box blocks over k workers, whatever the CPUs and
    however few the rows; the list returned grows by one at each fork."""
    mp.setattr(perfect, "_usable_cpus", lambda: k)
    mp.setattr(perfect, "WORKER_ROWS", 1)
    forks, real = [], os.fork
    mp.setattr(os, "fork", lambda: forks.append(k) or real())
    return forks


def _split(in_caller, in_workers):
    """A function that runs in_caller in this process and in_workers in a
    forked worker."""
    caller = os.getpid()
    return lambda *args: (in_caller if os.getpid() == caller else in_workers)(*args)


#: the cert-mid and cert-large cases of the benchmark, and two shapes that
#: stop at the divisibility check, with the forks each makes on two workers
SPREAD_CASES = [
    ("irreps", 11, (6, 4, 1), 1),
    ("coset", 13, (10, 2, 1), 1),
    ("coset", 11, (6, 3, 2), 1),
    ("coset", 13, (9, 2, 2), 1),
    ("coset", 12, (5, 5, 2), 0),
    ("coset", 8, (3, 3, 2), 0),
]


@pytest.mark.parametrize("route, n, shape, forks", SPREAD_CASES, ids=str)
def test_reports_are_the_same_on_one_worker_and_on_two(route, n, shape, forks, monkeypatch):
    run = obstruction_coset if route == "coset" else obstruction_irreps
    reports = {}
    for k in (1, 2):
        with monkeypatch.context() as mp:
            made = _workers(mp, k)
            reports[k] = run(n, shape).to_json_dict()
        assert len(made) == (k - 1) * forks
    assert reports[1] == reports[2]
    _no_child_left()


def test_retry_notes_are_the_same_on_one_worker_and_on_two(monkeypatch):
    # on the block route: the singular (2,2,2)@6, whose last block fails at
    # every prime, and (4,2,1)@7 with every pass broken down one step short
    monkeypatch.setattr(perfect, "DENSE_LIMIT", 0)
    real = perfect._lanczos
    singular, broken = {}, {}
    for k in (1, 2):
        with monkeypatch.context() as mp:
            made = _workers(mp, k)
            singular[k] = obstruction_coset(6, (2, 2, 2)).to_json_dict()
            mp.setattr(perfect, "_lanczos", lambda matrix, v: real(matrix, v)[:-1])
            broken[k] = obstruction_coset(7, (4, 2, 1)).to_json_dict()
        assert len(made) == 2 * (k - 1)
    assert singular[1] == singular[2] and broken[1] == broken[2]
    assert singular[2]["notes"] == [f"action(2, 2, 2): T-hat(2, 2, 2) singular mod {p}, retrying"
                                    for p in DEFAULT_PRIMES]
    assert broken[2]["notes"] == [f"action(4, 2, 1): T-hat(7,) singular mod {p}, retrying"
                                  for p in DEFAULT_PRIMES]
    _no_child_left()


def test_a_workers_error_reaches_the_caller(monkeypatch):
    # T-hat_lam in place of W T-hat_lam in the worker: it is not symmetric,
    # and the worker's refusal is raised in the caller with its message
    _workers(monkeypatch, 2)
    monkeypatch.setattr(young, "irrep_WT_matrix",
                        _split(young.irrep_WT_matrix, young.irrep_T_matrix))
    with pytest.raises(ValueError, match="the black-box check needs a symmetric matrix"):
        obstruction_coset(11, (6, 3, 2))
    _no_child_left()


def test_a_worker_error_that_does_not_pickle_still_reaches_the_caller(monkeypatch):
    class Local(Exception):
        pass

    def refuse(*args):
        raise Local("a local class")

    _workers(monkeypatch, 2)
    monkeypatch.setattr(perfect, "_wiedemann_block", _split(perfect._wiedemann_block, refuse))
    with pytest.raises(RuntimeError, match="block worker raised .*a local class"):
        obstruction_coset(13, (10, 2, 1))
    _no_child_left()


def test_a_worker_that_ends_without_a_result_fails_the_call(monkeypatch):
    _workers(monkeypatch, 2)
    monkeypatch.setattr(perfect, "_wiedemann_block",
                        _split(perfect._wiedemann_block, lambda *args: os._exit(0)))
    with pytest.raises(RuntimeError, match="ended without a result"):
        obstruction_coset(11, (6, 3, 2))
    _no_child_left()


def test_an_error_in_the_callers_share_kills_the_workers(monkeypatch):
    # the worker would sleep for a minute a block: it is killed, not waited for
    def refuse(*args):
        raise ArithmeticError("the caller's block")

    _workers(monkeypatch, 2)
    monkeypatch.setattr(perfect, "_wiedemann_block",
                        _split(refuse, lambda *args: time.sleep(60)))
    start = time.perf_counter()
    with pytest.raises(ArithmeticError, match="the caller's block"):
        obstruction_irreps(11, (6, 4, 1))
    assert time.perf_counter() - start < 30
    _no_child_left()


def test_a_fork_that_fails_leaves_no_worker_and_no_open_pipe(monkeypatch):
    # three workers, and the second fork fails: its error reaches the
    # caller, the first worker is killed and reaped, and no pipe end stays
    # open
    forks, real = [], os.fork

    def fork():
        forks.append(1)
        if len(forks) == 2:
            raise BlockingIOError(errno.EAGAIN, "no more processes")
        return real()

    monkeypatch.setattr(perfect, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(os, "fork", fork)
    open_fds = len(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError, match="no more processes"):
        obstruction_coset(11, (6, 3, 2))
    assert len(forks) == 2 and len(os.listdir("/proc/self/fd")) == open_fds
    _no_child_left()


def test_without_fork_every_block_is_checked_in_the_caller(monkeypatch):
    assert perfect._usable_cpus() == len(os.sched_getaffinity(0))
    expected = obstruction_coset(13, (10, 2, 1))
    monkeypatch.delattr(os, "fork")
    assert perfect._usable_cpus() == 1
    assert obstruction_coset(13, (10, 2, 1)) == expected


def test_a_worker_is_forked_only_for_enough_rows(monkeypatch):
    # on two CPUs: the six blocks of (10,2,1)@13 have 781 rows in all, fewer
    # than two workers' WORKER_ROWS, and stay in the caller; the two
    # black-box blocks of (6,4,1)@11 have 1243 and (6,3,2)@11 has 3356
    monkeypatch.setattr(perfect, "_usable_cpus", lambda: 2)
    forks, real = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real())
    for run, n, shape, made in ((obstruction_coset, 13, (10, 2, 1), 0),
                                (obstruction_irreps, 11, (6, 4, 1), 1),
                                (obstruction_coset, 11, (6, 3, 2), 1)):
        forks.clear()
        assert run(n, shape).conclusion == CONCLUSION_NO_CODE
        assert len(forks) == made, shape
    _no_child_left()


def test_blocks_go_largest_first_onto_the_least_loaded_worker():
    dims = [1, 12, 65, 66, 208, 429]  # the blocks of (10,2,1)@13
    assert perfect._shares(dims, 1) == [[0, 1, 2, 3, 4, 5]]
    assert perfect._shares(dims, 2) == [[5], [0, 1, 2, 3, 4]]
    assert perfect._shares([5, 9, 5, 5, 5], 3) == [[1], [0, 3], [2, 4]]


def test_irreps_route_computes_the_dominance_set_once(monkeypatch):
    calls, real = [], young.constituents_dominating
    monkeypatch.setattr(young, "constituents_dominating", lambda mu: calls.append(mu) or real(mu))
    assert obstruction_irreps(7, (4, 2, 1)).conclusion == CONCLUSION_NO_CODE
    assert calls == [(4, 2, 1)]


# -- preconditions ----------------------------------------------------------------

def test_divisibility_precondition():
    assert divisibility_precondition(14, (6, 6, 2))
    assert divisibility_precondition(5, (4, 1))
    assert not divisibility_precondition(6, (5, 1))
    with pytest.raises(ValueError):
        divisibility_precondition(6, (4, 1))


def test_perfect_counting_condition():
    assert perfect_counting_condition(4, 1)
    assert perfect_counting_condition(5, 1)  # never rules out r=1
    assert not perfect_counting_condition(4, 2)  # |B_2| = 9 does not divide 24


def test_perfect_counting_condition_beyond_the_enumeration_limit():
    assert perfect_counting_condition(9, 1)
    assert perfect_counting_condition(14, 2)  # |B_2| = 104 = 8 * 13
    assert not perfect_counting_condition(14, 3)  # |B_3| = 545 = 5 * 109


# -- pipelines ---------------------------------------------------------------------

def test_obstruction_coset_certified_small_cases():
    r5 = obstruction_coset(5, (4, 1))
    assert r5.conclusion == CONCLUSION_NO_CODE
    assert r5.matrices[0].verdict == VERDICT_INVERTIBLE
    r7 = obstruction_coset(7, (6, 1))
    assert r7.conclusion == CONCLUSION_NO_CODE


def test_obstruction_coset_divisibility_gate():
    r = obstruction_coset(6, (5, 1))
    assert not r.divisibility_ok
    assert r.conclusion == CONCLUSION_INCONCLUSIVE
    assert r.matrices == ()


def test_verdicts_consistent_across_primes():
    # an invertibility certificate at one prime is never contradicted at another
    rows = young.build_action_matrix(5, (4, 1)).to_dense()
    verdicts = {p: invertible_mod_p(rows, p) for p in DEFAULT_PRIMES}
    assert set(verdicts.values()) == {VERDICT_INVERTIBLE}


def test_obstruction_irreps_small():
    r = obstruction_irreps(3, (2, 1))
    labels = {c.label: c.verdict for c in r.matrices}
    assert labels["T-hat(3,)"] == VERDICT_INVERTIBLE
    # T-hat on (2,1) at n=3 is genuinely singular (the coset matrix of
    # (2,1) is the n=3 tridiagonal, determinant 0), so no conclusion here
    assert labels["T-hat(2, 1)"] == VERDICT_SINGULAR
    assert r.conclusion == CONCLUSION_INCONCLUSIVE


def test_zero_irrep_block_is_a_singular_matrix():
    # T-hat on the sign irrep of S_2 is the 1 x 1 zero matrix, stored as {};
    # {12} is a 1-perfect code of S_2, so the route must stay inconclusive
    assert young.irrep_T_matrix((1, 1)) == {}
    r = obstruction_irreps(2, (1, 1))
    checks = {c.label: (c.dim, c.verdict) for c in r.matrices}
    assert checks["T-hat(1, 1)"] == (1, VERDICT_SINGULAR)
    assert r.conclusion == CONCLUSION_INCONCLUSIVE


@pytest.mark.parametrize("n", range(2, 9))
def test_coset_and_irrep_routes_agree(n):
    # Young's rule: M^mu = sum K_{lam,mu} S^lam over lam dominating mu, so
    # the coset matrix is invertible iff every block T-hat_lam is
    for mu in young.all_partitions(n):
        assert (obstruction_coset(n, mu).conclusion
                == obstruction_irreps(n, mu).conclusion), mu


def test_obstruction_irreps_conclusive_case():
    # n=4, mu=(3,1): constituents (4) and (3,1); both T-hat invertible
    r = obstruction_irreps(4, (3, 1))
    assert r.divisibility_ok  # 4 does not divide 3! = 6
    assert all(c.verdict == VERDICT_INVERTIBLE for c in r.matrices)
    assert r.conclusion == CONCLUSION_NO_CODE


def test_irrep_limit_is_checked_before_any_block_is_built(monkeypatch):
    # (2,2,2,2) has constituents of dimension 1..90; with the irrep limit at
    # 50 and the default check limit (4096) some block is too large to build
    monkeypatch.setattr(young, "IRREP_DIMENSION_LIMIT", 50)

    _refuse_blocks(monkeypatch)
    with pytest.raises(young.DimensionLimitError):
        obstruction_irreps(8, (2, 2, 2, 2))


def test_irreps_route_builds_no_fraction(monkeypatch):
    # every block is built straight mod p, as T-hat or, above DENSE_LIMIT,
    # as W T-hat: no Fraction and no reduction of an entry dict
    primes = (11, *DEFAULT_PRIMES)
    expected = {}
    for dense in (DENSE_LIMIT, 0):
        monkeypatch.setattr(perfect, "DENSE_LIMIT", dense)
        expected[dense] = obstruction_irreps(7, (3, 2, 2), primes=primes)

    def no_fraction(cls, *args, **kwargs):
        raise AssertionError("Fraction built on the certificate path")

    monkeypatch.setattr(Fraction, "__new__", no_fraction)
    monkeypatch.setattr(perfect, "modp_from_entries", _no_matrix_work)
    for dense, report in expected.items():
        monkeypatch.setattr(perfect, "DENSE_LIMIT", dense)
        assert obstruction_irreps(7, (3, 2, 2), primes=primes) == report
    with pytest.raises(AssertionError, match="Fraction built"):
        young.irrep_T_matrix((3, 2, 2))


def test_obstruction_irreps_skip_reporting():
    r = obstruction_irreps(5, (4, 1), check_limit=1)
    assert any(c.verdict == "skipped" for c in r.matrices)
    assert r.conclusion == CONCLUSION_INCONCLUSIVE


def test_published_list_requires_s15():
    with pytest.raises(ValueError):
        obstruction_irreps(5, (4, 1), use_list="published")


def test_conjecture_instance_p3_is_honest():
    # the (2,2,2) action matrix at n=6 has determinant 0 over the rationals
    # (T-hat on the irrep (2,2,2) is singular), so every prime reports
    # singular and the instance stays inconclusive
    r = conjecture_check(3)
    assert r.divisibility_ok
    assert r.matrices[0].verdict == VERDICT_SINGULAR
    assert r.conclusion == CONCLUSION_INCONCLUSIVE


def test_conjecture_rejects_composite():
    with pytest.raises(ValueError):
        conjecture_check(4)


def test_report_json_shape(monkeypatch):
    d = obstruction_coset(5, (4, 1)).to_json_dict()
    assert d["divisibilityOk"] is True
    assert d["conclusion"] == CONCLUSION_NO_CODE
    assert d["matrices"][0]["method"] == "dense-elimination"
    assert d["matrices"][0]["evidence"] == "deterministic"
    skipped = obstruction_irreps(5, (4, 1), check_limit=1).to_json_dict()["matrices"]
    assert {m["method"]: m["evidence"] for m in skipped} == {
        "dense-elimination": "deterministic", "skipped": None}
    monkeypatch.setattr(perfect, "DENSE_LIMIT", 0)
    check = obstruction_coset(5, (4, 1)).matrices[0]
    assert check.method == "wiedemann"
    assert check.to_json_dict()["evidence"] == "deterministic"

import functools
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
    PRIME_LIMIT,
    VERDICT_INVERTIBLE,
    VERDICT_SINGULAR,
    conjecture_check,
    divisibility_precondition,
    integer_determinant,
    invertible_mod_p,
    modp_from_entries,
    obstruction_coset,
    obstruction_irreps,
    perfect_counting_condition,
)


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


def test_invertible_mod_p_rejects_composite():
    with pytest.raises(ValueError):
        invertible_mod_p([[1]], 100)


def _no_matrix_work(*args, **kwargs):
    raise AssertionError("matrix work started")


def test_primes_at_or_above_limit_are_rejected(monkeypatch):
    for name in ("build_action_matrix", "irrep_T_matrix"):
        monkeypatch.setattr(young, name, _no_matrix_work)
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
    m = young.irrep_T_matrix((2, 1))
    with pytest.raises(ValueError):
        modp_from_entries(2, m, 3, n=3)


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
    assert perfect._certify(m) == (VERDICT_INVERTIBLE, "dense-elimination")
    dense = m.entries.toarray()
    dense[400] = (dense[10] + dense[800]) % p  # rows of panels 0 and 6
    singular = perfect.ModPMatrix(m.dim, p, sp.csr_matrix(dense))
    assert perfect._certify(singular) == (VERDICT_SINGULAR, "dense-elimination")


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
        assert perfect._certify(m) == (expected, "dense-elimination")
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


def _solves(matrix, x, v) -> bool:
    """Whether A x = v mod p, in Python integers."""
    rows = matrix.entries.toarray().tolist()
    return all((sum(a * int(xi) for a, xi in zip(row, x)) - int(vi)) % matrix.p == 0
               for row, vi in zip(rows, v))


def _record_lanczos(mp):
    """Wrap _lanczos: returns a list of (matrix, rhs, x) per call."""
    calls = []
    real = perfect._lanczos

    def recorded(matrix, rhs, steps, *split):
        x = real(matrix, rhs, steps, *split)
        calls.append((matrix, rhs, x))
        return x

    mp.setattr(perfect, "_lanczos", recorded)
    return calls


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(perfect, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(perfect, name, counted)
    return calls


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_symmetric_matrices())
def test_symmetric_wiedemann_verdict_matches_integer_determinant(case):
    p, rows = case
    assert all(row == list(col) for row, col in zip(rows, zip(*rows)))
    expected = VERDICT_INVERTIBLE if integer_determinant(rows) % p else VERDICT_SINGULAR
    with pytest.MonkeyPatch.context() as mp:
        lanczos = _record_lanczos(mp)
        assert perfect._certify_wiedemann(perfect.modp_from_rows(rows, p)) == expected
    (matrix, rhs, x), *retry = lanczos
    # only the right-hand sides the first pass left unsolved reach a second
    failed = [v for v, xj in zip(rhs, x) if not _solves(matrix, xj, v)]
    assert len(retry) == (1 if failed else 0)
    assert all(len(r[1]) == len(failed) for r in retry)


def test_lanczos_takes_at_most_bound_plus_one_products(monkeypatch):
    shape = (3, 2, 1)
    bound = _young_bound(shape)
    m = perfect.modp_from_action(young.build_action_matrix(6, shape), DEFAULT_PRIMES[0])
    assert m.dim == 60 and bound == 46
    assert _action_determinant(shape) % m.p  # invertible: no second pass expected
    products = _count_calls(monkeypatch, "_lane_products")
    lanczos = _count_calls(monkeypatch, "_lanczos")
    assert perfect._certify_wiedemann(m, bound) == VERDICT_INVERTIBLE
    assert 0 < len(products) <= bound + 1
    assert all(packed for _entries, _w, packed, _out in products)  # R = 6
    assert len(lanczos) == 1
    # split: each block stops at its own degree, at most its 30 rows
    unsplit = len(products)
    products.clear()
    split = perfect.reversal_split(young.build_action_matrix(6, shape))
    assert (split.pairs, split.fixed) == (30, 0)
    assert perfect._certify_split(split, m.p, bound) == (VERDICT_INVERTIBLE, "dense-elimination")
    assert perfect._certify_wiedemann(split.mod(m.p), bound, split.pairs) == VERDICT_INVERTIBLE
    assert 0 < len(products) <= split.pairs + 1 < unsplit
    assert all(packed for _entries, _w, packed, _out in products)
    assert len(lanczos) == 2


def test_packed_product_equals_per_lane_products():
    p = 1048573
    unsigned = [[512 + (i == j) for j in range(4)] for i in range(4)]  # R = 2049
    signed = [[-512] * 4, [512, -512, 512, -512], [512] * 4, [-512, 512, -512, 512]]
    cancelling = [[1200 * (-1)**(i + j) for j in range(4)] for i in range(4)]
    # R (p-1) just below 2^31 at R = 2048 (packed) and just above at 2049;
    # the cancelling rows sum to 0 but R = 4800 (unpacked): a plain row sum
    # would pack them and overflow
    for rows, row_max in [([[512] * 4] * 4, 2048), (unsigned, 2049), (signed, 2048),
                          (cancelling, 4800)]:
        assert perfect._packs(row_max, p) == (row_max == 2048)
        entries = sp.csr_matrix(np.array(rows, dtype=np.int64))
        assert perfect._row_max(entries) == row_max
        rng = np.random.default_rng(row_max)
        for k in (2, 3, 4):
            w = rng.integers(0, p, (k, 4), dtype=np.int64)
            w[:2] = p - 1  # the largest row sums, in the low and the high half
            if k == 4:  # a second word of alternating lanes: 2400 (p-1) on
                w[2:] = [[p - 1, 0, p - 1, 0], [0, p - 1, 0, p - 1]]  # the cancelling rows
            expected = np.stack([entries.dot(lane) for lane in w])
            if rows is signed:  # both extremes, -R (p-1) and R (p-1), in both halves
                for lane in expected[:2]:
                    assert -lane.min() == lane.max() == row_max * (p - 1)
            got = perfect._lane_products(entries, w, perfect._packs(row_max, p),
                                         np.empty_like(w))
            assert np.array_equal(got, expected)
            if row_max > 2048 and k == 4:  # the bound is tight: packing would overflow
                packed = perfect._lane_products(entries, w, True, np.empty_like(w))
                assert not np.array_equal(packed, expected)


@pytest.mark.parametrize("packed", [False, True], ids=["unpacked", "packed"])
def test_lanczos_is_exact_where_a_w_must_be_reduced(packed):
    p = 1048573
    if packed:  # 2032 I + J: row sums 2048, R (p-1) just below 2^31
        d = 16
        rows = [[2032 * (i == j) + 1 for j in range(d)] for i in range(d)]
    else:  # (p-1)(J - I): every off-diagonal residue p - 1
        d = 8
        rows = [[(p - 1) * (i != j) for j in range(d)] for i in range(d)]
    assert integer_determinant(rows) % p
    m = perfect.modp_from_rows(rows, p)
    row_max = perfect._row_max(m.entries)
    assert perfect._packs(row_max, p) == packed
    assert d * (row_max * (p - 1))**2 >= 2**63  # A w . A w needs A w reduced
    rhs = [np.full(d, p - 1, dtype=np.int64),
           np.random.default_rng(d).integers(0, p, d, dtype=np.int64)]
    x = perfect._lanczos(m, rhs, d + 1)
    assert all(perfect._is_solution(m, xj, vj) for xj, vj in zip(x, rhs))


def _refuse_symmetric(*args):
    raise AssertionError("Lanczos on a non-symmetric matrix")


def test_nonsymmetric_matrix_never_takes_the_symmetric_path(monkeypatch):
    monkeypatch.setattr(perfect, "_lanczos", _refuse_symmetric)
    p = DEFAULT_PRIMES[0]
    tri = young.tridiagonal_reference(9).to_dense()
    tri[0][8] = 1  # one entry off the symmetric pattern
    with pytest.raises(ValueError, match="self-adjoint"):
        perfect._certify_wiedemann(perfect.modp_from_rows(tri, p))
    # a split is self-adjoint under the W-weighted product of D+, not the
    # plain one, and any entry off that pattern is refused
    split = perfect.reversal_split(young.build_action_matrix(5, (4, 1))).mod(p)
    assert (perfect._self_adjoint(split, 2), perfect._self_adjoint(split)) == (True, False)
    bent = split.entries.tolil()
    bent[0, 3] += 1  # D- of (4,1) starts at row 3
    bent = perfect.ModPMatrix(split.dim, p, bent.tocsr())
    with pytest.raises(ValueError, match="self-adjoint"):
        perfect._certify_wiedemann(bent, None, 2)


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
    # symmetric rows above the limit take the black-box check
    assert invertible_mod_p(tri, p) == VERDICT_INVERTIBLE
    assert len(dense) == 2 and len(lanczos) == 1


def test_singular_matrix_takes_exactly_two_lanczos_passes(monkeypatch):
    p = DEFAULT_PRIMES[0]
    lanczos = _count_calls(monkeypatch, "_lanczos")
    sing = perfect.modp_from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 1]], p)
    assert perfect._certify_wiedemann(sing) == VERDICT_SINGULAR
    assert len(lanczos) == 2
    # (2,2,2)@6 is singular over Q; its split takes the same two passes
    shape = (2, 2, 2)
    assert _action_determinant(shape) == 0
    split = perfect.reversal_split(young.build_action_matrix(6, shape))
    monkeypatch.setattr(perfect, "DENSE_LIMIT", 0)
    assert perfect._certify_split(split, p, _young_bound(shape)) == (VERDICT_SINGULAR, "wiedemann")
    assert len(lanczos) == 4


def _isotropic_diagonal(p: int, dim: int, monkeypatch) -> list[list[int]]:
    """A diagonal matrix D, invertible mod p, with v . D v = 0 mod p for the
    first right-hand side v that _certify_wiedemann draws at (p, dim)."""
    with monkeypatch.context() as mp:
        lanczos = _record_lanczos(mp)
        perfect._certify_wiedemann(perfect.modp_from_rows(np.eye(dim, dtype=int).tolist(), p))
    v = [int(x) for x in lanczos[0][1][0]]
    diag = [0] + [1] * (dim - 1)
    diag[0] = -sum(x * x for x in v[1:]) * pow(v[0] * v[0], -1, p) % p
    assert diag[0] and sum(d * x * x for d, x in zip(diag, v)) % p == 0
    return [[diag[i] if i == j else 0 for j in range(dim)] for i in range(dim)]


def _assert_one_rescaled_pass(lanczos, rescaled, checks):
    """The second of exactly two Lanczos calls runs on D A D for one
    diagonal D of nonzero residues, with D v for each v the first left
    unsolved, and each x = D y is checked against the same v object.
    Returns the unsolved v's."""
    (matrix, rhs, x), (scaled, retried, y) = lanczos
    [(unscaled, d)] = rescaled
    p, d = matrix.p, [int(di) for di in d]
    assert unscaled is matrix and all(0 < di < p for di in d)
    a = matrix.entries.toarray().tolist()
    assert scaled.entries.toarray().tolist() == [
        [d[i] * a[i][j] * d[j] % p for j in range(len(d))] for i in range(len(d))]
    pending = [v for v, xj in zip(rhs, x) if not _solves(matrix, xj, v)]
    assert len(retried) == len(pending) > 0
    for vj, dvj in zip(pending, retried):
        assert [int(c) for c in dvj] == [di * int(b) % p for di, b in zip(d, vj)]
    # x = D y goes to the exact check with the v object itself, never redrawn
    after = checks[len(rhs):]
    assert after and all(args[2] is vj for args, vj in zip(after, pending))
    for (_, xj, _), yj in zip(after, y):
        assert [int(c) for c in xj] == [di * int(b) % p for di, b in zip(d, yj)]
    return pending


@pytest.mark.parametrize("failure", ["breakdown", "past-the-cap", "check-fails"])
def test_failed_lanczos_lane_falls_back_with_the_same_right_hand_side(monkeypatch, failure):
    p = DEFAULT_PRIMES[0]
    if failure == "breakdown":  # t = v . A v = 0 on the first lane, first step
        m = perfect.modp_from_rows(_isotropic_diagonal(p, 9, monkeypatch), p)
    else:  # the first pass only is capped at one product, or its x spoiled
        m = perfect.modp_from_action(young.tridiagonal_reference(9), p)
        real = perfect._lanczos
        first = []

        def failing_first_pass(matrix, rhs, steps, *split):
            if first:
                return real(matrix, rhs, steps, *split)
            first.append(rhs)
            if failure == "past-the-cap":
                return real(matrix, rhs, 1)
            return real(matrix, rhs, steps) + 1

        monkeypatch.setattr(perfect, "_lanczos", failing_first_pass)
    lanczos = _record_lanczos(monkeypatch)
    rescaled = _count_calls(monkeypatch, "_rescaled")
    checks = _count_calls(monkeypatch, "_is_solution")
    assert perfect._certify_wiedemann(m) == VERDICT_INVERTIBLE
    pending = _assert_one_rescaled_pass(lanczos, rescaled, checks)
    rhs = lanczos[0][1]
    assert pending[0] is rhs[0]
    if failure == "breakdown":
        assert pending == [rhs[0]]  # the other lane solved in the first pass


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
def test_wiedemann_matches_integer_determinant_on_action_matrices(shape):
    p = DEFAULT_PRIMES[0]
    m = perfect.modp_from_action(young.build_action_matrix(sum(shape), shape), p)
    expected = VERDICT_INVERTIBLE if _action_determinant(shape) % p else VERDICT_SINGULAR
    assert perfect._certify_wiedemann(m, _young_bound(shape)) == expected


@pytest.mark.parametrize("shape", SMALL_COSET_SHAPES, ids=str)
def test_krylov_degree_within_young_bound(shape, monkeypatch):
    # the w of a lane with t != 0 are A-orthogonal, hence independent, in the
    # Krylov space of v, whose dimension is at most the degree B of the
    # minimal polynomial: with no cap in the way, every lane stops within
    # B + 1 products, on M and on its split alike
    p = DEFAULT_PRIMES[0]
    action = young.build_action_matrix(sum(shape), shape)
    split = perfect.reversal_split(action)
    bound = _young_bound(shape)
    rng = np.random.default_rng(sum(shape) * 1000 + action.dim)
    products = _count_calls(monkeypatch, "_lane_products")
    for m, pairs, support in ((perfect.modp_from_action(action, p), None, action.dim),
                              (split.mod(p), split.pairs, action.dim)):
        rhs = [np.zeros(m.dim, dtype=np.int64) for _ in range(2)]
        for v in rhs:
            v[:support] = rng.integers(0, p, support)
        products.clear()
        perfect._lanczos(m, rhs, m.dim + 1, pairs)
        assert 0 < len(products) <= bound + 1


def test_invariant_form_symmetrises_every_seminormal_block():
    for n in range(1, 9):
        for lam in young.all_partitions(n):
            t_hat = young.irrep_T_matrix(lam)
            w = perfect._invariant_form(young.hook_length_dimension(lam), t_hat)
            assert all(x > 0 for x in w), lam
            assert all(w[i] * value == w[j] * t_hat[j, i]
                       for (i, j), value in t_hat.items()), lam
    # a cycle of ratios that does not close, and an unlinked row, have none
    skew = {(0, 1): 1, (1, 0): 1, (1, 2): 1, (2, 1): 2, (0, 2): 1, (2, 0): 1}
    for dim, entries in ((3, skew), (2, {(0, 0): 1, (1, 1): 2})):
        with pytest.raises(ValueError, match="symmetric"):
            perfect._invariant_form(dim, entries)


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


# -- reversal split ---------------------------------------------------------------

@pytest.mark.parametrize("shape", [shape for n in range(1, 13) for shape in young.all_partitions(n)
                                   if young.tabloid_count(shape) <= 60], ids=str)
def test_split_determinant_equals_action_determinant(shape):
    n = sum(shape)
    action = young.build_action_matrix(n, shape)
    split = perfect.reversal_split(action)
    full = split.entries.toarray()
    size, cut = split.pairs + split.fixed, 2 * split.pairs + split.fixed
    plus, minus, padding = full[:size, :size], full[size:cut, size:cut], full[cut:, cut:]
    assert split.dim == action.dim == 2 * split.pairs + split.fixed
    assert (plus.sum(axis=1) == n).all()
    weights = np.array([2] * split.pairs + [1] * split.fixed)[:, None]
    assert np.array_equal(weights * plus, (weights * plus).T)
    assert np.array_equal(minus, minus.T)
    assert np.array_equal(padding, np.eye(split.fixed, dtype=np.int64))
    assert integer_determinant(full) == integer_determinant(action.to_dense())


def test_split_refuses_entries_that_do_not_commute_with_the_reversal():
    action = young.build_action_matrix(4, (3, 1))
    assert perfect.reversal_split(action).pairs == 2
    swapped = action.entries[[1, 0, 2, 3]]  # rows 0 and 1 exchanged: P M P != M
    for entries in (swapped, action.entries[:3, :3]):
        wrong = young.ActionMatrix(n=4, shape=(3, 1), dim=entries.shape[0], entries=entries)
        with pytest.raises(ValueError, match="P M P"):
            perfect.reversal_split(wrong)
        with pytest.raises(ValueError, match="P M P"):
            invertible_mod_p(wrong, DEFAULT_PRIMES[0])


#: coset shapes (those that pass the divisibility check) with n <= 8, up to a
#: dimension whose dense elimination takes a fraction of a second; the seven
#: larger ones, (2,1,1,1,1,1)@7 to (1^8)@8, meet the split in
#: test_coset_and_irrep_routes_agree
SPLIT_SHAPES = [shape for n in range(2, 9) for shape in young.all_partitions(n)
                if divisibility_precondition(n, shape) and young.tabloid_count(shape) <= 1260]


@pytest.mark.parametrize("shape", SPLIT_SHAPES, ids=str)
def test_split_verdict_equals_unsplit_verdict(shape, monkeypatch):
    action = young.build_action_matrix(sum(shape), shape)
    split = perfect.reversal_split(action)
    size = split.pairs + split.fixed
    bound = _young_bound(shape)
    for p in DEFAULT_PRIMES + (2, 3):
        unsplit = perfect.modp_from_action(action, p)
        det = perfect._det_mod_dense(unsplit)
        dense = VERDICT_INVERTIBLE if det else VERDICT_SINGULAR
        blocks = split.mod(p).entries
        dets = [perfect._det_mod_dense(perfect.ModPMatrix(hi - lo, p, blocks[lo:hi, lo:hi]))
                for lo, hi in ((0, size), (size, size + split.pairs))]
        assert dets[0] * dets[1] % p == det
        monkeypatch.setattr(perfect, "DENSE_LIMIT", 10**9)
        assert perfect._certify_split(split, p, bound) == (dense, "dense-elimination")
        if p == DEFAULT_PRIMES[0]:
            assert invertible_mod_p(action, p) == dense
        monkeypatch.setattr(perfect, "DENSE_LIMIT", 0)
        verdict, method = perfect._certify_split(split, p, bound)
        assert method == "wiedemann"
        if p > 3:
            assert verdict == perfect._certify(unsplit, bound)[0] == dense
        else:
            # at p = 2 or 3 the black-box verdict is randomized with a large
            # error: 'invertible' is wrong with probability up to p^-2 (the
            # unsplit check certifies the singular (1,1)@2 at p = 3), and
            # Lanczos breaks down so often (W = 0 on D+'s pair rows mod 2,
            # D = I, many self-orthogonal vectors mod 3) that the split says
            # 'singular-mod-p' on invertible matrices
            assert verdict in (dense, VERDICT_SINGULAR)


@pytest.mark.parametrize("shape", [(4, 1), (6, 1)], ids=str)
def test_split_lanes_at_p_2_fall_back_with_the_same_right_hand_side(shape, monkeypatch):
    # W = diag(2, ..., 2, 1, ..., 1) is 0 on D+'s pair rows mod 2: the
    # weighted Lanczos lanes break down, and the only D of nonzero residues
    # is I, so the D A D pass fails the same way.  The verdict is the sound
    # 'singular-mod-p', never 'invertible', although M is invertible mod 2
    p = 2
    action = young.build_action_matrix(sum(shape), shape)
    assert integer_determinant(action.to_dense()) % p
    split = perfect.reversal_split(action)
    lanczos = _record_lanczos(monkeypatch)
    rescaled = _count_calls(monkeypatch, "_rescaled")
    checks = _count_calls(monkeypatch, "_is_solution")
    monkeypatch.setattr(perfect, "DENSE_LIMIT", 0)
    assert perfect._certify_split(split, p, _young_bound(shape)) == (
        VERDICT_SINGULAR, "wiedemann")
    pending = _assert_one_rescaled_pass(lanczos, rescaled, checks)
    assert pending[0] is lanczos[0][1][0]
    assert set(map(int, rescaled[0][1])) == {1}


@pytest.mark.parametrize("n", [5, 11, 41])
def test_a_block_that_stops_long_before_the_other_still_solves(n, monkeypatch):
    # (n-1,1): D+ has ceil(n/2) rows and D- floor(n/2).  Lane 0 is 0 on D-,
    # lane 1 is 0 on D+, so in each lane one block stops at the first
    # product and the other runs on; lane 2 is uniform on both blocks
    p = DEFAULT_PRIMES[0]
    split = perfect.reversal_split(young.build_action_matrix(n, (n - 1, 1)))
    assert (split.pairs, split.fixed) == (n // 2, n % 2)
    m = split.mod(p)
    size = split.pairs + split.fixed
    rng = np.random.default_rng(n)
    rhs = [np.zeros(2 * size, dtype=np.int64) for _ in range(3)]
    rhs[0][:size] = rng.integers(0, p, size)
    rhs[1][size:size + split.pairs] = rng.integers(0, p, split.pairs)
    rhs[2][:size + split.pairs] = rng.integers(0, p, size + split.pairs)
    products = _count_calls(monkeypatch, "_lane_products")
    x = perfect._lanczos(m, rhs, 2 * size + 1, split.pairs)
    assert all(perfect._is_solution(m, xj, vj) for xj, vj in zip(x, rhs))
    assert not x[0][size:].any() and not x[1][:size].any()
    assert len(products) <= size + 1


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

    def no_build(shape):
        raise AssertionError(f"block {shape} built before the limit check")

    monkeypatch.setattr(young, "irrep_T_matrix", no_build)
    with pytest.raises(young.DimensionLimitError):
        obstruction_irreps(8, (2, 2, 2, 2))


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
    assert check.to_json_dict()["evidence"] == "randomized, error <= p^-2"

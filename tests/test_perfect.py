import functools
from fractions import Fraction

import numpy as np
import pytest
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


# -- Wiedemann path --------------------------------------------------------------

def test_wiedemann_agrees_with_dense_verdict():
    p = DEFAULT_PRIMES[0]
    inv = perfect.modp_from_action(young.tridiagonal_reference(9), p)
    assert perfect._certify_wiedemann(inv) == VERDICT_INVERTIBLE
    sing = perfect.modp_from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 1]], p)
    assert perfect._certify_wiedemann(sing) == VERDICT_SINGULAR


def test_wiedemann_gives_a_failed_right_hand_side_its_own_sequence(monkeypatch):
    m = perfect.modp_from_action(young.tridiagonal_reference(9), DEFAULT_PRIMES[0])
    real_solves, real_krylov = perfect._solves, perfect._krylov_sequence
    checked, sequences = [], []

    def solves_unless_second(matrix, c, v):
        # v_2 fails with v_1's annihilator and with two sequences of its own
        checked.append(v)
        return len(checked) not in (2, 3, 4) and real_solves(matrix, c, v)

    def krylov(matrix, u, v, length):
        sequences.append(v)
        return real_krylov(matrix, u, v, length)

    monkeypatch.setattr(perfect, "_solves", solves_unless_second)
    monkeypatch.setattr(perfect, "_krylov_sequence", krylov)
    assert perfect._certify_wiedemann(m) == VERDICT_INVERTIBLE
    # v_2 still gets 3 projections u of its own after v_1 is solved
    assert len(sequences) == 4 and all(v is checked[1] for v in sequences[1:])
    assert len(checked) == 5


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
def test_krylov_degree_within_young_bound(shape):
    p = DEFAULT_PRIMES[0]
    m = perfect.modp_from_action(young.build_action_matrix(sum(shape), shape), p)
    rng = np.random.default_rng(sum(shape) * 1000 + m.dim)
    u, v = rng.integers(0, p, (2, m.dim), dtype=np.int64)
    seq = perfect._krylov_sequence(m, u, v, 2 * m.dim + 2)
    assert len(perfect._berlekamp_massey(seq, p)) - 1 <= _young_bound(shape)


def _reference_lfsr_length(seq, p: int) -> int:
    """Length of the shortest LFSR generating seq mod p: Massey's algorithm
    over Python lists, updating every coefficient."""
    c, b = [1], [1]
    L, m, bb = 0, 1, 1
    for k, s in enumerate(seq):
        delta = (s + sum(c[i] * seq[k - i] for i in range(1, L + 1))) % p
        if delta == 0:
            m += 1
            continue
        coef = delta * pow(bb, -1, p) % p
        old = list(c)
        c += [0] * max(0, len(b) + m - len(c))
        for i, bi in enumerate(b):
            c[i + m] = (c[i + m] - coef * bi) % p
        if 2 * L <= k:
            L, b, bb, m = k + 1 - L, old, delta, 1
        else:
            m += 1
    return L


@st.composite
def _sequences(draw):
    p = draw(st.sampled_from((2, 7, DEFAULT_PRIMES[0])))
    chunk = st.one_of(st.lists(st.integers(0, p - 1), min_size=1, max_size=6),
                      st.integers(1, 12).map(lambda k: [0] * k))
    seq = [s for part in draw(st.lists(chunk, max_size=12)) for s in part]
    if draw(st.booleans()):
        # continue the sequence by a random recurrence: low linear complexity
        taps = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=5))
        for _ in range(draw(st.integers(0, 40))):
            seq.append(sum(t * s for t, s in zip(taps, reversed(seq))) % p)
    return p, seq


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_sequences())
def test_berlekamp_massey_generates_shortest_lfsr(case):
    p, seq = case
    c = perfect._berlekamp_massey(seq, p)
    L = len(c) - 1
    assert c[0] == 1 and all(0 <= x < p for x in c)
    assert L == _reference_lfsr_length(seq, p)
    for k in range(L, len(seq)):
        assert sum(c[i] * seq[k - i] for i in range(L + 1)) % p == 0


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


@pytest.mark.parametrize("n", range(2, 7))
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


def test_report_json_shape():
    d = obstruction_coset(5, (4, 1)).to_json_dict()
    assert d["divisibilityOk"] is True
    assert d["conclusion"] == CONCLUSION_NO_CODE
    assert d["matrices"][0]["method"] == "dense-elimination"

import gc
from fractions import Fraction
from math import factorial

import pytest

from kendall_codes import young
from kendall_codes.young import (
    ActionMatrix,
    DimensionLimitError,
    act,
    all_partitions,
    build_action_matrix,
    check_partition,
    constituents_dominating,
    dominance_geq,
    enumerate_syt,
    enumerate_tabloids,
    hook_length_dimension,
    irrep_T_matrix,
    published_s15_list,
    permutation_similar_to_path,
    reference_tabloid,
    seminormal_generator,
    tabloid_count,
    tridiagonal_reference,
    young_subgroup_order,
)

from exact_sparse import add, identity, matmul, sparse


# -- partitions and tabloids -------------------------------------------------

def test_check_partition():
    assert check_partition([3, 1]) == (3, 1)
    with pytest.raises(ValueError):
        check_partition((1, 3))
    with pytest.raises(ValueError):
        check_partition((3, 0))


def test_tabloid_counts():
    assert tabloid_count((3, 1)) == 4
    assert tabloid_count((2, 2, 2)) == 90
    assert tabloid_count((5, 1, 1)) == 42
    assert tabloid_count((6, 6, 2)) == 84084


def test_enumerate_tabloids_matches_count():
    for shape in [(3, 1), (2, 2), (2, 1, 1), (3, 2)]:
        ts = enumerate_tabloids(shape)
        assert len(ts) == tabloid_count(shape)
        assert len(set(ts)) == len(ts)
        assert ts[0] == reference_tabloid(shape)


def test_enumerate_tabloids_leaves_no_reference_cycle():
    # a cycle would keep the tabloid list alive until the cyclic collector
    # runs, so repeated calls would grow the process's memory
    gc.collect()
    gc.disable()
    try:
        enumerate_tabloids((4, 2, 1))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_act_is_a_right_action():
    shape = (2, 2)
    ref = reference_tabloid(shape)
    from kendall_codes.perms import all_perms, compose
    for p in all_perms(4):
        for q in all_perms(4):
            assert act(act(ref, p), q) == act(ref, compose(p, q))


# -- action matrices ----------------------------------------------------------

@pytest.mark.parametrize("n,shape", [(4, (3, 1)), (4, (2, 2)), (5, (3, 2)),
                                     (5, (3, 1, 1)), (6, (2, 2, 2))])
def test_action_matrix_structure(n, shape):
    a = build_action_matrix(n, shape)
    assert a.row_sums() == [n] * a.dim
    assert a.is_symmetric()
    d = a.to_dense()
    assert all(d[i][i] >= 1 for i in range(a.dim))


@pytest.mark.parametrize("n,shape", [(4, (3, 1)), (4, (2, 2)), (5, (3, 2))])
def test_action_matrix_equals_double_coset_counts(n, shape):
    a = build_action_matrix(n, shape)
    d = a.to_dense()
    for i in range(a.dim):
        for j in range(a.dim):
            assert d[i][j] == young.double_coset_oracle(n, shape, i, j)


def test_hand_checked_matrix_n4():
    assert build_action_matrix(4, (3, 1)).to_dense() == [
        [3, 1, 0, 0],
        [1, 2, 1, 0],
        [0, 1, 2, 1],
        [0, 0, 1, 3],
    ]


def test_tridiagonal_reference_shape():
    t = tridiagonal_reference(5).to_dense()
    assert t == [
        [4, 1, 0, 0, 0],
        [1, 3, 1, 0, 0],
        [0, 1, 3, 1, 0],
        [0, 0, 1, 3, 1],
        [0, 0, 0, 1, 4],
    ]


@pytest.mark.parametrize("n", range(3, 11))
def test_hook_action_matrix_is_path_similar(n):
    a = build_action_matrix(n, (n - 1, 1))
    assert permutation_similar_to_path(a, tridiagonal_reference(n))


# -- dominance and constituents ----------------------------------------------

def test_dominance_basics():
    assert dominance_geq((4,), (3, 1))
    assert dominance_geq((3, 1), (2, 2))
    assert not dominance_geq((2, 2), (3, 1))
    assert dominance_geq((3, 1), (3, 1))
    assert not dominance_geq((2, 2, 2), (3, 3))


def test_all_partitions_counts():
    # partition numbers p(1..8)
    for n, count in [(1, 1), (2, 2), (3, 3), (4, 5), (5, 7), (6, 11),
                     (7, 15), (8, 22)]:
        parts = all_partitions(n)
        assert len(parts) == count
        assert len(set(parts)) == count


def test_constituents_dominating():
    cs = constituents_dominating((2, 2, 2))
    assert set(cs) == {(6,), (5, 1), (4, 2), (4, 1, 1), (3, 3), (3, 2, 1),
                       (2, 2, 2)}


def test_s15_list_contents():
    lst = published_s15_list()
    assert len(lst) == 37
    assert len(set(lst)) == 37
    mu = (4, 4, 4, 3)
    for lam in lst:
        assert sum(lam) == 15
        assert dominance_geq(lam, mu)
    computed = constituents_dominating(mu)
    assert set(lst) <= set(computed)


# -- hook lengths, SYT, seminormal form ----------------------------------------

def test_hook_dimensions():
    assert hook_length_dimension((3, 1)) == 3
    assert hook_length_dimension((2, 2)) == 2
    assert hook_length_dimension((6,)) == 1
    assert hook_length_dimension((1,) * 6) == 1
    assert hook_length_dimension((2, 2, 2)) == 5


@pytest.mark.parametrize("n", range(2, 8))
def test_sum_of_squared_dimensions(n):
    assert sum(hook_length_dimension(lam) ** 2 for lam in all_partitions(n)) \
        == factorial(n)


def test_syt_enumeration_matches_hooks():
    for lam in all_partitions(6):
        assert len(enumerate_syt(lam)) == hook_length_dimension(lam)


@pytest.mark.parametrize("n", range(2, 8))
def test_seminormal_relations(n):
    for lam in all_partitions(n):
        dim = hook_length_dimension(lam)
        gens = [sparse(seminormal_generator(lam, i))
                for i in range(1, n)]
        ident = identity(dim)
        for g in gens:
            assert matmul(g, g) == ident  # involutions
        for i in range(len(gens) - 1):
            a, b = gens[i], gens[i + 1]
            assert matmul(matmul(a, b), a) == matmul(matmul(b, a), b)  # braid
        for i in range(len(gens)):
            for j in range(i + 2, len(gens)):
                assert matmul(gens[i], gens[j]) == matmul(gens[j], gens[i])


@pytest.mark.parametrize("n", range(1, 8))
def test_irrep_T_matrix_is_identity_plus_generators(n):
    for lam in all_partitions(n):
        expected = identity(hook_length_dimension(lam))
        for i in range(1, n):
            expected = add(expected, sparse(seminormal_generator(lam, i)))
        t_hat = irrep_T_matrix(lam)
        assert all(isinstance(v, Fraction) and v != 0 for v in t_hat.values())
        assert sparse(t_hat) == expected


def test_trivial_and_sign_t_matrices():
    for n in range(2, 9):
        assert irrep_T_matrix((n,)) == {(0, 0): Fraction(n)}
        sign = irrep_T_matrix((1,) * n)  # zero entries stay implicit
        assert sign.get((0, 0), Fraction(0)) == Fraction(2 - n)


def test_irrep_dimension_limit(monkeypatch):
    monkeypatch.setattr(young, "IRREP_DIMENSION_LIMIT", 10)
    with pytest.raises(DimensionLimitError):
        young.enumerate_syt((10, 9, 8, 7, 6))


# -- serialization -------------------------------------------------------------

def test_matrix_market_roundtrip(tmp_path):
    a = build_action_matrix(4, (3, 1))
    dest = tmp_path / "m.mtx"
    young.write_matrix_market(a.entries, dest)
    lines = dest.read_text().splitlines()
    assert lines[0].startswith("%%MatrixMarket")
    nnz = sum(1 for row in a.to_dense() for v in row if v)
    assert len(lines) == 2 + nnz

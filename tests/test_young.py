import gc
from itertools import permutations
from math import factorial

import numpy as np
import pytest
import scipy.sparse as sp

from kendall_codes import perms, young
from kendall_codes.ilp import ILP_DIMENSION_LIMIT
from kendall_codes.perfect import DEFAULT_PRIMES
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
    reference_tabloid,
    tabloid_count,
    tridiagonal_reference,
    young_subgroup_order,
)

from exact_sparse import (
    add,
    identity,
    matmul,
    reduced,
    seminormal_generators,
    seminormal_reference,
    sparse,
)


# -- partitions and tabloids -------------------------------------------------

def test_check_partition():
    assert check_partition([3, 1]) == (3, 1)
    with pytest.raises(ValueError):
        check_partition((1, 3))
    with pytest.raises(ValueError):
        check_partition((3, 0))
    assert young.check_shape(4, [3, 1]) == (3, 1)
    with pytest.raises(ValueError, match=r"shape \(3, 1\) is not a partition of 5"):
        young.check_shape(5, (3, 1))
    with pytest.raises(ValueError, match="non-increasing"):
        young.check_shape(4, (1, 3))


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


def _assert_no_reference_cycle(call):
    # a cycle would keep the result alive until the cyclic collector runs,
    # so repeated calls would grow the process's memory
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumerate_tabloids_leaves_no_reference_cycle():
    _assert_no_reference_cycle(lambda: enumerate_tabloids((4, 2, 1)))


@pytest.mark.parametrize("call", [
    lambda: enumerate_syt((4, 2, 1)),
    lambda: irrep_T_matrix((4, 2, 1), DEFAULT_PRIMES[0]),
    lambda: build_action_matrix(7, (4, 2, 1)),
    lambda: all_partitions(7),
], ids=["syt", "irrep_T", "action_matrix", "partitions"])
def test_enumeration_leaves_no_reference_cycle(call):
    _assert_no_reference_cycle(call)


SHAPES_TO_8 = [shape for n in range(1, 9) for shape in all_partitions(n)]


@pytest.mark.parametrize("shape", SHAPES_TO_8, ids=str)
def test_tabloid_order_matches_sorted_permutations(shape):
    # the distinct rearrangements of the reference tabloid, sorted
    assert enumerate_tabloids(shape) == sorted(set(permutations(reference_tabloid(shape))))


def _syt_by_lattice_words(shape):
    """Standard tableaux from lattice words: entry k + 1 goes to row w[k],
    and every prefix of w holds at least as many r - 1 as r."""
    rows = [r for r, size in enumerate(shape) for _ in range(size)]
    tableaux = []
    for word in sorted(set(permutations(rows))):
        counts = [0] * len(shape)
        cells = []
        for r in word:
            if r and counts[r - 1] == counts[r]:
                break
            cells.append((r, counts[r]))
            counts[r] += 1
        else:
            tableaux.append(tuple(cells))
    # last-letter order: the row of n first, then of n - 1, ...
    return sorted(tableaux, key=lambda t: [r for r, _ in reversed(t)])


@pytest.mark.parametrize("shape", SHAPES_TO_8, ids=str)
def test_syt_order_matches_lattice_words(shape):
    assert enumerate_syt(shape) == _syt_by_lattice_words(shape)


def test_syt_letters_do_not_wrap():
    # entry 300 sits in row 299, where a uint8 letter would wrap to 43
    (tableau,) = enumerate_syt((1,) * 300)
    assert tableau == tuple((r, 0) for r in range(300))


def test_all_partitions_descend_lexicographically():
    assert all_partitions(0) == [()]
    assert all_partitions(-1) == []
    for n in range(1, 13):
        parts = all_partitions(n)
        assert parts == sorted(set(parts), reverse=True)
        assert all(sum(p) == n and list(p) == sorted(p, reverse=True)
                   for p in parts)


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
    assert (np.asarray(a.entries.sum(axis=1)).ravel() == n).all()
    assert (a.entries != a.entries.T).nnz == 0
    d = a.to_dense()
    assert all(d[i][i] >= 1 for i in range(a.dim))


@pytest.mark.parametrize("n,shape", [(4, (3, 1)), (4, (2, 2)), (5, (3, 2))])
def test_action_matrix_equals_double_coset_counts(n, shape):
    a = build_action_matrix(n, shape)
    d = a.to_dense()
    for i in range(a.dim):
        for j in range(a.dim):
            assert d[i][j] == young.double_coset_oracle(n, shape, i, j)


def _action_matrix_by_act(n, shape) -> sp.csr_matrix:
    """Reference: one act() call per tabloid and generator, summed as COO."""
    tabloids = enumerate_tabloids(shape)
    index = {t: i for i, t in enumerate(tabloids)}
    gens = [perms.identity(n)] + [perms.adjacent_transposition(n, i)
                                  for i in range(1, n)]
    rows, cols = [], []
    for i, t in enumerate(tabloids):
        for s in gens:
            rows.append(i)
            cols.append(index[act(t, s)])
    dim = len(tabloids)
    mat = sp.csr_matrix((np.ones(len(rows), dtype=np.int64), (rows, cols)),
                        shape=(dim, dim), dtype=np.int64)
    mat.sum_duplicates()
    return mat


@pytest.mark.parametrize("shape", [shape for n in range(1, 9)
                                   for shape in all_partitions(n)]
                         + [(6, 3, 2), (9, 2, 2), (44, 1)], ids=str)
def test_action_matrix_csr_matches_act_loop(shape):
    # byte-identical CSR arrays, dtypes included; (44,1) has 45 letters, so
    # a base-(m+1) code of its tabloids would not fit in int64
    got = build_action_matrix(sum(shape), shape).entries
    want = _action_matrix_by_act(sum(shape), shape)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.has_canonical_format


@pytest.mark.parametrize("shape", [shape for n in range(1, 9)
                                   for shape in all_partitions(n)] + [(44, 1)], ids=str)
def test_reversal_is_an_involution_that_commutes_with_the_action(shape):
    n = sum(shape)
    rev = young.image_index(shape, reverse=True)
    tabloids = enumerate_tabloids(shape)
    w0 = tuple(range(n, 0, -1))
    assert [tabloids[i] for i in rev] == [act(t, w0) for t in tabloids]
    dim = len(tabloids)
    assert np.array_equal(rev[rev], np.arange(dim))
    # P M P = M, exactly on the CSR
    perm = sp.csr_matrix((np.ones(dim, dtype=np.int64), rev, np.arange(dim + 1)),
                         shape=(dim, dim))
    action = build_action_matrix(n, shape).entries
    assert (perm @ action @ perm != action).nnz == 0


@pytest.mark.parametrize("shape,reverse,swaps", [
    ((2, 2, 2), False, (1,)), ((2, 2, 2), True, (2,)), ((5, 1, 1), True, (2,)),
    ((3, 3, 1, 1), True, (1, 3)), ((1, 1, 1, 1), False, (1, 3)), ((4, 3), True, ())],
    ids=str)
def test_image_index_reverses_then_relabels(shape, reverse, swaps):
    labels = list(range(len(shape) + 1))
    for b in swaps:
        labels[b], labels[b + 1] = labels[b + 1], labels[b]
    tabloids = enumerate_tabloids(shape)
    want = [tuple(labels[b] for b in (t[::-1] if reverse else t)) for t in tabloids]
    assert [tabloids[i] for i in young.image_index(shape, reverse, swaps)] == want


@pytest.mark.parametrize("swaps", [(1,), (0,), (3,)], ids=str)
def test_image_index_swaps_only_blocks_of_equal_size(swaps):
    with pytest.raises(ValueError, match="not two blocks of equal size"):
        young.image_index((3, 2, 2), swaps=swaps)


@pytest.mark.parametrize("shape", [shape for n in range(1, 8) for shape in all_partitions(n)
                                   if tabloid_count(shape) <= ILP_DIMENSION_LIMIT], ids=str)
def test_orbit_labels_are_the_orbits_of_the_symmetry_group(shape):
    generators = young.symmetry_generators(shape)
    labels = young.orbit_labels(young.group_elements(generators))
    action = build_action_matrix(sum(shape), shape).entries.toarray()
    everything = np.arange(len(action))
    for g in generators:
        assert np.array_equal(g[g], everything)
        assert np.array_equal(action[g][:, g], action)
        assert np.array_equal(labels[g], labels)
    # orbits by closure from each least tabloid, numbered in that order
    want = np.full(len(action), -1)
    for t in everything:
        if want[t] < 0:
            orbit, todo = {int(t)}, [int(t)]
            while todo:
                i = todo.pop()
                new = {int(g[i]) for g in generators} - orbit
                orbit |= new
                todo.extend(new)
            want[sorted(orbit)] = want.max() + 1
    assert np.array_equal(labels, want)


@pytest.mark.parametrize("shape,order", [
    ((3,), 1),  # w0 fixes the one tabloid
    ((1, 1), 2),  # w0 and the swap of both blocks act alike
    ((4, 3), 2), ((5, 1, 1), 4), ((2, 2, 2), 12), ((1,) * 6, 1440)], ids=str)
def test_group_elements_are_the_closure_of_the_generators(shape, order):
    generators = young.symmetry_generators(shape)
    group = young.group_elements(generators)
    assert group.shape == (order, tabloid_count(shape))
    assert np.array_equal(group[0], np.arange(group.shape[1]))
    members = {h.tobytes() for h in group}
    assert len(members) == order
    for h in group:
        assert np.array_equal(np.sort(h), group[0])
        assert all(h[g].tobytes() in members for g in generators)


def test_action_matrix_limit_is_checked_before_enumeration(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("tabloids enumerated before the limit check")

    monkeypatch.setattr(young, "_lex_words", no_enumeration)
    monkeypatch.setattr(young, "SPARSE_TABLOID_LIMIT", 84083)
    with pytest.raises(DimensionLimitError):
        build_action_matrix(14, (6, 6, 2))


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


@pytest.mark.parametrize("n", range(2, 11))
def test_hook_action_matrix_is_path_similar(n):
    # similar by the identity relabelling: in lexicographic order the
    # singleton of (n-1,1) sits at n, n-1, ..., 1
    a = build_action_matrix(n, (n - 1, 1)).entries
    b = tridiagonal_reference(n).entries
    assert a.dtype == b.dtype and a.shape == b.shape
    assert (a != b).nnz == 0


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
        gens = [sparse(g) for g in seminormal_generators(lam)]
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
    # the reference generators summed by exact_sparse.add, on their own and
    # reduced mod p against the residues of the array pass
    for lam in all_partitions(n):
        dim = hook_length_dimension(lam)
        expected = identity(dim)
        for g in seminormal_generators(lam):
            expected = add(expected, sparse(g))
        assert sparse(seminormal_reference(lam)) == expected
        entries = {(i, j): v for i, row in expected.items() for j, v in row.items()}
        for p in DEFAULT_PRIMES:
            assert (irrep_T_matrix(lam, p) != reduced(dim, entries, p)).nnz == 0, (lam, p)


@pytest.mark.parametrize("shape", [*SHAPES_TO_8, pytest.param((2,) + (1,) * 255, id="(2, 1^255)")],
                         ids=str)
def test_irrep_T_matrix_matches_the_tableau_loop(shape):
    # the array pass against a loop over the tableau tuples; (2, 1^255) has
    # 256 rows, so its words take two-byte letters
    p = DEFAULT_PRIMES[0]
    block = irrep_T_matrix(shape, p)
    expected = reduced(hook_length_dimension(shape), seminormal_reference(shape), p)
    assert block.nnz == expected.nnz and (block != expected).nnz == 0


def test_trivial_and_sign_t_matrices():
    p = DEFAULT_PRIMES[0]
    for n in range(2, 9):
        assert irrep_T_matrix((n,), p).toarray().tolist() == [[n]]
        sign = irrep_T_matrix((1,) * n, p)  # zero entries stay implicit
        assert sign.nnz == (n != 2) and sign.toarray().tolist() == [[(2 - n) % p]]


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

"""End-to-end reproduction criteria.

Each test prints one PASS line on success (run with -s to see them inline).
The extended tier (the S14 and S15 certificates, hours of runtime) is opted
into with KENDALL_EXTENDED=1.
"""

import os
import random
import time
from math import factorial

import pytest

from kendall_codes import ilp, perfect, perms, young

from exact_sparse import identity, matmul, sparse

extended = pytest.mark.extended
needs_extended = pytest.mark.skipif(
    os.environ.get("KENDALL_EXTENDED") != "1",
    reason="extended tier: set KENDALL_EXTENDED=1 (runtimes up to hours)")

CORE_ILP_BUDGET = 600.0  # seconds per core ILP case


@pytest.fixture(scope="module")
def solved_222():
    model = ilp.build_coset_ilp(6, (2, 2, 2))
    t0 = time.monotonic()
    result = ilp.ilp_solve(model, time_limit=CORE_ILP_BUDGET)
    return model, result, time.monotonic() - t0


def test_criterion_01_hook_matrix_is_tridiagonal_reference():
    t0 = time.monotonic()
    for n in range(3, 18):
        a = young.build_action_matrix(n, (n - 1, 1)).entries
        b = young.tridiagonal_reference(n).entries
        assert a.dtype == b.dtype and (a != b).nnz == 0, n
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"PASS criterion 1: (n-1,1) action matrix equals the path matrix "
          f"for n=3..17 ({elapsed:.2f}s)")


def test_criterion_02_core_ilp_values(solved_222):
    _, r222, took222 = solved_222
    assert r222.status == ilp.PROVEN_OPTIMAL
    assert r222.optimum == 116
    assert took222 < CORE_ILP_BUDGET

    model = ilp.build_coset_ilp(7, (5, 1, 1))
    t0 = time.monotonic()
    r = ilp.ilp_solve(model, time_limit=CORE_ILP_BUDGET)
    took = time.monotonic() - t0
    assert r.status == ilp.PROVEN_OPTIMAL
    assert r.optimum == 716
    assert took < CORE_ILP_BUDGET
    print(f"PASS criterion 2 (core): (2,2,2)@6 -> 116 in {took222:.0f}s, "
          f"(5,1,1)@7 -> 716 in {took:.0f}s, both proven")


PRIME_ILP_BUDGET = 120.0  # seconds per coset ILP at p in {11, 13, 17, 19}


@pytest.mark.parametrize("n,shape,want", [
    (17, (16, 1), factorial(16) - 5),
    (19, (18, 1), factorial(18) - 6),
    (11, (9, 2), factorial(10) - 10),
    (13, (11, 2), factorial(12) - 12),
    # (p-2,2) again: 16! - 16 is below the paper's 16! - 5 from (16,1)
    (17, (15, 2), factorial(16) - 16),
])
def test_criterion_02_prime_ilp_values(n, shape, want):
    model = ilp.build_coset_ilp(n, shape)
    t0 = time.monotonic()
    result = ilp.ilp_solve(model, time_limit=PRIME_ILP_BUDGET)
    took = time.monotonic() - t0
    assert result.status == ilp.PROVEN_OPTIMAL
    assert result.optimum == want
    assert ilp.feasible(model, result.argmax)
    print(f"PASS criterion 2 (primes): {shape}@{n} -> {want}, proven in "
          f"{result.nodes_explored} nodes ({took:.1f}s)")


@extended
@needs_extended
@pytest.mark.parametrize("n,shape,want", [
    (19, (17, 2), factorial(18) - 18),
    (23, (21, 2), factorial(22) - 22),
])
def test_criterion_02_extended_p_minus_2_2_values(n, shape, want):
    # (p-1)! - (p-1) from (p-2,2), as at p = 11, 13 and 17: an observation,
    # not a theorem; below analytic_prime_bound at both primes
    model = ilp.build_coset_ilp(n, shape)
    t0 = time.monotonic()
    result = ilp.ilp_solve(model)
    took = time.monotonic() - t0
    assert result.status == ilp.PROVEN_OPTIMAL
    assert result.optimum == want < ilp.analytic_prime_bound(n)
    assert ilp.feasible(model, result.argmax)
    print(f"PASS criterion 2 (extended): {shape}@{n} -> {want}, proven in "
          f"{result.nodes_explored} nodes ({took:.1f}s)")


def test_criterion_03_analytic_bound():
    assert ilp.analytic_prime_bound(19) == factorial(18) - 5
    # consistency against the published ILP optima for p in {11, 13, 17}
    published = {11: factorial(10) - 10, 13: factorial(12) - 12,
                 17: factorial(16) - 5}
    for p, value in published.items():
        assert value <= ilp.analytic_prime_bound(p)
    print("PASS criterion 3: analytic_prime_bound(19) = 18!-5; "
          "ILP optima below the analytic bound for p in {11,13,17}")


def test_criterion_04_systemineq_audit():
    for p in (7, 11, 13):
        for seed in range(1000):
            x = ilp.random_feasible(p, seed)
            c1, c2, c3 = ilp.systemineq_check(x, p)
            assert c1, (p, seed)
            assert c2, (p, seed)
            if p in (11, 13):
                assert c3, (p, seed)
    print("PASS criterion 4: claims (1),(2) on 1000 random feasible vectors "
          "for p in {7,11,13}; claim (3) for p in {11,13}; zero violations")


def test_criterion_05_projection_soundness(solved_222):
    _, r222, _ = solved_222
    optima = {}
    for n, shape in [(5, (4, 1)), (5, (3, 2)), (6, (5, 1))]:
        model = ilp.build_coset_ilp(n, shape)
        r = ilp.ilp_solve(model)
        assert r.status == ilp.PROVEN_OPTIMAL
        optima[(n, shape)] = (model, r.optimum)
    optima[(6, (2, 2, 2))] = (ilp.build_coset_ilp(6, (2, 2, 2)), r222.optimum)
    for (n, shape), (model, opt) in optima.items():
        for seed in range(100):
            code = perms.greedy_code(n, 3, seed)
            proj = ilp.code_projection(code, shape)
            assert ilp.feasible(model, proj), (n, shape, seed)
            assert len(code) <= opt, (n, shape, seed)
    print("PASS criterion 5: 100 greedy codes per configuration project to "
          "feasible vectors and respect the ILP optimum")


def test_criterion_06_metric_suite():
    t0 = time.monotonic()
    group4 = perms.all_perms(4)
    for p in group4:
        for q in group4:
            assert perms.kendall_distance(p, q) == perms.kendall_distance_bfs(p, q)
    for n in (5, 6):
        rng = random.Random(n)
        group = perms.all_perms(n)
        for _ in range(1000):
            p, q = rng.choice(group), rng.choice(group)
            assert perms.kendall_distance(p, q) == perms.kendall_distance_bfs(p, q)
    rng = random.Random(0)
    for _ in range(10_000):
        n = rng.randint(3, 6)
        group = perms.all_perms(n)
        p, q, r = (rng.choice(group) for _ in range(3))
        assert perms.kendall_distance(p, q) == perms.kendall_distance(
            perms.compose(p, r), perms.compose(q, r))
        assert perms.kendall_distance(p, q) <= (
            perms.kendall_distance(p, r) + perms.kendall_distance(r, q))
    for n in range(3, 7):
        assert len(perms.ball(n, perms.identity(n), 1)) == n
        rng = random.Random(n)
        for r in range(1, 4):
            base = len(perms.ball(n, perms.identity(n), r))
            for _ in range(3):
                g = rng.choice(perms.all_perms(n))
                assert len(perms.ball(n, g, r)) == base
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"PASS criterion 6: metric suite, zero violations ({elapsed:.1f}s)")


def test_criterion_07_representation_suite():
    for n in range(2, 8):
        total = 0
        for lam in young.all_partitions(n):
            dim = young.hook_length_dimension(lam)
            assert dim == len(young.enumerate_syt(lam))
            total += dim * dim
            gens = [sparse(young.seminormal_generator(lam, i))
                    for i in range(1, n)]
            ident = identity(dim)
            for g in gens:
                assert matmul(g, g) == ident
            for i in range(len(gens) - 1):
                a, b = gens[i], gens[i + 1]
                assert matmul(matmul(a, b), a) == matmul(matmul(b, a), b)
            for i in range(len(gens)):
                for j in range(i + 2, len(gens)):
                    assert matmul(gens[i], gens[j]) == matmul(gens[j], gens[i])
        assert total == factorial(n)
    print("PASS criterion 7: seminormal relations, hook dimensions and "
          "sum of squares for every partition of n <= 7, exact")


def test_criterion_08_dominance_lists():
    mu = (4, 4, 4, 3)
    listed = young.published_s15_list()
    assert len(listed) == 37
    for lam in listed:
        assert young.dominance_geq(lam, mu)
    computed = young.constituents_dominating(mu)
    assert set(listed) <= set(computed)
    difference = sorted(set(computed) - set(listed), reverse=True)
    print(f"PASS criterion 8: 37 published constituents all dominate "
          f"(4,4,4,3); computed dominance set has {len(computed)} partitions; "
          f"difference of {len(difference)} reported, e.g. {difference[:3]}")


def test_criterion_09_obstructions_small():
    t0 = time.monotonic()
    r5 = perfect.obstruction_coset(5, (4, 1))
    assert r5.conclusion == perfect.CONCLUSION_NO_CODE
    assert perfect.integer_determinant(
        young.build_action_matrix(5, (4, 1)).to_dense()) == 275
    r7 = perfect.obstruction_coset(7, (6, 1))
    assert r7.conclusion == perfect.CONCLUSION_NO_CODE
    r6 = perfect.obstruction_coset(6, (5, 1))
    assert r6.conclusion == perfect.CONCLUSION_INCONCLUSIVE
    assert not r6.divisibility_ok
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"PASS criterion 9 (core): n=5 (det 275) and n=7 certified, "
          f"n=6 (5,1) inconclusive by divisibility ({elapsed:.2f}s)")


@extended
@needs_extended
def test_criterion_09_extended_s14_coset():
    report = perfect.obstruction_coset(14, (6, 6, 2))
    check = report.matrices[0]
    assert check.dim == 84084
    assert check.verdict == perfect.VERDICT_INVERTIBLE
    assert report.conclusion == perfect.CONCLUSION_NO_CODE
    print(f"PASS criterion 9 (extended): (6,6,2)@14 dim 84084 invertible "
          f"mod {check.prime} via {check.method}")


@extended
@needs_extended
def test_criterion_09_extended_s14_irreps():
    # the second proof of n = 14: all 19 blocks checked, 7 of them above
    # DENSE_LIMIT (f = 4368 and up) on the black box, up to f = 14014
    report = perfect.obstruction_irreps(14, (6, 6, 2),
                                        check_limit=young.IRREP_DIMENSION_LIMIT)
    assert len(report.matrices) == 19
    assert max(c.dim for c in report.matrices) == 14014
    assert sum(c.method == "wiedemann" for c in report.matrices) == 7
    for c in report.matrices:
        assert c.verdict == perfect.VERDICT_INVERTIBLE, c.label
    assert report.conclusion == perfect.CONCLUSION_NO_CODE
    print(f"PASS criterion 9 (extended): (6,6,2)@14 irreps, 19 blocks "
          f"invertible, largest f = 14014")


@extended
@needs_extended
def test_criterion_09_extended_s15_irreps():
    report = perfect.obstruction_irreps(15, (4, 4, 4, 3), use_list="published")
    checked = [c for c in report.matrices if c.verdict != perfect.VERDICT_SKIPPED]
    skipped = [c for c in report.matrices if c.verdict == perfect.VERDICT_SKIPPED]
    assert len(checked) + len(skipped) == 37
    for c in checked:
        assert c.verdict == perfect.VERDICT_INVERTIBLE, c.label
    print(f"PASS criterion 9 (extended): S15 irreps over the 37-list, "
          f"{len(checked)} checked all invertible, {len(skipped)} skipped "
          f"above dimension {perfect.IRREP_CHECK_LIMIT}")


def test_criterion_10_oracle():
    assert perms.exhaustive_max_code(3, 3)[0] == 2
    value, witness = perms.exhaustive_max_code(4, 3)
    assert value == 5
    assert perms.verify_code(witness, 3)
    r = ilp.ilp_solve(ilp.build_coset_ilp(4, (3, 1)))
    assert value <= r.optimum == 5
    print("PASS criterion 10: P(3,3) = 2 and P(4,3) = 5 <= ILP bound 5")

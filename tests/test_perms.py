import random

import pytest

from kendall_codes import perms
from kendall_codes.perms import (
    Code,
    EnumerationLimitError,
    adjacent_transposition,
    all_perms,
    ball,
    compose,
    exhaustive_max_code,
    greedy_code,
    identity,
    inverse,
    kendall_distance,
    kendall_distance_bfs,
    min_distance,
    parse_permutation,
    sphere_packing_bound,
    verify_code,
)


def test_compose_convention():
    # apply p, then q
    p = (2, 3, 1)
    q = (1, 3, 2)
    assert compose(p, q) == (3, 2, 1)
    assert compose(p, inverse(p)) == identity(3)
    assert compose(inverse(p), p) == identity(3)


def test_adjacent_transposition_swaps_positions():
    p = (3, 1, 4, 2)
    s = adjacent_transposition(4, 1)
    assert compose(s, p) == (1, 3, 4, 2)


def test_check_perm_rejects_bad_input():
    with pytest.raises(ValueError):
        perms.check_perm((1, 1, 2))
    with pytest.raises(ValueError):
        perms.check_perm((0, 1, 2))


def test_distance_basics():
    assert kendall_distance((1, 2, 3), (1, 2, 3)) == 0
    assert kendall_distance((2, 1, 3), (1, 2, 3)) == 1
    assert kendall_distance((3, 2, 1), (1, 2, 3)) == 3
    # one discordant pair between neighbors
    assert kendall_distance((1, 3, 2), (1, 2, 3)) == 1


def test_distance_agrees_with_bfs_exhaustively_n4():
    for p in all_perms(4):
        for q in all_perms(4):
            assert kendall_distance(p, q) == kendall_distance_bfs(p, q)


@pytest.mark.parametrize("n", [5, 6])
def test_distance_agrees_with_bfs_random(n):
    rng = random.Random(7 * n)
    group = all_perms(n)
    for _ in range(1000):
        p, q = rng.choice(group), rng.choice(group)
        assert kendall_distance(p, q) == kendall_distance_bfs(p, q)


def test_right_invariance_and_triangle():
    rng = random.Random(99)
    for _ in range(10_000):
        n = rng.randint(3, 6)
        group = all_perms(n)
        p, q, r = (rng.choice(group) for _ in range(3))
        assert kendall_distance(p, q) == kendall_distance(compose(p, r), compose(q, r))
        assert (kendall_distance(p, q)
                <= kendall_distance(p, r) + kendall_distance(r, q))


def test_ball_sizes():
    assert len(ball(4, identity(4), 1)) == 4
    assert len(ball(4, identity(4), 2)) == 9
    for n in range(3, 7):
        assert len(ball(n, identity(n), 1)) == n


def test_ball_size_closed_form():
    for n in range(1, 8):
        for r in range(6):
            assert perms.ball_size(n, r) == len(ball(n, identity(n), r)), (n, r)
    assert [perms.ball_size(14, r) for r in (1, 2, 3)] == [14, 104, 545]
    with pytest.raises(ValueError):
        perms.ball_size(5, -1)


def test_ball_size_is_center_independent():
    for n in range(3, 7):
        base = {r: len(ball(n, identity(n), r)) for r in range(1, 4)}
        rng = random.Random(n)
        for _ in range(5):
            g = rng.choice(all_perms(n))
            for r in range(1, 4):
                assert len(ball(n, g, r)) == base[r]


def test_ball_enumeration_limit():
    with pytest.raises(EnumerationLimitError):
        ball(9, identity(9), 1)


def test_code_and_min_distance():
    code = Code.of([(1, 2, 3), (3, 2, 1)])
    assert min_distance(code) == 3
    assert verify_code(code, 3)
    assert not verify_code(Code.of([(1, 2, 3), (2, 1, 3)]), 2)


def test_greedy_code_is_valid_and_deterministic():
    for n in (5, 6):
        a = greedy_code(n, 3, seed=1)
        b = greedy_code(n, 3, seed=1)
        assert a.members == b.members
        assert verify_code(a, 3)
        assert len(a) <= sphere_packing_bound(n)


def test_covering_decomposition_detects_overlap():
    code = greedy_code(5, 3, seed=3)
    leftover, mult = perms.covering_decomposition(code)
    assert mult == 1  # distance >= 3 means disjoint radius-1 balls
    assert len(leftover) == 120 - 5 * len(code)


def test_exhaustive_oracle_small():
    assert exhaustive_max_code(3, 3)[0] == 2
    value, witness = exhaustive_max_code(4, 3)
    assert value == 5
    assert verify_code(witness, 3)
    assert len(witness) == 5


def test_oracle_limit():
    with pytest.raises(EnumerationLimitError):
        exhaustive_max_code(6, 3)


def test_parse_and_format_roundtrip():
    p = parse_permutation("2,1,4,3")
    assert p == (2, 1, 4, 3)
    assert perms.format_permutation(p) == "2,1,4,3"


def test_load_code():
    code = perms.load_code(["1,2,3", "# comment", "3,2,1  # tail", ""])
    assert code.members == frozenset({(1, 2, 3), (3, 2, 1)})

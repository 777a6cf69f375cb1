"""Permutations of [n], the Kendall tau metric, balls and code utilities.

Permutations are tuples in one-line notation with 1-based values: the entry
at position i (0-based index i-1) is the image of i.  The composition
convention is "apply left, then right": ``compose(p, q)(x) = q(p(x))``.
Under this convention swapping positions i, i+1 of the one-line word of p
equals ``compose(s_i, p)`` for the adjacent transposition s_i = (i, i+1),
which makes word length in adjacent transpositions equal the discordant-pair
count (pinned by the BFS oracle tests).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from itertools import permutations as _itertools_permutations
from math import factorial

Permutation = tuple[int, ...]

#: largest n for which full enumeration of S_n is attempted (n! = 40320 at 8)
ENUMERATION_LIMIT = 8

#: largest n for the exhaustive maximum-code clique oracle
ORACLE_LIMIT = 5


class EnumerationLimitError(ValueError):
    """Raised when an operation would enumerate S_n beyond the allowed n."""


def check_perm(p) -> Permutation:
    """Validate one-line notation and return it as a tuple."""
    t = tuple(p)
    n = len(t)
    if n < 1:
        raise ValueError("permutation must have length >= 1")
    if sorted(t) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {t}")
    return t


def identity(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Apply p first, then q: position x maps to q(p(x))."""
    if len(p) != len(q):
        raise ValueError("length mismatch")
    return tuple(q[v - 1] for v in p)


def inverse(p: Permutation) -> Permutation:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v - 1] = i + 1
    return tuple(inv)


def adjacent_transposition(n: int, i: int) -> Permutation:
    """The transposition (i, i+1) in S_n, 1 <= i <= n-1."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"need 1 <= i <= {n - 1}, got {i}")
    images = list(range(1, n + 1))
    images[i - 1], images[i] = images[i], images[i - 1]
    return tuple(images)


@dataclass(frozen=True)
class GeneratorSet:
    """The adjacent transpositions of S_n, optionally together with 1."""

    n: int
    include_identity: bool = False
    members: tuple[Permutation, ...] = field(init=False)

    def __post_init__(self):
        gens = [adjacent_transposition(self.n, i) for i in range(1, self.n)]
        if self.include_identity:
            gens.insert(0, identity(self.n))
        object.__setattr__(self, "members", tuple(gens))

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)


def kendall_distance(p: Permutation, q: Permutation) -> int:
    """Number of discordant value pairs between the one-line words of p and q.

    Equals the minimum number of adjacent-position swaps transforming p
    into q (checked against :func:`kendall_distance_bfs`).
    """
    n = len(p)
    if n != len(q):
        raise ValueError("length mismatch")
    pos_q = [0] * (n + 1)
    for i, v in enumerate(q):
        pos_q[v] = i
    # relabel p through q's positions; discordant pairs become inversions
    word = [pos_q[v] for v in p]
    count = 0
    for i in range(n):
        wi = word[i]
        for j in range(i + 1, n):
            if word[j] < wi:
                count += 1
    return count


def _swap_neighbors(p: Permutation):
    lst = list(p)
    for i in range(len(p) - 1):
        lst[i], lst[i + 1] = lst[i + 1], lst[i]
        yield tuple(lst)
        lst[i], lst[i + 1] = lst[i + 1], lst[i]


def kendall_distance_bfs(p: Permutation, q: Permutation) -> int:
    """Exact distance by breadth-first search over adjacent-position swaps.

    Independent oracle for :func:`kendall_distance`; intended for n <= 7.
    """
    if len(p) != len(q):
        raise ValueError("length mismatch")
    if p == q:
        return 0
    seen = {p: 0}
    queue = deque([p])
    while queue:
        cur = queue.popleft()
        d = seen[cur] + 1
        for nb in _swap_neighbors(cur):
            if nb == q:
                return d
            if nb not in seen:
                seen[nb] = d
                queue.append(nb)
    raise AssertionError("swap graph is connected; unreachable")


def ball(n: int, center: Permutation, r: int,
         enumeration_limit: int = ENUMERATION_LIMIT) -> set[Permutation]:
    """The radius-r Kendall ball around center, by BFS to depth r."""
    if n > enumeration_limit:
        raise EnumerationLimitError(f"n={n} exceeds enumeration limit {enumeration_limit}")
    if r < 0:
        raise ValueError("radius must be >= 0")
    center = check_perm(center)
    if len(center) != n:
        raise ValueError("center has wrong length")
    members = {center}
    frontier = [center]
    for _ in range(r):
        nxt = []
        for g in frontier:
            for nb in _swap_neighbors(g):
                if nb not in members:
                    members.add(nb)
                    nxt.append(nb)
        frontier = nxt
    return members


def ball_size(n: int, r: int) -> int:
    """|B_r| without enumeration: the permutations of [n] with at most r
    inversions, a sum of the Mahonian numbers I(n, k), k <= r, where
    I(m, k) = sum over j <= min(k, m-1) of I(m-1, k-j)."""
    if r < 0:
        raise ValueError("radius must be >= 0")
    counts = [1] + [0] * r  # I(1, k) for k <= r
    for m in range(2, n + 1):
        counts = [sum(counts[max(k - m + 1, 0):k + 1]) for k in range(r + 1)]
    return sum(counts)


def all_perms(n: int, enumeration_limit: int = ENUMERATION_LIMIT) -> list[Permutation]:
    if n > enumeration_limit:
        raise EnumerationLimitError(f"n={n} exceeds enumeration limit {enumeration_limit}")
    return list(_itertools_permutations(range(1, n + 1)))


@dataclass(frozen=True)
class Code:
    """A nonempty set of permutations of common length n."""

    n: int
    members: frozenset[Permutation]

    @classmethod
    def of(cls, perms) -> "Code":
        members = frozenset(check_perm(p) for p in perms)
        if not members:
            raise ValueError("code must be nonempty")
        lengths = {len(p) for p in members}
        if len(lengths) != 1:
            raise ValueError("mixed permutation lengths in code")
        return cls(n=lengths.pop(), members=members)

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(sorted(self.members))


def min_distance(code: Code) -> int:
    if len(code) < 2:
        raise ValueError("min_distance needs at least two codewords")
    members = sorted(code.members)
    best = None
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            d = kendall_distance(members[i], members[j])
            if best is None or d < best:
                best = d
                if best == 1:
                    return 1
    return best


def verify_code(code: Code, d: int) -> bool:
    """True iff the code has minimum Kendall distance >= d (singletons pass)."""
    if len(code) < 2:
        return True
    return min_distance(code) >= d


def covering_decomposition(code: Code,
                           enumeration_limit: int = ENUMERATION_LIMIT):
    """Leftover set and ball-multiset overlap of the radius-1 covering.

    Returns ``(Y, multiplicity_max)`` where Y = S_n minus the union of the
    radius-1 balls around the codewords and multiplicity_max is the largest
    multiplicity in the multiset union of those balls.  multiplicity_max = 1
    iff the code has minimum distance >= 3.
    """
    n = code.n
    if n > enumeration_limit:
        raise EnumerationLimitError(f"n={n} exceeds enumeration limit {enumeration_limit}")
    counts: dict[Permutation, int] = {}
    for c in code.members:
        for g in ball(n, c, 1, enumeration_limit):
            counts[g] = counts.get(g, 0) + 1
    y = {g for g in all_perms(n, enumeration_limit) if g not in counts}
    return y, max(counts.values())


def greedy_code(n: int, d: int, seed: int,
                enumeration_limit: int = ENUMERATION_LIMIT) -> Code:
    """Deterministic random-greedy maximal code with min distance >= d.

    Scans S_n in a seed-determined order and keeps every permutation not
    within distance d-1 of a kept one.
    """
    rng = random.Random(seed)
    candidates = all_perms(n, enumeration_limit)
    rng.shuffle(candidates)
    blocked: set[Permutation] = set()
    chosen = []
    for g in candidates:
        if g not in blocked:
            chosen.append(g)
            blocked |= ball(n, g, d - 1, enumeration_limit)
    return Code.of(chosen)


def _greedy_coloring_order(vertices: list[int], adj: list[int]):
    """Color vertices greedily; return (order, bounds) with colors ascending.

    Standard max-clique bounding: at position k the number of colors used by
    vertices order[:k+1] bounds any clique inside them.
    """
    color_classes: list[list[int]] = []
    class_masks: list[int] = []
    for v in vertices:
        for ci, mask in enumerate(class_masks):
            if not (adj[v] & mask):
                color_classes[ci].append(v)
                class_masks[ci] |= 1 << v
                break
        else:
            color_classes.append([v])
            class_masks.append(1 << v)
    order = []
    bounds = []
    for ci, cls in enumerate(color_classes):
        for v in cls:
            order.append(v)
            bounds.append(ci + 1)
    return order, bounds


def exhaustive_max_code(n: int, d: int, oracle_limit: int = ORACLE_LIMIT):
    """Exact P(n,d) with a witness, by branch-and-bound maximum clique.

    Vertices are the n! permutations (lexicographic order); edges join pairs
    at Kendall distance >= d.  Deterministic: greedy-coloring bound with
    lexicographic tie-breaks.
    """
    if n > oracle_limit:
        raise EnumerationLimitError(f"n={n} exceeds oracle limit {oracle_limit}")
    perms = all_perms(n)
    if d <= 1:
        return len(perms), Code.of(perms)
    nv = len(perms)
    adj = [0] * nv
    for i in range(nv):
        for j in range(i + 1, nv):
            if kendall_distance(perms[i], perms[j]) >= d:
                adj[i] |= 1 << j
                adj[j] |= 1 << i

    best: list[int] = [0]
    best_set: list[list[int]] = [[]]

    def expand(cand_mask: int, clique: list[int]):
        vertices = []
        m = cand_mask
        while m:
            v = (m & -m).bit_length() - 1
            vertices.append(v)
            m &= m - 1
        order, bounds = _greedy_coloring_order(vertices, adj)
        for k in range(len(order) - 1, -1, -1):
            if len(clique) + bounds[k] <= best[0]:
                return
            v = order[k]
            clique.append(v)
            if len(clique) > best[0]:
                best[0] = len(clique)
                best_set[0] = clique[:]
            nxt = cand_mask & adj[v]
            # restrict to vertices earlier in the coloring order
            earlier = 0
            for u in order[:k]:
                earlier |= 1 << u
            nxt &= earlier
            if nxt:
                expand(nxt, clique)
            clique.pop()
            cand_mask &= ~(1 << v)

    expand((1 << nv) - 1, [])
    witness = Code.of(perms[v] for v in best_set[0])
    return best[0], witness


# ---------------------------------------------------------------------------
# text formats

def parse_permutation(text: str) -> Permutation:
    """Parse comma-separated one-line notation, e.g. ``2,1,4,3``."""
    try:
        images = [int(tok) for tok in text.strip().split(",")]
    except ValueError as exc:
        raise ValueError(f"bad permutation text: {text!r}") from exc
    return check_perm(images)


def format_permutation(p: Permutation) -> str:
    return ",".join(str(v) for v in p)


def load_code(lines) -> Code:
    """Read a code: one permutation per line, ``#`` comments allowed."""
    perms = []
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if line:
            perms.append(parse_permutation(line))
    return Code.of(perms)


def sphere_packing_bound(n: int) -> int:
    """P(n,3) <= n!/|B_1| = (n-1)!."""
    return factorial(n - 1)

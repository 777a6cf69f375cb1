"""The benchmark's workloads: fixed public-API calls with known answers.

Each workload is a closed loop: one process runs its cases one at a time and
starts no threads of its own.  A run repeats the workload's cases for the
run's ``--seconds`` (30 in ``BENCHMARK.json``) and reports the median pass,
so a pass must be short enough to repeat several times within a run.

Why these cases:

- ``ilp-core``: ``build_coset_ilp`` + ``ilp_solve`` on four shapes of the
  prime lengths n = 5 and 7 whose optimum lies below the LP bound (n-1)!,
  so every layer of the certified solver runs: the exact root simplex and
  its Gomory rounds (``exactlp``), the HiGHS incumbent heuristic, and a
  branch-and-bound tree of 10 to 121 nodes on the float box simplex
  (``boxlp``).  It runs no ``perfect`` code.  The optima were confirmed by
  HiGHS solved to optimality.  The paper's headline programs,
  (5,1,1)@7 -> 716 and (2,2,2)@6 -> 116, take about 22 s and 50 to 66 s
  per solve on a 2-CPU Xeon VM, so a run could not repeat them; the shapes
  here exercise the same code on the same n.
- ``cert-mid``: ``obstruction_irreps(11, (6,4,1))`` (10 seminormal blocks of
  dimension 1 to 693 with Fraction entries) and ``obstruction_coset(13,
  (10,2,1))`` (one sparse integer tabloid matrix of dimension 858).  Every
  matrix is below the dense limit, so this is the dense-elimination side of
  the dense/Wiedemann crossover, and it stresses ``young.irrep_T_matrix``.
- ``cert-large``: ``obstruction_coset`` on (6,3,2)@11 and (9,2,2)@13, of
  dimension 4620 and 4290.  Both pass the divisibility check and both run
  Wiedemann (Krylov sequence plus Berlekamp-Massey), the other side of the
  crossover; a change to the dense engine alone should leave it unchanged.

Cases left out:

- (3,3,2)@8 and (5,5,2)@12 stop at the divisibility check, because 8
  divides 3!3!2! and 12 divides 5!5!2!; they do no matrix work.
- (4,4,2)@10 costs about 140 s in the dense engine, longer than a run.
- ``obstruction_irreps(11, (4,4,3))`` with ``obstruction_coset(11, (7,3,1))``
  take about 19 s, and (6,3,2)@11, (8,4,1)@13 and (4,4,3)@11 together about
  34 s: too long to repeat within a run.  The cases above are the same
  routes at a third of the size.
- Tier-1 wall time is not a workload: it is a property of the test suite,
  takes about 185 s, and re-runs the ILP cases.

The seed picks the primes passed through the public ``primes=`` argument of
the certificate calls, drawn from the primes in (10^6, 2^20); seed 0 gives
the library's ``DEFAULT_PRIMES``.  The ILP models have no free input, so for
ILP cases the seed only orders the cases.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from kendall_codes import ilp, perfect

DEFAULT_SEED = 0
PRIME_LOW = 10**6
#: the mod-p engines keep int64 intermediates exact only for p < 2**20
PRIME_HIGH = 2**20
PRIMES_PER_CALL = 3


@dataclass(frozen=True)
class Case:
    """One public-API call and the answer it must give.

    ``expected`` is the optimum of an ``ilp`` case, and the sorted matrix
    dimensions of a ``coset`` or ``irreps`` case.
    """

    kind: str  # ilp | coset | irreps
    n: int
    shape: tuple[int, ...]
    expected: int | tuple[int, ...]

    @property
    def label(self) -> str:
        return f"{self.kind}_{self.n}_{'-'.join(map(str, self.shape))}"

    @property
    def interpreted(self) -> bool:
        """Whether the case spends its time in the Python interpreter (the
        exact simplex, the box simplex and the branch-and-bound tree) rather
        than in numpy kernels (the mod-p certificates)."""
        return self.kind == "ilp"


# Expected dimensions: tabloid counts n!/prod(part!) for the coset route and
# the hook-length dimensions of the partitions dominating mu for the irreps
# route.
WORKLOADS: dict[str, tuple[Case, ...]] = {
    "ilp-core": (
        Case("ilp", 7, (4, 3), 717),
        Case("ilp", 7, (5, 2), 718),
        Case("ilp", 5, (2, 2, 1), 22),
        Case("ilp", 5, (3, 1, 1), 22),
    ),
    "cert-mid": (
        Case("irreps", 11, (6, 4, 1), (1, 10, 44, 45, 110, 132, 165, 231, 550, 693)),
        Case("coset", 13, (10, 2, 1), (858,)),
    ),
    "cert-large": (
        Case("coset", 11, (6, 3, 2), (4620,)),
        Case("coset", 13, (9, 2, 2), (4290,)),
    ),
    # Seconds-long run of every route, for the benchmark's own tests; not
    # one of the measured workloads.
    "smoke": (
        Case("ilp", 5, (3, 2), 23),
        Case("coset", 5, (4, 1), (5,)),
        Case("irreps", 10, (4, 4, 2),
             (1, 9, 35, 36, 42, 75, 90, 160, 225, 252, 288, 315, 450)),
    ),
}


def cases_for(workload: str, seed: int) -> tuple[Case, ...]:
    cases = list(WORKLOADS[workload])
    if all(case.kind == "ilp" for case in cases):
        random.Random(seed).shuffle(cases)
    return tuple(cases)


def warmup_for(workload: str) -> tuple[Case, ...]:
    """Smoke cases of the workload's kinds, run untimed before measuring so
    that lazy imports and first-call costs stay out of the timed passes."""
    kinds = {case.kind for case in WORKLOADS[workload]}
    return tuple(case for case in WORKLOADS["smoke"] if case.kind in kinds)


def _primes_between(low: int, high: int) -> list[int]:
    flags = bytearray([1]) * (high - low)
    for d in range(2, int(high**0.5) + 1):
        first = max(d * d, -(-low // d) * d)
        flags[first - low::d] = bytes(len(range(first - low, high - low, d)))
    return [low + i for i, flag in enumerate(flags) if flag]


def primes_for(seed: int) -> tuple[int, ...]:
    if seed == DEFAULT_SEED:
        return tuple(perfect.DEFAULT_PRIMES)
    pool = _primes_between(PRIME_LOW + 1, PRIME_HIGH)
    return tuple(random.Random(seed).sample(pool, PRIMES_PER_CALL))


@dataclass(frozen=True)
class Outcome:
    wall_s: float
    cpu_s: float
    problems: tuple[str, ...]  # empty when the answer is correct


def run_case(case: Case, primes: tuple[int, ...]) -> Outcome:
    """Run one case through the public API, timing only the library calls.

    Module attributes are looked up at call time, so the traced run's
    wrappers see the calls.
    """
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if case.kind == "ilp":
        model = ilp.build_coset_ilp(case.n, case.shape)
        result = ilp.ilp_solve(model)
    elif case.kind == "coset":
        result = perfect.obstruction_coset(case.n, case.shape, primes=primes)
    else:
        result = perfect.obstruction_irreps(case.n, case.shape, primes=primes)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if case.kind == "ilp":
        problems = check_ilp(case, model, result)
    else:
        problems = check_certificate(case, result)
    return Outcome(wall, cpu, tuple(problems))


def check_ilp(case: Case, model, result) -> list[str]:
    problems = []
    if result.optimum != case.expected:
        problems.append(f"optimum {result.optimum}, expected {case.expected}")
    if result.status != ilp.PROVEN_OPTIMAL:
        problems.append(f"status {result.status}")
    if not ilp.feasible(model, result.argmax):
        problems.append("argmax is infeasible")
    if sum(result.argmax) != result.optimum:
        problems.append(f"argmax sums to {sum(result.argmax)}, not the optimum")
    return problems


def check_certificate(case: Case, report) -> list[str]:
    problems = []
    if report.conclusion != perfect.CONCLUSION_NO_CODE:
        problems.append(f"conclusion {report.conclusion}")
    problems += [f"{m.label} is {m.verdict}" for m in report.matrices
                 if m.verdict != perfect.VERDICT_INVERTIBLE]
    dims = tuple(sorted(m.dim for m in report.matrices))
    if dims != case.expected:
        problems.append(f"dimensions {dims}, expected {case.expected}")
    return problems

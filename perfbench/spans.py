"""Spans around the library's entry points, for the traced run.

The wrappers live here, outside the library: the traced run installs them
around the calls into each module and removes them afterwards, and the
untraced run installs none.  Each wrapper records a span (name, start, end,
enclosing span, case, pass) plus counts read from the call's arguments and
result.  Spans stay in memory until the run ends.

Which end-to-end metric each layer metric should move, and on which workload
(the other workloads bypass the layer, where the prediction is no change):

- ``ilp.*``, ``exactlp.*``, ``boxlp.*``: ``wall_s`` on ilp-core;
  ``ilp.build_s`` also ``peak_rss_mb`` there.
- ``young.action_*``: ``wall_s`` on cert-large; ``young.irrep_*``:
  ``wall_s`` on cert-mid.
- ``perfect.*``: ``wall_s`` on cert-mid (dense elimination) or cert-large
  (Wiedemann).
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span
    case: str
    pass_index: int
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.case = ""
        self.pass_index = 0
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0,
                        self._open[-1] if self._open else None,
                        self.case, self.pass_index)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                span.end = time.perf_counter()
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result
        return wrapper

    def _install(self, owner, attr: str, name: str, counts=None):
        original = getattr(owner, attr)
        targets = [(owner, attr)]
        if not isinstance(owner, type):
            # modules that imported the function by name call it through
            # their own binding
            targets += [(module, alias) for key, module in list(sys.modules.items())
                        if key.partition(".")[0] == "kendall_codes" and module is not owner
                        for alias, value in vars(module).items() if value is original]
        wrapper = self._wrap(original, name, counts)
        for target, alias in targets:
            setattr(target, alias, wrapper)
            self._undo.append((target, alias, original))

    @contextlib.contextmanager
    def installed(self):
        import scipy.optimize
        from kendall_codes import boxlp, exactlp, ilp, perfect, young
        try:
            self._install(young, "build_action_matrix", "young.build_action_matrix",
                          lambda a, k, r: {"dim": r.dim, "nnz": r.entries.nnz})
            self._install(young, "irrep_T_matrix", "young.irrep_T_matrix",
                          lambda a, k, r: {"dim": young.hook_length_dimension(a[0])})
            self._install(exactlp.ExactSimplex, "__init__", "exactlp.init")
            self._install(exactlp.ExactSimplex, "solve", "exactlp.solve",
                          lambda a, k, r: {"pivots": a[0].pivots})
            self._install(exactlp.ExactSimplex, "gomory_cuts", "exactlp.gomory_cuts")
            self._install(boxlp.BoxSimplex, "solve", "boxlp.solve",
                          lambda a, k, r: {"failed": int(r is None),
                                           "iters": 0 if r is None else r[4]})
            self._install(scipy.optimize, "milp", "scipy.milp",
                          lambda a, k, r: {"highs_nodes": getattr(r, "mip_node_count", 0) or 0})
            self._install(scipy.optimize, "linprog", "scipy.linprog")
            self._install(ilp, "build_coset_ilp", "ilp.build_coset_ilp")
            self._install(ilp, "ilp_solve", "ilp.ilp_solve",
                          lambda a, k, r: {"nodes": r.nodes_explored})
            self._install(perfect, "obstruction_coset", "perfect.obstruction",
                          _check_counts)
            self._install(perfect, "obstruction_irreps", "perfect.obstruction",
                          _check_counts)
            yield self
        finally:
            for target, alias, original in reversed(self._undo):
                setattr(target, alias, original)
            self._undo.clear()


def _check_counts(args, kwargs, report) -> dict:
    primes = tuple(kwargs["primes"])  # the benchmark always passes primes=
    checked = [m for m in report.matrices if m.method != "skipped"]
    dense = [m for m in checked if m.method == "dense-elimination"]
    return {
        "checked": len(checked),
        "dense": len(dense),
        "wiedemann": sum(m.method == "wiedemann" for m in checked),
        "first_prime": sum(m.prime == primes[0] for m in checked),
        # elimination runs once per prime tried: d^3/3 multiply-adds each
        "dense_ops": sum((primes.index(m.prime) + 1) * m.dim**3 / 3 for m in dense),
        "dense_only": int(len(dense) == len(checked)),
    }


#: name -> unit of every per-layer metric that ``layer_metrics`` returns
LAYER_UNITS = {
    "ilp.build_s": "s",
    "ilp.solve_s": "s",
    "ilp.nodes": "count",
    "ilp.tree_self_s": "s",
    "ilp.heuristic_s": "s",
    "ilp.heuristic_highs_nodes": "count",
    "ilp.linprog_calls": "count",
    "exactlp.solve_s": "s",
    "exactlp.solve_calls": "count",
    "exactlp.pivots": "count",
    "exactlp.init_s": "s",
    "exactlp.gomory_s": "s",
    "boxlp.solve_s": "s",
    "boxlp.solve_calls": "count",
    "boxlp.iters": "count",
    "boxlp.fail_ratio": "ratio",
    "young.action_build_s": "s",
    "young.action_dim_max": "count",
    "young.action_nnz": "count",
    "young.irrep_build_s": "s",
    "young.irrep_calls": "count",
    "young.irrep_dim_total": "count",
    "perfect.cert_self_s": "s",
    "perfect.checks_dense": "count",
    "perfect.checks_wiedemann": "count",
    "perfect.first_prime_ratio": "ratio",
    "perfect.dense_ops": "ops",
    "perfect.dense_ops_per_s": "ops/s",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of each pass, then the median over passes.

    Counts repeat exactly from pass to pass; times are medians.  A ratio
    whose base is zero (the layer did not run) reads 0.
    """
    self_s = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            self_s[s.parent] -= s.end - s.start
    by_pass: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_pass[s.pass_index].append(i)

    per_pass = []
    for indices in by_pass.values():
        named: dict[str, list[int]] = defaultdict(list)
        for i in indices:
            named[spans[i].name].append(i)

        def total(name, named=named):
            return sum(spans[i].end - spans[i].start for i in named[name])

        def calls(name, named=named):
            return len(named[name])

        def count(name, key, named=named):
            # a call that raised recorded no counts
            return sum(spans[i].counts.get(key, 0) for i in named[name])

        obstruction = named["perfect.obstruction"]
        dense_self = sum(self_s[i] for i in obstruction
                         if spans[i].counts.get("dense_only"))
        per_pass.append({
            "ilp.build_s": total("ilp.build_coset_ilp"),
            "ilp.solve_s": total("ilp.ilp_solve"),
            "ilp.nodes": count("ilp.ilp_solve", "nodes"),
            "ilp.tree_self_s": sum(self_s[i] for i in named["ilp.ilp_solve"]),
            "ilp.heuristic_s": total("scipy.milp"),
            "ilp.heuristic_highs_nodes": count("scipy.milp", "highs_nodes"),
            "ilp.linprog_calls": calls("scipy.linprog"),
            "exactlp.solve_s": total("exactlp.solve"),
            "exactlp.solve_calls": calls("exactlp.solve"),
            "exactlp.pivots": count("exactlp.solve", "pivots"),
            "exactlp.init_s": total("exactlp.init"),
            "exactlp.gomory_s": total("exactlp.gomory_cuts"),
            "boxlp.solve_s": total("boxlp.solve"),
            "boxlp.solve_calls": calls("boxlp.solve"),
            "boxlp.iters": count("boxlp.solve", "iters"),
            "boxlp.fail_ratio": _ratio(count("boxlp.solve", "failed"),
                                       calls("boxlp.solve")),
            "young.action_build_s": total("young.build_action_matrix"),
            "young.action_dim_max": max((spans[i].counts.get("dim", 0)
                                         for i in named["young.build_action_matrix"]),
                                        default=0),
            "young.action_nnz": count("young.build_action_matrix", "nnz"),
            "young.irrep_build_s": total("young.irrep_T_matrix"),
            "young.irrep_calls": calls("young.irrep_T_matrix"),
            "young.irrep_dim_total": count("young.irrep_T_matrix", "dim"),
            "perfect.cert_self_s": sum(self_s[i] for i in obstruction),
            "perfect.checks_dense": count("perfect.obstruction", "dense"),
            "perfect.checks_wiedemann": count("perfect.obstruction", "wiedemann"),
            "perfect.first_prime_ratio": _ratio(count("perfect.obstruction", "first_prime"),
                                                count("perfect.obstruction", "checked")),
            "perfect.dense_ops": count("perfect.obstruction", "dense_ops"),
            "perfect.dense_ops_per_s": _ratio(count("perfect.obstruction", "dense_ops"),
                                              dense_self),
        })
    return {name: statistics.median(p[name] for p in per_pass) for name in LAYER_UNITS}

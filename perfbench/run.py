"""Benchmark of kendall-codes: certified ILP bounds and mod-p certificates.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ilp-core --seed 0 --seconds 30 --trace 0

The workloads, and why they were chosen, are described in ``workloads.py``.
A run sets up (imports the library in fresh interpreters), warms up, then
repeats the workload's cases for ``--seconds`` and checks every answer.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the machine and a readable summary.

End-to-end metrics (``--trace 0``):

- ``wall_s``: median wall time of one pass over the workload's cases,
  covering the model or matrix build and the solve or certificate, corrected
  for the machine's speed at the time (see below).
- ``setup_s``: median time to ``import kendall_codes`` (with numpy and
  scipy) in a fresh interpreter, after one untimed import.
- ``peak_rss_mb``: peak resident set size of the process that ran the
  workload.

``failed_frac`` (cases failing their check or raising, over cases run) is
always 0 on a correct program, so it is printed in the summary line and
carried by ``failed`` and ``attempted`` rather than listed as a metric.

The machine this benchmark was written on is a few cores of a shared host
on which the Python interpreter's speed drifts by up to 40% over tens of
seconds as other tenants load it; a whole 30 s run can fall in a slow or a
fast stretch.  So a fixed pure-Python probe loop is timed before the first
case of a pass and after every case.  The wall time of a case that runs in
the interpreter (``Case.interpreted``: the ILP solver) is multiplied by
``PROBE_REF_S`` over the mean of the probes around it, giving seconds at the
speed where the probe takes ``PROBE_REF_S``.  Certificate cases spend their
time in numpy kernels, which the drift barely moves (correcting them by the
probe widened their spread), so their wall time is used as measured.  The
summary line and ``process.raw_wall_s`` give the uncorrected time, and
``machine.probe_s`` the probe's median.

Per-layer metrics (``--trace 1``): half of the run is untraced, half runs
with the wrappers of ``spans.py`` installed.  Besides the layer metrics of
``spans.LAYER_UNITS`` it reports ``case.<label>.wall_s`` and
``process.cpu_s`` (median per untraced pass), ``process.raw_wall_s``,
``machine.probe_s`` and ``trace.overhead_s`` (traced minus untraced median
pass).  Spans are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import kendall_codes; "
                "print(time.perf_counter() - t)")
MEASURED = ("ilp-core", "cert-mid", "cert-large")
#: the probe loop's time at the reference speed; about its median on a
#: 2-vCPU Xeon VM
PROBE_REF_S = 0.05
PROBE_ITERATIONS = 200_000


def use_sources() -> None:
    """Import kendall_codes from this checkout's src/, never an installed copy."""
    if not (SRC / "kendall_codes" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no kendall_codes sources under {SRC}; "
                         "run from the root of a checkout")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))


def setup_seconds(repeats: int = SETUP_REPEATS) -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for i in range(repeats + 1):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                               capture_output=True, text=True, timeout=120, check=True)
        if i:  # the first import compiles bytecode and fills the file cache
            times.append(float(probe.stdout))
    return statistics.median(times)


def probe_s() -> float:
    """Wall time of a fixed pure-Python loop: the machine's current speed."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(PROBE_ITERATIONS):
        table[i & 1023] = table.get(i & 1023, 0) + (i ^ (i >> 3))
    return time.perf_counter() - start


@dataclasses.dataclass
class Pass:
    wall_s: float  # interpreted cases corrected for the machine's speed
    raw_wall_s: float
    probe_s: float  # median probe of the pass
    cpu_s: float
    case_wall_s: dict[str, float]
    attempted: int
    failed: int


def run_pass(cases, primes, tracer=None, index: int = 0) -> Pass:
    from workloads import run_case

    wall = raw_wall = cpu = 0.0
    case_wall = {}
    failed = 0
    probes = [probe_s()]
    for case in cases:
        if tracer is not None:
            tracer.case, tracer.pass_index = case.label, index
        try:
            outcome = run_case(case, primes)
        except Exception:  # a raising case counts as failed; the run goes on
            print(f"perfbench: {case.label} raised", file=sys.stderr)
            traceback.print_exc()
            failed += 1
            probes.append(probe_s())
            continue
        probes.append(probe_s())
        if outcome.problems:
            print(f"perfbench: {case.label} wrong: {'; '.join(outcome.problems)}",
                  file=sys.stderr)
            failed += 1
        scaled = outcome.wall_s
        if case.interpreted:
            scaled *= PROBE_REF_S / statistics.mean(probes[-2:])
        wall += scaled
        raw_wall += outcome.wall_s
        cpu += outcome.cpu_s
        case_wall[case.label] = scaled
    return Pass(wall, raw_wall, statistics.median(probes), cpu, case_wall,
                len(cases), failed)


def run_passes(cases, primes, budget_s: float, tracer=None) -> list[Pass]:
    """Repeat passes while the next one is expected to end within budget_s
    (at least one pass)."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cases, primes, tracer, len(passes)))
        typical = statistics.median(p.wall_s for p in passes)
        if time.perf_counter() - start + typical > budget_s:
            return passes


def median_of(passes, key) -> float:
    return statistics.median(key(p) for p in passes)


def machine_info() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "thread_env": {key: value for key, value in sorted(os.environ.items())
                       if "THREAD" in key.upper()},
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(cases, primes, seconds: float) -> tuple[dict, list[Pass]]:
    setup = setup_seconds()
    passes = run_passes(cases, primes, seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    return {
        "wall_s": metric(median_of(passes, lambda p: p.wall_s), "s"),
        "setup_s": metric(setup, "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }, passes


def per_layer(cases, primes, seconds: float, workload: str, seed: int,
              machine: dict) -> tuple[dict, list[Pass]]:
    from spans import LAYER_UNITS, Tracer, layer_metrics
    from workloads import WORKLOADS

    plain = run_passes(cases, primes, seconds / 2)
    tracer = Tracer()
    with tracer.installed():
        traced = run_passes(cases, primes, seconds / 2, tracer)
    layers = layer_metrics(tracer.spans)
    metrics = {name: metric(layers[name], unit) for name, unit in LAYER_UNITS.items()}
    # every measured case is named, so each workload reports the same set;
    # a case outside this workload reads 0
    for case in dict.fromkeys(c for w in MEASURED for c in WORKLOADS[w]):
        metrics[f"case.{case.label}.wall_s"] = metric(
            median_of(plain, lambda p: p.case_wall_s.get(case.label, 0.0)), "s")
    metrics["process.cpu_s"] = metric(median_of(plain, lambda p: p.cpu_s), "s")
    metrics["process.raw_wall_s"] = metric(median_of(plain, lambda p: p.raw_wall_s), "s")
    metrics["machine.probe_s"] = metric(median_of(plain, lambda p: p.probe_s), "s")
    metrics["trace.overhead_s"] = metric(
        median_of(traced, lambda p: p.wall_s) - median_of(plain, lambda p: p.wall_s), "s")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{workload}-seed{seed}.jsonl", "w") as fh:
        fh.write(json.dumps({"machine": machine, "workload": workload, "seed": seed}) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(dataclasses.asdict(span)) + "\n")
    return metrics, plain + traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_sources()
    from workloads import WORKLOADS, cases_for, primes_for, warmup_for

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    cases = cases_for(args.workload, args.seed)
    primes = primes_for(args.seed)
    machine = machine_info()
    warm = run_pass(warmup_for(args.workload), primes)
    if args.trace:
        metrics, passes = per_layer(cases, primes, args.seconds, args.workload,
                                    args.seed, machine)
    else:
        metrics, passes = end_to_end(cases, primes, args.seconds)
    attempted = warm.attempted + sum(p.attempted for p in passes)
    failed = warm.failed + sum(p.failed for p in passes)

    print(json.dumps({"machine": machine}))
    summary = [f"{args.workload} seed={args.seed} primes={list(primes)} "
               f"passes={len(passes)}",
               f"raw_wall_s={median_of(passes, lambda p: p.raw_wall_s):.6g} s",
               f"probe_s={median_of(passes, lambda p: p.probe_s):.6g} s"]
    summary += [f"{name}={m['value']:.6g} {m['unit']}" for name, m in metrics.items()
                if not name.startswith("case.")]
    summary.append(f"failed_frac={failed / attempted:.6g} ratio ({failed}/{attempted})")
    print(" ".join(summary))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

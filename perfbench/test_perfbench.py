"""Tests of the benchmark itself, on the seconds-long smoke workload.

Run from the root of the repository:  python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys

import pytest
import run

run.use_sources()

from workloads import Case, WORKLOADS, cases_for, primes_for  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_emits_every_end_to_end_metric():
    result = result_of(bench("--workload", "smoke", "--seed", "3", "--seconds", "1",
                             "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run_emits_every_layer_metric():
    proc = bench("--workload", "smoke", "--seconds", "1", "--trace", "1")
    result = result_of(proc)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["correct"]
    assert "failed_frac=0 ratio" in proc.stdout
    # the wrappers saw every call: 13 irrep blocks plus one coset matrix
    assert metrics["young.irrep_calls"] == 13
    assert metrics["young.irrep_dim_total"] == 1978
    assert metrics["perfect.checks_dense"] == 14
    assert metrics["perfect.first_prime_ratio"] == 1.0
    assert metrics["ilp.heuristic_highs_nodes"] >= 1
    assert metrics["exactlp.solve_calls"] >= 1


def test_wrong_expected_value_is_counted_as_failed():
    wrong = Case("ilp", 5, (3, 2), 24)  # the optimum is 23
    outcome = run.run_pass([wrong, *WORKLOADS["smoke"][1:2]], primes_for(0))
    assert (outcome.failed, outcome.attempted) == (1, 2)


def test_probe_corrects_only_interpreted_cases(monkeypatch):
    monkeypatch.setattr(run, "probe_s", lambda: 2 * run.PROBE_REF_S)  # a slow machine
    ilp_case, coset_case = WORKLOADS["smoke"][:2]
    interpreted = run.run_pass([ilp_case], primes_for(0))
    assert interpreted.wall_s == pytest.approx(interpreted.raw_wall_s / 2)
    numeric = run.run_pass([coset_case], primes_for(0))
    assert numeric.wall_s == numeric.raw_wall_s


def test_seed_picks_primes_and_default_seed_gives_default_primes():
    from kendall_codes.perfect import DEFAULT_PRIMES

    assert primes_for(0) == DEFAULT_PRIMES
    drawn = primes_for(11)
    assert drawn == primes_for(11) != primes_for(12)
    assert len(set(drawn)) == 3
    for p in drawn:
        assert 10**6 < p < 2**20
        assert all(p % d for d in range(2, int(p**0.5) + 1))


def test_seed_only_orders_ilp_cases():
    labels = [c.label for c in cases_for("ilp-core", 5)]
    assert sorted(labels) == sorted(c.label for c in WORKLOADS["ilp-core"])
    assert cases_for("cert-mid", 5) == WORKLOADS["cert-mid"]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "ilp-core", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

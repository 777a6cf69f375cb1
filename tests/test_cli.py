import csv
import errno
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kendall_codes
from kendall_codes import cli, ilp, young


def fresh_env():
    """The environment of a fresh interpreter that imports this checkout."""
    src = str(Path(kendall_codes.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_distance(capsys):
    code, out, _ = run(capsys, "distance", "3,2,1", "1,2,3")
    assert code == 0
    assert out.strip() == "3"


def test_distance_bad_input(capsys):
    code, _, err = run(capsys, "distance", "2,2", "1,2")
    assert code == 2
    assert "error" in err


def test_ball_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "ball", "4", "1")
    assert code == 0
    assert json.loads(out)["size"] == 4


def test_ball_resource_limit(capsys):
    code, _, err = run(capsys, "ball", "12", "1", "--members")
    assert code == 4


def test_ball_size_needs_no_enumeration(capsys):
    code, out, _ = run(capsys, "ball", "9", "1")
    assert code == 0
    assert out.strip() == "9"
    code, out, _ = run(capsys, "ball", "9", str(10**12))  # the whole of S_9
    assert code == 0
    assert out.strip() == "362880"


def test_verify(tmp_path, capsys):
    f = tmp_path / "code.txt"
    f.write_text("1,2,3\n3,2,1\n")
    code, out, _ = run(capsys, "--format", "json", "verify", "3", str(f))
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_oracle(capsys):
    code, out, _ = run(capsys, "oracle", "3", "3")
    assert code == 0
    assert "P(3,3) = 2" in out


def test_matrix_stdout(capsys):
    code, out, _ = run(capsys, "matrix", "4", "3,1")
    assert code == 0
    assert out.startswith("%%MatrixMarket")


def test_refused_json_export_keeps_the_destination(tmp_path, capsys):
    dest = tmp_path / "keep.json"
    dest.write_text('{"a":1}')
    code, _, err = run(capsys, "matrix", "8", "4,2,2", "--out", str(dest),
                       "--matrix-format", "json")
    assert code == 4
    assert "dim <= 200" in err
    assert dest.read_text() == '{"a":1}'


def test_dense_json_export_is_refused_before_the_build(tmp_path, capsys, monkeypatch):
    def no_build(n, shape):
        raise AssertionError("action matrix built before the dense-JSON refusal")

    monkeypatch.setattr(young, "build_action_matrix", no_build)
    assert young.tabloid_count((6, 6, 2)) > young.DENSE_JSON_LIMIT
    code, _, err = run(capsys, "matrix", "14", "6,6,2", "--out", str(tmp_path / "x.json"),
                       "--matrix-format", "json")
    assert code == 4
    assert "dim <= 200" in err
    assert not (tmp_path / "x.json").exists()


def test_matrix_rejects_unsorted_shape(capsys):
    code, _, err = run(capsys, "matrix", "4", "1,3")
    assert code == 2
    assert "non-increasing" in err


def test_ilp_solve_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "ilp", "solve", "4", "3,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["optimum"] == "5"
    assert payload["status"] == "proven-optimal"
    assert isinstance(payload["dualBound"], str)


def test_ilp_export(tmp_path, capsys):
    dest = tmp_path / "m.lp"
    code, _, _ = run(capsys, "ilp", "export", "4", "3,1", "--out", str(dest))
    assert code == 0
    assert dest.read_text().startswith("Maximize")


def test_bound_text_and_csv(capsys):
    code, out, _ = run(capsys, "bound", "6")
    assert code == 0
    assert "116" in out
    code, out, _ = run(capsys, "--format", "csv", "bound", "6")
    assert code == 0
    assert out.splitlines()[0] == "method,shape,value,provenance"


def test_bound_json_with_a_shape(capsys):
    code, out, _ = run(capsys, "--format", "json", "bound", "5", "--shape", "3,2")
    assert code == 0
    assert '"value": "23"' in out
    assert json.loads(out)["minimum"] == "23"


@pytest.mark.parametrize("argv", [("bound", "6"), ("perfect", "coset", "5", "4,1"),
                                  ("perfect", "irreps", "4", "3,1"),
                                  ("ilp", "solve", "5", "3,2")], ids=" ".join)
def test_csv_rows_parse_to_one_field_count(capsys, argv):
    # tables keep their header's field count through commas in provenance
    # and labels; key/value payloads are pairs, lists joined by spaces
    code, out, _ = run(capsys, "--format", "csv", *argv)
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    width = 2 if argv[0] == "ilp" else len(rows[0])
    assert len(rows) > 1 and all(len(row) == width for row in rows), rows
    if argv[0] == "ilp":
        assert dict(rows)["shape"] == "3 2"
        assert all(v.isdigit() for v in dict(rows)["argmax"].split())
    else:
        assert any("," in field for row in rows[1:] for field in row)


def test_perfect_coset_exit_codes(capsys):
    code, out, _ = run(capsys, "perfect", "coset", "5", "4,1")
    assert code == 0
    assert "no-1-perfect-code" in out
    code, out, _ = run(capsys, "perfect", "coset", "6", "5,1")
    assert code == 3
    assert "inconclusive" in out


def test_perfect_irreps_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "perfect", "irreps",
                       "4", "3,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["conclusion"] == "no-1-perfect-code"
    assert {m["evidence"] for m in payload["matrices"]} == {"deterministic"}
    # T-hat(1,1) is the 1 x 1 zero matrix: {12} is a 1-perfect code of S_2
    code, out, _ = run(capsys, "--format", "json", "perfect", "irreps",
                       "2", "1,1")
    assert code == 3
    assert json.loads(out)["conclusion"] == "inconclusive"


def test_config_file_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"outputFormat": "json", "primeList": [101, 103]}))
    code, out, _ = run(capsys, "--config", str(cfg), "perfect", "coset",
                       "5", "4,1")
    assert code == 0
    assert json.loads(out)["matrices"][0]["prime"] == 101


def test_removed_knobs_are_rejected(tmp_path, capsys):
    for key in ("threads", "seed", "enumerationLimit"):
        cfg = tmp_path / f"{key}.json"
        cfg.write_text(json.dumps({key: 1}))
        code, _, err = run(capsys, "--config", str(cfg), "distance", "1,2", "1,2")
        assert code == 2
        assert "unknown config keys" in err
    for argv in (["--threads", "2", "distance", "1,2", "1,2"],
                 ["--seed", "1", "distance", "1,2", "1,2"],
                 ["ilp", "solve", "4", "3,1", "--cut-rounds", "0"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2


def test_ilp_solve_at_rhs_divisible_by_n_exits_0(capsys):
    # 22 divides |S_(21,1)| = 21!, so 21!/22 . 1 is optimal with no solve
    code, out, _ = run(capsys, "ilp", "solve", "22", "21,1")
    assert code == 0
    assert out.startswith(f"optimum {math.factorial(21)} (proven-optimal), 0 nodes")


def test_ilp_above_dimension_limit_exits_4(tmp_path, capsys, monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("the shape must be refused before allocation")

    monkeypatch.setattr(young, "_lex_words", no_allocation)
    monkeypatch.setattr(ilp, "model_from_action", no_allocation)
    for mode in ("solve", "export"):
        code, _, err = run(capsys, "ilp", mode, "12", "4,4,4",
                           "--out", str(tmp_path / "m.lp"))
        assert code == 4
        assert "exceeds limit" in err


def test_ilp_shape_of_another_n_is_bad_input(capsys):
    # the partition check comes before the dimension limit
    code, _, err = run(capsys, "ilp", "solve", "5", "4,4,4")
    assert code == 2
    assert "not a partition of 5" in err


def test_ilp_json_is_one_document_when_highs_writes_to_fd_1(capfd, monkeypatch):
    # HiGHS writes some diagnostics straight to file descriptor 1; a stub
    # that does the same must land on stderr, not inside the JSON
    from scipy import optimize
    real = optimize.milp

    def noisy(*args, **kwargs):
        os.write(1, b"tmpSolver.run();\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(optimize, "milp", noisy)
    code = cli.main(["--format", "json", "ilp", "solve", "7", "4,3"])
    out, err = capfd.readouterr()
    assert code == 0
    assert json.loads(out)["status"] == "proven-optimal"
    assert "tmpSolver.run();" in err


def test_ilp_json_at_huge_rhs_is_one_document(capfd):
    # rhs = 20!, which 21 divides: the answer comes without a solve, and the
    # JSON report of a factorial-sized optimum is still one document
    code = cli.main(["--format", "json", "ilp", "solve", "21", "20,1"])
    assert code == 0
    doc = json.loads(capfd.readouterr().out)
    assert doc["status"] == "proven-optimal"


def test_ilp_json_below_2_53_is_one_document():
    # rhs = 17!·2! is shifted to a small rhs' on which HiGHS runs; the report
    # of the lifted result, from a fresh process, is one JSON document
    proc = subprocess.run([sys.executable, "-m", "kendall_codes.cli", "--format", "json",
                           "--time-limit", "1", "ilp", "solve", "19", "17,2"],
                          capture_output=True, text=True, env=fresh_env(), timeout=120)
    status = json.loads(proc.stdout)["status"]
    assert (proc.returncode, status) in [(0, "proven-optimal"), (3, "incumbent-only")]


def test_import_loads_no_heavy_scipy_module():
    # scipy.sparse alone costs about 150-170 ms of import time on a 2-vCPU
    # host, against about 90 ms for numpy and the package together; scipy is
    # imported where a matrix is built or a model solved, so a fresh
    # interpreter that imports the package loads no scipy module
    code = ("import sys, kendall_codes\n"
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=fresh_env(), timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


#: runs the CLI on its arguments in a fresh interpreter, then writes to
#: stderr, as JSON, the scipy modules loaded at exit
FRESH_CLI = """
import json, sys
from kendall_codes import cli

status = cli.main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")),
      file=sys.stderr)
sys.exit(status)
"""


def fresh_cli(*argv):
    proc = subprocess.run([sys.executable, "-c", FRESH_CLI, *argv], capture_output=True,
                          text=True, env=fresh_env(), timeout=120)
    return proc.returncode, proc.stdout, json.loads(proc.stderr.splitlines()[-1])


@pytest.mark.parametrize("argv", [
    ("distance", "1,2,3", "3,2,1"),
    ("ball", "5", "1"),
    ("verify", "3", "FILE"),
    ("oracle", "4", "3"),
    ("bound", "11"),
], ids=["distance", "ball", "verify", "oracle", "bound"])
def test_commands_without_a_matrix_load_no_scipy(tmp_path, argv):
    f = tmp_path / "code.txt"
    f.write_text("1,2,3\n3,2,1\n")
    code, _, scipy = fresh_cli(*(str(f) if a == "FILE" else a for a in argv))
    assert (code, scipy) == (0, [])


@pytest.mark.parametrize("argv", [
    ("matrix", "5", "3,2"),
    ("perfect", "coset", "13", "10,2,1"),
], ids=["matrix", "coset-blocks"])
def test_first_matrix_of_a_fresh_interpreter_loads_scipy_sparse(capsys, argv):
    code, out, scipy = fresh_cli(*argv)
    assert "scipy.sparse" in scipy
    assert (code, out) == run(capsys, *argv)[:2]


@pytest.mark.parametrize("argv", [
    ("--config", "DIR", "distance", "1,2", "1,2"),
    ("verify", "3", "DIR"),
    ("matrix", "5", "3,2", "--out", "DIR", "--matrix-format", "json"),
    ("ilp", "export", "5", "3,2", "--out", "DIR"),
], ids=["config", "verify", "matrix", "ilp-export"])
def test_a_directory_as_a_file_is_bad_input(tmp_path, capsys, argv):
    code, _, err = run(capsys, *(str(tmp_path) if a == "DIR" else a for a in argv))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_an_io_failure_is_not_bad_input(tmp_path, monkeypatch):
    # a full disk is no fault of the arguments, so it keeps its own exit
    def full_disk(model, destination):
        raise OSError(errno.ENOSPC, "No space left on device")
    monkeypatch.setattr(ilp, "export_lp", full_disk)
    with pytest.raises(OSError):
        cli.main(["ilp", "export", "5", "3,2", "--out", str(tmp_path / "m.lp")])


def test_config_rejects_bad_prime(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"primeList": [100]}))
    code, _, err = run(capsys, "--config", str(cfg), "distance", "1,2", "1,2")
    assert code == 2
    assert "not prime" in err


@pytest.mark.parametrize("raw", [
    {"primeList": 1000003},
    {"primeList": ["1000003"]},
    {"primeList": [101.0]},
    {"timeLimit": "abc"},
    {"timeLimit": True},
    {"dimensionLimit": "x"},
    {"dimensionLimit": True},
], ids=["prime-int", "prime-str", "prime-float", "time-str", "time-bool",
        "dimension-str", "dimension-bool"])
def test_config_rejects_wrong_types(tmp_path, capsys, raw):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    code, _, err = run(capsys, "--config", str(cfg), "distance", "1,2", "1,2")
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize("text", ["[]", "5", "null", '""', "true"],
                         ids=["list", "int", "null", "str", "bool"])
def test_config_must_be_a_json_object(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, _, err = run(capsys, "--config", str(cfg), "distance", "1,2", "1,2")
    assert code == 2
    assert err == "error: config must be a JSON object\n"


def test_config_rejects_prime_above_limit(tmp_path, capsys, monkeypatch):
    def no_matrix_work(*args, **kwargs):
        raise AssertionError("matrix work started")

    monkeypatch.setattr(young, "build_action_matrix", no_matrix_work)
    monkeypatch.setattr(young, "irrep_T_matrix", no_matrix_work)
    monkeypatch.setattr(young, "irrep_WT_matrix", no_matrix_work)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"primeList": [2147483647]}))
    code, _, err = run(capsys, "--config", str(cfg), "perfect", "coset", "11", "6,3,2")
    assert code == 2
    assert "not below" in err


def test_coset_above_dense_limit_refuses_before_any_block(tmp_path, capsys, monkeypatch):
    # (6,3,2)@11 has 4620 tabloids: its blocks need p > 11, each at most
    # IRREP_DIMENSION_LIMIT
    def no_block(shape, p):
        raise AssertionError("block built")

    monkeypatch.setattr(young, "irrep_T_matrix", no_block)
    monkeypatch.setattr(young, "irrep_WT_matrix", no_block)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"primeList": [1000003, 11]}))
    code, _, err = run(capsys, "--config", str(cfg), "perfect", "coset", "11", "6,3,2")
    assert code == 2
    assert err == "error: seminormal reduction mod 11 needs p > n = 11\n"
    monkeypatch.setattr(young, "IRREP_DIMENSION_LIMIT", 989)
    code, _, err = run(capsys, "perfect", "coset", "11", "6,3,2")
    assert code == 4
    assert err == "error: dimension 990 exceeds limit 989\n"


def test_irreps_rejects_prime_at_or_below_n(tmp_path, capsys, monkeypatch):
    def no_block(shape, p):
        raise AssertionError("block built")

    monkeypatch.setattr(young, "irrep_T_matrix", no_block)
    monkeypatch.setattr(young, "irrep_WT_matrix", no_block)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"primeList": [1000003, 3]}))
    code, _, err = run(capsys, "--config", str(cfg), "perfect", "irreps", "4", "3,1")
    assert code == 2
    assert err == "error: seminormal reduction mod 3 needs p > n = 4\n"


#: certificate outputs pinned byte for byte: the black-box engine on the
#: blocks of (6,3,2)@11 and dense elimination on (10,2,1)@13
PINNED_CERTIFICATES = [
    (("--format", "json", "perfect", "coset", "11", "6,3,2"), """{
  "n": 11,
  "route": "coset(6, 3, 2)",
  "divisibilityOk": true,
  "matrices": [
    {
      "label": "action(6, 3, 2)",
      "dim": 4620,
      "prime": 1000003,
      "verdict": "invertible",
      "method": "wiedemann",
      "evidence": "deterministic"
    }
  ],
  "conclusion": "no-1-perfect-code",
  "notes": []
}
"""),
    (("perfect", "coset", "13", "10,2,1"), """n=13 coset(10, 2, 1): no-1-perfect-code
divisibility precondition: True
  action(10, 2, 1) dim 858: invertible mod 1000003 (wiedemann)
"""),
    (("perfect", "coset", "11", "6,5"), """n=11 coset(6, 5): no-1-perfect-code
divisibility precondition: True
  action(6, 5) dim 462: invertible mod 1000003 (dense-elimination)
"""),
]


def test_json_output_is_byte_stable(capsys):
    _, a, _ = run(capsys, "--format", "json", "bound", "7")
    _, b, _ = run(capsys, "--format", "json", "bound", "7")
    assert a == b
    for argv, pinned in PINNED_CERTIFICATES:
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == pinned

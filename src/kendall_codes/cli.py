"""Command-line surface for the library pipelines.

Exit codes: 0 success with a conclusive result, 2 invalid input,
3 inconclusive (time limit hit, or singular mod every configured prime),
4 enumeration / dimension limit exceeded.

Big integers are printed as decimal strings inside JSON so that consumers
with 53-bit number parsing stay lossless.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, replace

from kendall_codes import ilp, perfect, perms, young

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_INCONCLUSIVE = 3
EXIT_RESOURCE = 4


@dataclass(frozen=True)
class CliConfig:
    time_limit: float | None = None
    dimension_limit: int = perfect.IRREP_CHECK_LIMIT
    prime_list: tuple[int, ...] = perfect.DEFAULT_PRIMES
    output_format: str = "text"

    def validate(self) -> None:
        # exact types: JSON true is a bool, which isinstance(v, int) accepts
        if not (type(self.dimension_limit) is int and self.dimension_limit >= 1):
            raise ValueError("dimension limit must be a positive integer")
        ilp.check_time_limit(self.time_limit)
        if self.output_format not in ("json", "csv", "text"):
            raise ValueError(f"unknown output format {self.output_format!r}")
        if not (type(self.prime_list) is tuple
                and all(type(p) is int for p in self.prime_list)):
            raise ValueError(f"primes must be a list of integers, got {self.prime_list!r}")
        for p in self.prime_list:
            perfect._check_prime(p)


_CONFIG_KEYS = {
    "timeLimit": "time_limit",
    "dimensionLimit": "dimension_limit",
    "primeList": "prime_list",
    "outputFormat": "output_format",
}


def load_config(path: str | None, args) -> CliConfig:
    cfg = CliConfig()
    if path:
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        unknown = set(raw) - set(_CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        fields = {_CONFIG_KEYS[k]: tuple(v) if isinstance(v, list) else v
                  for k, v in raw.items()}
        cfg = replace(cfg, **fields)
    overrides = {}
    for attr in ("time_limit", "output_format"):
        v = getattr(args, attr, None)
        if v is not None:
            overrides[attr] = v
    if overrides:
        cfg = replace(cfg, **overrides)
    cfg.validate()
    return cfg


def parse_shape(text: str) -> tuple[int, ...]:
    return young.check_partition(int(tok) for tok in text.split(","))


def _emit(payload: dict, cfg: CliConfig, text_lines, csv_rows=None) -> None:
    if cfg.output_format == "json":
        print(json.dumps(payload, indent=2))
    elif cfg.output_format == "csv":
        rows = csv_rows if csv_rows is not None else [
            [k, " ".join(map(str, v)) if isinstance(v, list) else v]
            for k, v in payload.items()]
        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands

def cmd_distance(args, cfg: CliConfig) -> int:
    p = perms.parse_permutation(args.perm1)
    q = perms.parse_permutation(args.perm2)
    d = perms.kendall_distance(p, q)
    _emit({"distance": d}, cfg, [str(d)])
    return EXIT_OK


def cmd_ball(args, cfg: CliConfig) -> int:
    """The size is the same around every center and has a closed form, so
    only --members enumerates the ball."""
    center = (perms.parse_permutation(args.center) if args.center
              else perms.identity(args.n))
    if args.n < 1:
        raise ValueError("n must be >= 1")
    if len(center) != args.n:
        raise ValueError("center has wrong length")
    if not args.members:
        size = perms.ball_size(args.n, args.r)
        _emit({"n": args.n, "r": args.r, "size": size}, cfg, [str(size)])
        return EXIT_OK
    members = perms.ball(args.n, center, args.r)
    listed = sorted(perms.format_permutation(m) for m in members)
    _emit({"n": args.n, "r": args.r, "size": len(members), "members": listed},
          cfg, listed)
    return EXIT_OK


def cmd_verify(args, cfg: CliConfig) -> int:
    source = open(args.file) if args.file else sys.stdin
    try:
        code = perms.load_code(source)
    finally:
        if args.file:
            source.close()
    ok = perms.verify_code(code, args.d)
    _emit({"size": len(code.members), "d": args.d, "valid": ok}, cfg,
          [f"{'valid' if ok else 'INVALID'}: {len(code.members)} words, "
           f"min distance >= {args.d}: {ok}"])
    return EXIT_OK


def cmd_oracle(args, cfg: CliConfig) -> int:
    value, witness = perms.exhaustive_max_code(args.n, args.d)
    payload = {"n": args.n, "d": args.d, "value": value,
               "witness": sorted(perms.format_permutation(p)
                                 for p in witness.members)}
    _emit(payload, cfg, [f"P({args.n},{args.d}) = {value}"])
    return EXIT_OK


def cmd_matrix(args, cfg: CliConfig) -> int:
    shape = parse_shape(args.shape)
    if args.out and args.format == "json" and young.partition_n(shape) == args.n:
        # the size is known from the shape: refuse before the build
        young.check_dense_json(young.tabloid_count(shape))
    action = young.build_action_matrix(args.n, shape)
    if args.out:
        ilp.export_matrix(action, args.out, fmt=args.format)
    else:
        if args.format != "matrixmarket":
            raise ValueError("inline output supports matrixmarket only")
        for line in young.matrix_market_lines(action.entries):
            print(line)
    return EXIT_OK


def _ilp_result_payload(model, result) -> dict:
    return {
        "n": model.n,
        "shape": list(model.shape),
        "optimum": str(result.optimum),
        "argmax": [str(v) for v in result.argmax],
        "nodesExplored": result.nodes_explored,
        "status": result.status,
        "dualBound": str(result.dual_bound),
    }


def cmd_ilp(args, cfg: CliConfig) -> int:
    model = ilp.build_coset_ilp(args.n, parse_shape(args.shape))
    if args.mode == "export":
        if not args.out:
            raise ValueError("ilp export needs --out")
        ilp.export_lp(model, args.out)
        return EXIT_OK
    result = ilp.ilp_solve(model, time_limit=cfg.time_limit)
    payload = _ilp_result_payload(model, result)
    _emit(payload, cfg,
          [f"optimum {result.optimum} ({result.status}), "
           f"{result.nodes_explored} nodes, dual bound {result.dual_bound}"])
    return EXIT_OK if result.status == ilp.PROVEN_OPTIMAL else EXIT_INCONCLUSIVE


def cmd_bound(args, cfg: CliConfig) -> int:
    shapes = [parse_shape(s) for s in args.shape or []]
    report = ilp.bound_report(args.n, shapes, time_limit=cfg.time_limit)
    payload = report.to_json_dict()
    lines = [f"P({report.n},{report.d}) upper bounds:"]
    for e in report.entries:
        shape = f" shape {e.shape}" if e.shape else ""
        lines.append(f"  {e.method}{shape}: {e.value}  [{e.provenance}]")
    lines.append(f"minimum: {report.minimum().value}")
    rows = [["method", "shape", "value", "provenance"]]
    rows += [[e.method, " ".join(map(str, e.shape or ())), str(e.value),
              e.provenance] for e in report.entries]
    _emit(payload, cfg, lines, rows)
    return EXIT_OK


def cmd_perfect(args, cfg: CliConfig) -> int:
    if args.route == "coset":
        report = perfect.obstruction_coset(args.n, parse_shape(args.shape),
                                           primes=cfg.prime_list)
    elif args.route == "irreps":
        report = perfect.obstruction_irreps(args.n, parse_shape(args.shape),
                                            use_list=args.list,
                                            primes=cfg.prime_list,
                                            check_limit=cfg.dimension_limit)
    else:
        report = perfect.conjecture_check(args.p, primes=cfg.prime_list)
    payload = report.to_json_dict()
    lines = [f"n={report.n} {report.route}: {report.conclusion}",
             f"divisibility precondition: {report.divisibility_ok}"]
    for m in report.matrices:
        lines.append(f"  {m.label} dim {m.dim}: {m.verdict}"
                     + (f" mod {m.prime} ({m.method})" if m.prime else ""))
    lines.extend(f"  note: {note}" for note in report.notes)
    rows = [["label", "dim", "prime", "verdict", "method"]]
    rows += [[m.label, m.dim, m.prime or "", m.verdict, m.method]
             for m in report.matrices]
    _emit(payload, cfg, lines, rows)
    return (EXIT_OK if report.conclusion == perfect.CONCLUSION_NO_CODE
            else EXIT_INCONCLUSIVE)


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kendall-codes",
        description="Certified upper bounds for Kendall tau permutation codes")
    ap.add_argument("--config", help="JSON CliConfig file")
    ap.add_argument("--time-limit", dest="time_limit", type=float)
    ap.add_argument("--format", dest="output_format",
                    choices=["json", "csv", "text"])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distance", help="Kendall distance of two permutations")
    p.add_argument("perm1")
    p.add_argument("perm2")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("ball", help="metric ball size")
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)
    p.add_argument("--center")
    p.add_argument("--members", action="store_true")
    p.set_defaults(func=cmd_ball)

    p = sub.add_parser("verify", help="check a code file for min distance d")
    p.add_argument("d", type=int)
    p.add_argument("file", nargs="?")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive P(n,d)")
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("matrix", help="emit a coset action matrix")
    p.add_argument("n", type=int)
    p.add_argument("shape")
    p.add_argument("--out")
    p.add_argument("--matrix-format", dest="format", default="matrixmarket",
                   choices=["matrixmarket", "json"])
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("ilp", help="solve or export a coset integer program")
    p.add_argument("mode", choices=["solve", "export"])
    p.add_argument("n", type=int)
    p.add_argument("shape")
    p.add_argument("--out", help="destination for export")
    p.set_defaults(func=cmd_ilp)

    p = sub.add_parser("bound", help="aggregate upper bounds on P(n,3)")
    p.add_argument("n", type=int)
    p.add_argument("--shape", action="append")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("perfect", help="1-perfect code obstructions")
    psub = p.add_subparsers(dest="route", required=True)
    pc = psub.add_parser("coset")
    pc.add_argument("n", type=int)
    pc.add_argument("shape")
    pi = psub.add_parser("irreps")
    pi.add_argument("n", type=int)
    pi.add_argument("shape", help="the tabloid shape mu")
    pi.add_argument("--list", default="computed", choices=["computed", "published"])
    pj = psub.add_parser("conjecture")
    pj.add_argument("p", type=int)
    p.set_defaults(func=cmd_perfect)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = load_config(args.config, args)
        return args.func(args, cfg)
    except (ValueError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (perms.EnumerationLimitError, young.DimensionLimitError)):
            return EXIT_RESOURCE
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())

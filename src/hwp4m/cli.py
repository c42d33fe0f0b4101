"""Command-line entry point: build, verify, plan, and ingredient plumbing.

Exit codes mirror the planner's statuses so that shell scripts can branch on
them: 0 success, 1 I/O, parse, or usage error, 2 infeasible (the counting
conditions fail), 3 unsupported (a genuinely open corner), 4 external (a
solution is known or possible but not built by these recipes), 5 ingredient
unavailable (search timed out or a required import was missing).

All artifacts use the canonical Solution JSON encoding, so a command run
twice writes byte-identical files; ``--out -`` streams to standard output.
"""

import argparse
import json
import sys

from . import composer, search
from .model import DecodeError, decode_solution, encode_solution, Solution
from .verifier import verify_block, verify_solution

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_UNSUPPORTED = 3
EXIT_EXTERNAL = 4
EXIT_INGREDIENT = 5


class _CliError(Exception):
    pass


# ============================================================
# I/O helpers
# ============================================================

def _read_solution(path: str) -> Solution:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc
    try:
        return decode_solution(data)
    except DecodeError as exc:
        raise _CliError(f"{path}: {exc.code}: {exc}") from exc


def _write_bytes(data: bytes, out: str):
    if out == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
        return
    try:
        with open(out, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise _CliError(f"cannot write {out}: {exc}") from exc


# ============================================================
# subcommands
# ============================================================

def _cmd_build(args) -> int:
    imports = tuple(_read_solution(path) for path in args.ingredient)
    try:
        sol = composer.build(
            args.v, args.m, args.r, args.s,
            imports=imports, cache_dir=args.cache, time_limit=args.time_limit,
        )
    except composer.Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except composer.Unsupported as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except composer.ExternalRequired as exc:
        print(f"external: {exc}", file=sys.stderr)
        return EXIT_EXTERNAL
    except composer.IngredientUnavailable as exc:
        print(f"ingredient unavailable: {exc}", file=sys.stderr)
        return EXIT_INGREDIENT
    _write_bytes(encode_solution(sol), args.out)
    p = composer.plan(args.v, args.m, args.r, args.s, imports=imports)
    print(
        f"built and verified (4,{args.m})-HWP({args.v}; {args.r}, {args.s}) "
        f"via {p.route}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    sol = _read_solution(args.infile)
    # A document with floor((v-1)/2) factors claims to be a full solution;
    # anything else is judged as a block factorization of C_m[4] (or of the
    # switch ambient when it carries a matching).
    if len(sol.factors) == (sol.v - 1) // 2:
        report = verify_solution(sol)
    else:
        report = verify_block(sol)
    if args.report == "json":
        doc = {
            "ok": report.ok,
            "r_found": report.r_found,
            "s_found": report.s_found,
            "violations": [
                {"code": v.code, "detail": v.detail} for v in report.violations
            ],
        }
        print(json.dumps(doc, sort_keys=True))
    else:
        print(report.summary())
    return EXIT_OK if report.ok else EXIT_ERROR


def _cmd_feasible(args) -> int:
    p = composer.plan(args.v, args.m, args.r, args.s)
    print(composer.describe_plan(args.v, args.m, args.r, args.s, p))
    if p.route in composer.CONSTRUCTIVE_ROUTES:
        return EXIT_OK
    if p.route == "infeasible":
        return EXIT_INFEASIBLE
    if p.route == "unsupported":
        return EXIT_UNSUPPORTED
    return EXIT_EXTERNAL


def _cmd_block(args) -> int:
    try:
        sol = composer.BLOCK_BUILDERS[args.kind](args.m)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    _write_bytes(encode_solution(sol), args.out)
    return EXIT_OK


def _cmd_ingredient(args) -> int:
    if args.type == "kts9":
        if args.params:
            raise _CliError("--params takes no values for type kts9")
        outcome = search.solve_cached(
            search.kts9_instance(), cache_dir=args.cache, time_limit=args.time_limit
        )
        if outcome.status != "found":
            print(f"ingredient unavailable: kts9 search: {outcome.status}", file=sys.stderr)
            return EXIT_INGREDIENT
        sol = Solution(v=9, factors=outcome.factors, m=3, r=0, s=4)
    else:
        if len(args.params) != 3:
            raise _CliError("--params A B LENGTH required for type equipartite")
        a, b, length = args.params
        try:
            outcome = search.equipartite_cm_search(
                a, b, length, cache_dir=args.cache, time_limit=args.time_limit
            )
        except ValueError as exc:
            raise _CliError(str(exc)) from exc
        if outcome.status != "found":
            print(
                f"ingredient unavailable: equipartite ({a}, {b}, {length}) "
                f"search: {outcome.status}",
                file=sys.stderr,
            )
            return EXIT_INGREDIENT
        sol = Solution(v=a * b, factors=outcome.factors, m=length)
    _write_bytes(encode_solution(sol), args.out)
    return EXIT_OK


# ============================================================
# argument parsing
# ============================================================

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hwp4m",
        description="Constructive solver and verifier for 2-factorizations of "
        "K_v minus a perfect matching into C4-factors and Cm-factors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="plan, assemble, and verify a solution")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--ingredient", action="append", default=[], metavar="FILE")
    p.add_argument("--time-limit", type=float, default=None, metavar="SECONDS")
    p.add_argument("--cache", default=None, metavar="DIR")
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="verify a solution or block document")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--report", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("feasible", help="report the planner route for a request")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=_cmd_feasible)

    p = sub.add_parser("block", help="emit one block factorization of C_m[4]")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--kind", choices=sorted(composer.BLOCK_BUILDERS), required=True)
    p.add_argument("--out", default="-", metavar="FILE")
    p.set_defaults(func=_cmd_block)

    p = sub.add_parser("ingredient", help="search and export an ingredient")
    p.add_argument("--type", choices=("kts9", "equipartite"), required=True)
    p.add_argument("--params", type=int, nargs="*", default=[])
    p.add_argument("--time-limit", type=float, default=None, metavar="SECONDS")
    p.add_argument("--cache", default=None, metavar="DIR")
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_ingredient)

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return EXIT_OK if code == 0 else EXIT_ERROR
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

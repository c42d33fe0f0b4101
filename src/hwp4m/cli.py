"""Command-line entry point: build, verify, plan, and ingredient plumbing.

Exit codes mirror the planner's statuses so that shell scripts can branch on
them: 0 success, 1 I/O, parse, or usage error or a failed verification, 2
infeasible (the counting conditions fail), 3 unsupported (a genuinely open
corner), 4 external (a solution is known or possible but not built by these
recipes), 5 ingredient unavailable (search timed out or a required import
was missing), 6 out of memory, so that a crash is not read as a rejection.

All artifacts use the canonical Solution JSON encoding, so a command run
twice writes byte-identical files; ``--out -`` streams to standard output.
Nothing unverified is written: ``build`` writes what the composer verified,
and ``block`` writes a block only once ``verify_block`` accepts it, or
exits 1 naming the kind, m and the report.
"""

import argparse
import json
import sys
from dataclasses import asdict, replace
from functools import cache, partial
from math import isnan

from . import blocks, composer, search
from .model import DecodeError, decode_solution, encode_solution, Solution
from .verifier import verify_block, verify_solution

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_UNSUPPORTED = 3
EXIT_EXTERNAL = 4
EXIT_INGREDIENT = 5
EXIT_MEMORY = 6

# the exit code of each planner status; every other route is constructive
STATUS_EXITS = {
    "infeasible": EXIT_INFEASIBLE,
    "unsupported": EXIT_UNSUPPORTED,
    "external": EXIT_EXTERNAL,
}


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
        raise _CliError(f"{path}: {exc}") from exc


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
    p = composer.plan(args.v, args.m, args.r, args.s, imports=imports)
    if p.route in STATUS_EXITS:
        print(f"{p.route}: {p.note}", file=sys.stderr)
        return STATUS_EXITS[p.route]
    try:
        sol = composer.build_planned(
            args.v, args.m, args.r, args.s, p, cache_dir=args.cache, time_limit=args.time_limit,
        )
    except composer.IngredientUnavailable as exc:
        print(f"ingredient unavailable: {exc}", file=sys.stderr)
        return EXIT_INGREDIENT
    _write_bytes(encode_solution(sol), args.out)
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
        print(json.dumps(asdict(report), sort_keys=True))
    else:
        print(report.summary())
    return EXIT_OK if report.ok else EXIT_ERROR


def _cmd_feasible(args) -> int:
    p = composer.plan(args.v, args.m, args.r, args.s)
    print(composer.describe_plan(args.v, args.m, args.r, args.s, p))
    return STATUS_EXITS.get(p.route, EXIT_OK)


def _cmd_block(args) -> int:
    try:
        sol = blocks.BLOCK_BUILDERS[args.kind](args.m)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    report = verify_block(sol)
    if not report.ok:
        raise _CliError(f"{args.kind} block at m = {args.m} failed verification: {report.summary()}")
    _write_bytes(encode_solution(sol), args.out)
    return EXIT_OK


def _cmd_ingredient(args) -> int:
    if args.type == "kts9":
        if args.params:
            raise _CliError("--params takes no values for type kts9")
        instance = partial(search.cm_factorization_instance, 9, 3)
        label, fields = "kts9", {"m": 3, "r": 0, "s": 4}
    else:
        if len(args.params) != 3:
            raise _CliError("--params A B LENGTH required for type equipartite")
        a, b, length = args.params
        instance = partial(search.equipartite_instance, a, b, length)
        label, fields = f"equipartite ({a}, {b}, {length})", {"m": length}
    try:  # a shape with no C_length-factorization is a usage error
        outcome = search.solve_cached(instance(), cache_dir=args.cache, time_limit=args.time_limit)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    if outcome.status != "found":
        print(f"ingredient unavailable: {label} search: {outcome.status}", file=sys.stderr)
        return EXIT_INGREDIENT
    _write_bytes(encode_solution(replace(outcome.solution, **fields)), args.out)
    return EXIT_OK


# ============================================================
# argument parsing
# ============================================================

@cache  # built once per process: parse_args keeps nothing from one call to the next
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hwp4m",
        description="Constructive solver and verifier for 2-factorizations of "
        "K_v minus a perfect matching into C4-factors and Cm-factors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    request = argparse.ArgumentParser(add_help=False)  # the (v, m, r, s) of a request
    for name in ("--v", "--m", "--r", "--s"):
        request.add_argument(name, type=int, required=True)

    p = sub.add_parser("build", parents=[request], help="plan, assemble, and verify a solution")
    p.add_argument("--ingredient", action="append", default=[], metavar="FILE")
    p.add_argument("--time-limit", type=float, default=None, metavar="SECONDS")
    p.add_argument("--cache", default=None, metavar="DIR")
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="verify a solution or block document")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--report", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("feasible", parents=[request], help="report the planner route for a request")
    p.set_defaults(func=_cmd_feasible)

    p = sub.add_parser("block", help="emit one block factorization of C_m[4]")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--kind", choices=sorted(blocks.BLOCK_BUILDERS), required=True)
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
        # float() reads "nan", and a deadline of start + nan is never passed;
        # None (no limit) reads as 0, which is a number
        if isnan(getattr(args, "time_limit", None) or 0):
            raise _CliError("--time-limit must be a number of seconds, not nan")
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:
        print(f"error: out of memory in {args.command}", file=sys.stderr)
        return EXIT_MEMORY


if __name__ == "__main__":
    sys.exit(main())

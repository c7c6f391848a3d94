"""Command-line surface: coefficients, polynomials, enumeration, verification, tables.

Exit codes: 0 on success, 1 when a verification or cross-method consistency
check fails, 2 on usage or parameter errors.  All big integers are printed
as decimal strings; JSON output round-trips losslessly.

The ``oracle`` method is the Z-polynomial solver over the subset cube
(``klm verify`` cross-checks it against the defining recurrence); the
``direct`` method counts the Theorem 1 set by a dynamic programme over order
ideals.  The library caps the oracle at MAX_GROUND = 16 elements and the
direct count at MAX_CELLS = 64 cells, and past either cap raises
InvalidParameters, which exits 2; ``--method all`` runs each route whose cap
admits the query.  The CLI sets the other caps, checked before any
coefficient: the tableau and closed-form routes at m + d <= COEFF_MAX_N in
``klm coeff`` and KLPOLY_MAX_N in ``klm klpoly`` (``--method all`` included),
``klm verify --max-n`` at VERIFY_MAX_N and ``klm table`` at TABLE_MAX.

Only ``klm verify`` loads ``verification``, and with it the process pool
(``concurrent.futures`` and ``multiprocessing``); every other command starts
without them.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

from .closedforms import (
    RhoUniformParams,
    build_rho_uniform,
    coeff_rho,
    coeff_uniform_klum,
    coefficient_range,
    kl_poly_rho,
    valid_rhos,
)
from .errors import InvalidParameters, KlmatroidsError
from .exactarith import IntPoly
from .identities import (
    IdentityReport,
    run_identity_sweeps,
    sweep_gf_truncation,
)
from .matroid import MAX_GROUND, kl_poly
from .tableaux import (
    MAX_CELLS,
    MAX_FILLINGS,
    count_skyt_rho_direct,
    enumerate_skyt,
    satisfies_removed_family_conditions,
    validate_family_params,
)

VERIFY_MAX_N = 12
"""The largest ``klm verify --max-n``, for every suite: the minor-recurrence
cross-check in the matroid sweeps builds a minor per flat, and slows down
fast above it."""

TABLE_MAX = 70
"""The largest ``klm table --m-max`` and ``--d-max``.  On a 2-core VM with
CPython 3.11 the 70 triangle takes 2.4 s and 43 MB, the 90 triangle 6.1 s
and the 120 triangle 19 s and 150 MB: the coefficients, and the terms of
each sum, grow with the side, and so do the integers."""

COEFF_MAX_N = 25_000
"""The largest m + d of a ``klm coeff`` by tableau or closed form.  On a 2-core
VM with CPython 3.11 its slowest query (m = 2, i = 1, rho = 1) takes 1.9 s;
m + d = 40,003 takes 4.2 s and m = 10^6 takes 26 s."""

KLPOLY_MAX_N = 1_000
"""The largest m + d of a ``klm klpoly`` by tableau, a sum of d / 2 coefficients:
its slowest query (m = 2, rho = 1) takes 2.1 s there, and d = 2001 takes 11.8 s."""

EXIT_OK = 0
EXIT_INCONSISTENT = 1
EXIT_USAGE = 2


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _envelope(query: dict, result, method: str, elapsed_ms: float) -> str:
    def stringify(value):
        if isinstance(value, bool):
            return value
        if isinstance(value, int):
            return str(value)
        if isinstance(value, IntPoly):
            return [str(c) for c in value.coeffs]
        if isinstance(value, dict):
            return {k: stringify(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [stringify(v) for v in value]
        return value

    payload = {
        "query": stringify(query),
        "result": stringify(result),
        "method": method,
        "elapsed_ms": round(elapsed_ms, 3),
    }
    return json.dumps(payload)


def _coeff_by_method(method: str, params: RhoUniformParams, i: int) -> int:
    if method == "tableau":
        return coeff_rho(params.m, params.d, i, params.rho)
    if method == "direct":
        return count_skyt_rho_direct(params.m, params.d, i, params.rho)
    if method == "closed-form":
        return coeff_uniform_klum(params.m, params.d, i)
    if method == "oracle":
        return kl_poly(build_rho_uniform(params)).coeff(i)
    raise ValueError(f"unknown method {method!r}")


def _methods_for(method: str, params: RhoUniformParams) -> list[str]:
    if method != "all":
        return [method]
    methods = ["tableau"]
    if params.n <= MAX_CELLS:
        methods.append("direct")
    if params.rho == 0:
        methods.append("closed-form")
    if params.n <= MAX_GROUND:
        methods.append("oracle")
    return methods


def _report_routes(args, query: dict, values: dict, elapsed_ms: float) -> int:
    """Print the one route's value, or each route then whether they agree."""
    agreed = len(set(values.values())) == 1
    if args.format == "json":
        result = values if len(values) > 1 else next(iter(values.values()))
        print(_envelope(query, result, args.method, elapsed_ms))
    elif len(values) == 1:
        print(next(iter(values.values())))
    else:
        for method, value in values.items():
            print(f"{method}: {value}")
        print("OK" if agreed else "FAIL: methods disagree")
    return EXIT_OK if agreed else EXIT_INCONSISTENT


def _fail_formula_cap(command: str, cap: int, n: int) -> int:
    return _fail_usage(f"the formula routes of klm {command} are capped at m + d <= {cap}, got {n}")


def cmd_coeff(args) -> int:
    params = RhoUniformParams(args.m, args.d, args.rho)
    if args.method == "closed-form" and params.rho != 0:
        return _fail_usage("the closed-form method applies to rho = 0 only")
    methods = _methods_for(args.method, params)
    if params.n > COEFF_MAX_N and {"tableau", "closed-form"} & set(methods):
        return _fail_formula_cap("coeff", COEFF_MAX_N, params.n)
    start = time.perf_counter()
    values: dict[str, int] = {}
    for method in methods:
        values[method] = _coeff_by_method(method, params, args.i)
    elapsed = (time.perf_counter() - start) * 1000
    query = {"m": args.m, "d": args.d, "i": args.i, "rho": args.rho}
    return _report_routes(args, query, values, elapsed)


def cmd_klpoly(args) -> int:
    params = RhoUniformParams(args.m, args.d, args.rho)
    if params.n > KLPOLY_MAX_N and args.method != "oracle":
        return _fail_formula_cap("klpoly", KLPOLY_MAX_N, params.n)
    start = time.perf_counter()
    polys: dict[str, IntPoly] = {}
    if args.method in ("tableau", "all"):
        polys["tableau"] = kl_poly_rho(params)
    if args.method == "oracle" or (args.method == "all" and params.n <= MAX_GROUND):
        polys["oracle"] = kl_poly(build_rho_uniform(params))
    elapsed = (time.perf_counter() - start) * 1000
    query = {"m": args.m, "d": args.d, "rho": args.rho}
    return _report_routes(args, query, polys, elapsed)


def cmd_enumerate(args) -> int:
    if args.i < 1:
        return _fail_usage("enumeration needs i >= 1 (i = 0 shapes are count conventions)")
    family = args.family
    if family != "rho" and args.rho is not None:
        return _fail_usage(f"--rho applies to --family rho only, not --family {family}")
    if family == "rho":
        # the shape (m + 1, i, d - 2i + 1) of coefficient i carries the rank
        d = args.b + 2 * args.i - 1
        rho = 0 if args.rho is None else args.rho
        validate_family_params(args.a - 1, d, rho)
    fillings = enumerate_skyt(args.a, args.i, args.b)
    if family == "overline":
        n = args.a + 2 * args.i + args.b - 2
        largest = set(range(n - (args.a - 2) + 1, n + 1))
        fillings = [
            f for f in fillings if f.entries[0] == 1 and set(f.entries[2 : args.a]) == largest
        ]
    elif family == "rho":
        fillings = [
            f for f in fillings if satisfies_removed_family_conditions(f, d, rho)
        ]
    for f in fillings:
        if args.format == "json":
            print(f.to_json())
        else:
            cols = " | ".join(",".join(str(v) for v in col) for col in f.columns)
            print(f"[{cols}]")
    if args.format == "json":
        print(json.dumps({"count": len(fillings)}))
    else:
        print(f"count: {len(fillings)}")
    return EXIT_OK


def _print_reports(reports: list[IdentityReport], fmt: str) -> int:
    if fmt == "json":
        print(json.dumps([r.to_json_dict() for r in reports]))
    else:
        for r in reports:
            print(r.summary())
    return EXIT_OK if all(r.passed for r in reports) else EXIT_INCONSISTENT


def cmd_verify(args) -> int:
    from . import verification

    if args.jobs < 0:
        return _fail_usage(f"--jobs must be 0 (all cores) or more, got {args.jobs}")
    jobs = args.jobs if args.jobs else verification.default_jobs()
    max_n = args.max_n
    if max_n < 2:
        return _fail_usage(f"--max-n must be at least 2, got {max_n}")
    if max_n > VERIFY_MAX_N:
        return _fail_usage(f"--max-n must be at most {VERIFY_MAX_N}, got {max_n}")
    runners = {
        "theorem1": lambda: [verification.sweep_theorem1(max_n, jobs)],
        "theorem2": lambda: [verification.sweep_theorem2(max_n, jobs)],
        "symmetry": lambda: [
            verification.sweep_counting(jobs=jobs),
            verification.sweep_symmetry(jobs=jobs),
        ],
        "charpoly": lambda: [verification.sweep_charpoly(max_n, jobs)],
        "minors": lambda: [verification.sweep_minors(max_n, jobs)],
        "flats": lambda: [verification.sweep_flats(max_n, jobs)],
        "identities": lambda: run_identity_sweeps(include_gf=False),
        "gf": lambda: [sweep_gf_truncation()],
        "monotonicity": lambda: [verification.sweep_monotonicity(max_n, jobs)],
    }
    if args.suite == "all":
        reports = []
        for name in runners:
            reports.extend(runners[name]())
    else:
        reports = runners[args.suite]()
    return _print_reports(reports, args.format)


def cmd_table(args) -> int:
    if args.m_max < 1 or args.d_max < 1:
        return _fail_usage("--m-max and --d-max must be at least 1")
    if args.m_max > TABLE_MAX or args.d_max > TABLE_MAX:
        return _fail_usage(
            f"--m-max and --d-max must be at most {TABLE_MAX}, "
            f"got {args.m_max} and {args.d_max}"
        )
    if args.rho < 0:
        return _fail_usage(f"--rho must be 0 or more, got {args.rho}")
    rows = []
    for m in range(1, args.m_max + 1):
        for d in range(1, args.d_max + 1):
            if args.rho not in valid_rhos(m, d):
                continue
            for i in coefficient_range(d):
                rows.append((m, d, args.rho, i, coeff_rho(m, d, i, args.rho)))
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["m", "d", "rho", "i", "coefficient"])
        for row in rows:
            writer.writerow([str(v) for v in row])
    elif args.format == "json":
        payload = [
            {"m": m, "d": d, "rho": rho, "i": i, "coefficient": str(c)}
            for (m, d, rho, i, c) in rows
        ]
        print(json.dumps(payload))
    else:
        print(f"{'m':>3} {'d':>3} {'rho':>4} {'i':>3} {'coefficient':>16}")
        for (m, d, rho, i, c) in rows:
            print(f"{m:>3} {d:>3} {rho:>4} {i:>3} {c:>16}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klm",
        description="Exact Kazhdan-Lusztig polynomials of matroids, three independent ways",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    coeff = sub.add_parser("coeff", help="one KL coefficient of U(m, d; rho)")
    coeff.add_argument("--m", type=int, required=True)
    coeff.add_argument("--d", type=int, required=True)
    coeff.add_argument("--i", type=int, required=True)
    coeff.add_argument("--rho", type=int, default=0)
    coeff.add_argument(
        "--method",
        choices=["tableau", "direct", "closed-form", "oracle", "all"],
        default="tableau",
        help="tableau: counting formula; direct: order-ideal count of the Theorem 1 set; "
        "closed-form: older uniform-only formula; oracle: Z-polynomial solver",
    )
    coeff.add_argument("--format", choices=["text", "json"], default="text")
    coeff.set_defaults(func=cmd_coeff)

    klpoly = sub.add_parser("klpoly", help="the full KL polynomial, low degree first")
    klpoly.add_argument("--m", type=int, required=True)
    klpoly.add_argument("--d", type=int, required=True)
    klpoly.add_argument("--rho", type=int, default=0)
    klpoly.add_argument(
        "--method", choices=["tableau", "oracle", "all"], default="tableau"
    )
    klpoly.add_argument("--format", choices=["text", "json"], default="text")
    klpoly.set_defaults(func=cmd_klpoly)

    enum = sub.add_parser(
        "enumerate",
        help="list the legal fillings of a shape in column-major lexicographic order, "
        f"then their count (at most {MAX_FILLINGS} fillings)",
    )
    enum.add_argument("--a", type=int, required=True)
    enum.add_argument("--i", type=int, required=True)
    enum.add_argument("--b", type=int, required=True)
    enum.add_argument(
        "--family",
        choices=["skyt", "overline", "rho"],
        default="skyt",
        help="skyt: all fillings; overline: top-left 1 with maximal left tail; "
        "rho: fillings passing the removed-family boundary conditions of "
        "U(a - 1, b + 2i - 1; rho)",
    )
    enum.add_argument(
        "--rho", type=int, default=None, help="removed bases for --family rho (0 when omitted)"
    )
    enum.add_argument("--format", choices=["text", "json"], default="text")
    enum.set_defaults(func=cmd_enumerate)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument(
        "--suite",
        required=True,
        choices=[
            "theorem1",
            "theorem2",
            "symmetry",
            "charpoly",
            "minors",
            "flats",
            "identities",
            "gf",
            "monotonicity",
            "all",
        ],
    )
    verify.add_argument("--max-n", type=int, default=9, help="cap on m + d for matroid sweeps")
    verify.add_argument("--jobs", type=int, default=0, help="parallel workers (0 = all cores)")
    verify.add_argument("--format", choices=["text", "json"], default="text")
    verify.set_defaults(func=cmd_verify)

    table = sub.add_parser(
        "table", help=f"triangle of coefficients over (m, d, i), m and d at most {TABLE_MAX}"
    )
    table.add_argument("--m-max", type=int, required=True)
    table.add_argument("--d-max", type=int, required=True)
    table.add_argument("--rho", type=int, default=0)
    table.add_argument("--format", choices=["text", "csv", "json"], default="text")
    table.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Every integer prints in full, but CPython refuses str() of an int above
    # 4,300 digits unless the limit is lifted (builds without the limit have
    # no getter).  The caller's limit comes back on return.
    limit = None
    if hasattr(sys, "get_int_max_str_digits"):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except KlmatroidsError as exc:
        return _fail_usage(str(exc))
    except BrokenPipeError:
        # downstream consumer (head, less) closed the stream mid-output
        try:
            sys.stdout.close()
        except Exception:
            pass
        return EXIT_OK
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())

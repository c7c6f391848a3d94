"""Command-line surface: coefficients, polynomials, enumeration, verification, tables.

Exit codes: 0 on success, 1 when a verification or cross-method consistency
check fails, 2 on usage or parameter errors.  All big integers are printed
as decimal strings; JSON output round-trips losslessly.

``klm coeff`` and ``klm klpoly`` offer the routes of one table,
``closedforms.ROUTES``: the counting formula (``tableau``), the order-ideal
count of the Theorem 1 set (``direct``, at most MAX_CELLS = 64 cells), the
older closed form (``closed-form``, rho = 0 only) and the Z-polynomial
solver (``oracle``, at most MAX_GROUND = 16 elements).  A ``--method`` past
its route's domain exits 2 with the route's refusal, at those two caps the
library's own message (``klm enumerate`` past MAX_CELLS prints the same);
``--method all`` runs every route that admits the query, and a polynomial is
one route's coefficients, assembled by ``Route.poly``.  The CLI sets the
other caps, checked before any coefficient: m + d <= COEFF_MAX_N in ``klm
coeff`` and KLPOLY_MAX_N in ``klm klpoly``, ``klm verify --max-n`` at
VERIFY_MAX_N and ``klm table`` at TABLE_MAX.

Output is written as it is computed.  ``klm table`` computes each row as
its writer asks for it, in every format; its JSON is written ``[``, row by
row, ``]``, the same bytes as one ``json.dumps`` of the whole list.  In
text, ``klm verify`` writes and flushes each suite's lines as soon as that
suite returns, and ``--method all`` each route's line as soon as that route
finishes, then ``OK`` or ``FAIL``; ``klm enumerate`` prints each filling as
it passes the family's filter.  The JSON documents of ``klm coeff``, ``klm
klpoly`` and ``klm verify`` are one document each, written at the end:
``elapsed_ms`` and the verdict need every route, and a suite can raise
partway through the battery.  If one does, a reader of the text has the
lines of every suite that finished before it, then the error on stderr; a
reader of the JSON has nothing.  A reader that closes the pipe early, like
``head``, ends the command with exit 0 and nothing on stderr.

Only ``klm verify`` loads ``verification``, and with it the sweep pool: with
``--jobs`` above 1, worker processes made with ``os.fork`` that take pickled
chunks of points over pipes.  A checker's error reaches ``klm verify`` as
itself, a worker that dies as ``verification.BrokenPool``; where ``os.fork``
is missing, every sweep runs in the one process.  No module loads
``concurrent.futures`` or ``multiprocessing``.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

from .closedforms import ROUTES, RhoUniformParams, Route, coeff_rho, coefficient_range, valid_rhos
from .errors import InvalidParameters, KlmatroidsError
from .exactarith import IntPoly
from .identities import run_identity_sweeps, sweep_gf_truncation
from .tableaux import (
    MAX_FILLINGS,
    enumerate_skyt,
    satisfies_removed_family_conditions,
    validate_family_params,
)

VERIFY_MAX_N = 14
"""The largest ``klm verify --max-n``, for every suite.  With 2 workers on a
2-core VM with CPython 3.11, ``--suite all`` takes 6.7 s at 12 and 22.8 s at
14.  At 14 the two sweeps that walk every flat lead: ``minors`` (both minor
families of every flat) 10.0 s and ``theorem1`` (the defining recurrence)
8.0 s, then ``symmetry`` 3.8 s (its grid is fixed), ``theorem2`` 0.6 s and
every other suite under 0.3 s; at 12 they take 1.2, 1.8, 3.5 and 0.1 s.
The cap keeps the whole battery under half a minute."""

TABLE_MAX = 70
"""The largest ``klm table --m-max`` and ``--d-max``.  On a 2-core VM with
CPython 3.11 the 70 triangle takes 1.3 s and 39 MB, the 90 triangle 4.2 s
and 63 MB, and the 120 triangle 16 s and 123 MB: the coefficients, and the
terms of each sum, grow with the side, and so do the integers."""

COEFF_MAX_N = 25_000
"""The largest m + d of a ``klm coeff`` by tableau or closed form.  On a 2-core
VM with CPython 3.11 its slowest query (m = 2, i = 1, rho = 1) takes 1.4 s;
m + d = 40,003 takes 3.6 s and m = 10^6 (d = 3, i = 1) takes 25 s."""

KLPOLY_MAX_N = 1_000
"""The largest m + d of a ``klm klpoly`` by tableau or closed form, d / 2
coefficients: its slowest tableau query (m = 2, rho = 1) takes 1.1 s there,
and d = 2001 takes 6.1 s."""

VERIFY_SUITES = {
    "theorem1": lambda v, max_n, jobs: [v.sweep_theorem1(max_n, jobs)],
    "theorem2": lambda v, max_n, jobs: [v.sweep_theorem2(max_n, jobs)],
    "symmetry": lambda v, max_n, jobs: [v.sweep_counting(jobs=jobs), v.sweep_symmetry(jobs=jobs)],
    "charpoly": lambda v, max_n, jobs: [v.sweep_charpoly(max_n, jobs)],
    "minors": lambda v, max_n, jobs: [v.sweep_minors(max_n, jobs)],
    "flats": lambda v, max_n, jobs: [v.sweep_flats(max_n, jobs)],
    "identities": lambda v, max_n, jobs: run_identity_sweeps(include_gf=False),
    "gf": lambda v, max_n, jobs: [sweep_gf_truncation()],
    "monotonicity": lambda v, max_n, jobs: [v.sweep_monotonicity(max_n, jobs)],
}
"""The ``klm verify`` suites, in ``--suite all`` order: each maps the
``verification`` module, ``--max-n`` and the worker count to its reports."""

EXIT_OK = 0
EXIT_INCONSISTENT = 1
EXIT_USAGE = 2


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _envelope(query: dict, result, method: str, elapsed_ms: float) -> str:
    def stringify(value):  # an int, an IntPoly, or a dict of them (``--method all``)
        if isinstance(value, dict):
            return {k: stringify(v) for k, v in value.items()}
        if isinstance(value, IntPoly):
            return [str(c) for c in value.coeffs]
        return str(value)

    payload = {
        "query": stringify(query),
        "result": stringify(result),
        "method": method,
        "elapsed_ms": round(elapsed_ms, 3),
    }
    return json.dumps(payload)


def _run_routes(args, cap: int, compute) -> int:
    """Print ``compute(route, params)`` for the ``--method`` route, or for every
    route that admits the query under ``all``, then whether they agree.  A
    refused route, or m + d past the command's ``cap``, exits 2 first.  In
    text, each route's line is written as soon as that route finishes."""
    params = RhoUniformParams(args.m, args.d, args.rho)
    if args.method == "all":
        routes = [r for r in ROUTES if r.refusal(params) is None]
    else:
        routes = [r for r in ROUTES if r.name == args.method]
        if refusal := routes[0].refusal(params):
            return _fail_usage(refusal)
    # the direct and oracle routes refuse far below either cap
    if params.n > cap:
        message = f"the formula routes of klm {args.command} are capped at m + d <= {cap}"
        return _fail_usage(f"{message}, got {params.n}")
    start = time.perf_counter()
    values = {}
    for route in routes:
        values[route.name] = value = compute(route, params)
        if args.format == "text" and len(routes) > 1:
            print(f"{route.name}: {value}", flush=True)
    elapsed = (time.perf_counter() - start) * 1000
    agreed = len(set(values.values())) == 1
    if args.format == "json":
        query = {key: getattr(args, key) for key in ("m", "d", "i", "rho") if hasattr(args, key)}
        result = values if len(values) > 1 else next(iter(values.values()))
        print(_envelope(query, result, args.method, elapsed))
    elif len(values) == 1:
        print(next(iter(values.values())))
    else:
        print("OK" if agreed else "FAIL: methods disagree")
    return EXIT_OK if agreed else EXIT_INCONSISTENT


def cmd_coeff(args) -> int:
    return _run_routes(args, COEFF_MAX_N, lambda route, p: route.coeff(p, args.i))


def cmd_klpoly(args) -> int:
    return _run_routes(args, KLPOLY_MAX_N, Route.poly)


def cmd_enumerate(args) -> int:
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
        fillings = (
            f for f in fillings if f.entries[0] == 1 and set(f.entries[2 : args.a]) == largest
        )
    elif family == "rho":
        fillings = (f for f in fillings if satisfies_removed_family_conditions(f, d, rho))
    count = 0
    for count, f in enumerate(fillings, 1):
        if args.format == "json":
            print(f.to_json())
        else:
            cols = " | ".join(",".join(str(v) for v in col) for col in f.columns)
            print(f"[{cols}]")
    if args.format == "json":
        print(json.dumps({"count": count}))
    else:
        print(f"count: {count}")
    return EXIT_OK


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
    suites = VERIFY_SUITES if args.suite == "all" else [args.suite]
    reports = []
    for name in suites:
        suite_reports = VERIFY_SUITES[name](verification, max_n, jobs)
        reports += suite_reports
        if args.format == "text":
            for r in suite_reports:
                print(r.summary())
            sys.stdout.flush()
    if args.format == "json":
        print(json.dumps([r.to_json_dict() for r in reports]))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_INCONSISTENT


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
    # each row is computed as the writer asks for it
    rows = (
        (m, d, args.rho, i, coeff_rho(m, d, i, args.rho))
        for m in range(1, args.m_max + 1)
        for d in range(1, args.d_max + 1)
        if args.rho in valid_rhos(m, d)
        for i in coefficient_range(d)
    )
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["m", "d", "rho", "i", "coefficient"])
        writer.writerows(rows)
    elif args.format == "json":
        # the bytes of json.dumps of the whole list, one row object at a time
        sys.stdout.write("[")
        for k, (m, d, rho, i, c) in enumerate(rows):
            row = json.dumps({"m": m, "d": d, "rho": rho, "i": i, "coefficient": str(c)})
            sys.stdout.write(f", {row}" if k else row)
        print("]")
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
    method = dict(
        choices=[route.name for route in ROUTES] + ["all"],
        default="tableau",
        help="tableau: counting formula; direct: order-ideal count of the Theorem 1 set; "
        "closed-form: older uniform-only formula; oracle: Z-polynomial solver",
    )

    coeff = sub.add_parser("coeff", help="one KL coefficient of U(m, d; rho)")
    coeff.add_argument("--m", type=int, required=True)
    coeff.add_argument("--d", type=int, required=True)
    coeff.add_argument("--i", type=int, required=True)
    coeff.add_argument("--rho", type=int, default=0)
    coeff.add_argument("--method", **method)
    coeff.add_argument("--format", choices=["text", "json"], default="text")
    coeff.set_defaults(func=cmd_coeff)

    klpoly = sub.add_parser("klpoly", help="the full KL polynomial, low degree first")
    klpoly.add_argument("--m", type=int, required=True)
    klpoly.add_argument("--d", type=int, required=True)
    klpoly.add_argument("--rho", type=int, default=0)
    klpoly.add_argument("--method", **method)
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
    verify.add_argument("--suite", required=True, choices=[*VERIFY_SUITES, "all"])
    verify.add_argument(
        "--max-n", type=int, default=9, help="cap on m + d; symmetry, identities and gf ignore it"
    )
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
        # A reader (head, less) closed the pipe.  The close guards the flush at
        # exit: bytes still buffered would meet the closed pipe again and print
        # "Exception ignored" on stderr with exit 120.  CPython 3.11 exits clean
        # without it; CI's 3.10 leg is the case it is kept for.
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

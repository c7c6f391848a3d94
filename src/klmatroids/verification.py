"""Cross-checks between the formula layer and the brute-force matroid oracles.

Every sweep compares two or three logically independent routes to the same
value (closed form vs. order-ideal count vs. the Z-polynomial solver,
which the defining recurrence checks in turn) and reports exact agreement.
Heavy sweeps accept a ``jobs`` argument; grid points are independent pure
computations, so they parallelize freely and results are aggregated in
deterministic grid order.

With ``jobs`` > 1 the sweeps share one process pool of min(``jobs``,
default_jobs()) workers, forked on first use and kept for every later sweep
that comes to the same worker count; another worker count shuts it down
before a new pool is forked, and any error from a sweep drops it.  The
workers keep their memos from sweep to sweep, and they run the library as it
was at the fork: a test that monkeypatches library code must sweep with
``jobs=1``.
"""

from __future__ import annotations

import os
# Imported here, not in _shared_pool: importing this module is set-up, and a
# deferred import would bill its 25-40 ms to whichever sweep first fans out.
# The CLI imports this module only for `klm verify`.
from concurrent.futures import ProcessPoolExecutor
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .closedforms import (
    RhoUniformParams,
    build_rho_uniform,
    char_poly_rho,
    classify_minor,
    coeff_rho,
    coeff_uniform_klum,
    coeff_uniform_tableau,
    expected_flats,
    valid_rhos,
)
from .exactarith import IntPoly, poly_reverse
from .identities import IdentityReport
from .matroid import (
    char_poly,
    contraction,
    kl_poly,
    kl_poly_recurrence,
    kl_recurrence_rhs,
    localization,
    matroid_from_bases,
)
from .tableaux import (
    count_skyt,
    count_skyt_rho_direct,
    enumerate_skyt,
    involution_rotate,
)


def default_jobs() -> int:
    """The cores this process may run on, where the platform tells; else all."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_pool: ProcessPoolExecutor | None = None
_pool_workers = 0


def _shared_pool(jobs: int) -> ProcessPoolExecutor:
    """The kept pool of min(jobs, default_jobs()) workers, forked now if there is none.

    The pool forks every worker on its first task, so it gets at most
    default_jobs() of them, however many were asked for; a ``jobs`` that
    comes to the same worker count keeps the pool.
    """
    global _pool, _pool_workers
    workers = min(jobs, default_jobs())
    if _pool is not None and _pool_workers != workers:
        # its manager thread must be gone before the next fork
        _drop_pool()
    if _pool is None:
        _pool = ProcessPoolExecutor(max_workers=workers)
        _pool_workers = workers
    return _pool


def _drop_pool() -> None:
    global _pool
    pool, _pool = _pool, None
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=True)


def _run_points(
    report: IdentityReport,
    points: Sequence,
    checker: Callable,
    jobs: int = 1,
) -> IdentityReport:
    if jobs > 1 and len(points) > 1:
        chunk = max(1, len(points) // (jobs * 4))
        pool = _shared_pool(jobs)
        try:
            results = list(pool.map(checker, points, chunksize=chunk))
        except BaseException:
            # a broken pool (a worker died) or a failed point: start afresh
            _drop_pool()
            raise
    else:
        results = [checker(point) for point in points]
    for point, ok in zip(points, results):
        report.record(point, ok)
    return report


def family_grid(total_max: int, min_d: int = 1) -> list[RhoUniformParams]:
    """All valid (m, d, rho) with m + d <= total_max and d >= min_d."""
    grid = []
    for m in range(1, total_max + 1 - min_d):
        for d in range(min_d, total_max - m + 1):
            for rho in valid_rhos(m, d):
                grid.append(RhoUniformParams(m, d, rho))
    return grid


# -- coefficient agreement ------------------------------------------------------


def kl_defining_equation_holds(matroid) -> bool:
    """Compare the two oracle routes, then substitute the result back into
    the functional equation.

    The Z-polynomial solver and the defining recurrence must give the same
    polynomial P.  Then the full equation is checked, not just the
    low-degree part that the recurrence solver extracts: t^rank P(1/t) - P(t)
    must equal the sum over nonempty flats of char_poly(localization) *
    kl_poly_recurrence(contraction) exactly.  The sum is the one the
    recurrence memoized, so no minor is built again.
    """
    p = kl_poly_recurrence(matroid)
    if kl_poly(matroid) != p:
        return False
    if matroid.rank == 0:
        return p == IntPoly([1])
    return poly_reverse(p, matroid.rank) - p == kl_recurrence_rhs(matroid)


def _theorem1_point(p: RhoUniformParams) -> bool:
    matroid = build_rho_uniform(p)
    oracle = kl_poly(matroid)
    if oracle.coeff(0) != 1:
        return False
    if p.d > 0 and 2 * oracle.degree >= p.d:
        return False
    top = (p.d - 1) // 2 if p.d else 0
    for i in range(top + 2):  # one index past the range must give 0 everywhere
        formula = coeff_rho(p.m, p.d, i, p.rho)
        direct = count_skyt_rho_direct(p.m, p.d, i, p.rho)
        if not formula == direct == oracle.coeff(i):
            return False
    return kl_defining_equation_holds(matroid)


def sweep_theorem1(total_max: int = 9, jobs: int = 1) -> IdentityReport:
    """Counting formula == order-ideal count == Z solver == recurrence, every coefficient."""
    report = IdentityReport("theorem1", f"valid (m, d, rho), m+d<={total_max}")
    return _run_points(report, family_grid(total_max, min_d=0), _theorem1_point, jobs)


def _theorem2_point(p: RhoUniformParams) -> bool:
    oracle = kl_poly(build_rho_uniform(p))
    top = (p.d - 1) // 2 if p.d else 0
    for i in range(top + 2):
        tableau = coeff_uniform_tableau(p.m, p.d, i)
        closed = coeff_uniform_klum(p.m, p.d, i)
        if not tableau == closed == oracle.coeff(i):
            return False
    return True


def sweep_theorem2(total_max: int = 9, jobs: int = 1) -> IdentityReport:
    """For the plain uniform family: tableau count == older closed form == Z solver."""
    report = IdentityReport("theorem2", f"uniform (m, d), m+d<={total_max}")
    points = [p for p in family_grid(total_max) if p.rho == 0]
    return _run_points(report, points, _theorem2_point, jobs)


# -- tableau counting and symmetry ----------------------------------------------


def shape_grid(a_max: int = 6, b_max: int = 6, i_max: int = 4, cell_max: int = 14):
    grid = []
    for i in range(1, i_max + 1):
        for a in range(a_max + 1):
            for b in range(b_max + 1):
                if a + 2 * i + b - 2 <= cell_max:
                    grid.append((a, i, b))
    return grid


def _counting_point(point: tuple[int, int, int]) -> bool:
    a, i, b = point
    return count_skyt(a, i, b) == len(enumerate_skyt(a, i, b))


def sweep_counting(
    a_max: int = 6, b_max: int = 6, i_max: int = 4, cell_max: int = 14, jobs: int = 1
) -> IdentityReport:
    """Inclusion-exclusion count == backtracking enumeration, shape by shape."""
    report = IdentityReport(
        "counting", f"a<={a_max}, b<={b_max}, i<={i_max}, cells<={cell_max}"
    )
    return _run_points(report, shape_grid(a_max, b_max, i_max, cell_max), _counting_point, jobs)


def _symmetry_point(point: tuple[int, int, int]) -> bool:
    a, i, b = point
    if count_skyt(a, i, b) != count_skyt(b, i, a):
        return False
    if a < 2 or b < 2:
        return True
    fillings = enumerate_skyt(a, i, b)
    rotated = [involution_rotate(f) for f in fillings]
    if any(not g.is_legal() for g in rotated):
        return False
    if any(involution_rotate(g) != f for f, g in zip(fillings, rotated)):
        return False
    mirror = set(enumerate_skyt(b, i, a))
    return set(rotated) == mirror


def sweep_symmetry(
    a_max: int = 6, b_max: int = 6, i_max: int = 4, cell_max: int = 14, jobs: int = 1
) -> IdentityReport:
    """count(a,i,b) == count(b,i,a), via an explicit entry-reversing rotation bijection.

    One point per mirror pair, (min(a, b), i, max(a, b)): a rotation onto
    F(b, i, a) that is its own inverse on F(a, i, b) proves both directions.
    """
    report = IdentityReport(
        "symmetry", f"a<={a_max}, b<={b_max}, i<={i_max}, cells<={cell_max}"
    )
    grid = shape_grid(a_max, b_max, i_max, cell_max)
    points = list(dict.fromkeys((min(a, b), i, max(a, b)) for a, i, b in grid))
    return _run_points(report, points, _symmetry_point, jobs)


def catalan_numbers(count: int) -> list[int]:
    """First ``count`` Catalan numbers via the convolution recurrence."""
    cats = [1]
    for n in range(1, count):
        cats.append(sum(cats[k] * cats[n - 1 - k] for k in range(n)))
    return cats


def sweep_catalan(i_max: int = 6) -> IdentityReport:
    """count_skyt(2, i, 2) runs through the Catalan sequence."""
    report = IdentityReport("catalan", f"1<=i<={i_max}")
    cats = catalan_numbers(i_max + 2)
    for i in range(1, i_max + 1):
        report.record((i,), count_skyt(2, i, 2) == cats[i + 1])
    return report


# -- characteristic polynomial ----------------------------------------------------


def _charpoly_point(p: RhoUniformParams) -> bool:
    formula = char_poly_rho(p)
    oracle = char_poly(build_rho_uniform(p))
    return formula == oracle and formula(1) == 0


def sweep_charpoly(total_max: int = 10, jobs: int = 1) -> IdentityReport:
    """Closed-form characteristic polynomial == Whitney subset sum, and vanishing at 1."""
    report = IdentityReport("charpoly", f"valid (m, d, rho), d>=1, m+d<={total_max}")
    return _run_points(report, family_grid(total_max), _charpoly_point, jobs)


# -- minors and flats ---------------------------------------------------------------


def _minors_point(p: RhoUniformParams) -> bool:
    matroid = build_rho_uniform(p)
    for flat in matroid.lattice().flats:
        for kind, make in (("localization", localization), ("contraction", contraction)):
            if make(matroid, flat) != classify_minor(p, flat, kind).build():
                return False
    return True


def sweep_minors(total_max: int = 8, jobs: int = 1) -> IdentityReport:
    """Predicted minors equal the computed minors basis for basis, flat by flat."""
    report = IdentityReport("minors", f"valid (m, d, rho), m+d<={total_max}, every flat")
    return _run_points(report, family_grid(total_max), _minors_point, jobs)


def _flats_point(p: RhoUniformParams) -> bool:
    matroid = build_rho_uniform(p)
    lattice = matroid.lattice()
    return set(lattice.flats) == expected_flats(p)


def sweep_flats(total_max: int = 8, jobs: int = 1) -> IdentityReport:
    """Computed lattice of flats matches the structural description exactly."""
    report = IdentityReport("flats", f"valid (m, d, rho), m+d<={total_max}")
    return _run_points(report, family_grid(total_max), _flats_point, jobs)


# -- monotonicity --------------------------------------------------------------------


def _monotonicity_point(point: tuple[int, int]) -> bool:
    m, d = point
    rhos = valid_rhos(m, d)
    for i in range((d - 1) // 2 + 1):
        values = [coeff_rho(m, d, i, rho) for rho in rhos]
        if any(v < 0 for v in values):
            return False
        if any(earlier < later for earlier, later in zip(values, values[1:])):
            return False
    return True


def sweep_monotonicity(total_max: int = 9, jobs: int = 1) -> IdentityReport:
    """Coefficients weakly decrease (and stay non-negative) as bases are removed."""
    report = IdentityReport("monotonicity", f"(m, d), m+d<={total_max}, all rho")
    points = [
        (m, d)
        for m in range(1, total_max)
        for d in range(1, total_max - m + 1)
    ]
    return _run_points(report, points, _monotonicity_point, jobs)


# -- exchange-axiom validator ----------------------------------------------------------


def disjoint_families(n: int, d: int) -> Iterable[tuple[frozenset[int], ...]]:
    """Every nonempty family of pairwise disjoint d-subsets of {1..n}, up to order."""
    subsets = [frozenset(c) for c in combinations(range(1, n + 1), d)]

    def extend(start: int, chosen: tuple[frozenset[int], ...], used: frozenset[int]):
        for idx in range(start, len(subsets)):
            s = subsets[idx]
            if used & s:
                continue
            family = chosen + (s,)
            yield family
            yield from extend(idx + 1, family, used | s)

    yield from extend(0, (), frozenset())


def _exchange_point(point: tuple[int, int]) -> bool:
    n, d = point
    all_bases = [frozenset(c) for c in combinations(range(1, n + 1), d)]
    for family in disjoint_families(n, d):
        removed = set(family)
        remaining = [b for b in all_bases if b not in removed]
        if not remaining:
            continue  # removing every basis leaves nothing to validate
        try:
            matroid_from_bases(n, remaining)
        except Exception:
            return False
    return True


def sweep_exchange_validator(n_max: int = 8, jobs: int = 1) -> IdentityReport:
    """The validator accepts all d-subsets minus any disjoint family, d >= 2."""
    report = IdentityReport("exchange-validator", f"n<={n_max}, 2<=d<=n")
    points = [(n, d) for n in range(2, n_max + 1) for d in range(2, n + 1)]
    return _run_points(report, points, _exchange_point, jobs)

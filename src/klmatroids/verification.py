"""Cross-checks between the formula layer and the brute-force matroid oracles.

Every sweep compares logically independent routes to the same value and
reports exact agreement.  KL coefficients are compared only through
``closedforms.ROUTES`` (``theorem2`` is theorem1's route check on the rho = 0
grid), and minors only as labelled basis families.
A sweep is a grid of points and a checker that returns whether a point
holds; ``_run_points`` checks every point and hands the results, in grid
order, to :meth:`IdentityReport.of`.  Heavy sweeps accept a ``jobs``
argument: grid points are independent pure computations, so they
parallelize freely.

With ``jobs`` > 1 the sweeps share one pool of min(``jobs``, default_jobs())
worker processes, made with ``os.fork`` on the first sweep that fans out and
kept for every later sweep that comes to the same worker count; another
worker count kills and reaps it before a new pool is forked.  The parent
hands out chunks of points on demand, each a whole pickled message on one
pipe per worker, and reads the answers with ``select``.  Any error from a
sweep kills, reaps and drops the pool: a checker's exception reaches the
caller as itself (as a ``RuntimeError`` naming its type and message if it
does not survive pickling), and a worker that ends before it answers raises
:class:`BrokenPool`.  The workers keep their memos from sweep to sweep, and
they run the library as it was at the fork: a test that monkeypatches
library code must sweep with ``jobs=1``.  Where ``os.fork`` is missing,
every sweep runs in this process.
"""

from __future__ import annotations

import atexit
import os
# Imported here, not where the pool forks: importing this module is set-up,
# and the CLI imports it only for `klm verify`.
import pickle
import select
import signal
from typing import Callable, Iterable, NoReturn, Sequence

from .closedforms import (
    ROUTES,
    RhoUniformParams,
    build_rho_uniform,
    char_poly_rho,
    classify_minor,
    coeff_rho,
    coefficient_range,
    expected_flats,
    family_grid,
    valid_rhos,
)
from .exactarith import IntPoly, poly_reverse
from .identities import IdentityReport
from .matroid import (
    _contraction_family,
    _localization_family,
    char_poly,
    d_subsets,
    kl_poly,
    kl_poly_recurrence,
    kl_recurrence_rhs,
    matroid_from_bases,
)
from .tableaux import count_skyt, enumerate_skyt, involution_rotate


def default_jobs() -> int:
    """The cores this process may run on, where the platform tells; else all."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class BrokenPool(RuntimeError):
    """A worker of the sweep pool ended before it answered."""


def _write_message(fd: int, message: bytes) -> None:
    view = memoryview(len(message).to_bytes(8, "little") + message)
    while view:
        view = view[os.write(fd, view):]


def _read_exactly(fd: int, size: int) -> bytearray | None:
    data = bytearray()
    while len(data) < size:
        part = os.read(fd, size - len(data))
        if not part:
            return None
        data += part
    return data


def _read_message(fd: int) -> bytearray | None:
    """The next whole message on ``fd``, or None if its writer closed it first."""
    header = _read_exactly(fd, 8)
    return None if header is None else _read_exactly(fd, int.from_bytes(header, "little"))


def _error_reply(error: Exception) -> bytes:
    """``error`` and its traceback, pickled; an error that would not unpickle
    is sent as a ``RuntimeError`` that names its type and message."""
    import traceback

    trace = "".join(traceback.format_exception(error))
    try:
        reply = pickle.dumps((False, (error, trace)))
        pickle.loads(reply)
    except Exception:
        stand_in = RuntimeError(f"{type(error).__name__}: {error}")
        reply = pickle.dumps((False, (stand_in, trace)))
    return reply


def _worker(tasks: int, results: int, inherited: list[int]) -> NoReturn:
    """Answer each ``(checker, points)`` message on ``tasks`` with the checker's
    results on ``results``, until the parent closes ``tasks``."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        while (message := _read_message(tasks)) is not None:
            checker, points = pickle.loads(message)
            try:
                reply = pickle.dumps((True, [checker(point) for point in points]))
            except Exception as error:
                reply = _error_reply(error)
            _write_message(results, reply)
        code = 0
    finally:
        # never the parent's exit path: no atexit hooks, no inherited buffers flushed
        os._exit(code)


class _ForkPool:
    """``size`` forked workers, each with a task pipe and a result pipe.

    Building one forks nothing; the first :meth:`map` forks the workers, and
    :meth:`close` kills and reaps them.
    """

    def __init__(self, size: int):
        self.size = size
        self.pids: list[int] = []
        self._tasks: list[int] = []  # write ends, one per worker
        self._results: list[int] = []  # read ends, one per worker

    def _fork(self) -> None:
        for _ in range(self.size):
            task_read, task_write = os.pipe()
            result_read, result_write = os.pipe()
            self._tasks.append(task_write)
            self._results.append(result_read)
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(task_read, result_write, self._tasks + self._results)
            finally:
                os.close(task_read)
                os.close(result_write)
            self.pids.append(pid)

    def map(self, checker: Callable, points: Sequence, chunk: int) -> list:
        """``checker`` at every point, in order; each chunk of ``chunk`` points
        goes to whichever worker is free first."""
        if not self.pids:
            self._fork()
        chunks = [points[start:start + chunk] for start in range(0, len(points), chunk)]
        answers: list = [None] * len(chunks)
        idle = list(range(self.size))
        busy: dict[int, tuple[int, int]] = {}  # result fd -> (worker, chunk index)
        sent = 0
        while busy or sent < len(chunks):
            while idle and sent < len(chunks):
                worker = idle.pop()
                message = pickle.dumps((checker, chunks[sent]))
                try:
                    _write_message(self._tasks[worker], message)
                except BrokenPipeError:
                    pass  # the worker is dead, so its result pipe reads as closed below
                busy[self._results[worker]] = (worker, sent)
                sent += 1
            for fd in select.select(list(busy), [], [])[0]:
                worker, index = busy.pop(fd)
                reply = _read_message(fd)
                if reply is None:
                    raise BrokenPool(f"worker {self.pids[worker]} ended before it answered")
                ok, answer = pickle.loads(reply)
                if not ok:
                    error, trace = answer
                    raise error from RuntimeError(f"in worker {self.pids[worker]}:\n{trace}")
                answers[index] = answer
                idle.append(worker)
        return [result for answer in answers for result in answer]

    def close(self) -> None:
        """Close every pipe, then kill and reap every worker."""
        for fd in self._tasks + self._results:
            os.close(fd)
        for pid in self.pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


_pool: _ForkPool | None = None


def _shared_pool(jobs: int) -> _ForkPool:
    """The kept pool of min(jobs, default_jobs()) workers, built now if there is none.

    A ``jobs`` that comes to the same worker count keeps the pool; another
    count drops it first.
    """
    global _pool
    workers = min(jobs, default_jobs())
    if _pool is not None and _pool.size != workers:
        _drop_pool()
    if _pool is None:
        _pool = _ForkPool(workers)
    return _pool


def _drop_pool() -> None:
    global _pool
    pool, _pool = _pool, None
    if pool is not None:
        pool.close()


atexit.register(_drop_pool)


def _run_points(
    name: str, grid: str, points: Sequence, checker: Callable, jobs: int = 1
) -> IdentityReport:
    """The report of ``checker`` at every point, on the kept pool when ``jobs`` > 1."""
    if jobs > 1 and len(points) > 1 and hasattr(os, "fork"):
        chunk = max(1, len(points) // (jobs * 4))
        pool = _shared_pool(jobs)
        try:
            results = pool.map(checker, points, chunk)
        except BaseException:
            # a failed point, a dead worker or an interrupt: start afresh
            _drop_pool()
            raise
    else:
        results = [checker(point) for point in points]
    return IdentityReport.of(name, grid, points, results)


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


def _routes_agree(p: RhoUniformParams) -> bool:
    """Every route of ``ROUTES`` that admits ``p`` gives one value at each
    coefficient and at one index past them."""
    routes = [route for route in ROUTES if route.refusal(p) is None]
    indices = range(coefficient_range(p.d).stop + 1)
    return all(len({route.coeff(p, i) for route in routes}) == 1 for i in indices)


def _theorem1_point(p: RhoUniformParams) -> bool:
    matroid = build_rho_uniform(p)
    oracle = kl_poly(matroid)
    # with the degree bound, agreement puts 0 one past the range on every route
    if oracle.coeff(0) != 1 or oracle.degree not in coefficient_range(p.d):
        return False
    return _routes_agree(p) and kl_defining_equation_holds(matroid)


def sweep_theorem1(total_max: int = 9, jobs: int = 1) -> IdentityReport:
    """Every route of ``closedforms.ROUTES`` that admits the point agrees at
    every coefficient and one past them (the closed form joins at rho = 0),
    and the Z solver's polynomial satisfies the defining recurrence."""
    grid = f"valid (m, d, rho), m+d<={total_max}"
    return _run_points("theorem1", grid, family_grid(total_max, min_d=0), _theorem1_point, jobs)


def sweep_theorem2(total_max: int = 9, jobs: int = 1) -> IdentityReport:
    """Theorem1's route comparison on the plain uniform family, d >= 1: the
    tableau count, the order-ideal count, the older closed form and the Z
    solver agree at every coefficient and one past them."""
    points = [p for p in family_grid(total_max) if p.rho == 0]
    grid = f"uniform (m, d), m+d<={total_max}"
    return _run_points("theorem2", grid, points, _routes_agree, jobs)


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
    grid = f"a<={a_max}, b<={b_max}, i<={i_max}, cells<={cell_max}"
    points = shape_grid(a_max, b_max, i_max, cell_max)
    return _run_points("counting", grid, points, _counting_point, jobs)


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
    shapes = shape_grid(a_max, b_max, i_max, cell_max)
    points = list(dict.fromkeys((min(a, b), i, max(a, b)) for a, i, b in shapes))
    grid = f"a<={a_max}, b<={b_max}, i<={i_max}, cells<={cell_max}"
    return _run_points("symmetry", grid, points, _symmetry_point, jobs)


def catalan_numbers(count: int) -> list[int]:
    """First ``count`` Catalan numbers via the convolution recurrence."""
    cats = [1]
    for n in range(1, count):
        cats.append(sum(cats[k] * cats[n - 1 - k] for k in range(n)))
    return cats


def sweep_catalan(i_max: int = 6) -> IdentityReport:
    """count_skyt(2, i, 2) runs through the Catalan sequence."""
    cats = catalan_numbers(i_max + 2)
    points = [(i,) for i in range(1, i_max + 1)]
    results = [count_skyt(2, i, 2) == cats[i + 1] for (i,) in points]
    return IdentityReport.of("catalan", f"1<=i<={i_max}", points, results)


# -- characteristic polynomial ----------------------------------------------------


def _charpoly_point(p: RhoUniformParams) -> bool:
    formula = char_poly_rho(p)
    oracle = char_poly(build_rho_uniform(p))
    return formula == oracle and formula(1) == 0


def sweep_charpoly(total_max: int = 10, jobs: int = 1) -> IdentityReport:
    """Closed-form characteristic polynomial == Whitney subset sum, and vanishing at 1."""
    grid = f"valid (m, d, rho), d>=1, m+d<={total_max}"
    return _run_points("charpoly", grid, family_grid(total_max), _charpoly_point, jobs)


# -- minors and flats ---------------------------------------------------------------


def _minors_point(p: RhoUniformParams) -> bool:
    matroid = build_rho_uniform(p)
    families = (("localization", _localization_family), ("contraction", _contraction_family))
    for flat in matroid.lattice().flats:
        for kind, family in families:
            if family(matroid, flat) != classify_minor(p, flat, kind).build().key():
                return False
    return True


def sweep_minors(total_max: int = 8, jobs: int = 1) -> IdentityReport:
    """Predicted minors equal the computed labelled basis families, flat by
    flat; only the predicted class is built as a matroid."""
    grid = f"valid (m, d, rho), m+d<={total_max}, every flat"
    return _run_points("minors", grid, family_grid(total_max), _minors_point, jobs)


def _flats_point(p: RhoUniformParams) -> bool:
    matroid = build_rho_uniform(p)
    lattice = matroid.lattice()
    return set(lattice.flats) == expected_flats(p)


def sweep_flats(total_max: int = 8, jobs: int = 1) -> IdentityReport:
    """Computed lattice of flats matches the structural description exactly."""
    grid = f"valid (m, d, rho), m+d<={total_max}"
    return _run_points("flats", grid, family_grid(total_max), _flats_point, jobs)


# -- monotonicity --------------------------------------------------------------------


def _monotonicity_point(point: tuple[int, int]) -> bool:
    m, d = point
    rhos = valid_rhos(m, d)
    for i in coefficient_range(d):
        values = [coeff_rho(m, d, i, rho) for rho in rhos]
        if any(v < 0 for v in values):
            return False
        if any(earlier < later for earlier, later in zip(values, values[1:])):
            return False
    return True


def sweep_monotonicity(total_max: int = 9, jobs: int = 1) -> IdentityReport:
    """Coefficients weakly decrease (and stay non-negative) as bases are removed."""
    points = list(dict.fromkeys((p.m, p.d) for p in family_grid(total_max)))
    grid = f"(m, d), m+d<={total_max}, all rho"
    return _run_points("monotonicity", grid, points, _monotonicity_point, jobs)


# -- exchange-axiom validator ----------------------------------------------------------


def disjoint_families(n: int, d: int) -> Iterable[tuple[int, ...]]:
    """Every nonempty family of pairwise disjoint d-subsets of {1..n}, up to
    order, each subset a bitmask."""
    subsets = d_subsets(n, d)

    def extend(start: int, chosen: tuple[int, ...], used: int):
        for idx in range(start, len(subsets)):
            s = subsets[idx]
            if used & s:
                continue
            family = chosen + (s,)
            yield family
            yield from extend(idx + 1, family, used | s)

    yield from extend(0, (), 0)


def _exchange_point(point: tuple[int, int]) -> bool:
    n, d = point
    all_bases = d_subsets(n, d)
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
    points = [(n, d) for n in range(2, n_max + 1) for d in range(2, n + 1)]
    return _run_points("exchange-validator", f"n<={n_max}, 2<=d<=n", points, _exchange_point, jobs)

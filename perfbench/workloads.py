"""The four benchmark workloads: inputs, timed tasks, exact checks, CLI probes.

Each workload is a closed loop of tasks run by one client in one process.
``make_inputs(seed, pass_index)`` is the load generator; the library receives
only what it returns.  ``run(task)`` is the timed call into the library and
``check(task, result)`` compares that result with an independent route after
timing stops; it returns an error string, or None when the result is exact.

The library is reached through ``klm.<name>`` at call time, so the tracer's
wrappers (installed on every module that binds a function) see these calls.
"""

from __future__ import annotations

import random
from itertools import combinations

import klmatroids as klm
from klmatroids import identities, verification

# -- oracle ---------------------------------------------------------------------

# (n, d, k): ground set size, rank, and how many d-sets to remove.  Ranks run
# over 3..n-2 at n = 9..11; the middle ranks at n = 10 cost 2-5 s each today,
# so they are left out to keep a pass near 3 s.  Costs cluster, so that
# neither the median nor the tail (the 11th-largest of 55 task times) falls
# between two clusters: a middle cluster of five tasks, and three heavy tasks
# with k = 1, whose cost does not depend on which d-set is drawn (with two or
# more d-sets it varies by half with how they meet).
ORACLE_STRATA = (
    (9, 3, 3), (9, 4, 3), (9, 4, 2), (9, 5, 1), (9, 6, 1), (9, 7, 1),
    (10, 3, 3), (10, 4, 1), (11, 3, 3),
)
# Disjoint-block U(m, d; rho) points: the family the tableau formula was built for.
ORACLE_BLOCK_POINTS = ((5, 4, 2), (7, 3, 3))
ORACLE_DRAWS = 60  # candidate d-sets drawn per matroid


def _mask(elements) -> int:
    mask = 0
    for e in elements:
        mask |= 1 << (e - 1)
    return mask


def sparse_paving_family(rng: random.Random, n: int, d: int, k: int) -> list[frozenset[int]]:
    """Up to k random d-subsets of 1..n that pairwise meet in at most d - 2 elements.

    Draws ORACLE_DRAWS candidates and keeps each one compatible with every set
    kept so far.  The complement of such a family among all d-subsets is the
    basis system of a sparse paving matroid.
    """
    kept: list[frozenset[int]] = []
    for _ in range(ORACLE_DRAWS):
        if len(kept) == k:
            break
        cand = frozenset(rng.sample(range(1, n + 1), d))
        if all(len(cand & other) <= d - 2 for other in kept):
            kept.append(cand)
    return kept


def bases_without(n: int, d: int, removed: list[frozenset[int]]) -> list[int]:
    gone = {_mask(s) for s in removed}
    return [m for m in (_mask(c) for c in combinations(range(1, n + 1), d)) if m not in gone]


def oracle_inputs(seed: int, pass_index: int) -> list[tuple[int, int, int, list[int]]]:
    """Tasks (n, d, k, bases); the same (seed, pass_index) gives the same tasks."""
    rng = random.Random(f"oracle:{seed}:{pass_index}")
    tasks = []
    for n, d, k in ORACLE_STRATA:
        family = sparse_paving_family(rng, n, d, k)
        tasks.append((n, d, len(family), bases_without(n, d, family)))
    for m, d, rho in ORACLE_BLOCK_POINTS:
        n = m + d
        blocks = [frozenset(range(1 + j * d, d + 1 + j * d)) for j in range(rho)]
        tasks.append((n, d, rho, bases_without(n, d, blocks)))
    rng.shuffle(tasks)
    return tasks


def oracle_run(task):
    n, _, _, bases = task
    return klm.kl_poly(klm.matroid_from_bases(n, bases))


def sparse_paving_coefficients(n: int, d: int, k: int) -> list[int]:
    """KL coefficients of a rank-d sparse paving matroid on n elements with k
    circuit-hyperplanes (Lee-Nasr-Radcliffe), from tableau counts.

    Computed here rather than through ``coeff_rho``, which rejects k * d > n.
    """
    coeffs = [1]
    for i in range(1, (d - 1) // 2 + 1):
        b = d - 2 * i + 1
        coeffs.append(klm.count_skyt(n - d + 1, i, b) - k * klm.count_overline_skyt(i, b))
    return coeffs


def oracle_check(task, poly) -> str | None:
    n, d, k, _ = task
    want = sparse_paving_coefficients(n, d, k)
    if poly.coeff(0) != 1 or 2 * poly.degree >= d or list(poly.coeffs) != want:
        return f"n={n} d={d} k={k}: oracle {list(poly.coeffs)} != formula {want}"
    return None


# -- enumerate ------------------------------------------------------------------

# Shapes (a, i, b) of 7.0k-10.4k fillings whose tasks cost within about 12%
# of each other today, so that the median and the tail task time both fall
# inside one cluster.  A task costs about 70 us per filling, so shapes stay
# near 10^4 fillings; 3 * 10^5 would take half a minute, longer than a run.
ENUMERATE_SHAPES = ((6, 1, 10), (2, 3, 8), (2, 5, 4), (4, 2, 7), (5, 1, 13))
ENUMERATE_PER_PASS = 4


def enumerate_inputs(seed: int, pass_index: int) -> list[tuple[int, int, int]]:
    """Distinct shapes in seeded order, each in a seeded orientation."""
    rng = random.Random(f"enumerate:{seed}:{pass_index}")
    return [
        (a, i, b) if rng.random() < 0.5 else (b, i, a)
        for a, i, b in rng.sample(ENUMERATE_SHAPES, ENUMERATE_PER_PASS)
    ]


def enumerate_run(shape):
    """Enumerate, rotate every filling, test every image; then the bijection checks.

    Returns (number of fillings, illegal images, rotate-twice mismatches,
    whether the rotated set equals the enumeration of the mirror shape).
    """
    a, i, b = shape
    fillings = klm.enumerate_skyt(a, i, b)
    rotated = [klm.involution_rotate(f) for f in fillings]
    illegal = sum(1 for g in rotated if not g.is_legal())
    not_involutive = sum(1 for f, g in zip(fillings, rotated) if klm.involution_rotate(g) != f)
    onto_mirror = set(rotated) == set(klm.enumerate_skyt(b, i, a))
    return len(fillings), illegal, not_involutive, onto_mirror


def enumerate_check(shape, result) -> str | None:
    count, illegal, not_involutive, onto_mirror = result
    want = klm.count_skyt(*shape)
    if count != want or illegal or not_involutive or not onto_mirror:
        return (
            f"shape {shape}: {count} fillings (count_skyt {want}), {illegal} illegal images, "
            f"{not_involutive} not involutive, onto mirror: {onto_mirror}"
        )
    return None


# -- table ------------------------------------------------------------------------

TABLE_M_MAX = 30
TABLE_D_MAX = 30


def table_inputs(seed: int, pass_index: int) -> list[tuple[int, int]]:
    """Every (m, d) row of the triangle, in a seeded order."""
    rows = [(m, d) for m in range(1, TABLE_M_MAX + 1) for d in range(1, TABLE_D_MAX + 1)]
    random.Random(f"table:{seed}:{pass_index}").shuffle(rows)
    return rows


def table_run(row):
    """coeff_rho over every valid rho and i; the older closed form at rho = 0;
    char_poly_rho(1) at every rho."""
    m, d = row
    indices = range((d - 1) // 2 + 1)
    by_rho = {rho: [klm.coeff_rho(m, d, i, rho) for i in indices] for rho in klm.valid_rhos(m, d)}
    klum = [klm.coeff_uniform_klum(m, d, i) for i in indices]
    at_one = [klm.char_poly_rho(klm.RhoUniformParams(m, d, rho))(1) for rho in by_rho]
    return by_rho, klum, at_one


def table_check(row, result) -> str | None:
    by_rho, klum, at_one = result
    columns = [by_rho[rho] for rho in sorted(by_rho)]
    if columns[0] != klum:
        return f"row {row}: tableau {columns[0]} != closed form {klum}"
    if any(c < 0 for col in columns for c in col):
        return f"row {row}: negative coefficient in {columns}"
    if any(x < y for before, after in zip(columns, columns[1:]) for x, y in zip(before, after)):
        return f"row {row}: coefficients increase with rho: {columns}"
    if any(at_one):
        return f"row {row}: char_poly_rho(1) = {at_one}"
    return None


# -- verify -----------------------------------------------------------------------

# The `klm verify --suite all` battery, in its order, on grids sized so that a
# pass takes about 3 s; the seed does not change them.  Each suite is a task.
VERIFY_SUITES = (
    ("theorem1", lambda jobs: [verification.sweep_theorem1(8, jobs)]),
    ("theorem2", lambda jobs: [verification.sweep_theorem2(8, jobs)]),
    ("counting", lambda jobs: [verification.sweep_counting(5, 5, 3, 11, jobs)]),
    ("symmetry", lambda jobs: [verification.sweep_symmetry(5, 5, 3, 11, jobs)]),
    ("charpoly", lambda jobs: [verification.sweep_charpoly(8, jobs)]),
    ("minors", lambda jobs: [verification.sweep_minors(7, jobs)]),
    ("flats", lambda jobs: [verification.sweep_flats(8, jobs)]),
    ("identities", lambda jobs: identities.run_identity_sweeps(order=10, include_gf=False)),
    ("gf", lambda jobs: [identities.sweep_gf_truncation(order=10)]),
    ("monotonicity", lambda jobs: [verification.sweep_monotonicity(9, jobs)]),
    ("catalan", lambda jobs: [verification.sweep_catalan(6)]),
    ("exchange", lambda jobs: [verification.sweep_exchange_validator(7, jobs)]),
)
VERIFY_JOBS = 2  # worker processes per sweep; few, so the run stays small


def verify_inputs(seed: int, pass_index: int, jobs: int = VERIFY_JOBS) -> list[tuple[str, int]]:
    return [(name, jobs) for name, _ in VERIFY_SUITES]


def verify_run(task):
    suite, jobs = task
    return dict(VERIFY_SUITES)[suite](jobs)


def verify_check(task, reports) -> str | None:
    failed = [r.summary() for r in reports if not r.passed]
    return f"suite {task[0]}: {failed}" if failed else None


# -- CLI probes: time until `python -m klmatroids.cli ...` prints its first line ----


def _probe_oracle(m: int, d: int, rho: int):
    def check(lines: list[str]) -> str | None:
        want = str(klm.IntPoly(sparse_paving_coefficients(m + d, d, rho)))
        return None if lines == [want] else f"oracle probe printed {lines}, want {want!r}"

    return ["klpoly", "--m", str(m), "--d", str(d), "--rho", str(rho), "--method", "oracle"], check


def _probe_enumerate(a: int, i: int, b: int):
    def check(lines: list[str]) -> str | None:
        want = klm.count_skyt(a, i, b)
        shown = sum(1 for line in lines if line.startswith("["))
        if lines[-1:] != [f"count: {want}"] or shown != want:
            return f"enumerate probe: {shown} fillings, last line {lines[-1:]}, want {want}"
        return None

    return ["enumerate", "--a", str(a), "--i", str(i), "--b", str(b)], check


def _probe_table(m_max: int, d_max: int):
    def check(lines: list[str]) -> str | None:
        rows = [line.split(",") for line in lines[1:]]
        want = sum((d - 1) // 2 + 1 for m in range(1, m_max + 1) for d in range(1, d_max + 1))
        bad = [r for r in rows if int(r[4]) != klm.coeff_uniform_klum(int(r[0]), int(r[1]), int(r[3]))]
        if lines[:1] != ["m,d,rho,i,coefficient"] or len(rows) != want or bad:
            return f"table probe: {len(rows)} rows (want {want}), first mismatches {bad[:3]}"
        return None

    return ["table", "--m-max", str(m_max), "--d-max", str(d_max), "--format", "csv"], check


def _probe_verify(max_n: int):
    def check(lines: list[str]) -> str | None:
        ok = len(lines) == 1 and lines[0].startswith("theorem1") and "PASS" in lines[0]
        return None if ok else f"verify probe printed {lines}"

    return ["verify", "--suite", "theorem1", "--max-n", str(max_n), "--jobs", str(VERIFY_JOBS)], check


# workload -> (CLI arguments, output check)
PROBES = {
    "oracle": _probe_oracle(5, 4, 2),
    "enumerate": _probe_enumerate(4, 2, 7),
    "table": _probe_table(20, 20),
    "verify": _probe_verify(7),
}

WORKLOADS = {
    "oracle": (oracle_inputs, oracle_run, oracle_check),
    "enumerate": (enumerate_inputs, enumerate_run, enumerate_check),
    "table": (table_inputs, table_run, table_check),
    "verify": (verify_inputs, verify_run, verify_check),
}

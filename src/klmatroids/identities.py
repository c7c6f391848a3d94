"""Exact verification of the auxiliary counting and calculus identities.

Each ``check_*`` function evaluates one identity at a single grid point in
exact arithmetic and returns whether both sides agree; the ``sweep_*``
functions run a check over its default grid and collect an
:class:`IdentityReport`.  There are no tolerances anywhere: a point either
matches exactly or is a counterexample.
"""

from __future__ import annotations

from itertools import starmap
from math import factorial, prod
from typing import Callable, Iterable, NamedTuple, Sequence

from .closedforms import ROUTES, RhoUniformParams, coefficient_range, family_grid
from .errors import InvalidParameters
from .exactarith import binomial, parity_sign
from .tableaux import count_overline_skyt, count_skyt, count_syt


class IdentityReport(NamedTuple):
    """Outcome of sweeping one identity over a parameter grid.

    A named tuple ``(name, grid, points, failures)``: ``points`` counts the
    grid points checked and ``failures`` holds the failed ones, in grid order.
    :meth:`of` builds it from a sweep's results.
    """

    name: str
    grid: str
    points: int = 0
    failures: tuple = ()

    @classmethod
    def of(cls, name: str, grid: str, points: Sequence, results: Iterable[bool]) -> IdentityReport:
        """The report of a sweep whose i-th result is the outcome at ``points[i]``."""
        failures = tuple(point for point, ok in zip(points, results, strict=True) if not ok)
        return cls(name, grid, len(points), failures)

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def first_counterexample(self):
        return self.failures[0] if self.failures else None

    def to_json_dict(self) -> dict:
        return {
            "identity": self.name,
            "grid": self.grid,
            "points": self.points,
            "passed": self.passed,
            "counterexample": self.first_counterexample,
        }

    def summary(self) -> str:
        status = "PASS" if self.passed else f"FAIL at {self.first_counterexample}"
        return f"{self.name}: {self.points} points, {status}"


# -- dual counting identities -------------------------------------------------


def _dual_identity(a: int, top: int, count: Callable, k: int, d: int, p: int) -> bool:
    """count_syt(a, k, d-2k-p-1)
        == sum over j of (-1)^(d-1+j) C(top, j-p) count(k, d-j-2k+1)."""
    if d - 2 * k - p - 1 < 0:
        raise InvalidParameters("need d - 2k - p - 1 >= 0")
    lhs = count_syt(a, k, d - 2 * k - p - 1)
    rhs = sum(
        parity_sign(d - 1 + j) * binomial(top, j - p) * count(k, d - j - 2 * k + 1)
        for j in range(d - 2 * k)
    )
    return lhs == rhs


def check_syt_dual(m: int, k: int, d: int, p: int) -> bool:
    """Straight-shape count as an alternating sum of skew counts.

    count_syt(m+1, k, d-2k-p-1)
        == sum over j of (-1)^(d-1+j) C(m+d-p, j-p) count_skyt(m+1, k, d-j-2k+1).
    """
    return _dual_identity(m + 1, m + d - p, lambda k, b: count_skyt(m + 1, k, b), k, d, p)


def check_barskyt_dual(k: int, d: int, p: int) -> bool:
    """Dual counting identity for the top-left-entry-1 family, k >= 1.

    count_syt(2, k, d-2k-p-1)
        == sum over j of (-1)^(d-1+j) C(d-p, j-p) count_overline_skyt(k, d-j-2k+1).

    The binomial top is d - p: the restricted family lives entirely on d + 1
    values, so no m enters.  A positive shift in the top breaks the identity
    (shift 2 at k=1, d=5, p=1 gives 9 against 5).
    """
    if k < 1:
        raise InvalidParameters("the restricted family needs k >= 1")
    return _dual_identity(2, d - p, count_overline_skyt, k, d, p)


# -- main alternating-sum identities -------------------------------------------


def _alternating_double_sum(top: int, first_k: int, count: Callable, d: int, i: int) -> int:
    """Sum over j < d and first_k <= k <= i of
    (-1)^(j-i+k) C(j, j-i+k) C(top, j) count(k, d-j-2k+1)."""
    total = 0
    for j in range(d):
        for k in range(first_k, i + 1):
            c = binomial(j, j - i + k)
            if c:
                total += parity_sign(j - i + k) * c * binomial(top, j) * count(k, d - j - 2 * k + 1)
    return total


def skyt_identity_residual(m: int, d: int, i: int) -> int:
    """The quantity that the skew-count alternating identity says vanishes."""
    if i < 1 or m < 1:
        raise InvalidParameters("need i >= 1 and m >= 1")
    lead = parity_sign(d - i) * binomial(m + d, d - i)
    return lead + _alternating_double_sum(m + d, 0, lambda k, b: count_skyt(m + 1, k, b), d, i)


def check_skyt_identity(m: int, d: int, i: int) -> bool:
    """0 == (-1)^(d-i) C(m+d, d-i) + double alternating sum of skew counts.

    Holds on the coefficient range 2i <= d; beyond it the identity genuinely
    fails (first counterexample m=1, d=3, i=2, residual 2), so sweeps stay
    inside the range and record out-of-range behaviour separately.
    """
    return skyt_identity_residual(m, d, i) == 0


def skytbar_identity_residual(d: int, i: int) -> int:
    """Left side minus right side of the restricted-family alternating identity."""
    if i < 1:
        raise InvalidParameters("need i >= 1")
    lead = parity_sign(d - i - 1) * i * binomial(d, i + 1)
    rhs = parity_sign(d - 2) if i == 1 else 0
    return lead + _alternating_double_sum(d, 1, count_overline_skyt, d, i) - rhs


def check_skytbar_identity(d: int, i: int) -> bool:
    """The restricted-family analogue, with its i = 1 case split.

    Same range caveat as check_skyt_identity: valid for 2i <= d.
    """
    return skytbar_identity_residual(d, i) == 0


# -- integral and binomial identities -----------------------------------------


def check_integral_identity(a: int, b: int) -> bool:
    """Integral of x^a (1+x)^b from 0 to -1 equals (-1)^(a+1) b! / ((a+1)...(a+b+1)).

    The left side is the binomial expansion integrated term by term,
    sum over s of (-1)^(a+s+1) C(b, s) / (a+s+1).  Both sides are multiplied
    by D = (a+1)...(a+b+1), which every a+s+1 divides, so they are compared
    in integers.
    """
    if a < 1 or b < 1:
        raise InvalidParameters("need a, b >= 1")
    denom = prod(range(a + 1, a + b + 2))
    lhs = sum(
        parity_sign(a + s + 1) * binomial(b, s) * (denom // (a + s + 1)) for s in range(b + 1)
    )
    return lhs == parity_sign(a + 1) * factorial(b)


def check_binomial_altsum(m: int, d: int, i: int) -> bool:
    """The two rational alternating binomial identities behind the alternating sums.

    First: C(m+d, d-i) (m+d-i) (m-1)! (d-i)! i! / (m+d)!
               == sum over k of (-1)^k C(i,k) (d-i-k)/(m+k),
    asserted for every 1 <= i < d.  Second (the restricted-family companion):
    i C(d, i+1) i! (d-i+1)! / d!
               == sum over k >= 1 of (-1)^(k+1) C(i,k) (d-i+k+1)(d-k-i)/(k+1);
    exact for 2 <= i with 2i <= d, and off by exactly 1 at i = 1 (which is
    what the i = 1 case split of the alternating identity absorbs), so that
    is what gets asserted there.  Outside 2i <= d the companion fails
    (d=3, i=2 gives 2/3 against 4/3) and only the first identity is checked.

    Both are compared in integers.  The first is multiplied by
    L = m(m+1)...(m+i), which every m+k divides, and its left side becomes
    (m+d-i) i!.  The second is multiplied by i+1, and
    C(i, k) (i+1)/(k+1) = C(i+1, k+1); its left side becomes
    i (d-i+1)(d-i), so the off-by-1 at i = 1 becomes off-by-2.
    """
    if m < 1 or i < 1 or d <= i:
        raise InvalidParameters("need m >= 1 and 1 <= i < d")
    scale = prod(range(m, m + i + 1))
    rhs_a = sum(
        parity_sign(k) * binomial(i, k) * (d - i - k) * (scale // (m + k)) for k in range(i + 1)
    )
    if (m + d - i) * factorial(i) != rhs_a:
        return False
    gap = i * (d - i + 1) * (d - i) - sum(
        parity_sign(k + 1) * binomial(i + 1, k + 1) * (d - i + k + 1) * (d - k - i)
        for k in range(1, i + 1)
    )
    if i == 1:
        return gap == 2
    return 2 * i > d or gap == 0


# -- generating-function truncation check -------------------------------------


def _truncated_product(f: dict, g: dict, order: int) -> dict:
    """f * g for series stored as {(p, q): coefficient of x^p y^q}.

    Terms of total degree above ``order`` are dropped, and so are zeros, so
    two products are equal exactly when their dicts are.
    """
    out: dict[tuple[int, int], int] = {}
    for (p1, q1), u in f.items():
        for (p2, q2), v in g.items():
            if p1 + q1 + p2 + q2 <= order:
                key = (p1 + p2, q1 + q2)
                out[key] = out.get(key, 0) + u * v
    return {key: v for key, v in out.items() if v}


def gf_double_sums(i: int, a: int, b: int) -> tuple[int, int]:
    """The coefficient of x^a y^b in the alternating and in the plain double sum."""
    alternating = sum(
        parity_sign(k)
        * (k + 1)
        * binomial(a + i + b - 2, b + i + k)
        * binomial(b + i + k - 1, b - 2)
        for k in range(max(a - 1, 0))
    )
    plain = sum(
        binomial(b + i + h - 1, h + i + 1) * binomial(i - 1 + h, h)
        for h in range(max(a - 1, 0))
    )
    return alternating, plain


def check_gf_truncation(i: int, order: int = 10) -> bool:
    """Both coefficient double sums match x^2 y^2 / ((1-x)(1-x-y)^i (1-y)^2).

    The denominator has constant term 1, so it is a unit among series cut
    off at total degree ``order``: a double sum equals the cut-off quotient
    exactly when the sum times the denominator is x^2 y^2 up to that degree.
    Both products are taken in integers; the double sums are evaluated
    coefficient-wise by ``gf_double_sums``.
    """
    if i < 1:
        raise InvalidParameters("need i >= 1")
    if order < 4:
        raise InvalidParameters("order below 4 sees nothing past the leading term")
    den = {(0, 0): 1, (1, 0): -1}
    for factor in [{(0, 0): 1, (1, 0): -1, (0, 1): -1}] * i + [{(0, 0): 1, (0, 1): -1}] * 2:
        den = _truncated_product(den, factor, order)
    lhs = {}
    rhs = {}
    for a in range(order + 1):
        for b in range(order + 1 - a):
            lhs[(a, b)], rhs[(a, b)] = gf_double_sums(i, a, b)
    numerator = {(2, 2): 1}
    return (
        _truncated_product(lhs, den, order) == numerator
        and _truncated_product(rhs, den, order) == numerator
    )


# -- constant-term bookkeeping -------------------------------------------------


def check_kl_constant_term_porism(m: int, d: int, rho: int) -> bool:
    """The constant-coefficient bookkeeping of the recurrence collapses to -1.

    Evaluates the i = 0 flat-by-flat expansion exactly (with the i = 0 count
    conventions in place) and confirms it equals -1, then confirms that
    every route of ``closedforms.ROUTES`` that admits the point gives
    constant term 1.

    Only the expansion can fail: every route gives 1 at i = 0 by its own
    convention.  The tableau route has it from count_skyt(., 0, .) = 1, the
    closed form and the direct count from an explicit i = 0 branch, and the
    Z solve by construction: it sets the constant term of every P_{M/F} to
    1 (it is 1 - 0, from R_F[rank M] = 1 and R_F[rank F] = 0) and never
    reads it off the cube.  The recurrence route derives its own constant
    term, and the defining-equation check of the ``theorem1`` sweep
    compares it with the Z route at every point.
    """
    params = RhoUniformParams(m, d, rho)
    if d < 1:
        raise InvalidParameters("the expansion needs d >= 1")
    chain = parity_sign(d) * binomial(m + d - 1, d - 1)
    chain -= rho * parity_sign(d)
    chain += rho * parity_sign(d - 1) * binomial(d - 1, d - 2)
    for j in range(1, d - 1):
        chain += (
            rho
            * binomial(d, j)
            * parity_sign(j)
            * (count_skyt(m + 1, 0, d - j + 1) - count_overline_skyt(0, d - j + 1))
        )
    for j in range(1, d):
        chain += (
            (binomial(m + d, j) - rho * binomial(d, j))
            * parity_sign(j)
            * count_skyt(m + 1, 0, d - j + 1)
        )
    if chain != -1:
        return False
    return all(route.coeff(params, 0) == 1 for route in ROUTES if route.refusal(params) is None)


# -- default-grid sweeps -------------------------------------------------------


def _sweep(name: str, grid: str, points: Iterable[tuple], check: Callable) -> IdentityReport:
    """``check(*point)`` at every point, in order."""
    points = list(points)
    return IdentityReport.of(name, grid, points, starmap(check, points))


def sweep_syt_dual(m_max: int = 4, d_max: int = 8) -> IdentityReport:
    points = (
        (m, k, d, p)
        for m in range(1, m_max + 1)
        for d in range(1, d_max + 1)
        for k in coefficient_range(d)
        for p in range(d - 2 * k)
    )
    grid = f"m<={m_max}, d<={d_max}, all valid k, p"
    return _sweep("syt-dual", grid, points, check_syt_dual)


def sweep_barskyt_dual(d_max: int = 8) -> IdentityReport:
    points = (
        (k, d, p)
        for d in range(3, d_max + 1)
        for k in coefficient_range(d)[1:]
        for p in range(d - 2 * k)
    )
    grid = f"d<={d_max}, k>=1, all valid p"
    return _sweep("barskyt-dual", grid, points, check_barskyt_dual)


def sweep_skyt_identity(m_max: int = 4, d_max: int = 8) -> IdentityReport:
    points = (
        (m, d, i)
        for m in range(1, m_max + 1)
        for d in range(2, d_max + 1)
        for i in range(1, d // 2 + 1)
    )
    grid = f"m<={m_max}, d<={d_max}, 1<=i<=d/2"
    return _sweep("skyt-identity", grid, points, check_skyt_identity)


def sweep_skytbar_identity(d_max: int = 9, i_max: int = 4) -> IdentityReport:
    points = ((d, i) for d in range(2, d_max + 1) for i in range(1, min(i_max, d // 2) + 1))
    grid = f"d<={d_max}, 1<=i<=min({i_max}, d/2)"
    return _sweep("skytbar-identity", grid, points, check_skytbar_identity)


def sweep_integral_identity(a_max: int = 8, b_max: int = 8) -> IdentityReport:
    points = ((a, b) for a in range(1, a_max + 1) for b in range(1, b_max + 1))
    grid = f"1<=a<={a_max}, 1<=b<={b_max}"
    return _sweep("integral-identity", grid, points, check_integral_identity)


def sweep_binomial_altsum(m_max: int = 5, d_max: int = 9) -> IdentityReport:
    points = (
        (m, d, i) for m in range(1, m_max + 1) for d in range(2, d_max + 1) for i in range(1, d)
    )
    grid = f"m<={m_max}, d<={d_max}, 1<=i<d"
    return _sweep("binomial-altsum", grid, points, check_binomial_altsum)


def sweep_gf_truncation(i_values: tuple[int, ...] = (1, 2, 3), order: int = 10) -> IdentityReport:
    points = ((i, order) for i in i_values)
    grid = f"i in {list(i_values)}, order {order}"
    return _sweep("gf-truncation", grid, points, check_gf_truncation)


def sweep_kl_constant_term(total_max: int = 7) -> IdentityReport:
    grid = f"valid (m, d, rho), m+d<={total_max}"
    return _sweep("kl-constant-term", grid, family_grid(total_max), check_kl_constant_term_porism)


def run_identity_sweeps(order: int = 10, include_gf: bool = True) -> list[IdentityReport]:
    """All identity suites on their default grids."""
    reports = [
        sweep_syt_dual(),
        sweep_barskyt_dual(),
        sweep_skyt_identity(),
        sweep_skytbar_identity(),
        sweep_integral_identity(),
        sweep_binomial_altsum(),
    ]
    if include_gf:
        reports.append(sweep_gf_truncation(order=order))
    reports.append(sweep_kl_constant_term())
    return reports

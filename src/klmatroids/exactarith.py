"""Exact arithmetic primitives: binomials, integer polynomials, truncated series.

Everything in this module (and in the package built on top of it) is exact:
Python integers for counts and polynomial coefficients, ``fractions.Fraction``
for rational values, and a bivariate power series truncated at a fixed total
degree for generating-function checks.  No floating point appears anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping


def binomial(n: int, k: int) -> int:
    """C(n, k) with the convention C(n, k) = 0 when k < 0, k > n, or n < 0.

    The zero convention lets alternating sums run over their full formal
    index range without case analysis.
    """
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def parity_sign(k: int) -> int:
    """(-1)**k, safe for negative k."""
    return -1 if k & 1 else 1


class IntPoly:
    """Dense univariate polynomial with arbitrary-precision integer coefficients.

    ``coeffs[j]`` holds the coefficient of t**j.  Trailing zeros are stripped,
    so the zero polynomial has an empty coefficient tuple and degree -1.
    Instances are immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, j: int) -> int:
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("IntPoly", self.coeffs))

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, c in enumerate(b):
            out[j] += c
        return IntPoly(out)

    def __neg__(self) -> "IntPoly":
        return IntPoly(-c for c in self.coeffs)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(other * c for c in self.coeffs)
        if not isinstance(other, IntPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for j, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for k, b in enumerate(other.coeffs):
                out[j + k] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if j == 0:
                body = str(abs(c))
            else:
                var = "t" if j == 1 else f"t^{j}"
                body = var if abs(c) == 1 else f"{abs(c)}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)!r})"


def poly_reverse(p: IntPoly, d: int) -> IntPoly:
    """t**d * p(1/t): coefficient j of the result is coefficient d - j of p.

    Requires deg p <= d.
    """
    if p.degree > d:
        raise ValueError(f"cannot reverse degree-{p.degree} polynomial at d={d}")
    return IntPoly(p.coeff(d - j) for j in range(d + 1))


class BiSeries:
    """Bivariate power series in x and y truncated at a fixed total degree.

    Coefficients are ``Fraction`` values keyed by exponent pairs (p, q) with
    p, q >= 0 and p + q <= order; missing keys are zero.  All arithmetic
    truncates uniformly at the same order, and mixed-order operands are
    rejected to keep truncation honest.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Mapping[tuple[int, int], Fraction | int] | None = None):
        if order < 0:
            raise ValueError("series order must be non-negative")
        data: dict[tuple[int, int], Fraction] = {}
        for (p, q), v in (coeffs or {}).items():
            if p < 0 or q < 0 or p + q > order:
                raise ValueError(f"exponent ({p}, {q}) outside total degree {order}")
            f = Fraction(v)
            if f:
                data[(p, q)] = f
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", data)

    def __setattr__(self, name, value):
        raise AttributeError("BiSeries is immutable")

    @classmethod
    def constant(cls, value: Fraction | int, order: int) -> "BiSeries":
        return cls(order, {(0, 0): Fraction(value)})

    @classmethod
    def monomial(cls, p: int, q: int, order: int, value: Fraction | int = 1) -> "BiSeries":
        return cls(order, {(p, q): Fraction(value)})

    def coeff(self, p: int, q: int) -> Fraction:
        return self.coeffs.get((p, q), Fraction(0))

    def terms(self) -> Iterator[tuple[tuple[int, int], Fraction]]:
        return iter(sorted(self.coeffs.items()))

    def _check_order(self, other: "BiSeries") -> None:
        if self.order != other.order:
            raise ValueError("series orders differ")

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.order, tuple(sorted(self.coeffs.items()))))

    def __add__(self, other: "BiSeries") -> "BiSeries":
        self._check_order(other)
        out = dict(self.coeffs)
        for key, v in other.coeffs.items():
            out[key] = out.get(key, Fraction(0)) + v
        return BiSeries(self.order, out)

    def __neg__(self) -> "BiSeries":
        return BiSeries(self.order, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other: "BiSeries") -> "BiSeries":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return BiSeries(self.order, {k: v * other for k, v in self.coeffs.items()})
        if not isinstance(other, BiSeries):
            return NotImplemented
        self._check_order(other)
        out: dict[tuple[int, int], Fraction] = {}
        for (p1, q1), v1 in self.coeffs.items():
            for (p2, q2), v2 in other.coeffs.items():
                p, q = p1 + p2, q1 + q2
                if p + q > self.order:
                    continue
                key = (p, q)
                out[key] = out.get(key, Fraction(0)) + v1 * v2
        return BiSeries(self.order, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "BiSeries":
        if exponent < 0:
            raise ValueError("negative powers are not defined; divide instead")
        result = BiSeries.constant(1, self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __repr__(self) -> str:
        inner = ", ".join(f"x^{p} y^{q}: {v}" for (p, q), v in self.terms())
        return f"BiSeries(order={self.order}, {{{inner}}})"


def series_div_truncated(num: BiSeries, den: BiSeries) -> BiSeries:
    """Truncated quotient q with q * den == num up to the common total degree.

    The denominator must have a nonzero constant term.  Coefficients are
    solved degree by degree; every referenced quotient coefficient has
    strictly smaller total degree, so the recursion is well founded.
    """
    num._check_order(den)
    d00 = den.coeff(0, 0)
    if d00 == 0:
        raise ValueError("denominator has zero constant term")
    order = num.order
    out: dict[tuple[int, int], Fraction] = {}
    for total in range(order + 1):
        for p in range(total + 1):
            q = total - p
            acc = num.coeff(p, q)
            for (r, s), v in den.coeffs.items():
                if (r, s) == (0, 0):
                    continue
                if r <= p and s <= q:
                    prev = out.get((p - r, q - s))
                    if prev:
                        acc -= prev * v
            if acc:
                out[(p, q)] = acc / d00
    return BiSeries(order, out)

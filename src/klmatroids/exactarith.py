"""Exact arithmetic primitives: binomials, signs and integer polynomials.

Everything in this module (and in the package built on top of it) is exact:
Python integers for counts, polynomial coefficients and every identity
check, whose rational sides are compared after clearing their denominators.
No floating point appears anywhere.
"""

from __future__ import annotations

import math
from operator import index
from typing import Iterable


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
    A coefficient that is not an integer (a float, a string, a rational)
    raises TypeError rather than being truncated.  Instances are immutable
    and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [index(c) for c in coeffs]
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

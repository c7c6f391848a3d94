"""The removed-basis uniform family and every closed-form result about it.

U(m, d; rho) is the rank-d uniform matroid on m + d elements with rho
pairwise disjoint bases removed.  The canonical removed bases are the
consecutive blocks {1..d}, {d+1..2d}, ..., {(rho-1)d+1..rho d}; disjointness
is what makes the removal produce a matroid at all, and it needs
rho * d <= m + d elements of room.

The parameter types are named tuples: RhoUniformParams is (m, d, rho),
checked when it is built, and MinorClass is (m, d, rho, offset).  They
unpack, and compare and hash like the plain tuple of their fields.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .errors import InvalidParameters, NonIntegerResult, NotAFlat
from .exactarith import IntPoly, binomial, parity_sign
from .matroid import (
    GroundSubset,
    Matroid,
    check_ground_size,
    elements_of,
    ground_mask,
    mask_from,
    matroid_from_bases,
)
from .tableaux import count_overline_skyt, count_skyt, validate_family_params


def family_label(m: int, d: int, rho: int) -> str:
    """U(m,d) for the uniform matroid, U(m,d;rho) when rho bases are removed."""
    if rho == 0:
        return f"U({m},{d})"
    return f"U({m},{d};{rho})"


class _ParamFields(NamedTuple):
    m: int
    d: int
    rho: int = 0


class RhoUniformParams(_ParamFields):
    """Parameters (m, d, rho) of the removed-basis uniform matroid U(m, d; rho).

    Validity: m >= 1 (the m = 0 family is degenerate and rejected), d >= 0,
    rho >= 0, and for rho >= 1 either d = 0 (removal is a no-op by
    convention) or d >= 2 with rho * d <= m + d.  Removing size-1 bases is
    rejected because it creates loops.
    """

    __slots__ = ()

    def __new__(cls, m: int, d: int, rho: int = 0) -> "RhoUniformParams":
        validate_family_params(m, d, rho)
        return tuple.__new__(cls, (m, d, rho))

    @property
    def n(self) -> int:
        return self.m + self.d

    def label(self) -> str:
        return family_label(self.m, self.d, self.rho)


def valid_rhos(m: int, d: int) -> list[int]:
    """All rho values admissible for the given (m, d), one per distinct matroid.

    For d < 2 only rho = 0 is listed (d = 1 removal is invalid, d = 0 removal
    is a no-op); otherwise rho ranges up to (m + d) // d.
    """
    validate_family_params(m, d, 0)
    if d < 2:
        return [0]
    return list(range((m + d) // d + 1))


def consecutive_block(d: int, offset: int) -> frozenset[int]:
    """The interval {1 + offset, ..., d + offset}."""
    return frozenset(range(1 + offset, d + offset + 1))


def removed_blocks(p: RhoUniformParams) -> list[frozenset[int]]:
    """The canonically removed bases: disjoint blocks at offsets 0, d, 2d, ..."""
    if p.d == 0:
        return []
    return [consecutive_block(p.d, ell * p.d) for ell in range(p.rho)]


def removed_block_masks(p: RhoUniformParams) -> list[GroundSubset]:
    return [mask_from(block, p.n) for block in removed_blocks(p)]


@lru_cache(maxsize=128)
def _build_cached(m: int, d: int, rho: int, offset: int) -> Matroid:
    """U(m, d) minus the rho consecutive d-blocks starting after label ``offset``.

    The caller has validated (m, d, rho, offset).
    """
    n = m + d
    check_ground_size(n)
    if d == 0:
        return matroid_from_bases(n, [0])
    removed = {mask_from(consecutive_block(d, offset + ell * d), n) for ell in range(rho)}
    bases = [
        mask_from(combo, n)
        for combo in combinations(range(1, n + 1), d)
    ]
    return matroid_from_bases(n, [b for b in bases if b not in removed])


def build_rho_uniform(p: RhoUniformParams) -> Matroid:
    """Construct U(m, d; rho) and validate it through the generic basis checks."""
    return _build_cached(p.m, p.d, p.rho, 0)


def _in_coefficient_range(d: int, i: int) -> bool:
    # i = 0 is always a coefficient (the constant term is defined even for
    # rank 0); higher coefficients exist only below half the rank.
    return i == 0 or (i > 0 and 2 * i < d)


def coeff_uniform_tableau(m: int, d: int, i: int) -> int:
    """Coefficient i of the KL polynomial of U(m, d), as a tableau count.

    This is coeff_rho at rho = 0, count_skyt(m + 1, i, d - 2i + 1);
    out-of-range i gives 0.
    """
    return coeff_rho(m, d, i, 0)


def coeff_uniform_klum(m: int, d: int, i: int) -> int:
    """Coefficient i of the KL polynomial of U(m, d), by the older closed form.

    With a = m + 1 and b = d - 2i + 1:

        (1 / (b + i - 1)) * C(b + 2i + a - 2, i)
            * sum over h of C(b + i + h - 1, h + i + 1) * C(i - 1 + h, h)

    computed in exact integers; the division must come out integral, and a
    non-zero remainder raises NonIntegerResult (it would mean an
    implementation bug).
    """
    validate_family_params(m, d, 0)
    if i < 0 or not _in_coefficient_range(d, i):
        return 0
    if i == 0:
        return 1
    a = m + 1
    b = d - 2 * i + 1
    inner = sum(
        binomial(b + i + h - 1, h + i + 1) * binomial(i - 1 + h, h)
        for h in range(a - 1)
    )
    numerator = binomial(b + 2 * i + a - 2, i) * inner
    value, rem = divmod(numerator, b + i - 1)
    if rem:
        raise NonIntegerResult(
            f"closed form for (m={m}, d={d}, i={i}) gave non-integer {numerator}/{b + i - 1}"
        )
    return value


def coeff_rho(m: int, d: int, i: int, rho: int) -> int:
    """Coefficient i of the KL polynomial of U(m, d; rho).

    count_skyt(m+1, i, d-2i+1) - rho * count_overline_skyt(i, d-2i+1); always
    non-negative, and equal to the direct filtered count.  Out-of-range i
    gives 0.
    """
    validate_family_params(m, d, rho)
    if i < 0 or not _in_coefficient_range(d, i):
        return 0
    b = d - 2 * i + 1
    return count_skyt(m + 1, i, b) - rho * count_overline_skyt(i, b)


def kl_poly_rho(p: RhoUniformParams) -> IntPoly:
    """The full KL polynomial of U(m, d; rho), assembled coefficient by coefficient."""
    if p.d == 0:
        return IntPoly([1])
    return IntPoly(
        coeff_rho(p.m, p.d, i, p.rho) for i in range((p.d - 1) // 2 + 1)
    )


def char_poly_rho(p: RhoUniformParams) -> IntPoly:
    """Characteristic polynomial of U(m, d; rho), directly from the closed form.

    [t^0] = (-1)^d (C(m+d-1, d-1) - rho), [t^1] = (-1)^(d-1) (C(m+d, d-1) - rho),
    [t^i] = (-1)^(d-i) C(m+d, d-i) for 2 <= i <= d.
    """
    if p.d < 1:
        raise InvalidParameters("the closed form needs d >= 1")
    m, d, rho = p.m, p.d, p.rho
    coeffs = [0] * (d + 1)
    coeffs[0] = parity_sign(d) * (binomial(m + d - 1, d - 1) - rho)
    if d >= 1:
        coeffs[1] = parity_sign(d - 1) * (binomial(m + d, d - 1) - rho)
    for i in range(2, d + 1):
        coeffs[i] = parity_sign(d - i) * binomial(m + d, d - i)
    return IntPoly(coeffs)


class MinorClass(NamedTuple):
    """A minor predicted label for label: U(m, d; rho), uniform when rho = 0,
    with its removed blocks at labels offset + 1 + k * d, ..., offset + (k + 1) * d.

    ``label()`` names the isomorphism class, whatever the offset.
    """

    m: int
    d: int
    rho: int = 0
    offset: int = 0

    def label(self) -> str:
        return family_label(self.m, self.d, self.rho)

    def build(self) -> Matroid:
        if self.rho:
            validate_family_params(self.m, self.d, self.rho)
        if min(self.m, self.d, self.offset) < 0 or self.offset + self.rho * self.d > self.m + self.d:
            raise InvalidParameters(
                f"{self} needs m, d and offset non-negative and offset + rho * d <= m + d"
            )
        return _build_cached(self.m, self.d, self.rho, self.offset)


def classify_minor(
    p: RhoUniformParams, flat, kind: str
) -> MinorClass:
    """The localization or contraction at a flat, predicted in its own labels.

    Localizations: the whole matroid at the top, U(1, d-1) at a removed
    block, and the free matroid U(0, |F|) elsewhere.  Contractions: the whole
    matroid at the empty flat, U(m-1, 1) at a block, and the uniform answer
    U(m, d-|F|) elsewhere (U(0, 0) at the top), except strictly inside
    removed block l: there it is U(m, d-|F|; 1) at offset l * d, since the
    minors relabel in element order and the image of the block minus F
    follows the l * d labels before it.  Every other class has offset 0.

    The prediction reads only ``p`` and the flat: it builds no minor and no
    lattice of flats, and verification compares the built class with the
    computed minor basis for basis.
    """
    if kind not in ("localization", "contraction"):
        raise ValueError(f"kind must be localization or contraction, got {kind!r}")
    if not isinstance(flat, int):
        flat = mask_from(flat, p.n)
    full = ground_mask(p.n)
    if not 0 <= flat <= full:
        raise NotAFlat(f"bitmask {flat} outside the ground set of {p.label()}")
    if build_rho_uniform(p).closure_of(flat) != flat:
        raise NotAFlat(f"{set(elements_of(flat))} is not a flat of {p.label()}")
    blocks = removed_block_masks(p)
    size = flat.bit_count()
    if kind == "localization":
        if flat == full:
            return MinorClass(p.m, p.d, p.rho)
        if flat in blocks:
            return MinorClass(1, p.d - 1)
        return MinorClass(0, size)
    if flat == 0:
        return MinorClass(p.m, p.d, p.rho)
    if flat == full:
        return MinorClass(0, 0)
    if flat in blocks:
        return MinorClass(p.m - 1, 1)
    for ell, block in enumerate(blocks):
        if flat & block == flat:
            return MinorClass(p.m, p.d - size, 1, ell * p.d)
    return MinorClass(p.m, p.d - size)


def expected_flats(p: RhoUniformParams) -> set[GroundSubset]:
    """The flats of U(m, d; rho) predicted structurally.

    Every subset of size at most d - 2, the size d - 1 subsets contained in
    no removed block, the removed blocks themselves, and the full ground set.
    """
    n, d = p.n, p.d
    full = ground_mask(n)
    if d == 0:
        return {full}
    blocks = removed_block_masks(p)
    out: set[GroundSubset] = {full}
    for size in range(0, d):
        for combo in combinations(range(1, n + 1), size):
            mask = mask_from(combo, n)
            if size == d - 1 and any(mask & block == mask for block in blocks):
                continue
            out.add(mask)
    out.update(blocks)
    return out

"""The removed-basis uniform family and every closed-form result about it.

U(m, d; rho) is the rank-d uniform matroid on m + d elements with rho
pairwise disjoint bases removed.  The canonical removed bases are the
consecutive blocks {1..d}, {d+1..2d}, ..., {(rho-1)d+1..rho d}; disjointness
is what makes the removal produce a matroid at all, and it needs
rho * d <= m + d elements of room.

The family's rules are written once, here, and read from here: the valid
rho for one (m, d) (``valid_rhos``), every valid point up to a size
(``family_grid``), the indices of the KL coefficients (``coefficient_range``)
and the flats (``_is_flat``).  The matroids come from the cached family
builder of ``matroid``, beside the removed blocks as bitmasks
(``removed_block_masks``).

``ROUTES`` is the one table of the routes to a KL coefficient, each with
its domain, and ``Route.poly`` assembles a route's polynomial; every
comparison of routes reads the table, and ``kl_poly_rho`` is its tableau row.
The direct and oracle routes refuse by the caps' own messages,
``cell_count_refusal`` and ``ground_size_refusal``.

The parameter types are named tuples: RhoUniformParams is (m, d, rho),
checked when it is built, and MinorClass is (m, d, rho, offset).  They
unpack, and compare and hash like the plain tuple of their fields.
"""

from __future__ import annotations

from math import comb
from typing import Callable, NamedTuple

from .errors import InvalidParameters, NonIntegerResult, NotAFlat
from .exactarith import IntPoly, _integers, binomial
from .matroid import (
    GroundSubset,
    Matroid,
    _build_cached,
    d_subsets,
    elements_of,
    ground_mask,
    ground_size_refusal,
    kl_poly,
    mask_from,
    removed_block_masks,
)
from .tableaux import (
    cell_count_refusal,
    count_overline_skyt,
    count_skyt,
    count_skyt_rho_direct,
    validate_family_params,
)


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
    """Parameters (m, d, rho) of the removed-basis uniform matroid U(m, d; rho),
    checked by ``validate_family_params`` when built, and kept as its ints."""

    __slots__ = ()

    def __new__(cls, m: int, d: int, rho: int = 0) -> "RhoUniformParams":
        return tuple.__new__(cls, validate_family_params(m, d, rho))

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
    m, d, _ = validate_family_params(m, d, 0)
    if d < 2:
        return [0]
    return list(range((m + d) // d + 1))


def family_grid(total_max: int, min_d: int = 1) -> list[RhoUniformParams]:
    """All valid (m, d, rho) with m + d <= total_max and d >= min_d."""
    return [
        RhoUniformParams(m, d, rho)
        for m in range(1, total_max + 1 - min_d)
        for d in range(min_d, total_max - m + 1)
        for rho in valid_rhos(m, d)
    ]


def coefficient_range(d: int) -> range:
    """The indices i of the KL coefficients of a rank-d member: the constant
    term i = 0, defined even in rank 0, and every i >= 1 with 2i < d."""
    return range(max(d - 1, 0) // 2 + 1)


def build_rho_uniform(p: RhoUniformParams) -> Matroid:
    """Construct U(m, d; rho) and validate it through the generic basis checks."""
    return _build_cached(p.m, p.d, p.rho, 0)


def coeff_uniform_klum(m: int, d: int, i: int) -> int:
    """Coefficient i of the KL polynomial of U(m, d), by the older closed form.

    With a = m + 1 and b = d - 2i + 1:

        (1 / (b + i - 1)) * C(b + 2i + a - 2, i)
            * sum over h = 0..a-2 of C(b + i + h - 1, h + i + 1) * C(i - 1 + h, h)

    computed in exact integers.  The inner sum starts at C(b + i - 1, i + 1),
    and each next term is the one before times
    (b + i + h)(i + h) / ((h + i + 2)(h + 1)), the product of the two
    binomial steps, formed in small integers so that the big term is
    multiplied once and divided once; both terms are integers and
    term_h * numerator = term_(h+1) * denominator, so each floor division is
    exact.  The final division by b + i - 1 must come out integral, and a
    non-zero remainder raises NonIntegerResult (it would mean an
    implementation bug).
    """
    m, d, _ = validate_family_params(m, d, 0)
    if type(i) is not int:
        (i,) = _integers(InvalidParameters, i=i)
    if i == 0:
        return 1
    # past coefficient_range(d) the sum below is not 0
    if i < 0 or 2 * i >= d:
        return 0
    a = m + 1
    b = d - 2 * i + 1
    term = inner = binomial(b + i - 1, i + 1)
    for h in range(a - 2):
        term = term * ((b + i + h) * (i + h)) // ((h + i + 2) * (h + 1))
        inner += term
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
    non-negative, and equal to the direct filtered count.  At rho = 0 the
    overline count is not taken.  Out-of-range i gives 0: past
    coefficient_range(d) the width b is below 2, where both counts are 0 by
    their own conventions.
    """
    m, d, rho = validate_family_params(m, d, rho)
    if type(i) is not int:
        (i,) = _integers(InvalidParameters, i=i)
    if i < 0:
        return 0
    b = d - 2 * i + 1
    if not rho:
        return count_skyt(m + 1, i, b)
    return count_skyt(m + 1, i, b) - rho * count_overline_skyt(i, b)


class Route(NamedTuple):
    """A route to KL coefficient i of U(m, d; rho): ``coeff(p, i)``, and
    ``refusal(p)``, None where the route applies, else the reason it does not."""

    name: str
    coeff: Callable[[RhoUniformParams, int], int]
    refusal: Callable[[RhoUniformParams], str | None]

    def poly(self, p: RhoUniformParams) -> IntPoly:
        """The route's coefficients over ``coefficient_range(p.d)``, as one polynomial."""
        return IntPoly(self.coeff(p, i) for i in coefficient_range(p.d))


# In output order, the tableau route first.  The routes call the library through this module's
# globals, so a monkeypatched or traced function is the one that runs.
ROUTES = (
    Route("tableau", lambda p, i: coeff_rho(p.m, p.d, i, p.rho), lambda p: None),
    Route(
        "direct",
        lambda p, i: count_skyt_rho_direct(p.m, p.d, i, p.rho),
        lambda p: cell_count_refusal(p.n),
    ),
    Route(
        "closed-form",
        lambda p, i: coeff_uniform_klum(p.m, p.d, i),
        lambda p: None if p.rho == 0 else "the closed-form method applies to rho = 0 only",
    ),
    Route(
        "oracle",
        lambda p, i: kl_poly(build_rho_uniform(p)).coeff(i),
        lambda p: ground_size_refusal(p.n),
    ),
)


def kl_poly_rho(p: RhoUniformParams) -> IntPoly:
    """The full KL polynomial of U(m, d; rho): the tableau route's polynomial."""
    return ROUTES[0].poly(p)


def char_poly_rho(p: RhoUniformParams) -> IntPoly:
    """Characteristic polynomial of U(m, d; rho), directly from the closed form.

    [t^0] = (-1)^d (C(m+d-1, d-1) - rho), [t^1] = (-1)^(d-1) (C(m+d, d-1) - rho),
    [t^i] = (-1)^(d-i) C(m+d, d-i) for 2 <= i <= d.

    The row C(m+d, d-i) comes from math.comb, the two low coefficients take
    their corrections, and the sign of every coefficient with d - i odd is
    flipped in place.
    """
    if p.d < 1:
        raise InvalidParameters("the closed form needs d >= 1")
    m, d, rho = p.m, p.d, p.rho
    n = m + d
    coeffs = [comb(n, d - i) for i in range(d + 1)]
    coeffs[0] = comb(n - 1, d - 1) - rho
    coeffs[1] -= rho
    for i in range(d - 1, -1, -2):
        coeffs[i] = -coeffs[i]
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
        m, d, rho, offset = _integers(InvalidParameters, **self._asdict())
        if rho:
            validate_family_params(m, d, rho)
        if min(m, d, offset) < 0 or offset + rho * d > m + d:
            raise InvalidParameters(
                f"{self} needs m, d and offset non-negative and offset + rho * d <= m + d"
            )
        return _build_cached(m, d, rho, offset)


def _is_flat(p: RhoUniformParams, blocks: list[GroundSubset], mask: GroundSubset) -> bool:
    """The flat rule of U(m, d; rho) with removed ``blocks``: the sets of at most
    d - 2 elements, the (d - 1)-sets inside no block, the blocks and E."""
    size = mask.bit_count()
    if size == p.d - 1:
        return not any(mask & block == mask for block in blocks)
    return size < p.d - 1 or mask in blocks or mask == ground_mask(p.n)


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

    It reads only ``p`` and the flat, its NotAFlat guard too (``_is_flat``),
    and builds no matroid; verification compares the built class with the
    computed minor basis for basis.
    """
    if kind not in ("localization", "contraction"):
        raise ValueError(f"kind must be localization or contraction, got {kind!r}")
    if not isinstance(flat, int):
        flat = mask_from(flat, p.n)
    if not 0 <= flat <= ground_mask(p.n):
        raise NotAFlat(f"bitmask {flat} outside the ground set of {p.label()}")
    local, contracted = _minor_classes(p, removed_block_masks(p.d, p.rho), flat)
    return local if kind == "localization" else contracted


def _minor_classes(
    p: RhoUniformParams, blocks: list[GroundSubset], flat: GroundSubset
) -> tuple[MinorClass, MinorClass]:
    """(localization, contraction) classes at a flat inside the ground set,
    as :func:`classify_minor` predicts them, behind one NotAFlat guard."""
    if not _is_flat(p, blocks, flat):
        raise NotAFlat(f"{set(elements_of(flat))} is not a flat of {p.label()}")
    full = ground_mask(p.n)
    whole = MinorClass(p.m, p.d, p.rho)
    if flat == full:
        return whole, MinorClass(0, 0)
    if flat in blocks:
        return MinorClass(1, p.d - 1), MinorClass(p.m - 1, 1)
    size = flat.bit_count()
    local = MinorClass(0, size)
    if flat == 0:
        return local, whole
    for ell, block in enumerate(blocks):
        if flat & block == flat:
            return local, MinorClass(p.m, p.d - size, 1, ell * p.d)
    return local, MinorClass(p.m, p.d - size)


def expected_flats(p: RhoUniformParams) -> set[GroundSubset]:
    """The flats of U(m, d; rho) by the rule ``_is_flat``, which admits only
    sets of fewer than d elements, the removed blocks and the ground set."""
    blocks = removed_block_masks(p.d, p.rho)
    small = [mask for size in range(p.d) for mask in d_subsets(p.n, size)]
    return {mask for mask in [ground_mask(p.n), *blocks, *small] if _is_flat(p, blocks, mask)}

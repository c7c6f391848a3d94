"""Independent brute-force oracles used only by the tests.

These deliberately avoid the formulas and data paths of the package: Pascal
recursion instead of factorials, backtracking placement or hooks taken cell
by cell instead of grouped hook products, subset search instead of basis
intersections, pairwise set exchange instead of rank tables, Mobius values
instead of Whitney's subset sum, minors relabelled element by element
instead of by paired bit combinations, a permutation search for matroid
isomorphism, and an up-set walk over the lattice of flats instead of the
subset cube for the Z-polynomial solve, and sums that build every term
afresh instead of stepping from the one before.  Expected values in the
tests are frozen from these oracles.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb, factorial

from klmatroids.errors import InvalidShape
from klmatroids.matroid import elements_of, ground_mask, mask_from
from klmatroids.tableaux import count_syt


@lru_cache(maxsize=None)
def pascal(n: int, k: int) -> int:
    if k < 0 or n < 0 or k > n:
        return 0
    if k == 0 or k == n:
        return 1
    return pascal(n - 1, k - 1) + pascal(n - 1, k)


def brute_syt_count(rows: tuple[int, ...]) -> int:
    """Standard fillings of a partition, counted by direct backtracking."""
    cells = [(r, c) for r, length in enumerate(rows) for c in range(length)]
    n = len(cells)
    placed: dict[tuple[int, int], int] = {}

    def ready(cell):
        r, c = cell
        if r > 0 and rows[r - 1] > c and (r - 1, c) not in placed:
            return False
        if c > 0 and (r, c - 1) not in placed:
            return False
        return True

    def count(value: int) -> int:
        if value > n:
            return 1
        total = 0
        for cell in cells:
            if cell not in placed and ready(cell):
                placed[cell] = value
                total += count(value + 1)
                del placed[cell]
        return total

    return count(1)


def straight_rows(a: int, i: int, k: int) -> tuple[int, ...]:
    """Row lengths of the diagram whose columns have heights a, then 2 (i
    times), then 1 (k times).

    Raises InvalidShape unless the column heights are positive and weakly
    decreasing, which is when the diagram is a partition.
    """
    heights = [a] + [2] * i + [1] * k
    if i < 0 or k < 0 or min(heights) < 1 or heights != sorted(heights, reverse=True):
        raise InvalidShape(f"columns of heights {a}, 2 x {i}, 1 x {k} are not a partition")
    return tuple(sum(1 for h in heights if h > r) for r in range(a))


def hook_length_count(rows: tuple[int, ...]) -> int:
    """Standard fillings of a partition, by the hook-length formula taken
    cell by cell: n! over the product of every cell's arm + leg + 1."""
    n = sum(rows)
    hook_product = 1
    for r, length in enumerate(rows):
        for c in range(length):
            arm = length - c - 1
            leg = sum(1 for rr in range(r + 1, len(rows)) if rows[rr] > c)
            hook_product *= arm + leg + 1
    count, rem = divmod(factorial(n), hook_product)
    if rem:
        raise AssertionError(f"hook product {hook_product} does not divide {n}!")
    return count


def gf_coefficient(i: int, a: int, b: int) -> int:
    """Coefficient of x^a y^b in 1/((1 - x)(1 - x - y)^i (1 - y)^2).

    Multiplying by (1 - x - y) steps i down by one, which gives
    f_i(a, b) = f_i(a - 1, b) + f_i(a, b - 1) + f_{i-1}(a, b), with
    f_0(a, b) = b + 1 and 0 at a negative index.
    """

    @lru_cache(maxsize=None)
    def f(j: int, p: int, q: int) -> int:
        if p < 0 or q < 0:
            return 0
        if j == 0:
            return q + 1
        return f(j, p - 1, q) + f(j, p, q - 1) + f(j - 1, p, q)

    return f(i, a, b)


def catalan(n: int) -> int:
    """Catalan numbers by the convolution recurrence."""
    cats = [1]
    for k in range(1, n + 1):
        cats.append(sum(cats[j] * cats[k - 1 - j] for j in range(k)))
    return cats[n]


def brute_rank(n: int, bases: list[frozenset[int]], subset: frozenset[int]) -> int:
    """Rank as the largest independent subset, where independent means
    'contained in some basis'."""
    for size in range(len(subset), -1, -1):
        for candidate in combinations(sorted(subset), size):
            cset = set(candidate)
            if any(cset <= b for b in bases):
                return size
    return 0


def exchange_axiom_holds(bases: list[frozenset[int]]) -> bool:
    """The basis-exchange axiom, checked pairwise on plain sets: for all
    members B1, B2 of the family and every x in B1 - B2, some y in B2 - B1
    must put B1 - x + y in the family."""
    family = set(bases)
    return all(
        any((b1 - {x}) | {y} in family for y in b2 - b1)
        for b1 in bases
        for b2 in bases
        for x in b1 - b2
    )


def is_exchange_violation(
    bases: list[frozenset[int]], basis: frozenset[int], other: frozenset[int], element: int
) -> bool:
    """Whether removing ``element`` from ``basis`` admits no replacement from
    ``other`` that lands back in the family."""
    family = set(bases)
    if basis not in family or other not in family or element not in basis - other:
        return False
    return not any((basis - {element}) | {y} in family for y in other - basis)


def mobius_values(flats) -> list[int]:
    """mu(bottom, F) for every flat, by the recursive sum over lower flats.
    ``flats`` must list every flat after all the flats it contains."""
    mobius = [1]
    for idx in range(1, len(flats)):
        f = flats[idx]
        mobius.append(-sum(mobius[jdx] for jdx in range(idx) if flats[jdx] & f == flats[jdx]))
    return mobius


def mobius_char_coeffs(lattice, rank: int) -> list[int]:
    """Characteristic polynomial as the Mobius-weighted sum over the flats,
    sum of mu(bottom, F) t^(rank - rank F), low degree first."""
    coeffs = [0] * (rank + 1)
    for r, mu in zip(lattice.ranks, mobius_values(lattice.flats)):
        coeffs[rank - r] += mu
    return coeffs


def _relabel(masks, kept: tuple[int, ...]) -> list[int]:
    """Map surviving elements (1-based, ascending) onto 1..len(kept), order preserving."""
    position = {e: idx for idx, e in enumerate(kept)}
    out = []
    for mask in masks:
        new = 0
        for e in elements_of(mask):
            new |= 1 << position[e]
        out.append(new)
    return out


def element_localization(matroid, flat: int) -> tuple[int, tuple[int, ...]]:
    """(n, sorted bases) of the restriction to a flat, built element by element:
    every r-subset of the flat's elements with rank r, relabelled onto 1..|F|."""
    table = matroid.rank_table()
    r = table[flat]
    kept = elements_of(flat)
    good = [
        b for b in (mask_from(combo, matroid.n) for combo in combinations(kept, r))
        if table[b] == r
    ]
    return len(kept), tuple(sorted(_relabel(good, kept)))


def element_contraction(matroid, flat: int) -> tuple[int, tuple[int, ...]]:
    """(n, sorted bases) of the contraction by a flat, built element by
    element: every k-subset of the complement that extends a greedy basis
    of the flat to full rank, relabelled onto 1..(n - |F|)."""
    table = matroid.rank_table()
    r = table[flat]
    anchor = 0
    for e in elements_of(flat):
        bit = 1 << (e - 1)
        if table[anchor | bit] > table[anchor]:
            anchor |= bit
    kept = elements_of(ground_mask(matroid.n) & ~flat)
    k = matroid.rank - r
    good = [
        cm for cm in (mask_from(combo, matroid.n) for combo in combinations(kept, k))
        if table[cm | anchor] == k + r
    ]
    return len(kept), tuple(sorted(_relabel(good, kept)))


# the isomorphism search tries up to n! permutations, so it stops early
ISOMORPHISM_MAX_GROUND = 9


def _degree_profile(matroid) -> dict[int, list[int]]:
    """Group ground elements by how many bases contain them."""
    degs: dict[int, int] = {}
    for e in range(1, matroid.n + 1):
        bit = 1 << (e - 1)
        degs[e] = sum(1 for b in matroid.bases if b & bit)
    groups: dict[int, list[int]] = {}
    for e, deg in degs.items():
        groups.setdefault(deg, []).append(e)
    return groups


def is_isomorphic(m1, m2) -> bool:
    """Brute-force isomorphism test by ground-set permutation.

    Permutations are restricted to matching element-degree classes, which is
    pure pruning: any isomorphism must preserve the number of bases through
    each element.  Refuses ground sets larger than ISOMORPHISM_MAX_GROUND.
    """
    if m1.n != m2.n or m1.rank != m2.rank or len(m1.bases) != len(m2.bases):
        return False
    if m1.bases == m2.bases:
        return True
    if m1.n > ISOMORPHISM_MAX_GROUND:
        raise ValueError(f"isomorphism search limited to {ISOMORPHISM_MAX_GROUND} elements")
    groups1 = _degree_profile(m1)
    groups2 = _degree_profile(m2)
    if sorted((deg, len(es)) for deg, es in groups1.items()) != sorted(
        (deg, len(es)) for deg, es in groups2.items()
    ):
        return False
    if set(groups1) != set(groups2):
        return False
    degrees = sorted(groups1)
    sources = [sorted(groups1[deg]) for deg in degrees]
    target_set = frozenset(m2.bases)
    for arrangement in product(*(permutations(sorted(groups2[deg])) for deg in degrees)):
        mapping = {}
        for src_list, dst_list in zip(sources, arrangement):
            if len(src_list) != len(dst_list):
                break
            for s, t in zip(src_list, dst_list):
                mapping[s] = t
        else:
            remapped = frozenset(
                mask_from((mapping[e] for e in elements_of(b)), m2.n) for b in m1.bases
            )
            if remapped == target_set:
                return True
    return False


def upset_z_poly(matroid) -> list[int]:
    """Coefficients of the KL polynomial by the Z-polynomial palindromicity,
    solved over the lattice of flats with an up-set bitset per flat.

    P_{M/F}[j] = R_F[e - j] - R_F[j] for j < e/2, where e = rank M - rank F
    and R_F(t) = sum over flats G above F of t^(rank G - rank F) P_{M/G}(t).
    The library sums R_F over the subset cube instead; this route visits
    every comparable pair of flats.  Loopless matroids of positive rank only.
    """
    top = matroid.rank
    lattice = matroid.lattice()
    index = {f: k for k, f in enumerate(lattice.flats)}
    # the flats from the top rank down, each rank level in reverse (cardinality,
    # mask) order: every flat above another sits at a smaller position, each
    # level comes whole before the next, and supersets, with their larger
    # masks, come early, which keeps the up-set bitsets short
    count = len(lattice.flats)
    order = sorted(range(count - 1, -1, -1), key=lattice.ranks.__getitem__, reverse=True)
    position = [0] * count
    for p, k in enumerate(order):
        position[k] = p
    flats = [lattice.flats[k] for k in order]
    ranks = [lattice.ranks[k] for k in order]
    ground = ground_mask(matroid.n)
    # bitsets over positions of the flats strictly above each flat, for the
    # current rank level and the one above it: a flat reads only the up-sets
    # of its covers, which are one rank higher, so older levels are dropped
    above: dict[int, int] = {}
    level = {0: 0}
    # t^(rank G) P_{M/G}(t) of each flat G, as (degree, coefficient) pairs
    terms: list[tuple[tuple[int, int], ...]] = [((top, 1),)] + [()] * (count - 1)
    coeffs = [1]
    for p in range(1, count):
        flat, r = flats[p], ranks[p]
        if r != ranks[p - 1]:
            above, level = level, {}
        upset = 0
        rest = ground & ~flat
        while rest:
            # the covers cl(F + x) split the elements outside F between them
            cover = matroid.closure_of(flat | (rest & -rest))
            rest &= ~cover
            q = position[index[cover]]
            upset |= above[q] | (1 << q)
        level[p] = upset
        sums = [0] * (top + 1)  # R_F, by the absolute degree rank F + j
        bits = bin(upset)
        last = len(bits) - 1
        k = bits.find("1", 2)
        while k >= 0:
            for degree, c in terms[last - k]:
                sums[degree] += c
            k = bits.find("1", k + 1)
        coeffs = [sums[top - j] - sums[r + j] for j in range((top - r + 1) // 2)]
        terms[p] = tuple((r + j, c) for j, c in enumerate(coeffs) if c)
    # the last position holds the bottom flat, the empty set
    return coeffs


def termwise_integral(poly_coeffs: dict[int, int], lower: int, upper: int) -> Fraction:
    """Exact integral of an integer polynomial between integer bounds."""
    total = Fraction(0)
    for power, coeff in poly_coeffs.items():
        prim = Fraction(coeff, power + 1)
        total += prim * (upper ** (power + 1) - lower ** (power + 1))
    return total


def rational_integral_identity(a: int, b: int) -> bool:
    """The integral identity in rationals: x^a (1+x)^b expanded by Pascal's
    rule, integrated from 0 to -1, against (-1)^(a+1) b! / ((a+1)...(a+b+1))."""
    integral = termwise_integral({a + s: pascal(b, s) for s in range(b + 1)}, 0, -1)
    denom = 1
    for t in range(a + 1, a + b + 2):
        denom *= t
    return integral == Fraction((-1) ** (a + 1) * factorial(b), denom)


def rational_binomial_altsum(m: int, d: int, i: int) -> bool:
    """Both alternating binomial identities in rationals, with each side as
    stated: the first for every 1 <= i < d, the companion off by exactly 1 at
    i = 1 and exact for 2 <= i <= d / 2."""
    lhs_a = pascal(m + d, d - i) * Fraction(
        (m + d - i) * factorial(m - 1) * factorial(d - i) * factorial(i),
        factorial(m + d),
    )
    rhs_a = sum(
        ((-1) ** k * pascal(i, k) * Fraction(d - i - k, m + k) for k in range(i + 1)),
        Fraction(0),
    )
    if lhs_a != rhs_a:
        return False
    lhs_b = i * pascal(d, i + 1) * Fraction(factorial(i) * factorial(d - i + 1), factorial(d))
    rhs_b = sum(
        (
            (-1) ** (k + 1) * pascal(i, k) * Fraction((d - i + k + 1) * (d - k - i), k + 1)
            for k in range(1, i + 1)
        ),
        Fraction(0),
    )
    if i == 1:
        return lhs_b - rhs_b == 1
    return 2 * i > d or lhs_b == rhs_b


# -- skew fillings on cell coordinates -------------------------------------------
#
# The shape (a, i, b) in (row, column) coordinates: column 0 holds rows
# 0..a-1, middle columns rows 0..1, column i rows -(b-2)..1.  Fillings are
# dicts keyed by cell or tuples of columns, never the package's flat layout.


def skew_column_rows(a: int, i: int, b: int) -> list[range]:
    return [range(0, a)] + [range(0, 2)] * (i - 1) + [range(-(b - 2), 2)]


def skew_fillings(a: int, i: int, b: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every legal filling of (a, i, b) as a tuple of columns, sorted by the
    column-major entry sequence.

    Backtracking over a dict keyed by (r, c): values 1..n are placed in turn,
    each into any empty cell whose upper and left neighbours are filled.
    """
    rows = skew_column_rows(a, i, b)
    cells = [(r, c) for c in range(i + 1) for r in rows[c]]
    inside = set(cells)
    prereqs = {
        (r, c): [p for p in ((r - 1, c), (r, c - 1)) if p in inside] for (r, c) in cells
    }
    placed: dict[tuple[int, int], int] = {}
    found = []

    def extend(value: int) -> None:
        if value > len(cells):
            found.append(tuple(tuple(placed[(r, c)] for r in rows[c]) for c in range(i + 1)))
            return
        for cell in cells:
            if cell not in placed and all(p in placed for p in prereqs[cell]):
                placed[cell] = value
                extend(value + 1)
                del placed[cell]

    extend(1)
    return sorted(found, key=lambda cols: [v for col in cols for v in col])


def skew_value(a: int, i: int, b: int, columns, r: int, c: int) -> int:
    rows = skew_column_rows(a, i, b)[c]
    return columns[c][r - rows.start]


def skew_rotate(a: int, i: int, b: int, columns) -> tuple[tuple[int, ...], ...]:
    """The half-turn of a filling of (a, i, b): cell (r, c) of (b, i, a) takes
    n + 1 minus the entry at cell (1 - r, i - c)."""
    n = a + 2 * i + b - 2
    return tuple(
        tuple(n + 1 - skew_value(a, i, b, columns, 1 - r, i - c) for r in rows)
        for c, rows in enumerate(skew_column_rows(b, i, a))
    )


def skew_is_legal(a: int, i: int, b: int, columns) -> bool:
    """Entries are 1..n once each, columns increase downward and rows 0 and 1
    increase rightward."""
    n = a + 2 * i + b - 2
    if sorted(v for col in columns for v in col) != list(range(1, n + 1)):
        return False
    if any(col[k] >= col[k + 1] for col in columns for k in range(len(col) - 1)):
        return False
    for r in (0, 1):
        row = [skew_value(a, i, b, columns, r, c) for c in range(i + 1)]
        if any(row[k] >= row[k + 1] for k in range(len(row) - 1)):
            return False
    return True


# -- the formula layer's sums, term by term --------------------------------------
#
# The library gets each term of these sums from the one before by an exact
# ratio.  Here every term is built on its own: binomials by math.comb, and
# straight-shape counts by count_syt, whose hook quotient the tests check
# against hook_length_count cell by cell.


def termwise_count_skyt(a: int, i: int, b: int) -> int:
    """Legal fillings of shape (a, i, b): 1 when i = 0, 0 when a or b is
    below 2, else sum over k of (-1)^k C(a+2i+b-2, b-k-2) count_syt(a, i, k)."""
    if i < 0:
        raise InvalidShape(f"negative i={i}")
    if i == 0:
        return 1
    if a < 2 or b < 2:
        return 0
    n = a + 2 * i + b - 2
    return sum((-1) ** k * comb(n, b - k - 2) * count_syt(a, i, k) for k in range(b - 1))


def termwise_coeff_rho(m: int, d: int, i: int, rho: int) -> int:
    """Coefficient i of the KL polynomial of U(m, d; rho) by the tableau
    formula, 0 outside 0 <= i < d/2 (i = 0 always counts)."""
    if i < 0 or (i > 0 and 2 * i >= d):
        return 0
    b = d - 2 * i + 1
    overline = termwise_count_skyt(2, i, b) - termwise_count_skyt(2, i, b - 1) if i else 0
    return termwise_count_skyt(m + 1, i, b) - rho * overline


def termwise_klum(m: int, d: int, i: int) -> int:
    """Coefficient i of the KL polynomial of U(m, d) by the older closed form,
    with a = m + 1 and b = d - 2i + 1: C(b+2i+a-2, i) / (b+i-1) times the sum
    over h < a - 1 of C(b+i+h-1, h+i+1) C(i-1+h, h); 0 outside 0 <= i < d/2."""
    if i < 0 or (i > 0 and 2 * i >= d):
        return 0
    if i == 0:
        return 1
    a, b = m + 1, d - 2 * i + 1
    inner = sum(comb(b + i + h - 1, h + i + 1) * comb(i - 1 + h, h) for h in range(a - 1))
    value, rem = divmod(comb(b + 2 * i + a - 2, i) * inner, b + i - 1)
    if rem:
        raise AssertionError(f"b + i - 1 = {b + i - 1} does not divide the closed form")
    return value


def termwise_char_poly_rho(m: int, d: int, rho: int) -> list[int]:
    """Coefficients, low degree first, of the characteristic polynomial of
    U(m, d; rho) for d >= 1: (-1)^d (C(m+d-1, d-1) - rho), then
    (-1)^(d-1) (C(m+d, d-1) - rho), then (-1)^(d-i) C(m+d, d-i) for i >= 2."""
    coeffs = [(-1) ** (d - i) * comb(m + d, d - i) for i in range(d + 1)]
    coeffs[0] = (-1) ** d * (comb(m + d - 1, d - 1) - rho)
    coeffs[1] = (-1) ** (d - 1) * (comb(m + d, d - 1) - rho)
    return coeffs

"""Matroids over explicit basis systems, given as bitmasks on {1..n}.

Element e of the ground set corresponds to bit e - 1.  A matroid is stored
as its full list of bases together with the rank of every subset.  The rank
table comes from a dynamic programme over subsets: the given bases and their
subsets are the independent sets, and a dependent set has the largest rank of
its one-smaller subsets, so r(S) = max |S & B| over the bases.  A family of
equal-size sets is a basis system exactly when that table is submodular, and
construction checks this locally at every subset; the pairwise exchange
search runs only to name a witness for a family that fails.  Each distinct
family is validated once: the tables that pass are kept in a bounded LRU
memo keyed by the exact (n, sorted masks), so a family met again, a minor
above all, skips both the table and the check.  Closure, the
lattice of flats, minors and the characteristic polynomial (Whitney's sum
over all subsets) are computed from the table directly; nothing here needs
Mobius values.

The Kazhdan-Lusztig polynomial has two independent routes, each serving as
the oracle that the other and the formula layer are checked against:

* :func:`kl_poly` solves for P of every contraction at a flat at once, by
  the palindromicity of the Z-polynomial, in one pass over the subset cube.
  It reads only the rank table: no lattice, minor or characteristic polynomial.
* :func:`kl_poly_recurrence` solves the defining recurrence, building and
  validating a localization and a contraction at every flat.

Neither route reads the other's results, nor any closed form.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import combinations, zip_longest
from typing import Collection, Iterable, NamedTuple

from .errors import (
    EmptyBases,
    ExchangeAxiomViolation,
    HasLoops,
    InvalidParameters,
    MixedCardinality,
    NotAFlat,
)
from .exactarith import IntPoly

GroundSubset = int  # bitmask over {1..n}

MAX_GROUND = 16  # every matroid holds a 2**n rank table; keep it sane


def mask_from(elements: Iterable[int], n: int) -> GroundSubset:
    mask = 0
    for e in elements:
        if not 1 <= e <= n:
            raise ValueError(f"element {e} outside ground set 1..{n}")
        mask |= 1 << (e - 1)
    return mask


def elements_of(mask: GroundSubset) -> tuple[int, ...]:
    if mask < 0:
        raise ValueError(f"bitmask {mask} is negative")
    out = []
    e = 1
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return tuple(out)


def ground_mask(n: int) -> GroundSubset:
    return (1 << n) - 1


def _as_mask(subset: Collection[int] | GroundSubset, n: int) -> GroundSubset:
    """A subset of 1..n as a bitmask; an int must already be one, in 0..2**n - 1."""
    if not isinstance(subset, int):
        return mask_from(subset, n)
    if not 0 <= subset < 1 << n:
        raise ValueError(f"bitmask {subset} outside ground set of size {n}")
    return subset


def _iter_bits(mask: int):
    if mask < 0:
        raise ValueError(f"bitmask {mask} is negative")
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


class Matroid:
    """Immutable matroid with an explicit, validated basis list and rank table.

    Use :func:`matroid_from_bases` to construct one; the constructor itself
    assumes masks and a rank table that already passed validation.
    """

    __slots__ = ("n", "bases", "rank", "_rank_table", "_lattice")

    def __init__(
        self, n: int, base_masks: tuple[GroundSubset, ...], rank_table: tuple[int, ...]
    ):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bases", base_masks)
        object.__setattr__(self, "rank", base_masks[0].bit_count() if base_masks else 0)
        object.__setattr__(self, "_rank_table", rank_table)
        object.__setattr__(self, "_lattice", None)

    def __setattr__(self, name, value):
        raise AttributeError("Matroid is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matroid):
            return NotImplemented
        return self.n == other.n and self.bases == other.bases

    def __hash__(self) -> int:
        return hash((self.n, self.bases))

    def __repr__(self) -> str:
        shown = [set(elements_of(b)) or set() for b in self.bases[:6]]
        more = "..." if len(self.bases) > 6 else ""
        return f"Matroid(n={self.n}, rank={self.rank}, bases={shown}{more})"

    def key(self) -> tuple[int, tuple[int, ...]]:
        return (self.n, self.bases)

    # -- rank machinery -----------------------------------------------------

    def rank_table(self) -> tuple[int, ...]:
        """rank of every subset, indexed by bitmask (2**n entries)."""
        return self._rank_table

    def rank_of(self, subset: Collection[int] | GroundSubset) -> int:
        """Largest intersection of the subset with a basis."""
        return self._rank_table[_as_mask(subset, self.n)]

    def closure_of(self, subset: Collection[int] | GroundSubset) -> GroundSubset:
        """All elements whose addition does not raise the rank of the subset."""
        return self._closure(_as_mask(subset, self.n))

    def _closure(self, mask: GroundSubset) -> GroundSubset:
        # closure_of without the range check, for a mask known to be in range
        table = self.rank_table()
        r = table[mask]
        closed = mask
        for e in range(self.n):
            bit = 1 << e
            if not mask & bit and table[mask | bit] == r:
                closed |= bit
        return closed

    def lattice(self) -> "FlatLattice":
        if self._lattice is None:
            object.__setattr__(self, "_lattice", _build_lattice(self))
        return self._lattice


def _dp_rank_table(n: int, masks: Collection[GroundSubset]) -> list[int]:
    """r(S) = max |S & B| over the given sets B, for every S, in O(2**n * n).

    S is independent when it lies inside some B; a dependent S has the
    largest rank of its one-smaller subsets.
    """
    size = 1 << n
    top = max((b.bit_count() for b in masks), default=0)
    independent = bytearray(size)
    for b in masks:
        independent[b] = 1
    # descending, so every superset has passed its mark down before S is read
    for s in range(size - 1, 0, -1):
        if independent[s]:
            rest = s
            while rest:
                low = rest & -rest
                independent[s ^ low] = 1
                rest ^= low
    table = [0] * size
    for s in range(1, size):
        count = s.bit_count()
        if independent[s]:
            table[s] = count
            continue
        # a dependent set has rank below its size, and no rank exceeds top
        bound = count - 1 if count <= top else top
        best = 0
        rest = s
        while rest:
            low = rest & -rest
            r = table[s ^ low]
            if r > best:
                best = r
                if r == bound:
                    break
            rest ^= low
        table[s] = best
    return table


def _is_submodular(n: int, table: list[int]) -> bool:
    """Local submodularity: every set has the rank of its closure.

    For a monotone rank that rises by at most one per element this is
    equivalent to submodularity, i.e. to the rank axioms.
    """
    bits = [1 << e for e in range(n)]
    top = table[-1]
    for s, r in enumerate(table):
        if r == top:
            continue  # the closure is the whole ground set, of rank top
        closed = s
        for bit in bits:
            if table[s | bit] == r:
                closed |= bit
        if table[closed] != r:
            return False
    return True


def _exchange_witness(
    ordered: tuple[GroundSubset, ...],
) -> tuple[tuple[int, ...], tuple[int, ...], int] | None:
    """First (basis, other, element) in pairwise order that admits no exchange."""
    basis_set = frozenset(ordered)
    for b1 in ordered:
        for b2 in ordered:
            if b1 == b2:
                continue
            candidates = b2 & ~b1
            for bit in _iter_bits(b1 & ~b2):
                stripped = b1 ^ bit
                if not any(stripped | c in basis_set for c in _iter_bits(candidates)):
                    return elements_of(b1), elements_of(b2), bit.bit_length()
    return None


class _TableMemo:
    """Validated rank tables by exact (n, sorted masks), least recently used
    first out once the tables held exceed ``budget`` entries in all.

    It holds tables, not matroids, so that no lattice of flats stays alive.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.held = 0
        self._tables: OrderedDict[tuple[int, tuple[int, ...]], tuple[int, ...]] = OrderedDict()

    def __len__(self) -> int:
        return len(self._tables)

    def get(self, key: tuple[int, tuple[int, ...]]) -> tuple[int, ...] | None:
        table = self._tables.get(key)
        if table is not None:
            self._tables.move_to_end(key)
        return table

    def put(self, key: tuple[int, tuple[int, ...]], table: tuple[int, ...]) -> None:
        self._tables[key] = table
        self.held += len(table)
        while self.held > self.budget:
            self.held -= len(self._tables.popitem(last=False)[1])

    def clear(self) -> None:
        self._tables.clear()
        self.held = 0


# 2**20 entries is about 8 MB of slots: sixteen 16-element tables
_TABLE_MEMO = _TableMemo(1 << 20)


def check_ground_size(n: int) -> None:
    """Raise InvalidParameters when n exceeds MAX_GROUND.

    A builder that lists its bases calls this first: there are C(n, d) of
    them, far more work than the refusal that would follow.
    """
    if n > MAX_GROUND:
        raise InvalidParameters(
            f"ground set of size {n} exceeds the {MAX_GROUND} element limit for matroids"
        )


def matroid_from_bases(n: int, bases: Iterable[Collection[int] | GroundSubset]) -> Matroid:
    """Validate a basis system and build the matroid.

    Bases may be given as collections of elements in 1..n or as bitmasks.
    Raises InvalidParameters when n exceeds MAX_GROUND, and EmptyBases,
    MixedCardinality, or ExchangeAxiomViolation (with a witnessing pair and
    element) when the family is not a basis system.  A family that passed
    before, in any order or form, reuses its memoized rank table; a family
    that failed is checked again and raises again.
    """
    if n < 0:
        raise ValueError(f"ground set size must be non-negative, got {n}")
    check_ground_size(n)
    masks: set[GroundSubset] = set()
    for b in bases:
        masks.add(_as_mask(b, n))
    if not masks:
        raise EmptyBases("a matroid needs at least one basis")
    sizes = {m.bit_count() for m in masks}
    if len(sizes) > 1:
        raise MixedCardinality(f"bases of different sizes: {sorted(sizes)}")
    ordered = tuple(sorted(masks))
    key = (n, ordered)
    known = _TABLE_MEMO.get(key)
    if known is not None:
        return Matroid(n, ordered, known)
    table = _dp_rank_table(n, ordered)
    if not _is_submodular(n, table):
        witness = _exchange_witness(ordered)
        if witness is None:
            raise RuntimeError(
                "internal error: the rank table is not submodular, yet every pair "
                "of bases satisfies the exchange axiom"
            )
        raise ExchangeAxiomViolation(*witness)
    known = tuple(table)
    _TABLE_MEMO.put(key, known)
    return Matroid(n, ordered, known)


def uniform_matroid(m: int, d: int) -> Matroid:
    """Rank-d matroid on m + d elements whose bases are all d-subsets."""
    if m < 0 or d < 0:
        raise ValueError(f"uniform matroid needs m, d >= 0 (got m={m}, d={d})")
    n = m + d
    check_ground_size(n)
    bases = [mask_from(combo, n) for combo in combinations(range(1, n + 1), d)]
    return matroid_from_bases(n, bases)


def rank(matroid: Matroid, subset: Collection[int] | GroundSubset) -> int:
    """Largest intersection of the subset with a basis."""
    return matroid.rank_of(subset)


def closure(matroid: Matroid, subset: Collection[int] | GroundSubset) -> GroundSubset:
    """All elements whose addition does not raise the rank of the subset."""
    return matroid.closure_of(subset)


class FlatLattice(NamedTuple):
    """Closure-closed subsets ordered by inclusion, with their ranks.

    A named tuple ``(n, flats, ranks)``.  ``flats`` is sorted by
    (cardinality, mask), a linear extension of inclusion; ``ranks[k]`` is
    the rank of ``flats[k]``.
    """

    n: int
    flats: tuple[GroundSubset, ...]
    ranks: tuple[int, ...]


def _build_lattice(matroid: Matroid) -> FlatLattice:
    table = matroid.rank_table()
    seen = {matroid._closure(s) for s in range(1 << matroid.n)}
    flats = tuple(sorted(seen, key=lambda f: (f.bit_count(), f)))
    return FlatLattice(matroid.n, flats, tuple(table[f] for f in flats))


def flats(matroid: Matroid) -> FlatLattice:
    return matroid.lattice()


def _minor_bases(
    table: tuple[int, ...], kept: tuple[int, ...], size: int, anchor: int, want: int
) -> list[GroundSubset]:
    """The size-subsets S of the kept bits with r(S | anchor) == want, each
    relabelled onto bits 1, 2, 4, ... in the kept bits' order.

    Both combination streams run in the same lexicographic order, so each
    parent subset is paired with its relabelled image.
    """
    own = [1 << j for j in range(len(kept))]
    return [
        sum(new)
        for old, new in zip(combinations(kept, size), combinations(own, size))
        if table[sum(old) | anchor] == want
    ]


def localization(matroid: Matroid, flat: Collection[int] | GroundSubset) -> Matroid:
    """Restriction to a flat: ground set F, independent sets those of the parent inside F.

    The result is relabelled onto 1..|F| preserving element order.
    """
    mask = _as_mask(flat, matroid.n)
    if matroid._closure(mask) != mask:
        raise NotAFlat(f"{set(elements_of(mask))} is not a flat")
    table = matroid.rank_table()
    r = table[mask]
    kept = tuple(_iter_bits(mask))
    return matroid_from_bases(len(kept), _minor_bases(table, kept, r, 0, r))


def contraction(matroid: Matroid, flat: Collection[int] | GroundSubset) -> Matroid:
    """Quotient by a flat: ground set is the complement, a set is independent
    when its union with a basis of the flat is independent in the parent.

    The result is relabelled onto 1..(n - |F|) preserving element order.
    """
    mask = _as_mask(flat, matroid.n)
    if matroid._closure(mask) != mask:
        raise NotAFlat(f"{set(elements_of(mask))} is not a flat")
    table = matroid.rank_table()
    r = table[mask]
    anchor = 0
    for bit in _iter_bits(mask):
        if table[anchor | bit] > table[anchor]:
            anchor |= bit
    kept = tuple(_iter_bits(ground_mask(matroid.n) & ~mask))
    k = matroid.rank - r
    return matroid_from_bases(len(kept), _minor_bases(table, kept, k, anchor, k + r))


# Global result caches, keyed by the exact (n, sorted bases) representation of
# a matroid, never by isomorphism class: the oracle must stay independent of
# the minor predictions it is used to verify.  Plain dicts are fine under the
# GIL; a concurrent duplicate insert just recomputes the same immutable value.
_CHAR_CACHE: dict[tuple[int, tuple[int, ...]], IntPoly] = {}
# P from the Z-polynomial solver
_KL_CACHE: dict[tuple[int, tuple[int, ...]], IntPoly] = {}
# (P, right-hand side of the recurrence that P was solved from); kept apart
# from _KL_CACHE so that the two routes never read each other's results
_RECURRENCE_CACHE: dict[tuple[int, tuple[int, ...]], tuple[IntPoly, IntPoly]] = {}


def char_poly(matroid: Matroid) -> IntPoly:
    """Characteristic polynomial by Whitney's sum of (-1)^|S| t^(rank M - rank S)
    over all subsets S of the ground set: one pass over the rank table.

    Only defined for loopless matroids; a loop would silently zero out the
    standard identities, so it is treated as misuse and raises HasLoops.
    """
    key = matroid.key()
    cached = _CHAR_CACHE.get(key)
    if cached is not None:
        return cached
    if matroid.n > 0 and matroid.closure_of(0) != 0:
        raise HasLoops(f"loops {set(elements_of(matroid.closure_of(0)))} present")
    d = matroid.rank
    coeffs = [0] * (d + 1)
    for s, r in enumerate(matroid.rank_table()):
        coeffs[d - r] += -1 if s.bit_count() & 1 else 1
    poly = IntPoly(coeffs)
    _CHAR_CACHE[key] = poly
    return poly


def kl_poly(matroid: Matroid) -> IntPoly:
    """Kazhdan-Lusztig polynomial, from the palindromicity of the Z-polynomial.

    Z_M(t) = sum over flats F of t^(rank F) P_{M/F}(t) is palindromic of
    degree rank M, and P_M is the unique polynomial of degree < rank/2 that
    makes it so (Proudfoot, Xu and Young, "The Z-polynomial of a matroid").
    Applied to every contraction M/F, from the largest subsets of the ground
    set down, this gives P_{M/F} for every flat F from the rank table alone.
    Memoized on the exact (n, bases) representation.  Rank 0 gives 1, loops
    or not; a loop in positive rank raises HasLoops.
    """
    key = matroid.key()
    cached = _KL_CACHE.get(key)
    if cached is None:
        cached = _KL_CACHE[key] = _z_solve(matroid)
    return cached


# bits per packed degree slot on the first attempt of the cube solve
_Z_SLOT_BITS = 64


def _z_solve(matroid: Matroid, width: int | None = None) -> IntPoly:
    """P_{M/F}[j] = R_F[rank M - j] - R_F[rank F + j] for j < (rank M - rank F)/2,
    where R_F(t) = sum over flats G strictly above F of t^(rank G) P_{M/G}(t).

    R_F comes from the layered superset transform of fast subset convolution
    (Bjorklund, Husfeldt, Kaski and Koivisto): h[S][k] packs, one signed
    width-bit slot per degree, the sum of t^(rank T) P_{M/T}(t) over the flats
    T below the top with T containing S and |T - S| = k; each such T is met
    through each of its k elements outside S, so k h[S][k] is the sum of
    h[S + x][k - 1] over x outside S.  A packed sum adds at most n 2^n values,
    so |c| n 2^n < 2^(width - 1) for every packed c keeps every slot exact;
    past that bound the solve restarts at twice the width.
    """
    top = matroid.rank
    if top == 0:
        return IntPoly([1])
    if matroid.closure_of(0) != 0:
        raise HasLoops("the Z-polynomial solver is implemented for loopless matroids only")
    table = matroid.rank_table()
    n = matroid.n
    # a mask of full rank has only the top flat above it, so it holds nothing
    levels: list[list[int]] = [[] for _ in range(n + 1)]
    for s, r in enumerate(table):
        if r < top:
            levels[s.bit_count()].append(s)
    width = width or _Z_SLOT_BITS
    half = 1 << (width - 1)
    slot = (1 << width) - 1
    # half in each slot keeps a sum of values in (-half, half) from borrowing
    bias = sum(half << width * d for d in range(top + 1))
    bits = [1 << e for e in range(n)]
    above: dict[int, list[int]] = {}  # h of the masks one element larger
    for size in range(n - 1, -1, -1):
        here: dict[int, list[int]] = {}
        for s in levels[size]:
            r = table[s]
            flat = True
            uppers = []
            for bit in bits:
                if not s & bit:
                    t = s | bit
                    if table[t] == r:
                        flat = False
                    upper = above.get(t)
                    if upper:
                        uppers.append(upper)
            h = [0] + [sum(col) // k for k, col in enumerate(zip_longest(*uppers, fillvalue=0), 1)]
            if flat:
                # R_F by degree rank F .. top
                rest = sum(h) + (1 << width * top) + bias
                values = [(rest >> width * d & slot) - half for d in range(r, top + 1)]
                coeffs = [values[top - r - j] - values[j] for j in range((top - r + 1) // 2)]
                if max(map(abs, coeffs)) * (n << n) >= half:
                    return _z_solve(matroid, 2 * width)
                h[0] = sum(c << width * (r + j) for j, c in enumerate(coeffs))
            while h and not h[-1]:
                h.pop()
            here[s] = h
        above = here
    # the last mask visited is the empty set, the bottom flat
    return IntPoly(coeffs)


def kl_poly_recurrence(matroid: Matroid) -> IntPoly:
    """Kazhdan-Lusztig polynomial, straight from the defining recurrence.

    The unique polynomial P with deg P < rank/2, constant value 1 in rank 0,
    and t^rank P(1/t) - P(t) equal to the sum over nonempty flats F of
    char_poly(localization at F) * kl_poly_recurrence(contraction at F).
    Since the reversal only produces terms of degree > rank/2, P is
    recovered by negating the low-degree part of that sum.  Memoized on the
    exact (n, bases) representation, together with the sum itself, in a memo
    of its own: this route never reads the results of :func:`kl_poly`.
    """
    return _recurrence_solve(matroid)[0]


def kl_recurrence_rhs(matroid: Matroid) -> IntPoly:
    """The sum over nonempty flats that :func:`kl_poly_recurrence` solved P from.

    Its terms of degree above rank/2 are never read by the solver, so
    comparing the whole sum with t^rank P(1/t) - P(t) is a real check.
    The rank-0 sum is empty.
    """
    return _recurrence_solve(matroid)[1]


def _recurrence_solve(matroid: Matroid) -> tuple[IntPoly, IntPoly]:
    key = matroid.key()
    cached = _RECURRENCE_CACHE.get(key)
    if cached is not None:
        return cached
    d = matroid.rank
    if d == 0:
        solved = (IntPoly([1]), IntPoly())
        _RECURRENCE_CACHE[key] = solved
        return solved
    if matroid.closure_of(0) != 0:
        raise HasLoops("the recurrence is implemented for loopless matroids only")
    lat = matroid.lattice()
    total = IntPoly()
    for flat in lat.flats:
        if flat == 0:
            continue
        local = localization(matroid, flat)
        contracted = contraction(matroid, flat)
        total = total + char_poly(local) * kl_poly_recurrence(contracted)
    solved = (IntPoly(-total.coeff(j) for j in range((d + 1) // 2)), total)
    _RECURRENCE_CACHE[key] = solved
    return solved


def clear_caches() -> None:
    _TABLE_MEMO.clear()
    _CHAR_CACHE.clear()
    _KL_CACHE.clear()
    _RECURRENCE_CACHE.clear()


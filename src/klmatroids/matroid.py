"""Matroids over explicit basis systems, given as bitmasks on {1..n}.

Element e of the ground set corresponds to bit e - 1.  A matroid is stored
as its full list of bases together with the rank of every subset.  The rank
table is built on bit-packed subset indicators, ints whose bit S marks the
subset S, so each step is a few big-integer operations rather than a loop
over subsets: the bases and their subsets are the independent sets, and
r(S) >= k exactly when S holds an independent k-set, so r(S) = max |S & B|
over the bases.  A family of equal-size sets is a basis system exactly when
that table satisfies the local rank axiom, which construction checks on the
same indicators; the pairwise exchange search runs only to name a witness
for a family that fails.  The same indicators give the flats, the sets
that every element outside raises in rank, and the matroid keeps their
indicator beside its table of one byte per subset.  Each distinct family
is validated once: one bounded LRU memo keeps the matroids that pass by
exact (n, sorted masks), and family members by (m, d, rho, offset) too, so
a family met again, a minor above all, returns the same matroid.  The
lattice of flats, minors and the characteristic polynomial (Whitney's sum
over all subsets, as counts of the bytes 2 r(S) + |S| mod 2) are read from
the table and the flat indicator, not Mobius values.  One table per
ground-set size, built on first use, holds the subset indicators, the
single-element masks that minors are relabelled onto, every subset as an
int, the highest bit of every gap that the cube solve looks up, and the
parity of every subset, which the characteristic polynomial counts against.
Ground sets stop at MAX_GROUND elements; ``ground_size_refusal`` is the cap's
one message, which the builders raise and the oracle route refuses by.

The Kazhdan-Lusztig polynomial has two independent routes, each serving as
the oracle that the other and the formula layer are checked against:

* :func:`kl_poly` solves for P of every contraction at a flat at once, by
  the palindromicity of the Z-polynomial.  It visits the non-spanning
  subsets from the largest mask down and sums over the flats above each by
  divide and conquer on the highest element, with two packed ints per
  subset.  The non-spanning masks of a subset's block of supersets are one
  run of the sorted masks: one ascending loop over the run merges the
  block, and one loop over the same run pushes it into its lower sibling.
  It reads only the rank table and the flat indicator: no lattice, minor or
  characteristic polynomial.  Every P has constant term 1, so only the
  coefficients of degree 1 and up are read off the cube.  The matroid keeps
  its P in a slot of its own, so the result lives exactly as long as it does.
* :func:`kl_poly_recurrence` solves the defining recurrence.  It lists the
  localization and the contraction of every flat as exact labelled basis
  families, each in one pass of iterators with no sort, builds and
  validates each distinct family once, and weights each distinct pair's
  term by the number of flats that give it.

Neither route reads the other's results, nor any closed form.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, OrderedDict
from itertools import chain, combinations, compress, filterfalse, repeat
from operator import index
from typing import Collection, Iterable, NamedTuple

from .errors import (
    EmptyBases,
    ExchangeAxiomViolation,
    HasLoops,
    InvalidParameters,
    MixedCardinality,
    NotAFlat,
)
from .exactarith import IntPoly, _integers

GroundSubset = int  # bitmask over {1..n}

MAX_GROUND = 16  # every matroid holds a 2**n rank table; keep it sane


def mask_from(elements: Iterable[int], n: int) -> GroundSubset:
    mask = 0
    for e in elements:
        try:
            e = index(e)
        except TypeError:
            raise TypeError(f"element {e!r} is not an integer") from None
        if not 1 <= e <= n:
            raise ValueError(f"element {e} outside ground set 1..{n}")
        mask |= 1 << (e - 1)
    return mask


def elements_of(mask: GroundSubset) -> tuple[int, ...]:
    return tuple(bit.bit_length() for bit in _iter_bits(mask))


def ground_mask(n: int) -> GroundSubset:
    return (1 << n) - 1


def d_subsets(n: int, d: int) -> list[GroundSubset]:
    """Every d-subset of {1..n} as a bitmask, in lexicographic order."""
    return [sum(c) for c in combinations([1 << e for e in range(n)], d)]


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
    """Immutable matroid with an explicit, validated basis list, rank table
    and flat indicator, whose bit S marks the flat S.

    Use :func:`matroid_from_bases` to construct one; the constructor itself
    assumes masks, a rank table and flats that already passed validation.
    The ``_kl`` slot stays unset until :func:`kl_poly` stores its result there.
    """

    __slots__ = ("n", "bases", "rank", "_rank_table", "_flats", "_kl")

    def __init__(self, n: int, bases: tuple[GroundSubset, ...], table: bytes, flats: int):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "rank", bases[0].bit_count() if bases else 0)
        object.__setattr__(self, "_rank_table", table)
        object.__setattr__(self, "_flats", flats)

    def __setattr__(self, name, value):
        raise AttributeError("Matroid is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through __init__; the _kl slot starts empty
        return Matroid, (self.n, self.bases, self._rank_table, self._flats)

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

    def rank_table(self) -> bytes:
        """rank of every subset, indexed by bitmask: one byte per subset, 2**n in all."""
        return self._rank_table

    def rank_of(self, subset: Collection[int] | GroundSubset) -> int:
        """Largest intersection of the subset with a basis."""
        return self._rank_table[_as_mask(subset, self.n)]

    def closure_of(self, subset: Collection[int] | GroundSubset) -> GroundSubset:
        """All elements whose addition does not raise the rank of the subset."""
        mask = _as_mask(subset, self.n)
        table = self._rank_table
        r = table[mask]
        closed = mask
        for e in range(self.n):
            bit = 1 << e
            if not mask & bit and table[mask | bit] == r:
                closed |= bit
        return closed

    def lattice(self) -> "FlatLattice":
        """The flats by (cardinality, mask): a stable sort keeps the mask order."""
        marked = compress(_tables(self.n).subsets, _spread(self._flats, self.n))
        flats = tuple(sorted(marked, key=int.bit_count))
        return FlatLattice(self.n, flats, tuple(map(self._rank_table.__getitem__, flats)))


class _Tables(NamedTuple):
    """The fixed tables of a ground set of size n; an indicator is an int
    whose bit S marks the subset S."""

    without: list[int]  # bit S of without[e]: S lacks element e + 1
    size: list[int]  # bit S of size[k]: S has k elements
    bits: tuple[int, ...]  # the n single-element masks, highest first
    subsets: tuple[int, ...]  # subsets[S] is S itself, so compress over it makes no new int
    highest: tuple[int, ...]  # the highest power of two <= x (0 for 0), x < 2**(n - 1)
    parity: int  # byte S is |S| mod 2


# the tables by ground-set size; callers check the cap first, so it holds at
# most MAX_GROUND + 1 entries
_TABLES: dict[int, _Tables] = {}

# one byte per subset, 0 or 1, to and from the ASCII digits of a binary string
_BYTES_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_DIGITS_TO_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _tables(n: int) -> _Tables:
    """The tables of a ground set of size n, built on first use by doubling:
    without[e] repeats 2**e ones and 2**e zeros, the k-subsets of a ground
    set one element larger are its old k-subsets and its old (k - 1)-subsets
    plus the new element, and the ints in [2**e, 2**(e + 1)) have highest bit
    2**e.  ``highest`` bounds every gap u - s that the cube solve looks up,
    and ``parity`` spreads the odd-size indicators into bytes."""
    known = _TABLES.get(n)
    if known is None:
        without = []
        for e in range(n):
            lacking, period = (1 << (1 << e)) - 1, 2 << e
            while period < 1 << n:
                lacking |= lacking << period
                period <<= 1
            without.append(lacking)
        size = [1]  # on the empty ground set, the empty set alone
        for e in range(n):
            size = [low | high << (1 << e) for low, high in zip(size + [0], [0] + size)]
        highest = [0]
        for e in range(n - 1):
            highest += [1 << e] * (1 << e)
        known = _TABLES[n] = _Tables(
            without,
            size,
            tuple(1 << e for e in reversed(range(n))),
            tuple(range(1 << n)),
            tuple(highest),
            int.from_bytes(_spread(sum(size[1::2]), n), "little"),
        )
    return known


def _spread(indicator: int, n: int) -> bytes:
    """Byte S is bit S of the indicator, 0 or 1, for each of the 2**n subsets S."""
    return bin(indicator)[:1:-1].encode().translate(_DIGITS_TO_BYTES).ljust(1 << n, b"\0")


def _dp_rank_table(n: int, masks: Collection[GroundSubset]) -> tuple[bytes, list[int]]:
    """r(S) = max |S & B| over the given sets B, for every S, and the levels
    L_1, ..., L_top, where bit S of L_k marks r(S) >= k.

    Every step acts on a whole indicator at once, so a table takes
    O(n * top) big-integer operations.  The independent sets are the
    subsets of the given sets: each element in turn is taken out of every
    set holding it.  L_k is the up-closure of the independent k-sets, since
    r(S) >= k exactly when S holds one, and r(S) counts the levels holding
    S.  The levels are spread into one byte per subset and added, so the
    table is read off the bytes of one sum.
    """
    tables = _tables(n)
    marks = bytearray(1 << n)
    for b in masks:
        marks[b] = 1
    independent = int(marks[::-1].translate(_BYTES_TO_DIGITS), 2)
    for e, lacking in enumerate(tables.without):
        independent |= (independent & ~lacking) >> (1 << e)
    top = max((b.bit_count() for b in masks), default=0)
    levels = []
    for k in range(1, top + 1):
        level = independent & tables.size[k]
        for e, lacking in enumerate(tables.without):
            level |= (level & lacking) << (1 << e)
        levels.append(level)
    # bit S of a level becomes byte S of its lane; rank <= 16 keeps each byte exact
    lanes = sum(int.from_bytes(_spread(level, n), "little") for level in levels)
    return lanes.to_bytes(1 << n, "little"), levels


def _validated_flats(n: int, levels: list[int]) -> int | None:
    """The flat indicator of the table that _dp_rank_table gave with these
    levels, or None when the table fails the local rank axiom:
    r(S + x) = r(S + y) = r(S) implies r(S + x + y) = r(S)
    (Oxley, *Matroid Theory*, section 1.3).

    That table is monotone, has r(empty) = 0 and rises by at most one per
    element, and for such a table the axiom is equivalent to the rank axioms.
    It is also equivalent to every set having the rank of its closure: that
    test gives the axiom, as x and y lie in the closure of S, and the axiom,
    applied to the elements of the closure one at a time, gives the test.
    Bit S of same[x] marks x outside S with r(S + x) = r(S), that is, S lies
    in every level that S + x does.  The axiom fails at S, x, y when S is
    marked in same[x] and in same[y] but S + x is not marked in same[y].
    A set is a flat exactly when no element outside it keeps its rank, that
    is, when it is marked in no same[x].
    """
    same = []
    for x, lacking in enumerate(_tables(n).without):
        rises = 0
        for level in levels:
            rises |= (level >> (1 << x)) & ~level
        same.append(lacking & ~rises)
    kept = 0
    for x in range(n):
        shift = 1 << x
        kept |= same[x]
        for y in range(x + 1, n):
            if same[x] & same[y] & ~(same[y] >> shift):
                return None
    return ((1 << (1 << n)) - 1) & ~kept


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
    """Validated matroids by exact (n, sorted masks), and family members by
    (m, d, rho, offset), least recently used first out once their rank
    tables exceed ``budget`` bytes in all.

    A matroid holds no lattice of flats, so its table bounds what it keeps
    alive.  Every entry counts its table, a member under both keys twice.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.held = 0
        self._matroids: OrderedDict[tuple, Matroid] = OrderedDict()

    def __len__(self) -> int:
        return len(self._matroids)

    def get(self, key: tuple) -> Matroid | None:
        matroid = self._matroids.get(key)
        if matroid is not None:
            self._matroids.move_to_end(key)
        return matroid

    def put(self, key: tuple, matroid: Matroid) -> None:
        self._matroids[key] = matroid
        self.held += 1 << matroid.n
        while self.held > self.budget:
            _, old = self._matroids.popitem(last=False)
            self.held -= 1 << old.n

    def clear(self) -> None:
        self._matroids.clear()
        self.held = 0


# 2**20 bytes, about 1 MB of tables: sixteen 16-element ones
_TABLE_MEMO = _TableMemo(1 << 20)


def ground_size_refusal(n: int) -> str | None:
    """The message refusing a ground set of n elements, None within MAX_GROUND.
    A builder raises it before listing its C(n, d) bases; the oracle route reads it."""
    if n > MAX_GROUND:
        return f"ground set of size {n} exceeds the {MAX_GROUND} element limit for matroids"
    return None


def matroid_from_bases(n: int, bases: Iterable[Collection[int] | GroundSubset]) -> Matroid:
    """Validate a basis system and build the matroid.

    Bases may be given as collections of elements in 1..n or as bitmasks.
    Raises InvalidParameters when n is not an integer or exceeds MAX_GROUND,
    ValueError when it is negative, and EmptyBases, MixedCardinality, or
    ExchangeAxiomViolation (with a witnessing pair and element) when the
    family is not a basis system.  A family that passed before, in any order
    or form, returns the memoized matroid itself; a family that failed is
    checked again and raises again.
    """
    if type(n) is not int:
        (n,) = _integers(InvalidParameters, n=n)
    if n < 0:
        raise ValueError(f"ground set size must be non-negative, got {n}")
    if refusal := ground_size_refusal(n):
        raise InvalidParameters(refusal)
    masks: set[GroundSubset] = set()
    limit = 1 << n
    for b in bases:
        # an int mask in range needs no conversion; _as_mask checks the rest
        masks.add(b if type(b) is int and 0 <= b < limit else _as_mask(b, n))
    if not masks:
        raise EmptyBases("a matroid needs at least one basis")
    sizes = {m.bit_count() for m in masks}
    if len(sizes) > 1:
        raise MixedCardinality(f"bases of different sizes: {sorted(sizes)}")
    ordered = tuple(sorted(masks))
    key = (n, ordered)
    known = _TABLE_MEMO.get(key)
    if known is not None:
        return known
    table, levels = _dp_rank_table(n, ordered)
    flats = _validated_flats(n, levels)
    if flats is None:
        witness = _exchange_witness(ordered)
        if witness is None:
            raise RuntimeError(
                "internal error: the rank table is not submodular, yet every pair "
                "of bases satisfies the exchange axiom"
            )
        raise ExchangeAxiomViolation(*witness)
    known = Matroid(n, ordered, table, flats)
    _TABLE_MEMO.put(key, known)
    return known


def removed_block_masks(d: int, rho: int, offset: int = 0) -> list[GroundSubset]:
    """The rho removed d-blocks after label ``offset``: block l holds the
    labels offset + l d + 1 .. offset + (l + 1) d.  Rank 0 removes none."""
    block = (1 << d) - 1
    return [block << (offset + ell * d) for ell in range(rho if d else 0)]


def _build_cached(m: int, d: int, rho: int, offset: int) -> Matroid:
    """U(m, d) minus the rho consecutive d-blocks after label ``offset``, kept
    in the memo under (m, d, rho, offset) too; the caller validated the ints.
    A hit refreshes both entries, so the (n, bases) one never ages out first."""
    known = _TABLE_MEMO.get((m, d, rho, offset))
    if known is None:
        if refusal := ground_size_refusal(n := m + d):
            raise InvalidParameters(refusal)
        removed = set(removed_block_masks(d, rho, offset))
        known = matroid_from_bases(n, [b for b in d_subsets(n, d) if b not in removed])
        _TABLE_MEMO.put((m, d, rho, offset), known)
    elif _TABLE_MEMO.get(known.key()) is None:
        _TABLE_MEMO.put(known.key(), known)
    return known


def uniform_matroid(m: int, d: int) -> Matroid:
    """Rank-d matroid on m + d elements whose bases are all d-subsets."""
    m, d = _integers(InvalidParameters, m=m, d=d)
    if m < 0 or d < 0:
        raise ValueError(f"uniform matroid needs m, d >= 0 (got m={m}, d={d})")
    return _build_cached(m, d, 0, 0)


class FlatLattice(NamedTuple):
    """Closure-closed subsets ordered by inclusion, with their ranks.

    A named tuple ``(n, flats, ranks)``.  ``flats`` is sorted by
    (cardinality, mask), a linear extension of inclusion; ``ranks[k]`` is
    the rank of ``flats[k]``.
    """

    n: int
    flats: tuple[GroundSubset, ...]
    ranks: tuple[int, ...]


def _minor_bases(
    table: bytes, kept: tuple[int, ...], size: int, anchor: int, want: int
) -> tuple[GroundSubset, ...]:
    """The size-subsets S of the kept bits with r(S | anchor) == want, each
    relabelled so that the j-th lowest kept bit becomes bit j, ascending.

    ``kept``, filtered from the parent's ``_tables(n).bits``, runs from the
    highest bit down, and so do the relabelled bits, ``_tables(len(kept)).bits``,
    so both combination streams come out in descending numeric order: each
    parent subset is paired with its image, and the hits reversed ascend.
    The anchor holds none of the kept bits, so S | anchor is the sum of S
    started at the anchor.  The rank test and the pairing run in C, one
    pass over each stream, and only the hits' images are summed.
    """
    ranks = map(table.__getitem__, map(sum, combinations(kept, size), repeat(anchor)))
    images = combinations(_tables(len(kept)).bits, size)
    return tuple(map(sum, compress(images, map(want.__eq__, ranks))))[::-1]


def _flat_mask(matroid: Matroid, flat: Collection[int] | GroundSubset) -> GroundSubset:
    """The flat as a bitmask; raises NotAFlat unless it is closed."""
    mask = _as_mask(flat, matroid.n)
    if not matroid._flats >> mask & 1:
        raise NotAFlat(f"{set(elements_of(mask))} is not a flat")
    return mask


def _localization_family(matroid: Matroid, mask: GroundSubset) -> tuple[int, tuple[int, ...]]:
    """(n, sorted bases) of the restriction to the flat ``mask``.  Known
    without a walk at an independent flat: the free matroid, with the flat
    its one basis."""
    table = matroid._rank_table
    r = table[mask]
    size = mask.bit_count()
    if r == size:
        return size, ((1 << size) - 1,)
    kept = tuple(filter(mask.__and__, _tables(matroid.n).bits))
    return size, _minor_bases(table, kept, r, 0, r)


def _contraction_family(matroid: Matroid, mask: GroundSubset) -> tuple[int, tuple[int, ...]]:
    """(n, sorted bases) of the contraction by the flat ``mask``: the
    (rank M - r(F))-subsets S of the complement with r(S | F) == rank M,
    which is r(S | B) for any basis B of F."""
    table = matroid._rank_table
    kept = tuple(filterfalse(mask.__and__, _tables(matroid.n).bits))
    top = matroid.rank
    return len(kept), _minor_bases(table, kept, top - table[mask], mask, top)


def localization(matroid: Matroid, flat: Collection[int] | GroundSubset) -> Matroid:
    """Restriction to a flat: ground set F, independent sets those of the parent inside F.

    The result is relabelled onto 1..|F| preserving element order.
    """
    return matroid_from_bases(*_localization_family(matroid, _flat_mask(matroid, flat)))


def contraction(matroid: Matroid, flat: Collection[int] | GroundSubset) -> Matroid:
    """Quotient by a flat: ground set is the complement, a set is independent
    when its union with a basis of the flat is independent in the parent.

    The result is relabelled onto 1..(n - |F|) preserving element order.
    """
    return matroid_from_bases(*_contraction_family(matroid, _flat_mask(matroid, flat)))


# (P, right-hand side of the recurrence that P was solved from) by the exact
# (n, sorted bases) representation, never by isomorphism class: the oracle
# must stay independent of the minor predictions it is used to verify.  The
# Z route keeps its results in each matroid's ``_kl`` slot, apart from this,
# so that the two routes never read each other's results.  Unbounded: each
# solve reads its minors' entries, which a bound would drop.  A plain dict is
# fine under the GIL; a concurrent duplicate insert recomputes the same value.
_RECURRENCE_CACHE: dict[tuple[int, tuple[int, ...]], tuple[IntPoly, IntPoly]] = {}


def _check_loopless(matroid: Matroid) -> None:
    """Raise HasLoops, naming the loops, unless the matroid has none."""
    if not matroid._flats & 1:  # the empty set is closed exactly when there are no loops
        raise HasLoops(f"loops {set(elements_of(matroid.closure_of(0)))} present")


def char_poly(matroid: Matroid) -> IntPoly:
    """Characteristic polynomial by Whitney's sum of (-1)^|S| t^(rank M - rank S)
    over all subsets S of the ground set, read off byte counts.

    Byte S of one big-int sum, twice the rank table plus the parity table,
    is 2 r(S) + (|S| mod 2), below 34 so no byte carries.  The coefficient of
    t^(rank M - r) is then the count of byte 2r less the count of byte 2r + 1.

    Only defined for loopless matroids; a loop would silently zero out the
    standard identities, so it is treated as misuse and raises HasLoops.
    """
    _check_loopless(matroid)
    n, d = matroid.n, matroid.rank
    packed = (int.from_bytes(matroid._rank_table, "little") << 1) + _tables(n).parity
    keys = packed.to_bytes(1 << n, "little")
    return IntPoly([keys.count(2 * r) - keys.count(2 * r + 1) for r in range(d, -1, -1)])


def kl_poly(matroid: Matroid) -> IntPoly:
    """Kazhdan-Lusztig polynomial, from the palindromicity of the Z-polynomial.

    Z_M(t) = sum over flats F of t^(rank F) P_{M/F}(t) is palindromic of
    degree rank M, and P_M is the unique polynomial of degree < rank/2 that
    makes it so (Proudfoot, Xu and Young, "The Z-polynomial of a matroid").
    Applied to every contraction M/F, from the largest subsets of the ground
    set down, this gives P_{M/F} for every flat F from the rank table alone.
    Memoized in the matroid's ``_kl`` slot, so a result lives exactly as
    long as its matroid.  Rank 0 gives 1, loops or not; a loop in positive
    rank raises HasLoops.
    """
    cached = getattr(matroid, "_kl", None)
    if cached is None:
        cached = _z_solve(matroid)
        object.__setattr__(matroid, "_kl", cached)
    return cached


# bits per packed degree slot on the first attempt of the cube solve: a
# slot holds a sum over fewer than 2**n flats, so 64 bits fit every
# coefficient below 2**47 at n = 16
_Z_SLOT_BITS = 64


def _z_solve(matroid: Matroid, width: int | None = None) -> IntPoly:
    """P_{M/F}[j] = R_F[rank M - j] - R_F[rank F + j] for j < (rank M - rank F)/2,
    where R_F(t) = sum over flats G strictly above F of t^(rank G) P_{M/G}(t).

    R_F is a superset sum, taken by divide and conquer on the highest element
    over the non-spanning masks, those below full rank: a spanning mask has
    only the top flat above it, which is left out.  The masks are visited in
    descending numeric order, so every superset of a mask comes before it.
    The block of a nonempty mask s is [s, s + span), span its lowest bit: the
    supersets of s that add only elements below its lowest one.  The
    non-spanning masks form a down-set, so those in the block are one run of
    the ascending list of them, from s up to the first mask at or past
    s + span; only they are read or written, as a spanning mask holds no sum.
    Two packed ints are kept per mask, each with one signed width-bit slot
    per degree:

    * inner[u] sums t^(rank G) P_{M/G}(t) over the flats G containing u in
      the widest block merged so far that holds u.  Visiting s first merges
      its block, one ascending pass over the run after s: each u, with h the
      highest bit of u - s (read from ``_TABLES``), lies in the block
      [s + h, s + 2h) of s + h, already merged when s + h was visited, and
      is added into inner[u - h] in the lower half [s, s + h).  In
      ascending order every half h is merged before half 2h reads it.
      Then, at a flat, the visit adds the value of s itself to inner[s].
    * outer[u] sums over the flats strictly above u in the blocks pushed into
      u so far.  Visiting s last pushes its block into its lower sibling
      [s - span, s), one pass over the same run from s on, adding inner[u]
      into outer[u - span].

    A flat G strictly above u lies in exactly one block pushed into u: that
    of the mask which agrees with u above the highest element x of G - u and
    holds x.  So outer[u] = R_u when u is visited.  Each flat reaches each
    sum along one path, so no sum is divided by a count of paths, as in a
    transform by layers, which meets a flat through each element it adds.
    The empty set, the bottom flat, comes last: nothing reads a sum after
    it, so its coefficients are read off outer[0] and its block is never
    merged.

    The constant term is 1 at every flat and is never read: R_F[rank M] = 1,
    since only the top flat reaches degree rank M, and R_F[rank F] = 0, since
    every flat above F holds some F + x, of rank rank F + 1.  So a flat of
    corank at most 2 reads no slot, and every other coefficient is the
    difference of two slots, in which their biases cancel.  A slot sums one
    coefficient from each of fewer than 2^n flats, so |c| 2^n < 2^(width - 1)
    for every packed c keeps every slot exact; each coefficient is checked
    as it is read, before it is packed.  The constant 1 is packed too, so a
    width too narrow for it restarts at once at twice the width, before any
    mask is visited; past the bound at a later coefficient the solve
    restarts the same way.
    """
    top = matroid.rank
    if top == 0:
        return IntPoly([1])
    _check_loopless(matroid)
    n = matroid.n
    width = width or _Z_SLOT_BITS
    half = 1 << (width - 1)
    if 1 << n >= half:
        return _z_solve(matroid, 2 * width)
    limit = (half - 1) >> n  # the largest |c| with |c| 2^n < half
    table = matroid.rank_table()
    flags = _spread(matroid._flats, n)
    tables = _tables(n)
    highest = tables.highest
    # the non-spanning masks, a down-set, in ascending order
    masks = [*compress(tables.subsets, table.translate(b"\1" * top + b"\0" * (256 - top)))]
    inner = [0] * (1 << n)
    outer = [0] * (1 << n)
    slot = (1 << width) - 1
    # half in each slot keeps a sum of values in (-half, half) from borrowing
    bias = sum(half << width * d for d in range(top))
    # masks[0] is the empty set, read off after the loop
    for pos in range(len(masks) - 1, 0, -1):
        s = masks[pos]
        span = s & -s
        # the non-spanning masks of the block [s, s + span) are masks[pos:end]
        end = bisect_left(masks, s + span, pos + 1)
        # merge the block: u goes into u - h, h the highest bit of u - s, so
        # afterwards inner holds the sums over the block of s, all but the
        # value of s itself
        for u in masks[pos + 1 : end]:
            inner[u - highest[u - s]] += inner[u]
        if flags[s]:
            r = table[s]
            # P_{M/F}[j] packed from the highest j down to 1, then the constant 1
            value = 0
            if top - r > 2:
                rest = outer[s] + bias
                for j in range((top - r - 1) // 2, 0, -1):
                    c = (rest >> width * (top - j) & slot) - (rest >> width * (r + j) & slot)
                    if c > limit or c < -limit:
                        return _z_solve(matroid, 2 * width)
                    value = (value << width) + c
            outer[s] = 0  # never read again; dropping it keeps fewer sums alive at once
            inner[s] += ((value << width) + 1) << width * r
        # push the block of s into its lower sibling [s - span, s)
        for u in masks[pos:end]:
            outer[u - span] += inner[u]
    # the bottom flat: P_M[j] for j from 1 up, kept as a list
    rest = outer[0] + bias
    coeffs = [
        (rest >> width * (top - j) & slot) - (rest >> width * j & slot)
        for j in range(1, (top + 1) // 2)
    ]
    if max(map(abs, coeffs), default=0) > limit:
        return _z_solve(matroid, 2 * width)
    return IntPoly([1, *coeffs])


def kl_poly_recurrence(matroid: Matroid) -> IntPoly:
    """Kazhdan-Lusztig polynomial, straight from the defining recurrence.

    The unique polynomial P with deg P < rank/2, constant value 1 in rank 0,
    and t^rank P(1/t) - P(t) equal to the sum over nonempty flats F of
    char_poly(localization at F) * kl_poly_recurrence(contraction at F).
    Since the reversal only produces terms of degree > rank/2, P is
    recovered by negating the low-degree part of that sum.  Flats whose
    two minors have the same exact (n, sorted bases) families share one
    term, taken once and multiplied by their number; isomorphic but
    differently labelled minors are kept apart.  Memoized on the
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
    _check_loopless(matroid)
    # most flats share their pair of minor families with others, so each
    # distinct family is built once and each distinct pair's term is counted
    pairs: Counter[tuple[tuple[int, tuple[int, ...]], ...]] = Counter()
    for flat in matroid.lattice().flats:
        if flat:  # lattice flats are closed, so they skip the NotAFlat check
            pairs[_localization_family(matroid, flat), _contraction_family(matroid, flat)] += 1
    families = dict.fromkeys(chain.from_iterable(pairs))  # each once, in first-seen order
    minors = {family: matroid_from_bases(*family) for family in families}
    total = IntPoly()
    for (local, contracted), count in pairs.items():
        total = total + char_poly(minors[local]) * kl_poly_recurrence(minors[contracted]) * count
    solved = (IntPoly(-total.coeff(j) for j in range((d + 1) // 2)), total)
    _RECURRENCE_CACHE[key] = solved
    return solved


def clear_caches() -> None:
    """Empty the matroid memo and the recurrence memo.  A matroid the caller
    still holds keeps its Z-route result; one built afresh is solved again."""
    _TABLE_MEMO.clear()
    _RECURRENCE_CACHE.clear()


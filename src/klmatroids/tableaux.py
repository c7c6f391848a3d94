"""Skew tableaux with three column groups, and their counting formulas.

The shape (a, i, b) consists of a left column of height a, then i - 1 middle
columns of height 2, then a right column of height b.  All columns share a
common two-row strip.

Cell coordinates: rows increase downward and the shared strip occupies rows
0 and 1.  Column 0 runs from row 0 down to row a - 1, middle columns 1..i-1
occupy rows 0..1, and column i runs from row -(b - 2) at its top down to
row 1.  A legal filling places 1..(a + 2i + b - 2) bijectively so that every
row increases rightward and every column increases downward.

The value types are tuples.  A SkewShape is the named triple (a, i, b),
checked when it is built, and a Filling is the immutable pair (shape,
entries); both are tuple subclasses, so that building, unpacking, comparing
and hashing them all run in C.  A filling's entries are one flat
column-major tuple: column 0 top to bottom, then each middle column, then
column i.  What the enumeration and the legality test need to know
about a shape is worked out once per shape (``_layout``): where each column
starts, the bitmask of the cells above and to the left of each cell, and the
index pairs whose entries must increase; the fillings are not kept, and
each ``enumerate_skyt`` call lists them afresh.  The half-turn rotation needs
no table, since in column-major order it is the reversal of the entries.

Counts need no enumeration.  ``count_skyt`` is an inclusion-exclusion over
straight-shape counts ``count_syt``, and the hooks of those straight shapes
group into a few factorials, so ``count_syt`` is one quotient of factorials
rather than a loop over the cells.  ``count_skyt`` takes that quotient only
for its first term: by the hook-length formula, two consecutive
straight-shape counts differ by a ratio of a few small integers, so each
later term is the one before times an exact ratio.
``count_skyt_rho_direct`` counts the Theorem 1 set independently of both, by
a dynamic programme over the order ideals of the cell poset (Stanley's
transfer-matrix method), so only listing the fillings (``enumerate_skyt``)
needs MAX_FILLINGS.
"""

from __future__ import annotations

import json
from functools import lru_cache
from math import factorial
from operator import index, itemgetter
from typing import NamedTuple

from .errors import IndexOutOfRange, InvalidParameters, InvalidShape
from .exactarith import binomial

MAX_FILLINGS = 10**6
"""Enumeration refuses a shape with more legal fillings than this: it holds
every filling in memory, and the count grows factorially with the shape."""

MAX_CELLS = 64
"""Enumeration and the direct count refuse a shape with more cells than this.
Thin shapes such as (a, 1, 2) stay under MAX_FILLINGS with a thousand cells,
and their fillings would hold a billion entries between them."""


class _ShapeFields(NamedTuple):
    a: int
    i: int
    b: int


class SkewShape(_ShapeFields):
    """The three-column-group diagram with left height a, i - 1 middle columns, right height b."""

    __slots__ = ()

    def __new__(cls, a: int, i: int, b: int) -> "SkewShape":
        if i < 1:
            raise InvalidShape(f"shape needs at least one column step, got i={i}")
        if a < 2 or b < 2:
            raise InvalidShape(f"no cells to fill when a or b is below 2 (a={a}, b={b})")
        return tuple.__new__(cls, (a, i, b))

    @property
    def cell_count(self) -> int:
        return self.a + 2 * self.i + self.b - 2

    def column_rows(self, c: int) -> range:
        if c == 0:
            return range(0, self.a)
        if c == self.i:
            return range(-(self.b - 2), 2)
        if 0 < c < self.i:
            return range(0, 2)
        raise InvalidShape(f"column {c} outside 0..{self.i}")


class _Layout(NamedTuple):
    shape: SkewShape
    starts: tuple[int, ...]  # column c is entries[starts[c]:starts[c + 1]]
    need: tuple[int, ...]  # bitmask of the cells above and left of each cell
    pairs: tuple[tuple[int, int], ...]  # (smaller, larger) entry indices
    values: tuple[int, ...]  # 1..n, the sorted entries of a bijective filling


@lru_cache(maxsize=1024)
def _layout(a: int, i: int, b: int) -> _Layout:
    shape = SkewShape(a, i, b)
    starts = [0]
    index = {}
    for c in range(i + 1):
        for r in shape.column_rows(c):
            index[(r, c)] = len(index)
        starts.append(len(index))
    pairs = []
    need = [0] * len(index)
    for (r, c), k in index.items():
        for before in ((r - 1, c), (r, c - 1)):
            if before in index:
                pairs.append((index[before], k))
                need[k] |= 1 << index[before]
    return _Layout(shape, tuple(starts), tuple(need), tuple(pairs), tuple(range(1, len(index) + 1)))


class Filling(tuple):
    """An assignment of integers to the cells of a SkewShape; see is_legal.

    A filling is the immutable pair ``(shape, entries)``: it unpacks, has
    length 2, and compares and hashes like the plain tuple ``(shape, entries)``.
    ``entries`` lists the values column by column, each column top to bottom.
    The constructor does not check it against the shape; ``from_columns`` is
    the validated constructor.  The library builds its fillings with
    ``tuple.__new__(Filling, (shape, entries))``, which skips the Python-level
    constructor.
    """

    __slots__ = ()

    def __new__(cls, shape: SkewShape, entries: tuple[int, ...]) -> "Filling":
        return tuple.__new__(cls, (shape, entries))

    def __getnewargs__(self) -> tuple[SkewShape, tuple[int, ...]]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"Filling(shape={self[0]!r}, entries={self[1]!r})"

    shape = property(itemgetter(0), doc="The SkewShape the entries fill.")
    entries = property(itemgetter(1), doc="The values, column-major, each column top to bottom.")

    @property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """Column c's entries top to bottom, for each column c."""
        shape, entries = self
        starts = _layout(*shape).starts
        return tuple(entries[lo:hi] for lo, hi in zip(starts, starts[1:]))

    def value_at(self, r: int, c: int) -> int:
        shape, entries = self
        rows = shape.column_rows(c)
        if r not in rows:
            raise InvalidShape(f"cell ({r}, {c}) not in shape {shape}")
        return entries[_layout(*shape).starts[c] + r - rows.start]

    def is_legal(self) -> bool:
        """The entries are 1..n once each and increase down every column and
        rightward along rows 0 and 1."""
        shape, entries = self
        layout = _layout(*shape)
        if tuple(sorted(entries)) != layout.values:
            return False
        for lo, hi in layout.pairs:
            if entries[lo] >= entries[hi]:
                return False
        return True

    def to_json_dict(self) -> dict:
        return {
            "a": self.shape.a,
            "i": self.shape.i,
            "b": self.shape.b,
            "columns": [list(col) for col in self.columns],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(", ", ": "))

    @classmethod
    def from_columns(cls, a: int, i: int, b: int, columns) -> "Filling":
        shape = SkewShape(a, i, b)
        cols = tuple(tuple(index(v) for v in col) for col in columns)
        if len(cols) != i + 1 or any(
            len(cols[c]) != len(shape.column_rows(c)) for c in range(i + 1)
        ):
            raise InvalidShape("column lengths do not match the shape")
        return tuple.__new__(cls, (shape, tuple(v for col in cols for v in col)))

    @classmethod
    def from_json_dict(cls, payload: dict) -> "Filling":
        return cls.from_columns(payload["a"], payload["i"], payload["b"], payload["columns"])


def _legal_entries(layout: _Layout) -> list[tuple[int, ...]]:
    """The entries of every legal filling, in no particular order.

    Places 1, 2, ..., n in turn, each into any empty cell whose cells above
    and to the left are filled, so every prefix stays legal.  Which cells are
    open depends only on the set of filled cells; each such set's open cells
    are listed once.  The recursion is as deep as the shape has cells, at
    most MAX_CELLS, well inside the interpreter's recursion limit.
    """
    need = layout.need
    n = len(need)
    values = [0] * n
    out: list[tuple[int, ...]] = []
    open_after: dict[int, list[tuple[int, int]]] = {}

    def list_open(filled: int) -> list[tuple[int, int]]:
        cells = [
            (k, filled | 1 << k)
            for k in range(n)
            if not filled >> k & 1 and filled & need[k] == need[k]
        ]
        open_after[filled] = cells
        return cells

    def place(value: int, filled: int) -> None:
        for k, after in open_after.get(filled) or list_open(filled):
            values[k] = value
            if value == n:
                out.append(tuple(values))
            else:
                place(value + 1, after)

    place(1, 0)
    return out


def enumerate_skyt(a: int, i: int, b: int) -> list[Filling]:
    """All legal fillings of shape (a, i, b) in column-major lexicographic order.

    Requires i >= 1; returns the empty list when a or b is below 2 (there is
    nothing fillable then).  Raises InvalidParameters, before any enumeration
    work, for a shape with more than MAX_CELLS cells or MAX_FILLINGS fillings.
    Each call builds a new list of new fillings and keeps none of them.
    """
    if i < 1:
        raise InvalidShape("enumeration needs i >= 1; the i = 0 cases are count-level conventions")
    if a < 0 or b < 0:
        raise InvalidShape(f"negative shape parameter (a={a}, b={b})")
    if a < 2 or b < 2:
        return []
    # Both caps are checked before any work that grows with the shape.
    cells = a + 2 * i + b - 2
    if cells > MAX_CELLS:
        raise InvalidParameters(
            f"shape ({a}, {i}, {b}) has {cells} cells; enumeration is capped at {MAX_CELLS}"
        )
    count = count_skyt(a, i, b)
    if count > MAX_FILLINGS:
        raise InvalidParameters(
            f"shape ({a}, {i}, {b}) has {count} fillings; enumeration is capped at {MAX_FILLINGS}"
        )
    layout = _layout(a, i, b)
    entries = _legal_entries(layout)
    entries.sort()
    shape = layout.shape
    new = tuple.__new__
    return [new(Filling, (shape, e)) for e in entries]


def count_syt(a: int, i: int, k: int) -> int:
    """Number of standard fillings of the straight shape with a column of
    height a, then i columns of height 2, then k columns of height 1.

    For a >= 2 the rows are [1 + i + k, 1 + i, 1, ..., 1] with a - 2 trailing
    ones, n = a + 2i + k cells in all; for a = 1 and i = 0 the shape is one
    row of 1 + k cells, filled one way.  Any other (a, i, k) is not a
    partition and raises InvalidShape.

    The hook-length formula (Frame, Robinson and Thrall) divides n! by the
    product of all hooks, and on this shape the hooks group row by row:

    - row 0: the corner cell has hook a + i + k; the tops of the i height-2
      columns have hooks i + k + 1 down to k + 2, whose product is
      (i + k + 1)! / (k + 1)!; the k cells of the tail have hooks k down
      to 1, whose product is k!;
    - row 1: the first cell has hook a + i - 1, the other i cells i down
      to 1, whose product is i!;
    - rows 2 to a - 1: one cell each, with hooks a - 2 down to 1, whose
      product is (a - 2)!.

    Since k! / (k + 1)! = 1 / (k + 1), the count is

        n! (k + 1) / ((a + i + k) (a + i - 1) (i + k + 1)! i! (a - 2)!).
    """
    if k < 0 or i < 0:
        raise InvalidShape(f"negative partition parameter (i={i}, k={k})")
    if a == 1 and i == 0:
        return 1
    if a < 2:
        raise InvalidShape(f"not a partition: a={a}, i={i}, k={k}")
    n = a + 2 * i + k
    hook_product = (
        (a + i + k) * (a + i - 1) * factorial(i + k + 1) * factorial(i) * factorial(a - 2)
    )
    count, rem = divmod(factorial(n) * (k + 1), hook_product)
    if rem:
        raise AssertionError(f"hook product {hook_product} does not divide {n}! (k + 1)")
    return count


@lru_cache(maxsize=None)
def count_skyt(a: int, i: int, b: int) -> int:
    """Number of legal fillings of shape (a, i, b).

    Conventions first: 1 when i = 0, and 0 when i > 0 with a or b below 2.
    Otherwise the count is assembled by inclusion-exclusion from straight-shape
    counts: sum over k = 0..b-2 of (-1)^k C(n, j) * count_syt(a, i, k), where
    n = a + 2i + b - 2 and j = b - k - 2.

    Only the first term is built from factorials.  Each next term is the one
    before times the binomial step C(n, j - 1) / C(n, j) = j / (n - j + 1)
    and the hook-length step count_syt(a, i, k + 1) / count_syt(a, i, k)
    = (a + 2i + k + 1)(k + 2)(a + i + k) / ((k + 1)(a + i + k + 1)(i + k + 2)),
    with the sign flipped.  Both terms are integers and term_k * numerator
    = term_(k+1) * denominator, so each floor division is exact.
    """
    if i < 0:
        raise InvalidShape(f"negative i={i}")
    if i == 0:
        return 1
    if a < 2 or b < 2:
        return 0
    n = a + 2 * i + b - 2
    term = total = binomial(n, b - 2) * count_syt(a, i, 0)
    for k in range(b - 2):
        j = b - k - 2
        term = -term * j * (a + 2 * i + k + 1) * (k + 2) * (a + i + k) // (
            (n - j + 1) * (k + 1) * (a + i + k + 1) * (i + k + 2)
        )
        total += term
    return total


def involution_rotate(f: Filling) -> Filling:
    """Rotate the shape half a turn and replace every entry v by n + 1 - v.

    Sends legal fillings of (a, i, b) to legal fillings of (b, i, a); applying
    it twice gives back the original filling.  Cell (r, c) of the rotated
    shape comes from cell (1 - r, i - c), so column c of the image is column
    i - c reversed, and the column-major entries come out in reverse order.
    """
    (a, i, b), entries = f
    top = len(entries) + 1
    return tuple.__new__(
        Filling, (_layout(b, i, a).shape, tuple([top - v for v in reversed(entries)]))
    )


@lru_cache(maxsize=None)
def count_overline_skyt(i: int, b: int) -> int:
    """Fillings of shape (2, i, b) whose top-left entry is 1; zero when i = 0.

    The height-2 left column makes the usual extra condition on a left tail
    vacuous; taller left columns reduce to this count by forgetting the tail.

    Computed without enumeration: the entry 1 sits at one of the two corner
    cells with no upper or left neighbour, the top-left or (when b >= 3) the
    top of the right column.  Deleting a top-right 1 and shifting every entry
    down by one bijects those fillings onto the (b - 1)-shape, so the count
    is count_skyt(2, i, b) - count_skyt(2, i, b - 1).  The filtered
    enumeration serves as the test oracle for this.
    """
    if i < 0:
        raise InvalidShape(f"negative i={i}")
    if i == 0 or b < 2:
        return 0
    return count_skyt(2, i, b) - count_skyt(2, i, b - 1)


def validate_family_params(m: int, d: int, rho: int) -> None:
    """Raise InvalidParameters unless U(m, d; rho) is a valid family member.

    Valid means m >= 1, d >= 0, rho >= 0, and for rho >= 1 either d = 0
    (removal is a no-op) or d >= 2 with rho * d <= m + d: removing size-1
    bases creates loops, and the rho removed bases must be pairwise disjoint.
    """
    if m < 1:
        raise InvalidParameters(f"m must be at least 1, got {m}")
    if d < 0 or rho < 0:
        raise InvalidParameters(f"d and rho must be non-negative (d={d}, rho={rho})")
    if rho >= 1 and d == 1:
        raise InvalidParameters("removing bases of size 1 creates loops; d must be 0 or >= 2")
    if rho >= 1 and d >= 2 and d * rho > m + d:
        raise InvalidParameters(
            f"{rho} disjoint bases of size {d} do not fit in {m + d} elements"
        )


def _boundary_windows(shape: SkewShape, d: int, rho: int) -> list[tuple[int, int, int]]:
    """Theorem 1's boundary conditions as (entry index, lowest, highest value),
    for entries 1..n: the top of the right column is 1, the last cell is above
    d + rho, or a left column of height >= 3 has its third entry at most d."""
    n = shape.cell_count
    windows = [(n - shape.b, 1, 1), (n - 1, d + rho + 1, n)]
    if shape.a >= 3:
        windows.append((2, 1, d))
    return windows


def satisfies_removed_family_conditions(f: Filling, d: int, rho: int) -> bool:
    """At least one of the boundary conditions of ``_boundary_windows`` holds for f."""
    shape, entries = f
    return any(lo <= entries[k] <= hi for k, lo, hi in _boundary_windows(shape, d, rho))


def _fillings_and_misses(layout: _Layout, d: int, rho: int) -> tuple[int, int]:
    """The legal fillings of the shape, and those meeting no boundary condition.

    Value v goes in at step v, so a filling is a chain of filled-cell masks
    (order ideals of the cell poset), and each window of ``_boundary_windows``
    says at which steps its cell meets a condition.  One pass over the
    ideals, level by level, carries both counts per mask.
    """
    need = layout.need
    n = len(need)
    windows = _boundary_windows(layout.shape, d, rho)
    level = {0: (1, 1)}
    for step in range(1, n + 1):
        meets = {k for k, lo, hi in windows if lo <= step <= hi}
        after: dict[int, tuple[int, int]] = {}
        for filled, (every, misses) in level.items():
            for k in range(n):
                bit = 1 << k
                if filled & bit or filled & need[k] != need[k]:
                    continue
                old_every, old_misses = after.get(filled | bit, (0, 0))
                after[filled | bit] = (
                    old_every + every,
                    old_misses if k in meets else old_misses + misses,
                )
        level = after
    return level[(1 << n) - 1]


def count_skyt_rho_direct(m: int, d: int, i: int, rho: int) -> int:
    """Count fillings of shape (m+1, i, d-2i+1) passing the boundary conditions.

    This is the paper's Theorem 1 set, counted without listing it: all legal
    fillings minus those meeting no condition, both from one dynamic
    programme over order ideals (``_fillings_and_misses``).  It always agrees
    with count_skyt(m+1, i, d-2i+1) - rho * count_overline_skyt(i, d-2i+1),
    but reads neither.  Returns 1 for i = 0 by convention, 0 for i outside
    the coefficient range.  Raises InvalidParameters for more than MAX_CELLS
    cells (m + d) before any counting work.
    """
    validate_family_params(m, d, rho)
    if m + d > MAX_CELLS:
        raise InvalidParameters(
            f"the direct count is capped at {MAX_CELLS} cells, and m + d = {m + d}"
        )
    if i < 0:
        return 0
    if i == 0:
        return 1
    b = d - 2 * i + 1
    if b < 2:
        return 0
    every, misses = _fillings_and_misses(_layout(m + 1, i, b), d, rho)
    return every - misses


def iota_action(j: int, f: Filling, m: int) -> Filling:
    """Embed a filling of (2, i, b) into (m + 1, i, b), twisting by index j.

    Write n for the number of entries of f (its bottom-right entry, which is
    always the maximum).  The image keeps all entries of f except that the
    bottom-right becomes n + j, and the m - 1 new cells below the left column
    hold the remaining values of {n, ..., n + m - 1} in increasing order.
    j = 0 leaves the bottom-right at n with an untouched tail.
    """
    if f.shape.a != 2:
        raise InvalidShape("the action is defined on fillings with left column of height 2")
    if m < 1:
        raise InvalidParameters(f"m must be at least 1, got {m}")
    if not 0 <= j <= m - 1:
        raise IndexOutOfRange(f"index {j} outside 0..{m - 1}")
    shape, entries = f
    n = len(entries)
    tail = tuple(v for v in range(n, n + m) if v != n + j)
    # The left column is entries[:2]; the bottom-right cell is the last entry.
    lifted = entries[:2] + tail + entries[2:-1] + (n + j,)
    return tuple.__new__(Filling, (_layout(m + 1, shape.i, shape.b).shape, lifted))

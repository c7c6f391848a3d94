"""Skew tableaux with three column groups, and their counting formulas.

The shape (a, i, b) consists of a left column of height a, then i - 1 middle
columns of height 2, then a right column of height b, so it is described by
its column heights (a, 2, ..., 2, b).  All columns share a common two-row
strip: the top two cells of columns 0..i-1 and the bottom two cells of
column i.  A legal filling places 1..(a + 2i + b - 2) bijectively so that
every column increases downward and each of the two shared rows increases
rightward.

The value types are named tuples.  A SkewShape is the triple (a, i, b),
checked when it is built, and a Filling is the pair (shape, entries); both
are tuple subclasses, so that building, unpacking, comparing and hashing
them all run in C.  A filling's entries are one flat column-major tuple:
column 0 top to bottom, then each middle column, then column i.  What the
enumeration, the legality test and the rotation need to know about a shape
is worked out from its column heights once per shape, on first use, and
kept in one bounded table (``_LAYOUTS``, keyed by the shape): where each
column starts, the bitmask of the cells above and to the left of each cell,
the index pairs whose entries must increase, the set 1..n, and the mirror
shape (b, i, a).  In column-major order the half-turn rotation reverses the
entries and maps each v to n + 1 - v, so a rotation is one tuple display,
``(n + 1 - e[n - 1], ..., n + 1 - e[0])``, compiled once per entry count n
on first use and kept in a second table (``_KERNELS``, at most one kernel
per n up to MAX_CELLS; longer entries take one termwise pass), and a
legality test is one set comparison and one pass over the pairs.  A cell
can take the next value once every cell of its bitmask is filled; that rule
is written once (``_addable``), and both the enumeration and the direct
count grow their order ideals by it.  The fillings are not kept, and each
``enumerate_skyt`` call lists them afresh.

Counts need no enumeration.  ``count_skyt`` is an inclusion-exclusion over
straight-shape counts ``count_syt``, and the hooks of those straight shapes
group into a few factorials, so ``count_syt`` is one quotient of factorials
rather than a loop over the cells.  ``count_skyt`` takes that quotient only
for its first term: by the hook-length formula, two consecutive
straight-shape counts differ by a ratio of a few small integers, so each
later term is the one before times an exact ratio.  The binomial step and
the hook-length step share the factor a + 2i + k + 1, which cancels, so the
ratio is one small numerator over one small denominator: one big-integer
multiply and one divide per term.
``count_skyt_rho_direct`` counts the Theorem 1 set independently of both, by
a dynamic programme over the order ideals of the cell poset (Stanley's
transfer-matrix method), so only listing the fillings (``enumerate_skyt``)
needs MAX_FILLINGS.  Both stop at MAX_CELLS cells; ``cell_count_refusal`` is
that cap's one message, which they raise and the direct route refuses by.
"""

from __future__ import annotations

import json
from functools import lru_cache
from math import factorial
from operator import index
from typing import NamedTuple

from .errors import IndexOutOfRange, InvalidParameters, InvalidShape
from .exactarith import _integers, binomial

MAX_FILLINGS = 10**6
"""Enumeration refuses a shape with more legal fillings than this: it holds
every filling in memory, and the count grows factorially with the shape."""

MAX_CELLS = 64
"""Enumeration and the direct count refuse a shape with more cells than this.
Thin shapes such as (a, 1, 2) stay under MAX_FILLINGS with a thousand cells,
and their fillings would hold a billion entries between them.  It also bounds
the rotation kernels: one is compiled for each entry count up to it, and
longer entries are rotated termwise."""


def _column_heights(a: int, i: int, b: int) -> tuple[int, ...]:
    """The heights of the columns of shape (a, i, b), left to right."""
    return (a,) + (2,) * (i - 1) + (b,)


class _ShapeFields(NamedTuple):
    a: int
    i: int
    b: int


class SkewShape(_ShapeFields):
    """The three-column-group diagram with left height a, i - 1 middle columns, right height b."""

    __slots__ = ()

    def __new__(cls, a: int, i: int, b: int) -> "SkewShape":
        a, i, b = _integers(InvalidShape, a=a, i=i, b=b)
        if i < 1:
            raise InvalidShape(f"shape needs at least one column step, got i={i}")
        if a < 2 or b < 2:
            raise InvalidShape(f"no cells to fill when a or b is below 2 (a={a}, b={b})")
        return tuple.__new__(cls, (a, i, b))

    @property
    def cell_count(self) -> int:
        return self.a + 2 * self.i + self.b - 2


class _Layout(NamedTuple):
    shape: SkewShape
    mirror: SkewShape  # (b, i, a), the shape of the half-turn image
    starts: tuple[int, ...]  # column c is entries[starts[c]:starts[c + 1]]
    need: tuple[int, ...]  # bitmask of the cells above and left of each cell
    pairs: tuple[tuple[int, int], ...]  # (smaller, larger) entry indices
    values: frozenset[int]  # 1..n: is_legal compares one set with it


def _build_layout(a: int, i: int, b: int) -> _Layout:
    """The layout of shape (a, i, b), from its column heights alone."""
    a, i, b = shape = SkewShape(a, i, b)
    starts = [0]
    for height in _column_heights(a, i, b):
        starts.append(starts[-1] + height)
    n = starts[-1]
    pairs = []
    need = [0] * n
    for c in range(i + 1):
        top, end = starts[c], starts[c + 1]
        for k in range(top, end):
            before = [k - 1] if k > top else []
            if c and k >= end - 2:  # a shared row: the top two cells of column c - 1
                before.append(starts[c - 1] + k - (end - 2))
            for j in before:
                pairs.append((j, k))
                need[k] |= 1 << j
    return _Layout(
        shape,
        SkewShape(b, i, a),
        tuple(starts),
        tuple(need),
        tuple(pairs),
        frozenset(range(1, n + 1)),
    )


class _Layouts(dict):
    """The layout of each shape, keyed by the shape (any triple equal to it).

    A shape is validated and laid out when it is first looked up, so a
    lookup of a known shape is one dict subscript; a key that is not a
    triple raises InvalidShape.  The table holds at most 1,024 shapes: a new
    shape beyond that empties it first.
    """

    def __missing__(self, shape) -> _Layout:
        if not isinstance(shape, tuple) or len(shape) != 3:
            raise InvalidShape(f"a shape is a triple (a, i, b), got {shape!r}")
        layout = _build_layout(*shape)
        if len(self) >= 1024:
            self.clear()
        self[layout.shape] = layout
        return layout


_LAYOUTS = _Layouts()


class Filling(NamedTuple):
    """An assignment of integers to the cells of a SkewShape; see is_legal.

    A filling is the named pair ``(shape, entries)``: it unpacks, has length
    2, and compares and hashes like the plain tuple ``(shape, entries)``.
    ``entries`` lists the values column by column, each column top to bottom.
    The constructor does not check it against the shape; ``from_columns`` is
    the validated constructor.  The library builds its fillings with
    ``tuple.__new__(Filling, (shape, entries))``, which skips the Python-level
    constructor.
    """

    shape: SkewShape
    entries: tuple[int, ...]

    @property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """Column c's entries top to bottom, for each column c."""
        shape, entries = self
        starts = _LAYOUTS[shape].starts
        return tuple(entries[lo:hi] for lo, hi in zip(starts, starts[1:]))

    def is_legal(self) -> bool:
        """The entries are 1..n once each and increase down every column and
        rightward along the two shared rows.

        n entries whose set is {1, ..., n} are 1..n once each; then every
        (smaller, larger) pair of the shape's layout is compared.
        """
        shape, entries = self
        layout = _LAYOUTS[shape]
        if len(entries) != len(layout.need) or set(entries) != layout.values:
            return False
        for lo, hi in layout.pairs:
            if entries[lo] >= entries[hi]:
                return False
        return True

    def to_json_dict(self) -> dict:
        a, i, b = _LAYOUTS[self.shape].shape
        return {"a": a, "i": i, "b": b, "columns": [list(col) for col in self.columns]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_columns(cls, a: int, i: int, b: int, columns) -> "Filling":
        shape = SkewShape(a, i, b)
        cols = tuple(tuple(index(v) for v in col) for col in columns)
        if tuple(map(len, cols)) != _column_heights(*shape):
            raise InvalidShape("column lengths do not match the shape")
        return tuple.__new__(cls, (shape, tuple(v for col in cols for v in col)))

    @classmethod
    def from_json_dict(cls, payload: dict) -> "Filling":
        return cls.from_columns(payload["a"], payload["i"], payload["b"], payload["columns"])


def _addable(need: tuple[int, ...], filled: int) -> list[tuple[int, int]]:
    """(k, filled | 1 << k) for each empty cell k whose cells above and to the
    left, ``need[k]``, are all filled: each way the order ideal ``filled``
    of the cell poset grows by one cell."""
    return [
        (k, filled | 1 << k)
        for k, needed in enumerate(need)
        if not filled >> k & 1 and filled & needed == needed
    ]


def _legal_entries(layout: _Layout) -> list[tuple[int, ...]]:
    """The entries of every legal filling, in no particular order.

    Places 1, 2, ..., n in turn, each into any cell ``_addable`` offers, so
    every prefix stays legal.  Those cells depend only on the set of filled
    cells; each such set's are listed once.  The last two values go in
    without a further call: n - 1 into each open cell in turn, and n into
    the one cell then left empty.  The recursion is as deep as the shape has
    cells, at most MAX_CELLS, well inside the interpreter's recursion limit.
    """
    need = layout.need
    n = len(need)
    full = (1 << n) - 1
    values = [0] * n
    out: list[tuple[int, ...]] = []
    open_after: dict[int, list[tuple[int, int]]] = {}

    def list_open(filled: int) -> list[tuple[int, int]]:
        cells = open_after[filled] = _addable(need, filled)
        return cells

    def place(value: int, filled: int) -> None:
        for k, after in open_after.get(filled) or list_open(filled):
            values[k] = value
            if value < n - 2:
                place(value + 1, after)
                continue
            for k_next, after_next in open_after.get(after) or list_open(after):
                values[k_next] = n - 1
                values[(full ^ after_next).bit_length() - 1] = n
                out.append(tuple(values))

    place(1, 0)
    return out


def cell_count_refusal(n: int) -> str | None:
    """The message refusing a shape of n cells, None within MAX_CELLS.  The
    Theorem 1 shape of each coefficient of U(m, d; rho) has m + d cells."""
    if n > MAX_CELLS:
        return f"tableau shapes are capped at {MAX_CELLS} cells, and this one has {n}"
    return None


def enumerate_skyt(a: int, i: int, b: int) -> list[Filling]:
    """All legal fillings of shape (a, i, b) in column-major lexicographic order.

    Requires i >= 1; returns the empty list when a or b is below 2 (there is
    nothing fillable then).  Raises InvalidParameters, before any enumeration
    work, for a shape with more than MAX_CELLS cells or MAX_FILLINGS fillings.
    Each call builds a new list of new fillings and keeps none of them.
    Raises InvalidShape for a parameter that is not an integer.
    """
    a, i, b = _integers(InvalidShape, a=a, i=i, b=b)
    if i < 1:
        raise InvalidShape("enumeration needs i >= 1; the i = 0 cases are count-level conventions")
    if a < 0 or b < 0:
        raise InvalidShape(f"negative shape parameter (a={a}, b={b})")
    if a < 2 or b < 2:
        return []
    # Both caps are checked before any work that grows with the shape.
    if refusal := cell_count_refusal(a + 2 * i + b - 2):
        raise InvalidParameters(refusal)
    count = count_skyt(a, i, b)
    if count > MAX_FILLINGS:
        raise InvalidParameters(
            f"shape ({a}, {i}, {b}) has {count} fillings; enumeration is capped at {MAX_FILLINGS}"
        )
    layout = _LAYOUTS[a, i, b]
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
    partition and raises InvalidShape, as does a parameter that is not an
    integer.

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
    if not type(a) is type(i) is type(k) is int:
        a, i, k = _integers(InvalidShape, a=a, i=i, k=k)
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


@lru_cache(maxsize=None, typed=True)
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
    with the sign flipped.  The two steps share a factor, n - j + 1 =
    a + 2i + k + 1, so the ratio cancels to

        j (k + 2)(a + i + k) / ((k + 1)(a + i + k + 1)(i + k + 2)),

    whose numerator and denominator are formed in small integers: the big
    term is multiplied once and divided once.  Both terms are integers and
    term_k * numerator = term_(k+1) * denominator, so each floor division is
    exact.  A parameter that is not an integer raises InvalidShape.
    """
    if not type(a) is type(i) is type(b) is int:
        a, i, b = _integers(InvalidShape, a=a, i=i, b=b)
    if i < 0:
        raise InvalidShape(f"negative i={i}")
    if i == 0:
        return 1
    if a < 2 or b < 2:
        return 0
    n = a + 2 * i + b - 2
    term = total = binomial(n, b - 2) * count_syt(a, i, 0)
    for k in range(b - 2):
        term = -term * ((b - k - 2) * (k + 2) * (a + i + k)) // (
            (k + 1) * (a + i + k + 1) * (i + k + 2)
        )
        total += term
    return total


def _termwise_rotate(entries) -> tuple:
    """n + 1 - v for each entry v, last entry first, with n the number of entries."""
    top = len(entries) + 1
    return tuple([top - v for v in reversed(entries)])


class _Kernels(dict):
    """The rotation kernel for each entry count n, keyed by n.

    The kernel for n is compiled on first use from the one tuple display
    ``(n + 1 - e[n - 1], ..., n + 1 - e[0])``, which skips the loop, the
    reversed iterator and the list of the termwise line.  It reads e[n - 1]
    first, as that line does, so both give the same values, of the same
    types, and raise at the same entry.  Only n <= MAX_CELLS is compiled and
    kept, so the table holds at most MAX_CELLS + 1 kernels; longer entries
    get the termwise line, since compiling a display grows with n and costs
    more than it saves there (about 8 ms at 10^3 entries and 0.7 s at 10^5,
    against 0.3 ms for the kernel of 64, with CPython 3.11 on a 2-core VM).
    """

    def __missing__(self, n: int):
        if n > MAX_CELLS:
            return _termwise_rotate
        terms = "".join(f"{n + 1} - e[{k}], " for k in reversed(range(n)))
        kernel = self[n] = eval(f"lambda e: ({terms})", {})
        return kernel


_KERNELS = _Kernels()


def involution_rotate(f: Filling) -> Filling:
    """Rotate the shape half a turn and replace every entry v by n + 1 - v.

    Sends legal fillings of (a, i, b) to legal fillings of (b, i, a); applying
    it twice gives back the original filling.  Column c of the image is
    column i - c, reversed, so the column-major entries come out in reverse
    order.  n is the number of entries, and n + 1 - v has whatever type that
    arithmetic gives.  Up to MAX_CELLS entries the image is one compiled tuple
    display for that n (``_KERNELS``); past it, one termwise pass.
    """
    shape, entries = f
    image = _KERNELS[len(entries)](entries)
    return tuple.__new__(Filling, (_LAYOUTS[shape].mirror, image))


@lru_cache(maxsize=None, typed=True)
def count_overline_skyt(i: int, b: int) -> int:
    """Fillings of shape (2, i, b) whose top-left entry is 1; zero when i = 0.

    The height-2 left column makes the usual extra condition on a left tail
    vacuous; taller left columns reduce to this count by forgetting the tail.

    Computed without enumeration: the entry 1 sits at one of the two corner
    cells with no upper or left neighbour, the top-left or (when b >= 3) the
    top of the right column.  Deleting a top-right 1 and shifting every entry
    down by one bijects those fillings onto the (b - 1)-shape, so the count
    is count_skyt(2, i, b) - count_skyt(2, i, b - 1).  The filtered
    enumeration serves as the test oracle for this.  A parameter that is not
    an integer raises InvalidShape.
    """
    i, b = _integers(InvalidShape, i=i, b=b)
    if i < 0:
        raise InvalidShape(f"negative i={i}")
    if i == 0 or b < 2:
        return 0
    return count_skyt(2, i, b) - count_skyt(2, i, b - 1)


def validate_family_params(m: int, d: int, rho: int) -> tuple[int, int, int]:
    """(m, d, rho) as ints; InvalidParameters unless U(m, d; rho) is a valid
    family member.

    Valid means m, d and rho are integers, m >= 1, d >= 0, rho >= 0, and for
    rho >= 1 either d = 0 (removal is a no-op) or d >= 2 with
    rho * d <= m + d: removing size-1 bases creates loops, and the rho
    removed bases must be pairwise disjoint.
    """
    if not type(m) is type(d) is type(rho) is int:
        m, d, rho = _integers(InvalidParameters, m=m, d=d, rho=rho)
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
    return m, d, rho


def _boundary_windows(layout: _Layout, d: int, rho: int) -> list[tuple[int, int, int]]:
    """Theorem 1's boundary conditions on the layout's shape as (entry index,
    lowest, highest value), for entries 1..n: the top of the right column is
    1, the last cell is above d + rho, or a left column of height >= 3 has
    its third entry at most d."""
    a, _, b = layout.shape
    n = len(layout.need)
    windows = [(n - b, 1, 1), (n - 1, d + rho + 1, n)]
    if a >= 3:
        windows.append((2, 1, d))
    return windows


def satisfies_removed_family_conditions(f: Filling, d: int, rho: int) -> bool:
    """At least one of the boundary conditions of ``_boundary_windows`` holds for f.

    Raises InvalidShape, naming both counts, when f has not one entry per cell
    of its shape: the conditions read entries by their cell's index.
    """
    shape, entries = f
    layout = _LAYOUTS[shape]
    cells = len(layout.need)
    if len(entries) != cells:
        raise InvalidShape(
            f"a filling of shape {tuple(layout.shape)} needs {cells} entries, got {len(entries)}"
        )
    return any(lo <= entries[k] <= hi for k, lo, hi in _boundary_windows(layout, d, rho))


def _fillings_and_misses(layout: _Layout, d: int, rho: int) -> tuple[int, int]:
    """The legal fillings of the shape, and those meeting no boundary condition.

    Value v goes in at step v, so a filling is a chain of filled-cell masks
    (order ideals of the cell poset), and each window of ``_boundary_windows``
    says at which steps its cell meets a condition.  One pass over the
    ideals, level by level, carries both counts per mask.
    """
    need = layout.need
    n = len(need)
    windows = _boundary_windows(layout, d, rho)
    level = {0: (1, 1)}
    for step in range(1, n + 1):
        meets = {k for k, lo, hi in windows if lo <= step <= hi}
        after: dict[int, tuple[int, int]] = {}
        for filled, (every, misses) in level.items():
            for k, grown in _addable(need, filled):
                old_every, old_misses = after.get(grown, (0, 0))
                after[grown] = (
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
    cells (m + d) before any counting work, and for a parameter that is not
    an integer.
    """
    m, d, rho = validate_family_params(m, d, rho)
    (i,) = _integers(InvalidParameters, i=i)
    if refusal := cell_count_refusal(m + d):
        raise InvalidParameters(refusal)
    if i < 0:
        return 0
    if i == 0:
        return 1
    b = d - 2 * i + 1
    if b < 2:
        return 0
    every, misses = _fillings_and_misses(_LAYOUTS[m + 1, i, b], d, rho)
    return every - misses


def iota_action(j: int, f: Filling, m: int) -> Filling:
    """Embed a filling of (2, i, b) into (m + 1, i, b), twisting by index j.

    Write n for the number of entries of f (its bottom-right entry, which is
    always the maximum).  The image keeps all entries of f except that the
    bottom-right becomes n + j, and the m - 1 new cells below the left column
    hold the remaining values of {n, ..., n + m - 1} in increasing order.
    j = 0 leaves the bottom-right at n with an untouched tail.
    """
    j, m = _integers(InvalidParameters, j=j, m=m)
    shape, entries = f
    a, i, b = _LAYOUTS[shape].shape
    if a != 2:
        raise InvalidShape("the action is defined on fillings with left column of height 2")
    if m < 1:
        raise InvalidParameters(f"m must be at least 1, got {m}")
    if not 0 <= j <= m - 1:
        raise IndexOutOfRange(f"index {j} outside 0..{m - 1}")
    n = len(entries)
    tail = tuple(v for v in range(n, n + m) if v != n + j)
    # The left column is entries[:2]; the bottom-right cell is the last entry.
    lifted = entries[:2] + tail + entries[2:-1] + (n + j,)
    return tuple.__new__(Filling, (_LAYOUTS[m + 1, i, b].shape, lifted))

import inspect
import itertools
import json
import os
import pickle
import resource
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import klmatroids
from klmatroids import tableaux
from klmatroids.closedforms import RhoUniformParams, coeff_rho
from klmatroids.errors import IndexOutOfRange, InvalidParameters, InvalidShape
from klmatroids.tableaux import (
    MAX_CELLS,
    MAX_FILLINGS,
    _LAYOUTS,
    Filling,
    SkewShape,
    _fillings_and_misses,
    count_overline_skyt,
    count_skyt,
    count_skyt_rho_direct,
    count_syt,
    enumerate_skyt,
    involution_rotate,
    iota_action,
    satisfies_removed_family_conditions,
)
from klmatroids.verification import family_grid, shape_grid

from oracles import (
    brute_syt_count,
    catalan,
    hook_length_count,
    skew_column_rows,
    skew_fillings,
    skew_is_legal,
    skew_order_pairs,
    skew_rotate,
    skew_value,
    straight_rows,
    termwise_count_skyt,
)


class _Index:
    """An index that is not an int: it converts by __index__ alone."""

    def __init__(self, v):
        self.v = v

    def __index__(self):
        return self.v

    def __rsub__(self, other):
        return f"{other} - {self.v}"

    def __repr__(self):
        return f"_Index({self.v})"


# Entries the unchecked Filling constructor accepts on shape (2, 1, 2), which
# has n = 4, and on (4, 3, 3): out of range, repeated, not int, wrong length.
ODD_ENTRIES = [
    (0, 5, 3, -1),
    (-1, -2, -3, -4),
    (-4, 1, 2, 3),
    (-12, 1, 2, 3),
    (0, 0, 0, 0),
    (1, 2, 3, 5),
    (1, 2, 2, 3),
    (100, 2, 3, 4),
    (2**61 + 1, 2, 3, 4),  # hashes like 2
    (1, 1, 1, 1),
    (4, 4, 3, 3),
    (2, 1, 4, 3),
    (True, 2, 3, 4),
    (True, False, True, True),
    (1.0, 2.0, 3.0, 4.0),
    (1, 2.0, 3, 4),
    (1, 2.5, 3, 4),
    (1, float("inf"), 3, 4),
    (Decimal(1), 2, 3, 4),
    (Fraction(2), 1, 3, 4),
    (1 + 0j, 2, 3, 4),
    (_Index(1), 2, 3, 4),
    [1, 2, 3, 4],
    (),
    (1,),
    (3,),
    (1, 2, 3),
    (1, 2, 3, 4, 5),
    (1, 2, 3, 4, 4),
    tuple(range(1, 12)),
    tuple(range(11, 0, -1)),
    (2, 3, 10, 11, 4, 6, 5, 8, 1, 7, 9.0),
]


def termwise_rotate(entries) -> tuple:
    """n + 1 - v for each entry v, last entry first, with n the number of entries."""
    top = len(entries) + 1
    return tuple(top - v for v in reversed(entries))


def _accepts(check) -> bool:
    """check() returns True; entries that cannot be ordered may raise TypeError
    instead of returning False, in the library and in the oracle alike."""
    try:
        return check() is True
    except TypeError:
        return False


def _split(entries, lengths) -> tuple[tuple, ...]:
    out, start = [], 0
    for length in lengths:
        out.append(tuple(entries[start : start + length]))
        start += length
    return tuple(out)


# Named fillings reused across tests: a legal filling of shape (4, 3, 3),
# its half-turn image in (3, 3, 4), and the restricted-family pair linking
# shapes (2, 3, 3) and (4, 3, 3).
FILLING_433 = Filling.from_columns(4, 3, 3, [[2, 3, 10, 11], [4, 6], [5, 8], [1, 7, 9]])
ROTATED_334 = Filling.from_columns(3, 3, 4, [[3, 5, 11], [4, 7], [6, 8], [1, 2, 9, 10]])
OVERLINE_233 = Filling.from_columns(2, 3, 3, [[1, 3], [4, 6], [5, 8], [2, 7, 9]])
LIFTED_433 = Filling.from_columns(4, 3, 3, [[1, 3, 10, 11], [4, 6], [5, 8], [2, 7, 9]])


class TestShapeGeometry:
    def test_cell_count(self):
        assert SkewShape(4, 3, 3).cell_count == 11
        assert SkewShape(2, 1, 2).cell_count == 4

    def test_degenerate_shapes_rejected(self):
        with pytest.raises(InvalidShape):
            SkewShape(1, 2, 3)
        with pytest.raises(InvalidShape):
            SkewShape(3, 0, 3)

    @pytest.mark.parametrize("a,i,b", [(2.5, 1, 2), (2, 1.0, 2), (2, 1, "3"), (2, None, 2)])
    def test_non_integer_parameters_rejected(self, a, i, b):
        with pytest.raises(InvalidShape, match="must be integers"):
            SkewShape(a, i, b)

    def test_is_a_named_triple(self):
        shape = SkewShape(a=4, i=3, b=3)
        a, i, b = shape
        assert (a, i, b) == shape == (4, 3, 3) and hash(shape) == hash((4, 3, 3))
        assert repr(shape) == "SkewShape(a=4, i=3, b=3)"
        assert not hasattr(shape, "__dict__")
        with pytest.raises(AttributeError):
            shape.a = 5
        back = pickle.loads(pickle.dumps(shape))
        assert type(back) is SkewShape and back == shape


class TestEnumeration:
    def test_b_below_two_is_empty(self):
        assert enumerate_skyt(2, 1, 1) == []
        assert enumerate_skyt(1, 2, 4) == []

    def test_square_shape(self):
        fillings = enumerate_skyt(2, 1, 2)
        assert len(fillings) == 2
        as_columns = {f.columns for f in fillings}
        assert as_columns == {((1, 2), (3, 4)), ((1, 3), (2, 4))}

    def test_lexicographic_order(self):
        fillings = enumerate_skyt(3, 2, 3)
        keys = [f.entries for f in fillings]
        assert keys == sorted(keys)

    def test_contains_figure_element(self):
        assert FILLING_433 in enumerate_skyt(4, 3, 3)

    def test_all_enumerated_fillings_are_legal(self):
        for f in enumerate_skyt(3, 2, 4):
            assert f.is_legal()

    def test_i_zero_refused(self):
        with pytest.raises(InvalidShape):
            enumerate_skyt(3, 0, 3)

    def test_each_call_builds_new_fillings(self):
        # nothing is cached: equal lists, but no filling object is shared
        first, second = enumerate_skyt(4, 2, 7), enumerate_skyt(4, 2, 7)
        assert first == second and len(first) == 10374
        assert first is not second
        assert not any(f is g for f, g in zip(first, second))

    @pytest.mark.parametrize("a,i,b", [(2.0, 1, 2), (3.0, 1, 3), (3, 1.0, 3), (3, 1, "3")])
    def test_non_integer_parameters_refused_whatever_is_cached(self, a, i, b):
        # a float equal to an int finds that int's cache entries, so the
        # check must come before any cache is read
        whole = (int(a), int(i), int(b))
        count_skyt.cache_clear()
        with pytest.raises(InvalidShape, match="must be integers") as cold:
            enumerate_skyt(a, i, b)
        assert len(enumerate_skyt(*whole)) == count_skyt(*whole)
        assert whole in _LAYOUTS
        with pytest.raises(InvalidShape, match="must be integers") as warm:
            enumerate_skyt(a, i, b)
        assert str(cold.value) == str(warm.value)
        assert f"a={a!r}, i={i!r}, b={b!r}" in str(warm.value)

    def test_layouts_are_built_on_first_use_and_bounded(self):
        code = "import klmatroids.cli, klmatroids.tableaux as t; print(len(t._LAYOUTS))"
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(klmatroids.__file__).parents[1])},
        )
        assert done.stdout == "0\n"
        shapes = [(a, i, b) for a in range(2, 14) for i in range(1, 10) for b in range(2, 14)]
        assert len(shapes) > 1024
        for a, i, b in shapes:
            layout = _LAYOUTS[a, i, b]
            assert len(_LAYOUTS) <= 1024
            assert layout.shape == (a, i, b) and layout.mirror == (b, i, a)


# Every entry point with a non-integer parameter, then the call with ints
# that fills the caches and layouts such a parameter could otherwise read.
_GATE_SCRIPT = """
import json
from klmatroids import closedforms, tableaux
from klmatroids.errors import KlmatroidsError

overline = tableaux.Filling.from_columns(2, 1, 2, [[1, 2], [3, 4]])
shape_calls = [
    (tableaux.count_skyt, (3.0, 1, 3), (3, 1, 3)),
    (tableaux.count_skyt, (3, 1, 3.0), (3, 1, 3)),
    (tableaux.count_syt, (3.0, 1, 0), (3, 1, 0)),
    (tableaux.count_overline_skyt, (1.0, 3), (1, 3)),
    (tableaux.enumerate_skyt, (2, 1.0, 2), (2, 1, 2)),
    (tableaux.SkewShape, (4, 1, 3.0), (4, 1, 3)),
]
family_calls = [
    (tableaux.count_skyt_rho_direct, (3.0, 4, 1, 0), (3, 4, 1, 0)),
    (tableaux.count_skyt_rho_direct, (3, 4, 1.0, 0), (3, 4, 1, 0)),
    (tableaux.iota_action, (1, overline, 3.0), (1, overline, 3)),
    (tableaux.validate_family_params, (2, 3, 1.0), (2, 3, 1)),
    (closedforms.coeff_rho, (2.0, 3, 1, 0), (2, 3, 1, 0)),
    (closedforms.coeff_rho, (2, 3, 1.0, 1), (2, 3, 1, 1)),
    (closedforms.coeff_uniform_klum, (2.0, 3, 1), (2, 3, 1)),
    (closedforms.coeff_uniform_klum, (2, 3, 1.0), (2, 3, 1)),
    (closedforms.coeff_rho, (2, 3, 1.0, 0), (2, 3, 1, 0)),
    (closedforms.valid_rhos, (2.0, 3), (2, 3)),
    (closedforms.RhoUniformParams, (2.0, 3), (2, 3)),
]
calls = [(*call, "InvalidShape") for call in shape_calls]
calls += [(*call, "InvalidParameters") for call in family_calls]

def outcome(func, args):
    try:
        func(*args)
    except KlmatroidsError as exc:
        return [type(exc).__name__, str(exc)]
    return None

cold = [outcome(func, bad) for func, bad, _, _ in calls]
for func, _, good, _ in calls:
    func(*good)
warm = [outcome(func, bad) for func, bad, _, _ in calls]
print(json.dumps([[func.__name__, kind, c, w] for (func, _, _, kind), c, w in zip(calls, cold, warm)]))
"""


def test_non_integer_parameters_fail_alike_cold_and_warm():
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", _GATE_SCRIPT],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(klmatroids.__file__).parents[1])},
    )
    assert done.returncode == 0, done.stderr
    for name, kind, cold, warm in json.loads(done.stdout):
        assert cold is not None and cold == warm, name
        assert cold[0] == kind, name
        assert "must be integers, got " in cold[1] and ".0" in cold[1], name


def test_family_parameters_are_kept_as_ints():
    assert tableaux.validate_family_params(_Index(2), True, False) == (2, 1, 0)
    p = RhoUniformParams(_Index(2), 3, True)
    assert p == (2, 3, 1) and all(type(v) is int for v in p) and type(p.n) is int


class TestCountSyt:
    def test_spot_values(self):
        assert count_syt(3, 1, 0) == 5
        assert count_syt(2, 0, 0) == 1
        # hooks of the two-row shape (3, 2) are 4,3,1,2,1: 120 / 24
        assert count_syt(2, 1, 1) == 5

    def test_single_row(self):
        assert count_syt(1, 0, 4) == 1

    def test_invalid_shape(self):
        with pytest.raises(InvalidShape):
            count_syt(1, 2, 0)
        with pytest.raises(InvalidShape):
            count_syt(2, 1, -1)

    @pytest.mark.parametrize("a", range(1, 6))
    @pytest.mark.parametrize("i", range(0, 4))
    @pytest.mark.parametrize("k", range(0, 4))
    def test_matches_backtracking(self, a, i, k):
        if a == 1 and i > 0:
            return
        rows = [1 + i + k, 1 + i] + [1] * (a - 2) if a >= 2 else [1 + k]
        if sum(rows) > 13:
            return
        assert count_syt(a, i, k) == brute_syt_count(tuple(rows))

    @pytest.mark.parametrize("a", range(0, 33))
    def test_matches_cell_by_cell_hooks(self, a):
        # a <= 32, i <= 16, k <= 31 holds every call that the m, d <= 30
        # triangle makes; a = 0 and i, k = -1 add invalid points.
        for i in range(-1, 17):
            for k in range(-1, 32):
                try:
                    rows = straight_rows(a, i, k)
                except InvalidShape:
                    with pytest.raises(InvalidShape):
                        count_syt(a, i, k)
                else:
                    assert count_syt(a, i, k) == hook_length_count(rows)


class TestCountSkyt:
    def test_conventions(self):
        assert count_skyt(7, 0, 4) == 1
        assert count_skyt(2, 0, 0) == 1
        assert count_skyt(1, 3, 5) == 0
        assert count_skyt(5, 2, 1) == 0

    def test_spot_values(self):
        assert count_skyt(3, 1, 2) == 5
        assert count_skyt(2, 2, 2) == 5
        assert count_skyt(2, 1, 3) == 5
        assert count_skyt(2, 1, 4) == 9
        assert count_skyt(4, 3, 3) == 2145

    @pytest.mark.parametrize("i", range(1, 4))
    @pytest.mark.parametrize("a", range(0, 6))
    @pytest.mark.parametrize("b", range(0, 6))
    def test_matches_enumeration(self, a, i, b):
        if a + 2 * i + b - 2 > 12:
            return
        assert count_skyt(a, i, b) == len(enumerate_skyt(a, i, b))

    def test_catalan_specialization(self):
        for i in range(1, 6):
            assert count_skyt(2, i, 2) == catalan(i + 1)

    def test_negative_i_is_refused(self):
        for count in (count_skyt, termwise_count_skyt):
            for a, b in ((0, 0), (3, 1), (3, 5)):
                with pytest.raises(InvalidShape):
                    count(a, -1, b)

    # The grid holds every i = 0 and a, b below 2 convention as well.
    @pytest.mark.parametrize("a", range(45))
    def test_stepped_sum_equals_termwise_sum(self, a):
        for i in range(20):
            for b in range(45):
                assert count_skyt(a, i, b) == termwise_count_skyt(a, i, b), (a, i, b)

    # Past the Hypothesis range: widths b >= 1,000, uncached.
    @pytest.mark.parametrize("a,i,b", [(2, 1, 1000), (5, 3, 1200), (40, 20, 1000), (300, 100, 1001)])
    def test_stepped_sum_equals_termwise_sum_on_wide_shapes(self, a, i, b):
        assert count_skyt.__wrapped__(a, i, b) == termwise_count_skyt(a, i, b)

    def test_one_straight_count_per_sum(self, monkeypatch):
        # Only the first term is a hook quotient; the others are stepped.
        calls = []

        def counted(*args):
            calls.append(args)
            return count_syt(*args)

        monkeypatch.setattr(tableaux, "count_syt", counted)
        assert count_skyt.__wrapped__(5, 3, 9) == termwise_count_skyt(5, 3, 9)
        assert calls == [(5, 3, 0)]


class TestInvolution:
    def test_figure_pair(self):
        assert involution_rotate(FILLING_433) == ROTATED_334
        assert involution_rotate(ROTATED_334) == FILLING_433

    def test_single_square_block(self):
        f = Filling.from_columns(2, 1, 2, [[1, 2], [3, 4]])
        g = involution_rotate(f)
        assert g.is_legal()
        assert involution_rotate(g) == f

    @pytest.mark.parametrize("a,i,b", [(2, 1, 3), (3, 2, 2), (4, 1, 2), (2, 2, 4)])
    def test_bijection_onto_mirror_shape(self, a, i, b):
        fillings = enumerate_skyt(a, i, b)
        images = [involution_rotate(f) for f in fillings]
        assert all(g.is_legal() for g in images)
        assert all(involution_rotate(g) == f for f, g in zip(fillings, images))
        assert set(images) == set(enumerate_skyt(b, i, a))

    @pytest.mark.parametrize("shape", [SkewShape(2, 1, 2), SkewShape(4, 3, 3), (2, 1, 2)])
    @pytest.mark.parametrize("entries", ODD_ENTRIES, ids=repr)
    def test_kernel_equals_the_termwise_formula_on_any_entries(self, shape, entries):
        # the unchecked constructor takes any entries; each becomes
        # len(entries) + 1 - v, with the type arithmetic gives it
        image = involution_rotate(Filling(shape, entries))
        want = termwise_rotate(entries)
        assert type(image) is Filling and type(image.entries) is tuple
        assert image.shape == (shape[2], shape[1], shape[0])
        assert repr(image.entries) == repr(want)
        assert [type(v) for v in image.entries] == [type(v) for v in want]

    def test_rotation_and_legality_at_the_cell_cap(self):
        # 64 cells: the largest shape, and 1,952 fillings
        a, i, b = 2, 1, MAX_CELLS - 2
        fillings = enumerate_skyt(a, i, b)
        assert len(fillings) == 1952
        for t, f in enumerate(fillings):
            cols = f.columns
            image = involution_rotate(f)
            assert image.columns == skew_rotate(a, i, b, cols)
            assert f.is_legal() and skew_is_legal(a, i, b, cols)
            assert image.is_legal() and skew_is_legal(b, i, a, image.columns)
            at = f.entries.index
            for p, q in ((t % 63, t % 63 + 1), (at(t % 62 + 1), at(t % 62 + 2))):
                bad = _swapped(cols, p, q)
                assert Filling.from_columns(a, i, b, bad).is_legal() == skew_is_legal(a, i, b, bad)
                assert involution_rotate(Filling.from_columns(a, i, b, bad)).columns == skew_rotate(
                    a, i, b, bad
                )


class TestOverline:
    def test_conventions_and_values(self):
        assert count_overline_skyt(0, 5) == 0
        assert count_overline_skyt(1, 1) == 0
        assert count_overline_skyt(1, 2) == 2
        # frozen from filtered enumeration by hand
        assert count_overline_skyt(1, 3) == 3
        assert count_overline_skyt(1, 4) == 4
        assert count_overline_skyt(2, 2) == 5

    @pytest.mark.parametrize("i", range(1, 5))
    @pytest.mark.parametrize("b", range(0, 7))
    def test_matches_filtered_enumeration(self, i, b):
        if 2 * i + b > 14:
            return
        filtered = sum(
            1 for f in enumerate_skyt(2, i, b) if f.entries[0] == 1
        )
        assert count_overline_skyt(i, b) == filtered

    @pytest.mark.parametrize("i,b", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)])
    def test_taller_left_columns_forget_to_the_same_count(self, i, b):
        expected = count_overline_skyt(i, b)
        for a in range(2, 6):
            n = a + 2 * i + b - 2
            largest = set(range(n - (a - 2) + 1, n + 1))
            filtered = [
                f
                for f in enumerate_skyt(a, i, b)
                if f.entries[0] == 1 and set(f.columns[0][2:]) == largest
            ]
            assert len(filtered) == expected


class TestRemovedFamilyCount:
    def test_spot_values(self):
        assert count_skyt_rho_direct(2, 3, 1, 0) == 5
        assert count_skyt_rho_direct(2, 3, 1, 1) == 3
        assert count_skyt_rho_direct(1, 3, 1, 1) == 0
        assert count_skyt_rho_direct(5, 4, 0, 2) == 1

    def test_rho_zero_counts_everything(self):
        # Without removals, the bottom-right entry always exceeds the rank.
        for (m, d, i) in [(1, 3, 1), (2, 3, 1), (2, 5, 2), (3, 4, 1)]:
            assert count_skyt_rho_direct(m, d, i, 0) == count_skyt(m + 1, i, d - 2 * i + 1)

    @pytest.mark.parametrize(
        "m,d,rho",
        [(2, 3, 1), (1, 3, 1), (2, 4, 1), (3, 3, 2), (2, 2, 2), (4, 2, 3), (3, 5, 1)],
    )
    def test_subtraction_formula(self, m, d, rho):
        for i in range((d - 1) // 2 + 1):
            b = d - 2 * i + 1
            direct = count_skyt_rho_direct(m, d, i, rho)
            assert direct == count_skyt(m + 1, i, b) - rho * count_overline_skyt(i, b)

    @pytest.mark.parametrize("a,i,b", [(2, 1, 4), (3, 1, 3), (4, 2, 2), (3, 2, 3), (5, 1, 2)])
    def test_boundary_conditions_on_cell_coordinates(self, a, i, b):
        # The three conditions read cell by cell from the oracle's fillings:
        # the top of the right column, its bottom, and the left column's third cell.
        d = b + 2 * i - 1
        seen = set()
        for rho in range(4):
            for columns in skew_fillings(a, i, b):
                expected = (
                    skew_value(a, i, b, columns, -(b - 2), i) == 1
                    or skew_value(a, i, b, columns, 1, i) > d + rho
                    or (a >= 3 and skew_value(a, i, b, columns, 2, 0) <= d)
                )
                f = Filling.from_columns(a, i, b, columns)
                assert satisfies_removed_family_conditions(f, d, rho) == expected, (columns, rho)
                seen.add(expected)
        assert seen == {True, False}

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameters):
            count_skyt_rho_direct(0, 3, 1, 0)
        with pytest.raises(InvalidParameters):
            count_skyt_rho_direct(2, 1, 0, 1)
        with pytest.raises(InvalidParameters):
            count_skyt_rho_direct(1, 3, 1, 2)  # 2 disjoint 3-sets need 6 elements


def _coefficient_points(total_max: int, past: int):
    """(m, d, rho, i) over family_grid, i from -1 to ``past`` beyond the range."""
    for p in family_grid(total_max, min_d=0):
        top = (p.d - 1) // 2 if p.d else 0
        for i in range(-1 if past else 0, top + 1 + past):
            yield p.m, p.d, p.rho, i


class TestDirectCountByIdeals:
    def test_matches_the_filtered_listing(self):
        points = 0
        for m, d, rho, i in _coefficient_points(12, past=1):
            b = d - 2 * i + 1
            if i <= 0 or b < 2:
                listed = int(i == 0)
            else:
                listed = sum(
                    1
                    for f in enumerate_skyt(m + 1, i, b)
                    if satisfies_removed_family_conditions(f, d, rho)
                )
            assert count_skyt_rho_direct(m, d, i, rho) == listed, (m, d, rho, i)
            points += 1
        assert points == 756

    def test_matches_the_counting_formula(self):
        points = 0
        for m, d, rho, i in _coefficient_points(20, past=0):
            assert count_skyt_rho_direct(m, d, i, rho) == coeff_rho(m, d, i, rho), (m, d, rho, i)
            points += 1
        assert points == 1816

    @pytest.mark.parametrize("a,i,b", shape_grid(a_max=6, b_max=6, i_max=4, cell_max=14))
    def test_every_ideal_chain_is_a_filling(self, a, i, b):
        # The pass's first count is one more independent skew-tableau count.
        if a < 2 or b < 2:
            return
        every, misses = _fillings_and_misses(_LAYOUTS[a, i, b], b + 2 * i - 1, 0)
        assert every == count_skyt(a, i, b) and misses == 0

    def test_reads_no_listing_and_no_formula(self, monkeypatch):
        points = [(4, 12, 4, 0), (3, 6, 2, 1), (2, 5, 1, 1), (6, 9, 3, 1)]
        expected = [count_skyt_rho_direct(*point) for point in points]

        def refuse(*args):
            raise AssertionError("the direct count must not list or use the formula")

        for name in (
            "count_skyt",
            "count_syt",
            "count_overline_skyt",
            "enumerate_skyt",
        ):
            monkeypatch.setattr(tableaux, name, refuse)
        assert [count_skyt_rho_direct(*point) for point in points] == expected
        assert expected[0] == 1112930


class TestIotaAction:
    def test_zero_index_appends_untouched_tail(self):
        f = Filling.from_columns(2, 1, 2, [[1, 3], [2, 4]])
        g = iota_action(0, f, 3)
        assert g.columns == ((1, 3, 5, 6), (2, 4))

    def test_figure_correspondence(self):
        assert iota_action(0, OVERLINE_233, 3) == LIFTED_433

    def test_moves_bottom_right(self):
        f = Filling.from_columns(2, 1, 2, [[1, 3], [2, 4]])
        g = iota_action(2, f, 4)
        assert g.columns == ((1, 3, 4, 5, 7), (2, 6))
        assert g.is_legal()

    def test_injective_on_small_shapes(self):
        m = 3
        seen = {}
        for j in range(m):
            for f in enumerate_skyt(2, 2, 2):
                image = iota_action(j, f, m)
                assert image.is_legal()
                assert image not in seen, (seen[image], (j, f))
                seen[image] = (j, f)

    def test_image_is_exactly_the_excluded_set(self):
        # The images of the top-left-1 fillings under indices below rho are
        # exactly the fillings failing all three boundary conditions.
        m, d, i, rho = 3, 4, 1, 2
        b = d - 2 * i + 1
        overline = [f for f in enumerate_skyt(2, i, b) if f.entries[0] == 1]
        images = {iota_action(j, f, m) for j in range(rho) for f in overline}
        complement = {
            f
            for f in enumerate_skyt(m + 1, i, b)
            if not satisfies_removed_family_conditions(f, d, rho)
        }
        assert images == complement

    def test_index_range(self):
        f = Filling.from_columns(2, 1, 2, [[1, 3], [2, 4]])
        with pytest.raises(IndexOutOfRange):
            iota_action(3, f, 3)
        with pytest.raises(InvalidShape):
            iota_action(0, LIFTED_433, 5)


def test_filling_json_roundtrip():
    payload = json.loads(FILLING_433.to_json())
    assert payload == {
        "a": 4,
        "i": 3,
        "b": 3,
        "columns": [[2, 3, 10, 11], [4, 6], [5, 8], [1, 7, 9]],
    }
    assert Filling.from_json_dict(payload) == FILLING_433


# Shapes of the counting and symmetry sweeps small enough for the
# cell-coordinate oracles.
ORACLE_SHAPES = [
    (a, i, b) for (a, i, b) in shape_grid() if a >= 2 and b >= 2 and a + 2 * i + b - 2 <= 12
]


def _swapped(columns, p, q):
    """columns with the entries at column-major positions p and q exchanged."""
    flat = [v for col in columns for v in col]
    flat[p], flat[q] = flat[q], flat[p]
    out, start = [], 0
    for col in columns:
        out.append(tuple(flat[start : start + len(col)]))
        start += len(col)
    return tuple(out)


@pytest.mark.parametrize("a,i,b", ORACLE_SHAPES)
def test_flat_layout_matches_cell_coordinate_oracles(a, i, b):
    fillings = enumerate_skyt(a, i, b)
    assert [f.columns for f in fillings] == skew_fillings(a, i, b)
    n = a + 2 * i + b - 2
    for t, f in enumerate(fillings):
        cols = f.columns
        assert involution_rotate(f).columns == skew_rotate(a, i, b, cols)
        assert f.is_legal() and skew_is_legal(a, i, b, cols)
        # Neighbouring positions, then the cells holding two consecutive
        # values: swaps that break legality and swaps that may keep it.
        k = t % (n - 1)
        at = f.entries.index
        for p, q in ((k, k + 1), (at(k + 1), at(k + 2))):
            bad = _swapped(cols, p, q)
            assert Filling.from_columns(a, i, b, bad).is_legal() == skew_is_legal(a, i, b, bad)


@pytest.mark.parametrize(
    "a,i,b",
    [(a, i, b) for a, i, b in shape_grid() if a >= 2 and b >= 2]
    + [(2, 1, 62), (62, 1, 2), (3, 1, 61), (2, 31, 2)],  # 64 cells each
)
def test_layout_matches_the_cell_coordinate_neighbours(a, i, b):
    layout = _LAYOUTS[a, i, b]
    pairs = skew_order_pairs(a, i, b)
    assert set(layout.pairs) == pairs and len(layout.pairs) == len(pairs)
    assert layout.need == tuple(
        sum(1 << lo for lo, hi in pairs if hi == k) for k in range(a + 2 * i + b - 2)
    )
    lengths = [len(rows) for rows in skew_column_rows(a, i, b)]
    assert layout.starts == tuple(sum(lengths[:c]) for c in range(i + 2))


@pytest.mark.parametrize("a,i,b", [(a, i, b) for a, i, b in shape_grid() if a >= 2 and b >= 2])
def test_enumeration_is_column_major_lexicographic(a, i, b):
    # on every fillable shape of the counting sweep's grid
    fillings = enumerate_skyt(a, i, b)
    assert len(fillings) == count_skyt(a, i, b)
    assert all(type(f) is Filling for f in fillings)
    assert {f.shape for f in fillings} == {SkewShape(a, i, b)}
    entries = [f.entries for f in fillings]
    assert all(x < y for x, y in zip(entries, entries[1:]))


class TestFillingContract:
    def test_columns_round_trip(self):
        assert FILLING_433.columns == ((2, 3, 10, 11), (4, 6), (5, 8), (1, 7, 9))
        assert FILLING_433.entries == (2, 3, 10, 11, 4, 6, 5, 8, 1, 7, 9)
        for f in enumerate_skyt(3, 2, 4):
            assert Filling.from_columns(3, 2, 4, f.columns) == f

    @pytest.mark.parametrize(
        "columns",
        [
            [[1, 2], [3, 4], [5, 6]],  # one column too many
            [[1, 2, 3], [4]],  # right column too short
            [[1], [2, 3, 4]],  # left column too short
            [[1, 3], [2, 4, 5]],  # right column too long
        ],
    )
    def test_from_columns_rejects_bad_lengths(self, columns):
        with pytest.raises(InvalidShape):
            Filling.from_columns(2, 1, 2, columns)

    @pytest.mark.parametrize("c", range(4))
    @pytest.mark.parametrize("step", [-1, 1])
    def test_from_columns_rejects_each_column_one_cell_off(self, c, step):
        # (4, 3, 3) has column heights (4, 2, 2, 3)
        columns = [list(col) for col in FILLING_433.columns]
        if step > 0:
            columns[c].append(12)
        else:
            columns[c].pop()
        with pytest.raises(InvalidShape, match="column lengths"):
            Filling.from_columns(4, 3, 3, columns)

    def test_from_columns_rejects_a_missing_or_an_extra_column(self):
        columns = [list(col) for col in FILLING_433.columns]
        for bad in (columns[:-1], columns[1:], columns + [[12, 13]], columns + [[]]):
            with pytest.raises(InvalidShape, match="column lengths"):
                Filling.from_columns(4, 3, 3, bad)

    @pytest.mark.parametrize("bad", [1.9, "1", 1.0])
    def test_from_json_dict_refuses_non_integer_entries(self, bad):
        # int() would read 1.9, "1" and 1.0 as 1 and return a legal filling
        payload = {"a": 2, "i": 1, "b": 2, "columns": [[bad, 2], [3, 4]]}
        with pytest.raises(TypeError):
            Filling.from_json_dict(payload)

    def test_from_json_dict_refuses_a_non_integer_shape(self):
        payload = {"a": 2.0, "i": 1, "b": 2, "columns": [[1, 2], [3, 4]]}
        with pytest.raises(InvalidShape, match=r"a=2\.0"):
            Filling.from_json_dict(payload)

    def test_from_columns_rejects_bad_shapes(self):
        with pytest.raises(InvalidShape):
            Filling.from_columns(1, 1, 2, [[1], [2, 3]])

    def test_routes_give_equal_fillings(self):
        entries = FILLING_433.entries
        routes = [
            FILLING_433,
            next(f for f in enumerate_skyt(4, 3, 3) if f.entries == entries),
            involution_rotate(ROTATED_334),
            Filling.from_json_dict(json.loads(FILLING_433.to_json())),
            pickle.loads(pickle.dumps(FILLING_433)),
            Filling(SkewShape(4, 3, 3), entries),
        ]
        for f in routes:
            assert f == FILLING_433 and hash(f) == hash(FILLING_433)
        assert Filling(SkewShape(3, 3, 4), entries) != FILLING_433

    def test_json_and_pickle_round_trip(self):
        fillings = enumerate_skyt(3, 2, 3)
        assert pickle.loads(pickle.dumps(fillings)) == fillings
        for f in fillings:
            assert Filling.from_json_dict(json.loads(f.to_json())) == f

    def test_non_bijective_entries_are_illegal(self):
        assert not Filling.from_columns(2, 1, 2, [[1, 2], [2, 4]]).is_legal()
        assert not Filling.from_columns(2, 1, 2, [[1, 2], [3, 5]]).is_legal()

    @pytest.mark.parametrize("a,i,b", [(2, 1, 2), (2, 1, 3), (3, 1, 3), (2, 2, 2), (4, 1, 2)])
    def test_is_legal_answers_as_the_cell_oracle_on_every_permutation(self, a, i, b):
        n = a + 2 * i + b - 2
        lengths = [len(rows) for rows in skew_column_rows(a, i, b)]
        candidates = [*itertools.permutations(range(1, n + 1)), *(e for e in ODD_ENTRIES if len(e) == n)]
        for entries in candidates:
            cols = _split(entries, lengths)
            f = Filling(SkewShape(a, i, b), entries)
            assert _accepts(f.is_legal) == _accepts(lambda: skew_is_legal(a, i, b, cols))
            if all(type(v) is int for v in entries):
                assert involution_rotate(f).columns == skew_rotate(a, i, b, cols)

    @pytest.mark.parametrize("entries", [e for e in ODD_ENTRIES if len(e) != 4], ids=repr)
    def test_entries_of_another_length_are_illegal(self, entries):
        assert not Filling(SkewShape(2, 1, 2), entries).is_legal()

    def test_columns_are_read_only(self):
        with pytest.raises(AttributeError):
            FILLING_433.columns = ()

    def test_is_an_immutable_pair(self):
        shape, entries = FILLING_433
        assert len(FILLING_433) == 2
        assert shape is FILLING_433.shape and shape == SkewShape(4, 3, 3)
        assert entries is FILLING_433.entries and entries == (2, 3, 10, 11, 4, 6, 5, 8, 1, 7, 9)
        assert not hasattr(FILLING_433, "__dict__")
        assert repr(FILLING_433) == (
            "Filling(shape=SkewShape(a=4, i=3, b=3), entries=(2, 3, 10, 11, 4, 6, 5, 8, 1, 7, 9))"
        )
        assert Filling._fields == ("shape", "entries")
        assert Filling._make((shape, entries)) == FILLING_433._replace(entries=entries)
        for name in ("shape", "entries"):
            with pytest.raises(AttributeError):
                setattr(FILLING_433, name, None)
        # perfbench/tracing.py patches the method on the class
        assert inspect.isfunction(vars(Filling)["is_legal"])

    def test_equals_and_hashes_like_its_plain_pair(self):
        pair = (SkewShape(4, 3, 3), FILLING_433.entries)
        assert FILLING_433 == pair and pair == FILLING_433
        assert hash(FILLING_433) == hash(pair) == hash((FILLING_433.shape, FILLING_433.entries))
        assert len({FILLING_433, pair}) == 1
        # equal entries on another shape: another filling
        other = Filling(SkewShape(3, 3, 4), FILLING_433.entries)
        assert other != FILLING_433
        assert len({other, FILLING_433}) == 2

    def test_every_constructor_gives_a_filling(self):
        built = [
            Filling(SkewShape(4, 3, 3), FILLING_433.entries),
            Filling.from_columns(4, 3, 3, FILLING_433.columns),
            Filling.from_json_dict(json.loads(FILLING_433.to_json())),
            enumerate_skyt(4, 3, 3)[0],
            involution_rotate(FILLING_433),
            iota_action(1, OVERLINE_233, 3),
        ]
        assert all(type(f) is Filling for f in built)
        # the image is the bare pair, with nothing kept from its source
        assert involution_rotate(FILLING_433) == (SkewShape(3, 3, 4), ROTATED_334.entries)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickles_at_every_protocol(self, protocol):
        back = pickle.loads(pickle.dumps(FILLING_433, protocol))
        assert type(back) is Filling and back == FILLING_433 and back.is_legal()


class TestEnumerationCap:
    # Shapes just above the cap, so that a missing check would still end.
    def test_shape_above_the_cap_refused(self):
        assert count_skyt(7, 2, 9) == 1006587 > MAX_FILLINGS
        with pytest.raises(InvalidParameters, match="fillings"):
            enumerate_skyt(7, 2, 9)

    def test_direct_count_shares_the_cap(self):
        # The direct count lists nothing, so only the cell cap is shared.
        m, d, i = 4, 12, 4  # shape (5, 4, 5)
        assert count_skyt(m + 1, i, d - 2 * i + 1) == 1112930 > MAX_FILLINGS
        assert count_skyt_rho_direct(m, d, i, 0) == 1112930
        assert count_skyt_rho_direct(32, 32, 8, 1) == coeff_rho(32, 32, 8, 1)
        for i in (0, 8):  # refused before the i = 0 convention too
            with pytest.raises(InvalidParameters, match="cells"):
                count_skyt_rho_direct(33, 32, i, 1)

    def test_cell_cap(self):
        # (a, 1, 2) has a(a + 1)/2 - 1 fillings: few, but each as long as the shape.
        a = MAX_CELLS - 2
        assert len(enumerate_skyt(a, 1, 2)) == count_skyt(a, 1, 2) == a * (a + 1) // 2 - 1
        with pytest.raises(InvalidParameters, match="cells"):
            enumerate_skyt(a + 1, 1, 2)

    def test_cli_exits_2_at_once(self):
        # 3.4e15 fillings; the address-space limit stops a missing cap early.
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        done = subprocess.run(
            [sys.executable, "-m", "klmatroids.cli", "enumerate", "--a", "12", "--i", "6", "--b", "12"],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(klmatroids.__file__).parents[1])},
            preexec_fn=limit_memory,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert "capped at" in done.stderr and "Traceback" not in done.stderr

import os
import random
import resource
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import klmatroids
from klmatroids import closedforms, tableaux
from klmatroids import matroid as matroid_module
from klmatroids.closedforms import RhoUniformParams, build_rho_uniform
from klmatroids.errors import (
    EmptyBases,
    ExchangeAxiomViolation,
    HasLoops,
    InvalidParameters,
    KlmatroidsError,
    MixedCardinality,
    NotAFlat,
)
from klmatroids.exactarith import IntPoly, poly_reverse
from klmatroids.matroid import (
    char_poly,
    clear_caches,
    closure,
    contraction,
    elements_of,
    flats,
    ground_mask,
    kl_poly,
    kl_poly_recurrence,
    localization,
    mask_from,
    matroid_from_bases,
    rank,
    uniform_matroid,
)
from klmatroids.tableaux import count_overline_skyt, count_skyt
from klmatroids.verification import family_grid

from oracles import (
    brute_rank,
    element_contraction,
    element_localization,
    exchange_axiom_holds,
    is_exchange_violation,
    is_isomorphic,
    mobius_char_coeffs,
    mobius_values,
    upset_z_poly,
)

U12 = matroid_from_bases(3, [{1, 2}, {1, 3}, {2, 3}])
U12_MINUS = matroid_from_bases(3, [{1, 3}, {2, 3}])
RANK0 = matroid_from_bases(3, [set()])


class TestConstruction:
    def test_uniform_from_all_pairs(self):
        assert U12 == uniform_matroid(1, 2)
        assert U12.rank == 2

    def test_single_basis_removed_is_still_a_matroid(self):
        assert U12_MINUS.rank == 2
        assert len(U12_MINUS.bases) == 2

    def test_empty_and_mixed(self):
        with pytest.raises(EmptyBases):
            matroid_from_bases(3, [])
        with pytest.raises(MixedCardinality):
            matroid_from_bases(3, [{1}, {1, 2}])

    def test_out_of_range_elements(self):
        with pytest.raises(ValueError):
            matroid_from_bases(3, [{1, 4}])

    def test_exchange_violation_with_witness(self):
        with pytest.raises(ExchangeAxiomViolation) as info:
            matroid_from_bases(4, [{1, 2}, {3, 4}])
        err = info.value
        assert set(err.basis) in ({1, 2}, {3, 4})
        assert err.element in err.basis
        # the first failing (basis, other, element) in sorted-mask order
        assert (err.basis, err.other, err.element) == ((1, 2), (3, 4), 1)

    def test_ground_set_cap_checked_before_any_subset_work(self):
        assert matroid_from_bases(16, [{16}]).rank == 1
        # 2**40 subsets would never finish: the cap must fire first
        for n in (17, 40):
            with pytest.raises(InvalidParameters) as info:
                matroid_from_bases(n, [{1}])
            assert isinstance(info.value, KlmatroidsError)
            assert "16" in str(info.value)

    def test_builders_check_the_cap_before_listing_bases(self):
        # C(40, 20) bases would never be listed: the cap must fire first.
        # A child process under a timeout and an address-space limit keeps
        # a missing check from hanging the suite.
        script = (
            "from klmatroids.closedforms import RhoUniformParams, build_rho_uniform\n"
            "from klmatroids.errors import InvalidParameters\n"
            "from klmatroids.matroid import uniform_matroid\n"
            "for build in (lambda: uniform_matroid(20, 20),\n"
            "              lambda: build_rho_uniform(RhoUniformParams(20, 20, 1))):\n"
            "    try:\n"
            "        build()\n"
            "    except InvalidParameters as exc:\n"
            "        print(exc)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=20,
            env={**os.environ, "PYTHONPATH": str(Path(klmatroids.__file__).parents[1])},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
        )
        assert done.returncode == 0 and done.stderr == ""
        assert done.stdout.splitlines() == [
            "ground set of size 40 exceeds the 16 element limit for matroids"
        ] * 2

    def test_missing_witness_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(matroid_module, "_exchange_witness", lambda ordered: None)
        with pytest.raises(RuntimeError):
            matroid_from_bases(4, [{1, 2}, {3, 4}])

    def test_overlapping_removal_is_rejected(self):
        # dropping {1,2} and {2,3} from all pairs of [4] breaks the axiom:
        # parallelism would have to be transitive
        remaining = [{1, 3}, {1, 4}, {2, 4}, {3, 4}]
        with pytest.raises(ExchangeAxiomViolation):
            matroid_from_bases(4, remaining)

    def test_parallel_pair_with_loop_is_accepted(self):
        # {12, 13} on four elements: 4 is a loop, 2 and 3 are parallel
        m = matroid_from_bases(4, [{1, 2}, {1, 3}])
        assert m.rank == 2
        assert rank(m, {2, 3}) == 1

    def test_disjoint_families_exhaustive_small(self):
        for n in range(2, 7):
            for d in range(2, n + 1):
                all_bases = [frozenset(c) for c in combinations(range(1, n + 1), d)]
                blocks = [
                    frozenset(range(1 + k * d, 1 + (k + 1) * d)) for k in range(n // d)
                ]
                for take in range(1, len(blocks) + 1):
                    removed = set(blocks[:take])
                    remaining = [b for b in all_bases if b not in removed]
                    if remaining:
                        matroid_from_bases(n, remaining)

    def test_symmetric_difference_families_randomized(self):
        rng = random.Random(20240817)
        for _ in range(40):
            n = rng.randint(4, 7)
            d = rng.randint(2, n - 1)
            pool = [frozenset(c) for c in combinations(range(1, n + 1), d)]
            rng.shuffle(pool)
            family: list[frozenset] = []
            for cand in pool:
                if len(family) >= 3:
                    break
                if all(len(cand ^ f) != 2 for f in family):
                    family.append(cand)
            remaining = [b for b in pool if b not in set(family)]
            if remaining:
                matroid_from_bases(n, remaining)


def _d_subsets(n: int, d: int) -> list[frozenset[int]]:
    return [frozenset(c) for c in combinations(range(1, n + 1), d)]


def _every_family(n_max: int):
    """(n, family) for every nonempty family of equal-size subsets of [n], n <= n_max."""
    for n in range(n_max + 1):
        for d in range(n + 1):
            pool = _d_subsets(n, d)
            for pick in range(1, 1 << len(pool)):
                yield n, [b for k, b in enumerate(pool) if pick >> k & 1]


def _every_loopless_matroid(n_max: int):
    """Every basis system of the exhaustive family with no loop, n <= n_max."""
    for n, family in _every_family(n_max):
        try:
            m = matroid_from_bases(n, family)
        except ExchangeAxiomViolation:
            continue
        if m.closure_of(0) == 0:
            yield m


def _max_intersections(n: int, family: list[frozenset[int]]) -> list[int]:
    return [
        max(len(frozenset(elements_of(s)) & b) for b in family) for s in range(1 << n)
    ]


def _check_against_pairwise(n: int, family: list[frozenset[int]]) -> None:
    """matroid_from_bases accepts exactly when the pairwise oracle does, any
    witness it raises is a real violation, and an accepted matroid's rank
    table is r(S) = max |S & B|."""
    try:
        m = matroid_from_bases(n, family)
    except ExchangeAxiomViolation as err:
        assert not exchange_axiom_holds(family)
        assert is_exchange_violation(
            family, frozenset(err.basis), frozenset(err.other), err.element
        )
    else:
        assert exchange_axiom_holds(family)
        assert list(m.rank_table()) == _max_intersections(n, family)


class TestValidatorEquivalence:
    def test_every_family_up_to_five_elements(self):
        checked = 0
        for n, family in _every_family(5):
            _check_against_pairwise(n, family)
            checked += 1
        assert checked == 2229

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_random_families_up_to_eight_elements(self, data):
        n = data.draw(st.integers(0, 8), label="n")
        d = data.draw(st.integers(0, n), label="d")
        pool = _d_subsets(n, d)
        # sparse draws are mostly rejected; all-but-a-few draws are often matroids
        chosen = data.draw(
            st.sets(st.sampled_from(pool), min_size=1, max_size=12)
            | st.sets(st.sampled_from(pool), max_size=4).map(
                lambda dropped: set(pool) - dropped
            ),
            label="family",
        )
        family = sorted(chosen, key=sorted)
        if not family:
            return
        table = matroid_module._dp_rank_table(n, [mask_from(b, n) for b in family])
        assert table == _max_intersections(n, family)
        _check_against_pairwise(n, family)


class TestRankClosure:
    def test_rank_examples(self):
        assert rank(U12, {1, 2, 3}) == 2
        assert rank(U12_MINUS, {1, 2}) == 1
        assert rank(U12, set()) == 0
        assert rank(RANK0, {1, 2, 3}) == 0

    @pytest.mark.parametrize("m", [U12, U12_MINUS, RANK0])
    def test_rank_matches_independent_subset_oracle(self, m):
        bases = [frozenset(elements_of(b)) for b in m.bases]
        for size in range(m.n + 1):
            for sub in combinations(range(1, m.n + 1), size):
                assert rank(m, set(sub)) == brute_rank(m.n, bases, frozenset(sub))

    def test_closure_examples(self):
        assert closure(U12, {1}) == mask_from({1}, 3)
        assert closure(U12_MINUS, {1}) == mask_from({1, 2}, 3)
        assert closure(U12, {1, 2, 3}) == ground_mask(3)

    def test_masks_outside_the_ground_set_are_refused(self):
        # -1 once sent elements_of and _iter_bits into endless loops, and
        # table[-1] read the top rank; a child process under a timeout and
        # an address-space limit keeps a regression from hanging the suite
        script = (
            "from klmatroids.closedforms import RhoUniformParams, classify_minor\n"
            "from klmatroids.matroid import (Matroid, _iter_bits, closure, contraction,\n"
            "    elements_of, localization, rank, uniform_matroid)\n"
            "m = uniform_matroid(2, 2)\n"
            "calls = [lambda: elements_of(-1), lambda: list(_iter_bits(-1))]\n"
            "for mask in (-1, 1 << 4):\n"
            "    for entry in (rank, closure, localization, contraction,\n"
            "                  Matroid.rank_of, Matroid.closure_of):\n"
            "        calls.append(lambda entry=entry, mask=mask: entry(m, mask))\n"
            "for mask in (-1, 1 << 5):\n"
            "    for kind in ('localization', 'contraction'):\n"
            "        calls.append(lambda mask=mask, kind=kind:\n"
            "            classify_minor(RhoUniformParams(2, 3, 1), mask, kind))\n"
            "for call in calls:\n"
            "    try:\n"
            "        print('returned', call())\n"
            "    except Exception as exc:\n"
            "        print(type(exc).__name__, exc)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=20,
            env={**os.environ, "PYTHONPATH": str(Path(klmatroids.__file__).parents[1])},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
        )
        assert done.returncode == 0 and done.stderr == ""
        assert done.stdout.splitlines() == (
            ["ValueError bitmask -1 is negative"] * 2
            + ["ValueError bitmask -1 outside ground set of size 4"] * 6
            + ["ValueError bitmask 16 outside ground set of size 4"] * 6
            + ["NotAFlat bitmask -1 outside the ground set of U(2,3;1)"] * 2
            + ["NotAFlat bitmask 32 outside the ground set of U(2,3;1)"] * 2
        )

    def test_closure_is_idempotent_and_monotone(self):
        for m in (U12, U12_MINUS, uniform_matroid(2, 2)):
            for s in range(1 << m.n):
                c = m.closure_of(s)
                assert c & s == s
                assert m.closure_of(c) == c


class TestFlats:
    def test_uniform_flat_lattice(self):
        lat = flats(U12)
        assert [set(elements_of(f)) for f in lat.flats] == [
            set(), {1}, {2}, {3}, {1, 2, 3},
        ]
        assert mobius_values(lat.flats) == [1, -1, -1, -1, 2]
        n, flat_masks, ranks = lat
        assert (n, flat_masks, ranks) == (3, (0, 1, 2, 4, 7), (0, 1, 1, 1, 2))
        assert repr(lat) == "FlatLattice(n=3, flats=(0, 1, 2, 4, 7), ranks=(0, 1, 1, 1, 2))"

    def test_removed_basis_flat_lattice(self):
        lat = flats(U12_MINUS)
        assert [set(elements_of(f)) for f in lat.flats] == [
            set(), {3}, {1, 2}, {1, 2, 3},
        ]
        assert mobius_values(lat.flats) == [1, -1, -1, 1]

    def test_rank_zero_collapses(self):
        lat = flats(RANK0)
        assert lat.flats == (ground_mask(3),)
        assert mobius_values(lat.flats) == [1]

    @pytest.mark.parametrize("m", [U12, U12_MINUS, uniform_matroid(2, 3)])
    def test_mobius_sums_vanish_above_bottom(self, m):
        lat = flats(m)
        for f in lat.flats:
            total = sum(
                mu for g, mu in zip(lat.flats, mobius_values(lat.flats)) if g & f == g
            )
            assert total == (1 if f == lat.flats[0] else 0)


class TestMinors:
    def test_localization_of_full_set_is_identity(self):
        assert localization(U12, ground_mask(3)) == U12

    def test_localization_at_singleton(self):
        assert localization(U12, mask_from({3}, 3)) == uniform_matroid(0, 1)

    def test_contraction_at_empty_flat_is_identity(self):
        assert contraction(U12, 0) == U12

    def test_contraction_reduces_rank(self):
        got = contraction(uniform_matroid(2, 3), mask_from({2}, 5))
        assert got == uniform_matroid(2, 2)

    def test_not_a_flat(self):
        with pytest.raises(NotAFlat):
            localization(U12, mask_from({1, 2}, 3))
        with pytest.raises(NotAFlat):
            contraction(U12_MINUS, mask_from({1}, 3))

    def test_match_element_by_element_construction(self):
        small = list(_every_loopless_matroid(5))
        grid = [build_rho_uniform(p) for p in family_grid(8)]
        assert len(small) == 222 and len(grid) == 62
        for m in small + grid:
            for f in m.lattice().flats:
                assert localization(m, f).key() == element_localization(m, f), (m, f)
                assert contraction(m, f).key() == element_contraction(m, f), (m, f)


class _CountedTables:
    """Wraps _dp_rank_table, counting the tables actually built."""

    def __init__(self, monkeypatch):
        self.built = 0
        original = matroid_module._dp_rank_table

        def counted(*args):
            self.built += 1
            return original(*args)

        monkeypatch.setattr(matroid_module, "_dp_rank_table", counted)


class TestTableMemo:
    def test_same_family_in_any_form_is_built_once(self, monkeypatch, fresh_caches):
        tables = _CountedTables(monkeypatch)
        family = [{1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}]
        first = matroid_from_bases(4, family)
        again = [
            matroid_from_bases(4, [mask_from(b, 4) for b in family]),
            matroid_from_bases(4, family[::-1]),
            matroid_from_bases(4, [mask_from(b, 4) for b in family[2:] + family[:2]]),
        ]
        assert tables.built == 1
        for m in again:
            assert m == first and m.rank_table() is first.rank_table()

    def test_another_ground_set_is_another_entry(self, monkeypatch, fresh_caches):
        tables = _CountedTables(monkeypatch)
        on_three = matroid_from_bases(3, [0b011, 0b101])
        on_four = matroid_from_bases(4, [0b011, 0b101])
        assert tables.built == 2 and len(matroid_module._TABLE_MEMO) == 2
        assert len(on_three.rank_table()) == 8 and len(on_four.rank_table()) == 16
        assert on_four.closure_of(0) == 0b1000  # element 4 is a loop

    def test_invalid_family_fails_every_time(self, monkeypatch, fresh_caches):
        tables = _CountedTables(monkeypatch)
        witnesses = []
        for _ in range(2):
            with pytest.raises(ExchangeAxiomViolation) as err:
                matroid_from_bases(4, [{1, 2}, {3, 4}])
            witnesses.append((err.value.basis, err.value.other, err.value.element))
        assert witnesses[0] == witnesses[1] == ((1, 2), (3, 4), 1)
        assert tables.built == 2 and len(matroid_module._TABLE_MEMO) == 0

    def test_clear_caches_empties_it(self, fresh_caches):
        matroid_from_bases(4, [{1, 2}, {1, 3}])
        memo = matroid_module._TABLE_MEMO
        assert len(memo) == 1 and memo.held == 16
        clear_caches()
        assert len(memo) == 0 and memo.held == 0

    def test_held_tables_stay_within_budget(self, fresh_caches):
        # seventeen distinct 16-element tables, 2**16 entries each, exceed the
        # 2**20 budget by one table; the least recently used one goes
        memo = matroid_module._TABLE_MEMO
        assert memo.budget == 1 << 20
        keys = [(16, (1 << e,)) for e in range(16)] + [(16, (0b11,))]
        for n, masks in keys[:16]:
            matroid_from_bases(n, masks)
        assert memo.held == memo.budget and len(memo) == 16
        matroid_from_bases(*keys[0])  # a hit: keys[1] is now the oldest
        matroid_from_bases(*keys[16])
        assert memo.held <= memo.budget and len(memo) == 16
        assert keys[1] not in memo._tables
        assert all(key in memo._tables for key in keys[:1] + keys[2:])


class TestCharPoly:
    def test_examples(self):
        assert char_poly(U12) == IntPoly([2, -3, 1])
        assert char_poly(U12_MINUS) == IntPoly([1, -2, 1])
        assert char_poly(matroid_from_bases(0, [set()])) == IntPoly([1])

    def test_loops_refused(self):
        with pytest.raises(HasLoops):
            char_poly(RANK0)
        with pytest.raises(HasLoops):
            char_poly(matroid_from_bases(4, [{1, 2}, {1, 3}]))

    @pytest.mark.parametrize("m,d", [(1, 1), (1, 2), (2, 2), (3, 2), (2, 3), (1, 4)])
    def test_vanishes_at_one(self, m, d):
        assert char_poly(uniform_matroid(m, d))(1) == 0

    def test_whitney_sum_matches_mobius_sum(self):
        grid = [build_rho_uniform(p) for p in family_grid(10)]
        exhaustive = list(_every_loopless_matroid(5))
        assert len(grid) == 108 and len(exhaustive) == 222
        for m in grid + exhaustive:
            assert char_poly(m) == IntPoly(mobius_char_coeffs(m.lattice(), m.rank))


class TestKlPoly:
    def test_base_cases(self):
        assert kl_poly(matroid_from_bases(0, [set()])) == IntPoly([1])
        assert kl_poly(U12) == IntPoly([1])

    def test_first_nontrivial(self):
        assert kl_poly(uniform_matroid(1, 3)) == IntPoly([1, 2])

    def test_loops_refused(self):
        with pytest.raises(HasLoops):
            kl_poly(matroid_from_bases(4, [{1, 2}, {1, 3}]))
        with pytest.raises(HasLoops):
            kl_poly_recurrence(matroid_from_bases(4, [{1, 2}, {1, 3}]))

    def test_rank_zero_allows_loops(self):
        assert kl_poly(RANK0) == kl_poly_recurrence(RANK0) == IntPoly([1])

    @pytest.mark.parametrize(
        "matroid",
        [
            uniform_matroid(1, 3),
            uniform_matroid(2, 3),
            uniform_matroid(3, 2),
            uniform_matroid(2, 4),
            matroid_from_bases(3, [{1, 3}, {2, 3}]),
            matroid_from_bases(
                5, [set(c) for c in combinations(range(1, 6), 3) if set(c) != {1, 2, 3}]
            ),
        ],
    )
    def test_defining_equation_holds(self, matroid):
        d = matroid.rank
        p = kl_poly(matroid)
        assert p.coeff(0) == 1
        assert 2 * p.degree < d
        lat = flats(matroid)
        rhs = IntPoly()
        for f in lat.flats:
            if f == 0:
                continue
            rhs = rhs + char_poly(localization(matroid, f)) * kl_poly(contraction(matroid, f))
        assert poly_reverse(p, d) - p == rhs


@pytest.fixture
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


def _sparse_paving(rng: random.Random, n: int, d: int, k: int) -> list[frozenset[int]]:
    """Up to k random d-subsets of [n] that pairwise meet in at most d - 2 elements."""
    kept: list[frozenset[int]] = []
    for _ in range(40):
        if len(kept) == k:
            break
        cand = frozenset(rng.sample(range(1, n + 1), d))
        if all(len(cand & other) <= d - 2 for other in kept):
            kept.append(cand)
    return kept


def _lnr_coeffs(n: int, d: int, k: int) -> list[int]:
    """KL coefficients of a rank-d sparse paving matroid on n elements with k
    circuit-hyperplanes, by the Lee-Nasr-Radcliffe tableau count."""
    return [1] + [
        count_skyt(n - d + 1, i, d - 2 * i + 1) - k * count_overline_skyt(i, d - 2 * i + 1)
        for i in range(1, (d - 1) // 2 + 1)
    ]


class _Refused(Exception):
    pass


def _refuse(*args, **kwargs):
    raise _Refused("an oracle route called outside itself")


class _UnreadableMemo(dict):
    def get(self, *args):
        raise _Refused("the Z memo was read")

    __getitem__ = __contains__ = get


# small matroids of several kinds, for the independence checks
ROUTE_SAMPLES = [
    uniform_matroid(2, 4),
    build_rho_uniform(RhoUniformParams(3, 4, 1)),
    build_rho_uniform(RhoUniformParams(2, 5, 1)),
    matroid_from_bases(
        6, [set(c) for c in combinations(range(1, 7), 4) if set(c) not in ({1, 2, 3, 4}, {1, 2, 5, 6})]
    ),
]


class TestOracleRoutes:
    def test_agree_on_every_small_basis_system(self):
        matroids = list(_every_loopless_matroid(5))
        assert len(matroids) == 222
        for m in matroids:
            assert kl_poly(m) == kl_poly_recurrence(m)

    def test_agree_with_lnr_on_random_sparse_paving(self):
        # ranks above 6 are left out at n = 9, 10: the recurrence alone takes
        # most of a second there
        rng = random.Random(20261018)
        several = 0  # matroids with more than one circuit-hyperplane
        for n in range(5, 11):
            for d in range(2, min(n - 2, 6) + 1):
                family = _sparse_paving(rng, n, d, 1 + (n + d) % 3)
                removed = {mask_from(s, n) for s in family}
                m = matroid_from_bases(
                    n, [b for b in uniform_matroid(n - d, d).bases if b not in removed]
                )
                want = IntPoly(_lnr_coeffs(n, d, len(family)))
                assert kl_poly(m) == kl_poly_recurrence(m) == want, (n, d, family)
                several += len(family) > 1
        assert several == 16

    def test_z_route_builds_no_minor(self, monkeypatch, fresh_caches):
        want = [kl_poly_recurrence(m) for m in ROUTE_SAMPLES]
        clear_caches()
        for name in ("localization", "contraction", "char_poly", "kl_poly_recurrence"):
            monkeypatch.setattr(matroid_module, name, _refuse)
        monkeypatch.setattr(matroid_module.Matroid, "lattice", _refuse)
        for module in (tableaux, closedforms):
            for name in ("count_skyt", "count_overline_skyt", "count_syt"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, _refuse)
        assert [kl_poly(m) for m in ROUTE_SAMPLES] == want

    def test_cube_matches_upset_solver_on_every_small_basis_system(self):
        matroids = list(_every_loopless_matroid(5))
        assert len(matroids) == 222
        for m in matroids:
            assert kl_poly(m) == IntPoly(upset_z_poly(m) if m.rank else [1]), m

    def test_cube_matches_upset_solver_on_the_family_grid(self):
        grid = list(family_grid(10))
        assert len(grid) == 108
        for p in grid:
            m = build_rho_uniform(p)
            assert kl_poly(m) == IntPoly(upset_z_poly(m) if m.rank else [1]), p

    def test_cube_matches_upset_solver_and_lnr_on_sparse_paving(self):
        rng = random.Random(20261019)
        checked = 0
        for n in range(5, 13):
            for d in range(2, n - 1):
                for k in (1, 2, 3):
                    family = _sparse_paving(rng, n, d, k)
                    removed = {mask_from(s, n) for s in family}
                    m = matroid_from_bases(
                        n, [b for b in uniform_matroid(n - d, d).bases if b not in removed]
                    )
                    want = IntPoly(_lnr_coeffs(n, d, len(family)))
                    assert kl_poly(m) == IntPoly(upset_z_poly(m)) == want, (n, d, family)
                    checked += 1
        assert checked == 132

    @pytest.mark.parametrize(
        "n,d,family",
        [
            (12, 8, []),
            (11, 5, [{1, 2, 3, 4, 5}, {1, 2, 6, 7, 8}, {3, 4, 6, 9, 10}]),
        ],
    )
    def test_narrow_slots_restart_wider(self, monkeypatch, fresh_caches, n, d, family):
        # U(4, 8) and the sparse paving point have coefficients far beyond a
        # 4-bit slot, so the solve must refuse its first widths and restart
        # until the bound holds
        removed = {mask_from(s, n) for s in family}
        m = matroid_from_bases(
            n, [b for b in uniform_matroid(n - d, d).bases if b not in removed]
        )
        widths = []
        solve = matroid_module._z_solve

        def spy(matroid, width=None):
            widths.append(width or matroid_module._Z_SLOT_BITS)
            return solve(matroid, width)

        monkeypatch.setattr(matroid_module, "_Z_SLOT_BITS", 4)
        monkeypatch.setattr(matroid_module, "_z_solve", spy)
        assert kl_poly(m) == IntPoly(_lnr_coeffs(n, d, len(family)))
        assert widths[:2] == [4, 8] and len(widths) >= 3

    def test_recurrence_reads_no_z_result(self, monkeypatch, fresh_caches):
        want = [kl_poly(m) for m in ROUTE_SAMPLES]
        monkeypatch.setattr(matroid_module, "kl_poly", _refuse)
        monkeypatch.setattr(matroid_module, "_z_solve", _refuse)
        monkeypatch.setattr(matroid_module, "_KL_CACHE", _UnreadableMemo())
        assert [kl_poly_recurrence(m) for m in ROUTE_SAMPLES] == want


class TestIsomorphism:
    def test_equal_matroids(self):
        assert is_isomorphic(uniform_matroid(2, 2), uniform_matroid(2, 2))

    def test_relabelled_block(self):
        shifted = matroid_from_bases(
            4, [b for b in uniform_matroid(2, 2).bases if b != mask_from({3, 4}, 4)]
        )
        canonical = matroid_from_bases(
            4, [b for b in uniform_matroid(2, 2).bases if b != mask_from({1, 2}, 4)]
        )
        assert is_isomorphic(shifted, canonical)

    def test_distinguishes_different_matroids(self):
        full = uniform_matroid(2, 2)
        removed = matroid_from_bases(
            4, [b for b in full.bases if b != mask_from({1, 2}, 4)]
        )
        assert not is_isomorphic(full, removed)

    def test_ground_size_guard(self):
        assert is_isomorphic(uniform_matroid(9, 1), uniform_matroid(9, 1))  # fast path
        with pytest.raises(ValueError):
            is_isomorphic(
                matroid_from_bases(10, [{e} for e in range(1, 10)]),
                matroid_from_bases(10, [{e} for e in range(2, 11)]),
            )

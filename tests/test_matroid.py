import ast
import copy
import os
import pickle
import random
import resource
import subprocess
import sys
import tracemalloc
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import klmatroids
from klmatroids import closedforms, tableaux
from klmatroids import matroid as matroid_module
from klmatroids.closedforms import RhoUniformParams, build_rho_uniform, kl_poly_rho
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
    FlatLattice,
    Matroid,
    clear_caches,
    contraction,
    d_subsets,
    elements_of,
    ground_mask,
    kl_poly,
    kl_poly_recurrence,
    kl_recurrence_rhs,
    localization,
    mask_from,
    matroid_from_bases,
    uniform_matroid,
)
from klmatroids.verification import family_grid

from oracles import (
    brute_rank,
    closure_keeps_rank,
    closure_lattice,
    complete_graph,
    dp_rank_table,
    element_contraction,
    element_localization,
    exchange_axiom_holds,
    first_exchange_violation,
    graphic_matroid,
    is_exchange_violation,
    is_isomorphic,
    lnr_coeffs,
    mobius_char_coeffs,
    mobius_values,
    per_flat_recurrence_rhs,
    reference_minor_families,
    sparse_paving,
    sparse_paving_matroid,
    upset_z_poly,
    wheel_graph,
    whitney_char_coeffs,
)

U12 = matroid_from_bases(3, [{1, 2}, {1, 3}, {2, 3}])
U12_MINUS = matroid_from_bases(3, [{1, 3}, {2, 3}])
RANK0 = matroid_from_bases(3, [set()])


class TestConstruction:
    def test_uniform_from_all_pairs(self):
        assert U12 == uniform_matroid(1, 2)
        assert U12.rank == 2

    def test_d_subsets_list_the_masks_in_lexicographic_order(self):
        for n in range(11):
            for d in range(n + 2):
                want = [mask_from(c, n) for c in combinations(range(1, n + 1), d)]
                assert d_subsets(n, d) == want

    def test_single_basis_removed_is_still_a_matroid(self):
        assert U12_MINUS.rank == 2
        assert len(U12_MINUS.bases) == 2

    def test_equal_families_hash_equal(self, fresh_caches):
        # after clear_caches() the same family is a new object, equal to the old
        again = matroid_from_bases(3, [0b011, 0b101, 0b110])
        assert again is not U12 and again == U12
        assert hash(again) == hash(U12) and len({again, U12, U12_MINUS}) == 2

    def test_comparison_with_a_non_matroid_is_left_to_the_other_side(self):
        assert U12.__eq__(U12.key()) is NotImplemented
        assert U12 != U12.key() and U12 != "U12"

    def test_repr_shows_the_first_six_bases(self):
        assert repr(U12) == "Matroid(n=3, rank=2, bases=[{1, 2}, {1, 3}, {2, 3}])"
        assert repr(RANK0) == "Matroid(n=3, rank=0, bases=[set()])"
        assert repr(uniform_matroid(3, 2)) == (
            "Matroid(n=5, rank=2, bases=[{1, 2}, {1, 3}, {2, 3}, {1, 4}, {2, 4}, {3, 4}]...)"
        )

    @pytest.mark.parametrize("which", ["U12", "RANK0", "U(2,3;1)", "n0"])
    def test_pickle_and_copy_round_trips(self, which):
        m = {
            "U12": U12,
            "RANK0": RANK0,
            "U(2,3;1)": build_rho_uniform(RhoUniformParams(2, 3, 1)),
            "n0": matroid_from_bases(0, [0]),
        }[which]
        want = kl_poly(m)  # fills the parent's _kl slot
        for c in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
            assert type(c) is Matroid and c == m and hash(c) == hash(m)
            assert (c.n, c.bases, c.rank, c.rank_table(), c._flats) == (
                m.n, m.bases, m.rank, m.rank_table(), m._flats
            )
            # the Z-route result is not carried over: the copy solves afresh
            assert getattr(c, "_kl", None) is None
            assert kl_poly(c) == want
            with pytest.raises(AttributeError, match="immutable"):
                c.rank = 3

    def test_attributes_cannot_be_assigned(self):
        with pytest.raises(AttributeError, match="immutable"):
            U12.rank = 3
        assert U12.rank == 2

    def test_empty_and_mixed(self):
        with pytest.raises(EmptyBases):
            matroid_from_bases(3, [])
        with pytest.raises(MixedCardinality):
            matroid_from_bases(3, [{1}, {1, 2}])

    def test_out_of_range_elements(self):
        with pytest.raises(ValueError):
            matroid_from_bases(3, [{1, 4}])

    def test_a_non_integer_element_is_named(self):
        with pytest.raises(TypeError, match=r"^element 1\.5 is not an integer$"):
            mask_from([1.5], 3)
        with pytest.raises(TypeError, match=r"^element 1\.0 is not an integer$"):
            uniform_matroid(2, 2).rank_of([1.0])
        with pytest.raises(TypeError, match=r"^element 1\.0 is not an integer$"):
            matroid_from_bases(3, [[1.0, 2.0]])

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

    def test_the_family_builder_raises_the_cap_message_itself(self):
        # rank 0 has one basis, so a missing check could not hang this process
        with pytest.raises(InvalidParameters, match="^ground set of size 17 exceeds the 16 "):
            uniform_matroid(17, 0)

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

    @pytest.mark.parametrize(
        "build, args",
        [(uniform_matroid, (2.0, 3)), (uniform_matroid, (2, 3.0)), (matroid_from_bases, (4.0, [3, 5]))],
    )
    def test_a_float_is_refused_cold_and_after_the_int(self, fresh_caches, build, args):
        # a float equal to an int must not find the int's memo entry
        exact = [int(a) if type(a) is float else a for a in args]
        for _ in ("cold", "warm"):
            with pytest.raises(InvalidParameters, match="must be integers"):
                build(*args)
            build(*exact)  # the int's entry, for the warm pass

    def test_negative_sizes_are_a_value_error(self):
        for build in (lambda: uniform_matroid(-1, 3), lambda: matroid_from_bases(-1, [0])):
            with pytest.raises(ValueError, match=">= 0|non-negative"):
                build()

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
        assert m.rank_of({2, 3}) == 1

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
    """matroid_from_bases accepts exactly when the pairwise oracle does, the
    witness it raises is the first real violation, and an accepted matroid's
    rank table is r(S) = max |S & B| and its lattice the closure sweep's."""
    try:
        m = matroid_from_bases(n, family)
    except ExchangeAxiomViolation as err:
        assert not exchange_axiom_holds(family)
        assert (err.basis, err.other, err.element) == first_exchange_violation(n, family)
        assert is_exchange_violation(
            family, frozenset(err.basis), frozenset(err.other), err.element
        )
    else:
        assert exchange_axiom_holds(family)
        assert list(m.rank_table()) == _max_intersections(n, family)
        assert m.lattice() == closure_lattice(n, m.rank_table())


def _check_packed_against_reference(n: int, family: list[frozenset[int]]) -> bool:
    """The packed rank table equals the subset-by-subset DP, the local rank
    axiom gives the closure test's verdict, and on a basis system the flat
    indicator and the lattice hold the closure sweep's flats; returns the
    verdict."""
    masks = sorted(mask_from(b, n) for b in family)
    table, levels = matroid_module._dp_rank_table(n, masks)
    want = dp_rank_table(n, masks)
    assert type(table) is bytes and list(table) == want
    verdict = closure_keeps_rank(n, want)
    flats = matroid_module._validated_flats(n, levels)
    assert (flats is not None) == verdict
    if verdict:
        reference = closure_lattice(n, want)
        assert flats == sum(1 << f for f in reference[1])
        lattice = matroid_from_bases(n, masks).lattice()
        assert type(lattice) is FlatLattice and lattice == reference
    return verdict


class TestValidatorEquivalence:
    def test_every_family_up_to_five_elements(self):
        checked = valid = 0
        for n, family in _every_family(5):
            _check_against_pairwise(n, family)
            valid += _check_packed_against_reference(n, family)
            checked += 1
        # 1 + 2 + 5 + 16 + 68 + 406 labelled matroids on 0..5 elements
        assert checked == 2229 and valid == 498

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
        table, _ = matroid_module._dp_rank_table(n, [mask_from(b, n) for b in family])
        assert list(table) == _max_intersections(n, family)
        _check_against_pairwise(n, family)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_packed_kernel_matches_the_reference_up_to_ten_elements(self, data):
        n = data.draw(st.integers(0, 10), label="n")
        d = data.draw(st.integers(0, n), label="d")
        pool = _d_subsets(n, d)
        chosen = data.draw(
            st.sets(st.sampled_from(pool), min_size=1, max_size=20)
            | st.sets(st.sampled_from(pool), max_size=6).map(
                lambda dropped: set(pool) - dropped
            ),
            label="family",
        )
        if chosen:
            _check_packed_against_reference(n, sorted(chosen, key=sorted))

    def test_packed_kernel_on_the_smallest_and_largest_ground_sets(self):
        assert matroid_module._dp_rank_table(0, [0]) == (b"\0", [])
        assert _check_packed_against_reference(0, [frozenset()])
        assert _check_packed_against_reference(16, [frozenset(range(3, 11))])
        assert _check_packed_against_reference(16, _d_subsets(16, 8)[1:])

    def test_tables_match_their_definitions(self):
        for n in range(matroid_module.MAX_GROUND + 1):
            tables = matroid_module._tables(n)
            if n < 7:
                for s in range(1 << n):
                    assert [w >> s & 1 for w in tables.without] == [
                        1 - (s >> e & 1) for e in range(n)
                    ]
                    assert [ind >> s & 1 for ind in tables.size] == [
                        int(s.bit_count() == k) for k in range(n + 1)
                    ]
            assert [w.bit_count() for w in tables.without] == [1 << n >> 1] * n, n
            assert [ind.bit_count() for ind in tables.size] == [comb(n, k) for k in range(n + 1)]
            assert tables.bits == tuple(1 << e for e in reversed(range(n))), n
            assert tables.subsets == tuple(range(1 << n)), n
            assert tables.highest == tuple(
                1 << x.bit_length() >> 1 for x in range(max(1, 1 << n >> 1))
            ), n
            parities = bytes(x.bit_count() & 1 for x in range(1 << n))
            assert tables.parity.to_bytes(1 << n, "little") == parities, n
            assert matroid_module._tables(n) is tables
        assert set(matroid_module._TABLES) == set(range(matroid_module.MAX_GROUND + 1))

    def test_the_lattice_lists_the_shared_subset_ints(self):
        # compress over the per-n subsets hands out those ints, not new ones
        m = build_rho_uniform(RhoUniformParams(5, 6, 1))
        subsets = matroid_module._tables(m.n).subsets
        assert all(f is subsets[f] for f in m.lattice().flats)


class TestRankClosure:
    def test_rank_examples(self):
        assert U12.rank_of({1, 2, 3}) == 2
        assert U12_MINUS.rank_of({1, 2}) == 1
        assert U12.rank_of(set()) == 0
        assert RANK0.rank_of({1, 2, 3}) == 0

    @pytest.mark.parametrize("m", [U12, U12_MINUS, RANK0])
    def test_rank_matches_independent_subset_oracle(self, m):
        bases = [frozenset(elements_of(b)) for b in m.bases]
        for size in range(m.n + 1):
            for sub in combinations(range(1, m.n + 1), size):
                assert m.rank_of(set(sub)) == brute_rank(m.n, bases, frozenset(sub))

    def test_closure_examples(self):
        assert U12.closure_of({1}) == mask_from({1}, 3)
        assert U12_MINUS.closure_of({1}) == mask_from({1, 2}, 3)
        assert U12.closure_of({1, 2, 3}) == ground_mask(3)

    def test_masks_outside_the_ground_set_are_refused(self):
        # -1 once sent elements_of and _iter_bits into endless loops, and
        # table[-1] read the top rank; a child process under a timeout and
        # an address-space limit keeps a regression from hanging the suite
        script = (
            "from klmatroids.closedforms import RhoUniformParams, classify_minor\n"
            "from klmatroids.matroid import (Matroid, _iter_bits, contraction,\n"
            "    elements_of, localization, uniform_matroid)\n"
            "m = uniform_matroid(2, 2)\n"
            "calls = [lambda: elements_of(-1), lambda: list(_iter_bits(-1))]\n"
            "for mask in (-1, 1 << 4):\n"
            "    for entry in (localization, contraction, Matroid.rank_of, Matroid.closure_of):\n"
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
            + ["ValueError bitmask -1 outside ground set of size 4"] * 4
            + ["ValueError bitmask 16 outside ground set of size 4"] * 4
            + ["NotAFlat bitmask -1 outside the ground set of U(2,3;1)"] * 2
            + ["NotAFlat bitmask 32 outside the ground set of U(2,3;1)"] * 2
        )

    @pytest.mark.parametrize("mask", [-1, 1 << 4])
    def test_rank_of_refuses_a_mask_off_the_ground_set_here_too(self, mask):
        # neither mask can loop, so both also run in this process
        with pytest.raises(ValueError, match=f"bitmask {mask} outside ground set of size 4"):
            uniform_matroid(2, 2).rank_of(mask)

    def test_a_negative_mask_is_refused_before_the_first_bit(self):
        # taken lazily, so a missing check yields a bit here instead of looping
        with pytest.raises(ValueError, match="bitmask -1 is negative"):
            next(matroid_module._iter_bits(-1))

    def test_closure_is_idempotent_and_monotone(self):
        for m in (U12, U12_MINUS, uniform_matroid(2, 2)):
            for s in range(1 << m.n):
                c = m.closure_of(s)
                assert c & s == s
                assert m.closure_of(c) == c


class TestFlats:
    def test_uniform_flat_lattice(self):
        lat = U12.lattice()
        assert [set(elements_of(f)) for f in lat.flats] == [
            set(), {1}, {2}, {3}, {1, 2, 3},
        ]
        assert mobius_values(lat.flats) == [1, -1, -1, -1, 2]
        n, flat_masks, ranks = lat
        assert (n, flat_masks, ranks) == (3, (0, 1, 2, 4, 7), (0, 1, 1, 1, 2))
        assert repr(lat) == "FlatLattice(n=3, flats=(0, 1, 2, 4, 7), ranks=(0, 1, 1, 1, 2))"

    def test_removed_basis_flat_lattice(self):
        lat = U12_MINUS.lattice()
        assert [set(elements_of(f)) for f in lat.flats] == [
            set(), {3}, {1, 2}, {1, 2, 3},
        ]
        assert mobius_values(lat.flats) == [1, -1, -1, 1]

    def test_rank_zero_collapses(self):
        lat = RANK0.lattice()
        assert lat.flats == (ground_mask(3),)
        assert mobius_values(lat.flats) == [1]

    def test_lattice_matches_the_closure_sweep_on_sparse_paving(self):
        rng = random.Random(20261026)
        checked = 0
        for n in range(6, 13):
            for d in range(2, n - 1):
                for k in (1, 2, 3):
                    m = sparse_paving_matroid(n, d, sparse_paving(rng, n, d, k))
                    assert m.lattice() == closure_lattice(n, m.rank_table()), (n, d, m)
                    checked += 1
        assert checked == 126

    @pytest.mark.parametrize("p", [(8, 8), (8, 8, 1), (4, 12), (1, 15)])
    def test_lattice_matches_the_closure_sweep_at_sixteen_elements(self, p):
        m = build_rho_uniform(RhoUniformParams(*p))
        assert m.lattice() == closure_lattice(16, m.rank_table())

    def test_minors_refuse_every_non_flat_and_loops_leave_out_the_empty_set(self):
        matroids = looped = 0
        for n, family in _every_family(5):
            try:
                m = matroid_from_bases(n, family)
            except ExchangeAxiomViolation:
                continue
            _, flats, _ = closure_lattice(n, m.rank_table())
            for s in set(range(1 << n)) - set(flats):
                with pytest.raises(NotAFlat):
                    localization(m, s)
                with pytest.raises(NotAFlat):
                    contraction(m, s)
            loops = m.closure_of(0)
            assert m.lattice().flats[0] == loops and (0 in m.lattice().flats) == (not loops)
            matroids += 1
            looped += loops != 0
        assert matroids == 498 and looped == 498 - 222

    @pytest.mark.parametrize("m", [U12, U12_MINUS, uniform_matroid(2, 3)])
    def test_mobius_sums_vanish_above_bottom(self, m):
        lat = m.lattice()
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
        for m in _walked_matroids():
            for f in m.lattice().flats:
                assert localization(m, f).key() == element_localization(m, f), (m, f)
                assert contraction(m, f).key() == element_contraction(m, f), (m, f)


def _walked_matroids() -> list:
    """The 222 loopless basis systems on at most 5 elements, the 62 family
    points with n <= 8 and 54 seeded sparse paving matroids at n = 6..9."""
    small = list(_every_loopless_matroid(5))
    grid = [build_rho_uniform(p) for p in family_grid(8)]
    # circuit-hyperplanes are dependent flats, where the library's contraction
    # reads r(S | F) and the oracle's r(S | a basis of F)
    rng = random.Random(20261023)
    paving = [
        sparse_paving_matroid(n, d, sparse_paving(rng, n, d, k))
        for n in range(6, 10)
        for d in range(2, n - 1)
        for k in (1, 2, 3)
    ]
    assert len(small) == 222 and len(grid) == 62 and len(paving) == 54
    return small + grid + paving


def _assert_listing_matches_reference(m) -> None:
    for f in m.lattice().flats:
        got = (
            matroid_module._localization_family(m, f),
            matroid_module._contraction_family(m, f),
        )
        assert got == reference_minor_families(m, f), (m, f)


class TestMinorListing:
    """The two minor families listed from the highest bit down, with no sort,
    against the paired combinations listed lowest first and sorted."""

    def test_every_flat_of_the_walked_matroids(self):
        for m in _walked_matroids():
            _assert_listing_matches_reference(m)

    @pytest.mark.parametrize(
        "graph",
        [complete_graph(4), complete_graph(5), wheel_graph(3), wheel_graph(4), wheel_graph(5)],
        ids=["K4", "K5", "W3", "W4", "W5"],
    )
    def test_graphic_matroids_with_dependent_flats(self, graph):
        # a triangle is a dependent flat, so the free-localization shortcut
        # is skipped there and the rank test lists its bases
        m = graphic_matroid(*graph)
        table = m.rank_table()
        assert any(table[f] < f.bit_count() for f in m.lattice().flats)
        _assert_listing_matches_reference(m)

    @pytest.mark.parametrize(
        "n,bases", [(0, [0]), (1, [0]), (3, [0])], ids=["n0", "rank0-loop", "rank0-three-loops"]
    )
    def test_empty_ground_set_and_rank_zero(self, n, bases):
        m = matroid_from_bases(n, bases)
        _assert_listing_matches_reference(m)
        # the ground set is the one flat; it contracts to the rank-0 matroid on nothing
        full = ground_mask(n)
        assert matroid_module._contraction_family(m, full) == (0, (0,))
        assert matroid_module._localization_family(m, full) == (n, (0,))


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
            assert m is first

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

    def test_clear_caches_empties_the_family_builder(self, fresh_caches):
        # a family matroid built before the clear must not outlive it
        p = RhoUniformParams(8, 8, 1)
        build_rho_uniform(p)
        clear_caches()
        assert build_rho_uniform(p) is matroid_from_bases(p.n, build_rho_uniform(p).bases)

    def test_the_sixteen_element_family_stays_within_budget(self, fresh_caches):
        # every family member is kept in the memo alone, so building all 49
        # points keeps at most sixteen 2**16-byte tables alive
        points = [p for p in family_grid(16, min_d=0) if p.n == 16]
        assert len(points) == 49
        tracemalloc.start()
        try:
            for p in points:
                build_rho_uniform(p)
            traced, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        memo = matroid_module._TABLE_MEMO
        assert memo.held <= memo.budget and traced < 8 << 20
        last = points[-1]
        assert build_rho_uniform(last) is matroid_from_bases(last.n, build_rho_uniform(last).bases)

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
        assert keys[1] not in memo._matroids
        assert all(key in memo._matroids for key in keys[:1] + keys[2:])

    def test_a_family_hit_keeps_the_bases_entry_alive(self, fresh_caches):
        # sixteen other 16-element tables go through the memo while the family
        # point is met under its (m, d, rho, offset) key between each one
        p = RhoUniformParams(8, 8, 1)
        first = build_rho_uniform(p)
        for e in range(16):
            matroid_from_bases(16, [1 << e])
            assert build_rho_uniform(p) is first
        assert first.key() in matroid_module._TABLE_MEMO._matroids
        assert matroid_from_bases(16, first.bases) is first

    def test_a_family_hit_puts_an_evicted_bases_entry_back(self, fresh_caches):
        # U(8, 8; 1) fills two of the sixteen 16-element slots, one per key;
        # fifteen other tables then evict its (n, bases) entry alone
        p = RhoUniformParams(8, 8, 1)
        first = build_rho_uniform(p)
        for e in range(15):
            matroid_from_bases(16, [1 << e])
        held = matroid_module._TABLE_MEMO._matroids
        assert first.key() not in held and (8, 8, 1, 0) in held
        assert build_rho_uniform(p) is first
        assert first.key() in held
        assert matroid_from_bases(16, first.bases) is first

    def test_z_results_leave_with_their_matroids(self, monkeypatch, fresh_caches):
        # a 2**12-byte budget holds at most two 10-element family members, so
        # most of the grid's matroids are evicted while their results are used;
        # the memory the sweep leaves behind is then about the memo's tables, a
        # few kB, where a module-level store of the 118 results alone holds
        # about 24 kB, and one keyed by (n, bases) about 160 kB
        memo = matroid_module._TABLE_MEMO
        monkeypatch.setattr(memo, "budget", 1 << 12)
        grid = list(family_grid(10, min_d=0))
        want = [kl_poly_rho(p) for p in grid]
        for p in grid:  # builds the subset indicators of each ground-set size
            build_rho_uniform(p)
        clear_caches()
        tracemalloc.start()
        try:
            for p, poly in zip(grid, want):
                assert kl_poly(build_rho_uniform(p)) == poly, p
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(grid) == 118 and memo.held <= memo.budget
        assert held < 3 * memo.budget, f"{held} bytes held after the sweep"

    def test_a_z_result_lives_exactly_as_long_as_its_matroid(self, monkeypatch, fresh_caches):
        # a 2**7-byte budget holds two 6-element tables, so a third evicts the first
        memo = matroid_module._TABLE_MEMO
        monkeypatch.setattr(memo, "budget", 1 << 7)
        solved = []
        solve = matroid_module._z_solve

        def spy(matroid, *width):
            solved.append(matroid)
            return solve(matroid, *width)

        monkeypatch.setattr(matroid_module, "_z_solve", spy)
        evicted = matroid_from_bases(6, d_subsets(6, 3))
        held = matroid_from_bases(6, d_subsets(6, 4))
        results = [kl_poly(evicted), kl_poly(held)]
        matroid_from_bases(6, d_subsets(6, 2))
        assert evicted.key() not in memo._matroids and held.key() in memo._matroids
        assert kl_poly(evicted) is results[0] and kl_poly(held) is results[1]
        assert len(solved) == 2 and solved[0] is evicted and solved[1] is held
        clear_caches()
        again = matroid_from_bases(6, d_subsets(6, 3))
        assert again is not evicted and kl_poly(again) == results[0] == IntPoly([1, 9])
        assert len(solved) == 3 and solved[2] is again


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

    def test_byte_counts_match_the_subset_by_subset_sum(self):
        exhaustive = list(_every_loopless_matroid(5))
        grid = [build_rho_uniform(p) for p in family_grid(10)]
        graphs = [complete_graph(4), complete_graph(5), *map(wheel_graph, range(3, 7))]
        graphic = [graphic_matroid(*graph) for graph in graphs]
        assert len(exhaustive) == 222 and len(grid) == 108
        for m in exhaustive + grid + graphic:
            assert char_poly(m) == IntPoly(whitney_char_coeffs(m)), m
        # a loop still refuses, though every subset's byte could be counted
        looped = matroid_from_bases(5, [{1, 2}, {1, 3}, {2, 3}, {2, 4}, {3, 4}])
        assert looped.rank_of({5}) == 0
        with pytest.raises(HasLoops):
            char_poly(looped)

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

    def test_every_route_names_the_same_loops(self):
        # 4 and 5 are loops of a rank-2 matroid on five elements
        m = matroid_from_bases(5, [{1, 2}, {1, 3}])
        for route in (char_poly, kl_poly, kl_poly_recurrence):
            with pytest.raises(HasLoops, match=r"^loops \{4, 5\} present$"):
                route(m)

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
        lat = matroid.lattice()
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


def _lnr_families() -> list[tuple[int, int, list[frozenset[int]]]]:
    """Seeded (n, d, circuit-hyperplanes) at every rank 2..n - 2, n = 5..10."""
    rng = random.Random(20261018)
    return [
        (n, d, sparse_paving(rng, n, d, 1 + (n + d) % 3))
        for n in range(5, 11)
        for d in range(2, n - 1)
    ]


class _Refused(Exception):
    pass


def _refuse(*args, **kwargs):
    raise _Refused("an oracle route called outside itself")


# small matroids of several kinds, for the independence checks
ROUTE_SAMPLES = [
    uniform_matroid(2, 4),
    build_rho_uniform(RhoUniformParams(3, 4, 1)),
    build_rho_uniform(RhoUniformParams(2, 5, 1)),
    matroid_from_bases(
        6, [set(c) for c in combinations(range(1, 7), 4) if set(c) not in ({1, 2, 3, 4}, {1, 2, 5, 6})]
    ),
]


def _record_widths(monkeypatch, first: int) -> list[int]:
    """Start the cube solve at ``first``-bit slots; the list records every width it visits."""
    widths = []
    solve = matroid_module._z_solve

    def spy(matroid, width=None):
        widths.append(width or matroid_module._Z_SLOT_BITS)
        return solve(matroid, width)

    monkeypatch.setattr(matroid_module, "_Z_SLOT_BITS", first)
    monkeypatch.setattr(matroid_module, "_z_solve", spy)
    return widths


class TestOracleRoutes:
    def test_agree_on_every_small_basis_system(self):
        matroids = list(_every_loopless_matroid(5))
        assert len(matroids) == 222
        for m in matroids:
            assert kl_poly(m) == kl_poly_recurrence(m)

    def test_agree_with_lnr_on_random_sparse_paving(self):
        several = 0  # matroids with more than one circuit-hyperplane
        for n, d, family in _lnr_families():
            m = sparse_paving_matroid(n, d, family)
            want = IntPoly(lnr_coeffs(n, d, len(family)))
            assert kl_poly(m) == kl_poly_recurrence(m) == want, (n, d, family)
            several += len(family) > 1
        assert several == 18

    def test_z_route_builds_no_minor(self, monkeypatch, fresh_caches):
        want = [kl_poly_recurrence(m) for m in ROUTE_SAMPLES]
        clear_caches()
        # built afresh, so that each holds no Z result yet
        samples = [matroid_from_bases(m.n, m.bases) for m in ROUTE_SAMPLES]
        assert not any(a is b for a, b in zip(samples, ROUTE_SAMPLES))
        for name in ("localization", "contraction", "char_poly", "kl_poly_recurrence"):
            monkeypatch.setattr(matroid_module, name, _refuse)
        monkeypatch.setattr(matroid_module.Matroid, "lattice", _refuse)
        for module in (tableaux, closedforms):
            for name in ("count_skyt", "count_overline_skyt", "count_syt"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, _refuse)
        assert [kl_poly(m) for m in samples] == want

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
                    family = sparse_paving(rng, n, d, k)
                    m = sparse_paving_matroid(n, d, family)
                    want = IntPoly(lnr_coeffs(n, d, len(family)))
                    assert kl_poly(m) == IntPoly(upset_z_poly(m)) == want, (n, d, family)
                    checked += 1
        assert checked == 132

    def test_one_merge_loop_matches_upset_solver_and_lnr_at_every_density(self):
        # U(1, 11) is non-spanning almost everywhere, so nearly every block is
        # full; U(9, 3) has 79 non-spanning masks in 4096, so its wide blocks
        # hold a few each; sparse paving matroids at n = 12 lie between
        rng = random.Random(20261021)
        inputs = [(12, 11, []), (12, 3, [])]
        inputs += [(12, d, sparse_paving(rng, 12, d, 3)) for d in range(2, 11)]
        non_spanning = []
        for n, d, family in inputs:
            m = sparse_paving_matroid(n, d, family)
            want = lnr_coeffs(n, d, len(family))
            assert upset_z_poly(m) == want, (n, d, family)
            assert list(matroid_module._z_solve(m).coeffs) == want, (n, d, family)
            non_spanning.append(sum(r < d for r in m.rank_table()))
        assert non_spanning[:2] == [4096 - 13, 1 + 12 + 66]

    @pytest.mark.parametrize(
        "graph,trees,want",
        [
            (complete_graph(4), 16, [1, 1]),
            (complete_graph(5), 125, [1, 5]),
            (wheel_graph(3), 16, [1, 1]),
            (wheel_graph(4), 45, [1, 5]),
            (wheel_graph(5), 121, [1, 11, 5]),
            (wheel_graph(6), 320, [1, 19, 29]),
        ],
        ids=["K4", "K5", "W3", "W4", "W5", "W6"],
    )
    def test_routes_agree_on_graphic_matroids(self, graph, trees, want):
        # cycle matroids are not sparse paving, and their non-spanning masks
        # fill the blocks of the cube unevenly; the spanning-tree counts are
        # Cayley's v^(v - 2) on v vertices and L(2k) - 2 on the wheel with k
        # spokes, L the Lucas numbers; the polynomials were computed by both
        # routes here
        m = graphic_matroid(*graph)
        assert len(m.bases) == trees
        assert kl_poly(m) == IntPoly(upset_z_poly(m)) == kl_poly_recurrence(m) == IntPoly(want)

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
        m = sparse_paving_matroid(n, d, family)
        widths = _record_widths(monkeypatch, 4)
        assert kl_poly(m) == IntPoly(lnr_coeffs(n, d, len(family)))
        assert widths[:2] == [4, 8] and len(widths) >= 3

    def test_coranks_up_to_two_restart_only_for_the_constant(self, monkeypatch, fresh_caches):
        # in rank 1 and 2 every flat has corank <= 2, so P_{M/F} = 1 and the
        # solve reads no slot: it widens only until 2^n < 2^(width - 1),
        # which the packed constant 1 needs, and never past that
        low = [m for m in _every_loopless_matroid(5) if m.rank in (1, 2)]
        assert len(low) == 75  # rank 1: one per n; rank 2: Bell(n) - 1 partitions
        widths = _record_widths(monkeypatch, 4)
        seen = {}  # n: the widths visited
        for m in low:
            widths.clear()
            want = [4]
            while 1 << m.n >= 1 << (want[-1] - 1):
                want.append(2 * want[-1])
            assert kl_poly(m) == IntPoly([1]) and widths == want, m
            seen[m.n] = want
        # 2^n < 8 up to two elements; five would need 16 bits under an
        # n 2^n bound, where 8 are enough
        assert seen == {1: [4], 2: [4], 3: [4, 8], 4: [4, 8], 5: [4, 8]}

    def test_a_coefficient_past_the_limit_restarts_wider(self, monkeypatch, fresh_caches):
        # at n = 12 from 14-bit slots the up-front check passes (2^12 < 2^13)
        # and the limit is (2^13 - 1) >> 12 = 1; four parallel classes of
        # three in rank 3 (a basis takes at most one element of each of
        # {1, 2, 3}, ..., {10, 11, 12}) give P = 1 + 2t, so the 2 must
        # restart the solve, and only the per-coefficient guard sees it
        bases = [b for b in d_subsets(12, 3) if all((b >> 3 * c & 7).bit_count() < 2 for c in range(4))]
        m = matroid_from_bases(12, bases)
        widths = _record_widths(monkeypatch, 14)
        assert kl_poly(m) == IntPoly([1, 2]) and widths == [14, 28]

    def test_an_upper_flat_past_the_limit_restarts_before_the_bottom(self, monkeypatch, fresh_caches):
        # from 14-bit slots the limit at n = 12 is 1, and in U(4, 8) the
        # contractions at flats of corank 3 already have a linear coefficient
        # above it; the guard at each coefficient restarts the solve there, so
        # the first attempt visits only some of the nonempty non-spanning
        # masks (one bisect each), never the bottom flat past a wrapped slot
        m = uniform_matroid(4, 8)
        widths = _record_widths(monkeypatch, 14)
        visits = []  # the width of the attempt that made each visit
        bisect = matroid_module.bisect_left
        monkeypatch.setattr(
            matroid_module, "bisect_left", lambda *args: visits.append(widths[-1]) or bisect(*args)
        )
        assert kl_poly(m) == kl_poly_rho(RhoUniformParams(4, 8)) and widths == [14, 28]
        nonempty = sum(r < 8 for r in m.rank_table()) - 1
        assert 0 < visits.count(14) < nonempty and visits.count(28) == nonempty

    def test_fourteen_bit_slots_stay_exact_at_twelve_elements(self, monkeypatch, fresh_caches):
        # from 14-bit slots the limit at n = 12 is 1, so each larger
        # coefficient restarts the solve; past the limit a slot can wrap
        points = [p for p in family_grid(12, min_d=0) if p.m + p.d == 12]
        assert len(points) == 34
        widths = _record_widths(monkeypatch, 14)
        for p in points:
            assert kl_poly(build_rho_uniform(p)) == kl_poly_rho(p), p
        # some points restart once or more, so the 14-bit attempts were refused
        assert widths.count(14) == 34 and 28 in widths

    def test_recurrence_reads_no_z_result(self, monkeypatch, fresh_caches):
        want = [kl_poly(m) for m in ROUTE_SAMPLES]
        monkeypatch.setattr(matroid_module, "kl_poly", _refuse)
        monkeypatch.setattr(matroid_module, "_z_solve", _refuse)
        # any read of a matroid's Z slot now raises; construction leaves the
        # slot unset, so building the recurrence's minors reads none
        monkeypatch.setattr(matroid_module.Matroid, "_kl", property(_refuse))
        assert [kl_poly_recurrence(m) for m in ROUTE_SAMPLES] == want

    def test_grouped_sum_equals_the_per_flat_sum(self):
        small = list(_every_loopless_matroid(5))
        grid = [build_rho_uniform(p) for p in family_grid(8, min_d=0)]
        paving = [sparse_paving_matroid(n, d, family) for n, d, family in _lnr_families()]
        assert len(small) == 222 and len(grid) == 70 and len(paving) == 27
        for m in small + grid + paving:
            assert kl_recurrence_rhs(m) == per_flat_recurrence_rhs(m), m

    def test_recurrence_builds_each_family_once_by_exact_key(self, monkeypatch, fresh_caches):
        parent = build_rho_uniform(RhoUniformParams(4, 4, 2))
        solved = []  # (parent, the families built while it was solved)
        open_calls = []
        solve = matroid_module._recurrence_solve
        build = matroid_module.matroid_from_bases

        def spy_solve(matroid):
            open_calls.append([])
            try:
                return solve(matroid)
            finally:
                solved.append((matroid, open_calls.pop()))

        def spy_build(n, bases):
            built = build(n, bases)
            if open_calls:
                open_calls[-1].append(built.key())
            return built

        monkeypatch.setattr(matroid_module, "_recurrence_solve", spy_solve)
        monkeypatch.setattr(matroid_module, "matroid_from_bases", spy_build)
        kl_poly_recurrence(parent)
        monkeypatch.undo()
        for matroid, calls in solved:
            assert len(calls) == len(set(calls)), matroid
        top, calls = solved[-1]
        assert top is parent
        assert set(calls) == {
            family(parent, f)
            for f in parent.lattice().flats
            if f
            for family in (element_localization, element_contraction)
        }
        # U(4, 2; 1) with its block at labels 1, 2 and at labels 5, 6
        block_1 = element_contraction(parent, mask_from({1, 2}, 8))
        block_2 = element_contraction(parent, mask_from({5, 6}, 8))
        assert block_1 != block_2 and {block_1, block_2} <= set(calls)
        assert is_isomorphic(matroid_from_bases(*block_1), matroid_from_bases(*block_2))


class TestImports:
    @pytest.mark.parametrize("module", ["matroid", "tableaux"])
    def test_the_core_reads_only_errors_and_exactarith(self, module):
        # neither core module reads the other: the oracle never sees a tableau count
        tree = ast.parse((Path(klmatroids.__file__).parent / f"{module}.py").read_text())
        imported = {
            node.module
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
        }
        assert imported <= {"errors", "exactarith"}, imported


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

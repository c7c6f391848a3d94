import json
import pickle
import re

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from klmatroids import closedforms
from klmatroids import matroid as matroid_module
from klmatroids.closedforms import (
    MinorClass,
    RhoUniformParams,
    build_rho_uniform,
    char_poly_rho,
    classify_minor,
    coeff_rho,
    coeff_uniform_klum,
    coefficient_range,
    expected_flats,
    family_grid,
    kl_poly_rho,
    removed_block_masks,
    valid_rhos,
)
from klmatroids.errors import InvalidParameters, NonIntegerResult, NotAFlat
from klmatroids.exactarith import IntPoly
from klmatroids.matroid import (
    Matroid,
    char_poly,
    clear_caches,
    contraction,
    elements_of,
    ground_mask,
    kl_poly,
    mask_from,
    uniform_matroid,
)
from klmatroids.tableaux import count_skyt_rho_direct

from oracles import (
    is_isomorphic,
    termwise_char_poly_rho,
    termwise_coeff_rho,
    termwise_klum,
)


class TestParams:
    @pytest.mark.parametrize(
        "m,d,rho",
        [(1, 2, 0), (1, 2, 1), (2, 2, 2), (1, 0, 0), (1, 0, 5), (3, 1, 0), (4, 4, 2)],
    )
    def test_valid(self, m, d, rho):
        RhoUniformParams(m, d, rho)

    @pytest.mark.parametrize(
        "m,d,rho",
        [(0, 3, 0), (-1, 2, 0), (1, -1, 0), (1, 2, -1), (2, 1, 1), (1, 3, 2), (2, 3, 2)],
    )
    def test_invalid(self, m, d, rho):
        with pytest.raises(InvalidParameters):
            RhoUniformParams(m, d, rho)

    def test_both_entry_points_reject_the_same_points(self):
        # RhoUniformParams, the direct filtered count, coeff_rho and (at
        # rho = 0) the uniform entry points share one validator, so they
        # reject the same points with the same message.
        rejected = 0
        for m in range(-1, 5):
            for d in range(-1, 7):
                for rho in range(-1, 5):
                    try:
                        RhoUniformParams(m, d, rho)
                    except InvalidParameters as exc:
                        message = re.escape(str(exc))
                        with pytest.raises(InvalidParameters, match=message):
                            count_skyt_rho_direct(m, d, 0, rho)
                        with pytest.raises(InvalidParameters, match=message):
                            coeff_rho(m, d, 0, rho)
                        if rho == 0:
                            for call in (
                                lambda: valid_rhos(m, d),
                                lambda: coeff_uniform_klum(m, d, 0),
                            ):
                                with pytest.raises(InvalidParameters, match=message):
                                    call()
                        rejected += 1
                    else:
                        assert count_skyt_rho_direct(m, d, 0, rho) == 1
                        assert coeff_rho(m, d, 0, rho) == 1
                        if rho == 0:
                            assert 0 in valid_rhos(m, d)
                            assert coeff_uniform_klum(m, d, 0) == 1
        assert 0 < rejected < 6 * 8 * 6

    def test_parameters_are_named_tuples(self):
        p = RhoUniformParams(m=2, d=3, rho=1)
        m, d, rho = p
        assert (m, d, rho) == p == (2, 3, 1) and RhoUniformParams(2, 3) == (2, 3, 0)
        assert repr(p) == "RhoUniformParams(m=2, d=3, rho=1)"
        assert repr(MinorClass(2, 2, 1, 3)) == "MinorClass(m=2, d=2, rho=1, offset=3)"
        assert MinorClass(2, 3) == (2, 3, 0, 0)
        assert json.dumps(p) == "[2, 3, 1]"
        back = pickle.loads(pickle.dumps(p))
        assert type(back) is RhoUniformParams and back == p
        with pytest.raises(InvalidParameters):
            RhoUniformParams(2, 1, 1)

    def test_labels(self):
        assert RhoUniformParams(2, 3).label() == MinorClass(2, 3).label() == "U(2,3)"
        assert RhoUniformParams(2, 3, 1).label() == MinorClass(2, 3, 1).label() == "U(2,3;1)"

    def test_valid_rhos(self):
        assert valid_rhos(3, 1) == [0]
        assert valid_rhos(3, 0) == [0]
        assert valid_rhos(1, 2) == [0, 1]
        assert valid_rhos(2, 2) == [0, 1, 2]
        assert valid_rhos(3, 3) == [0, 1, 2]


class TestBuild:
    def test_rho_zero_is_uniform(self):
        assert build_rho_uniform(RhoUniformParams(1, 2, 0)) == uniform_matroid(1, 2)

    def test_removes_leading_block(self):
        m = build_rho_uniform(RhoUniformParams(1, 2, 1))
        assert {frozenset(elements_of(b)) for b in m.bases} == {
            frozenset({1, 3}),
            frozenset({2, 3}),
        }

    def test_removes_disjoint_blocks(self):
        p = RhoUniformParams(2, 2, 2)
        assert removed_block_masks(p.d, p.rho) == [mask_from({1, 2}, 4), mask_from({3, 4}, 4)]
        m = build_rho_uniform(p)
        assert {frozenset(elements_of(b)) for b in m.bases} == {
            frozenset(s) for s in ({1, 3}, {1, 4}, {2, 3}, {2, 4})
        }

    def test_rank_zero_convention(self):
        m = build_rho_uniform(RhoUniformParams(3, 0, 2))
        assert m.rank == 0 and m.n == 3


class TestFamilyRules:
    def test_coefficient_range_equals_the_inline_forms(self):
        for d in range(41):
            inline = range((d - 1) // 2 + 1) if d else range(1)
            assert coefficient_range(d) == inline
            assert list(coefficient_range(d)) == [i for i in range(d + 1) if i == 0 or 2 * i < d]

    def test_block_masks_equal_the_consecutive_blocks(self):
        for d in range(2, 6):
            for rho in range(4):
                for offset in range(6):
                    n = offset + rho * d
                    blocks = [
                        range(1 + offset + ell * d, 1 + offset + (ell + 1) * d)
                        for ell in range(rho)
                    ]
                    want = [mask_from(block, n) for block in blocks]
                    assert removed_block_masks(d, rho, offset) == want

    def test_rank_zero_removes_no_block(self):
        assert removed_block_masks(0, 3) == removed_block_masks(0, 2, 4) == []

    @pytest.mark.parametrize("i", [1.0, "1", None])
    def test_a_non_integer_index_is_refused(self, i):
        with pytest.raises(InvalidParameters, match="must be integers"):
            coeff_rho(2, 5, i, 1)
        with pytest.raises(InvalidParameters, match="must be integers"):
            coeff_uniform_klum(2, 5, i)

    # coeff_rho has no range guard of its own: past the range the shape's
    # width d - 2i + 1 is below 2, and both of its counts are 0 there.
    @pytest.mark.parametrize(
        "points",
        [
            family_grid(9),
            [RhoUniformParams(m, 300, rho) for m in (1, 300) for rho in valid_rhos(m, 300)],
        ],
        ids=["grid", "d300"],
    )
    def test_coefficients_vanish_outside_the_range(self, points):
        for m, d, rho in points:
            past = coefficient_range(d).stop
            for i in (-1, past, past + 9):
                assert coeff_rho(m, d, i, rho) == 0, (m, d, rho, i)
                assert coeff_uniform_klum(m, d, i) == 0, (m, d, i)


class TestUniformCoefficients:
    def test_constant_term_is_one(self):
        for m in range(1, 5):
            for d in range(0, 6):
                assert coeff_rho(m, d, 0, 0) == 1
                assert coeff_uniform_klum(m, d, 0) == 1

    def test_spot_values(self):
        assert coeff_rho(1, 3, 1, 0) == 2
        assert coeff_rho(2, 3, 1, 0) == 5
        assert coeff_uniform_klum(1, 3, 1) == 2
        assert coeff_uniform_klum(2, 3, 1) == 5

    def test_out_of_range_gives_zero(self):
        assert coeff_rho(2, 4, 2, 0) == 0
        assert coeff_rho(2, 4, -1, 0) == 0
        assert coeff_uniform_klum(2, 4, 2) == 0

    def test_rejects_bad_m(self):
        with pytest.raises(InvalidParameters):
            coeff_rho(0, 3, 1, 0)
        with pytest.raises(InvalidParameters):
            coeff_uniform_klum(0, 3, 1)

    def test_klum_non_integer_division_raises(self, monkeypatch):
        # With every binomial 1, (m, d, i) = (1, 3, 1) divides 1 by b + i - 1 = 2.
        monkeypatch.setattr(closedforms, "binomial", lambda n, k: 1)
        with pytest.raises(NonIntegerResult, match=r"m=1, d=3, i=1\).* 1/2$"):
            coeff_uniform_klum(1, 3, 1)

    def test_klum_reads_no_tableau_count(self, monkeypatch):
        # The closed form is the route the tableau counts are checked against.
        expected = coeff_rho(4, 9, 3, 0)

        def refuse(*args):
            raise AssertionError("coeff_uniform_klum called a tableau count")

        for name in ("count_skyt", "count_overline_skyt"):
            monkeypatch.setattr(closedforms, name, refuse)
        assert coeff_uniform_klum(4, 9, 3) == expected

    # Past the Hypothesis range (m, d <= 300): the first, a middle and the last i.
    @pytest.mark.parametrize(
        "m,d,i",
        [(2, 2000, 1), (2, 2000, 500), (2, 2000, 999), (1000, 1000, 1), (1000, 1000, 250),
         (1000, 1000, 499)],
    )
    def test_two_formulas_agree_on_large_parameters(self, m, d, i):
        assert coeff_rho(m, d, i, 0) == coeff_uniform_klum(m, d, i)

    # Every i: negative, 0, inside 0 < 2i < d and past it.
    @pytest.mark.parametrize("m", range(1, 70))
    def test_klum_stepped_sum_equals_termwise_sum(self, m):
        for d in range(70):
            for i in range(-1, d + 2):
                assert coeff_uniform_klum(m, d, i) == termwise_klum(m, d, i), (m, d, i)

    # The m, d <= 30 triangle of `klm table`.
    @pytest.mark.parametrize("m", range(1, 31))
    @pytest.mark.parametrize("d", range(1, 31))
    def test_two_formulas_agree(self, m, d):
        for i in range((d - 1) // 2 + 1):
            assert coeff_rho(m, d, i, 0) == coeff_uniform_klum(m, d, i)

    @pytest.mark.parametrize("m,d", [(1, 3), (2, 3), (1, 4), (3, 4), (2, 5), (1, 6)])
    def test_symmetry_under_parameter_swap(self, m, d):
        for i in range((d - 1) // 2 + 1):
            if d - 2 * i >= 1:
                assert coeff_rho(m, d, i, 0) == coeff_rho(d - 2 * i, m + 2 * i, i, 0)


class TestRemovedCoefficients:
    def test_spot_values(self):
        assert coeff_rho(2, 3, 1, 1) == 3
        assert coeff_rho(1, 3, 1, 1) == 0
        assert coeff_rho(5, 4, 0, 2) == 1

    def test_validation(self):
        with pytest.raises(InvalidParameters):
            coeff_rho(1, 3, 1, 2)

    def test_polynomials(self):
        assert kl_poly_rho(RhoUniformParams(1, 2, 0)) == IntPoly([1])
        assert kl_poly_rho(RhoUniformParams(1, 3, 0)) == IntPoly([1, 2])
        assert kl_poly_rho(RhoUniformParams(2, 3, 1)) == IntPoly([1, 3])
        assert kl_poly_rho(RhoUniformParams(4, 0, 0)) == IntPoly([1])

    def test_rho_zero_takes_no_overline_count(self, monkeypatch):
        # At rho = 0 the overline term is zero, so its two skew counts are skipped.
        want = [coeff_uniform_klum(6, 9, i) for i in range(5)]

        def refuse(*args):
            raise AssertionError("count_overline_skyt called at rho = 0")

        monkeypatch.setattr(closedforms, "count_overline_skyt", refuse)
        assert [coeff_rho(6, 9, i, 0) for i in range(5)] == want
        assert kl_poly_rho(RhoUniformParams(6, 9, 0)) == IntPoly(want)

    def test_matches_recurrence_oracle(self):
        for p in [
            RhoUniformParams(2, 3, 1),
            RhoUniformParams(2, 2, 2),
            RhoUniformParams(1, 4, 1),
            RhoUniformParams(3, 3, 2),
        ]:
            assert kl_poly_rho(p) == kl_poly(build_rho_uniform(p))


class TestCharPolyRho:
    def test_examples(self):
        assert char_poly_rho(RhoUniformParams(1, 2, 1)) == IntPoly([1, -2, 1])
        assert char_poly_rho(RhoUniformParams(1, 2, 0)) == IntPoly([2, -3, 1])

    def test_rejects_rank_zero(self):
        with pytest.raises(InvalidParameters):
            char_poly_rho(RhoUniformParams(2, 0, 0))

    @pytest.mark.parametrize(
        "m,d,rho", [(1, 1, 0), (3, 2, 1), (2, 2, 2), (2, 4, 1), (3, 3, 2), (5, 2, 3)]
    )
    def test_matches_mobius_oracle_and_vanishes_at_one(self, m, d, rho):
        p = RhoUniformParams(m, d, rho)
        poly = char_poly_rho(p)
        assert poly == char_poly(build_rho_uniform(p))
        assert poly(1) == 0

    @pytest.mark.parametrize("m", range(1, 40))
    def test_row_walk_equals_termwise_binomials(self, m):
        for d in range(1, 40):
            for rho in valid_rhos(m, d):
                want = IntPoly(termwise_char_poly_rho(m, d, rho))
                assert char_poly_rho(RhoUniformParams(m, d, rho)) == want, (m, d, rho)


@seed(1954)
@settings(max_examples=40, deadline=None)
@given(st.integers(1, 300), st.integers(1, 300), st.data())
def test_stepped_sums_equal_termwise_sums_at_large_parameters(m, d, data):
    i = data.draw(st.integers(-1, (d + 1) // 2), label="i")
    rho = data.draw(st.sampled_from(valid_rhos(m, d)), label="rho")
    assert coeff_uniform_klum(m, d, i) == termwise_klum(m, d, i)
    assert coeff_rho(m, d, i, rho) == termwise_coeff_rho(m, d, i, rho)
    assert char_poly_rho(RhoUniformParams(m, d, rho)) == IntPoly(termwise_char_poly_rho(m, d, rho))


class TestClassifyMinor:
    P231 = RhoUniformParams(2, 3, 1)

    def test_localization_at_block(self):
        assert classify_minor(self.P231, {1, 2, 3}, "localization") == MinorClass(1, 2)

    def test_contraction_at_block(self):
        assert classify_minor(self.P231, {1, 2, 3}, "contraction") == MinorClass(1, 1)

    def test_contraction_inside_block(self):
        assert classify_minor(self.P231, {1}, "contraction") == MinorClass(2, 2, 1)

    def test_identity_cases(self):
        full = ground_mask(5)
        assert classify_minor(self.P231, full, "localization") == MinorClass(2, 3, 1)
        assert classify_minor(self.P231, 0, "contraction") == MinorClass(2, 3, 1)
        assert classify_minor(self.P231, full, "contraction") == MinorClass(0, 0)

    def test_uniform_cases(self):
        assert classify_minor(self.P231, {4}, "localization") == MinorClass(0, 1)
        assert classify_minor(self.P231, {4}, "contraction") == MinorClass(2, 2)

    def test_contraction_inside_a_later_block_is_offset(self):
        # the image of {5, 6} follows the three labels of block {1, 2, 3}
        p = RhoUniformParams(3, 3, 2)
        claimed = classify_minor(p, {4}, "contraction")
        assert claimed == MinorClass(3, 2, 1, 3)
        assert claimed.build() == contraction(build_rho_uniform(p), {4})

    @pytest.mark.parametrize("offset", [-1, 2])
    def test_build_rejects_an_offset_that_does_not_fit(self, offset):
        # two blocks of size 2 fill U(2, 2; 2) from offset 0
        with pytest.raises(InvalidParameters):
            MinorClass(2, 2, 2, offset).build()

    @pytest.mark.parametrize("fields", [(2.0, 3), (2, 3.0), (2, 3, 0.0), (2, 3, 0, 0.0)])
    def test_build_refuses_a_float_cold_and_after_the_int(self, fields):
        # a float equal to an int must not find the int's cached matroid
        clear_caches()
        for _ in ("cold", "warm"):
            with pytest.raises(InvalidParameters, match="must be integers"):
                MinorClass(*fields).build()
            assert MinorClass(2, 3).build() == build_rho_uniform(RhoUniformParams(2, 3))

    def test_not_a_flat(self):
        with pytest.raises(NotAFlat):
            classify_minor(self.P231, {1, 2}, "localization")

    @pytest.mark.parametrize(
        "flat, kind, error",
        [(1 << 5, "contraction", NotAFlat), (-1, "localization", NotAFlat), (0, "deletion", ValueError)],
    )
    def test_refuses_a_mask_off_the_ground_set_and_an_unknown_kind(self, flat, kind, error):
        with pytest.raises(error):
            classify_minor(self.P231, flat, kind)

    def test_reads_only_the_parameters_and_the_flat(self, monkeypatch):
        # the predictions and the matroid they are checked against stay apart
        kinds = ("localization", "contraction")
        lattices = {p: build_rho_uniform(p).lattice().flats for p in family_grid(8, min_d=0)}
        want = {
            p: {(f, k): classify_minor(p, f, k) for f in flats for k in kinds}
            for p, flats in lattices.items()
        }

        def refuse(*args):
            raise AssertionError("a prediction built a matroid, a minor, a lattice or a KL polynomial")

        monkeypatch.setattr(Matroid, "lattice", refuse)
        for name in ("localization", "contraction", "kl_poly", "kl_poly_recurrence"):
            monkeypatch.setattr(matroid_module, name, refuse)
        for name in ("build_rho_uniform", "_build_cached"):
            monkeypatch.setattr(closedforms, name, refuse)
        for p, flats in lattices.items():
            assert {(f, k): classify_minor(p, f, k) for f in flats for k in kinds} == want[p]
            assert expected_flats(p) == set(flats), p

    def test_refuses_exactly_the_sets_the_oracle_does_not_close(self):
        calls = 0
        for p in family_grid(9, min_d=0):
            flats = build_rho_uniform(p)._flats
            for mask in range(1 << p.n):
                for kind in ("localization", "contraction"):
                    calls += 1
                    try:
                        classify_minor(p, mask, kind)
                        refused = False
                    except NotAFlat:
                        refused = True
                    assert refused == (not flats >> mask & 1), (p, mask, kind)
        assert calls == 38644

    def test_claims_verified_by_isomorphism(self):
        # the offset only places the removed block: at offset 0 the class
        # builds a matroid isomorphic to the prediction
        for p in family_grid(9):
            for flat in build_rho_uniform(p).lattice().flats:
                for kind in ("localization", "contraction"):
                    claimed = classify_minor(p, flat, kind)
                    canonical = MinorClass(claimed.m, claimed.d, claimed.rho)
                    assert is_isomorphic(claimed.build(), canonical.build())


class TestExpectedFlats:
    @pytest.mark.parametrize(
        "m,d,rho", [(1, 2, 0), (1, 2, 1), (2, 2, 2), (2, 3, 1), (1, 4, 1), (3, 1, 0)]
    )
    def test_structural_description_matches(self, m, d, rho):
        p = RhoUniformParams(m, d, rho)
        assert set(build_rho_uniform(p).lattice().flats) == expected_flats(p)

    def test_block_is_a_flat_of_corank_one(self):
        p = RhoUniformParams(2, 3, 1)
        matroid = build_rho_uniform(p)
        block = mask_from({1, 2, 3}, 5)
        lat = matroid.lattice()
        assert block in lat.flats
        assert matroid.rank_of(block) == 2

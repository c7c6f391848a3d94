import json
import pickle
import re

import pytest

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
    coeff_uniform_tableau,
    expected_flats,
    kl_poly_rho,
    removed_blocks,
    valid_rhos,
)
from klmatroids.errors import InvalidParameters, NonIntegerResult, NotAFlat
from klmatroids.exactarith import IntPoly
from klmatroids.matroid import (
    Matroid,
    char_poly,
    contraction,
    elements_of,
    flats,
    ground_mask,
    kl_poly,
    mask_from,
    uniform_matroid,
)
from klmatroids.tableaux import count_skyt_rho_direct
from klmatroids.verification import family_grid

from oracles import is_isomorphic


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
                                lambda: coeff_uniform_tableau(m, d, 0),
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
                            assert coeff_uniform_tableau(m, d, 0) == 1
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
        assert removed_blocks(p) == [frozenset({1, 2}), frozenset({3, 4})]
        m = build_rho_uniform(p)
        assert {frozenset(elements_of(b)) for b in m.bases} == {
            frozenset(s) for s in ({1, 3}, {1, 4}, {2, 3}, {2, 4})
        }

    def test_rank_zero_convention(self):
        m = build_rho_uniform(RhoUniformParams(3, 0, 2))
        assert m.rank == 0 and m.n == 3


class TestUniformCoefficients:
    def test_constant_term_is_one(self):
        for m in range(1, 5):
            for d in range(0, 6):
                assert coeff_uniform_tableau(m, d, 0) == 1
                assert coeff_uniform_klum(m, d, 0) == 1

    def test_spot_values(self):
        assert coeff_uniform_tableau(1, 3, 1) == 2
        assert coeff_uniform_tableau(2, 3, 1) == 5
        assert coeff_uniform_klum(1, 3, 1) == 2
        assert coeff_uniform_klum(2, 3, 1) == 5

    def test_out_of_range_gives_zero(self):
        assert coeff_uniform_tableau(2, 4, 2) == 0
        assert coeff_uniform_tableau(2, 4, -1) == 0
        assert coeff_uniform_klum(2, 4, 2) == 0

    def test_rejects_bad_m(self):
        with pytest.raises(InvalidParameters):
            coeff_uniform_tableau(0, 3, 1)
        with pytest.raises(InvalidParameters):
            coeff_uniform_klum(0, 3, 1)

    def test_klum_non_integer_division_raises(self, monkeypatch):
        # With every binomial 1, (m, d, i) = (1, 3, 1) divides 1 by b + i - 1 = 2.
        monkeypatch.setattr(closedforms, "binomial", lambda n, k: 1)
        with pytest.raises(NonIntegerResult, match=r"m=1, d=3, i=1\).* 1/2$"):
            coeff_uniform_klum(1, 3, 1)

    def test_klum_reads_no_tableau_count(self, monkeypatch):
        # The closed form is the route the tableau counts are checked against.
        expected = coeff_uniform_tableau(4, 9, 3)

        def refuse(*args):
            raise AssertionError("coeff_uniform_klum called a tableau count")

        for name in ("count_skyt", "count_overline_skyt"):
            monkeypatch.setattr(closedforms, name, refuse)
        assert coeff_uniform_klum(4, 9, 3) == expected

    # The m, d <= 30 triangle of `klm table`.
    @pytest.mark.parametrize("m", range(1, 31))
    @pytest.mark.parametrize("d", range(1, 31))
    def test_two_formulas_agree(self, m, d):
        for i in range((d - 1) // 2 + 1):
            assert coeff_uniform_tableau(m, d, i) == coeff_uniform_klum(m, d, i)

    @pytest.mark.parametrize("m,d", [(1, 3), (2, 3), (1, 4), (3, 4), (2, 5), (1, 6)])
    def test_symmetry_under_parameter_swap(self, m, d):
        for i in range((d - 1) // 2 + 1):
            if d - 2 * i >= 1:
                assert coeff_uniform_tableau(m, d, i) == coeff_uniform_tableau(
                    d - 2 * i, m + 2 * i, i
                )


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

    def test_not_a_flat(self):
        with pytest.raises(NotAFlat):
            classify_minor(self.P231, {1, 2}, "localization")

    def test_reads_only_the_parameters_and_the_flat(self, monkeypatch):
        p = RhoUniformParams(3, 3, 2)
        kinds = ("localization", "contraction")
        want = {(f, k): classify_minor(p, f, k) for f in expected_flats(p) for k in kinds}

        def refuse(*args):
            raise AssertionError("classify_minor built a minor, a lattice or a KL polynomial")

        monkeypatch.setattr(Matroid, "lattice", refuse)
        for name in ("localization", "contraction", "kl_poly", "kl_poly_recurrence"):
            monkeypatch.setattr(matroid_module, name, refuse)
        assert {(f, k): classify_minor(p, f, k) for f, k in want} == want

    def test_claims_verified_by_isomorphism(self):
        # the offset only places the removed block: at offset 0 the class
        # builds a matroid isomorphic to the prediction
        for p in family_grid(9):
            for flat in flats(build_rho_uniform(p)).flats:
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
        assert set(flats(build_rho_uniform(p)).flats) == expected_flats(p)

    def test_block_is_a_flat_of_corank_one(self):
        p = RhoUniformParams(2, 3, 1)
        matroid = build_rho_uniform(p)
        block = mask_from({1, 2, 3}, 5)
        lat = flats(matroid)
        assert block in lat.flats
        assert matroid.rank_of(block) == 2

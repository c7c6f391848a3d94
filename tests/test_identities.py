import json
import os
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

import klmatroids
from klmatroids import identities
from klmatroids.errors import InvalidParameters
from klmatroids.exactarith import binomial, parity_sign
from klmatroids.identities import (
    IdentityReport,
    check_barskyt_dual,
    check_binomial_altsum,
    check_gf_truncation,
    check_integral_identity,
    check_kl_constant_term_porism,
    check_skyt_identity,
    check_skytbar_identity,
    check_syt_dual,
    gf_double_sums,
    run_identity_sweeps,
    skyt_identity_residual,
    skytbar_identity_residual,
    sweep_barskyt_dual,
    sweep_binomial_altsum,
    sweep_gf_truncation,
    sweep_integral_identity,
    sweep_kl_constant_term,
    sweep_skyt_identity,
    sweep_skytbar_identity,
    sweep_syt_dual,
)

from oracles import (
    gf_coefficient,
    rational_binomial_altsum,
    rational_integral_identity,
    termwise_integral,
)


class TestSytDual:
    def test_spot_points(self):
        assert check_syt_dual(2, 1, 5, 1)
        assert check_syt_dual(1, 0, 2, 0)
        assert check_syt_dual(3, 2, 8, 1)

    def test_precondition(self):
        with pytest.raises(InvalidParameters):
            check_syt_dual(2, 2, 4, 1)

    def test_sweep(self):
        report = sweep_syt_dual()
        assert report.passed and report.points == 280


class TestBarSytDual:
    def test_spot_points(self):
        assert check_barskyt_dual(1, 5, 1)
        assert check_barskyt_dual(1, 3, 0)
        assert check_barskyt_dual(2, 7, 0)

    def test_shifted_binomial_top_would_fail(self):
        # the identity is false with a shifted top; spelled out here so the
        # unshifted implementation choice stays pinned down
        k, d, p, shift = 1, 5, 1, 2
        from klmatroids.tableaux import count_overline_skyt, count_syt

        lhs = count_syt(2, k, d - 2 * k - p - 1)
        shifted_rhs = sum(
            parity_sign(d - 1 + j)
            * binomial(shift + d - p, j - p)
            * count_overline_skyt(k, d - j - 2 * k + 1)
            for j in range(d - 2 * k)
        )
        assert lhs == 5 and shifted_rhs == 9

    def test_needs_k_at_least_one(self):
        with pytest.raises(InvalidParameters):
            check_barskyt_dual(0, 4, 0)

    def test_sweep(self):
        report = sweep_barskyt_dual()
        assert report.passed and report.points == 34


class TestAlternatingIdentities:
    def test_spot_points(self):
        assert check_skyt_identity(1, 3, 1)
        assert check_skyt_identity(2, 5, 2)
        assert check_skyt_identity(1, 2, 1)

    def test_fails_beyond_coefficient_range(self):
        # stated for every i >= 1, but false past half the rank
        assert skyt_identity_residual(1, 3, 2) == 2
        assert not check_skyt_identity(1, 3, 2)

    def test_bar_spot_points(self):
        assert check_skytbar_identity(3, 1)
        assert check_skytbar_identity(6, 2)
        assert check_skytbar_identity(2, 1)

    def test_bar_fails_beyond_coefficient_range(self):
        assert skytbar_identity_residual(3, 2) == 2
        assert not check_skytbar_identity(3, 2)

    def test_sweeps(self):
        assert sweep_skyt_identity().passed
        assert sweep_skytbar_identity().passed


class TestIntegralIdentity:
    def test_spot_values(self):
        assert check_integral_identity(1, 1)
        assert check_integral_identity(2, 3)

    def test_one_one_is_a_sixth(self):
        # integral of x(1+x) from 0 to -1, via independent termwise integration
        assert termwise_integral({1: 1, 2: 1}, 0, -1) == Fraction(1, 6)

    def test_sweep(self):
        report = sweep_integral_identity()
        assert report.passed and report.points == 64


class TestBinomialAltsum:
    def test_spot_points(self):
        assert check_binomial_altsum(1, 3, 1)
        assert check_binomial_altsum(2, 5, 2)
        assert check_binomial_altsum(1, 2, 1)

    def test_companion_breaks_past_half_rank_but_main_holds(self):
        # at (m, d, i) = (1, 3, 2) the companion equation is out of range;
        # the check still validates the main equation there
        assert check_binomial_altsum(1, 3, 2)

    def test_precondition(self):
        with pytest.raises(InvalidParameters):
            check_binomial_altsum(1, 3, 3)

    def test_sweep(self):
        report = sweep_binomial_altsum()
        assert report.passed and report.points == 180

    @pytest.mark.parametrize("wrong,point", [((2, 2), (1, 3, 1)), ((3, 3), (1, 5, 2))])
    def test_companion_is_checked(self, monkeypatch, wrong, point):
        # at (m, d, i) the first identity reads only C(i, k), so a wrong
        # C(i + 1, i + 1) can fail the point only through the companion
        real = identities.binomial
        monkeypatch.setattr(identities, "binomial", lambda n, k: real(n, k) + ((n, k) == wrong))
        assert point in sweep_binomial_altsum().failures


class TestRationalChecksInIntegers:
    def test_match_the_rational_forms(self):
        points = 0
        for a in range(1, 31):
            for b in range(1, 31):
                assert check_integral_identity(a, b) == rational_integral_identity(a, b), (a, b)
                points += 1
        for m in range(1, 13):
            for d in range(2, 31):
                for i in range(1, d):
                    expected = rational_binomial_altsum(m, d, i)
                    assert check_binomial_altsum(m, d, i) == expected, (m, d, i)
                    points += 1
        assert points == 900 + 12 * 435

    def test_a_perturbed_factor_fails_both(self, monkeypatch):
        monkeypatch.setattr(identities, "factorial", lambda n: factorial(n) + 1)
        assert not sweep_integral_identity().passed
        assert not sweep_binomial_altsum().passed

    def test_sweeps_load_no_fractions(self):
        # site is skipped so that no .pth file imports anything first
        script = (
            "import sys\n"
            "from klmatroids.identities import run_identity_sweeps\n"
            "assert all(report.passed for report in run_identity_sweeps())\n"
            "print('fractions' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-S", "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(klmatroids.__file__).parents[1])},
        )
        assert done.returncode == 0 and done.stderr == ""
        assert done.stdout == "False\n"


class TestGfTruncation:
    def test_leading_coefficient(self):
        # x^2 y^2 leads both sides for every width parameter
        for i in (1, 2, 5):
            assert check_gf_truncation(i, 4)

    def test_spot_points(self):
        assert check_gf_truncation(1, 8)
        assert check_gf_truncation(3, 10)

    def test_order_floor(self):
        with pytest.raises(InvalidParameters):
            check_gf_truncation(1, 3)

    def test_needs_i_at_least_one(self):
        for i in (0, -1):
            with pytest.raises(InvalidParameters):
                check_gf_truncation(i, 10)

    def test_sweep(self):
        assert sweep_gf_truncation().passed

    @pytest.mark.parametrize("i", range(1, 7))
    def test_double_sums_match_the_recurrence(self, i):
        # x^2 y^2 shifts the expansion of the reciprocal denominator by (2, 2)
        for a in range(13):
            for b in range(13 - a):
                want = gf_coefficient(i, a - 2, b - 2)
                assert gf_double_sums(i, a, b) == (want, want), (a, b)

    def test_fails_without_the_alternating_sign(self, monkeypatch):
        monkeypatch.setattr(identities, "parity_sign", lambda k: 1)
        assert not check_gf_truncation(2, 10)

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_fails_with_one_binomial_off_by_one(self, monkeypatch, i):
        exact = identities.binomial
        monkeypatch.setattr(
            identities, "binomial", lambda n, k: exact(n, k) + ((n, k) == (5, 3))
        )
        assert not check_gf_truncation(i, 10)


class TestConstantTermPorism:
    @pytest.mark.parametrize("m,d,rho", [(1, 2, 1), (2, 3, 0), (3, 2, 2), (1, 5, 0)])
    def test_spot_points(self, m, d, rho):
        assert check_kl_constant_term_porism(m, d, rho)

    def test_sweep(self):
        assert sweep_kl_constant_term().passed


def test_report_json_schema():
    report = IdentityReport("demo", "d<=3")
    report.record((1, 2), True)
    report.record((1, 3), False)
    payload = json.loads(json.dumps(report.to_json_dict()))
    assert payload == {
        "identity": "demo",
        "grid": "d<=3",
        "points": 2,
        "passed": False,
        "counterexample": [1, 3],
    }
    assert not report.passed
    assert "FAIL" in report.summary()


def test_report_repr_and_equality():
    report = IdentityReport("demo", "d<=3")
    report.record((1, 3), False)
    assert repr(report) == "IdentityReport(name='demo', grid='d<=3', points=1, failures=[(1, 3)])"
    assert report == IdentityReport("demo", "d<=3", 1, [(1, 3)])
    assert report != IdentityReport("demo", "d<=3", 1)
    assert IdentityReport("a", "g").failures is not IdentityReport("a", "g").failures
    with pytest.raises(TypeError):
        hash(report)


def test_run_identity_sweeps_all_pass():
    reports = run_identity_sweeps()
    assert len(reports) == 8
    assert all(r.passed for r in reports)

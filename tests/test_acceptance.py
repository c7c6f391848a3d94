"""End-to-end acceptance suite.

Every check here is exact: the two (or three) independent computation routes
must agree integer for integer on the documented grids.  Each test prints a
one-line verdict; run with ``pytest tests/test_acceptance.py -v -s`` to see
them all.
"""

import pytest

from klmatroids import verification
from klmatroids.errors import ExchangeAxiomViolation
from klmatroids.identities import run_identity_sweeps
from klmatroids.matroid import kl_poly, matroid_from_bases, uniform_matroid
from klmatroids.closedforms import coeff_rho, coeff_uniform_klum

from oracles import catalan


def _report_ok(name, report):
    assert report.passed, f"{name}: first counterexample {report.first_counterexample}"
    print(f"[acceptance] {name}: PASS ({report.points} points)")


def test_removed_family_coefficients_three_ways():
    # counting formula == filtered enumeration == Z-polynomial oracle, which
    # must equal the defining recurrence, for every valid (m, d, rho) with
    # m + d <= 9 and every coefficient
    _report_ok("removed-family coefficient agreement", verification.sweep_theorem1(9))


def test_uniform_coefficients_three_ways():
    report = verification.sweep_theorem2(9)
    assert coeff_rho(1, 3, 1, 0) == coeff_uniform_klum(1, 3, 1) == 2
    assert coeff_rho(2, 3, 1, 0) == coeff_uniform_klum(2, 3, 1) == 5
    assert kl_poly(uniform_matroid(1, 3)).coeff(1) == 2
    assert kl_poly(uniform_matroid(2, 3)).coeff(1) == 5
    _report_ok("uniform coefficient triple agreement", report)


def test_counting_formula_matches_enumeration():
    _report_ok(
        "inclusion-exclusion count vs backtracking",
        verification.sweep_counting(a_max=6, b_max=6, i_max=4, cell_max=14),
    )


def test_rotation_symmetry_suite():
    _report_ok(
        "count symmetry and rotation involution",
        verification.sweep_symmetry(a_max=6, b_max=6, i_max=4, cell_max=14),
    )


def test_characteristic_polynomial_formula():
    _report_ok("characteristic polynomial closed form", verification.sweep_charpoly(10))


def test_minor_classification():
    _report_ok("minor classification, exact", verification.sweep_minors(8))


def test_identity_suites():
    reports = run_identity_sweeps()
    for report in reports:
        assert report.passed, f"{report.name}: {report.first_counterexample}"
    total = sum(r.points for r in reports)
    print(f"[acceptance] identity suites: PASS ({len(reports)} suites, {total} points)")


def test_coefficients_weakly_decrease_in_removals():
    _report_ok("monotonicity under basis removal", verification.sweep_monotonicity(9))


def test_catalan_specialization():
    cats = [catalan(i + 1) for i in range(1, 7)]
    assert cats == [2, 5, 14, 42, 132, 429]
    _report_ok("Catalan specialization", verification.sweep_catalan(6))


def test_exchange_axiom_validator():
    report = verification.sweep_exchange_validator(8)
    assert report.passed, report.first_counterexample
    with pytest.raises(ExchangeAxiomViolation) as info:
        matroid_from_bases(4, [{1, 2}, {3, 4}])
    assert info.value.element in info.value.basis
    print(
        f"[acceptance] exchange-axiom validator: PASS "
        f"({report.points} accept points + rejection witness)"
    )


def test_flat_structure():
    # not a numbered criterion on its own, but the minor and charpoly sweeps
    # lean on it, so it gets its own verdict line
    _report_ok("flat lattice structure", verification.sweep_flats(8))

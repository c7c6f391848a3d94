import csv
import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import klmatroids
from klmatroids import cli, closedforms, identities, verification
from klmatroids.cli import COEFF_MAX_N, KLPOLY_MAX_N, TABLE_MAX, VERIFY_SUITES, build_parser, main
from klmatroids.closedforms import (
    ROUTES,
    RhoUniformParams,
    coeff_rho,
    coeff_uniform_klum,
    coefficient_range,
    kl_poly_rho,
    valid_rhos,
)

SRC = str(Path(klmatroids.__file__).parents[1])


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class RecordingStdout(io.StringIO):
    """A stdout whose ``getvalue()`` is every byte written so far and whose
    ``flushed`` is what had been written at the last ``flush()``."""

    flushed = ""

    def flush(self):
        self.flushed = self.getvalue()


class TestCoeff:
    def test_all_methods_agree(self, capsys):
        code, out, _ = run_cli(
            capsys, "coeff", "--m", "2", "--d", "3", "--i", "1", "--rho", "1",
            "--method", "all",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "OK"
        assert all(line.endswith(": 3") for line in lines[:-1])

    def test_default_method(self, capsys):
        code, out, _ = run_cli(capsys, "coeff", "--m", "1", "--d", "3", "--i", "0")
        assert code == 0 and out.strip() == "1"

    def test_rejects_m_zero(self, capsys):
        code, _, err = run_cli(capsys, "coeff", "--m", "0", "--d", "3", "--i", "1")
        assert code == 2 and "m must be" in err

    def test_closed_form_needs_uniform(self, capsys):
        code, _, err = run_cli(
            capsys, "coeff", "--m", "2", "--d", "3", "--i", "1", "--rho", "1",
            "--method", "closed-form",
        )
        assert code == 2 and "rho = 0" in err

    def test_json_envelope(self, capsys):
        code, out, _ = run_cli(
            capsys, "coeff", "--m", "3", "--d", "4", "--i", "1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["result"] == "28"
        assert payload["method"] == "tableau"
        assert payload["query"]["m"] == "3"
        assert isinstance(payload["elapsed_ms"], float)

    def test_big_integers_stay_decimal(self, capsys):
        # 20 digits; cross-checked against the older closed form, never
        # rendered in scientific notation
        code, out, _ = run_cli(
            capsys, "coeff", "--m", "30", "--d", "21", "--i", "9", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["result"] == "29399769954675289400"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_prints_integers_past_the_str_digit_limit(self, capsys, fmt):
        # about 5,400 digits, past CPython's default limit of 4,300 on str(int)
        get_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
        limit = get_limit()
        code, out, _ = run_cli(
            capsys, "coeff", "--m", "6000", "--d", "6000", "--i", "2999", "--rho", "1",
            "--format", fmt,
        )
        assert code == 0 and get_limit() == limit
        printed = json.loads(out)["result"] if fmt == "json" else out.strip()
        assert len(printed) > 4300 and printed.isdigit()
        want = coeff_rho(6000, 6000, 2999, 1)
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            assert printed == str(want)
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)

    def test_exponential_methods_capped(self, capsys):
        # Each route raises at its own library cap; "all" leaves it out.
        code, out, err = run_cli(
            capsys, "coeff", "--m", "9", "--d", "8", "--i", "1", "--method", "oracle"
        )
        assert code == 2 and "16 element limit" in err and out == ""
        code, out, err = run_cli(
            capsys, "coeff", "--m", "40", "--d", "25", "--i", "1", "--method", "direct"
        )
        assert code == 2 and "capped at 64 cells" in err and out == ""
        code, out, _ = run_cli(
            capsys, "coeff", "--m", "9", "--d", "8", "--i", "1", "--method", "all"
        )
        assert code == 0
        assert out.splitlines() == [
            "tableau: 19431", "direct: 19431", "closed-form: 19431", "OK"
        ]
        code, out, _ = run_cli(
            capsys, "coeff", "--m", "40", "--d", "25", "--i", "1", "--method", "all"
        )
        lines = out.splitlines()
        assert code == 0 and lines[-1] == "OK"
        assert [line.split(":")[0] for line in lines[:-1]] == ["tableau", "closed-form"]

    def test_enumeration_and_the_direct_route_give_one_cell_cap_message(self, capsys):
        # 65 cells both: the shape (2, 1, 63), and the shape of each coefficient of U(40, 25)
        enumerated = run_cli(capsys, "enumerate", "--a", "2", "--i", "1", "--b", "63")
        direct = run_cli(capsys, "coeff", "--m", "40", "--d", "25", "--i", "1", "--method", "direct")
        message = "error: tableau shapes are capped at 64 cells, and this one has 65\n"
        assert enumerated == direct == (2, "", message)


class TestKlpoly:
    def test_text_output(self, capsys):
        assert run_cli(capsys, "klpoly", "--m", "1", "--d", "3")[1].strip() == "1 + 2t"
        assert run_cli(capsys, "klpoly", "--m", "1", "--d", "2")[1].strip() == "1"
        assert (
            run_cli(capsys, "klpoly", "--m", "2", "--d", "3", "--rho", "1")[1].strip()
            == "1 + 3t"
        )

    def test_methods_cross_checked(self, capsys):
        code, out, _ = run_cli(
            capsys, "klpoly", "--m", "2", "--d", "4", "--method", "all"
        )
        assert code == 0
        assert out.strip().splitlines()[-1] == "OK"

    def test_json_round_trip(self, capsys):
        # 1 + 28t + 21t^2, frozen from the recurrence oracle and confirmed
        # by direct enumeration of the two shapes
        code, out, _ = run_cli(
            capsys, "klpoly", "--m", "2", "--d", "5", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["result"] == ["1", "28", "21"]

    @pytest.mark.parametrize("method", ["tableau", "direct", "closed-form", "oracle"])
    def test_every_route_gives_the_polynomial(self, capsys, method):
        code, out, _ = run_cli(capsys, "klpoly", "--m", "2", "--d", "5", "--method", method)
        assert code == 0 and out.strip() == "1 + 28t + 21t^2"

    @pytest.mark.parametrize(
        "m,d,rho,names",
        [
            (2, 4, 0, ["tableau", "direct", "closed-form", "oracle"]),
            (2, 4, 1, ["tableau", "direct", "oracle"]),
            (9, 8, 0, ["tableau", "direct", "closed-form"]),
            (40, 25, 0, ["tableau", "closed-form"]),
        ],
    )
    def test_all_runs_every_admitted_route(self, capsys, m, d, rho, names):
        code, out, _ = run_cli(
            capsys, "klpoly", "--m", str(m), "--d", str(d), "--rho", str(rho), "--method", "all"
        )
        want = kl_poly_rho(RhoUniformParams(m, d, rho))
        assert code == 0 and out.splitlines() == [f"{name}: {want}" for name in names] + ["OK"]

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--m", "9", "--d", "8", "--method", "oracle"), "16 element limit"),
            (("--m", "40", "--d", "25", "--method", "direct"), "capped at 64 cells"),
            (("--m", "2", "--d", "3", "--rho", "1", "--method", "closed-form"), "rho = 0"),
        ],
    )
    def test_a_route_past_its_domain_is_refused(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "klpoly", *argv)
        assert code == 2 and out == "" and message in err

    def test_all_writes_each_route_before_the_next_runs(self, monkeypatch):
        p = RhoUniformParams(2, 4)
        want = kl_poly_rho(p)
        stdout = RecordingStdout()
        seen = []

        def oracle_coeff(coeff):
            def recorded(params, i):
                seen.append(stdout.flushed)
                return coeff(params, i)

            return recorded

        routes = tuple(
            route._replace(coeff=oracle_coeff(route.coeff)) if route.name == "oracle" else route
            for route in ROUTES
        )
        monkeypatch.setattr(cli, "ROUTES", routes)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["klpoly", "--m", "2", "--d", "4", "--method", "all"]) == 0
        earlier = [f"{name}: {want}\n" for name in ("tableau", "direct", "closed-form")]
        assert seen[0] == "".join(earlier)
        assert stdout.getvalue() == seen[0] + f"oracle: {want}\nOK\n"


class TestEnumerate:
    def test_streams_and_counts(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--a", "2", "--i", "1", "--b", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3 and lines[-1] == "count: 2"

    def test_empty_convention(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--a", "2", "--i", "1", "--b", "1")
        assert code == 0 and out.strip() == "count: 0"

    def test_i_zero_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "--a", "2", "--i", "0", "--b", "4")
        assert code == 2 and out == ""
        # the library's own message, through main
        assert "enumeration needs i >= 1" in err

    def test_json_stream_contains_known_filling(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--a", "4", "--i", "3", "--b", "3", "--format", "json"
        )
        assert code == 0
        lines = out.strip().splitlines()
        count = json.loads(lines[-1])["count"]
        fillings = [json.loads(line) for line in lines[:-1]]
        assert count == len(fillings) == 2145
        assert {
            "a": 4, "i": 3, "b": 3,
            "columns": [[2, 3, 10, 11], [4, 6], [5, 8], [1, 7, 9]],
        } in fillings

    def test_rho_family_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--a", "3", "--i", "1", "--b", "2",
            "--family", "rho", "--rho", "1",
        )
        assert code == 0
        assert out.strip().splitlines()[-1] == "count: 3"

    @pytest.mark.parametrize("family", ["skyt", "overline", "rho"])
    def test_rank_flag_is_a_usage_error(self, capsys, family):
        # the shape carries the rank d = b + 2i - 1; even that d is refused
        with pytest.raises(SystemExit) as exc:
            main([
                "enumerate", "--a", "3", "--i", "1", "--b", "2",
                "--family", family, "--d", "3",
            ])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == "" and "--d" in captured.err

    @pytest.mark.parametrize("rho", ["-3", "9"])
    def test_rho_family_validates_the_family(self, capsys, rho):
        # the same (m, d) = (3, 4) that klm coeff rejects, with its message
        code, out, err = run_cli(
            capsys, "enumerate", "--a", "4", "--i", "1", "--b", "3",
            "--family", "rho", "--rho", rho,
        )
        assert code == 2 and out == ""
        coeff_code, _, coeff_err = run_cli(
            capsys, "coeff", "--m", "3", "--d", "4", "--i", "1", "--rho", rho
        )
        assert coeff_code == 2 and err == coeff_err
        if rho == "9":
            assert "9 disjoint bases of size 4 do not fit in 7 elements" in err

    def test_rho_family_counts_every_valid_rho(self, capsys):
        for rho in valid_rhos(3, 4):
            code, out, _ = run_cli(
                capsys, "enumerate", "--a", "4", "--i", "1", "--b", "3",
                "--family", "rho", "--rho", str(rho),
            )
            assert code == 0
            assert out.strip().splitlines()[-1] == f"count: {coeff_rho(3, 4, 1, rho)}"

    @pytest.mark.parametrize(
        "family_args",
        [("--rho", "-7"), ("--family", "overline", "--rho", "50")],
        ids=["skyt", "overline"],
    )
    def test_rho_outside_the_rho_family_is_a_usage_error(self, capsys, family_args):
        code, out, err = run_cli(
            capsys, "enumerate", "--a", "2", "--i", "1", "--b", "2", *family_args
        )
        assert code == 2 and out == "" and "--rho applies to --family rho only" in err

    def test_overline_family(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--a", "2", "--i", "1", "--b", "3",
            "--family", "overline",
        )
        assert code == 0
        assert out.strip().splitlines()[-1] == "count: 3"

    def test_deterministic_order(self, capsys):
        _, first, _ = run_cli(capsys, "enumerate", "--a", "3", "--i", "2", "--b", "2")
        _, second, _ = run_cli(capsys, "enumerate", "--a", "3", "--i", "2", "--b", "2")
        assert first == second


class TestVerify:
    def test_identities_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "identities", "--jobs", "1")
        assert code == 0
        assert all("PASS" in line for line in out.strip().splitlines())

    def test_theorem1_small(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "theorem1", "--max-n", "6", "--jobs", "1"
        )
        assert code == 0 and "theorem1" in out

    def test_gf_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "gf", "--format", "json", "--jobs", "1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["identity"] == "gf-truncation"
        assert payload[0]["passed"] is True
        assert payload[0]["counterexample"] is None

    def test_series_order_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "gf", "--series-order", "10"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and "--series-order" in captured.err and captured.out == ""

    @pytest.mark.parametrize("suite", ["theorem1", "minors", "all"])
    def test_max_n_capped(self, capsys, suite):
        for max_n in ("15", "99"):
            code, out, err = run_cli(capsys, "verify", "--suite", suite, "--max-n", max_n)
            assert code == 2 and "at most 14" in err and out == ""

    @pytest.mark.parametrize("max_n", ["1", "0", "-3"])
    def test_empty_grid_is_usage_error(self, capsys, max_n):
        code, out, err = run_cli(
            capsys, "verify", "--suite", "theorem1", "--max-n", max_n, "--jobs", "1"
        )
        assert code == 2 and "--max-n" in err and out == ""

    def test_negative_jobs_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--suite", "theorem1", "--max-n", "4", "--jobs", "-3"
        )
        assert code == 2 and "--jobs" in err and out == ""

    def test_json_names_a_failed_family_point(self, capsys, monkeypatch):
        failing = RhoUniformParams(2, 3, 1)
        monkeypatch.setattr(verification, "_theorem1_point", lambda p: p != failing)
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "theorem1", "--max-n", "5", "--jobs", "1",
            "--format", "json",
        )
        assert code == 1
        [report] = json.loads(out)
        assert report["passed"] is False and report["counterexample"] == [2, 3, 1]


    def test_suite_choices_are_the_table(self):
        verify = build_parser()._subparsers._group_actions[0].choices["verify"]
        [suite] = [action for action in verify._actions if action.dest == "suite"]
        assert suite.choices == [*VERIFY_SUITES, "all"]

    def test_all_runs_every_suite_in_table_order(self, capsys, monkeypatch):
        # the symmetry suite's shapes do not follow --max-n; shrink them
        shape_grid = verification.shape_grid
        monkeypatch.setattr(verification, "shape_grid", lambda *sizes: shape_grid(3, 3, 2, 8))
        options = ("--max-n", "5", "--jobs", "1", "--format", "json")
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", *options)
        assert code == 0
        reports = []
        for suite in VERIFY_SUITES:
            suite_code, suite_out, _ = run_cli(capsys, "verify", "--suite", suite, *options)
            assert suite_code == 0
            reports += json.loads(suite_out)
        assert json.loads(out) == reports
        assert len(reports) == 16

    def test_all_writes_each_suite_before_the_next_runs(self, monkeypatch):
        shape_grid = verification.shape_grid
        monkeypatch.setattr(verification, "shape_grid", lambda *sizes: shape_grid(3, 3, 2, 8))
        stdout = RecordingStdout()
        starts = []  # (text flushed when the suite starts, its report count)

        def recorded(suite):
            def run(*args):
                flushed = stdout.flushed
                reports = suite(*args)
                starts.append((flushed, len(reports)))
                return reports

            return run

        for name, suite in VERIFY_SUITES.items():
            monkeypatch.setitem(VERIFY_SUITES, name, recorded(suite))
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["verify", "--suite", "all", "--max-n", "5", "--jobs", "1"]) == 0
        lines = stdout.getvalue().splitlines(keepends=True)
        assert len(starts) == len(VERIFY_SUITES) and len(lines) == 16
        assert starts[1][0] == lines[0] and lines[0].startswith("theorem1: ")
        done = 0
        for flushed, count in starts:
            assert flushed == "".join(lines[:done])
            done += count


class TestStartUp:
    HEAVY = ("dataclasses", "concurrent", "multiprocessing", "fractions", "decimal", "numbers")

    @staticmethod
    def modules_loaded_by(module: str) -> list[str]:
        # site is skipped so that no .pth file imports anything first
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            f"import {module}\n"
            "print(*sorted(set(sys.modules) - before))\n"
        )
        done = subprocess.run(
            [sys.executable, "-S", "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert done.returncode == 0 and done.stderr == ""
        added = done.stdout.split()
        assert module in added
        return added

    @pytest.mark.parametrize("module", ["klmatroids", "klmatroids.cli"])
    def test_loads_neither_dataclasses_nor_the_process_pool(self, module):
        # only `klm verify` needs the pool, and nothing in the library needs fractions
        heavy = [
            name for name in self.modules_loaded_by(module)
            if name.split(".")[0] in self.HEAVY or name == "klmatroids.verification"
        ]
        assert heavy == []

    def test_the_sweep_pool_loads_no_executor(self):
        # the pool is os.fork, pipes, pickle and select: no concurrent.futures
        added = self.modules_loaded_by("klmatroids.verification")
        assert [name for name in added if name.split(".")[0] in self.HEAVY] == []


class TestOracleCapSetting:
    """The oracle's cap is MAX_GROUND, set in the library next to its work.

    Sizes past it, or not sizes at all, are usage errors before any listing
    of bases; the cap's own end runs every route.
    """

    @pytest.mark.parametrize("raw", ["abc", "7.5", "-1", "17", "99"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("coeff", "--d", "8", "--i", "0", "--method", "oracle", "--m"),
            ("klpoly", "--d", "8", "--method", "oracle", "--m"),
            ("verify", "--suite", "theorem1", "--jobs", "1", "--max-n"),
        ],
    )
    def test_bad_values_are_usage_errors(self, capsys, raw, argv):
        try:
            code = main([*argv, raw])
        except SystemExit as exc:  # argparse refuses a non-integer
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2 and captured.err and captured.out == ""

    @pytest.mark.parametrize("raw", ["0", "16"])
    def test_range_ends_accepted(self, capsys, raw):
        # n = 16 is the oracle's last size: all four routes run, at i = 0
        # and far past the degree.
        code, out, _ = run_cli(
            capsys, "coeff", "--m", "15", "--d", "1", "--i", raw, "--method", "all"
        )
        value = "1" if raw == "0" else "0"
        assert code == 0 and out.splitlines() == [
            f"{method}: {value}" for method in ("tableau", "direct", "closed-form", "oracle")
        ] + ["OK"]


class TestRouteTable:
    """Adding a route is one entry of ``closedforms.ROUTES``: the theorem1 and
    theorem2 sweeps compare it, both commands offer it and run it under
    ``all``, and ``kl_poly_rho`` is the tableau route's polynomial."""

    @pytest.mark.parametrize("name", [route.name for route in ROUTES])
    def test_a_route_off_by_one_fails_everywhere(self, capsys, monkeypatch, name):
        def off_by_one(coeff):
            return lambda p, i: coeff(p, i) + (i == 1)

        routes = tuple(
            route._replace(coeff=off_by_one(route.coeff)) if route.name == name else route
            for route in ROUTES
        )
        p = RhoUniformParams(2, 3)
        tableau_poly = kl_poly_rho(p)
        binding = [
            module
            for module_name, module in sys.modules.items()
            if module_name.startswith("klmatroids") and getattr(module, "ROUTES", None) is ROUTES
        ]
        assert {closedforms, cli, verification, identities} <= set(binding)
        for module in binding:
            monkeypatch.setattr(module, "ROUTES", routes)
        assert not verification.sweep_theorem1(6, jobs=1).passed
        assert not verification.sweep_theorem2(6, jobs=1).passed
        assert (kl_poly_rho(p) != tableau_poly) == (name == "tableau")
        # U(2, 3) is admitted by every route, and its coefficient 1 is 5
        for argv in (("coeff", "--i", "1"), ("klpoly",)):
            code, out, _ = run_cli(capsys, *argv, "--m", "2", "--d", "3", "--method", "all")
            assert code == 1 and f"{name}: " in out and out.endswith("FAIL: methods disagree\n")
            base = [*argv, "--m", "2", "--d", "3"]
            assert cli.build_parser().parse_args([*base, "--method", name]).method == name

    def test_a_route_wrong_only_past_the_range_fails_both_sweeps(self, monkeypatch):
        def past(coeff):
            return lambda p, i: coeff(p, i) + (i == closedforms.coefficient_range(p.d).stop)

        routes = (ROUTES[0]._replace(coeff=past(ROUTES[0].coeff)), *ROUTES[1:])
        monkeypatch.setattr(verification, "ROUTES", routes)
        assert not verification.sweep_theorem1(5, jobs=1).passed
        assert not verification.sweep_theorem2(5, jobs=1).passed


class TestFormulaCap:
    """The tableau and closed-form routes stop at COEFF_MAX_N (klm coeff) and
    KLPOLY_MAX_N (klm klpoly) elements, before any coefficient.

    The queries at the caps are cheap ones (d = 3); the slow ones are
    measured in the docstrings of the caps.
    """

    @staticmethod
    def refuse_every_formula(monkeypatch):
        def refuse(*args):
            raise AssertionError("a formula ran past its cap")

        for name in ("coeff_rho", "coeff_uniform_klum"):
            monkeypatch.setattr(closedforms, name, refuse)

    @pytest.mark.parametrize("method", ["tableau", "closed-form", "all"])
    def test_coeff_at_the_cap(self, capsys, method):
        m = COEFF_MAX_N - 3
        code, out, _ = run_cli(
            capsys, "coeff", "--m", str(m), "--d", "3", "--i", "1", "--method", method
        )
        assert code == 0 and out.splitlines()[0].endswith(str(coeff_uniform_klum(m, 3, 1)))

    @pytest.mark.parametrize("method", ["tableau", "closed-form", "all"])
    def test_coeff_past_the_cap(self, capsys, monkeypatch, method):
        self.refuse_every_formula(monkeypatch)
        code, out, err = run_cli(
            capsys, "coeff", "--m", "2", "--d", str(COEFF_MAX_N - 1), "--i", "1",
            "--method", method,
        )
        assert code == 2 and out == ""
        assert f"capped at m + d <= {COEFF_MAX_N}, got {COEFF_MAX_N + 1}" in err

    @pytest.mark.parametrize("method", ["tableau", "closed-form"])
    def test_klpoly_at_the_cap(self, capsys, method):
        p = RhoUniformParams(KLPOLY_MAX_N - 3, 3)
        code, out, _ = run_cli(
            capsys, "klpoly", "--m", str(p.m), "--d", "3", "--method", method
        )
        assert code == 0 and out.strip() == str(kl_poly_rho(p))

    def test_klpoly_all_at_the_cap(self, capsys):
        p = RhoUniformParams(KLPOLY_MAX_N - 3, 3)
        code, out, _ = run_cli(capsys, "klpoly", "--m", str(p.m), "--d", "3", "--method", "all")
        want = kl_poly_rho(p)
        assert code == 0 and out.splitlines() == [f"tableau: {want}", f"closed-form: {want}", "OK"]

    @pytest.mark.parametrize("method", ["tableau", "all"])
    def test_klpoly_past_the_cap(self, capsys, monkeypatch, method):
        self.refuse_every_formula(monkeypatch)
        code, out, err = run_cli(
            capsys, "klpoly", "--m", "2", "--d", str(KLPOLY_MAX_N - 1), "--rho", "1",
            "--method", method,
        )
        assert code == 2 and out == ""
        assert f"capped at m + d <= {KLPOLY_MAX_N}, got {KLPOLY_MAX_N + 1}" in err


def reference_table(m_max: int, d_max: int, rho: int, fmt: str) -> str:
    """klm table's output, assembled from the whole list of rows at once."""
    rows = [
        (m, d, rho, i, coeff_rho(m, d, i, rho))
        for m in range(1, m_max + 1)
        for d in range(1, d_max + 1)
        if rho in valid_rhos(m, d)
        for i in coefficient_range(d)
    ]
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["m", "d", "rho", "i", "coefficient"])
        writer.writerows([[str(v) for v in row] for row in rows])
        return buffer.getvalue()
    if fmt == "json":
        keys = ("m", "d", "rho", "i", "coefficient")
        return json.dumps([dict(zip(keys, (*row[:4], str(row[4])))) for row in rows]) + "\n"
    header = f"{'m':>3} {'d':>3} {'rho':>4} {'i':>3} {'coefficient':>16}\n"
    return header + "".join(f"{m:>3} {d:>3} {r:>4} {i:>3} {c:>16}\n" for m, d, r, i, c in rows)


class TestTable:
    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    @pytest.mark.parametrize("rho", [0, 1, 2])
    def test_matches_the_whole_list_reference(self, capsys, rho, fmt):
        code, out, _ = run_cli(
            capsys, "table", "--m-max", "6", "--d-max", "7", "--rho", str(rho), "--format", fmt
        )
        assert code == 0 and out == reference_table(6, 7, rho, fmt)

    def test_no_row_is_the_empty_json_array(self, capsys):
        # d = 1 admits no removed basis
        code, out, _ = run_cli(
            capsys, "table", "--m-max", "1", "--d-max", "1", "--rho", "1", "--format", "json"
        )
        assert code == 0 and out == "[]\n" == reference_table(1, 1, 1, "json")

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_writes_every_earlier_row_before_the_last_is_computed(self, monkeypatch, fmt):
        stdout = RecordingStdout()
        written = []

        def recorded(*args):
            written.append(stdout.getvalue())
            return coeff_rho(*args)

        monkeypatch.setattr(cli, "coeff_rho", recorded)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["table", "--m-max", "3", "--d-max", "4", "--format", fmt]) == 0
        out, before_last = stdout.getvalue(), written[-1]
        rows = len(written)
        assert rows == 3 * sum(len(coefficient_range(d)) for d in range(1, 5))
        if fmt == "json":
            assert len(json.loads(before_last + "]")) == rows - 1
        else:
            # the header, then all rows but the last
            assert before_last == "".join(out.splitlines(keepends=True)[:-1])
        assert out.startswith(before_last)

    def test_a_reader_that_closes_early_ends_it_cleanly(self):
        # the 70 triangle is megabytes, so the writer meets the closed pipe
        # long before its last row; the child's stdout is buffered, as it is
        # in a shell pipeline, whatever PYTHONUNBUFFERED says here
        argv = ["table", "--m-max", "70", "--d-max", "70", "--rho", "1", "--format", "csv"]
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        proc = subprocess.Popen(
            [sys.executable, "-W", "error", "-m", "klmatroids.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**env, "PYTHONPATH": SRC},
        )
        try:
            head = [proc.stdout.readline() for _ in range(3)]
            proc.stdout.close()
            code = proc.wait(timeout=30)
            err = proc.stderr.read()
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert head == ["m,d,rho,i,coefficient\n", "1,2,1,0,1\n", "1,3,1,0,1\n"]
        assert code == 0 and err == ""

    def test_a_write_cut_short_leaves_no_flush_to_fail_at_exit(self, monkeypatch):
        # A reader that closes mid-write can take part of a chunk: the tail
        # stays in the BufferedWriter, the next write's flush raises EPIPE,
        # and the interpreter's exit flush of an open stdout would raise again
        class ClosingPipe(io.RawIOBase):
            def __init__(self):
                self.taken = 0
                self.cut = False

            def writable(self):
                return True

            def write(self, b):
                if self.cut:
                    raise BrokenPipeError(errno.EPIPE, "Broken pipe")
                if self.taken + len(b) < 20_000:
                    self.taken += len(b)
                    return len(b)
                # the reader closes mid-write: the last 10 bytes never go
                self.cut = True
                self.taken += len(b) - 10
                return len(b) - 10

        raw = ClosingPipe()
        out = io.TextIOWrapper(io.BufferedWriter(raw, buffer_size=4096), encoding="utf-8")
        monkeypatch.setattr(sys, "stdout", out)
        argv = ["table", "--m-max", "40", "--d-max", "40", "--rho", "1", "--format", "csv"]
        assert main(argv) == 0
        assert raw.cut
        # what the interpreter does at exit: flush stdout unless it is closed
        if not out.closed:
            out.flush()

    def test_csv_contract(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--m-max", "3", "--d-max", "5", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["m", "d", "rho", "i", "coefficient"]
        table = {tuple(r[:4]): r[4] for r in rows[1:]}
        assert table[("1", "3", "0", "1")] == "2"
        assert table[("2", "3", "0", "1")] == "5"

    def test_rho_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--m-max", "3", "--d-max", "3", "--rho", "1",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        table = {tuple(r[:4]): r[4] for r in rows[1:]}
        assert table[("2", "3", "1", "1")] == "3"
        # d = 1 rows are skipped entirely: removal is undefined there
        assert not any(key[1] == "1" for key in table)

    def test_json_big_integers_as_strings(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--m-max", "2", "--d-max", "4", "--format", "json"
        )
        payload = json.loads(out)
        assert all(isinstance(row["coefficient"], str) for row in payload)

    def test_bad_flags(self, capsys):
        code, _, _ = run_cli(capsys, "table", "--m-max", "0", "--d-max", "3")
        assert code == 2

    @pytest.mark.parametrize("m_max,d_max", [(TABLE_MAX + 1, 3), (3, TABLE_MAX + 1)])
    def test_past_the_cap_is_refused_before_any_work(self, capsys, monkeypatch, m_max, d_max):
        def refuse(*args):
            raise AssertionError("the table computed a coefficient past its cap")

        monkeypatch.setattr(cli, "coeff_rho", refuse)
        code, out, err = run_cli(
            capsys, "table", "--m-max", str(m_max), "--d-max", str(d_max)
        )
        assert code == 2 and out == "" and f"at most {TABLE_MAX}" in err

    @pytest.mark.parametrize("m_max,d_max", [(TABLE_MAX, 1), (1, TABLE_MAX)])
    def test_the_cap_itself_is_admitted(self, capsys, m_max, d_max):
        code, out, _ = run_cli(
            capsys, "table", "--m-max", str(m_max), "--d-max", str(d_max), "--format", "csv"
        )
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert code == 0 and len(rows) == sum((d - 1) // 2 + 1 for d in range(1, d_max + 1)) * m_max

    def test_negative_rho_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "table", "--m-max", "3", "--d-max", "3", "--rho", "-1")
        assert code == 2 and "--rho" in err and out == ""

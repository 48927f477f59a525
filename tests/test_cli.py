"""End-to-end CLI tests: golden example invocations, record round-trips,
determinism, and exit codes. Everything runs in-process through main(),
except TestLazyNumpy and TestLazyModules, which need a fresh interpreter
per case."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from kspecial.cli import EVAL_COMMANDS, main
from kspecial.forests import parse_forest, validate_forest


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("KSPECIAL_PROFILE", raising=False)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_usage_error(argv, text, capsys):
    """argparse refuses argv: exit 2, nothing on stdout, text on stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert text in captured.err and "Traceback" not in captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in body]


class TestEvalExamples:
    def test_gamma_k_sqrt_pi_half(self, capsys):
        code, out, _ = run_cli(["eval", "gamma-k", "--k", "2", "--x", "1"], capsys)
        assert code == 0
        rec = parse_csv(out)[0]
        assert rec["function"] == "gamma-k"
        assert abs(float(rec["value"]) - math.sqrt(math.pi / 2.0)) <= 1e-12
        assert rec["method"] == "scaling"

    def test_pochhammer_exact_integer(self, capsys):
        code, out, _ = run_cli(
            ["eval", "pochhammer", "--x", "2", "--n", "3", "--k", "3"], capsys)
        assert code == 0
        rec = parse_csv(out)[0]
        assert rec["value"] == "80"
        assert rec["err_estimate"] == "0.0"
        assert rec["method"] == "exact"

    def test_pochhammer_exact_rational(self, capsys):
        code, out, _ = run_cli(
            ["eval", "pochhammer", "--x", "1/2", "--n", "3", "--k", "1/2"],
            capsys)
        assert code == 0
        assert parse_csv(out)[0]["value"] == "3/4"

    def test_hyper_binomial_point(self, capsys):
        code, out, _ = run_cli(
            ["eval", "hyper", "--a", "2", "--ka", "2", "--x", "0.25"], capsys)
        assert code == 0
        rec = parse_csv(out)[0]
        assert abs(float(rec["value"]) - 2.0) <= 1e-9

    # one point per command; hyper's is in the entire class, where the
    # integral route runs
    ROUTE_POINTS = {"gamma-k": ["--k", "2", "--x", "1.3"],
                    "beta-k": ["--k", "1.5", "--x", "0.7", "--y", "2.5"],
                    "zeta-k": ["--k", "2", "--x", "1.5", "--s", "3"],
                    "pochhammer": ["--x", "0.5", "--n", "4", "--k", "1.5"],
                    "hyper": ["--a", "1", "--ka", "1", "--b", "2", "--sb", "1",
                              "--x", "0.5"]}

    @pytest.mark.parametrize("command,method", [
        (cmd.command, m) for cmd in EVAL_COMMANDS for m in cmd.methods])
    def test_every_route_runs_through_main(self, command, method, capsys):
        # --method only where a command has more than one route; every
        # record shows the route that ran
        routes = next(cmd.methods for cmd in EVAL_COMMANDS if cmd.command == command)
        flag = ["--method", method] if len(routes) > 1 else []
        code, out, _ = run_cli(["eval", command, *self.ROUTE_POINTS[command], *flag],
                               capsys)
        assert code == 0
        assert parse_csv(out)[0]["method"] == method
        assert method == {"zeta-k": "euler_maclaurin", "pochhammer": "exact"}.get(
            command, method)

    def test_grid_is_cartesian_in_input_order(self, capsys):
        code, out, _ = run_cli(
            ["eval", "zeta-k", "--k", "1,2", "--x", "1", "--s", "2,3"], capsys)
        assert code == 0
        recs = parse_csv(out)
        assert [(r["k"], r["s"]) for r in recs] == \
            [("1", "2"), ("1", "3"), ("2", "2"), ("2", "3")]

    def test_beta_k_method_flag(self, capsys):
        code, out, _ = run_cli(
            ["eval", "beta-k", "--k", "1", "--x", "0.5", "--y", "0.5",
             "--method", "halfline"], capsys)
        assert code == 0
        rec = parse_csv(out)[0]
        assert abs(float(rec["value"]) - math.pi) <= 1e-9
        assert rec["method"] == "halfline"


class TestRoundTripAndDeterminism:
    ARGV = ["eval", "gamma-k", "--k", "0.5,1,2", "--x", "0.3,1,2.5,7",
            "--method", "integral"]

    def test_csv_round_trip(self, capsys):
        code, out, _ = run_cli(self.ARGV, capsys)
        assert code == 0
        recs = parse_csv(out)
        assert len(recs) == 12
        for rec in recs:
            # every numeric cell is shortest round-trip: re-parse then
            # re-print reproduces the exact string
            for col in ("value", "err_estimate"):
                assert repr(float(rec[col])) == rec[col]

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli([*self.ARGV, "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 12
        assert json.dumps(payload, indent=2) + "\n" == out
        for rec in payload:
            assert set(rec) == {"function", "inputs", "value",
                                "err_estimate", "method"}
            assert set(rec["inputs"]) == {"k", "x"}

    def test_csv_and_json_agree(self, capsys):
        _, out_csv, _ = run_cli(self.ARGV, capsys)
        _, out_json, _ = run_cli([*self.ARGV, "--format", "json"], capsys)
        csv_recs = parse_csv(out_csv)
        json_recs = json.loads(out_json)
        for c, j in zip(csv_recs, json_recs):
            assert float(c["value"]) == j["value"]
            assert c["method"] == j["method"]

    @pytest.mark.parametrize("argv", [
        ARGV,
        [*ARGV, "--format", "json"],
        ["eval", "hyper", "--a", "1,2", "--ka", "1,2", "--b", "3",
         "--sb", "1", "--x", "0.2,0.5"],
        ["verify", "forests"],
        ["forests", "--a", "2", "--n", "3", "--k", "1"],
    ])
    def test_byte_identical_across_runs(self, argv, capsys):
        code1, out1, _ = run_cli(argv, capsys)
        code2, out2, _ = run_cli(argv, capsys)
        assert (code1, out1) == (code2, out2)

    def test_hyper_list_params_quoted_in_csv(self, capsys):
        code, out, _ = run_cli(
            ["eval", "hyper", "--a", "1,2", "--ka", "1,2", "--b", "3",
             "--sb", "1", "--x", "0.2"], capsys)
        assert code == 0
        rec = parse_csv(out)[0]
        assert rec["a"] == "1,2" and rec["b"] == "3"


class TestVerifyCommand:
    def test_single_suite_passes(self, capsys):
        code, out, err = run_cli(["verify", "forests"], capsys)
        assert code == 0
        lines = [l for l in out.strip().splitlines()]
        assert len(lines) == 3
        assert all(l.startswith("PASS forests/") for l in lines)
        assert "max_dev=" in lines[0] and "tol=" in lines[0]
        assert "3/3 checks passed" in err

    def test_pde_suite(self, capsys):
        code, out, _ = run_cli(["verify", "pde"], capsys)
        assert code == 0
        assert out.count("PASS") == 2

    def test_stirling_suite(self, capsys):
        code, out, _ = run_cli(["verify", "stirling"], capsys)
        assert code == 0
        assert out.count("PASS") == 2


class TestForestsCommand:
    def test_count_only(self, capsys):
        code, out, _ = run_cli(["forests", "--a", "3", "--n", "1", "--k", "4"],
                               capsys)
        assert code == 0
        assert out.strip() == "3"

    def test_export_round_trips(self, capsys, tmp_path):
        path = tmp_path / "forests.txt"
        code, out, _ = run_cli(
            ["forests", "--a", "2", "--n", "3", "--k", "1",
             "--export", str(path)], capsys)
        assert code == 0
        assert out.strip() == "24"
        blocks = [b + "\n" for b in path.read_text().split("\n\n") if b.strip()]
        assert len(blocks) == 24
        for block in blocks:
            f = parse_forest(block)
            validate_forest(f)
            assert (f.a, f.n, f.k) == (2, 3, 1)

    def test_cap_exceeded_prints_exact_count(self, capsys):
        code, out, err = run_cli(["forests", "--a", "3", "--n", "9", "--k", "2"],
                                 capsys)
        assert code == 2
        assert out.strip() == "654729075"
        assert "cap" in err

    def test_cap_flag_raises_threshold(self, capsys):
        code, out, _ = run_cli(
            ["forests", "--a", "2", "--n", "3", "--k", "1", "--cap", "10"],
            capsys)
        assert code == 2
        assert out.strip() == "24"


class TestExitCodes:
    def test_domain_error_names_precondition(self, capsys):
        code, _, err = run_cli(["eval", "gamma-k", "--k", "-1", "--x", "1"],
                               capsys)
        assert code == 2
        assert "k must be > 0" in err

    def test_pole_is_domain_error(self, capsys):
        code, _, err = run_cli(
            ["eval", "zeta-k", "--k", "1", "--x", "1", "--s", "1"], capsys)
        assert code == 2
        assert "pole" in err

    def test_non_convergence_exit_3(self, capsys):
        code, _, err = run_cli(
            ["eval", "hyper", "--a", "1", "--ka", "1", "--x", "0.99995"],
            capsys)
        assert code == 3
        assert "converge" in err

    def test_outside_radius_is_domain_error(self, capsys):
        code, _, err = run_cli(
            ["eval", "hyper", "--a", "1", "--ka", "1", "--x", "1.5"], capsys)
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["eval", "gamma-k", "--k", "1", "--x", "200"],
        ["eval", "pochhammer", "--x", "1.5", "--n", "400", "--k", "2"],
        ["eval", "beta-k", "--k", "1", "--x", "1e-320", "--y", "1"],
        ["eval", "zeta-k", "--k", "1", "--x", "5e-324", "--s", "2"],
        # log Gamma(1e306) itself overflows: math.lgamma raises there
        ["eval", "gamma-k", "--k", "1", "--x", "1e306"],
        # the series sum overflows to inf; its record refuses it
        ["eval", "hyper", "--a", "1", "--ka", "1", "--b", "1", "--sb", "1",
         "--x", "800"],
    ])
    def test_overflow_exit_2(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("overflow:") and "Traceback" not in err

    @pytest.mark.parametrize("argv,outcome", [
        # log B_k ~ -2.8e26: 0.0
        (["beta-k", "--k", "5e-324", "--x", "1.7e308", "--y", "1e-300"],
         "beta-k,5e-324,1.7e+308,1e-300,0.0,0.0,ratio"),
        # B_k = 1/x ~ 5.9e-309 and B_1(1e306, 1) = 1e-306 are finite, but the
        # logs that give them pass the float range
        (["beta-k", "--k", "5e-324", "--x", "1.7e308", "--y", "5e-324"], "domain error:"),
        (["beta-k", "--k", "1", "--x", "1e306", "--y", "1"], "domain error:"),
        (["beta-k", "--k", "1", "--x", "1e305", "--y", "1e305"],
         "beta-k,1,1e+305,1e+305,0.0,0.0,ratio"),
        # k^(-3) zeta_H(3, 1e300) ~ 5e299, where zeta_H underflows to 0
        (["zeta-k", "--k", "1e-300", "--x", "1", "--s", "3"], "domain error:"),
        # zeta_k(1, 2) with k = 1e300 is 1.0 to rounding, where zeta_H(2, 1e-300)
        # ~ 1e600 overflows
        (["zeta-k", "--k", "1e300", "--x", "1", "--s", "2"], "domain error:"),
        # a tenth of the radius, F ~ 1.0, and term 3 is inf/inf
        (["hyper", "--a", "1,1,1", "--ka", "1e200,1e200,1e200", "--b", "1,1",
          "--sb", "1e200,1e200", "--x", "1e-201"], "domain error:"),
    ])
    def test_finite_values_are_not_overflows(self, argv, outcome, capsys):
        # each printed overflow: before
        code, out, err = run_cli(["eval", *argv], capsys)
        if outcome.endswith(":"):
            assert (code, out) == (2, "") and err.startswith(outcome), err
        else:
            assert (code, out.splitlines()[-1]) == (0, outcome)

    @pytest.mark.parametrize("argv,prefix", [
        (["eval", "gamma-k", "--k", "1", "--x", "200", "--method",
          "integral"], "overflow:"),
        (["eval", "gamma-k", "--k", "1", "--x", "171.5", "--method",
          "integral"], "domain error:"),
        (["eval", "beta-k", "--k", "1", "--x", "1e-3", "--y", "1",
          "--method", "unit"], "domain error:"),
        (["eval", "beta-k", "--k", "1", "--x", "1e-310", "--y", "1e10",
          "--method", "product"], "overflow:"),
        (["eval", "gamma-k", "--k", "1", "--x", "200", "--method", "limit"],
         "overflow:"),
        # q = x/k = 500: the limit route's 1/n expansion has not started
        (["eval", "gamma-k", "--k", "0.01", "--x", "5", "--method", "limit"],
         "domain error:"),
        (["eval", "gamma-k", "--k", "1", "--x", "200", "--method",
          "product"], "overflow:"),
        # past the product routes' tail series (x/k or (x+y)/k >= n_terms),
        # where x ** 4, k ** 4 and q ** 3 raised untyped errors
        (["eval", "beta-k", "--k", "1", "--x", "1e306", "--y", "1",
          "--method", "product"], "domain error:"),
        (["eval", "beta-k", "--k", "1", "--x", "1e100", "--y", "1",
          "--method", "product"], "domain error:"),
        (["eval", "beta-k", "--k", "1e-100", "--x", "1", "--y", "1",
          "--method", "product"], "domain error:"),
        (["eval", "gamma-k", "--k", "1", "--x", "1e200", "--method",
          "product"], "overflow:"),
        (["eval", "gamma-k", "--k", "1e-300", "--x", "1", "--method",
          "product"], "domain error:"),
    ])
    def test_integrand_overflow_exit_2(self, argv, prefix, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(prefix)
        assert "Traceback" not in err and "Warning" not in err

    def test_limit_factor_overflow_is_refused_up_front(self, capsys, recwarn):
        # x + n k overflows at the default n = 16,384
        code, out, err = run_cli(["eval", "gamma-k", "--k", "1e305", "--x",
                                  "1e305", "--method", "limit"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("domain error:") and err.count("\n") == 1
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_transfer_step_product_underflow_is_domain_error(self, capsys):
        # sbar = 1e-200 * 1e-200 underflows to 0.0: x * kbar / sbar raised
        # ZeroDivisionError, a traceback and exit 1
        code, out, err = run_cli(["eval", "hyper", "--a", "1", "--ka", "1",
                                  "--b", "1e-200,1e-200", "--sb", "1e-200,1e-200",
                                  "--x", "0.5", "--method", "transfer"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("domain error:") and "Traceback" not in err

    def test_integral_denominator_underflow_is_domain_error(self, capsys):
        # b_1 b_2 underflows to 0.0: numpy printed a divide-by-zero
        # RuntimeWarning before the domain error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["eval", "hyper", "--a", "1", "--ka", "1",
                                      "--b", "1e-200,1e-200", "--sb", "1e-200,1e-200",
                                      "--x", "0.5", "--method", "integral"], capsys)
        assert (code, out) == (2, "")
        assert err == ("domain error: integral route: the base-series denominator "
                       "at n=0 is 0.0, outside the float range\n")

    def test_exact_value_past_float_range_is_domain_error(self, capsys):
        # float() of the 401-digit k raised OverflowError, a traceback and exit 1
        code, out, err = run_cli(["eval", "pochhammer", "--x", "1.5", "--n", "2",
                                  "--k", str(10 ** 400)], capsys)
        assert (code, out) == (2, "")
        assert err == ("domain error: k is an exact value of 1329 bits, "
                       "beyond the float range\n")

    @pytest.mark.parametrize("argv,name", [
        (["eval", "hyper", "--a", "1", "--ka", "1", "--b", str(10 ** 400),
          "--sb", "1", "--x", "0.5"], "b"),
        (["eval", "hyper", "--a", "1", "--ka", str(10 ** 400), "--x", "0.5"], "k"),
        (["eval", "hyper", "--a", str(10 ** 400), "--ka", "1", "--b", "1",
          "--sb", "1", "--x", "0.5"], "a"),
    ])
    def test_exact_hyper_parameter_past_float_range(self, argv, name, capsys):
        # the term loop (or classify's radius) raised OverflowError: a
        # traceback and exit 1
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err == (f"domain error: {name} is an exact value of 1329 bits, "
                       "beyond the float range\n")

    BIG = str(10 ** 400)

    @pytest.mark.parametrize("argv,message", [
        # float() raised OverflowError: a traceback and exit 1
        (["eval", "gamma-k", "--k", "1", "--x", BIG],
         "x is an exact value of 1329 bits, beyond the float range"),
        (["eval", "beta-k", "--k", "1", "--x", BIG, "--y", "1"],
         "x is an exact value of 1329 bits, beyond the float range"),
        (["eval", "zeta-k", "--k", "1", "--x", "1", "--s", BIG],
         "s is an exact value of 1329 bits, beyond the float range"),
        # ZetaKSpec converts the fields in the order k, x, s
        (["eval", "zeta-k", "--k", "1", "--x", BIG, "--s", "2"],
         "x is an exact value of 1329 bits, beyond the float range"),
        (["eval", "zeta-k", "--k", BIG, "--x", f"1/{BIG}", "--s", "2"],
         "k is an exact value of 1329 bits, beyond the float range"),
        (["eval", "hyper", "--a", "1", "--ka", "1", "--x", BIG],
         "x is an exact value of 1329 bits, beyond the float range"),
        # the step's float is 0.0: ZeroDivisionError in classify, in the
        # spec's pole check and in the transfer route's a/k
        (["eval", "hyper", "--a=-1/3", f"--ka=1/{BIG}", "--x", "0.5"],
         "k is a nonzero exact value below the float range"),
        (["eval", "hyper", "--a", "1", "--ka", "1", "--b=-30", f"--sb=1/{BIG}",
          "--x", "0.5"], "s is a nonzero exact value below the float range"),
        (["eval", "hyper", "--a=-1e-300", f"--ka=1/{BIG}", "--x=-1", "--method",
          "transfer"], "k is a nonzero exact value below the float range"),
        # x read as 0.0: it printed 0.0 with err 0.0, where the product is ~1.7e-92
        (["eval", "pochhammer", "--x", f"1/{BIG}", "--n", "2", "--k", "1.7e308"],
         "x is a nonzero exact value below the float range"),
        # a zero factor met an inf one: nan,nan with exit 0
        (["eval", "pochhammer", "--x", "0.0", "--n", "3", "--k", "1.7e308"],
         "(x)_{n,k} needs a finite last factor x + (n-1)k, got x=0.0, n=3, k=1.7e+308"),
        # 1.0 +- 6.9e288, where B_1(1e300, 1e-300) ~ 1e300
        (["eval", "beta-k", "--k", "1", "--x", "1e300", "--y", "1e-300"],
         "B_k(1e+300, 1e-300) with k=1.0: log Gamma_k terms 6.89776e+302, 690.776, "
         "6.89776e+302 cancel past every digit"),
    ])
    def test_exact_value_or_factor_no_float_holds(self, argv, message, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (2, "", f"domain error: {message}\n")

    @pytest.mark.parametrize("argv,value", [
        (["eval", "hyper", "--a", "1", "--ka", "1", "--x", f"1/{BIG}"], "1.0,0.0,series"),
        (["eval", "zeta-k", "--k", "1", "--x", "1", "--s", f"1/{BIG}"],
         "-0.5,3.597122599785507e-14,euler_maclaurin")])
    def test_tiny_exact_point_where_the_function_is_continuous_at_0(self, argv, value,
                                                                   capsys):
        # read as 0.0, as the float literal 1e-400 is
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "") and out.endswith(f",{value}\n")

    def test_integral_route_weight_overflow_is_typed(self, capsys):
        # math.exp(log Gamma_k) raised OverflowError: a traceback and exit 1
        code, out, err = run_cli(["eval", "hyper", "--a", "700", "--ka", "1e-300",
                                  "--b", "2", "--sb", "1", "--x", "0.5", "--method",
                                  "integral"], capsys)
        assert (code, out) == (2, "")
        assert err == ("overflow: Gamma_k(700.0) with k=1e-300 overflows a float "
                       "(log value 3.88576e+303)\n")

    def test_radius_where_the_step_product_underflows(self, capsys):
        # prod k = 1e-400 is 0.0 as a float: ZeroDivisionError in classify. The
        # radius is 1e400, and (1)_{n,1e-200} is 1 to rounding, so the series
        # is sum 0.5^n / n!^2
        code, out, err = run_cli(["eval", "hyper", "--a", "1,1", "--ka", "1e-200,1e-200",
                                  "--b", "1", "--sb", "1", "--x", "0.5"], capsys)
        assert (code, err) == (0, "")
        value = float(out.splitlines()[1].split(",")[-3])
        assert value == pytest.approx(
            math.fsum(0.5 ** n / math.factorial(n) ** 2 for n in range(30)), rel=1e-14)

    @pytest.mark.parametrize("argv", [
        ["eval", "gamma-k", "--k", "1e-300", "--x", "-1e10"],
        ["eval", "gamma-k", "--k", "1e-300", "--x", "-1e10", "--method", "product"],
        ["eval", "hyper", "--a", "1", "--ka", "1", "--b", "-1e300", "--sb", "1e-300",
         "--x", "0.5"]])
    def test_x_over_k_at_minus_inf_is_a_pole(self, argv, capsys):
        # round(-inf) printed a traceback with exit 1
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("domain error:") and "Traceback" not in err

    def test_gamma_k_where_x_over_k_underflows(self, capsys):
        # log_gamma_k refused x = 1e-300, naming log_gamma_classic and 0.0
        code, out, err = run_cli(["eval", "gamma-k", "--k", "1e300", "--x", "1e-300"],
                                 capsys)
        assert code == 0 and err == ""
        assert parse_csv(out)[0]["value"] == "9.999999999999763e+299"

    @pytest.mark.parametrize("argv,names", [
        # log Gamma_k(1e7) ~ 1.51e308 came back as nan and was refused as a record
        (["eval", "gamma-k", "--k", "1e-300", "--x", "1e7"], "Gamma_k(10000000.0) with k=1e-300"),
        # k^(-s) zeta_H(s, x/k) overflows without raising
        (["eval", "zeta-k", "--k", "1.8e-124", "--x", "1.7e-256", "--s", "1.88"],
         "zeta_k(1.7e-256, 1.88) with k=1.8e-124")])
    def test_overflow_names_the_point(self, argv, names, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"overflow: {names} overflows a float")

    @pytest.mark.parametrize("x", ["1e-10", "1e-320"])
    def test_zeta_k_shifted_refusal_names_the_callers_x(self, x, capsys):
        # x/k is below the normal range, and zeta_H(-2, 1) = 0.0 is a trivial
        # zero: the value, -k x/6 ~ -1.7e289 at x = 1e-10, rides on the x/k
        # that 1 + x/k lost. The refusal named x = k and an "underflow"
        code, out, err = run_cli(["eval", "zeta-k", "--k", "1e300", "--x", x,
                                  "--s", "-2"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"domain error: zeta_k({float(x)!r}, -2.0) with k=1e+300")
        assert "underflows" not in err

    def test_zeta_k_tiny_k_is_finite(self, capsys):
        # k^(-s) = 1e600 used to raise an untyped OverflowError here
        code, out, err = run_cli(
            ["eval", "zeta-k", "--k", "1e-300", "--x", "1", "--s", "2"], capsys)
        assert code == 0 and err == ""
        assert float(parse_csv(out)[0]["value"]) == pytest.approx(1e300, rel=1e-12)

    def test_zeta_k_cancellation_is_in_the_estimate(self, capsys):
        # zeta_H(-2, 1e-100) ~ -1.7e-101 and k^2 = 1e200, but the head and
        # the tail cancel to 0.0: this printed 0.0,0.0 with exit 0
        code, out, err = run_cli(
            ["eval", "zeta-k", "--k", "1e100", "--x", "1", "--s", "-2"], capsys)
        assert code == 0 and err == ""
        row = parse_csv(out)[0]
        assert float(row["value"]) == 0.0
        assert float(row["err_estimate"]) >= 1.7e99

    def test_bad_pochhammer_n(self, capsys):
        code, _, err = run_cli(
            ["eval", "pochhammer", "--x", "1", "--n", "2.5", "--k", "1"],
            capsys)
        assert code == 2
        assert err == "domain error: n must be a nonnegative int, got 2.5\n"

    @pytest.mark.parametrize("argv,text", [
        (["eval", "zeta-k", "--k", "1", "--x", "1", "--s", "nan"], "'nan'"),
        (["eval", "beta-k", "--k", "1", "--x", "inf", "--y", "1"], "'inf'"),
        (["eval", "pochhammer", "--x", "nan", "--n", "3", "--k", "1"],
         "'nan'"),
        (["eval", "gamma-k", "--k", "inf", "--x", "2"], "'inf'"),
        (["eval", "gamma-k", "--k", "1", "--x", "1e400"], "'1e400'"),
        (["eval", "pochhammer", "--x", "1/0", "--n", "3", "--k", "1"],
         "'1/0'"),
    ])
    def test_non_finite_argument_is_usage_error(self, argv, text, capsys):
        assert_usage_error(argv, text, capsys)

    @pytest.mark.parametrize("argv,text", [
        (["eval", "gamma-k", "--k", ",", "--x", "1"], "comma-separated list"),
        (["eval", "gamma-k", "--k", "1", "--x", "1", "--method", "gamma"],
         "invalid choice: 'gamma'"),
        (["eval", "beta-k", "--k", "1", "--x", "1", "--y", "1", "--method",
          "simpson"], "invalid choice: 'simpson'"),
    ])
    def test_malformed_argument_is_usage_error(self, argv, text, capsys):
        # an unknown route name stops at the parser: ROUTES has no check
        assert_usage_error(argv, text, capsys)


class TestNegativeValues:
    """A flag's value may start with - and a digit or a point: a negative
    list or fraction is read as the value (argparse alone takes it for an
    option and refuses the command line)."""

    def test_negative_list_reaches_the_domain_check(self, capsys):
        code, out, err = run_cli(["eval", "gamma-k", "--k", "1", "--x", "-0.5,1.5"],
                                 capsys)
        assert code == 2 and out == ""
        assert err.startswith("domain error:") and "usage" not in err

    def test_negative_parameter_list(self, capsys):
        code, out, _ = run_cli(["eval", "hyper", "--a", "-2,1", "--ka", "1,1", "--b", "3",
                                "--sb", "1", "--x", "0.3"], capsys)
        assert code == 0
        rec = parse_csv(out)[0]
        assert rec["a"] == "-2,1"
        # 2F1(-2, 1; 3; x) = 1 - 2x/3 + x^2/6
        assert float(rec["value"]) == pytest.approx(1 - 0.2 + 0.015, rel=1e-14)

    def test_negative_fraction(self, capsys):
        code, out, _ = run_cli(["eval", "pochhammer", "--x", "-1/2", "--n", "3", "--k", "1"],
                               capsys)
        assert code == 0 and parse_csv(out)[0]["value"] == "-3/8"

    @pytest.mark.parametrize("argv,text", [
        (["eval", "gamma-k", "--k", "1", "--x", "1", "--bogus", "2"],
         "unrecognized arguments: --bogus"),
        (["eval", "gamma-k", "--k", "1", "--x", "-q"], "expected one argument"),
    ])
    def test_unknown_option_is_still_a_usage_error(self, argv, text, capsys):
        assert_usage_error(argv, text, capsys)


class TestProfiles:
    def test_env_profile_fast(self, capsys, monkeypatch):
        monkeypatch.setenv("KSPECIAL_PROFILE", "fast")
        code, out, _ = run_cli(
            ["eval", "gamma-k", "--k", "2", "--x", "1", "--method", "integral"],
            capsys)
        assert code == 0
        assert abs(float(parse_csv(out)[0]["value"])
                   - math.sqrt(math.pi / 2.0)) <= 1e-6

    def test_env_profile_invalid(self, capsys, monkeypatch):
        monkeypatch.setenv("KSPECIAL_PROFILE", "turbo")
        code, _, err = run_cli(["eval", "gamma-k", "--k", "2", "--x", "1",
                                "--method", "integral"], capsys)
        assert code == 2
        assert "KSPECIAL_PROFILE" in err

    def test_flag_beats_env(self, capsys, monkeypatch):
        # env would allow a loose answer; the strict flag forces more
        # quadrature refinement, visible in the error estimate
        monkeypatch.setenv("KSPECIAL_PROFILE", "fast")
        _, out_fast, _ = run_cli(
            ["eval", "gamma-k", "--k", "2", "--x", "1", "--method", "integral"],
            capsys)
        _, out_tight, _ = run_cli(
            ["eval", "gamma-k", "--k", "2", "--x", "1", "--method", "integral",
             "--rel-tol", "1e-12", "--abs-tol", "1e-15"], capsys)
        err_fast = float(parse_csv(out_fast)[0]["err_estimate"])
        err_tight = float(parse_csv(out_tight)[0]["err_estimate"])
        assert err_tight < err_fast

    @pytest.mark.parametrize("flag,value", [("--rel-tol", "-1"), ("--abs-tol", "0")])
    def test_bad_tolerance_flag_is_domain_error(self, flag, value, capsys):
        # the override is checked like any profile: an override that skipped
        # the profile's checks would run with the bad tolerance
        code, out, err = run_cli(["eval", "gamma-k", "--k", "1", "--x", "1",
                                  flag, value], capsys)
        assert (code, out) == (2, "")
        assert "domain error: tolerances must be positive" in err

    def test_infinite_tolerance_flag_is_domain_error(self, capsys):
        # inf passed the profile, and the 1F1(1; 2) series at x = 3 stopped at
        # 4.0 with err_estimate 1.125 against a true (e^3 - 1)/3 = 6.36
        code, out, err = run_cli(["eval", "hyper", "--a", "1", "--ka", "1", "--b", "2",
                                  "--sb", "1", "--x", "3", "--rel-tol", "inf",
                                  "--abs-tol", "inf"], capsys)
        assert (code, out) == (2, "")
        assert "domain error: tolerances must be finite, got inf" in err


SRC = Path(__file__).resolve().parents[1] / "src"

# prints [exit code, stdout of main(argv), whether numpy got imported,
#         every module that got imported]
_PROBE = """
import contextlib, io, json, sys
from kspecial.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([code, out.getvalue(), "numpy" in sys.modules,
                  sorted(sys.modules)]))
"""


def fresh_python(code: str, *args: str) -> str:
    env = {k: v for k, v in os.environ.items() if k != "KSPECIAL_PROFILE"}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return proc.stdout


def run_kspecial(argv, cwd, read_lines=None):
    """(exit code, stdout, stderr) of `python -m kspecial argv` in a fresh
    process. With read_lines=n, the reader of stdout reads n lines and
    closes the pipe, as `| head -n` does."""
    env = {k: v for k, v in os.environ.items() if k != "KSPECIAL_PROFILE"}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.Popen([sys.executable, "-W", "error", "-m", "kspecial", *argv],
                            cwd=cwd, env=env, text=True, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    if read_lines is None:
        out, err = proc.communicate(timeout=120)
        return proc.returncode, out, err
    out = "".join(proc.stdout.readline() for _ in range(read_lines))
    proc.stdout.close()
    err = proc.stderr.read()
    return proc.wait(timeout=120), out, err


class TestOutputErrors:
    """An output that fails keeps the exit contract: an --export path that
    cannot be written is a domain error, and a reader of stdout that leaves
    early changes no status. Each printed a traceback and exited 1, the
    status of a failed verify check."""

    @pytest.mark.parametrize("path,reason", [
        ("missing/f.txt", "No such file or directory"),
        (".", "Is a directory"),
        pytest.param("/dev/full", "No space left on device",
                     marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                              reason="no /dev/full")),
    ])
    def test_unwritable_export_is_domain_error(self, path, reason, tmp_path):
        argv = ["forests", "--a", "2", "--n", "3", "--k", "1", "--export", path]
        assert run_kspecial(argv, tmp_path) == (
            2, "24\n", f"domain error: cannot write --export {path}: {reason}\n")

    def test_reader_leaving_mid_output(self, tmp_path):
        # 100,000 records: the pipe fills, and a write fails while they print
        ks = ",".join(str(1.0 + i / 100) for i in range(100))
        xs = ",".join(str(1.0 + i / 10) for i in range(1000))
        code, out, err = run_kspecial(["eval", "gamma-k", "--k", ks, "--x", xs],
                                      tmp_path, read_lines=1)
        assert (code, out, err) == (0, "function,k,x,value,err_estimate,method\n", "")

    @pytest.mark.parametrize("argv", [["verify", "stirling"],
                                      ["eval", "gamma-k", "--k", "2", "--x", "1"],
                                      ["forests", "--a", "2", "--n", "3", "--k", "1"]])
    def test_reader_gone_before_any_output(self, argv, tmp_path):
        # the write fails where stdout is flushed, before the process exits
        code, out, err = run_kspecial(argv, tmp_path, read_lines=0)
        assert code == 0 and "Traceback" not in err and "Exception" not in err


class TestLazyNumpy:
    """numpy is imported by the array routes that use it, not by
    `import kspecial`, so a scalar CLI call never pays for loading it."""

    def test_import_loads_no_numpy(self):
        out = fresh_python("import sys, kspecial; "
                           "print('numpy' in sys.modules)")
        assert out.strip() == "False"

    @pytest.mark.parametrize("argv", [
        ["eval", "gamma-k", "--k", "2", "--x", "1"],
        ["eval", "hyper", "--a", "2", "--ka", "2", "--x", "0.25"],
        ["verify", "stirling"],
    ])
    def test_scalar_commands_load_no_numpy(self, argv):
        code, out, loaded, _ = json.loads(fresh_python(_PROBE, json.dumps(argv)))
        assert code == 0 and out
        assert not loaded

    def test_halfline_loads_numpy_and_matches_in_process(self, capsys):
        argv = ["eval", "beta-k", "--k", "1.5", "--x", "0.7", "--y", "2.5",
                "--method", "halfline"]
        code, out, loaded, _ = json.loads(fresh_python(_PROBE, json.dumps(argv)))
        assert loaded
        assert (code, out) == run_cli(argv, capsys)[:2]


class TestLazyModules:
    """`import kspecial` loads no submodule, and each command imports only
    the modules it runs, so a one-point eval does not compile the
    verification suites or the hypergeometric series. The records are
    NamedTuples, so no command imports dataclasses (and inspect with it),
    and the default eval route loads neither quadrature nor pochhammer."""

    def test_import_loads_no_submodule(self):
        out = fresh_python("import sys, kspecial; print(sorted("
                           "m for m in sys.modules if m.startswith('kspecial.')))")
        assert out.strip() == "[]"

    @pytest.mark.parametrize("argv,absent", [
        (["eval", "gamma-k", "--k", "2", "--x", "1"],
         {"kspecial.verify", "kspecial.forests", "kspecial.hypergeometric",
          "kspecial.series", "kspecial.betak", "kspecial.zetak"}),
        (["verify", "stirling"],
         {"kspecial.forests", "kspecial.hypergeometric", "kspecial.betak",
          "kspecial.zetak"}),
        (["eval", "gamma-k", "--k", "2", "--x", "1"],
         {"dataclasses", "inspect", "kspecial.quadrature", "kspecial.pochhammer",
          "fractions"}),
        (["eval", "hyper", "--a", "2", "--ka", "2", "--x", "0.25"],
         {"dataclasses", "inspect"}),
        (["verify", "stirling"], {"dataclasses", "inspect"}),
        (["forests", "--a", "2", "--n", "3", "--k", "1"], {"dataclasses", "inspect"}),
    ])
    def test_command_loads_only_what_it_runs(self, argv, absent):
        code, out, _, modules = json.loads(fresh_python(_PROBE, json.dumps(argv)))
        assert code == 0 and out
        assert absent.isdisjoint(modules)

    def test_every_public_name_resolves(self):
        import kspecial
        missing = [n for n in kspecial.__all__ if not hasattr(kspecial, n)]
        assert missing == []
        assert set(kspecial.__all__) <= set(dir(kspecial))
        assert kspecial.verify.run_suite is kspecial.run_suite
        with pytest.raises(AttributeError):
            kspecial.no_such_name  # noqa: B018

    def test_cli_suite_names_match_verify(self):
        from kspecial import cli, verify
        assert cli.SUITE_NAMES == tuple(verify.SUITES)

    def test_cli_route_choices_match_the_modules(self, capsys):
        # the parser spells the --method choices out so that it imports no
        # module; they must stay the routes the modules dispatch on
        from kspecial import betak, cli, gammak, hypergeometric
        methods = {cmd.command: cmd.methods for cmd in cli.EVAL_COMMANDS}
        assert methods["gamma-k"] == tuple(gammak.ROUTES)
        assert methods["beta-k"] == tuple(betak.ROUTES)
        assert methods["hyper"] == tuple(hypergeometric.ROUTES)
        # one route each, shown in every record: no --method option
        assert methods["zeta-k"] == ("euler_maclaurin",)
        assert methods["pochhammer"] == ("exact",)
        for argv in (["eval", "zeta-k", "--k", "1", "--x", "1", "--s", "2"],
                     ["eval", "pochhammer", "--x", "1", "--n", "2", "--k", "1"]):
            for method in ("euler_maclaurin", "exact"):
                assert_usage_error([*argv, "--method", method],
                                   "unrecognized arguments: --method", capsys)

"""End-to-end CLI tests: golden example invocations, record round-trips,
determinism, and exit codes. Everything runs in-process through main()."""

import csv
import io
import json
import math

import pytest

from kspecial.cli import main
from kspecial.forests import parse_forest, validate_forest


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("KSPECIAL_PROFILE", raising=False)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    ])
    def test_overflow_exit_2(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("overflow:") and "Traceback" not in err

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
        (["eval", "gamma-k", "--k", "1", "--x", "200", "--method",
          "product"], "overflow:"),
    ])
    def test_integrand_overflow_exit_2(self, argv, prefix, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(prefix)
        assert "Traceback" not in err and "Warning" not in err

    def test_bad_pochhammer_n(self, capsys):
        code, _, err = run_cli(
            ["eval", "pochhammer", "--x", "1", "--n", "2.5", "--k", "1"],
            capsys)
        assert code == 2
        assert "integers" in err


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

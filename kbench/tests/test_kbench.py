"""Checks of the benchmark itself: seeded generators, the tracer, and the
refusal to run without the program's source.

    python3 -m pytest -q kbench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

# The layer -> workload table of the benchmark's README: each function must
# record calls on the workload it is mapped to.
EXPECTED_CALLS = {
    "verify-all": [
        "quadrature.quad_halfline", "quadrature.quad_unit",
        "series.sum_series", "pochhammer.pochhammer_k_log",
        "gammak.gamma_k_integral", "gammak.gamma_k_limit",
        "gammak.gamma_k_product", "gammak.psi_point",
        "betak.beta_k_integral_halfline", "betak.beta_k_integral_unit",
        "betak.beta_k_product", "betak.beta_k_ratio",
        "hypergeometric.transfer_classical",
        "hypergeometric.integral_representation_check",
        "verify.gamma", "verify.beta", "verify.zeta", "verify.hyper",
        "verify.forests", "verify.pde", "verify.stirling",
    ],
    "point-eval": [
        "loggamma.log_gamma_classic", "hurwitz.hurwitz_zeta",
        "series.sum_series", "pochhammer.pochhammer_k",
        "pochhammer.pochhammer_k_log", "gammak.gamma_k_scaling",
        "betak.beta_k_ratio", "zetak.zeta_k", "hypergeometric.evaluate",
    ],
    "cli-cold": [
        "forests.enumerate_forests", "gammak.gamma_k_scaling",
        "betak.beta_k_integral_halfline", "hypergeometric.evaluate",
        "verify.stirling", *(f"cli.{label}" for label in inputs.CLI_OPS),
    ],
}


def _traced(workload: str) -> dict:
    if workload == "verify-all":
        return run.run_verify_all(0.0, tracing=True)
    if workload == "point-eval":
        return run.run_point_eval(7, 0.0, tracing=True)
    run.WORK.mkdir(exist_ok=True)
    return run.run_cli_cold(7, 0.0, tracing=True)


@pytest.fixture(scope="module", params=sorted(EXPECTED_CALLS))
def traced(request):
    return request.param, _traced(request.param)


def test_same_seed_same_inputs_byte_for_byte():
    a = json.dumps(inputs.point_inputs(5, 3000)).encode()
    b = json.dumps(inputs.point_inputs(5, 3000)).encode()
    assert a == b
    assert inputs.cli_argvs(5, "out.txt") == inputs.cli_argvs(5, "out.txt")


def test_other_seed_changes_draws_not_mix():
    a, b = inputs.point_inputs(5, 3000), inputs.point_inputs(6, 3000)
    assert a != b
    assert [it[0] for it in a] == [it[0] for it in b]
    hyper = lambda items: [it[1] for it in items if it[0] == "hyper"]  # noqa: E731
    assert hyper(a) == hyper(b)
    labels = lambda argvs: [label for label, _ in argvs]  # noqa: E731
    assert labels(inputs.cli_argvs(5, "o")) == labels(inputs.cli_argvs(6, "o"))


# point-eval is the workload that bypasses every quadrature change.
EXPECTED_NO_CALLS = {
    "point-eval": ["quadrature.quad_halfline", "quadrature.quad_unit"],
}


def test_mapped_functions_record_calls(traced):
    workload, res = traced
    assert res["counts_repeat"]
    stats = res["tracers"][0].stats
    silent = [name for name in EXPECTED_CALLS[workload]
              if name not in stats or stats[name].calls == 0]
    assert silent == []
    called = [name for name in EXPECTED_NO_CALLS.get(workload, ())
              if stats[name].calls]
    assert called == []


def test_failures_count_checks_not_run_length():
    short = run.run_point_eval(7, 0.0, tracing=True)
    longer = run.run_point_eval(7, 1.0, tracing=True)
    assert longer["blocks"] > short["blocks"]
    a, b = short["out"], longer["out"]
    assert a.consistent and b.consistent
    assert a.attempted == b.attempted == run.POINT_TRACE_BLOCK
    assert (a.failed, a.reasons) == (b.failed, b.reasons)
    assert a.failed > 0       # the known defects stay in the inputs


def test_tracer_restores_the_program():
    from kspecial import betak, gammak, quadrature, verify
    before = (quadrature.quad_halfline, gammak.quad_halfline,
              betak.quad_halfline, verify.quad_halfline,
              dict(verify.SUITES))
    with tracer.Tracer():
        assert gammak.quad_halfline is not before[1]
        assert betak.quad_halfline is gammak.quad_halfline
    after = (quadrature.quad_halfline, gammak.quad_halfline,
             betak.quad_halfline, verify.quad_halfline, dict(verify.SUITES))
    assert after == before


def test_nested_spans_split_self_time():
    from kspecial import FAST, hypergeometric
    # p = 2: quad_halfline runs inside quad_halfline
    spec = hypergeometric.HypergeometricSpec((1.0, 2.0), (2.0, 2.0),
                                             (2.0, 3.0), (1.0, 2.0))
    with tracer.Tracer() as tr:
        hypergeometric.integral_representation_check(spec, 0.3, FAST)
    quad = tr.stats["quadrature.quad_halfline"]
    check = tr.stats["hypergeometric.integral_representation_check"]
    assert check.calls == 1 and quad.calls > 1
    assert quad.total_s > check.total_s      # nested durations overlap
    self_sum = math.fsum(st.self_s for st in tr.stats.values())
    assert math.isclose(self_sum, check.total_s, rel_tol=1e-9)


def test_refuses_to_run_without_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "point-eval",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

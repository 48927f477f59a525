"""The verify report itself: the inventory of checks and their pinned
tolerances, and the rule that a nan deviation fails its check."""

import math

import pytest

from kspecial import betak, forests, gammak
from kspecial.cli import main
from kspecial.errors import InvariantViolation
from kspecial.profiles import EvalResult
from kspecial.verify import _combined_error_units, _holds, _worst, run_suite

# every check of `verify all` in report order, with repr(tol): a refactor
# of the suites may neither drop, rename, reorder nor retune a check
INVENTORY = [
    ("gamma/functional-equation/scaling+integral", "1e-09"),
    ("gamma/functional-equation/limit-richardson", "0.0001"),
    ("gamma/functional-equation/product-n1e4", "1e-05"),
    ("gamma/normalization/scaling+integral", "1e-09"),
    ("gamma/normalization/limit-richardson", "0.0001"),
    ("gamma/normalization/product-n1e4", "1e-05"),
    ("gamma/reflection-normalized", "1e-08"),
    ("gamma/reflection-unnormalized-gap-equals-1/k", "1e-08"),
    ("gamma/scale-transfer", "1e-12"),
    ("gamma/parameter-a-integral", "1e-09"),
    ("gamma/log-convexity/psi-xx-positive", "0.0"),
    ("gamma/log-convexity/midpoint", "1e-12"),
    ("gamma/route-agreement/combined-error-units", "3.0"),
    ("gamma/pochhammer/symmetric-and-rescale-exact", "0.0"),
    ("gamma/pochhammer/dk-vs-finite-difference", "1e-06"),
    ("gamma/pochhammer/gamma-ratio", "1e-11"),
    ("beta/four-routes-pairwise/combined-error-units", "3.0"),
    ("beta/scaling-collapse", "1e-09"),
    ("beta/symmetry/halfline-route", "1e-09"),
    ("beta/first-argument-shift", "1e-11"),
    ("zeta/shift-telescoping", "1e-10"),
    ("zeta/scaling-to-classical", "1e-12"),
    ("zeta/trigamma-identity", "1e-09"),
    ("zeta/s0-derivative-composite/positive-sign", "0.001"),
    ("zeta/s0-derivative-composite/flipped-sign-gap-is-2x", "0.001"),
    ("zeta/termwise-dk-m1-vs-fd", "1e-05"),
    ("zeta/termwise-dk-m2-vs-fd", "0.001"),
    ("zeta/printed-dk-form-gap-is-factor-minus-signed-x", "1e-12"),
    ("hyper/binomial-collapse", "1e-10"),
    ("hyper/transfer-20-seeded/combined-error-units", "1.0"),
    ("hyper/ode-coefficient-residual-deg15", "1e-12"),
    ("hyper/integral-representation-p1", "1e-08"),
    ("hyper/integral-representation-p2-even-steps", "1e-07"),
    ("hyper/radius-and-divergence-refusal", "0.0"),
    ("hyper/coefficient-rational-exact", "0.0"),
    ("forests/enumeration-count-distinct-invariants", "0.0"),
    ("forests/derivative-ratio-equals-coefficient", "0.0"),
    ("forests/cap-exceeded-carries-exact-count", "0.0"),
    ("pde/balanced-rhs-residual", "0.0001"),
    ("pde/variant-rhs-gap-equals-k(x-1)", "0.0001"),
    ("stirling/leading-term-error-decreasing", "0.0"),
    ("stirling/rel-error-times-x-bounded", "0.12"),
]


def test_unknown_suite_is_refused():
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        run_suite("nope")


def test_inventory_and_tolerances_are_pinned_and_all_pass(verify_rows):
    rows = verify_rows
    assert [(f"{s}/{r.name}", repr(r.tol)) for s, r in rows] == INVENTORY
    failed = [f"{s}/{r.name}" for s, r in rows if not r.passed]
    assert failed == []
    assert all(0.0 <= r.max_dev <= r.tol for _, r in rows)


def test_gamma_suite_runs_each_route_once_per_point(monkeypatch):
    # the functional-equation, normalization and route-agreement rows share
    # one table of the four routes at 35 (k, x); the reflection rows add 12
    # product calls of their own
    from collections import Counter

    from kspecial.verify import suite_gamma
    calls = {name: Counter() for name in ("integral", "limit", "product")}
    for name, counter in calls.items():
        route = getattr(gammak, f"gamma_k_{name}")

        def counted(k, x, *args, _route=route, _counter=counter):
            _counter[k, x] += 1
            return _route(k, x, *args)
        monkeypatch.setattr(gammak, f"gamma_k_{name}", counted)
    assert all(r.passed for r in suite_gamma())
    for name in ("integral", "limit"):
        assert len(calls[name]) == 35 and set(calls[name].values()) == {1}
    assert sum(calls["product"].values()) == 47
    assert set(calls["product"]) >= set(calls["integral"])


class TestNanFails:
    def test_fold_keeps_the_max_in_order(self):
        r = _worst("c", 1.0, iter([0.25, -1.0, 0.5, 0.125]))
        assert (r.name, r.max_dev, r.tol, r.passed) == ("c", 0.5, 1.0, True)
        assert _worst("c", 0.0, []).max_dev == 0.0
        assert not _worst("c", 0.25, [0.5]).passed

    @pytest.mark.parametrize("devs", [[math.nan], [0.5, math.nan, 0.25],
                                      [math.nan, 2.0]])
    def test_nan_deviation_fails(self, devs):
        r = _worst("c", math.inf, devs)
        assert math.isnan(r.max_dev) and not r.passed

    def test_combined_error_units_keeps_nan(self):
        ok = EvalResult(1.0, 1e-16, "scaling")
        # _make skips the record's finiteness rule, as a route's bug might
        bad = EvalResult._make((math.nan, 0.0, "scaling", 0))
        assert math.isnan(_combined_error_units([ok, bad, ok]))
        assert math.isnan(_combined_error_units([bad, ok, ok]))

    def test_structural_check_is_0_or_1(self):
        assert _holds("s", True) == _worst("s", 0.0, [0.0])
        r = _holds("s", False)
        assert (r.max_dev, r.tol, r.passed) == (1.0, 0.0, False)

    def test_verify_beta_fails_on_a_nan_route(self, monkeypatch, capsys):
        monkeypatch.setattr(betak, "beta_k_ratio",
                            lambda spec: EvalResult._make((math.nan, 0.0, "scaling", 0)))
        assert main(["verify", "beta"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "FAIL beta/four-routes-pairwise/combined-error-units max_dev=nan tol=3.000e+00",
            "FAIL beta/scaling-collapse max_dev=nan tol=1.000e-09",
            out[2],
            "FAIL beta/first-argument-shift max_dev=nan tol=1.000e-11",
        ]
        assert out[2].startswith("PASS beta/symmetry/halfline-route ")


def test_verify_forests_fails_on_a_member_of_another_family(monkeypatch, capsys):
    # (1)_{1,1} = (1)_{1,2} = 1: the k = 1 forest is valid on its own, has
    # the right count and round-trips, but is not a member of (1, 1, 2)
    enumerate_forests = forests.enumerate_forests
    monkeypatch.setattr(forests, "enumerate_forests", lambda family, cap=1_000_000:
                        enumerate_forests(family._replace(k=1) if family == (1, 1, 2)
                                          else family, cap))
    assert main(["verify", "forests"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("FAIL forests/enumeration-count-distinct-invariants "
                      "max_dev=1.000e+00 tol=0.000e+00")
    assert [line[:5] for line in out[1:]] == ["PASS ", "PASS "]


# the rows that read psi_point's psi_xx, as a refused point prints them
PSI_XX_FAILS = {
    "gamma": ["FAIL gamma/log-convexity/psi-xx-positive max_dev=1.000e+00 tol=0.000e+00"],
    "zeta": ["FAIL zeta/trigamma-identity max_dev=nan tol=1.000e-09",
             "FAIL zeta/s0-derivative-composite/positive-sign max_dev=nan tol=1.000e-03",
             "FAIL zeta/s0-derivative-composite/flipped-sign-gap-is-2x max_dev=nan "
             "tol=1.000e-03"],
    "pde": ["FAIL pde/balanced-rhs-residual max_dev=nan tol=1.000e-04",
            "FAIL pde/variant-rhs-gap-equals-k(x-1) max_dev=nan tol=1.000e-04"],
}


def _check_psi_xx_refusal_report(suite, monkeypatch, capsys):
    # psi_point refuses a non-positive psi_xx; each row that reads it must
    # report FAIL while every other row of the suite is still printed
    monkeypatch.setattr(gammak, "hurwitz_zeta", lambda s, a, profile=None:
                        EvalResult(-1.0, 0.0, "euler_maclaurin"))
    with pytest.raises(InvariantViolation, match="psi_xx must be positive"):
        gammak.psi_point(1.0, 1.0)
    assert main(["verify", suite]) == 1
    captured = capsys.readouterr()
    out = captured.out.splitlines()
    names = [name for name, _ in INVENTORY
             if suite == "all" or name.startswith(f"{suite}/")]
    assert [line.split()[1] for line in out] == names
    fails = [line for s in PSI_XX_FAILS if suite in (s, "all")
             for line in PSI_XX_FAILS[s]]
    assert [line for line in out if line.startswith("FAIL")] == fails
    assert captured.err == f"{len(names) - len(fails)}/{len(names)} checks passed\n"


def test_verify_gamma_fails_on_a_nonpositive_psi_xx(monkeypatch, capsys):
    _check_psi_xx_refusal_report("gamma", monkeypatch, capsys)


@pytest.mark.parametrize("suite", ["zeta", "pde", "all"])
def test_verify_suites_reading_psi_xx_fail_rather_than_abort(suite, monkeypatch,
                                                             capsys):
    _check_psi_xx_refusal_report(suite, monkeypatch, capsys)

"""Acceptance suite: one test per criterion, each printing a single
pass/fail line with the worst observed deviation and the stated tolerance.
A criterion whose grid, deviations and tolerances are those of verify
checks reads their results from the session's run_suite("all").

Three stated forms (reflection without the k factor, the power-balanced
equation with the x(k+1) right side, the series k-derivative with the
plain x prefactor) contradict both the finite-difference oracles and the
functional equations; each criterion therefore checks the corrected
identity and carries a strict-xfail twin that documents how the stated
form fails. See the repository notes ledger for the derivations.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from kspecial.betak import (BetaKSpec, beta_k_integral_halfline,
                            beta_k_integral_unit, beta_k_product,
                            beta_k_ratio)
from kspecial.cli import main
from kspecial.forests import (ForestFamily, count, derivative_ratio,
                              enumerate_forests, serialize_forest,
                              tail_count, validate_forest)
from kspecial.gammak import (gamma_k_integral, gamma_k_product, gamma_k_scaling,
                             gamma_k_stirling, pde_residual_variant, psi_point)
from kspecial.hypergeometric import (HypergeometricSpec, classify,
                                     coefficient, evaluate,
                                     integral_representation_check,
                                     ode_residual, transfer_classical)
from kspecial.pochhammer import (PochhammerSpec, pochhammer_dk, pochhammer_k,
                                 pochhammer_rescale, pochhammer_via_symmetric)
from kspecial.zetak import ZetaKSpec, zeta_k, zeta_k_dk_printed_variant

GRID_K = (0.5, 1.0, 2.0, 3.0)
GRID_X = (0.3, 1.0, 2.5, 7.0)
SEED = 20240817


def _line(num, ok, label, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _verify_line(num, label, verify_rows, *names):
    """A criterion that is a set of verify checks, run on the same grid with
    the same deviations and tolerances: it holds iff each named check
    ("suite/name") passed in the session's run_suite("all")."""
    by_name = {f"{suite}/{r.name}": r for suite, r in verify_rows}
    rows = [by_name[name] for name in names]
    _line(num, all(r.passed for r in rows), label,
          "; ".join(f"{name} {r.max_dev:.2e} (tol {r.tol:.0e})"
                    for name, r in zip(names, rows)))


def _fd1(f, t, h):
    return (f(t + h) - f(t - h)) / (2.0 * h)


def test_criterion_01_functional_equation_and_normalization(verify_rows):
    _verify_line(1, "functional equation & normalization", verify_rows,
                 *(f"gamma/{check}/{tag}"
                   for check in ("functional-equation", "normalization")
                   for tag in ("scaling+integral", "limit-richardson", "product-n1e4")))


def test_criterion_02_integral_vs_scaling():
    dev = 0.0
    for k in GRID_K:
        for x in GRID_X:
            a, b = gamma_k_integral(k, x).value, gamma_k_scaling(k, x).value
            dev = max(dev, abs(a - b) / abs(b))
    _line(2, dev <= 1e-9, "integral vs scaling route",
          f"max rel deviation {dev:.2e} (tol 1e-09)")


def test_criterion_03_reflection(verify_rows):
    # the k-weighted form equals 1, so the unweighted one equals 1/k
    _verify_line(3, "reflection (balanced by k)", verify_rows,
                 "gamma/reflection-normalized",
                 "gamma/reflection-unnormalized-gap-equals-1/k")


@pytest.mark.xfail(strict=True,
                   reason="stated reflection form omits the k factor; the "
                          "product equals 1/k, so it misses 1 by 1/2 at k=2")
def test_criterion_03_stated_form_literal():
    expr = (gamma_k_product(2.0, 0.5, 10_000).value
            * gamma_k_product(2.0, 1.5, 10_000).value
            * math.sin(math.pi * 0.25) / math.pi)
    assert abs(expr - 1.0) <= 1e-8


def test_criterion_04_stirling_decay():
    worst_bound = 0.0
    monotone = True
    for k in (1.0, 2.0, 3.0):
        rels = []
        for x in (10.0, 20.0, 40.0, 80.0):
            exact = gamma_k_scaling(k, x + 1.0).value
            rels.append(abs(exact - gamma_k_stirling(k, x)) / exact)
            worst_bound = max(worst_bound, rels[-1] * x)
        monotone = monotone and all(b < a for a, b in zip(rels, rels[1:]))
    ok = monotone and worst_bound <= 0.12
    _line(4, ok, "leading-order large-x approximation",
          f"rel error decreasing: {monotone}; "
          f"max rel*x {worst_bound:.3f} (bound 0.12)")


def test_criterion_05_power_balanced_equation(verify_rows):
    # residual against the -(x+k) right side, and the x(k+1) variant's
    # residual against k(x-1)
    _verify_line(5, "power-balanced differential relation", verify_rows,
                 "pde/balanced-rhs-residual", "pde/variant-rhs-gap-equals-k(x-1)")


@pytest.mark.xfail(strict=True,
                   reason="stated right side x(k+1) leaves residual k(x-1), "
                          "which is 4 at k=2, x=3")
def test_criterion_05_stated_form_literal():
    dev = 0.0
    for k in (0.5, 1.0, 2.0):
        for x in (0.7, 1.0, 3.0):
            dev = max(dev, abs(pde_residual_variant(psi_point(k, x))))
    assert dev <= 1e-4


def test_criterion_06_beta_routes():
    routes = (beta_k_ratio,
              lambda s: beta_k_integral_halfline(s),
              lambda s: beta_k_integral_unit(s),
              lambda s: beta_k_product(s))
    pair_ok = True
    worst_ratio = 0.0
    collapse = 0.0
    for k in (0.5, 1.0, 2.0):
        for x in (0.5, 1.0, 2.5):
            for y in (0.5, 1.0, 2.5):
                spec = BetaKSpec(k, x, y)
                rs = [r(spec) for r in routes]
                for i in range(len(rs)):
                    for j in range(i + 1, len(rs)):
                        diff = abs(rs[i].value - rs[j].value)
                        combined = (rs[i].err_estimate + rs[j].err_estimate
                                    + 1e-13 * abs(rs[i].value))
                        pair_ok = pair_ok and diff <= combined
                        worst_ratio = max(worst_ratio, diff / combined)
                lhs = rs[0].value
                rhs = beta_k_ratio(BetaKSpec(1.0, x / k, y / k)).value / k
                collapse = max(collapse, abs(lhs - rhs) / abs(lhs))
    ok = pair_ok and collapse <= 1e-9
    _line(6, ok, "four beta routes & scaling collapse",
          f"pairwise within combined error estimates (worst ratio "
          f"{worst_ratio:.2f}); collapse to k=1 {collapse:.2e} (tol 1e-09)")


def test_criterion_07_zeta_identities(verify_rows):
    _verify_line(7, "zeta identities", verify_rows,
                 "zeta/trigamma-identity", "zeta/s0-derivative-composite/positive-sign",
                 "zeta/termwise-dk-m1-vs-fd", "zeta/termwise-dk-m2-vs-fd")


@pytest.mark.xfail(strict=True,
                   reason="stated termwise k-derivative carries a plain x "
                          "prefactor; it misses the finite-difference "
                          "oracle by the factor -(-1)^m x")
def test_criterion_07_stated_dk_form_literal():
    spec = ZetaKSpec(1.0, 2.0, 3.0)
    printed = zeta_k_dk_printed_variant(spec, 1).value
    fd = _fd1(lambda t: zeta_k(ZetaKSpec(t, 2.0, 3.0)).value, 1.0, 1e-5)
    assert abs(printed - fd) / abs(fd) <= 1e-5


def _seeded_specs(rng, n, allow_divergent=False):
    made = []
    while len(made) < n:
        p, q = rng.randint(0, 3), rng.randint(0, 3)
        if not allow_divergent and p > q + 1:
            continue
        made.append(HypergeometricSpec(
            tuple(rng.uniform(0.3, 4.0) for _ in range(p)),
            tuple(rng.uniform(0.3, 4.0) for _ in range(p)),
            tuple(rng.uniform(0.3, 4.0) for _ in range(q)),
            tuple(rng.uniform(0.3, 4.0) for _ in range(q))))
    return made


def test_criterion_08_hypergeometric():
    bino = 0.0
    for a in (1.0, 2.0, 3.5):
        for k in (1.0, 2.0):
            spec = HypergeometricSpec((a,), (k,), (), ())
            for x in (0.1, -0.1, 0.4 / k, -0.4 / k):
                want = (1.0 - k * x) ** (-a / k)
                bino = max(bino, abs(evaluate(spec, x).value - want) / want)

    rng = random.Random(SEED)
    transfer_ok = True
    for spec in _seeded_specs(rng, 20):
        cls = classify(spec)
        x = (rng.uniform(-1.5, 1.5) if cls.kind == "entire"
             else rng.uniform(-0.9, 0.9) * cls.radius)
        e1, e2 = evaluate(spec, x), transfer_classical(spec, x)
        tol = e1.err_estimate + e2.err_estimate + 1e-12 * abs(e1.value)
        transfer_ok = transfer_ok and abs(e1.value - e2.value) <= tol

    ode = 0.0
    for spec in _seeded_specs(random.Random(SEED + 1), 10,
                              allow_divergent=True):
        ode = max(ode, ode_residual(spec, 15))

    irep = 0.0
    for a, k, b, s, x in [(1.0, 1.0, 2.0, 1.0, 0.5), (2.0, 2.0, 3.0, 2.0, 1.0)]:
        spec = HypergeometricSpec((a,), (k,), (b,), (s,))
        got = integral_representation_check(spec, x).value
        irep = max(irep, abs(got - evaluate(spec, x).value)
                   / abs(evaluate(spec, x).value))
    t0 = time.monotonic()
    spec2 = HypergeometricSpec((1.0, 2.0), (2.0, 2.0), (2.0, 3.0), (1.0, 2.0))
    got = integral_representation_check(spec2, 0.8).value
    elapsed = time.monotonic() - t0
    irep = max(irep, abs(got - evaluate(spec2, 0.8).value)
               / abs(evaluate(spec2, 0.8).value))

    ok = (bino <= 1e-10 and transfer_ok and ode <= 1e-12
          and irep <= 1e-7 and elapsed <= 60.0)
    _line(8, ok, "hypergeometric series",
          f"binomial collapse {bino:.2e} (tol 1e-10); transfer within "
          f"combined tolerance on 20 seeded specs: {transfer_ok}; ODE "
          f"residual deg 15 {ode:.2e} (tol 1e-12); integral rep p<=2 "
          f"{irep:.2e} (tol 1e-07, p=2 took {elapsed:.1f}s of 60s)")


def test_criterion_09_forests():
    struct_ok = True
    for a in (1, 2, 3):
        for k in (1, 2, 3):
            for n in range(5):
                family = ForestFamily(a, n, k)
                forests = list(enumerate_forests(family))
                total = count(family)
                struct_ok = struct_ok and len(forests) == total
                struct_ok = struct_ok and total == pochhammer_k(
                    PochhammerSpec(a, n, k))
                struct_ok = struct_ok and len(
                    {serialize_forest(f) for f in forests}) == len(forests)
                for f in forests:
                    validate_forest(f)
                    struct_ok = struct_ok and tail_count(f) == a + n * k
    ratio_ok = True
    for a, k, b, s in [((2,), (1,), (3,), (1,)), ((3, 2), (2, 1), (4,), (1,)),
                       ((4,), (2,), (), ()), ((1,), (3,), (2, 2), (1, 2))]:
        hspec = HypergeometricSpec(
            tuple(Fraction(v) for v in a), tuple(Fraction(v) for v in k),
            tuple(Fraction(v) for v in b), tuple(Fraction(v) for v in s))
        for n in range(6):
            ratio_ok = ratio_ok and \
                derivative_ratio(a, k, b, s, n) == coefficient(hspec, n)
    ok = struct_ok and ratio_ok
    _line(9, ok, "planar forests",
          f"enumeration = exact count = rising product on the full grid: "
          f"{struct_ok}; derivative ratio matches series coefficient "
          f"exactly through n=5: {ratio_ok}")


def test_criterion_10_pochhammer():
    exact_ok = True
    for x in (Fraction(1, 2), Fraction(3, 2), Fraction(2)):
        for k in (Fraction(1, 2), Fraction(1), Fraction(3)):
            for n in range(6):
                spec = PochhammerSpec(x, n, k)
                direct = pochhammer_k(spec)
                exact_ok = exact_ok and \
                    pochhammer_via_symmetric(spec) == direct
                exact_ok = exact_ok and \
                    pochhammer_rescale(x, n, Fraction(5, 2), k) == \
                    pochhammer_k(PochhammerSpec(x, n, Fraction(5, 2)))
    dev = 0.0
    for k in (0.5, 1.0, 2.0):
        for x in (0.7, 1.5, 3.0):
            for n in (2, 5, 9):
                got = pochhammer_dk(PochhammerSpec(x, n, k))
                fd = _fd1(lambda t: pochhammer_k(PochhammerSpec(x, n, t)),
                          k, 1e-6 * k)
                dev = max(dev, abs(got - fd) / max(abs(fd), 1e-30))
    ok = exact_ok and dev <= 1e-6
    _line(10, ok, "rising k-product identities",
          f"symmetric expansion and rescale exact in rational mode: "
          f"{exact_ok}; k-derivative vs finite differences {dev:.2e} "
          f"(tol 1e-06)")


def test_criterion_11_cli(capsys, monkeypatch):
    monkeypatch.delenv("KSPECIAL_PROFILE", raising=False)
    code = main(["verify", "all"])
    report = capsys.readouterr().out
    verify_ok = code == 0 and "FAIL" not in report

    stable_ok = True
    for argv in (["eval", "gamma-k", "--k", "0.5,2", "--x", "1,2.5",
                  "--method", "product"],
                 ["eval", "zeta-k", "--k", "1,2", "--x", "1", "--s", "2",
                  "--format", "json"],
                 ["forests", "--a", "2", "--n", "3", "--k", "1"]):
        c1 = main(argv)
        out1 = capsys.readouterr().out
        c2 = main(argv)
        out2 = capsys.readouterr().out
        stable_ok = stable_ok and c1 == c2 == 0 and out1 == out2

    ok = verify_ok and stable_ok
    _line(11, ok, "command-line interface",
          f"verify all exit 0 with no failing checks: {verify_ok}; "
          f"eval/forests output byte-stable across two runs: {stable_ok}")

"""A seeded sweep of extreme arguments through the public Gamma_k, B_k and
zeta_k entry points, zeta_k's k-derivative, and the hypergeometric series
and coefficient: each call returns a finite value or raises a typed error
from errors.py, never an inf or nan record and never an untyped
OverflowError or ZeroDivisionError."""

import math
import random
from collections import Counter

from kspecial import betak, gammak, hypergeometric, zetak
from kspecial.errors import DomainError, NonConvergent, ResultOverflow
from kspecial.profiles import DEFAULT, EvalResult

TYPED = (DomainError, NonConvergent, ResultOverflow)
EXP = hypergeometric.HypergeometricSpec((), (), (), ())


def _points(count=4000):
    """(k, x, y, s): k, |x| and y log-uniform on [1e-300, 1e300], the sign
    of x random, s uniform on [-20, 20]."""
    rng = random.Random(3)
    for _ in range(count):
        k = 10.0 ** rng.uniform(-300.0, 300.0)
        x = 10.0 ** rng.uniform(-300.0, 300.0)
        if rng.random() < 0.5:
            x = -x
        y = 10.0 ** rng.uniform(-300.0, 300.0)
        yield k, x, y, rng.uniform(-20.0, 20.0)


def _calls(k, x, y, s):
    """(name, call) for each entry point at one point; B_k and zeta_k take
    |x|, the series is 0F0, e^x, whose sum past x ~ 709.8 only the record
    refuses, and the coefficient is 6! c_6 of 1F1(|x|/k; y/k)."""
    for name in ("scaling", "limit", "product"):
        yield name, lambda name=name: gammak.ROUTES[name](k, x, DEFAULT)
    yield "stirling", lambda: gammak.gamma_k_stirling(k, x)
    yield "log", lambda: gammak.log_gamma_k(k, x)
    for name in ("ratio", "product"):
        yield f"beta-{name}", lambda name=name: betak.ROUTES[name](
            betak.BetaKSpec(k, abs(x), y), DEFAULT)
    yield "zeta", lambda: zetak.zeta_k(zetak.ZetaKSpec(k, abs(x), s))
    for m in (1, 2):
        yield f"zeta-dk{m}", lambda m=m: zetak.zeta_k_dk(zetak.ZetaKSpec(k, abs(x), s), m)
    yield "coefficient", lambda: hypergeometric.coefficient(
        hypergeometric.HypergeometricSpec((abs(x),), (k,), (y,), (k,)), 6)
    yield "exp-series", lambda: hypergeometric.ROUTES["series"](EXP, x, DEFAULT)


def test_every_call_is_finite_or_typed():
    outcomes = Counter()
    for point in _points():
        for name, call in _calls(*point):
            try:
                r = call()
            except TYPED as exc:
                outcomes[name, type(exc)] += 1
                continue
            if name == "log":
                # +-inf is a log beyond the float range; exp turns it into
                # ResultOverflow or 0.0
                assert not math.isnan(r), point
                outcomes[name, "finite" if math.isfinite(r) else "inf"] += 1
                continue
            plain = name in ("stirling", "coefficient")
            fields = (r,) if plain else (r.value, r.err_estimate)
            assert type(r) is (float if plain else EvalResult), point
            assert all(map(math.isfinite, fields)), (name, point, r)
            outcomes[name, "finite"] += 1
    # the sweep reaches the cases that returned nan or inf records or
    # raised an untyped OverflowError: x/k past -inf (nearest_pole), x/k
    # past the float range both ways (log_gamma_k), zeta_k's k^(-s) scaling,
    # and a series sum of inf
    for name in ("scaling", "limit", "product", "stirling", "log", "beta-ratio",
                 "beta-product", "zeta", "exp-series", "coefficient"):
        assert outcomes[name, "finite"] > 500, name
    for name in ("zeta-dk1", "zeta-dk2"):
        assert outcomes[name, "finite"] > 100, name
    assert outcomes["log", "inf"] > 200
    for name in ("scaling", "limit", "product"):
        assert outcomes[name, DomainError] > 1000, name
        assert outcomes[name, ResultOverflow] > 100, name
    assert outcomes["zeta", ResultOverflow] > 100
    assert outcomes["exp-series", ResultOverflow] > 1000
    # a power in the k-derivative's reduction past the float range, and a
    # coefficient's factor product
    assert outcomes["zeta-dk2", DomainError] > 3000
    assert outcomes["coefficient", ResultOverflow] > 1000

"""Seeded inputs for the point-eval and cli-cold workloads, with
stdlib-only references.

Everything here is a pure function of the seed. The kind of each point-eval
input depends only on its index, so a different seed changes the draws but
never the mix. References come from ``math.lgamma`` and closed forms, never
from kspecial's kernels.
"""

from __future__ import annotations

import math
import random

EPS = 2.0 ** -52

# Every kind appears once per cycle of this tuple.
POINT_KINDS = ("gamma", "beta", "zeta", "poch", "poch_log", "hyper")

K_RANGE = (0.5, 4.0)      # deformation steps, as in verify's grids
X_RANGE = (1e-2, 300.0)   # Gamma_k, B_k, zeta_k and Pochhammer arguments
POCH_N_MAX = 60           # float pochhammer_k
POCH_LOG_N = (1, 5000)    # straddles the 512-factor numpy cutoff
RADIUS_SHARE_MAX = 0.97   # hypergeometric |x| / radius
ENTIRE_Z = (1e-2, 5.0)    # |classical argument| of the entire families

# Closed-form hypergeometric families, as (p, q) of the k-form. Each draws
# its own steps; "random" has no reference and exercises generic specs.
HYPER_FAMILIES = ("binomial", "log", "binomial2f1", "exp", "exp1f1",
                  "expm1", "sinc", "random")

# zeta_k sub-kinds: Bernoulli-polynomial values at s = 0, -1, -2 (any x),
# even s at x/k in {1, 2, 1/2, 3/2} (zeta(2m) closed forms), and free s
# without a reference.
ZETA_KINDS = ("bernoulli", "even", "free")
_ZETA_EVEN = {2: math.pi ** 2 / 6, 4: math.pi ** 4 / 90,
              6: math.pi ** 6 / 945, 8: math.pi ** 8 / 9450}


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    return _log_uniform(rng, lo, hi) * (1.0 if rng.random() < 0.5 else -1.0)


def _step(rng: random.Random) -> float:
    return _log_uniform(rng, *K_RANGE)


def _hyper(rng: random.Random, family: str) -> tuple:
    """(a, ka, b, sb, x) in k-form for one closed-form family.

    A classical pFq(alpha; beta; z) equals the k-form with a_j = alpha_j k_j,
    b_i = beta_i s_i and x = z * prod(s) / prod(k).
    """
    if family in ("binomial", "log", "binomial2f1"):
        z = rng.uniform(0.01, RADIUS_SHARE_MAX) * rng.choice((1.0, -1.0))
    else:
        z = _signed(rng, *ENTIRE_Z)
    if family == "binomial":           # 1F0(alpha;;z) = (1-z)^-alpha
        k1 = _step(rng)
        alpha = _log_uniform(rng, 0.1, 5.0)
        return ((alpha * k1,), (k1,), (), (), z / k1)
    if family == "log":                # 2F1(1,1;2;z) = -log(1-z)/z
        k1, k2, s1 = _step(rng), _step(rng), _step(rng)
        return ((k1, k2), (k1, k2), (2.0 * s1,), (s1,), z * s1 / (k1 * k2))
    if family == "binomial2f1":        # 2F1(alpha,beta;beta;z) = (1-z)^-alpha
        k1, k2, s1 = _step(rng), _step(rng), _step(rng)
        alpha, beta = _log_uniform(rng, 0.1, 5.0), _log_uniform(rng, 0.3, 5.0)
        return ((alpha * k1, beta * k2), (k1, k2), (beta * s1,), (s1,),
                z * s1 / (k1 * k2))
    if family == "exp":                # 0F0(;;z) = e^z
        return ((), (), (), (), z)
    if family == "exp1f1":             # 1F1(alpha;alpha;z) = e^z
        k1, s1 = _step(rng), _step(rng)
        alpha = _log_uniform(rng, 0.3, 5.0)
        return ((alpha * k1,), (k1,), (alpha * s1,), (s1,), z * s1 / k1)
    if family == "expm1":              # 1F1(1;2;z) = (e^z - 1)/z
        k1, s1 = _step(rng), _step(rng)
        return ((k1,), (k1,), (2.0 * s1,), (s1,), z * s1 / k1)
    if family == "sinc":               # 0F1(;3/2;w): sinh/sin(2 sqrt|w|)/(2 sqrt|w|)
        s1 = _step(rng)
        return ((), (), (1.5 * s1,), (s1,), z * s1)
    # random spec, p <= q+1, parameters as in verify's transfer check
    while True:
        p, q = rng.randint(0, 3), rng.randint(0, 3)
        if p <= q + 1:
            break
    a, ka, b, sb = (tuple(rng.uniform(0.3, 4.0) for _ in range(m))
                    for m in (p, p, q, q))
    if p == q + 1:
        radius = math.prod(sb) / math.prod(ka)
        x = rng.uniform(0.01, RADIUS_SHARE_MAX) * radius * rng.choice((1.0, -1.0))
    else:
        x = _signed(rng, 1e-2, 1.5)
    return (a, ka, b, sb, x)


def point_inputs(seed: int, count: int) -> list[tuple]:
    """count point-eval inputs; input i has kind POINT_KINDS[i % 6]."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        kind = POINT_KINDS[i % len(POINT_KINDS)]
        sub = i // len(POINT_KINDS)
        if kind == "gamma":
            out.append((kind, _step(rng), _log_uniform(rng, *X_RANGE)))
        elif kind == "beta":
            out.append((kind, _step(rng), _log_uniform(rng, *X_RANGE),
                        _log_uniform(rng, *X_RANGE)))
        elif kind == "zeta":
            zk = ZETA_KINDS[sub % len(ZETA_KINDS)]
            k = _step(rng)
            if zk == "bernoulli":
                s = float(rng.choice((0, -1, -2)))
                x = _log_uniform(rng, *X_RANGE)
            elif zk == "even":
                s = float(rng.choice(tuple(_ZETA_EVEN)))
                x = rng.choice((1.0, 2.0, 0.5, 1.5)) * k
            else:
                s = rng.uniform(-2.9, 12.0)
                x = _log_uniform(rng, *X_RANGE)
            out.append((kind, k, x, s))
        elif kind == "poch":
            out.append((kind, _log_uniform(rng, *X_RANGE),
                        rng.randint(0, POCH_N_MAX), _step(rng)))
        elif kind == "poch_log":
            n = int(round(_log_uniform(rng, *POCH_LOG_N)))
            out.append((kind, _log_uniform(rng, *X_RANGE), n, _step(rng)))
        else:
            family = HYPER_FAMILIES[sub % len(HYPER_FAMILIES)]
            out.append((kind, family, *_hyper(rng, family)))
    return out


# -- references ---------------------------------------------------------------
#
# reference(item) -> (value, allowance) or None. allowance covers the
# reference's own rounding, and for routes that report no error estimate
# (pochhammer_k, pochhammer_k_log) the route's rounding as well.


def _ulp_floor(v: float) -> float:
    """Two units in the last place: the floor of any allowance, which also
    covers values rounded to the subnormal grid."""
    return 2.0 * math.ulp(v)


def _from_log(log_v: float, scale: float):
    """exp(log_v) with the allowance of a log carrying ~eps*scale error."""
    if log_v > 709.0:
        return None           # the value itself is not a finite double
    v = math.exp(log_v)
    return v, 8.0 * EPS * (1.0 + scale) * v + _ulp_floor(v)


def _ref_gamma(k, x):
    q = x / k
    a, b = (q - 1.0) * math.log(k), math.lgamma(q)
    return _from_log(a + b, abs(a) + abs(b))


def _ref_beta(k, x, y):
    la, lb, lc = math.lgamma(x / k), math.lgamma(y / k), math.lgamma((x + y) / k)
    return _from_log(la + lb - lc - math.log(k),
                     abs(la) + abs(lb) + abs(lc) + abs(math.log(k)))


def _ref_zeta(k, x, s):
    a = x / k
    scale_k = k ** (-s)
    if s == 0.0:
        terms = (0.5, -a)
    elif s == -1.0:
        terms = (-0.5 * a * a, 0.5 * a, -1.0 / 12.0)
    elif s == -2.0:
        terms = (-a ** 3 / 3.0, 0.5 * a * a, -a / 6.0)
    elif s in _ZETA_EVEN:
        a = round(2.0 * a) / 2.0     # undo the rounding of x = a * k
        z = _ZETA_EVEN[int(s)]
        if a >= 1.0 and a == int(a):
            terms = (z, *(-(n ** -s) for n in range(1, int(a))))
        else:
            terms = ((2.0 ** s - 1.0) * z,
                     *(-((j + 0.5) ** -s) for j in range(int(a))))
    else:
        return None
    v = math.fsum(terms) * scale_k
    scale = sum(abs(t) for t in terms) * scale_k
    # a = x/k carries one rounding; d/da zeta_H(s, a) = -s zeta_H(s+1, a)
    return v, 8.0 * EPS * (1.0 + abs(s)) * (scale + abs(v)) + _ulp_floor(v)


def _poch_logs(x, n, k):
    q = x / k
    parts = (n * math.log(k), math.lgamma(q + n), -math.lgamma(q))
    return math.fsum(parts), sum(abs(p) for p in parts)


def _ref_poch(x, n, k):
    log_v, scale = _poch_logs(x, n, k)
    # the direct product rounds once per factor
    return _from_log(log_v, scale + n)


def _ref_poch_log(x, n, k):
    log_v, scale = _poch_logs(x, n, k)
    # compared in log space: absolute error of a sum of n logs
    return log_v, 8.0 * EPS * (scale + math.sqrt(n) * (abs(log_v) + n) + 1.0)


def _ref_hyper(family, a, ka, b, sb, x):
    z = x * math.prod(ka) / math.prod(sb)
    if family in ("binomial", "binomial2f1"):
        alpha = a[0] / ka[0]
        lv = -alpha * math.log1p(-z)
        return _from_log(lv, abs(lv) + alpha)
    if family == "log":
        v = -math.log1p(-z) / z
    elif family in ("exp", "exp1f1"):
        v = math.exp(z)
    elif family == "expm1":
        v = math.expm1(z) / z
    elif family == "sinc":
        r = 2.0 * math.sqrt(abs(z))
        v = (math.sinh(r) if z > 0 else math.sin(r)) / r
    else:
        return None
    return v, 16.0 * EPS * (1.0 + abs(z)) * abs(v) + _ulp_floor(v)


def reference(item: tuple):
    kind, *args = item
    return {"gamma": _ref_gamma, "beta": _ref_beta, "zeta": _ref_zeta,
            "poch": _ref_poch, "poch_log": _ref_poch_log,
            "hyper": _ref_hyper}[kind](*args)


# -- cli-cold -------------------------------------------------------------------

CLI_OPS = ("gamma_point", "gamma_grid", "hyper", "beta_halfline",
           "forests_export", "verify_stirling", "gamma_overflow")

# The grid keeps x/k <= 120, below the Gamma_k overflow threshold, so its
# time measures a 1,000-point evaluation; the overflow defect has its own op.
GRID_X_MAX = 60.0


def _csv(values) -> str:
    return ",".join(repr(v) for v in values)


def cli_argvs(seed: int, export_path: str) -> list[tuple[str, list[str]]]:
    """The fixed cli-cold mix as (label, argv) pairs, one of each op."""
    rng = random.Random(seed)
    k1, x1 = _step(rng), _log_uniform(rng, *X_RANGE)
    grid_k = sorted(_step(rng) for _ in range(10))
    grid_x = sorted(_log_uniform(rng, X_RANGE[0], GRID_X_MAX) for _ in range(100))
    kb, xb, yb = _step(rng), _log_uniform(rng, 0.1, 20.0), _log_uniform(rng, 0.1, 20.0)
    argvs = {
        "gamma_point": ["eval", "gamma-k", "--k", repr(k1), "--x", repr(x1)],
        "gamma_grid": ["eval", "gamma-k", "--k", _csv(grid_k), "--x", _csv(grid_x)],
        "hyper": ["eval", "hyper", "--a", "2", "--ka", "2", "--x", "0.25"],
        "beta_halfline": ["eval", "beta-k", "--k", repr(kb), "--x", repr(xb),
                          "--y", repr(yb), "--method", "halfline"],
        "forests_export": ["forests", "--a", "2", "--n", "6", "--k", "1",
                           "--export", export_path],
        "verify_stirling": ["verify", "stirling"],
        "gamma_overflow": ["eval", "gamma-k", "--k", "1", "--x", "200"],
    }
    return [(label, argvs[label]) for label in CLI_OPS]

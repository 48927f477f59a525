"""A seeded sweep of hostile values through `kspecial eval`: each run of
cli.main exits 0 with finite records, or 2 or 3 with a typed message, and
no exception leaves main. The values sit at both ends of the float range
(±0, the subnormals, ±1e±300, 1.7e308), past it as exact values (±10**400,
±1/10**400), and at a few poles and rationals. A beta-k or zeta-k run that
exits overflow: must be one whose value an independent log puts past the
largest double; every point of positive values at both ends of the range
is run too."""

import contextlib
import csv
import io
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import product

from kspecial.cli import main

from oracles import log_abs_zeta_k, log_beta_k

BIG = 10 ** 400
VALUES = ("0", "-0.0", "5e-324", "1e-320", "1e-300", "-1e-300", "1e300", "-1e300",
          "1.7e308", str(BIG), f"-{BIG}", f"1/{BIG}", f"-1/{BIG}", "-1", "-0.5", "1/3")
# (command, grid flags, methods); hyper's parameter lists are drawn apart
COMMANDS = (("gamma-k", ("k", "x"), ("scaling", "integral", "limit", "product")),
            ("beta-k", ("k", "x", "y"), ("ratio", "halfline", "unit", "product")),
            ("zeta-k", ("k", "x", "s"), (None,)),
            ("pochhammer", ("x", "n", "k"), (None,)),
            ("hyper", ("x",), ("series", "transfer", "integral")))
# the positive floats of VALUES, over every beta-k ratio and zeta-k point
POSITIVE = ("5e-324", "1e-320", "1e-300", "1/3", "1e300", "1.7e308")
ZETA_S = ("-1", "-0.5", "1/3", "3")
# an independent log|value| at (k, x, y) or (k, x, s)
LOG_ABS = {"beta-k": log_beta_k, "zeta-k": log_abs_zeta_k}


def _argvs(per_method=30):
    rng = random.Random(27)
    for command, grid, methods in COMMANDS:
        for method in methods:
            for _ in range(per_method):
                argv = ["eval", command]
                if command == "hyper":
                    p, q = rng.choice(((1, 0), (1, 1), (2, 1), (1, 2)))
                    for flag, size in (("a", p), ("ka", p), ("b", q), ("sb", q)):
                        if size:
                            argv.append(f"--{flag}=" + ",".join(
                                rng.choice(VALUES + ("1", "2.5")) for _ in range(size)))
                for flag in grid:
                    value = str(rng.randint(0, 4)) if flag == "n" else rng.choice(VALUES)
                    argv.append(f"--{flag}={value}")
                if method is not None:
                    argv.append(f"--method={method}")
                yield argv
    for k, x in product(POSITIVE, repeat=2):
        for y in POSITIVE:
            yield ["eval", "beta-k", f"--k={k}", f"--x={x}", f"--y={y}", "--method=ratio"]
        for s in ZETA_S:
            yield ["eval", "zeta-k", f"--k={k}", f"--x={x}", f"--s={s}"]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_every_run_exits_by_the_contract():
    outcomes = Counter()
    for argv in _argvs():
        try:
            code, out, err = _run(argv)
        except (Exception, SystemExit) as exc:   # any escape from main is the failure
            raise AssertionError(f"{argv} raised {type(exc).__name__}: {exc}") from exc
        assert code in (0, 2, 3), (argv, code, err)
        outcomes[argv[1], code] += 1
        if code == 0:
            (header, *records) = csv.reader(io.StringIO(out))
            assert header[-3:] == ["value", "err_estimate", "method"]
            for row in records:
                assert not {"inf", "-inf", "nan"} & set(row[-3:-1]), (argv, row)
        else:
            assert out == "" and err.startswith(
                ("domain error:", "overflow:", "failed to converge:")), (argv, err)
            if err.startswith("overflow:") and argv[1] in LOG_ABS:
                point = (float(Fraction(flag.split("=")[1])) for flag in argv[2:5])
                assert LOG_ABS[argv[1]](*point) > math.log(sys.float_info.max), (argv, err)
    # every command both answers and refuses somewhere in the sweep
    for command, _, _ in COMMANDS:
        assert outcomes[command, 0] > 0 and outcomes[command, 2] > 0, command

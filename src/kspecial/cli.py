"""Command-line interface.

Subcommands:
    eval     evaluate gamma-k / beta-k / zeta-k / pochhammer / hyper on a
             grid (comma-separated lists per flag, Cartesian product) and
             emit one record per point as CSV or JSON
    verify   run a named verification suite (or "all"); one report line
             per check; exit 0 iff everything passes
    forests  count a forest family, optionally exporting the canonical
             serializations

Exit codes: 0 success, 1 verification failure, 2 domain error (a violated
precondition, a finite value the route cannot reach, or an --export path
that cannot be written) or a value beyond the float range (the message
starts with "overflow:"), 3 non-convergence. A reader of stdout that leaves
early (| head -1) changes no status. No value printed is inf or nan:
EvalResult refuses one, as the float Pochhammer product does.

Tolerances come from --rel-tol/--abs-tol when given, else from the
KSPECIAL_PROFILE environment variable (strict|default|fast), else the
default profile. Records print numbers in shortest round-trip decimal
form and are emitted in input order, so identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from collections.abc import Callable
from importlib import import_module
from itertools import product
from typing import NamedTuple

from .errors import DomainError, NonConvergent, ResultOverflow, as_float
from .profiles import DEFAULT, PROFILES, PrecisionProfile

# verify.SUITES, spelled out so the parser needs no import of verify
SUITE_NAMES = ("gamma", "beta", "zeta", "hyper", "forests", "pde", "stirling")


class OutputRecord(NamedTuple):
    function: str
    inputs: dict
    value: object
    err_estimate: float
    method: str


def _parse_number(text: str):
    """int if it looks like one, Fraction for p/q, float otherwise. A
    non-finite float or a zero denominator is refused: no route is defined
    there, and a nan argument would come back as a nan record."""
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    if "/" in text:
        from fractions import Fraction
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise argparse.ArgumentTypeError(
                f"zero denominator in {text!r}") from None
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {text!r}")
    return value


def _num_list(text: str) -> list:
    items = [t for t in text.split(",") if t.strip()]
    if not items:
        raise argparse.ArgumentTypeError("expected a comma-separated list")
    return [_parse_number(t) for t in items]


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        raise TypeError("boolean has no record form")
    if isinstance(v, int):
        return str(v)
    if not isinstance(v, float):
        from fractions import Fraction
        if isinstance(v, Fraction):
            return f"{v.numerator}/{v.denominator}"
    return repr(float(v))


def _json_value(v):
    """v itself, or a p/q string for a Fraction, which JSON cannot hold."""
    return v if isinstance(v, (str, int, float)) else _fmt(v)


def _emit(records: list[OutputRecord], fmt: str, out) -> None:
    if fmt == "json":
        import json
        payload = [{"function": r.function,
                    "inputs": {k: _json_value(v) for k, v in r.inputs.items()},
                    "value": _json_value(r.value),
                    "err_estimate": r.err_estimate,
                    "method": r.method} for r in records]
        json.dump(payload, out, indent=2)
        out.write("\n")
        return
    import csv
    writer = csv.writer(out, lineterminator="\n")
    input_names = list(records[0].inputs) if records else []
    writer.writerow(["function", *input_names, "value", "err_estimate",
                     "method"])
    for r in records:
        writer.writerow([r.function, *(_fmt(r.inputs[n]) for n in input_names),
                         _fmt(r.value), _fmt(r.err_estimate), r.method])


def _resolve_profile(args) -> PrecisionProfile:
    env = os.environ.get("KSPECIAL_PROFILE")
    if env is not None and env not in PROFILES:
        raise DomainError(f"KSPECIAL_PROFILE must be one of "
                          f"{sorted(PROFILES)}, got {env!r}")
    base = PROFILES[env] if env is not None else DEFAULT
    overrides = {}
    if args.rel_tol is not None:
        overrides["rel_tol"] = args.rel_tol
    if args.abs_tol is not None:
        overrides["abs_tol"] = args.abs_tol
    # through the constructor, which checks the overrides (_replace would not)
    return PrecisionProfile(**{**base._asdict(), **overrides}) if overrides else base


def _tagged(r, method: str | None = None) -> tuple:
    return r.value, r.err_estimate, method or r.method


def _pochhammer(m, profile, method, x, n, k) -> tuple:
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"--n entries must be integers >= 0, got {n!r}")
    v = m.pochhammer_k(m.PochhammerSpec(x, n, k))
    # an int or Fraction result is exact
    err = abs(v) * 2.3e-16 * max(n, 1) if isinstance(v, float) else 0.0
    return v, err, "exact"


class EvalCommand(NamedTuple):
    """One `eval` subcommand. Records run over the Cartesian product of the
    grid flags; each param flag is one whole comma list, shown joined in
    every record. methods are the --method choices, the first the default
    (none: a single route). route(module, profile, method, *params, *point)
    returns (value, err_estimate, method shown in the record); module is
    imported only when the command runs."""
    command: str
    grid: tuple[str, ...]
    methods: tuple[str, ...]
    module: str
    route: Callable[..., tuple]
    params: tuple[tuple[str, bool, str], ...] = ()   # (flag, required, help)


# The routed rows call m.ROUTES[method] and record the requested route, not
# the EvalResult tag (beta's halfline and unit both tag "integral"). Their
# --method choices are tuple(ROUTES), spelled out so the parser imports none.
EVAL_COMMANDS = (
    EvalCommand("gamma-k", ("k", "x"), ("scaling", "integral", "limit", "product"),
                "gammak", lambda m, profile, method, k, x: _tagged(m.ROUTES[method](
                    as_float("k", k), as_float("x", x), profile), method)),
    EvalCommand("beta-k", ("k", "x", "y"), ("ratio", "halfline", "unit", "product"),
                "betak", lambda m, profile, method, k, x, y: _tagged(
                    m.ROUTES[method](m.BetaKSpec(k, x, y), profile), method)),
    EvalCommand("zeta-k", ("k", "x", "s"), (), "zetak",
                lambda m, profile, method, k, x, s: _tagged(
                    m.zeta_k(m.ZetaKSpec(k, x, s), profile))),
    EvalCommand("pochhammer", ("x", "n", "k"), (), "pochhammer", _pochhammer),
    EvalCommand("hyper", ("x",), ("series", "transfer", "integral"), "hypergeometric",
                lambda m, profile, method, a, ka, b, sb, x: _tagged(m.ROUTES[method](
                    m.HypergeometricSpec(a, ka, b, sb),
                    as_float("x", x, zero_ok=True), profile), method),
                params=(("a", True, "upper parameters (comma list)"),
                        ("ka", True, "upper deformation steps, paired with --a"),
                        ("b", False, "lower parameters (comma list)"),
                        ("sb", False, "lower deformation steps, paired with --b"))),
)


def _cmd_eval(args, profile: PrecisionProfile) -> list[OutputRecord]:
    cmd = args.eval_command
    module = import_module(f"{__package__}.{cmd.module}")
    method = getattr(args, "method", None)
    params = [getattr(args, flag) for flag, _, _ in cmd.params]
    shown = {flag: ",".join(map(_fmt, v)) for (flag, _, _), v in zip(cmd.params, params)}
    out = []
    for point in product(*(getattr(args, flag) for flag in cmd.grid)):
        value, err, tag = cmd.route(module, profile, method, *params, *point)
        out.append(OutputRecord(cmd.command, {**shown, **dict(zip(cmd.grid, point))},
                                value, err, tag))
    return out


def _cmd_forests(args) -> int:
    from .forests import ForestFamily, count, enumerate_forests, serialize_forest
    family = ForestFamily(args.a, args.n, args.k)
    total = count(family)
    print(total)
    if total > args.cap:
        print(f"enumeration refused: count {total} exceeds cap {args.cap}",
              file=sys.stderr)
        return 2
    if args.export is not None:
        try:
            with open(args.export, "w", encoding="utf-8") as fh:
                for f in enumerate_forests(family, cap=args.cap):
                    fh.write(serialize_forest(f))
                    fh.write("\n")
        except OSError as exc:
            raise DomainError(f"cannot write --export {args.export}: "
                              f"{exc.strerror or exc}") from None
    return 0


def _print_verify(rows: list) -> None:
    for suite, r in rows:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {suite}/{r.name} max_dev={r.max_dev:.3e} "
              f"tol={r.tol:.3e}")
    print(f"{sum(r.passed for _, r in rows)}/{len(rows)} checks passed",
          file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a token of - and then a digit or a point
    (-0.5,1.5 or -1/2) as a value. argparse reads such a token as an option
    unless it is one plain negative number; an unknown option that starts
    with a letter is still a usage error."""

    def _parse_optional(self, arg_string):
        if re.match(r"-[0-9.]", arg_string):
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kspecial",
        description="Evaluate and cross-verify the k-deformed special "
                    "functions (Pochhammer symbol, Gamma_k, B_k, zeta_k, "
                    "generalized hypergeometric series, planar forests).")
    sub = parser.add_subparsers(dest="command", required=True)

    tol = _Parser(add_help=False)
    tol.add_argument("--rel-tol", type=float, default=None,
                     help="override the profile's relative tolerance")
    tol.add_argument("--abs-tol", type=float, default=None,
                     help="override the profile's absolute tolerance")

    fmt = _Parser(add_help=False)
    fmt.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="output format (default csv)")

    pe = sub.add_parser("eval", help="evaluate a function on a grid")
    fe = pe.add_subparsers(dest="function", required=True)

    for cmd in EVAL_COMMANDS:
        e = fe.add_parser(cmd.command, parents=[tol, fmt])
        for flag, required, text in cmd.params:
            e.add_argument(f"--{flag}", type=_num_list, required=required,
                           default=None if required else [], help=text)
        for flag in cmd.grid:
            e.add_argument(f"--{flag}", type=_num_list, required=True)
        if cmd.methods:
            e.add_argument("--method", default=cmd.methods[0], choices=cmd.methods)
        e.set_defaults(eval_command=cmd)

    v = sub.add_parser("verify", parents=[tol],
                       help="run a verification suite")
    v.add_argument("suite", nargs="?", default="all",
                   choices=("all", *SUITE_NAMES))

    f = sub.add_parser("forests", help="count (and export) a forest family")
    f.add_argument("--a", type=int, required=True)
    f.add_argument("--n", type=int, required=True)
    f.add_argument("--k", type=int, required=True)
    f.add_argument("--export", default=None, metavar="PATH",
                   help="write canonical serializations to PATH")
    f.add_argument("--cap", type=int, default=1_000_000,
                   help="refuse enumeration beyond this many forests")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    status = 0   # the command's, set before it writes to stdout
    try:
        if args.command == "eval":
            _emit(_cmd_eval(args, _resolve_profile(args)), args.format, sys.stdout)
        elif args.command == "verify":
            from .verify import run_suite
            rows = run_suite(args.suite, _resolve_profile(args))
            status = 0 if all(r.passed for _, r in rows) else 1
            _print_verify(rows)
        else:
            status = _cmd_forests(args)
        sys.stdout.flush()   # a reader that left raises here, not at shutdown
    except BrokenPipeError:
        # the reader of stdout left (`| head -1`): the rest of the output
        # goes to devnull, and the status stands
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except ValueError as exc:   # DomainError and InvariantViolation among them
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except ResultOverflow as exc:
        print(f"overflow: {exc}", file=sys.stderr)
        return 2
    except NonConvergent as exc:
        print(f"failed to converge: {exc}", file=sys.stderr)
        return 3
    return status


def entry() -> None:
    sys.exit(main())

"""kspecial benchmark: one command, three closed-loop workloads.

    python3 kbench/run.py --workload verify-all --seed 1 --seconds 35 --trace 0

Workloads (one client each, the next op starts when the last one ends):

  verify-all   repeated in-process run_suite("all") passes after a warm-up
  point-eval   a seeded stream of single calls through each default route
  cli-cold     one fresh ``python -m kspecial`` process per op, fixed mix

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 it carries the per-layer metrics of a
separate traced run (see kbench/tracer.py). The line before it is a report
with provenance, sample counts and the workload-specific figures.

The program is imported from ./src of the checkout this file sits in; the
benchmark refuses to run (exit 2, no result) when that source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

sys.path.insert(0, str(HERE))
import inputs  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("verify-all", "point-eval", "cli-cold")
SETUP_SPAWNS = 21
POINT_INPUTS = 24_000      # the stream cycles through this many inputs
POINT_TRACE_BLOCK = 6_000  # inputs per traced point-eval block
CHILD_TIMEOUT_S = 120
PERCENTILES = (50, 90, 99)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "KSPECIAL_PROFILE")}
    env["PYTHONPATH"] = str(SRC)
    # kspecial makes no BLAS call, but numpy's import starts one OpenBLAS
    # worker per core, and each spins for a while after it starts. On a
    # shared host the spinner competes with the main thread, which made a
    # launch's time drift by a third with the host's load.
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile; inf when nothing was measured."""
    if not values:
        return math.inf
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def launch_once() -> tuple[float, float]:
    """Launch a fresh interpreter that imports kspecial and exits. Returns
    (cpu, wall): the CPU seconds its main thread spent from start until
    ``import kspecial`` returned, as the child reads them itself, and the
    parent's wall seconds for the same span. The CPU figure leaves out the
    time the child waits for a core (other processes, or the threads numpy
    starts on import), which is what makes the wall figure drift with the
    host's load."""
    code = ("import sys, time, kspecial; cpu = time.thread_time();"
            " sys.stdout.write(repr(cpu) + ' ' + kspecial.__file__ + '\\n');"
            " sys.stdout.flush()")
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], cwd=WORK,
                          env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL) as proc:
        line = proc.stdout.readline()
        wall = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=CHILD_TIMEOUT_S)
    cpu, _, path = line.decode().strip().partition(" ")
    if rc != 0 or not path or not Path(path).is_relative_to(SRC):
        raise RuntimeError("fresh interpreter did not import kspecial from src")
    return float(cpu), wall


def err_units(value: float, err: float, ref) -> float:
    """Error against a stdlib reference (value, allowance) in units of
    err_estimate + allowance; above 1 the value misses its reference."""
    want, allowance = ref
    return abs(value - want) / (err + allowance) if value != want else 0.0


class Outcome:
    """Attempted/failed bookkeeping shared by the workloads.

    Each workload checks every distinct op of its input once, in a checking
    pass before the measured part of the run; ``attempted`` and ``failed``
    count those checks, so they depend on the seed only, never on how many
    ops fit in the run. Every later repeat of an op must reproduce the
    outcome of its check exactly, or ``consistent`` turns false."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}
        self.consistent = True       # repeats reproduced their checked outcome
        # per checked op: its worst error in units of what it may be off by
        self.err_units = array("d")

    def fail(self, reason: str, n: int = 1) -> None:
        self.failed += n
        self.reasons[reason] = self.reasons.get(reason, 0) + n

    def record_units(self, u: float) -> None:
        self.err_units.append(u)
        if u > 1.0:
            self.fail("reference-miss")

    def repeat(self, checked, seen) -> None:
        if seen != checked:
            self.consistent = False


# -- verify-all -----------------------------------------------------------------

def verify_rows():
    """One run_suite("all") pass: (rows, key), or (None, None) if it raised.
    The key is what a repeat of the pass must reproduce."""
    from kspecial import verify
    try:
        rows = verify.run_suite("all")
    except Exception:  # noqa: BLE001 - a raising suite fails the whole pass
        return None, None
    return rows, [(s, r.name, r.passed, r.max_dev) for s, r in rows]


def run_verify_all(seconds: float, tracing: bool) -> dict:
    out = Outcome()
    # the checking pass; it also fills the quadrature node cache
    rows, expected = verify_rows()
    if rows is None:
        out.attempted += 1
        out.fail("suite-raised")
    else:
        out.attempted += len(rows)
        for _, r in rows:
            if not r.passed:
                out.fail("check-failed")
        out.err_units.append(max((r.max_dev / r.tol for _, r in rows
                                  if r.tol > 0.0), default=0.0))

    def one() -> None:
        out.repeat(expected, verify_rows()[1])

    if tracing:
        return traced_blocks(lambda tr: one(), seconds, out)

    def op(i: int) -> float:
        t0 = time.perf_counter()
        one()
        return time.perf_counter() - t0
    return closed_loop(op, seconds, out)


# -- point-eval -----------------------------------------------------------------

def point_ops() -> dict:
    """Each kind's default-route call, resolved through module attributes at
    call time so the tracer's rebinding is seen."""
    from kspecial import betak, gammak, hypergeometric, pochhammer, zetak
    return {
        "gamma": lambda k, x: gammak.GammaKEvaluator(k).evaluate(x),
        "beta": lambda k, x, y: betak.beta_k(betak.BetaKSpec(k, x, y)),
        "zeta": lambda k, x, s: zetak.zeta_k(zetak.ZetaKSpec(k, x, s)),
        "poch": lambda x, n, k: pochhammer.pochhammer_k(
            pochhammer.PochhammerSpec(x, n, k)),
        "poch_log": lambda x, n, k: pochhammer.pochhammer_k_log(
            pochhammer.PochhammerSpec(x, n, k)),
        "hyper": lambda family, a, ka, b, sb, x: hypergeometric.evaluate(
            hypergeometric.HypergeometricSpec(a, ka, b, sb), x),
    }


def classify_point(out: Outcome, kind: str, result, exc, ref, typed) -> None:
    out.attempted += 1
    if exc is not None:
        if not isinstance(exc, typed):
            out.fail(f"untyped-{type(exc).__name__}")
        return
    if kind == "poch":
        value, err = float(result), 0.0
    elif kind == "poch_log":
        value, err = result[0], 0.0
    else:
        value, err = result.value, result.err_estimate
    if not (math.isfinite(value) and math.isfinite(err)):
        out.fail("non-finite")
    elif ref is not None:
        out.record_units(err_units(value, err, ref))


def run_point_eval(seed: int, seconds: float, tracing: bool) -> dict:
    typed = tracer.typed_errors()
    count = POINT_TRACE_BLOCK if tracing else POINT_INPUTS
    items = inputs.point_inputs(seed, count)
    ops = point_ops()
    out = Outcome()

    def call(item) -> tuple[float, object, str]:
        """Seconds taken, result or exception, and what a repeat must show."""
        fn = ops[item[0]]
        t0 = time.perf_counter()
        try:
            result = fn(*item[1:])
        except Exception as e:  # noqa: BLE001 - classified by the caller
            result = e
        dt = time.perf_counter() - t0
        shown = type(result).__name__ if isinstance(result, Exception) else repr(result)
        return dt, result, shown

    # the checking pass: every input once, against its reference
    checked = []
    for item in items:
        _, result, shown = call(item)
        exc = result if isinstance(result, Exception) else None
        classify_point(out, item[0], None if exc else result, exc,
                       inputs.reference(item), typed)
        checked.append(shown)

    def one(i: int) -> float:
        dt, _, shown = call(items[i])
        out.repeat(checked[i], shown)
        return dt

    if tracing:
        def block(tr=None):
            for i in range(count):
                one(i)
        return traced_blocks(block, seconds, out)

    return closed_loop(lambda i: one(i % count), seconds, out)


# -- cli-cold -------------------------------------------------------------------

def parse_values(stdout: str) -> list[tuple[dict, float, float]]:
    """(inputs, value, err) per CSV record of an eval command."""
    lines = stdout.strip().splitlines()
    if not lines:
        return []
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = dict(zip(header, line.split(",")))
        rows.append((cells, float(cells["value"]), float(cells["err_estimate"])))
    return rows


def check_cli_output(out: Outcome, label: str, rc: int, stdout: str,
                     stderr: str) -> None:
    out.attempted += 1
    if rc not in (0, 2, 3):
        out.fail(f"exit-{rc}")
        return
    if "Traceback" in stderr:
        out.fail("traceback")
        return
    if rc != 0 or label == "forests_export":
        return
    worst = 0.0
    if label == "verify_stirling":
        for line in stdout.splitlines():
            fields = dict(f.split("=") for f in line.split()[2:])
            dev, tol = float(fields["max_dev"]), float(fields["tol"])
            if not line.startswith("PASS"):
                out.fail("check-failed")
                return
            if tol > 0.0:
                worst = max(worst, dev / tol)
        out.err_units.append(worst)
        return
    for cells, value, err in parse_values(stdout):
        if not (math.isfinite(value) and math.isfinite(err)):
            out.fail("non-finite-exit-0")
            return
        if label.startswith("gamma"):
            ref = inputs.reference(("gamma", float(cells["k"]), float(cells["x"])))
        elif label == "beta_halfline":
            ref = inputs.reference(("beta", float(cells["k"]), float(cells["x"]),
                                    float(cells["y"])))
        else:   # 1F0(a/ka;;ka x) = (1 - ka x)^(-a/ka)
            a, ka, x = float(cells["a"]), float(cells["ka"]), float(cells["x"])
            ref = inputs.reference(("hyper", "binomial", (a,), (ka,), (), (), x))
        worst = max(worst, err_units(value, err, ref))
    out.record_units(worst)


def run_cli_cold(seed: int, seconds: float, tracing: bool) -> dict:
    export = WORK / "forests.txt"
    argvs = inputs.cli_argvs(seed, str(export))
    out = Outcome()

    def in_process(label: str, argv: list[str], tr) -> tuple[float, tuple]:
        from kspecial import cli
        buf_out, buf_err = io.StringIO(), io.StringIO()
        rc = 1
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf_out), \
                contextlib.redirect_stderr(buf_err):
            try:
                call = lambda: cli.main(list(argv))  # noqa: E731
                rc = tr.span(f"cli.{label}", "cli", call) if tr else call()
            except Exception:  # noqa: BLE001 - exits 1 with a traceback
                buf_err.write("Traceback (in-process)\n")
        return time.perf_counter() - t0, (rc, buf_out.getvalue(), buf_err.getvalue())

    def fresh_process(label: str, argv: list[str], tr) -> tuple[float, tuple]:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "kspecial", *argv],
                              cwd=WORK, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        return time.perf_counter() - t0, (proc.returncode, proc.stdout, proc.stderr)

    invoke = in_process if tracing else fresh_process

    def run_op(label: str, argv: list[str], tr=None) -> tuple[float, tuple]:
        """Seconds taken and what a repeat must show: exit code, stdout,
        stderr and the export file's bytes."""
        export.unlink(missing_ok=True)
        dt, shown = invoke(label, argv, tr)
        exported = export.read_bytes() if export.exists() else b""
        return dt, (*shown, exported)

    # the checking pass: each op of the mix once
    checked = {}
    for label, argv in argvs:
        _, shown = run_op(label, argv)
        check_cli_output(out, label, *shown[:3])
        checked[label] = shown

    if tracing:
        def block(tr=None):
            for label, argv in argvs:
                out.repeat(checked[label], run_op(label, argv, tr)[1])
        res = traced_blocks(block, seconds, out)
    else:
        def op(i: int) -> float:
            label, argv = argvs[i % len(argvs)]
            dt, shown = run_op(label, argv)
            out.repeat(checked[label], shown)
            return dt
        res = closed_loop(op, seconds, out)
    export.unlink(missing_ok=True)
    return res


# -- loops and summaries ----------------------------------------------------------

def closed_loop(op, seconds: float, out: Outcome) -> dict:
    """Call op(i), which returns the seconds op i took, until the time is up.
    Setup launches are spread evenly over the run, between ops, so setup_s
    samples the same machine state as the ops. One unmeasured launch comes
    first; it writes the bytecode."""
    launch_once()
    lat, setup = array("d"), []
    start = time.perf_counter()
    while (now := time.perf_counter()) < start + seconds:
        if len(setup) < SETUP_SPAWNS and now >= start + len(setup) * seconds / SETUP_SPAWNS:
            setup.append(launch_once())
        else:
            lat.append(op(len(lat)))
    while len(setup) < SETUP_SPAWNS:
        setup.append(launch_once())
    return {"out": out, "lat": lat,
            "setup_cpu": [cpu for cpu, _ in setup],
            "setup_wall": [wall for _, wall in setup],
            "pct": {p: percentile(lat, p) for p in PERCENTILES}}


def traced_blocks(block, seconds: float, out: Outcome) -> dict:
    """Alternate untraced and traced runs of one fixed block of work until
    the time is up. block(tracer) gets the active tracer, or None. Counts
    come from the first traced block and must repeat exactly in every later
    one; times are medians over blocks."""
    plain, traced, tracers = [], [], []
    t_end = time.perf_counter() + seconds
    while not tracers or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        block(None)
        plain.append(time.perf_counter() - t0)
        with tracer.Tracer() as tr:
            t0 = time.perf_counter()
            block(tr)
            traced.append(time.perf_counter() - t0)
        tracers.append(tr)
    repeat = all(t.counts() == tracers[0].counts() for t in tracers)
    out.consistent = out.consistent and repeat
    return {"out": out, "tracers": tracers, "counts_repeat": repeat,
            "overhead": statistics.median(traced) / statistics.median(plain) - 1.0,
            "blocks": len(tracers)}


def layer_metrics(res: dict) -> dict:
    tracers = res["tracers"]
    first = tracers[0]

    def med(get) -> float:
        return statistics.median(get(t) for t in tracers)

    m = {}
    for module, funcs in tracer.MAPPING.items():
        for fname, work in funcs.items():
            name = f"{module}.{fname}"
            st = first.stats[name]
            m[f"{name}.calls"] = (st.calls, "count")
            m[f"{name}.self_s"] = (med(lambda t: t.stats[name].self_s), "s")
            if work is not None:
                m[f"{name}.work"] = (st.work, "count")
    for module in tracer.MODULES:
        m[f"{module}.raised_typed"] = (first.raised[module]["typed"], "count")
        m[f"{module}.raised_other"] = (first.raised[module]["other"], "count")
    for suite in tracer.SUITES:
        name = f"verify.{suite}"
        rows = first.suite_rows.get(suite, [])
        m[f"{name}.s"] = (med(lambda t: t.stats[name].total_s
                              if name in t.stats else 0.0), "s")
        m[f"{name}.worst_headroom"] = (max((r.max_dev / r.tol for r in rows
                                            if r.tol > 0.0), default=0.0), "ratio")
        m[f"{name}.checks"] = (len(rows), "count")
    labels = [f"cli.{label}" for label in inputs.CLI_OPS]
    m["cli.main.s"] = (med(lambda t: sum(t.stats[n].total_s for n in labels
                                         if n in t.stats)), "s")
    for name in labels:
        m[f"{name}.s"] = (med(lambda t: t.stats[name].total_s
                              if name in t.stats else 0.0), "s")
    return m


def machine() -> dict:
    import numpy
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "system": f"{platform.system()} {platform.release()}",
            "python": platform.python_version(),
            "numpy": numpy.__version__}


def workload_figures(name: str, res: dict, out: Outcome) -> dict:
    """Workload-specific names for the same measurements."""
    pct, lat = res["pct"], res["lat"]
    worst = max(out.err_units, default=0.0)
    if name == "verify-all":
        return {"verify_all_s_p50": pct[50], "worst_headroom": worst}
    if name == "point-eval":
        return {"point_eval_per_s": len(lat) / math.fsum(lat),
                "point_eval_us_p50": pct[50] * 1e6,
                "point_eval_us_p99": pct[99] * 1e6,
                "point_eval_err_units_max": worst}
    return {"cli_s_p50": pct[50], "cli_s_p90": pct[90]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kspecial" / "__init__.py").is_file():
        print(f"kbench: no kspecial source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import kspecial
    if not Path(kspecial.__file__).resolve().is_relative_to(SRC):
        print("kbench: kspecial was not imported from src", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    tracing = bool(args.trace)
    if args.workload == "verify-all":
        res = run_verify_all(args.seconds, tracing)
    elif args.workload == "point-eval":
        res = run_point_eval(args.seed, args.seconds, tracing)
    else:
        res = run_cli_cold(args.seed, args.seconds, tracing)
    out = res["out"]

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(),
        "ops_failed_frac": out.failed / max(out.attempted, 1),
        "failures": out.reasons, "consistent": out.consistent,
    }
    if tracing:
        metrics = layer_metrics(res)
        report.update(blocks=res["blocks"], counts_repeat=res["counts_repeat"],
                      trace_overhead=res["overhead"])
    else:
        lat = res["lat"]
        metrics = {
            "setup_s": (statistics.median(res["setup_cpu"]), "s"),
            "op_s_p50": (res["pct"][50], "s"),
            "ops_per_s": (len(lat) / math.fsum(lat), "1/s"),
            "err_units_p90": (percentile(out.err_units, 90), "ratio"),
        }
        report.update(ops=len(lat), setup_launches=len(res["setup_cpu"]),
                      setup_wall_s=statistics.median(res["setup_wall"]),
                      op_s={f"p{p}": v for p, v in res["pct"].items()},
                      **workload_figures(args.workload, res, out))
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": out.consistent and bool(out.err_units),
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

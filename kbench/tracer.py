"""Outside-in tracing of kspecial's public functions.

The tracer rebinds every listed function in every kspecial module that
holds the same function object (``quad_halfline`` is imported by name into
gammak, betak, hypergeometric and verify, so patching its home module alone
would record nothing), and restores the originals on exit. Each call opens a
span on a stack; a span's self time is its duration minus the time covered
by the spans it encloses, so ``quad_halfline`` nested inside
``quad_halfline`` (the p=2 integral-representation check) is not counted
twice.

Self time of a quadrature routine includes the integrand closures defined in
gammak, betak, hypergeometric and verify: they run inside the quadrature
span and are not public functions, so they get no span of their own.
"""

from __future__ import annotations

import importlib
import pkgutil
import time

# module -> {function: how work is counted}. "terms" reads
# EvalResult.terms_or_nodes_used, "n" the factor count of a PochhammerSpec,
# "yielded" the items a generator produced; None records no work.
MAPPING = {
    "quadrature": {"quad_halfline": "terms", "quad_unit": "terms"},
    "series": {"sum_series": "terms"},
    "loggamma": {"log_gamma_classic": None},
    "hurwitz": {"hurwitz_zeta": None},
    "pochhammer": {"pochhammer_k": "n", "pochhammer_k_log": "n"},
    "gammak": {"gamma_k_scaling": "terms", "gamma_k_integral": "terms",
               "gamma_k_limit": "terms", "gamma_k_product": "terms",
               "psi_point": None},
    "betak": {"beta_k_ratio": "terms", "beta_k_integral_halfline": "terms",
              "beta_k_integral_unit": "terms", "beta_k_product": "terms"},
    "zetak": {"zeta_k": None},
    "hypergeometric": {"evaluate": "terms", "transfer_classical": "terms",
                       "integral_representation_check": "terms"},
    "forests": {"enumerate_forests": "yielded"},
}

# Modules that get raised_typed / raised_other counters. verify and cli have
# no per-function spans: verify is timed per suite, cli per argv.
MODULES = (*MAPPING, "verify", "cli")

SUITES = ("gamma", "beta", "zeta", "hyper", "forests", "pde", "stirling")


def typed_errors() -> tuple[type, ...]:
    """The exception classes defined in kspecial.errors."""
    errors = importlib.import_module("kspecial.errors")
    return tuple(v for v in vars(errors).values()
                 if isinstance(v, type) and issubclass(v, BaseException)
                 and v.__module__ == errors.__name__)


class Stats:
    __slots__ = ("calls", "self_s", "total_s", "work")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.work = 0


class Tracer:
    """Context manager: patches kspecial on enter, restores it on exit."""

    def __init__(self) -> None:
        self.stats: dict[str, Stats] = {}
        self.raised = {m: {"typed": 0, "other": 0} for m in MODULES}
        self._stack: list[list[float]] = []  # [start, child time]
        self._patches: list[tuple[object, str, object]] = []
        self._typed: tuple[type, ...] = ()
        self.suite_rows: dict[str, list] = {}

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self) -> None:
        self._stack.append([time.perf_counter(), 0.0])

    def _exit(self, name: str) -> None:
        end = time.perf_counter()
        start, child = self._stack.pop()
        dur = end - start
        st = self.stats[name]
        st.self_s += dur - child
        st.total_s += dur
        if self._stack:
            self._stack[-1][1] += dur

    def record_raise(self, module: str, exc: BaseException) -> None:
        """Count exc once per module it leaves, however deep it nests."""
        seen = getattr(exc, "_kbench_modules", None)
        if seen is None:
            seen = set()
            try:
                exc._kbench_modules = seen
            except AttributeError:
                pass
        if module in seen:
            return
        seen.add(module)
        kind = "typed" if isinstance(exc, self._typed) else "other"
        self.raised[module][kind] += 1

    def span(self, name: str, module: str, fn):
        """Run fn() inside a span named name (used for suites and argvs)."""
        st = self.stats.setdefault(name, Stats())
        st.calls += 1
        self._enter()
        try:
            return fn()
        except Exception as exc:
            self.record_raise(module, exc)
            raise
        finally:
            self._exit(name)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, module: str, fname: str, orig, work: str | None):
        name = f"{module}.{fname}"
        st = self.stats.setdefault(name, Stats())
        tracer = self

        if work == "yielded":
            def gen_wrapper(*args, **kwargs):
                st.calls += 1
                gen = orig(*args, **kwargs)

                def spanned():
                    # time only what runs inside the generator, not the
                    # consumer's work between items
                    while True:
                        tracer._enter()
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        except Exception as exc:
                            tracer.record_raise(module, exc)
                            raise
                        finally:
                            tracer._exit(name)
                        st.work += 1
                        yield item
                return spanned()
            return gen_wrapper

        def wrapper(*args, **kwargs):
            st.calls += 1
            tracer._enter()
            try:
                out = orig(*args, **kwargs)
            except Exception as exc:
                tracer.record_raise(module, exc)
                raise
            finally:
                tracer._exit(name)
            if work == "terms":
                st.work += out.terms_or_nodes_used
            elif work == "n":
                st.work += args[0].n
            return out
        return wrapper

    def _suite_wrapper(self, suite: str, orig):
        def wrapper(*args, **kwargs):
            rows = self.span(f"verify.{suite}", "verify",
                             lambda: orig(*args, **kwargs))
            self.suite_rows[suite] = rows
            return rows
        return wrapper

    # -- patching -----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        import kspecial
        self._typed = typed_errors()
        # importing kspecial.__main__ runs the CLI and exits, so skip it
        modules = [kspecial] + [
            importlib.import_module(f"kspecial.{info.name}")
            for info in pkgutil.iter_modules(kspecial.__path__)
            if info.name != "__main__"]
        wrappers = {}
        for mod_name, funcs in MAPPING.items():
            home = importlib.import_module(f"kspecial.{mod_name}")
            for fname, work in funcs.items():
                orig = getattr(home, fname)
                wrappers[id(orig)] = self._wrap(mod_name, fname, orig, work)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        verify = importlib.import_module("kspecial.verify")
        for suite in SUITES:
            orig = verify.SUITES[suite]
            self._patches.append((verify.SUITES, suite, orig))
            verify.SUITES[suite] = self._suite_wrapper(suite, orig)
        return self

    def __exit__(self, *exc_info) -> None:
        for target, attr, orig in reversed(self._patches):
            if isinstance(target, dict):
                target[attr] = orig
            else:
                setattr(target, attr, orig)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def counts(self) -> dict:
        """Everything that must repeat exactly between identical blocks."""
        out = {name: (st.calls, st.work) for name, st in self.stats.items()}
        for mod, r in self.raised.items():
            out[f"{mod}.raised"] = (r["typed"], r["other"])
        return out

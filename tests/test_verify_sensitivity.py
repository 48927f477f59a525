"""Mutation ledger: how small a bias in one route the verify suites catch.

Each case wraps one route so that it returns value * (1 + eps) with its own
err_estimate, and asserts that the suite the route feeds fails at least one
check. eps is the smallest power of ten the suites catch today; a change
may lower an eps (verify got more sensitive), never raise it. The same wrap
at eps = 0 passes, so the failure is the bias's and not the wrap's.
"""

import functools

import pytest

from kspecial import betak, gammak, hypergeometric, zetak
from kspecial.verify import run_suite

# (suite, module or route table, route name, eps)
LEDGER = [
    ("gamma", gammak.ROUTES, "scaling", 1e-11),
    ("gamma", gammak.ROUTES, "integral", 1e-11),
    ("gamma", gammak.ROUTES, "limit", 1e-7),
    ("gamma", gammak.ROUTES, "product", 1e-11),
    ("beta", betak.ROUTES, "ratio", 1e-11),
    ("beta", betak.ROUTES, "halfline", 1e-11),
    ("beta", betak.ROUTES, "unit", 1e-11),
    ("beta", betak.ROUTES, "product", 1e-11),
    ("hyper", hypergeometric, "evaluate", 1e-10),
    ("hyper", hypergeometric, "transfer_classical", 1e-12),
    ("hyper", hypergeometric, "integral_representation_check", 1e-8),
    ("zeta", zetak, "zeta_k", 1e-10),
]


def _biased(route, eps):
    @functools.wraps(route)
    def wrapped(*args, **kwargs):
        r = route(*args, **kwargs)
        return r._replace(value=r.value * (1.0 + eps))
    return wrapped


def _failed_checks(monkeypatch, suite, holder, name, eps):
    """The names of the checks suite fails with route name of holder biased
    by eps."""
    with monkeypatch.context() as m:
        if isinstance(holder, dict):
            m.setitem(holder, name, _biased(holder[name], eps))
        else:
            m.setattr(holder, name, _biased(getattr(holder, name), eps))
        return [check.name for _, check in run_suite(suite) if not check.passed]


@pytest.mark.parametrize("suite,holder,name,eps", LEDGER,
                         ids=[f"{suite}-{name}" for suite, _, name, _ in LEDGER])
def test_suite_catches_a_biased_route(monkeypatch, suite, holder, name, eps):
    assert _failed_checks(monkeypatch, suite, holder, name, 0.0) == []
    assert _failed_checks(monkeypatch, suite, holder, name, eps) != []

"""The record contract shared by every record type in the package: fields
cannot be assigned, the repr reads Name(field=value, ...) (kbench's
point-eval compares repr(result) between repeats), a record equals the
plain tuple of its field values, and a record that validates refuses a bad
field when it is built."""

import math

import numpy as np
import pytest

from kspecial.betak import BetaKSpec
from kspecial.cli import EVAL_COMMANDS, EvalCommand, OutputRecord
from kspecial.errors import DomainError, InvariantViolation, ResultOverflow
from kspecial.forests import ForestFamily, PlanarForest
from kspecial.gammak import GammaKEvaluator, PsiPoint, psi_point
from kspecial.hypergeometric import ConvergenceClass, HypergeometricSpec
from kspecial.pochhammer import PochhammerSpec
from kspecial.profiles import EvalResult, PrecisionProfile
from kspecial.verify import CheckResult
from kspecial.zetak import ZetaKSpec

# (record type, valid field values, one bad field and what it raises; None
# for the records that take any values)
RECORDS = [
    (PrecisionProfile, (1e-10, 1e-14, 100, 5), ({"rel_tol": -1.0}, ValueError)),
    (EvalResult, (1.5, 1e-16, "scaling", 3), ({"method": "guess"}, ValueError)),
    (GammaKEvaluator, (2.0,), None),
    (PsiPoint, tuple(psi_point(1.0, 2.0)), ({"psi_xx": -1.0}, InvariantViolation)),
    (PochhammerSpec, (0.5, 3, 2.0), ({"n": -1}, DomainError)),
    (BetaKSpec, (1.0, 0.5, 2.5), ({"y": 0.0}, DomainError)),
    (ZetaKSpec, (1.0, 2.0, 3.0), ({"x": -1.0}, DomainError)),
    (HypergeometricSpec, ((1.0,), (2.0,), (3.0,), (1.0,)), ({"s": (0.0,)}, DomainError)),
    (ConvergenceClass, ("radius", 2.0), ({"kind": "finite"}, ValueError)),
    (ForestFamily, (2, 3, 1), ({"k": 0}, InvariantViolation)),
    (PlanarForest, (1, 2, ((("r", 1), 0),)), None),
    (CheckResult, ("gamma/x", 0.0, 1e-9, True), None),
    (OutputRecord, ("gamma-k", {"k": 1.0, "x": 2.0}, 1.0, 0.0, "scaling"), None),
    (EvalCommand, tuple(EVAL_COMMANDS[0]), None),
]


@pytest.mark.parametrize("cls,values,bad", RECORDS,
                         ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_record_contract(cls, values, bad):
    r = cls(*values)
    fields = cls._fields
    assert r == values and tuple(r) == values
    assert r == cls(**dict(zip(fields, values)))
    assert repr(r) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(fields, values)) + ")"
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(r, name, getattr(r, name))
    with pytest.raises(AttributeError):
        r.extra = 1
    if bad is not None:
        override, exc = bad
        with pytest.raises(exc):
            cls(**{**dict(zip(fields, values)), **override})


VALIDATED = [(cls, values) for cls, values, bad in RECORDS if bad is not None]


@pytest.mark.parametrize("cls,values", VALIDATED,
                         ids=[cls.__name__ for cls, _ in VALIDATED])
def test_validated_record_is_its_class(cls, values):
    # __new__ builds the tuple itself; the result is the same as _make's
    r = cls(*values)
    assert type(r) is cls and type(cls._make(values)) is cls
    assert r == cls._make(values)


@pytest.mark.parametrize("override,message", [
    ({"err_estimate": -1e-16}, "err_estimate must be >= 0"),
    ({"terms_or_nodes_used": -1}, "terms_or_nodes_used must be >= 0")])
def test_eval_result_refuses_negative_counts(override, message):
    # the contract above overrides only method
    with pytest.raises(ValueError, match=message):
        EvalResult(**{"value": 1.5, "err_estimate": 1e-16, "method": "scaling",
                      "terms_or_nodes_used": 3, **override})


@pytest.mark.parametrize("field", ["value", "err_estimate"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_eval_result_refuses_a_non_finite_field(field, bad):
    # the one home of the finiteness rule: no route can return inf or nan
    fields = {"value": 1.5, "err_estimate": 1e-16, "method": "integral",
              "terms_or_nodes_used": 7, field: bad}
    with pytest.raises(ResultOverflow, match=(
            f"^integral result overflows a float after 7 terms or nodes: value "
            f"{fields['value']}, err_estimate {fields['err_estimate']}$")):
        EvalResult(**fields)
    # _make and _replace skip the checks, as for every validated record
    made = EvalResult._make(fields.values())
    assert getattr(made, field) is bad
    assert getattr(EvalResult(1.5, 1e-16, "integral", 7)._replace(**{field: bad}),
                   field) is bad


def test_eval_result_names_an_unknown_tag_before_reading_the_fields():
    # a negative finite estimate stays a ValueError (test above)
    with pytest.raises(ValueError, match="unknown method tag"):
        EvalResult(math.nan, 0.0, "guess")


def test_hypergeometric_spec_stores_tuples():
    # its __new__ converts each parameter sequence before the checks
    spec = HypergeometricSpec([1.0, 2.0], [1.0, 1.0], [3.0], [1.0])
    assert spec == ((1.0, 2.0), (1.0, 1.0), (3.0,), (1.0,))
    hash(spec)


def test_zeta_spec_stores_floats():
    # its __new__ converts each field through as_float, as BetaKSpec's does
    spec = ZetaKSpec(2, np.float32(1.5), 3)
    assert [type(v) for v in spec] == [float, float, float]
    assert spec == (2.0, 1.5, 3.0)

"""Forest families: exact counts vs enumeration, structural invariants,
derivative-coefficient bridge, canonical serialization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kspecial.errors import CapExceeded, InvariantViolation
from kspecial.forests import (ForestFamily, PlanarForest, count,
                              derivative_ratio, enumerate_forests,
                              parse_forest, serialize_forest, tail_count,
                              validate_forest)
from kspecial.hypergeometric import HypergeometricSpec, coefficient
from kspecial.pochhammer import PochhammerSpec, pochhammer_k

import oracles


class TestCount:
    def test_examples(self):
        assert count(ForestFamily(3, 1, 4)) == 3
        assert count(ForestFamily(2, 3, 1)) == 24
        assert count(ForestFamily(3, 9, 2)) == 654729075
        assert count(ForestFamily(5, 0, 2)) == 1

    def test_matches_pochhammer_symbol(self):
        for a in (1, 2, 3):
            for k in (1, 2, 3):
                for n in range(5):
                    assert count(ForestFamily(a, n, k)) == pochhammer_k(
                        PochhammerSpec(a, n, k))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(a=st.integers(1, 6), n=st.integers(0, 8), k=st.integers(1, 5))
    def test_attachment_recurrence(self, a, n, k):
        assert count(ForestFamily(a, n + 1, k)) == (
            count(ForestFamily(a, n, k)) * (a + n * k))

    def test_family_validation(self):
        with pytest.raises(InvariantViolation):
            ForestFamily(0, 1, 1)
        with pytest.raises(InvariantViolation):
            ForestFamily(1, -1, 1)
        with pytest.raises(InvariantViolation):
            ForestFamily(1, 1, 0)


class TestEnumeration:
    def test_full_grid(self):
        # every family member generated exactly once and structurally clean
        for a in (1, 2, 3):
            for k in (1, 2, 3):
                for n in range(5):
                    family = ForestFamily(a, n, k)
                    forests = list(enumerate_forests(family))
                    assert len(forests) == count(family)
                    seen = {serialize_forest(f) for f in forests}
                    assert len(seen) == len(forests)
                    for f in forests:
                        validate_forest(f)
                        assert tail_count(f) == a + n * k

    def test_named_examples(self):
        assert len(list(enumerate_forests(ForestFamily(3, 0, 2)))) == 1
        assert len(list(enumerate_forests(ForestFamily(3, 1, 4)))) == 3
        assert len(list(enumerate_forests(ForestFamily(2, 3, 1)))) == 24

    def test_cap_carries_exact_count(self):
        with pytest.raises(CapExceeded) as exc:
            list(enumerate_forests(ForestFamily(3, 9, 2), cap=1000))
        assert exc.value.count == 654729075

    def test_deterministic_order(self):
        family = ForestFamily(2, 3, 2)
        first = [serialize_forest(f) for f in enumerate_forests(family)]
        second = [serialize_forest(f) for f in enumerate_forests(family)]
        assert first == second

    def test_matches_the_rescanning_oracle(self):
        # the carried free slots give the plain rescan's sequence exactly
        checked = 0
        for a in (1, 2, 3):
            for k in (1, 2, 3):
                for n in range(7):
                    family = ForestFamily(a, n, k)
                    if count(family) > 50_000:
                        continue
                    assert list(enumerate_forests(family)) == [
                        PlanarForest(a, k, nodes)
                        for nodes in oracles.enumerate_forests_rescan(a, n, k)]
                    checked += 1
        assert checked == 59

    def test_cap_is_raised_on_the_first_next(self):
        # a generator function: the call itself runs no code
        forests = enumerate_forests(ForestFamily(3, 9, 2), cap=1000)
        with pytest.raises(CapExceeded):
            next(forests)

    def test_first_forest_is_leftmost_chain(self):
        # scan order means the first (a=2, n=2, k=1) forest attaches v_1 to
        # root 1 and v_2 to root 2
        f = next(enumerate_forests(ForestFamily(2, 2, 1)))
        assert f.nodes == ((("r", 1), 0), (("r", 2), 0))


class TestInvariants:
    def test_violations(self):
        bad = [
            PlanarForest(2, 1, ((("r", 3), 0),)),          # nonexistent root
            PlanarForest(2, 1, ((("r", 1), 1),)),          # root slot != 0
            PlanarForest(2, 1, ((("v", 1), 0),)),          # v_1 attaching to itself
            PlanarForest(2, 1, ((("r", 1), 0), (("v", 2), 0))),  # parent after child
            PlanarForest(2, 1, ((("r", 1), 0), (("v", 1), 5))),  # slot out of range
            PlanarForest(2, 1, ((("r", 1), 0), (("r", 1), 0))),  # double occupancy
            PlanarForest(0, 1, ()),                         # no roots
            PlanarForest(2, 0, ((("r", 1), 0),)),           # arity 0
            PlanarForest(2, 1.0, ((("r", 1), 0),)),         # arity not an int
            PlanarForest(2, 1, ((("w", 1), 0),)),           # unknown parent kind
        ]
        for f in bad:
            with pytest.raises(InvariantViolation):
                tail_count(f)

    @pytest.mark.parametrize("nodes,message", [
        # a slot taken twice (v_2) before a slot out of range (v_3)
        (((("r", 1), 0), (("r", 1), 0), (("v", 1), 5)),
         "slot (('r', 1), 0) occupied twice"),
        # and the other way round
        (((("r", 1), 0), (("v", 1), 5), (("r", 1), 0)),
         "internal vertices carry slots 0..1, v_2 uses 5"),
        # two faults in one attachment: the parent index is named first
        (((("r", 3), 1),), "v_1 attaches to nonexistent root 3"),
        (((("v", 2), 9),), "v_1 must attach to an earlier internal vertex, got v_2"),
        # a float or bool index or slot, which compares equal to an int
        (((("r", 1.0), 0), (("v", True), 0)), "v_1 needs int index and slot, got 1.0, 0"),
        (((("r", 1), 0), (("v", True), 0)), "v_2 needs int index and slot, got True, 0"),
        (((("r", 1), 0), (("v", 1), 1.0)), "v_2 needs int index and slot, got 1, 1.0"),
        # in vertex order among range faults and repeats; at the repeating
        # vertex, before the repeat
        (((("r", 3), 0), (("r", 1.0), 0)), "v_1 attaches to nonexistent root 3"),
        (((("r", 1), False), (("r", 3), 0)), "v_1 needs int index and slot, got 1, False"),
        (((("r", 1), 0), (("r", 1), 0), (("v", 1), 0.0)), "slot (('r', 1), 0) occupied twice"),
        (((("r", 1), 0), (("r", True), 0)), "v_2 needs int index and slot, got True, 0"),
    ])
    def test_first_fault_is_reported(self, nodes, message):
        with pytest.raises(InvariantViolation) as exc:
            validate_forest(PlanarForest(2, 1, nodes))
        assert str(exc.value) == message

    def test_non_int_forest_is_not_serialized(self):
        # its text would read "parent=r1.0", which parse_forest refuses
        with pytest.raises(InvariantViolation, match="needs int index"):
            serialize_forest(PlanarForest(1, 1, ((("r", 1.0), 0), (("v", True), 0))))

    def test_tail_count_values(self):
        assert tail_count(PlanarForest(3, 2, ())) == 3
        f = PlanarForest(2, 1, ((("r", 1), 0), (("v", 1), 1), (("v", 1), 0)))
        assert tail_count(f) == 2 + 3 * 1


class TestDerivativeRatio:
    def test_examples(self):
        assert derivative_ratio((), (), (), (), 0) == 1
        assert derivative_ratio((3,), (2,), (), (), 2) == 15
        assert derivative_ratio((2,), (1,), (3,), (1,), 2) == Fraction(6, 12)

    @pytest.mark.parametrize("args,message", [
        (((2, 3), (1,), (), (), 1), "parameter lists must pair up"),
        (((2,), (1,), (3,), (), 1), "parameter lists must pair up"),
        (((2,), (1,), (3,), (1,), -1), "derivative order must be >= 0, got -1")])
    def test_refusals(self, args, message):
        with pytest.raises(InvariantViolation, match=message):
            derivative_ratio(*args)

    def test_matches_hypergeometric_coefficient_exactly(self):
        specs = [
            ((2,), (1,), (3,), (1,)),
            ((3, 2), (2, 1), (4,), (1,)),
            ((1,), (3,), (2, 2), (1, 2)),
            ((4,), (2,), (), ()),
        ]
        for a, k, b, s in specs:
            hspec = HypergeometricSpec(
                tuple(Fraction(v) for v in a), tuple(Fraction(v) for v in k),
                tuple(Fraction(v) for v in b), tuple(Fraction(v) for v in s))
            for n in range(6):
                assert derivative_ratio(a, k, b, s, n) == coefficient(hspec, n)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(a=st.integers(1, 4), ka=st.integers(1, 3), b=st.integers(1, 4),
           sb=st.integers(1, 3), n=st.integers(0, 5))
    def test_single_factor_property(self, a, ka, b, sb, n):
        hspec = HypergeometricSpec((Fraction(a),), (Fraction(ka),),
                                   (Fraction(b),), (Fraction(sb),))
        assert derivative_ratio((a,), (ka,), (b,), (sb,), n) == coefficient(hspec, n)


class TestSerialization:
    def test_golden_form(self):
        f = PlanarForest(2, 2, ((("r", 1), 0), (("v", 1), 2)))
        assert serialize_forest(f) == (
            "root 1\n"
            "root 2\n"
            "node 1 parent=r1 slot=0\n"
            "node 2 parent=v1 slot=2\n"
            "tails=6\n")

    def test_round_trip(self):
        for f in enumerate_forests(ForestFamily(2, 3, 2)):
            text = serialize_forest(f)
            assert serialize_forest(parse_forest(text)) == text

    def test_round_trip_recovers_fields(self):
        f = PlanarForest(3, 2, ((("r", 2), 0), (("v", 1), 1)))
        g = parse_forest(serialize_forest(f))
        assert (g.a, g.k, g.nodes) == (f.a, f.k, f.nodes)

    def test_parse_rejects_malformed(self):
        with pytest.raises(InvariantViolation):
            parse_forest("node 1 parent=r1 slot=0\ntails=3\n")  # no roots
        with pytest.raises(InvariantViolation):
            parse_forest("root 1\nnonsense\ntails=1\n")
        with pytest.raises(InvariantViolation):
            # (tails - a) = 3 not divisible by n = 2: no integer arity fits
            parse_forest("root 1\n"
                         "node 1 parent=r1 slot=0\n"
                         "node 2 parent=v1 slot=0\n"
                         "tails=4\n")
        with pytest.raises(InvariantViolation):
            parse_forest("root 1\n")  # missing tail line
        for text, message in (
                ("root 2\nroot 1\ntails=2\n", "root lines out of order"),
                ("root 1\nnode 2 parent=r1 slot=0\ntails=2\n",
                 "node lines out of order"),
                ("root 1\nroot 2\ntails=3\n", "bare forest must have tails=a")):
            with pytest.raises(InvariantViolation, match=message):
                parse_forest(text)

    def test_parse_skips_blank_lines(self):
        f = PlanarForest(2, 1, ((("r", 1), 0), (("v", 1), 1)))
        text = serialize_forest(f)
        assert parse_forest("\n" + text.replace("\n", "\n  \n")) == f


# every family with a, k in 1..3 and n <= 6 whose count is at most 50,000
_SMALL_FAMILIES = [ForestFamily(a, n, k) for a in (1, 2, 3) for k in (1, 2, 3)
                   for n in range(7) if count(ForestFamily(a, n, k)) <= 50_000]


class TestTemplateSerializerAndLeanValidator:
    """serialize_forest fills a per-(a, n, k) template, and validate_forest
    tests repeats once for the whole forest: both against the line-by-line
    f-string serializer and the one-walk validator of tests/oracles.py."""

    def test_every_small_family_serializes_as_the_f_strings(self):
        assert len(_SMALL_FAMILIES) > 40
        for family in _SMALL_FAMILIES:
            for f in enumerate_forests(family):
                assert serialize_forest(f) == oracles.serialize_forest_lines(f)

    @staticmethod
    def _message(f):
        try:
            validate_forest(f)
        except InvariantViolation as exc:
            return str(exc)
        return None

    @pytest.mark.parametrize("nodes", [
        # a repeat (v_2) before a range fault (v_4), and after one (v_2, v_4)
        ((("r", 1), 0), (("r", 1), 0), (("v", 1), 1), (("v", 9), 0)),
        ((("r", 1), 0), (("v", 1), 7), (("v", 1), 0), (("r", 1), 0)),
        # the repeating vertex itself out of range: its range is named
        ((("r", 1), 0), (("v", 1), 0), (("v", 1), 0), (("v", 3), 0), (("v", 3), 0)),
        ((("r", 2), 0), (("v", 1), 1), (("r", 2), 1)),
        # two repeats: the first in vertex order
        ((("r", 1), 0), (("v", 1), 0), (("v", 1), 0), (("r", 1), 0)),
        ((("r", 2), 0), (("r", 1), 0), (("v", 2), 1), (("r", 1), 0), (("r", 2), 0)),
        ((("x", 1), 0), (("r", 1), 0), (("r", 1), 0)),
    ])
    def test_first_fault_matches_the_one_walk(self, nodes):
        f = PlanarForest(2, 1, nodes)
        want = oracles.validate_forest_sequential(f)
        assert want is not None and self._message(f) == want

    def test_seeded_corruptions_match_the_one_walk(self):
        import random
        rng = random.Random(20240817)
        faults = 0
        for _ in range(3000):
            a, k, n = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 7)
            nodes = []
            for i in range(1, n + 1):
                kind = rng.choice("rrvvv" if i > 1 else "rrrrv")
                top = a + 1 if kind == "r" else i
                nodes.append(((kind, rng.randint(0, top)),
                              rng.randint(0, 1) if kind == "r" else rng.randint(-1, k + 1)))
            f = PlanarForest(a, k, tuple(nodes))
            want = oracles.validate_forest_sequential(f)
            faults += want is not None
            assert self._message(f) == want, f
        assert 1000 < faults < 3000

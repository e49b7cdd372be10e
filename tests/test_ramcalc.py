import random
from collections import Counter
from fractions import Fraction

import pytest

from ramforge.errors import ParameterError, ParseError, UnrealizableMultisetError
from ramforge.ramcalc import (
    BreakMultiset,
    compose_disjoint,
    fact1_resolve,
    lower_to_upper,
    parse_multiset,
    upper_to_lower,
)


def lower(p, breaks, m=1):
    return BreakMultiset("lower", m, p, tuple(Fraction(b) for b in breaks))


def upper(p, breaks, m=1):
    return BreakMultiset("upper", m, p, tuple(Fraction(b) for b in breaks))


class TestMultiset:
    def test_rejections(self):
        with pytest.raises(ParameterError):
            lower(3, [0, 1])
        with pytest.raises(ParameterError):
            lower(3, [2, 1])
        with pytest.raises(ParameterError):
            BreakMultiset("lower", 1, 3, (Fraction(1, 2),))
        with pytest.raises(ParameterError):
            BreakMultiset("upper", 3, 3, (Fraction(1),))  # m not prime to p
        with pytest.raises(ParameterError):
            BreakMultiset("sideways", 1, 3, ())

    def test_text(self):
        bm = upper(3, [1, 4, Fraction(13, 3)])
        assert bm.to_text() == "upper m=1 p=3 : 1, 4, 13/3"
        assert parse_multiset(bm.to_text()) == bm
        assert parse_multiset("lower m=2 p=5 :").breaks == ()
        with pytest.raises(ParseError):
            parse_multiset("upper p=3 : 1")


class TestConversion:
    def test_tower_shape(self):
        assert lower_to_upper(lower(3, [1, 10, 13])).breaks == (
            Fraction(1),
            Fraction(4),
            Fraction(13, 3),
        )

    def test_single_and_tame(self):
        assert lower_to_upper(lower(3, [5])).breaks == (Fraction(5),)
        assert lower_to_upper(lower(3, [2], m=2)).breaks == (Fraction(1),)

    def test_inverse_instance(self):
        assert upper_to_lower(upper(3, [1, 4, Fraction(13, 3)])).breaks == (1, 10, 13)
        assert upper_to_lower(upper(3, [1, 4])).breaks == (1, 10)

    def test_roundtrip_instance(self):
        u = upper(3, [1, 4, Fraction(13, 3)])
        assert lower_to_upper(upper_to_lower(u)) == u

    def test_unrealizable(self):
        with pytest.raises(UnrealizableMultisetError):
            upper_to_lower(upper(3, [1, Fraction(3, 2)]))

    def test_recursion_steps_exact(self):
        rng = random.Random(21)
        for _ in range(100):
            p = rng.choice([3, 5])
            m = rng.choice([1, 2, 4])
            n = rng.randint(1, 6)
            bs = sorted(rng.randint(1, 200) for _ in range(n))
            lo = lower(p, bs, m=m)
            up = lower_to_upper(lo)
            assert up.breaks[0] == Fraction(bs[0], m)
            for i in range(1, n):
                assert up.breaks[i] - up.breaks[i - 1] == Fraction(
                    bs[i] - bs[i - 1], m * p**i
                )

    def test_unrolled_sum_cross_check(self):
        # u_k = sum_{j<=k} (b_j - b_{j-1}) / (m p^(j-1)), an unrolled form
        # computed independently of the recursion loop
        rng = random.Random(25)
        for _ in range(100):
            p = rng.choice([3, 5])
            m = rng.choice([1, 2, 4])
            bs = sorted(rng.randint(1, 300) for _ in range(rng.randint(1, 6)))
            up = lower_to_upper(lower(p, bs, m=m))
            prev = 0
            acc = Fraction(0)
            for j, b in enumerate(bs):
                acc += Fraction(b - prev, m * p**j)
                prev = b
                assert up.breaks[j] == acc

    def test_roundtrip_property(self):
        rng = random.Random(22)
        for _ in range(200):
            p = rng.choice([3, 5])
            m = rng.choice([1, 2, 4])
            n = rng.randint(1, 6)
            lo = lower(p, sorted(rng.randint(1, 500) for _ in range(n)), m=m)
            assert upper_to_lower(lower_to_upper(lo)) == lo


class TestCompose:
    def test_union(self):
        got = compose_disjoint(upper(3, [1, 4, Fraction(13, 3)]), upper(3, [6]))
        assert got.breaks == (1, 4, Fraction(13, 3), 6)

    def test_cp2(self):
        assert compose_disjoint(upper(3, [1]), upper(3, [4])).breaks == (1, 4)

    def test_disjointness_enforced(self):
        with pytest.raises(ParameterError):
            compose_disjoint(upper(3, [1]), upper(3, [1]))

    def test_commutative_associative(self):
        rng = random.Random(23)
        for _ in range(40):
            vals = rng.sample(range(1, 60), 6)
            a = upper(3, sorted(vals[:2]))
            b = upper(3, sorted(vals[2:4]))
            c = upper(3, sorted(vals[4:]))
            assert compose_disjoint(a, b) == compose_disjoint(b, a)
            assert compose_disjoint(compose_disjoint(a, b), c) == compose_disjoint(
                a, compose_disjoint(b, c)
            )


class TestFact1:
    def test_empty_quotient(self):
        res = fact1_resolve(upper(3, []), 1, 4)
        assert (res.lower_u, res.lower_v) == (1, 10)
        assert res.l0_breaks == upper(3, [1])
        assert res.l0_relative_break == 10
        assert res.other_breaks == upper(3, [4])
        assert res.other_relative_break == 1
        assert not res.warnings

    def test_three_break_case(self):
        # lowers of {5, 6, 29/3} are [5, 8, 41] by the conversion recursion
        res = fact1_resolve(upper(3, [5]), 6, Fraction(29, 3))
        assert (res.lower_u, res.lower_v) == (8, 41)
        assert res.l0_breaks == upper(3, [5, 6])
        assert res.l0_relative_break == 41
        assert res.other_breaks == upper(3, [5, Fraction(29, 3)])
        assert res.other_relative_break == 8

    def test_preconditions(self):
        with pytest.raises(ParameterError):
            fact1_resolve(upper(3, [1]), 1, 4)  # u already a break
        with pytest.raises(ParameterError):
            fact1_resolve(upper(3, []), 4, 1)  # u >= v
        with pytest.raises(UnrealizableMultisetError):
            fact1_resolve(upper(3, []), 1, Fraction(3, 2))

    def test_ordering_anomaly_warns_but_succeeds(self):
        res = fact1_resolve(upper(3, [6]), 1, 4)
        assert res.warnings
        assert (res.lower_u, res.lower_v) == (1, 10)

    def test_outputs_are_sub_multisets(self):
        rng = random.Random(24)
        for _ in range(40):
            u, v = sorted(rng.sample(range(2, 40), 2))
            um = upper(3, [])
            try:
                res = fact1_resolve(um, u, v)
            except UnrealizableMultisetError:
                continue
            full = Counter(res.full_breaks.breaks)
            assert Counter(res.l0_breaks.breaks) <= full
            assert Counter(res.other_breaks.breaks) <= full

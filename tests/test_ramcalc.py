import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# -- the Fraction-arithmetic break calculus, kept as the reference -----------
# Each takes and returns plain tuples and raises the error type and text the
# library raises.


def ref_validate(numbering, m, p, breaks):
    if m < 1 or m % p == 0:
        raise ParameterError(f"tame degree m={m} must be positive and prime to p={p}")
    bs = tuple(Fraction(b) for b in breaks)
    if any(b <= 0 for b in bs):
        raise ParameterError("breaks must be positive")
    if list(bs) != sorted(bs):
        raise ParameterError("breaks must be sorted ascending")
    if numbering == "lower" and any(b.denominator != 1 for b in bs):
        raise ParameterError("lower breaks must be integers")
    return bs


def ref_lower_to_upper(m, p, breaks):
    us = []
    u, lo, scale = 0, 0, m
    for b in breaks:
        u += Fraction(b - lo) / scale
        lo, scale = b, scale * p
        us.append(u)
    return tuple(us)


def ref_upper_to_lower(m, p, breaks):
    bs = []
    b, lo, scale = 0, 0, m
    for i, u in enumerate(breaks):
        b += (u - lo) * scale
        lo, scale = u, scale * p
        if b.denominator != 1 or b <= 0:
            text = BreakMultiset("upper", m, p, breaks).to_text()
            raise UnrealizableMultisetError(
                f"upper multiset {text!r} is not realizable: lower break {i + 1} would be {b}"
            )
        bs.append(b)
    return tuple(bs)


def ref_compose(p, xs, ys):
    common = set(xs) & set(ys)
    if common:
        raise ParameterError(f"break sets are not disjoint: common value {sorted(common)[0]}")
    return tuple(sorted(xs + ys))


def ref_fact1(m, p, bs, u, v):
    """(lower_u, lower_v, l0 breaks, other breaks, full breaks, warnings)."""
    u, v = Fraction(u), Fraction(v)
    if not u < v:
        raise ParameterError(f"need u < v, got u={u}, v={v}")
    if u in bs or v in bs:
        raise ParameterError("u and v must not already be breaks of the quotient")
    full = ref_validate("upper", m, p, sorted(bs + (u, v)))
    lowers = ref_upper_to_lower(m, p, full)
    lower_u, lower_v = int(lowers[full.index(u)]), int(lowers[full.index(v)])
    warnings = ()
    if bs and u < max(bs):
        warnings = (f"u = {u} lies below the existing top break {max(bs)}",)
    return lower_u, lower_v, tuple(sorted(bs + (u,))), tuple(sorted(bs + (v,))), full, warnings


def outcome(fn, *args):
    """The value ``fn`` returns, or the type and text of what it raises."""
    try:
        return ("ok", fn(*args))
    except (ParameterError, UnrealizableMultisetError) as exc:
        return (type(exc).__name__, str(exc))


PRIMES = st.sampled_from([3, 5, 7, 31, 1000003])
TAME = st.sampled_from([1, 2, 4])


@st.composite
def lowers(draw, size=8):
    return tuple(sorted(draw(st.lists(st.integers(1, 10**6), max_size=size))))


@st.composite
def uppers(draw, m, p, size=8):
    """Sorted positive upper breaks: some realizable (the reference image of
    lower breaks), some with a denominator m*p^k, some arbitrary."""
    kind = draw(st.sampled_from(["image", "scaled", "any"]))
    if kind == "image":
        return ref_lower_to_upper(m, p, draw(lowers(size)))
    dens = st.sampled_from([m * p**k for k in range(4)])
    if kind == "any":
        dens = st.integers(1, 50)
    frs = st.builds(Fraction, st.integers(1, 10**5), dens)
    return tuple(sorted(draw(st.lists(frs, max_size=size))))


@st.composite
def raw_breaks(draw):
    """Break lists in the forms BreakMultiset accepts, valid or not: int,
    Fraction and "a/b" entries, zero, negative, unsorted, nonintegral."""
    entry = st.one_of(
        st.integers(-3, 60),
        st.builds(Fraction, st.integers(-3, 60), st.integers(1, 9)),
        st.builds(lambda a, b: f"{a}/{b}", st.integers(-3, 60), st.integers(1, 9)),
    )
    xs = draw(st.lists(entry, max_size=8))
    return xs if draw(st.booleans()) else sorted(xs, key=Fraction)


class TestAgainstFractionReference:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["lower", "upper"]), st.integers(1, 12), PRIMES, raw_breaks())
    def test_construction(self, numbering, m, p, raw):
        got = outcome(lambda: BreakMultiset(numbering, m, p, tuple(raw)).breaks)
        assert got == outcome(ref_validate, numbering, m, p, raw)
        if got[0] == "ok":
            assert all(type(b) is Fraction for b in got[1])

    @settings(max_examples=300, deadline=None)
    @given(TAME, PRIMES, lowers())
    def test_lower_to_upper(self, m, p, bs):
        got = lower_to_upper(BreakMultiset("lower", m, p, bs)).breaks
        assert got == ref_lower_to_upper(m, p, bs)
        assert all(type(b) is Fraction for b in got)

    @settings(max_examples=400, deadline=None)
    @given(st.data(), TAME, PRIMES)
    def test_upper_to_lower(self, data, m, p):
        us = data.draw(uppers(m, p))
        got = outcome(lambda: upper_to_lower(BreakMultiset("upper", m, p, us)).breaks)
        assert got == outcome(ref_upper_to_lower, m, p, us)
        if got[0] == "ok":
            assert all(type(b) is Fraction for b in got[1])

    @settings(max_examples=300, deadline=None)
    @given(st.data(), PRIMES)
    def test_compose(self, data, p):
        xs, ys = data.draw(uppers(1, p, 4)), data.draw(uppers(1, p, 4))
        if data.draw(st.booleans()) and xs:  # force a common value
            ys = tuple(sorted(set(ys) | {data.draw(st.sampled_from(xs))}))
        got = outcome(lambda: compose_disjoint(upper(p, xs), upper(p, ys)).breaks)
        assert got == outcome(ref_compose, p, xs, ys)

    @settings(max_examples=400, deadline=None)
    @given(st.data(), TAME, PRIMES)
    def test_fact1(self, data, m, p):
        if data.draw(st.booleans()):
            # u < v taken out of a realizable multiset without repeats
            lows = data.draw(st.sets(st.integers(1, 10**6), min_size=2, max_size=8))
            full = ref_lower_to_upper(m, p, sorted(lows))
            i, j = sorted(data.draw(st.lists(st.integers(0, len(full) - 1), min_size=2, max_size=2, unique=True)))
            u, v = full[i], full[j]
            bs = full[:i] + full[i + 1 : j] + full[j + 1 :]
        else:
            bs = data.draw(uppers(m, p, 6))
            pick = st.one_of(
                st.sampled_from(bs) if bs else st.nothing(),
                st.builds(Fraction, st.integers(-2, 10**5), st.sampled_from([1, m, m * p, m * p * p, 7])),
            )
            u, v = data.draw(pick), data.draw(pick)
            if data.draw(st.booleans()):
                u, v = sorted((u, v))

        def fields():
            res = fact1_resolve(BreakMultiset("upper", m, p, bs), u, v)
            assert (res.l0_relative_break, res.other_relative_break) == (res.lower_v, res.lower_u)
            return (
                res.lower_u,
                res.lower_v,
                res.l0_breaks.breaks,
                res.other_breaks.breaks,
                res.full_breaks.breaks,
                res.warnings,
            )

        assert outcome(fields) == outcome(ref_fact1, m, p, bs, u, v)

    @pytest.mark.parametrize(
        "numbering, m, p, raw, message",
        [
            ("lower", 1, 3, [0, 1], "breaks must be positive"),
            ("upper", 1, 3, [2, -1], "breaks must be positive"),
            ("upper", 1, 3, [3, 1, 0], "breaks must be positive"),
            ("upper", 1, 3, ["4", "1/2"], "breaks must be sorted ascending"),
            ("lower", 1, 3, [Fraction(1, 2)], "lower breaks must be integers"),
            ("lower", 1, 5, [3, "7/2"], "lower breaks must be integers"),
            ("upper", 3, 3, [1], "tame degree m=3 must be positive and prime to p=3"),
            ("upper", 10, 5, [1], "tame degree m=10 must be positive and prime to p=5"),
            ("upper", 0, 3, [1], "tame degree m=0 must be positive and prime to p=3"),
        ],
    )
    def test_refusals(self, numbering, m, p, raw, message):
        with pytest.raises(ParameterError) as exc:
            BreakMultiset(numbering, m, p, tuple(raw))
        assert str(exc.value) == message

    def test_accepted_entry_forms(self):
        bm = BreakMultiset("upper", 2, 3, (1, Fraction(4, 3), "5/3"))
        assert bm.breaks == (1, Fraction(4, 3), Fraction(5, 3))
        assert all(type(b) is Fraction for b in bm.breaks)


class TestBreakTokens:
    @pytest.mark.parametrize("token", ["7", "13/3", "+2", " 4 ", "0010/004"])
    def test_written_forms(self, token):
        bm = parse_multiset(f"upper m=1 p=3 : {token}")
        assert bm.breaks == (Fraction(token.strip()),)

    @pytest.mark.parametrize(
        "token", ["1e1000000000", "1E3", "1.5", "1/0", "1/-2", "1 / 2", "inf", "nan", "0x10", "1_0", "½"]
    )
    def test_other_forms_refused(self, token):
        with pytest.raises(ParseError) as exc:
            parse_multiset(f"upper m=1 p=3 : 1, {token}")
        assert f"malformed break {token.strip()!r}" in str(exc.value)

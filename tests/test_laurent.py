import random
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ramforge import laurent
from ramforge.errors import ParameterError, ParseError
from ramforge.laurent import (
    INF,
    LaurentSeries,
    is_prime,
    monomial,
    parse_series,
    series_make,
    wp,
    zero,
)


def rand_series(rng, p, prec=30, lo=-8, hi=8, terms=6):
    pairs = [(rng.randint(lo, hi), rng.randint(0, p - 1)) for _ in range(terms)]
    return LaurentSeries(p, pairs, prec)


def rand_nonzero(rng, p, **kw):
    while True:
        s = rand_series(rng, p, **kw)
        if not s.is_zero():
            return s


# psi_k, the least composite that passes Miller-Rabin with the first k
# primes as bases, for k = 1..12 (OEIS A014233, equal values listed once);
# psi_13 is the bound below which bases 2..41 decide primality.
STRONG_PSEUDOPRIMES = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
    318665857834031151167461,
)
MR_BOUND = 3317044064679887385961981  # psi_13


class TestIsPrime:
    def test_strong_pseudoprimes_are_composite(self):
        assert not any(is_prime(n) for n in STRONG_PSEUDOPRIMES)
        assert is_prime(MR_BOUND - 2) == sympy.isprime(MR_BOUND - 2)

    def test_refuses_beyond_the_deterministic_range(self):
        with pytest.raises(ParameterError, match="too large"):
            is_prime(MR_BOUND)

    @settings(max_examples=500, deadline=None)
    @given(
        st.one_of(
            st.integers(-10, 10**6),
            st.integers(0, MR_BOUND - 1),
            st.integers(2, 10**12).map(sympy.nextprime),
            # semiprimes, and Chernick's (6k+1)(12k+1)(18k+1), a Carmichael
            # number when all three factors are prime
            st.tuples(st.integers(2, 10**12), st.integers(2, 10**12)).map(
                lambda ab: sympy.nextprime(ab[0]) * sympy.nextprime(ab[1])
            ),
            st.integers(1, 10**7).map(lambda k: (6 * k + 1) * (12 * k + 1) * (18 * k + 1)),
        )
    )
    def test_matches_sympy(self, n):
        assert is_prime(n) == sympy.isprime(n)


class TestMake:
    def test_monomial(self):
        s = series_make(3, -1, [1], 20)
        assert s.valuation() == -1
        assert s.coefficient(-1) == 1

    def test_zero_case(self):
        s = series_make(3, 0, [], 20)
        assert s.valuation() == INF
        assert s.is_zero()

    def test_interior_zeros(self):
        s = series_make(5, -4, [2, 0, 0, 0, 1], 20)
        assert s.valuation() == -4
        assert s.coefficient(-4) == 2
        assert s.coefficient(0) == 1
        assert s.coefficient(-2) == 0

    def test_errors(self):
        with pytest.raises(ParameterError):
            series_make(4, 0, [1], 20)
        with pytest.raises(ParameterError):
            series_make(2, 0, [1], 20)
        with pytest.raises(ParameterError):
            series_make(3, 5, [1], 5)
        with pytest.raises(ParameterError):
            series_make(3, 0, [3, 1], 20)  # leading coefficient is 0 mod 3


class TestArith:
    def test_poly_identity(self):
        a = series_make(3, 0, [1, 1], 20)  # 1 + pi
        b = series_make(3, 0, [1, 2], 20)  # 1 - pi
        prod = a * b
        assert prod.coefficient(0) == 1
        assert prod.coefficient(1) == 0
        assert prod.coefficient(2) == 2  # -1 mod 3

    def test_cancellation(self):
        s = series_make(3, -1, [1], 20)
        assert (s + (-s)).is_zero()

    def test_monomial_power(self):
        # alpha = pi^(-3*1) * beta^1 with beta = pi^-1 gives valuation -4
        beta = monomial(3, 1, -1, 20)
        alpha = monomial(3, 1, -3, 20) * beta
        assert alpha.valuation() == -4
        assert beta * beta * beta * beta == LaurentSeries(3, [(-4, 1)], 16)

    def test_power_matches_repeated_product(self):
        a = series_make(3, -1, [1, 2, 0, 1], 20)
        assert a**3 == a * a * a
        assert (a**0).coefficient(0) == 1
        with pytest.raises(ParameterError, match="nonnegative"):
            a**-1

    def test_modulus_mismatch(self):
        with pytest.raises(ParameterError):
            series_make(3, 0, [1], 20) + series_make(5, 0, [1], 20)

    def test_mul_valuation_additive(self):
        rng = random.Random(7)
        for p in (3, 5):
            for _ in range(60):
                a = rand_nonzero(rng, p)
                b = rand_nonzero(rng, p)
                assert (a * b).valuation() == a.valuation() + b.valuation()

    def test_add_ultrametric(self):
        rng = random.Random(8)
        for _ in range(60):
            a = rand_nonzero(rng, 3)
            b = rand_nonzero(rng, 3)
            v = (a + b).valuation()
            assert v >= min(a.valuation(), b.valuation())
            if a.valuation() != b.valuation():
                assert v == min(a.valuation(), b.valuation())


class TestPrecision:
    def test_add_takes_min(self):
        a = LaurentSeries(3, [(0, 1)], 10)
        b = LaurentSeries(3, [(1, 2)], 30)
        assert (a + b).prec == 10

    def test_mul_min_over_cross_terms(self):
        a = LaurentSeries(3, [(-2, 1)], 10)   # val -2, prec 10
        b = LaurentSeries(3, [(3, 2)], 7)     # val 3, prec 7
        assert (a * b).prec == min(-2 + 7, 3 + 10)

    def test_mul_by_uncertain_zero(self):
        z = zero(3, 4)
        b = LaurentSeries(3, [(3, 2)], 20)
        prod = z * b
        assert prod.is_zero() and prod.prec == 4 + 3

    def test_make_drops_beyond_precision(self):
        s = series_make(3, 0, [1, 2, 1, 0], 2)
        assert (s.val, s.coeffs, s.prec) == (0, (1, 2), 2)

    def test_eq_on_common_window(self):
        a = LaurentSeries(3, [(0, 1)], 5)
        b = LaurentSeries(3, [(0, 1), (5, 1)], 10)
        assert a == b and b == a
        assert a != LaurentSeries(3, [(0, 1), (4, 1)], 10)

    def test_inverse_relative_precision(self):
        a = LaurentSeries(3, [(-2, 1), (0, 1)], 10)  # 12 known coefficients
        inv = a.inverse()
        assert inv.prec - inv.valuation() == a.prec - a.valuation()


class TestInverse:
    def test_geometric(self):
        b = series_make(3, 0, [1, 2], 20)  # 1 - pi
        inv = b.inverse()
        for e in range(10):
            assert inv.coefficient(e) == 1

    def test_monomial(self):
        assert monomial(3, 1, 1, 20).inverse().valuation() == -1
        inv = series_make(3, -1, [2], 20).inverse()
        assert inv.valuation() == 1
        assert inv.coefficient(1) == 2  # 2*2 = 4 = 1 mod 3

    def test_zero_input(self):
        with pytest.raises(ParameterError):
            zero(3, 10).inverse()

    def test_roundtrip(self):
        rng = random.Random(9)
        for p in (3, 5):
            for _ in range(40):
                a = rand_nonzero(rng, p)
                prod = a * a.inverse()
                assert prod.coefficient(0) == 1
                assert set(ref_terms(prod)) == {0}


class TestWp:
    def test_direct_expansion(self):
        got = wp(monomial(3, 1, -1, 20))
        assert got.coefficient(-3) == 1
        assert got.coefficient(-1) == 2

    def test_zero_and_constants(self):
        assert wp(zero(3, 10)).is_zero()
        for c in range(1, 5):
            assert wp(monomial(5, c, 0, 20)).is_zero()  # c^5 = c in F_5

    def test_additive(self):
        rng = random.Random(10)
        for p in (3, 5):
            for _ in range(40):
                a = rand_series(rng, p)
                b = rand_series(rng, p)
                assert wp(a + b) == wp(a) + wp(b)

    def test_valuation_scaling(self):
        rng = random.Random(11)
        for _ in range(40):
            a = rand_nonzero(rng, 3)
            if a.valuation() < 0:
                assert wp(a).valuation() == 3 * a.valuation()


class TestFrobenius:
    def test_exponents_and_coefficients(self):
        rng = random.Random(12)
        for p in (3, 5):
            for _ in range(30):
                a = rand_series(rng, p)
                f = a.frobenius()
                assert ref_terms(f) == {p * e: c for e, c in ref_terms(a).items()}


class TestText:
    def test_roundtrip(self):
        s = LaurentSeries(3, [(-1, 1), (0, 2), (3, 1)], 20)
        assert s.to_text() == "p=3 prec=20 : -1:1 0:2 3:1"
        assert parse_series(s.to_text()) == s

    def test_zero_roundtrip(self):
        z = zero(5, 12)
        assert parse_series(z.to_text()).is_zero()

    def test_malformed(self):
        for bad in ("junk", "p=3 : 0:1", "p=3 prec=x : 0:1", "p=4 prec=9 : 0:1"):
            with pytest.raises((ParseError, ParameterError)):
                parse_series(bad)

    @pytest.mark.parametrize("tok", ["1:2:3", "1", "a:1", "1:", ":", "1 1:2:3"])
    def test_malformed_token(self, tok):
        # "1 1:2:3" has as many colons as tokens, but not one in each
        for text in (f"p=3 prec=9 : {tok}", f"p=3 prec=9 : 0:1 {tok} 2:1"):
            with pytest.raises(ParseError):
                parse_series(text)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_roundtrip_every_series(self, data):
        for s in data.draw(series_pair()):
            assert key(parse_series(s.to_text())) == key(s)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_parse_matches_constructor(self, data):
        """Any pair list, written as text: unsorted and repeated exponents
        (some cancelling mod p), zero, negative and >= p coefficients,
        exponents at or above prec, and the empty body."""
        p = data.draw(st.sampled_from(PRIMES))
        prec = data.draw(st.integers(-10, 30))
        coeff = st.one_of(st.integers(-3 * p, 3 * p), st.just(0), st.integers(-(10**30), 10**30))
        pairs = data.draw(st.lists(st.tuples(st.integers(-20, 40), coeff), max_size=25))
        cancel = data.draw(st.lists(st.sampled_from(pairs), max_size=5)) if pairs else []
        k = data.draw(st.integers(-2, 2))
        pairs = data.draw(st.permutations(pairs + [(e, k * p - c) for e, c in cancel]))
        text = f"p={p} prec={prec} :" + "".join(f" {e}:{c}" for e, c in pairs)
        summed = {}
        for e, c in pairs:
            summed[e] = summed.get(e, 0) + c
        want = ref_normal(p, summed, prec)
        assert key(LaurentSeries(p, pairs, prec)) == want
        assert key(parse_series(text)) == want


# -- differential tests against a schoolbook / dict reference ---------------

PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def ref_terms(s):
    return {} if s.val is None else {s.val + i: c for i, c in enumerate(s.coeffs) if c}


def ref_val_floor(s):
    return s.prec if s.val is None else s.val


def ref_normal(p, terms, prec):
    """(val, coeffs, prec) of the exponent -> coefficient map ``terms``."""
    kept = {e: c % p for e, c in terms.items() if e < prec and c % p}
    if not kept:
        return (None, (), prec)
    lo, hi = min(kept), max(kept)
    return (lo, tuple(kept.get(e, 0) for e in range(lo, hi + 1)), prec)


def ref_mul(a, b):
    prec = min(ref_val_floor(a) + b.prec, ref_val_floor(b) + a.prec)
    acc = {}
    for e1, c1 in ref_terms(a).items():
        for e2, c2 in ref_terms(b).items():
            acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
    return ref_normal(a.p, acc, prec)


def ref_add(a, b, sign=1):
    acc = dict(ref_terms(a))
    for e, c in ref_terms(b).items():
        acc[e] = acc.get(e, 0) + sign * c
    return ref_normal(a.p, acc, min(a.prec, b.prec))


def key(s):
    return (s.val, s.coeffs, s.prec)


@st.composite
def series_pair(draw):
    """Two series over one F_p: lengths from 0 to a few hundred, zero,
    sparse and dense coefficients, negative valuations, and precision
    anywhere from below the valuation to past the last coefficient."""
    p = draw(st.sampled_from(PRIMES))
    rng = draw(st.randoms(use_true_random=False))

    def one():
        val = draw(st.integers(-60, 30))
        n = draw(st.one_of(st.integers(0, 6), st.integers(7, 60), st.integers(61, 300)))
        density = draw(st.sampled_from((0.0, 0.1, 1.0)))
        coeffs = [rng.randrange(1, p) if rng.random() < density else 0 for _ in range(n)]
        prec = val + n + draw(st.integers(-n - 3, 8))
        pairs = [(val + i, c) for i, c in enumerate(coeffs)]
        s = LaurentSeries(p, pairs, prec)
        assert key(s) == ref_normal(p, dict(pairs), prec)
        return s

    return one(), one()


@st.composite
def one_term_pair(draw):
    """A one-term series c*pi^v (c = 1 or not) and a series drawn as in
    ``series_pair``, over F_p for a small or a wide-slot p."""
    p = draw(st.sampled_from(PRIMES + (2**31 - 1, 2**61 - 1)))
    c = draw(st.sampled_from((1, draw(st.integers(2, p - 1)))))
    v = draw(st.integers(-40, 20))
    m = monomial(p, c, v, v + draw(st.integers(1, 300)))
    rng = draw(st.randoms(use_true_random=False))
    val = draw(st.integers(-60, 30))
    n = draw(st.integers(0, 300))
    s = LaurentSeries(p, [(val + i, rng.randrange(p)) for i in range(n)], val + n + draw(st.integers(-n - 3, 8)))
    return m, s


class TestDifferential:
    @settings(max_examples=150, deadline=None)
    @given(series_pair())
    def test_mul(self, ab):
        a, b = ab
        assert key(a * b) == ref_mul(a, b)

    @settings(max_examples=150, deadline=None)
    @given(series_pair())
    def test_add_sub_neg(self, ab):
        a, b = ab
        assert key(a + b) == ref_add(a, b)
        assert key(a - b) == ref_add(a, b, -1)
        assert key(-a) == ref_add(zero(a.p, a.prec), a, -1)

    @settings(max_examples=100, deadline=None)
    @given(series_pair(), st.integers(-50, 50))
    def test_scalar_frobenius_eq(self, ab, c):
        a, b = ab
        p = a.p
        terms = ref_terms(a)
        assert key(a * c) == ref_normal(p, {e: x * c for e, x in terms.items()}, a.prec)
        assert key(a + c) == ref_normal(p, {**terms, 0: terms.get(0, 0) + c}, a.prec)
        assert key(a.frobenius()) == ref_normal(p, {p * e: x for e, x in terms.items()}, p * a.prec)
        w = min(a.prec, b.prec)
        assert (a == b) == (ref_normal(p, terms, w)[:2] == ref_normal(p, ref_terms(b), w)[:2])

    @settings(max_examples=200, deadline=None)
    @given(one_term_pair())
    def test_mul_one_term_factor(self, ms):
        m, s = ms
        assert len(m.coeffs) == 1
        assert key(m * s) == ref_mul(m, s)
        assert key(s * m) == ref_mul(s, m)

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(PRIMES), st.integers(0, 12), st.integers(0, 2**32))
    def test_pow_is_repeated_multiplication(self, p, k, seed):
        """a**k by squaring is k multiplies by a, starting from 1 known to
        a's relative precision, on (val, coeffs, prec): zero-to-precision
        bases, negative precisions and k = 0 included."""
        rng = random.Random(seed)
        val, n = rng.randint(-30, 10), rng.choice((0, 1, 2, 7, 60))
        density = rng.choice((0.0, 0.3, 1.0))
        pairs = [(val + i, rng.randrange(1, p)) for i in range(n) if rng.random() < density]
        a = LaurentSeries(p, pairs, val + n + rng.randint(-n - 3, 5))
        want = LaurentSeries(a.p, [(0, 1)], a.prec - ref_val_floor(a))
        for _ in range(k):
            want = want * a
        assert key(a**k) == key(want)

    def test_pow_takes_logarithmically_many_products(self):
        a = LaurentSeries(5, [(-2, 1), (0, 3), (1, 1)], 20)
        calls = []
        real = laurent._kronecker_mul

        def spy(x, y, n, p):
            calls.append(n)
            return real(x, y, n, p)

        with mock.patch.object(laurent, "_kronecker_mul", spy):
            got = a**1000
        assert len(calls) <= 2 * (1000).bit_length()
        assert (got.val, got.prec) == (-2000, -2000 + 22)

    def test_truncate(self):
        a = LaurentSeries(3, [(-2, 1), (0, 2), (3, 1)], 10)
        assert key(a.truncate(1)) == (-2, (1, 0, 2), 1)
        assert key(a.truncate(-2)) == (None, (), -2)
        assert key(a.truncate(9)) == (-2, (1, 0, 2, 0, 0, 1), 9)
        assert a.truncate(50).prec == 10  # never known past its own precision
        assert key(zero(3, 4).truncate(2)) == (None, (), 2)

    @pytest.mark.parametrize("p", [3, 2**31 - 1, 2**61 - 1])
    @pytest.mark.parametrize("c", [1, 2, -1])
    def test_mul_one_term_cases(self, p, c):
        rng = random.Random(p + c)
        dense = LaurentSeries(p, [(i - 4, rng.randrange(1, p)) for i in range(40)], 36)
        one = monomial(p, c, -3, 30)
        # short is known at exponent 2 alone, so the product window (n = 1)
        # cuts dense to one coefficient
        short = LaurentSeries(p, [(2, c), (3, 1)], 3)
        for x, y in ((one, dense), (short, dense), (one, zero(p, 5)), (one, short)):
            assert key(x * y) == ref_mul(x, y)
            assert key(y * x) == ref_mul(y, x)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_kronecker_only_for_two_long_factors(self, data):
        a, b = data.draw(st.one_of(series_pair(), one_term_pair()))
        n = min(a.prec - ref_val_floor(a), b.prec - ref_val_floor(b))
        sizes = (min(len(a.coeffs), n), min(len(b.coeffs), n))
        calls = []
        real = laurent._kronecker_mul

        def spy(x, y, n, p):
            calls.append((len(x), len(y)))
            return real(x, y, n, p)

        with mock.patch.object(laurent, "_kronecker_mul", spy):
            prod = a * b
        assert calls == ([sizes] if min(sizes) >= 2 else [])
        assert key(prod) == ref_mul(a, b)

    def test_wide_slots(self):
        # (p-1)^2 needs more than 64 bits: slots wider than any array item.
        p = 2**31 - 1
        rng = random.Random(13)
        for n in (1, 2, 17, 90):
            a = LaurentSeries(p, [(i - 5, rng.randrange(p)) for i in range(n)], n)
            b = LaurentSeries(p, [(i + 2, rng.randrange(p)) for i in range(n)], n + 9)
            assert key(a * b) == ref_mul(a, b)

    def test_matches_sympy_gf_mul(self):
        galoistools = pytest.importorskip("sympy.polys.galoistools")
        from sympy.polys.domains import ZZ

        rng = random.Random(14)
        for p in PRIMES:
            for n, m in ((1, 1), (3, 40), (64, 64), (257, 400)):
                f = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(n - 2)] + [1] * (n > 1)
                g = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(m - 2)] + [1] * (m > 1)
                prod = series_make(p, 0, f, n + m) * series_make(p, 0, g, n + m)
                want = galoistools.gf_mul(f[::-1], g[::-1], p, ZZ)[::-1]
                assert (prod.val, prod.coeffs) == (0, tuple(int(c) for c in want))

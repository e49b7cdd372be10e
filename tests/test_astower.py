import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ramforge.astower import ASExtension, as_reduce_F, as_reduce_F_mod_O, as_reduce_K
from ramforge.errors import InsufficientPrecisionError, ParameterError
from ramforge.forge import P3Parameters
from ramforge.laurent import INF, LaurentSeries, monomial, wp, zero

from conftest import within

WINDOW = 240


def ext_for(p, b, window=WINDOW):
    return ASExtension(p, monomial(p, 1, -b, -b + window))


class TestExtension:
    def test_make(self):
        assert ext_for(3, 1).b == 1
        assert ext_for(5, 3).b == 3

    def test_rejects_bad_datum(self):
        with pytest.raises(ParameterError):
            ASExtension(3, monomial(3, 1, -3, 20))  # p | b
        with pytest.raises(ParameterError):
            ASExtension(3, monomial(3, 1, 2, 20))  # nonnegative valuation
        with pytest.raises(ParameterError):
            ASExtension(3, monomial(5, 1, -1, 20))  # modulus mismatch


class TestElementArith:
    def test_defining_relation(self):
        ext = ext_for(3, 1)
        y = ext.y()
        cube = y * y * y
        assert cube.comps[0] == ext.beta
        assert cube.comps[1].coefficient(0) == 1
        assert cube.comps[2].is_zero()

    def test_cancellation(self):
        ext = ext_for(3, 1)
        y = ext.y()
        one = ext.element({0: monomial(3, 1, 0, WINDOW)})
        assert ((y + one) - y) == one

    def test_component_valuation(self):
        ext = ext_for(3, 1)
        alpha = monomial(3, 1, -4, WINDOW)
        elt = ext.element({1: alpha})
        assert elt.comps[1] == alpha
        assert elt.valuation() == 3 * (-4) - 1

    def test_scalar_and_pow(self):
        ext = ext_for(3, 1)
        y = ext.y()
        assert (y * 2).comps[1].coefficient(0) == 2
        assert (y * y * y).comps[0] == ext.beta


class TestPthPower:
    def test_matches_repeated_multiplication(self):
        # the binomial Frobenius path must agree with plain convolution
        rng = random.Random(16)
        for p, b in ((3, 1), (3, 2), (5, 1)):
            ext = ext_for(p, b, window=120)
            for _ in range(12):
                comps = {
                    i: LaurentSeries(
                        p,
                        [(rng.randint(-3, 3), rng.randint(0, p - 1)) for _ in range(3)],
                        40,
                    )
                    for i in range(p)
                }
                u = ext.element(comps)
                by_mult = u
                for _ in range(p - 1):
                    by_mult = by_mult * u
                assert u.pth_power() == by_mult

    def test_wp_additive_in_extension(self):
        rng = random.Random(17)
        ext = ext_for(3, 1, window=120)
        for _ in range(15):
            def rand_elt():
                comps = {
                    i: LaurentSeries(
                        3,
                        [(rng.randint(-3, 3), rng.randint(0, 2)) for _ in range(3)],
                        40,
                    )
                    for i in range(3)
                }
                return ext.element(comps)

            u, v = rand_elt(), rand_elt()
            assert (u + v).wp() == u.wp() + v.wp()


class TestValuation:
    def test_generator(self):
        assert ext_for(3, 1).y().valuation() == -1

    def test_uniformizer_of_base(self):
        ext = ext_for(3, 1)
        assert ext.element({0: monomial(3, 1, 1, WINDOW)}).valuation() == 3

    def test_two_components(self):
        ext = ext_for(3, 1)
        alpha = monomial(3, 1, -4, WINDOW)
        elt = ext.element({0: alpha * ext.beta * 2, 1: alpha})
        assert elt.valuation() == -15

    def test_zero_reports_infinite(self):
        ext = ext_for(3, 1)
        assert ext.zero_element(10).valuation() == INF

    def test_unique_minimizer(self):
        rng = random.Random(13)
        for p, b in ((3, 1), (3, 2), (5, 3)):
            ext = ext_for(p, b)
            for _ in range(40):
                comps = {
                    i: LaurentSeries(
                        p,
                        [(rng.randint(-5, 4), rng.randint(0, p - 1)) for _ in range(4)],
                        30,
                    )
                    for i in range(p)
                }
                elt = ext.element(comps)
                if elt.is_zero():
                    continue
                v = elt.valuation()
                hits = [
                    i
                    for i, c in enumerate(elt.comps)
                    if not c.is_zero() and p * c.val - i * b == v
                ]
                assert len(hits) == 1


class TestReduceK:
    def test_already_reduced(self):
        delta = monomial(3, 1, -1, 20)
        res = as_reduce_K(delta)
        assert res.outcome.is_wild and res.outcome.break_value == 1
        assert res.reduced == delta

    def test_one_step(self):
        res = as_reduce_K(monomial(3, 1, -3, 20))
        assert res.outcome.break_value == 1
        assert res.reduced.valuation() == -1
        assert res.witness == monomial(3, 1, -1, 20)

    def test_nonnegative(self):
        assert as_reduce_K(monomial(3, 1, 0, 20)).outcome.kind == "nonnegative"

    def test_witness_identity(self):
        rng = random.Random(14)
        for p in (3, 5):
            for _ in range(40):
                delta = LaurentSeries(
                    p,
                    [(rng.randint(-9, 5), rng.randint(0, p - 1)) for _ in range(6)],
                    40,
                )
                res = as_reduce_K(delta)
                assert (delta - wp(res.witness) - res.reduced).is_zero()
                v = res.reduced.valuation()
                if res.outcome.is_wild:
                    assert v < 0 and v % p != 0 and res.outcome.break_value == -v
                else:
                    assert v == INF or v >= 0

    def test_insufficient_precision(self):
        delta = monomial(3, 1, -9, -8)  # window of one known coefficient
        with pytest.raises(InsufficientPrecisionError):
            as_reduce_K(delta)

    def test_negative_precision(self):
        # known only below pi^-4: the step at pi^-9 must not lose that
        res = as_reduce_K(LaurentSeries(3, [(-9, 1), (-5, 1)], -4))
        assert res.outcome.is_wild and res.outcome.break_value == 5
        assert res.reduced == monomial(3, 1, -5, -4)

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([3, 5, 7]),
        st.integers(-40, 8),
        st.lists(st.integers(0, 6), max_size=16),
        st.integers(1, 16),
    )
    @example(p=3, val=-9, coeffs=[1, 1], window=5)
    def test_reduction_keeps_precision(self, p, val, coeffs, window):
        """A reduction that ends knows its residual as far as its datum,
        negative precisions included."""
        delta = LaurentSeries(p, enumerate(coeffs, val), val + window)
        try:
            res = as_reduce_K(delta)
        except InsufficientPrecisionError:
            return
        assert res.reduced.prec == delta.prec


def p3_delta(params, window=WINDOW):
    """alpha*y + r*alpha*beta for the tower datum at (p, b, a)."""
    p, b, a = params.p, params.b, params.a
    ext = ASExtension(p, monomial(p, 1, -b, -b + window))
    alpha = monomial(p, 1, -p * params.s, -p * params.s + window) * ext.beta**params.t
    assert alpha.valuation() == -a
    return ext, ext.element({0: alpha * ext.beta * params.r, 1: alpha})


class TestReduceF:
    def test_tower_instance(self):
        params = P3Parameters.derive(3, 1, 4)
        ext, delta = p3_delta(params)
        res = as_reduce_F(delta)
        assert res.outcome.is_wild and res.outcome.break_value == 11
        assert res.reduced.valuation() == -11
        # the reduction should have found the hand witness r*pi^-s*y^(t+1)
        expect = ext.monomial_element(params.r, -params.s, params.t + 1, WINDOW)
        assert res.witness == expect

    def test_exact_image_reduces_to_zero_class(self):
        ext = ext_for(3, 1)
        delta = ext.y().wp()
        res = as_reduce_F(delta)
        assert res.outcome.kind == "nonnegative"

    def test_already_reduced(self):
        ext = ext_for(3, 1)
        res = as_reduce_F(ext.y())
        assert res.outcome.break_value == 1
        assert res.reduced == ext.y()

    def test_negative_s(self):
        params = P3Parameters.derive(5, 3, 4)
        assert params.s == -1
        _, delta = p3_delta(params)
        res = as_reduce_F(delta)
        assert res.outcome.break_value == 2 * 3 + 5 * (4 - 3)

    @pytest.mark.parametrize("p,b,a", [(3, 1, 4), (3, 2, 11), (3, 5, 8), (5, 1, 2)])
    def test_closed_form(self, p, b, a):
        params = P3Parameters.derive(p, b, a)
        _, delta = p3_delta(params)
        res = as_reduce_F(delta)
        assert res.outcome.break_value == 2 * b + p * (a - b)

    def test_witness_identity_random(self):
        rng = random.Random(15)
        for p, b in ((3, 1), (3, 2), (5, 1)):
            ext = ext_for(p, b, window=200)
            for _ in range(20):
                comps = {
                    i: LaurentSeries(
                        p,
                        [(rng.randint(-6, 3), rng.randint(0, p - 1)) for _ in range(5)],
                        190,
                    )
                    for i in range(p)
                }
                delta = ext.element(comps)
                res = as_reduce_F(delta)
                assert (delta - res.witness.wp() - res.reduced).is_zero()

    def test_negative_precision(self):
        # known only below pi^-4, floor -12: the step at pi^-9 must not lose that
        ext = ASExtension(3, monomial(3, 1, -1, 400))
        delta = ext.element({0: LaurentSeries(3, [(-9, 1), (-5, 1)], -4)})
        res = as_reduce_F(delta)
        assert res.outcome.is_wild and res.outcome.break_value == 13
        lead, floor = res.reduced._lead()
        assert (lead[0], floor) == (-13, -12)
        assert (delta - res.witness.wp() - res.reduced).is_zero()

    def test_nonnegative_residual_known_below_zero(self):
        # valuation 0, but y^1 is known only to pi^-1, so floor -4: a term
        # of negative valuation may be missing
        ext = ASExtension(3, monomial(3, 1, -1, 400))
        delta = ext.element({0: monomial(3, 1, 0, 400), 1: zero(3, -1)})
        with pytest.raises(InsufficientPrecisionError):
            as_reduce_F(delta)

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([3, 5, 7]),
        st.integers(1, 4),
        st.dictionaries(
            st.integers(0, 6),
            st.tuples(
                st.integers(-30, 0), st.lists(st.integers(0, 6), max_size=8), st.integers(1, 40)
            ),
            max_size=3,
        ),
    )
    @example(p=3, b=1, comps={0: (-4, [1], 4)})  # known to pi^0
    @example(p=3, b=1, comps={0: (-1, [1], 2)})  # known to pi^1
    def test_reduction_keeps_floor(self, p, b, comps):
        """A reduction that ends knows its residual's valuation at least as
        far down as its datum's, negative precisions included."""
        assume(b % p)
        ext = ASExtension(p, monomial(p, 1, -b, 400))
        delta = ext.element(
            {
                i % p: LaurentSeries(p, enumerate(coeffs, val), val + window)
                for i, (val, coeffs, window) in comps.items()
            }
        )
        try:
            res = as_reduce_F(delta)
        except InsufficientPrecisionError:
            return
        assert res.reduced._lead()[1] >= delta._lead()[1]

    def test_strictly_increasing_steps(self):
        # every wp-subtraction must raise the valuation
        params = P3Parameters.derive(3, 2, 11)
        ext, delta = p3_delta(params)
        res = as_reduce_F(delta)
        assert res.reduced.valuation() > delta.valuation()



# -- the reduction modulo O_F ---------------------------------------------------


def tower_window(a, b):
    """A series window far enough past the datum's valuation -p(a + b) for
    the exact reduction."""
    return 2 * (a + b) + 8


def tower_datum(p, b, a, unit=None):
    """(ext, delta) for the tower's top step at (p, b, a), with beta = pi^-b
    times the unit whose coefficients from pi^0 on are ``unit``, if given."""
    q = P3Parameters.derive(p, b, a)
    window = tower_window(a, b)
    beta = monomial(p, 1, -b, -b + window)
    if unit is not None:
        beta = beta * LaurentSeries(p, enumerate(unit), window)
    ext = ASExtension(p, beta)
    alpha = monomial(p, 1, -p * q.s, -p * q.s + window) * beta**q.t
    return ext, ext.element({0: alpha * beta * q.r, 1: alpha})


def assert_agrees_mod_O(delta):
    """as_reduce_F_mod_O against the exact as_reduce_F: the same outcome
    and residual valuation, residual and witness equal to the exact ones'
    principal parts, and the witness identity modulo O_F."""
    exact, mod_o = as_reduce_F(delta), as_reduce_F_mod_O(delta)
    assert mod_o.outcome == exact.outcome
    assert mod_o.reduced.valuation() == exact.reduced.valuation()
    assert (exact.reduced.principal_part() - mod_o.reduced).is_integral()
    assert (exact.witness.principal_part() - mod_o.witness).is_integral()
    assert (delta - mod_o.witness.principal_wp() - mod_o.reduced).is_integral()
    return mod_o


def grid(p):
    """(b, a) with b <= 7 and b < a <= b + 11, as `P3Parameters.derive`
    allows at p."""
    for b in range(1, 8):
        for a in range(b + 1, b + 12):
            if b % p and a % p and (a + b) % p:
                yield b, a


class TestReduceFModO:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101])
    def test_grid_agrees_with_exact(self, p):
        with within(2, f"grid at p = {p}"):
            for b, a in grid(p):
                rng = random.Random(f"{p}:{b}:{a}")
                dense = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(tower_window(a, b))]
                for unit in (None, dense):
                    res = assert_agrees_mod_O(tower_datum(p, b, a, unit)[1])
                    assert res.outcome.break_value == 2 * b + p * (a - b)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([3, 5, 7, 11, 13, 101]), st.data())
    def test_dense_beta_agrees_with_exact(self, p, data):
        b, a = data.draw(st.sampled_from(list(grid(p))))
        lead = data.draw(st.integers(1, p - 1))
        tail = data.draw(st.lists(st.integers(0, p - 1), max_size=tower_window(a, b)))
        with within(1, f"dense beta at {(p, b, a)}"):
            assert_agrees_mod_O(tower_datum(p, b, a, [lead, *tail])[1])

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([3, 5, 7, 11]),
        st.integers(1, 7),
        st.dictionaries(
            st.integers(0, 10),
            st.tuples(st.integers(-30, 0), st.lists(st.integers(0, 10), max_size=8), st.integers(1, 40)),
            max_size=3,
        ),
    )
    def test_principal_wp_is_wp_modulo_O(self, p, b, comps):
        """principal_wp is wp cut to principal parts, and forms no
        component whose v_F bound p*v + (p-1)*b*k is >= 0 (nor any above a
        term's own degree)."""
        assume(b % p)
        ext = ASExtension(p, monomial(p, 1, -b, 400))
        x = ext.element(
            {i % p: LaurentSeries(p, enumerate(cs, val), val + w) for i, (val, cs, w) in comps.items()}
        )
        got = x.principal_wp()
        want = x.wp().principal_part()
        assert (got - want).is_zero()
        # known as far below O_F as the exact image is
        assert min(got._lead()[1], 0) == min(want._lead()[1], 0)
        formed = set(x.terms)
        for i, c in x.terms.items():
            v = p * min(c._val_floor(), ext.principal_prec(i)) - i * b
            formed |= {k for k in range(i + 1) if p * v + (p - 1) * b * k < 0}
        assert set(got.terms) == formed

    def test_principal_part_windows(self):
        # v_F(pi^e y^i) = 5e - 3i < 0 exactly for e < ceil(3i/5)
        ext = ASExtension(5, monomial(5, 1, -3, 100))
        x = ext.element({i: LaurentSeries(5, [(e, 1) for e in range(-3, 5)], 50) for i in range(5)})
        cut = x.principal_part()
        assert [cut.terms[i].prec for i in range(5)] == [0, 1, 2, 2, 3]
        assert cut._lead()[1] >= 0 and (x - cut).is_integral()

    def test_is_integral(self):
        ext = ext_for(3, 1)
        assert ext.element({}).is_integral()
        assert ext.element({0: monomial(3, 1, 0, 5)}).is_integral()
        assert ext.element({1: monomial(3, 1, 1, 5)}).is_integral()  # v_F = 2
        assert not ext.y().is_integral()  # v_F = -1
        assert not ext.element({0: zero(3, -1)}).is_integral()  # unknown below v_F = -3

    def test_insufficient_precision(self):
        # known only below pi^-4: the residual after the step at pi^-9 is not
        # known to O_F
        ext = ASExtension(3, monomial(3, 1, -1, 400))
        delta = ext.element({0: LaurentSeries(3, [(-9, 1), (-5, 1)], -4)})
        res = as_reduce_F_mod_O(delta)
        assert res.outcome.break_value == 13
        assert not (delta - res.witness.principal_wp() - res.reduced).is_integral()
        with pytest.raises(InsufficientPrecisionError):
            as_reduce_F_mod_O(ext.element({0: monomial(3, 1, 0, 400), 1: zero(3, -1)}))

    @pytest.mark.parametrize("p", [10007, 1000003])
    def test_large_p_costs_what_small_p_costs(self, p):
        """At (2, 7) the witness degree is i' = (p + 9)/2, but only the
        components below O_F are formed."""
        with within(1, f"p = {p}"):
            ext, delta = tower_datum(p, 2, 7)
            res = as_reduce_F_mod_O(delta)
        assert res.outcome.break_value == 2 * 2 + p * 5
        assert max(len(res.witness.principal_wp().terms), len(res.reduced.terms)) <= 8

"""Differential tests of the Artin-Schreier tower against an independent
model of F = K(y) as a Laurent series field.

K = F_p((x)) and F = K(y) with y^p - y = beta, v_K(beta) = -b, p ∤ b.
F/K is totally ramified of degree p with residue field F_p, so F is itself
a Laurent series field F_p((t)) (Serre, *Local Fields*, ch. II §4), with
v_t = v_F.  Write beta = x^-b u(x) with u a unit, lam = u(0).  Then
y = lam t^-b solves y^p - y = beta when x = t^p h and

    h^b = u(t^p h) / (lam (1 - t^(b(p-1)))),

whose right side depends on h only through t^p h: the iteration below gains
at least p - 1 coefficients of h per round.  An element sum c_i(x) y^i maps
to sum c_i(t^p h) (lam t^-b)^i, and `as_reduce_K` on that image gives the
break over F without `ASExtension`.

Component precisions carry over: unknown coefficients of c_i from x^prec on
map to t-valuations p*prec - i*b and up, so an image is known exactly as far
as `ASElement` claims to know the element (the model's own window is chosen
wide enough never to be the limit in the valuation test).  An absent
y-degree is an exact zero and adds nothing to the image.
"""

import operator
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramforge.astower import ASExtension, as_reduce_F, as_reduce_K
from ramforge.errors import InsufficientPrecisionError
from ramforge.forge import P3Parameters, build_p3_tower
from ramforge.laurent import INF, LaurentSeries, monomial, parse_series, zero

EXACT = 10**6  # precision of the exact monomials t^k


class FModel:
    """F = K(y) as F_p((t)), known to ``window`` coefficients past each
    image's valuation."""

    def __init__(self, beta: LaurentSeries, window: int):
        p, b = beta.p, -beta.val
        self.p, self.window = p, window
        unit = beta * monomial(p, 1, b, EXACT)
        lam = unit.leading_coefficient()
        # (1 - t^(b(p-1)))^-1 / lam
        rhs = LaurentSeries(p, [(k, 1) for k in range(0, window, b * (p - 1))], window)
        rhs = rhs * pow(lam, -1, p)
        inv_b = pow(b, -1, p)
        h = monomial(p, 1, 0, window)
        while True:
            self.x = monomial(p, 1, p, EXACT) * h
            step = (h**b - self._horner(unit) * rhs) * inv_b
            if step.is_zero():
                break
            h = h - step
        self.x_inv = self.x.inverse()
        self.y = monomial(p, lam, -b, EXACT)

    def _horner(self, c: LaurentSeries) -> LaurentSeries:
        """sum_k c_(v+k) x^k for the coefficients of c from its valuation v
        that can matter within the window."""
        top = min(c.prec, c.val + self.window // self.p + 1)
        acc = zero(self.p, self.window)
        for e in range(top - 1, c.val - 1, -1):
            acc = acc * self.x + c.coefficient(e)
        return acc

    def of_K(self, c: LaurentSeries) -> LaurentSeries:
        """The image c(t^p h), exact to t-precision p * c.prec."""
        cut = zero(self.p, self.p * c.prec)
        if c.is_zero():
            return cut
        shift = self.x**c.val if c.val >= 0 else self.x_inv ** (-c.val)
        return self._horner(c) * shift + cut

    def of_F(self, elt) -> LaurentSeries:
        """The image of an ASElement, over its stored components."""
        out = zero(self.p, EXACT)
        for i, c in elt.terms.items():
            out = out + self.of_K(c) * self.y**i
        return out


@cache
def _model(beta_text: str, window: int) -> FModel:
    return FModel(parse_series(beta_text), window)


def model(beta: LaurentSeries, window: int) -> FModel:
    return _model(beta.to_text(), window)


# -- tower certificates -------------------------------------------------------


@st.composite
def towers(draw):
    """(p, b, a) valid for `P3Parameters.derive`, and a beta unit or None."""
    p = draw(st.sampled_from([3, 5, 7]))
    b = draw(st.integers(1, 2 * p).filter(lambda b: b % p))
    a = draw(st.integers(b + 1, b + 2 * p).filter(lambda a: a % p and (a + b) % p))
    unit = None
    if draw(st.booleans()):
        tail = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=6))
        lead = draw(st.integers(1, p - 1))
        unit = LaurentSeries(p, enumerate([lead] + tail), 64)
    return p, b, a, unit


@settings(max_examples=30, deadline=None)
@given(towers())
@example((3, 1, 4, None))
@example((7, 3, 5, parse_series("p=7 prec=64 : 0:3 1:1 2:5")))
def test_tower_break_matches_model(tower):
    """The certificate's machine break and residual valuation are those of
    the tower's datum reduced in F_p((t)), and the F-side reduction's
    witness identity holds there too."""
    p, b, a, unit = tower
    params = P3Parameters.derive(p, b, a)
    precision = 64
    cert = build_p3_tower(params, precision=precision, beta_unit=unit)
    out = dict(next(s.outputs for s in cert.steps if s.rule == "wild-reduce-ext"))

    window = max(precision, 4 * p * a)  # as the builder's
    beta = monomial(p, 1, -b, -b + window)
    if unit is not None:
        beta = beta * unit
    alpha = monomial(p, 1, -p * params.s, -p * params.s + window) * beta**params.t
    # past the datum's valuation -p(a + b) to t^0, and on to the residual
    m = model(beta, p * (a + b) + 2 * b * p + 40)
    image = m.of_K(alpha) * m.y + m.of_K(alpha) * m.of_K(beta) * params.r
    red = as_reduce_K(image)
    assert red.outcome.is_wild
    assert red.outcome.break_value == int(out["machine_break"]) == 2 * b + p * (a - b)
    assert red.reduced.valuation() == int(out["residual_valuation"])

    ext = ASExtension(p, beta)
    delta = ext.element({0: alpha * beta * params.r, 1: alpha})
    assert m.of_F(delta) == image
    res = as_reduce_F(delta)
    w = m.of_F(res.witness)
    reduced = m.of_F(res.reduced)
    assert reduced.valuation() == int(out["residual_valuation"])
    assert image - (w.frobenius() - w) == reduced
    assert cert.witness == Fraction(a * p + b, p)


# -- element arithmetic ---------------------------------------------------------


def _datum(p, b, dense):
    beta = monomial(p, 1, -b, EXACT // 2)
    if dense:
        beta = beta * LaurentSeries(p, [(0, 2), (1, 1), (3, p - 1)], EXACT // 2)
    return beta


@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_beta_power_is_series_power(p, dense):
    """The extension's chain of beta powers gives beta**k, coefficient by
    coefficient and with its precision, for every k <= p - 1, whatever
    power is asked for first: the exact p-th power takes its powers of beta
    from that chain."""
    beta = monomial(p, 1, -2, 200)
    if dense:
        beta = beta * LaurentSeries(p, [(0, 2), (1, 1), (3, p - 1)], 200)
    ext = ASExtension(p, beta)
    for k in [p - 1, *range(p)]:
        got, want = ext.beta_power(k), beta**k
        assert (got.val, list(got.coeffs), got.prec) == (want.val, list(want.coeffs), want.prec)


@st.composite
def elements(draw, count):
    """An extension and ``count`` elements of it.  Each element has a few
    components, each a short series with its own precision; the other
    y-degrees are absent."""
    p = draw(st.sampled_from([3, 5, 7]))
    b = draw(st.integers(1, 4).filter(lambda b: b % p))
    beta = _datum(p, b, draw(st.booleans()))
    out = []
    for _ in range(count):
        degrees = draw(st.sets(st.integers(0, p - 1), max_size=p))
        comps = {}
        for i in degrees:
            val = draw(st.integers(-4, 4))
            coeffs = draw(st.lists(st.integers(0, p - 1), max_size=5))
            prec = draw(st.integers(val + 1, 12))
            comps[i] = LaurentSeries(p, [(val + k, c) for k, c in enumerate(coeffs)], prec)
        out.append(comps)
    return ASExtension(p, beta), out


def _window(ext):
    """A model window of at least p * (prec - val) for every component
    ``elements`` draws."""
    return 20 * ext.p


@settings(max_examples=40, deadline=None)
@given(elements(2))
def test_add_sub_match_model(drawn):
    """Sums are known exactly as far as the model knows them."""
    ext, (cu, cv) = drawn
    m = model(ext.beta, _window(ext))
    u, v = ext.element(cu), ext.element(cv)
    for got, want in ((m.of_F(u + v), m.of_F(u) + m.of_F(v)), (m.of_F(u - v), m.of_F(u) - m.of_F(v))):
        assert got == want and got.prec == want.prec


@settings(max_examples=40, deadline=None)
@given(elements(2))
def test_mul_matches_model(drawn):
    ext, (cu, cv) = drawn
    m = model(ext.beta, _window(ext))
    u, v = ext.element(cu), ext.element(cv)
    assert m.of_F(u * v) == m.of_F(u) * m.of_F(v)


@settings(max_examples=40, deadline=None)
@given(elements(1))
def test_pth_power_matches_model(drawn):
    ext, (cu,) = drawn
    m = model(ext.beta, _window(ext))
    u = ext.element(cu)
    assert m.of_F(u.pth_power()) == m.of_F(u).frobenius()
    assert m.of_F(u.wp()) == m.of_F(u).wp()


def _check_valuation(m, elt):
    image = m.of_F(elt)
    if not image.is_zero():
        assert elt.valuation() == image.val
    elif elt.is_zero():
        assert elt.valuation() == INF
    else:
        with pytest.raises(InsufficientPrecisionError):
            elt.valuation()


@settings(max_examples=40, deadline=None)
@given(elements(1))
def test_valuation_matches_model(drawn):
    """A valuation is certified exactly when the model knows the image's
    leading term, and then they agree."""
    ext, (cu,) = drawn
    _check_valuation(model(ext.beta, _window(ext)), ext.element(cu))


@pytest.mark.parametrize("p,b", [(3, 2), (5, 3), (7, 4)])
def test_absent_degrees_are_exact_zeros(p, b):
    """A lone degree-0 component known one coefficient past its valuation:
    the absent degrees are exact zeros, so its valuation -2p is certified
    even where (p - 1) b > p."""
    ext = ASExtension(p, _datum(p, b, False))
    elt = ext.element({0: monomial(p, 1, -2, -1)})
    assert elt.valuation() == -2 * p
    _check_valuation(model(ext.beta, _window(ext)), elt)


def _perturb(data, comps):
    """Each component with random coefficients added at and above its
    precision, and known further: an element its original precision
    cannot tell from the original."""
    out = {}
    for i, c in comps.items():
        noise = data.draw(st.lists(st.integers(0, c.p - 1), min_size=1, max_size=6))
        pairs = [(c.val + k, x) for k, x in enumerate(c.coeffs)]
        pairs += [(c.prec + k, x) for k, x in enumerate(noise)]
        out[i] = LaurentSeries(c.p, pairs, c.prec + len(noise))
    return out


def _assert_agrees(got, want, what):
    """``got`` equals ``want`` on every component, up to the precision that
    component of ``want`` claims; a degree ``want`` lacks is zero in ``got``."""
    for i, w in want.terms.items():
        g = got.terms.get(i, zero(w.p, w.prec))
        assert g.prec >= w.prec and g == w, f"{what}: y^{i} is {g}, claimed {w}"
    for i, g in got.terms.items():
        assert i in want.terms or g.is_zero(), f"{what}: y^{i} is {g}, claimed exact 0"


@settings(max_examples=60, deadline=None)
@given(elements(2), st.data())
def test_arithmetic_sound_under_perturbation(drawn, data):
    """Changing the operands beyond their precision changes no result
    within the precision the result claims."""
    ext, (cu, cv) = drawn
    u, v = ext.element(cu), ext.element(cv)
    u2, v2 = ext.element(_perturb(data, cu)), ext.element(_perturb(data, cv))
    for name, op in (("+", operator.add), ("-", operator.sub), ("*", operator.mul)):
        _assert_agrees(op(u2, v2), op(u, v), f"u {name} v")
    _assert_agrees(u2.pth_power(), u.pth_power(), "u^p")
    _assert_agrees(u2.wp(), u.wp(), "wp(u)")

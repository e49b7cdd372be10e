"""Arithmetic in a single Artin-Schreier extension F = K(y), y^p - y = beta.

The datum beta must satisfy v_K(beta) = -b < 0 with p not dividing b, which
makes F/K totally ramified of degree p with ramification break b.  Elements
of F are polynomials c_0 + c_1 y + ... + c_{p-1} y^{p-1} with Laurent series
components, of which only the present ones are stored: an absent y-degree
is an exact zero, and a stored component that is zero to its precision is
a zero known only that far.  Arithmetic combines the stored components
with the series' own precision rules, so no result claims a coefficient
that its operands leave undetermined (the standard model of p-adic
precision; X. Caruso, "Computations with p-adic numbers", 2017).

Since gcd(b, p) = 1 the valuations p*v_K(c_i) - i*b of the monomials are
pairwise distinct mod p, so the valuation of a nonzero element is always
attained by a unique component.

The reduction functions replace a datum by a representative of the same
class modulo the Artin-Schreier operator with maximal valuation, which
certifies the ramification break of the degree-p extension it generates.
Each returns the accumulated witness w with reduced = delta - wp(w), so the
claim can be re-checked by direct arithmetic.

The break over F depends only on the class of the datum modulo
wp(F) + O_F (Serre, *Local Fields*, IV-V), and that is how the tower's top
step reduces it (`as_reduce_F_mod_O`): every element keeps only its
principal part, the degree-i component below exponent ceil(i*b/p), and of
each wp(w) only the few components that reach negative v_F are formed, so
the cost does not grow with p.  The exact `as_reduce_F` forms all p
components of every wp(w) and stays the reference.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InsufficientPrecisionError, InternalCheckError, ParameterError
from .laurent import INF, LaurentSeries, _from_dense, require_odd_prime


@dataclass(frozen=True)
class BreakOutcome:
    """Result kind of a reduction: a wild break, or a nonnegative residual.

    A nonnegative residual means the class contains an element of
    valuation >= 0 (extension unramified or split; not distinguished).
    """

    kind: str  # "wild" | "nonnegative"
    break_value: int | None = None

    def __post_init__(self):
        if self.kind == "wild":
            if self.break_value is None or self.break_value <= 0:
                raise ParameterError("wild outcome requires a positive break")
        elif self.kind != "nonnegative":
            raise ParameterError(f"unknown outcome kind {self.kind!r}")

    @property
    def is_wild(self) -> bool:
        return self.kind == "wild"


class ASExtension:
    """Handle for F = K(y) with y^p = y + beta, v_K(beta) = -b, p ∤ b."""

    __slots__ = ("p", "beta", "b", "_beta_powers")

    def __init__(self, p: int, beta: LaurentSeries):
        require_odd_prime(p)
        if beta.p != p:
            raise ParameterError(f"modulus mismatch: {p} vs {beta.p}")
        v = beta.valuation()
        if v is INF or v >= 0:
            raise ParameterError(
                "v(beta) must be negative; reduce the datum with as_reduce_K first"
            )
        if v % p == 0:
            raise ParameterError(
                f"v(beta) = {v} is divisible by p = {p}; "
                "reduce the datum with as_reduce_K first"
            )
        self.p = p
        self.beta = beta
        self.b = -v
        self._beta_powers = [_from_dense(p, 0, (1,), beta.prec - v)]

    def beta_power(self, k: int) -> LaurentSeries:
        """beta^k for 0 <= k <= p-1, computed up to the largest k asked for."""
        powers = self._beta_powers
        while len(powers) <= k:
            powers.append(powers[-1] * self.beta)
        return powers[k]

    def principal_prec(self, i: int) -> int:
        """ceil(i*b/p): the degree-i terms below it are those of negative v_F."""
        return -(-i * self.b // self.p)

    def element(self, comps: dict[int, LaurentSeries]) -> "ASElement":
        """Build an element from a sparse degree -> component mapping."""
        return ASElement(self, dict(comps))

    def y(self, prec: int | None = None) -> "ASElement":
        pr = self.beta.prec if prec is None else prec
        return self.element({1: _from_dense(self.p, 0, (1,), pr)})

    def monomial_element(self, coeff: int, exp: int, degree: int, prec: int) -> "ASElement":
        return self.element({degree: _from_dense(self.p, exp, (coeff % self.p,), prec)})

    def zero_element(self, prec: int) -> "ASElement":
        """Zero known to ``prec``, stored as the degree-0 component."""
        return self.element({0: _from_dense(self.p, 0, (), prec)})

    def __repr__(self):
        return f"ASExtension(p={self.p}, b={self.b})"


def _accumulate(acc: dict[int, LaurentSeries], k: int, term: LaurentSeries) -> None:
    acc[k] = acc[k] + term if k in acc else term


class ASElement:
    """An element sum(c_i * y^i, i < p) of F = K(y).

    Only the components it has are stored, in ``terms`` (y-degree ->
    series), and every absent degree is an exact zero.  A stored component
    that is zero to its precision stays stored: it bounds what the element
    is known to.
    """

    __slots__ = ("ext", "terms")

    def __init__(self, ext: ASExtension, terms: dict[int, LaurentSeries]):
        for i, c in terms.items():
            if not 0 <= i < ext.p:
                raise ParameterError(f"y-degree must lie in [0, {ext.p}), got {i}")
            if c.p != ext.p:
                raise ParameterError("component modulus mismatch")
        self.ext = ext
        self.terms = terms

    @property
    def comps(self) -> tuple[LaurentSeries, ...]:
        """All p components; an absent degree, an exact zero, shows as a
        zero series at the largest stored precision."""
        zero = _from_dense(self.ext.p, 0, (), self._max_prec())
        return tuple(self.terms.get(i, zero) for i in range(self.ext.p))

    def _check_same_ext(self, other: "ASElement") -> None:
        if not isinstance(other, ASElement):
            raise TypeError(f"expected ASElement, got {type(other).__name__}")
        if other.ext is not self.ext and (
            other.ext.p != self.ext.p or other.ext.beta != self.ext.beta
        ):
            raise ParameterError("elements live in different extensions")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        self._check_same_ext(other)
        terms = dict(self.terms)
        for i, c in other.terms.items():
            _accumulate(terms, i, c)
        return ASElement(self.ext, terms)

    def __sub__(self, other):
        self._check_same_ext(other)
        terms = dict(self.terms)
        for i, c in other.terms.items():
            terms[i] = terms[i] - c if i in terms else -c
        return ASElement(self.ext, terms)

    def __mul__(self, other):
        if isinstance(other, int):
            return ASElement(self.ext, {i: c * other for i, c in self.terms.items()})
        self._check_same_ext(other)
        p = self.ext.p
        beta = self.ext.beta
        conv: dict[int, LaurentSeries] = {}
        for i, a in self.terms.items():
            for j, b in other.terms.items():
                _accumulate(conv, i + j, a * b)
        # fold y^k = y^(k-p) * (y + beta) for k >= p; k - p + 1 < p
        for k in [k for k in conv if k >= p]:
            c = conv.pop(k)
            _accumulate(conv, k - p + 1, c)
            _accumulate(conv, k - p, c * beta)
        return ASElement(self.ext, conv)

    __rmul__ = __mul__

    def _max_prec(self) -> int:
        """The largest stored precision; beta's for an exact zero."""
        return max((c.prec for c in self.terms.values()), default=self.ext.beta.prec)

    def pth_power(self) -> "ASElement":
        """Frobenius power via (sum c_i y^i)^p = sum c_i^p (y + beta)^i."""
        p = self.ext.p
        acc: dict[int, LaurentSeries] = {}
        for i, c in self.terms.items():
            cf = c.frobenius()
            binom = 1  # C(i, k) mod p, as C(i, k - 1) * (i - k + 1) / k
            for k in range(i + 1):
                if k:
                    binom = binom * (i - k + 1) * pow(k, -1, p) % p
                _accumulate(acc, k, cf * binom * self.ext.beta_power(i - k))
        return ASElement(self.ext, acc)

    def wp(self) -> "ASElement":
        """Artin-Schreier operator on F: u -> u^p - u."""
        return self.pth_power() - self

    # -- modulo O_F ---------------------------------------------------------

    def principal_part(self) -> "ASElement":
        """The element modulo O_F: each stored component cut to its terms of
        negative v_F, the degree-i one to exponents below ceil(i*b/p)."""
        ext = self.ext
        return ASElement(ext, {i: c.truncate(ext.principal_prec(i)) for i, c in self.terms.items()})

    def principal_wp(self) -> "ASElement":
        """wp(self) modulo O_F, which wp maps into itself.

        Each stored c*y^i is first cut to its principal part; say it has
        v = v_F(c*y^i) = p*v_K(c) - i*b.  The y^k part C(i, k) c^p beta^(i-k)
        of its p-th power has v_F >= p*v + (p-1)*b*k, so only the k with
        that bound negative are formed.  Each is wanted to exponent
        ceil(k*b/p), at most -v past its K-valuation, so beta cut to
        relative precision -v serves every k: the least power is taken by
        squaring and each next one by one multiply.
        """
        ext = self.ext
        p, b = ext.p, ext.b
        acc: dict[int, LaurentSeries] = {}
        for i, c in self.terms.items():
            c = c.truncate(ext.principal_prec(i))
            _accumulate(acc, i, -c)
            v = p * c._val_floor() - i * b
            top = min(i, (-p * v - 1) // ((p - 1) * b))  # the largest k with a negative bound
            if top < 0:
                continue
            binoms = [1]  # C(i, k) mod p, as C(i, k - 1) * (i - k + 1) / k
            for k in range(1, top + 1):
                binoms.append(binoms[-1] * (i - k + 1) * pow(k, -1, p) % p)
            beta = ext.beta.truncate(-b - v)
            cf = c.frobenius()
            power = beta ** (i - top)
            for k in range(top, -1, -1):
                _accumulate(acc, k, (cf * binoms[k] * power).truncate(ext.principal_prec(k)))
                if k:
                    power = power * beta
        return ASElement(ext, acc)

    def is_integral(self) -> bool:
        """True if the element is known to lie in O_F: it has no term of
        negative v_F, and every component is known that far."""
        lead, floor = self._lead()
        return floor >= 0 and (lead is None or lead[0] >= 0)

    # -- valuation ----------------------------------------------------------

    def _lead(self) -> tuple[tuple[int, int, int, int] | None, int | float]:
        """(valuation, y-degree, pi-exponent, coefficient) of the
        valuation-minimal term, or None for zero to precision, and the floor
        from the precision windows of the stored components (INF for an
        exact zero).  The term is unique, since its degree fixes v mod p."""
        p, b = self.ext.p, self.ext.b
        lead = min(
            ((p * c.val - i * b, i, c.val, c.coeffs[0]) for i, c in self.terms.items() if c.coeffs),
            default=None,
        )
        floor = min((p * c.prec - i * b for i, c in self.terms.items()), default=INF)
        return lead, floor

    def valuation(self):
        """Certified valuation in Z, or INF for zero-up-to-precision."""
        lead, floor = self._lead()
        if lead is None:
            return INF
        if lead[0] > floor:
            raise InsufficientPrecisionError(
                f"valuation {lead[0]} not certified: components unknown below {floor}"
            )
        return lead[0]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.terms.values())

    # -- comparison / io ----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ASElement):
            return NotImplemented
        return (
            self.ext.p == other.ext.p
            and self.ext.beta == other.ext.beta
            and (self - other).is_zero()
        )

    __hash__ = None

    def to_text(self) -> str:
        """The stored components in degree order."""
        return " | ".join(f"y^{i}: {c.to_text()}" for i, c in sorted(self.terms.items()))

    def __repr__(self):
        return f"ASElement({self.to_text()!r})"


@dataclass(frozen=True)
class Reduction:
    """The residual, the outcome it certifies, and the witness w with
    reduced = delta - wp(w); series over K, elements over F."""

    reduced: LaurentSeries | ASElement
    outcome: BreakOutcome
    witness: LaurentSeries | ASElement


def as_reduce_K(delta: LaurentSeries) -> Reduction:
    """Reduce delta mod wp(K) and certify the break it defines over K.

    While the residual has negative valuation divisible by p, the leading
    term c*pi^v is killed by subtracting wp(c*pi^(v/p)); in F_p the p-th
    root of c is c itself.  The final valuation is either >= 0 (nonnegative
    residual) or negative and prime to p, in which case its negative is the
    ramification break.
    """
    p = delta.p
    witness = _from_dense(p, 0, (), delta.prec)
    reduced = delta
    guard = 0
    while True:
        v = reduced.valuation()  # INF when zero to precision
        if v >= 0:  # a nonzero residual is known past v, so only a zero one can fail
            if reduced.prec < 0:
                raise InsufficientPrecisionError(
                    f"residual is zero to precision {reduced.prec} < 0"
                )
            outcome = BreakOutcome("nonnegative")
            break
        if v % p != 0:
            outcome = BreakOutcome("wild", -v)
            break
        c = reduced.leading_coefficient()
        # exact, and known far enough that its wp loses none of reduced.prec
        step = _from_dense(p, v // p, (c,), max(reduced.prec, -(-reduced.prec // p)))
        reduced = reduced - step.wp()
        witness = witness + step
        guard += 1
        if guard > abs(v) + 8:
            raise InternalCheckError("K-reduction failed to make progress")
    return Reduction(reduced, outcome, witness)


def _witness_monomial(ext: ASExtension, j: int, c: int) -> tuple[int, int, int]:
    """(i', j', c') of the monomial w = c'*pi^j'*y^i' whose wp leads with
    c*pi^j in degree 0: the leading term of w^p is c'*pi^(p*j')*lead(beta)^i'
    in degree 0, so i' = -j/b mod p, j' = (j + i'*b)/p and
    c' = c / lead(beta)^i'."""
    p, b = ext.p, ext.b
    i_new = (-j * pow(b, -1, p)) % p
    if (j + i_new * b) % p:
        raise InternalCheckError("witness exponent is not divisible by p")
    return i_new, (j + i_new * b) // p, c * pow(ext.beta.leading_coefficient(), -i_new, p) % p


def as_reduce_F(delta: ASElement) -> Reduction:
    """Reduce delta mod wp(F) and certify the break it defines over F.

    A residual with v_F divisible by p necessarily has its leading term in
    the degree-0 component, say c*pi^j with v_F = p*j.  The unique witness
    monomial w = c'*pi^j'*y^i' with wp(w) matching that term has
    i' = -j/b mod p, j' = (j + i'*b)/p, and c' = c / lead(beta)^i'; each
    subtraction strictly increases v_F.  Every element is kept exactly,
    every component of each wp(w) included.
    """
    ext = delta.ext
    p, b = ext.p, ext.b
    witness = ext.zero_element(delta._max_prec())
    reduced = delta
    guard = 0
    start = None
    while True:
        lead, floor = reduced._lead()
        if lead is None or lead[0] >= 0:
            if floor < 0:
                raise InsufficientPrecisionError(
                    f"residual is nonnegative only to precision floor {floor} < 0"
                )
            outcome = BreakOutcome("nonnegative")
            break
        v, i0, j, c = lead
        if v > floor:
            raise InsufficientPrecisionError(
                f"leading term at {v} not certified: unknown below {floor}"
            )
        if v % p != 0:
            outcome = BreakOutcome("wild", -v)
            break
        if start is None:
            start = v
        if i0 != 0:
            raise InternalCheckError(
                f"p-divisible valuation attained at y-degree {i0} != 0"
            )
        i_new, j_new, c_new = _witness_monomial(ext, j, c)
        # exact, and known far enough that wp(step) loses none of the floor:
        # its degree-0 p-th power term needs p^2*prec - p*b*i' >= floor,
        # and -step needs p*prec - b*i' >= floor
        prec = max(
            j_new + 1,
            reduced._max_prec(),
            -(-(floor + p * b * i_new) // (p * p)),
            -(-(floor + b * i_new) // p),
        )
        step = ext.monomial_element(c_new, j_new, i_new, prec)
        reduced = reduced - step.wp()
        witness = witness + step
        guard += 1
        if guard > abs(start) + 8:
            raise InternalCheckError("F-reduction failed to make progress")
    return Reduction(reduced, outcome, witness)


def as_reduce_F_mod_O(delta: ASElement) -> Reduction:
    """as_reduce_F on principal parts, at a cost independent of p.

    The break depends only on delta modulo wp(F) + O_F: by Hensel's lemma
    the maximal ideal lies in wp(F), and a constant changes the extension
    only by an unramified twist.  A leading term of negative v_F is the same
    modulo O_F, so the steps, the outcome and a wild residual's valuation
    are as_reduce_F's; the residual is the exact one's principal part, and
    delta - w.principal_wp() - reduced is integral.
    """
    ext = delta.ext
    reduced = delta.principal_part()
    witness = ext.element({})
    last = -INF  # each step must raise the leading v_F
    while True:
        lead, floor = reduced._lead()
        if lead is None or lead[0] >= 0:
            if floor < 0:
                raise InsufficientPrecisionError(
                    f"residual is nonnegative only to precision floor {floor} < 0"
                )
            return Reduction(reduced, BreakOutcome("nonnegative"), witness)
        v, i0, j, c = lead
        if v > floor:
            raise InsufficientPrecisionError(
                f"leading term at {v} not certified: unknown below {floor}"
            )
        if v % ext.p != 0:
            return Reduction(reduced, BreakOutcome("wild", -v), witness)
        if i0 != 0:
            raise InternalCheckError(f"p-divisible valuation attained at y-degree {i0} != 0")
        if v <= last:
            raise InternalCheckError("F-reduction failed to make progress")
        last = v
        i_new, j_new, c_new = _witness_monomial(ext, j, c)
        step = ext.monomial_element(c_new, j_new, i_new, ext.principal_prec(i_new))
        reduced = reduced - step.principal_wp()
        witness = witness + step

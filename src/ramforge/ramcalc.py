"""Break calculus for totally ramified Galois extensions of degree m*p^n.

Positive breaks are kept as exact rationals in a sorted multiset together
with the tame degree m; the zero break exists exactly when m > 1 and is
not stored.  Lower numbering is related to upper numbering by the
recursion

    u_{i+1} - u_i = (b_{i+1} - b_i) / (m * p^i),    u_0 = b_0 = 0,

with breaks counted with multiplicity.  Lower breaks are always positive
integers; an upper multiset whose inversion is nonintegral is not
realizable by any extension.

The recursions run on integers.  Upper break i is N_i / (m * p^(i-1))
with N_i = p * N_(i-1) + (b_i - b_(i-1)), so one `Fraction` is built per
break.  Going down, (u_i - u_(i-1)) * m * p^(i-1) is one integer quotient,
and a nonzero remainder is exactly a nonintegral lower break.  Order and
equality of breaks are cross-multiplied integer comparisons of their
numerators and denominators.

A break is written, and read back, as an integer or ``int/int``; no
other form is read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import ParameterError, ParseError, UnrealizableMultisetError
from .laurent import require_odd_prime

# the forms `BreakMultiset.to_text` writes: an integer, or int/int with a
# nonzero denominator
_BREAK = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?")


def _read_break(token: str) -> Fraction:
    """A break token of the form ``_BREAK``.  ``Fraction(token)`` would also
    read decimals and exponent forms, and expands ``1e1000000000`` without
    bound."""
    token = token.strip()
    try:
        if _BREAK.fullmatch(token):
            return Fraction(*map(int, token.split("/")))
    except ValueError:  # more digits than int() converts
        pass
    raise ParseError(f"malformed break {token!r}: expected an integer or int/int")


@dataclass(frozen=True)
class BreakMultiset:
    """Sorted multiset of positive breaks with numbering and tame degree."""

    numbering: str  # "lower" | "upper"
    m: int
    p: int
    breaks: tuple[Fraction, ...]

    def __post_init__(self):
        require_odd_prime(self.p)
        if self.numbering not in ("lower", "upper"):
            raise ParameterError(f"numbering must be lower or upper, got {self.numbering!r}")
        if self.m < 1 or gcd(self.m, self.p) != 1:
            raise ParameterError(f"tame degree m={self.m} must be positive and prime to p={self.p}")
        bs = tuple(b if isinstance(b, Fraction) else Fraction(b) for b in self.breaks)
        positive = ordered = integral = True
        n0, d0 = 0, 1
        for b in bs:
            n, d = b.numerator, b.denominator
            positive = positive and n > 0
            ordered = ordered and n0 * d <= n * d0
            integral = integral and d == 1
            n0, d0 = n, d
        if not positive:
            raise ParameterError("breaks must be positive")
        if not ordered:
            raise ParameterError("breaks must be sorted ascending")
        if self.numbering == "lower" and not integral:
            raise ParameterError("lower breaks must be integers")
        object.__setattr__(self, "breaks", bs)

    def __len__(self):
        return len(self.breaks)

    def to_text(self) -> str:
        body = ", ".join(str(b) for b in self.breaks)
        head = f"{self.numbering} m={self.m} p={self.p} :"
        return f"{head} {body}" if body else head

    def __str__(self):
        return self.to_text()


def parse_multiset(text: str) -> BreakMultiset:
    """Parse e.g. ``upper m=1 p=3 : 1, 4, 13/3``."""
    head, sep, body = text.partition(" : ")
    if not sep:
        head, sep, body = text.partition(" :")
        if not sep or body.strip():
            raise ParseError(f"malformed multiset text: {text!r}")
        body = ""
    fields = head.split()
    if (
        len(fields) != 3
        or fields[0] not in ("lower", "upper")
        or not fields[1].startswith("m=")
        or not fields[2].startswith("p=")
    ):
        raise ParseError(f"malformed multiset header: {head!r}")
    try:
        m = int(fields[1][2:])
        p = int(fields[2][2:])
    except ValueError as exc:
        raise ParseError(f"malformed multiset text: {text!r}") from exc
    breaks = tuple(_read_break(tok) for tok in body.split(",") if tok.strip())
    try:
        return BreakMultiset(fields[0], m, p, breaks)
    except ParameterError as exc:
        raise ParseError(str(exc)) from exc


def lower_to_upper(bm: BreakMultiset) -> BreakMultiset:
    """Convert lower breaks to upper breaks by the standard recursion."""
    if bm.numbering != "lower":
        raise ParameterError("lower_to_upper expects a lower-numbered multiset")
    us: list[Fraction] = []
    num, lo, scale = 0, 0, bm.m  # u_i = num / scale, u_0 = b_0 = 0
    for b in bm.breaks:
        b = b.numerator
        num, lo = num * bm.p + b - lo, b
        us.append(Fraction(num, scale))
        scale *= bm.p
    return BreakMultiset("upper", bm.m, bm.p, tuple(us))


def upper_to_lower(bm: BreakMultiset) -> BreakMultiset:
    """Invert the recursion; nonintegral lower breaks mean the multiset is
    not realizable by an extension."""
    if bm.numbering != "upper":
        raise ParameterError("upper_to_lower expects an upper-numbered multiset")
    bs: list[int] = []
    b, n0, d0, scale = 0, 0, 1, bm.m  # b_0 = u_0 = n0/d0 = 0, as in lower_to_upper
    for i, u in enumerate(bm.breaks):
        n, d = u.numerator, u.denominator
        # b_i - b_(i-1) = (u_i - u_(i-1)) * scale = (n*d0 - n0*d) * scale / (d*d0)
        step, rem = divmod((n * d0 - n0 * d) * scale, d * d0)
        b += step
        if rem or b <= 0:
            raise UnrealizableMultisetError(
                f"upper multiset {bm.to_text()!r} is not realizable: "
                f"lower break {i + 1} would be {b + Fraction(rem, d * d0)}"
            )
        bs.append(b)
        n0, d0, scale = n, d, scale * bm.p
    return BreakMultiset("lower", bm.m, bm.p, tuple(bs))


def _rank(bs: tuple[Fraction, ...], x: Fraction) -> tuple[int, bool]:
    """How many of the sorted breaks ``bs`` lie below ``x``, and whether
    ``x`` is one of them."""
    n, d = x.numerator, x.denominator
    for k, y in enumerate(bs):
        c = y.numerator * d - n * y.denominator
        if c >= 0:
            return k, c == 0
    return len(bs), False


def compose_disjoint(u1: BreakMultiset, u2: BreakMultiset) -> BreakMultiset:
    """Upper breaks of a compositum of p-extensions with disjoint break sets."""
    for u in (u1, u2):
        if u.numbering != "upper":
            raise ParameterError("compose_disjoint expects upper-numbered multisets")
        if u.m != 1:
            raise ParameterError("compose_disjoint applies to p-extensions (m = 1)")
    if u1.p != u2.p:
        raise ParameterError(f"prime mismatch: {u1.p} vs {u2.p}")
    xs, ys = u1.breaks, u2.breaks
    merged: list[Fraction] = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        x, y = xs[i], ys[j]
        c = x.numerator * y.denominator - y.numerator * x.denominator
        if c == 0:  # the merge meets the least common value first
            raise ParameterError(f"break sets are not disjoint: common value {x}")
        if c < 0:
            merged.append(x)
            i += 1
        else:
            merged.append(y)
            j += 1
    return BreakMultiset("upper", 1, u1.p, (*merged, *xs[i:], *ys[j:]))


@dataclass(frozen=True)
class Fact1Result:
    """Case split for a C_p^2 central step N/M with two new upper breaks u < v.

    The distinguished intermediate field L0 keeps u and sees relative break
    c; every other intermediate L keeps v and sees relative break b_low.
    The group-theoretic hypotheses that cannot be read off the multisets
    are the certificate's to name as assumptions.
    """

    lower_u: int
    lower_v: int
    l0_breaks: BreakMultiset
    l0_relative_break: int
    other_breaks: BreakMultiset
    other_relative_break: int
    full_breaks: BreakMultiset
    warnings: tuple[str, ...] = ()


def fact1_resolve(u_m: BreakMultiset, u, v) -> Fact1Result:
    u = u if isinstance(u, Fraction) else Fraction(u)
    v = v if isinstance(v, Fraction) else Fraction(v)
    if u_m.numbering != "upper":
        raise ParameterError("fact1_resolve expects an upper-numbered multiset")
    if u.numerator * v.denominator >= v.numerator * u.denominator:
        raise ParameterError(f"need u < v, got u={u}, v={v}")
    bs = u_m.breaks
    (iu, u_in), (iv, v_in) = _rank(bs, u), _rank(bs, v)
    if u_in or v_in:
        raise ParameterError("u and v must not already be breaks of the quotient")
    # iu <= iv as u < v; in the full multiset u sits at iu and v at iv + 1
    full = BreakMultiset("upper", u_m.m, u_m.p, (*bs[:iu], u, *bs[iu:iv], v, *bs[iv:]))
    lowers = upper_to_lower(full)  # raises UnrealizableMultisetError if inconsistent
    lower_u = lowers.breaks[iu].numerator
    lower_v = lowers.breaks[iv + 1].numerator
    warnings = ()
    if iu < len(bs):
        warnings = (f"u = {u} lies below the existing top break {bs[-1]}",)
    l0 = BreakMultiset("upper", u_m.m, u_m.p, (*bs[:iu], u, *bs[iu:]))
    other = BreakMultiset("upper", u_m.m, u_m.p, (*bs[:iv], v, *bs[iv:]))
    return Fact1Result(
        lower_u=lower_u,
        lower_v=lower_v,
        l0_breaks=l0,
        l0_relative_break=lower_v,
        other_breaks=other,
        other_relative_break=lower_u,
        full_breaks=full,
        warnings=warnings,
    )

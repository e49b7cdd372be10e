"""Break calculus for totally ramified Galois extensions of degree m*p^n.

Positive breaks are kept as exact rationals in a sorted multiset together
with the tame degree m; the zero break exists exactly when m > 1 and is
not stored.  Lower numbering is related to upper numbering by the
recursion

    u_{i+1} - u_i = (b_{i+1} - b_i) / (m * p^i),    u_0 = b_0 = 0,

with breaks counted with multiplicity.  Lower breaks are always positive
integers; an upper multiset whose inversion is nonintegral is not
realizable by any extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import ParameterError, ParseError, UnrealizableMultisetError
from .laurent import require_odd_prime


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
        bs = tuple(Fraction(b) for b in self.breaks)
        if any(b <= 0 for b in bs):
            raise ParameterError("breaks must be positive")
        if list(bs) != sorted(bs):
            raise ParameterError("breaks must be sorted ascending")
        if self.numbering == "lower" and any(b.denominator != 1 for b in bs):
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
        breaks = tuple(Fraction(tok.strip()) for tok in body.split(",") if tok.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed multiset text: {text!r}") from exc
    try:
        return BreakMultiset(fields[0], m, p, breaks)
    except ParameterError as exc:
        raise ParseError(str(exc)) from exc


def lower_to_upper(bm: BreakMultiset) -> BreakMultiset:
    """Convert lower breaks to upper breaks by the standard recursion."""
    if bm.numbering != "lower":
        raise ParameterError("lower_to_upper expects a lower-numbered multiset")
    us: list[Fraction] = []
    u, lo, scale = 0, 0, bm.m  # u_0 = b_0 = 0: the first break is one more step
    for b in bm.breaks:
        u += (b - lo) / scale
        lo, scale = b, scale * bm.p
        us.append(u)
    return BreakMultiset("upper", bm.m, bm.p, tuple(us))


def upper_to_lower(bm: BreakMultiset) -> BreakMultiset:
    """Invert the recursion; nonintegral lower breaks mean the multiset is
    not realizable by an extension."""
    if bm.numbering != "upper":
        raise ParameterError("upper_to_lower expects an upper-numbered multiset")
    bs: list[Fraction] = []
    b, lo, scale = 0, 0, bm.m  # b_0 = u_0 = 0, as in lower_to_upper
    for i, u in enumerate(bm.breaks):
        b += (u - lo) * scale
        lo, scale = u, scale * bm.p
        if b.denominator != 1 or b <= 0:
            raise UnrealizableMultisetError(
                f"upper multiset {bm.to_text()!r} is not realizable: "
                f"lower break {i + 1} would be {b}"
            )
        bs.append(b)
    return BreakMultiset("lower", bm.m, bm.p, tuple(bs))


def compose_disjoint(u1: BreakMultiset, u2: BreakMultiset) -> BreakMultiset:
    """Upper breaks of a compositum of p-extensions with disjoint break sets."""
    for u in (u1, u2):
        if u.numbering != "upper":
            raise ParameterError("compose_disjoint expects upper-numbered multisets")
        if u.m != 1:
            raise ParameterError("compose_disjoint applies to p-extensions (m = 1)")
    if u1.p != u2.p:
        raise ParameterError(f"prime mismatch: {u1.p} vs {u2.p}")
    common = set(u1.breaks) & set(u2.breaks)
    if common:
        raise ParameterError(
            f"break sets are not disjoint: common value {sorted(common)[0]}"
        )
    return BreakMultiset("upper", 1, u1.p, tuple(sorted(u1.breaks + u2.breaks)))


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
    u = Fraction(u)
    v = Fraction(v)
    if u_m.numbering != "upper":
        raise ParameterError("fact1_resolve expects an upper-numbered multiset")
    if not u < v:
        raise ParameterError(f"need u < v, got u={u}, v={v}")
    if u in u_m.breaks or v in u_m.breaks:
        raise ParameterError("u and v must not already be breaks of the quotient")
    full = BreakMultiset("upper", u_m.m, u_m.p, tuple(sorted(u_m.breaks + (u, v))))
    lowers = upper_to_lower(full)  # raises UnrealizableMultisetError if inconsistent
    iu = full.breaks.index(u)
    iv = full.breaks.index(v)
    lower_u = int(lowers.breaks[iu])
    lower_v = int(lowers.breaks[iv])
    warnings = ()
    if u_m.breaks and u < max(u_m.breaks):
        warnings = (f"u = {u} lies below the existing top break {max(u_m.breaks)}",)
    l0 = BreakMultiset("upper", u_m.m, u_m.p, tuple(sorted(u_m.breaks + (u,))))
    other = BreakMultiset("upper", u_m.m, u_m.p, tuple(sorted(u_m.breaks + (v,))))
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

"""Machine-checked certificates for extensions with nonintegral upper breaks.

A certificate is a line-oriented text: a parameter block, numbered steps
(each naming a rule with its inputs and outputs), a block of named
assumptions (statements taken on faith, never computed), and the
predicted / field-verified upper break multisets with the nonintegral
witness.  Construction opens the `Certificate` first and emits its steps
and assumptions into it in derivation order, so a step's number is its
position; the certificate writes every recorded value as text.  A verifier
rebuilds the whole derivation from the parameter block, re-executing
every non-assumption step, and demands bit-exact agreement with the
text; the first diverging line is reported.

The central construction is the degree-p^3 tower over K = F_p((pi)):
from a break b prime to p and an integer a > b with a != 0, -b mod p it
produces a group-of-order-p^3 extension whose upper breaks are
{b, a, a + b/p}, with the interior break of the top step certified by an
actual Artin-Schreier reduction in F = K(y) rather than by formula.  That
reduction works modulo O_F, on principal parts, since nothing in O_F moves
the break it records; so the tower costs the same at any p, and only the
series window max(precision, 4*p*a) of beta and alpha grows with it.
Larger targets are reached by composing towers and peeling breaks; the
group-theoretic legs of those arguments are either machine-checked on
materialized groups or recorded as named assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import zip_longest
from math import gcd

from .astower import ASExtension, as_reduce_F_mod_O, as_reduce_K
from .errors import (
    InternalCheckError,
    ParameterError,
    ParseError,
    VerificationMismatchError,
)
from .laurent import LaurentSeries, monomial, parse_series, require_odd_prime
from .pgroups import (
    CyclicPGroup,
    DirectProductGroup,
    PGroup,
    build_A1d_via_Gd,
    burnside_action_check,
    central_product,
    is_abelian,
    is_isomorphic,
    make_group,
    minimal_nonabelian_quotient,
    parse_group_descriptor,
    tables,
)
from .pgroups.base import _extend_partial, _within_limit
from .ramcalc import (
    BreakMultiset,
    compose_disjoint,
    fact1_resolve,
    lower_to_upper,
    parse_multiset,
    upper_to_lower,
)

DEFAULT_PRECISION = 400
# the least series window a builder accepts, so `verify` refuses what `p3` does
MIN_PRECISION = 64

# Group sanity checks inside certificates run only up to this order, below
# DEFAULT_LIMIT; above it they are recorded as assumptions, so a
# certificate's bytes do not follow the materialization limit.  It bounds
# no cost: the form leg checks the one map its construction names, and the
# distinctness leg compares centre orders without a table.
CERT_GROUP_LIMIT = 729

HEADER = "RAMFORGE CERTIFICATE v1"

KINDS = ("p3-tower", "nonint-H", "nonint-A", "nonint-A1d", "pchat", "chat")

RULES = frozenset(
    {
        "cp-break-base",
        "cp-break-aux",
        "wild-reduce-ext",
        "central-cp2-cases",
        "compose-convert",
        "merge-lowers",
        "lower-to-upper",
        "base-realizable",
        "pick-parameters",
        "shared-subfield-break",
        "pick-a-above",
        "union-disjoint",
        "union-shared",
        "peel-top-breaks",
        "distinct-side-group",
        "quotient-group-form",
        "conclude-witness",
        "coprime-check",
        "action-check",
        "wild-part-nonabelian",
        "minimal-quotient",
        "burnside-agreement",
        "conclude-universal",
        "persist-witness",
    }
)

ASSUMPTION_STATEMENTS = {
    "heisenberg-closure": (
        "adjoining a root of X^p - X - (alpha*y + r*alpha*beta) to the field "
        "generated by roots of X^p - X - alpha and X^p - X - beta yields a "
        "Galois extension of the base whose group is the nonabelian group of "
        "order p^3 and exponent p"
    ),
    "disjoint-compositum": (
        "a compositum of totally ramified Galois p-extensions whose upper "
        "break sets are disjoint is totally ramified with Galois group the "
        "direct product and upper break multiset the union"
    ),
    "central-cp2": (
        "the degree-p^2 step used for the two-break case split is Galois "
        "with group C_p x C_p central in the full group"
    ),
    "top-multiplicity-one": (
        "the larger of the two breaks entering the case split occurs with "
        "multiplicity one in the full upper multiset"
    ),
    "commutator-smallest": (
        "the commutator subgroup of the order-p^3 group is its smallest "
        "nontrivial ramification subgroup, so every lower break of the "
        "degree-p^2 quotient persists as a lower break of the full extension"
    ),
    "base-extension-exists": (
        "a totally ramified extension with the stated base group and the "
        "claimed upper breaks exists; embedding problems for p-groups over "
        "the base field admit totally ramified solutions"
    ),
    "smallest-ramification-peel": (
        "for each factor the unique order-p subgroup of the center of its "
        "Galois group is the smallest nontrivial ramification subgroup, so "
        "dropping the top upper break gives the breaks of its fixed field"
    ),
    "shared-base-field": (
        "the auxiliary order-p^3 extension can be chosen so that its unique "
        "degree-p subfield over the base coincides with the degree-p "
        "subfield of the cyclic factor, both having break b"
    ),
    "group-distinctness-assumed": (
        "the compositum side field is not the target-group field because "
        "their Galois groups are not isomorphic (not machine-checked at "
        "this order)"
    ),
    "central-product-assumed": (
        "the claimed central-product decomposition of the target group "
        "(not machine-checked at this order)"
    ),
    "embedding-lift": (
        "the extension realizing the minimal nonabelian quotient embeds in "
        "a totally ramified extension with the full wild group, and upper "
        "breaks of the quotient persist in the larger extension"
    ),
    "tame-base-change": (
        "adjoining a primitive m-th root of unity and composing with a "
        "totally ramified degree-m tame extension preserves the wild upper "
        "breaks, hence also the nonintegral witness"
    ),
    "abelian-wild-part-nonintegral": (
        "a totally ramified extension whose Galois group is a nonabelian "
        "semidirect product of an abelian normal p-group by a prime-to-p "
        "cyclic group has a nonintegral upper ramification break"
    ),
}


@dataclass(frozen=True)
class Step:
    rule: str
    inputs: tuple[tuple[str, str], ...] = ()
    outputs: tuple[tuple[str, str], ...] = ()

    def render(self, number: int) -> str:
        parts = [f"step {number}: RULE {self.rule}"]
        parts += [f"in {k} = {v}" for k, v in self.inputs]
        parts += [f"out {k} = {v}" for k, v in self.outputs]
        return " | ".join(parts)


def _text(value) -> str:
    """A step or parameter value as certificate text."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


@dataclass
class Certificate:
    """A certificate, opened before its derivation and filled by it: the
    parameter block, the steps in emission order, the assumption names in
    first-use order, and the conclusion (predicted and verified multisets,
    witness), which the last leg to conclude sets.

    ``params`` (a mapping or pairs) and the inputs and outputs of ``step``
    take raw values; each is stored as its ``_text``.  ``render`` refuses
    a witness that is an integer or not a predicted break."""

    kind: str
    params: tuple[tuple[str, str], ...] = ()
    steps: list[Step] = field(default_factory=list)
    assumptions: list[str] = field(default_factory=list)
    predicted: BreakMultiset | None = None
    verified: BreakMultiset | None = None
    witness: Fraction | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown certificate kind {self.kind!r}")
        self.params = tuple((k, _text(v)) for k, v in dict(self.params).items())

    def step(self, rule: str, inputs=(), outputs=()) -> None:
        if rule not in RULES:
            raise InternalCheckError(f"unregistered rule {rule!r}")
        self.steps.append(
            Step(
                rule,
                tuple((k, _text(v)) for k, v in inputs),
                tuple((k, _text(v)) for k, v in outputs),
            )
        )

    def assume(self, *names: str) -> None:
        for name in names:
            if name not in ASSUMPTION_STATEMENTS:
                raise InternalCheckError(f"unregistered assumption {name!r}")
            if name not in self.assumptions:
                self.assumptions.append(name)

    def render(self) -> str:
        if self.witness is not None:
            if self.witness.denominator <= 1:
                raise InternalCheckError(
                    f"witness {self.witness} is an integer; certificate is vacuous"
                )
            if self.predicted is None or self.witness not in self.predicted.breaks:
                raise InternalCheckError("witness must be a predicted break")
        lines = [HEADER, f"kind: {self.kind}"]
        lines += [f"param {k} = {v}" for k, v in self.params]
        lines += [s.render(i) for i, s in enumerate(self.steps, 1)]
        lines.append("ASSUMPTIONS:")
        lines += [
            f"assume {name}: {ASSUMPTION_STATEMENTS[name]}" for name in self.assumptions
        ]
        lines.append(f"PREDICTED: {self.predicted.to_text() if self.predicted else 'none'}")
        lines.append(f"VERIFIED: {self.verified.to_text() if self.verified else 'none'}")
        lines.append(f"WITNESS: {self.witness if self.witness is not None else 'none'}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class P3Parameters:
    """Validated data for the order-p^3 tower over F_p((pi)).

    b is the base break, a the auxiliary break; t and s split a = b*t + p*s
    with 1 <= t <= p-2 (s may be negative), and r = (t+1)^-1 in F_p.
    """

    p: int
    b: int
    a: int
    t: int
    s: int
    r: int

    @classmethod
    def derive(cls, p: int, b: int, a: int) -> "P3Parameters":
        require_odd_prime(p)
        if b < 1:
            raise ParameterError(f"b must be positive, got {b}")
        if b % p == 0:
            raise ParameterError(f"p | b: b = {b} is divisible by p = {p}")
        if a <= b:
            raise ParameterError(f"a must exceed b, got a = {a} <= b = {b}")
        if a % p == 0:
            raise ParameterError(f"a ≡ 0 (mod p): a = {a}, p = {p}")
        if (a + b) % p == 0:
            raise ParameterError(f"a ≡ -b (mod p): a = {a}, b = {b}, p = {p}")
        t = (a * pow(b, -1, p)) % p
        s = (a - b * t) // p
        if not 1 <= t <= p - 2:
            raise InternalCheckError(f"t = {t} escaped [1, p-2]")
        r = pow(t + 1, -1, p)
        return cls(p=p, b=b, a=a, t=t, s=s, r=r)


def pick_parameters(p: int, v) -> tuple[int, int]:
    """Lexicographically minimal (b, a) with a > b > v, p ∤ b, a != 0, -b mod p."""
    require_odd_prime(p)
    v = Fraction(v)
    if v < 0:
        raise ParameterError(f"lower bound must be >= 0, got {v}")
    b = int(v) + 1
    while b <= v or b % p == 0:
        b += 1
    return b, _pick_a_above(p, b, b)


def _pick_a_above(p: int, b: int, v) -> int:
    """Minimal integer a > v with a != 0, -b (mod p)."""
    v = Fraction(v)
    a = int(v) + 1
    while a <= v or a % p == 0 or (a + b) % p == 0:
        a += 1
    return a


def _upper(p: int, breaks) -> BreakMultiset:
    return BreakMultiset("upper", 1, p, tuple(sorted(breaks)))


def _case_split(cert: Certificate, upper: BreakMultiset, u, v):
    """The central C_p x C_p case split adding breaks u < v to ``upper``."""
    cert.assume("central-cp2", "top-multiplicity-one")
    f1 = fact1_resolve(upper, u, v)
    cert.step(
        "central-cp2-cases",
        (("upper", upper), ("u", u), ("v", v)),
        (
            ("lower_u", f1.lower_u),
            ("lower_v", f1.lower_v),
            ("carrier_break", f1.l0_relative_break),
        ),
    )
    return f1


def _p3_steps(
    cert: Certificate,
    params: P3Parameters,
    precision: int,
    beta_unit: LaurentSeries | None,
) -> None:
    """The seven tower steps; concludes with the tower's breaks."""
    p, b, a, t, s, r = params.p, params.b, params.a, params.t, params.s, params.r
    window = max(precision, 4 * p * a)
    beta = monomial(p, 1, -b, -b + window)
    if beta_unit is not None:
        if beta_unit.p != p:
            raise ParameterError("beta unit has wrong modulus")
        if beta_unit.valuation() != 0:
            raise ParameterError("beta unit must have valuation 0")
        beta = beta * beta_unit

    red1 = as_reduce_K(beta)
    if not (red1.outcome.is_wild and red1.outcome.break_value == b):
        raise InternalCheckError(
            f"base datum reduced to {red1.outcome}, expected wild break {b}"
        )
    cert.step("cp-break-base", (("beta", beta),), (("break", b),))

    alpha = monomial(p, 1, -p * s, -p * s + window) * beta**t
    red2 = as_reduce_K(alpha)
    if not (red2.outcome.is_wild and red2.outcome.break_value == a):
        raise InternalCheckError(
            f"auxiliary datum reduced to {red2.outcome}, expected wild break {a}"
        )
    cert.assume("disjoint-compositum")
    u_m = compose_disjoint(_upper(p, [b]), _upper(p, [a]))
    cert.step("cp-break-aux", (("alpha", alpha),), (("break", a), ("upper", u_m)))

    cert.assume("heisenberg-closure")
    # delta = alpha*y + r*alpha*beta modulo O_F, which fixes its break;
    # alpha cut at b leaves alpha*beta known to exponent 0
    ext = ASExtension(p, beta)
    delta = ext.element({0: alpha.truncate(b) * beta * r, 1: alpha}).principal_part()
    red3 = as_reduce_F_mod_O(delta)
    closed_form = 2 * b + p * (a - b)
    if not (red3.outcome.is_wild and red3.outcome.break_value == closed_form):
        raise InternalCheckError(
            f"top-step reduction gave {red3.outcome}, closed form says {closed_form}"
        )
    # a wild break is minus the residual's valuation, which no element of
    # O_F can change
    residual_val = red3.reduced.valuation()
    if not (delta - red3.witness.principal_wp() - red3.reduced).is_integral():
        raise InternalCheckError("reduction witness identity failed")
    cert.step(
        "wild-reduce-ext",
        (("t", t), ("s", s), ("r", r)),
        (
            ("machine_break", red3.outcome.break_value),
            ("closed_form", closed_form),
            ("residual_valuation", residual_val),
        ),
    )

    f1 = _case_split(cert, _upper(p, []), b, a)
    mid_break = b + p * (a - b)
    if f1.l0_relative_break != mid_break:
        raise InternalCheckError(
            f"case split gave {f1.l0_relative_break}, expected {mid_break}"
        )

    lf_upper = compose_disjoint(
        _upper(p, [mid_break]), _upper(p, [closed_form])
    )
    lf_lower = upper_to_lower(lf_upper)
    cert.step("compose-convert", (("upper", lf_upper),), (("lower", lf_lower),))

    cert.assume("commutator-smallest")
    mk_lower = upper_to_lower(u_m)
    top = max(lf_lower.breaks)
    merged = BreakMultiset(
        "lower", 1, p, tuple(sorted(mk_lower.breaks + (top,)))
    )
    cert.step("merge-lowers", (("sub_lower", mk_lower), ("top", top)), (("lower", merged),))

    predicted = lower_to_upper(merged)
    witness = Fraction(a * p + b, p)
    expect = _upper(p, [b, a, witness])
    if predicted.breaks != expect.breaks:
        raise InternalCheckError(
            f"predicted multiset {predicted.to_text()} != {expect.to_text()}"
        )
    cert.step("lower-to-upper", (("lower", merged),), (("upper", predicted), ("witness", witness)))
    cert.predicted, cert.verified, cert.witness = predicted, _upper(p, [b, a]), witness


def _check_precision(precision: int) -> None:
    if precision < MIN_PRECISION:
        raise ParameterError(f"precision must be >= {MIN_PRECISION}, got {precision}")


def build_p3_tower(
    params: P3Parameters,
    precision: int = DEFAULT_PRECISION,
    beta_unit: LaurentSeries | None = None,
) -> Certificate:
    """Build and machine-check the order-p^3 tower certificate."""
    _check_precision(precision)
    cert_params = dict(p=params.p, b=params.b, a=params.a, precision=precision)
    if beta_unit is not None:
        cert_params["beta_unit"] = beta_unit
    cert = Certificate("p3-tower", cert_params)
    _p3_steps(cert, params, precision, beta_unit)
    return cert


def _claimed_cyclic_chain(p: int, length: int) -> BreakMultiset:
    """Canonical claimed upper breaks of a cyclic p-power extension:
    u_1 = 1 and u_{i+1} = p*u_i + 1 (integral, prime to p, realizable)."""
    us = [Fraction(1)]
    for _ in range(length - 1):
        us.append(us[-1] * p + 1)
    return _upper(p, us)


def _composite_breaks(kind: str, p: int, base: BreakMultiset) -> tuple[int, int, BreakMultiset]:
    """The tower (b, a) of the composite over ``base`` and the breaks of
    its mid field: ``base`` without one copy of its top break, plus a, and
    plus b unless the tower shares its degree-p subfield with the base
    (kind A1d, where b is the base's first break).  The composite then
    predicts the mid breaks plus the witness a + b/p."""
    v = max(base.breaks)
    if kind == "A1d":
        b = int(base.breaks[0])
        a = _pick_a_above(p, b, v)
        new = [a]
    else:
        b, a = pick_parameters(p, v)
        new = [b, a]
    peeled = list(base.breaks)
    peeled.remove(v)
    return b, a, _upper(p, peeled + new)


def _synth_base(kind: str, p: int, n: int, d: int) -> BreakMultiset:
    """The base for a target of type (kind, n, d): the upper breaks that
    the construction of (kind, n - 1, d) predicts, level by level from the
    break bookkeeping alone.  A claimed cyclic chain starts the levels: d
    breaks below H(1, d), d + 1 below A(1, d) and A1d."""
    base = _claimed_cyclic_chain(p, d if kind == "H" else d + 1)
    for level in range(1, n):
        if kind == "H" and level == d == 1:
            b, a = pick_parameters(p, 0)  # H(1, 1) is the bare tower above 0
            mid = _upper(p, [b, a])
        else:
            # A(1, d) is the fiber product A1d
            b, a, mid = _composite_breaks("A1d" if level == 1 and kind == "A" else kind, p, base)
        base = _upper(p, mid.breaks + (Fraction(a * p + b, p),))
    return base


def _form_images(kind: str, n: int, construction: PGroup) -> list[int]:
    """The images in ``construction`` of the target's generators
    x_1..x_n, y_1..y_n (then z for H), read from the construction's
    generators, which come in parent order without the identity or
    repeats (`quotient`, `subgroup`).  For A1d they are (x1, w) and
    (y1, 0), the first two of G_d's.  For N1 o N2 the base's x_i, y_i
    (then z) come first and H(1,1)'s x, y follow; H(1,1)'s z, glued to
    the base's centre, is no image.  Too few generators to name them all
    is an internal error."""
    gens = construction.generators()
    k = 2 * n - 2 + (kind == "H")  # the base's generators; none for A1d, where n = 1
    xs, ys, z = gens[: n - 1], gens[n - 1 : 2 * n - 2], gens[2 * n - 2 : k]
    images = xs + gens[k : k + 1] + ys + gens[k + 1 : k + 2] + z
    if len(images) != 2 * n + (kind == "H"):
        raise InternalCheckError(f"the construction's {len(gens)} generators do not name the target's")
    return images


def _realizes(target: PGroup, construction: PGroup, images: list[int]) -> bool:
    """Whether the target's generators (in `tables` order) -> ``images``
    is an isomorphism onto ``construction``.  `_extend_partial` walks the
    target's generator rows against the images' whole rows in the
    construction's law (`_IndexLaw.row`), refusing an inconsistent or
    non-injective step, so it returns a homomorphism on the subgroup it
    reaches.  One that reaches every element of the target is injective
    into a group of the same order p^e (sized when the construction was
    built), hence an isomorphism."""
    if construction._exp != target._exp:
        return False
    e, rows, _ = target._rows()
    law = construction._index_law()
    phi = _extend_partial(e, law.e, list(zip(rows.values(), map(law.row, images))))
    return phi is not None and len(phi) == len(law.inv)


def _group_check_steps(cert: Certificate, kind: str, p: int, n: int, d: int) -> None:
    """Distinctness of the compositum side field and the central-product
    (or fiber-product) form of the target group; machine-checked when the
    ambient orders stay small, recorded as assumptions otherwise.  The
    form leg checks the one map its construction names (`_form_images`)
    and searches no other; the distinctness leg tables no group."""
    if kind == "A1d":
        target = make_group("A", p, 1, d)
        side = DirectProductGroup(CyclicPGroup(p, d + 1), CyclicPGroup(p, 1))
        ambient_exp = d + 4
        construction = partial(build_A1d_via_Gd, p, d)
        form_inputs = (("construction", f"fiber-product p={p} d={d}"),)
    else:
        target = make_group(kind, p, n, d)
        base = make_group(kind, p, n - 1, d)
        h11 = make_group("H", p, 1, 1)
        side = DirectProductGroup(
            DirectProductGroup(base, CyclicPGroup(p, 1)), CyclicPGroup(p, 1)
        )
        ambient_exp = base._exp + h11._exp
        construction = partial(central_product, base, h11)
        form_inputs = (("left", base.descriptor()), ("right", h11.descriptor()))

    # A check runs only when its groups (the target has the side group's
    # order) are of order <= CERT_GROUP_LIMIT < DEFAULT_LIMIT, and is
    # recorded as assumed otherwise (see CERT_GROUP_LIMIT).
    if _within_limit(p, side._exp, CERT_GROUP_LIMIT):
        if is_isomorphic(side, target):
            raise InternalCheckError("side field group matches the target group")
        distinct = "false"
    else:
        cert.assume("group-distinctness-assumed")
        distinct = "assumed-false"
    if _within_limit(p, ambient_exp, CERT_GROUP_LIMIT):
        built = construction()
        if not _realizes(target, built, _form_images(kind, n, built)):
            raise InternalCheckError("group construction does not realize the target group")
        form = "true"
    else:
        cert.assume("central-product-assumed")
        form = "assumed-true"
    cert.step(
        "distinct-side-group",
        (("lhs", side.descriptor()), ("rhs", target.descriptor())),
        (("isomorphic", distinct),),
    )
    cert.step(
        "quotient-group-form",
        form_inputs + (("target", target.descriptor()),),
        (("isomorphic", form),),
    )


def _nonint_steps(
    cert: Certificate,
    kind: str,
    p: int,
    n: int,
    d: int,
    base: BreakMultiset,
    precision: int,
) -> None:
    """Composite construction for H(n, d), A(n, d) (n >= 2), or A(1, d)."""
    # a totally ramified extension of degree p^k has k upper breaks; the base
    # group is H or A(n - 1, d), of order p^(2(n - 1) + d), or C(p^(d + 1))
    k = 2 * (n - 1) + d + (kind == "A1d")
    if len(base.breaks) != k:
        raise ParameterError(f"base must have {k} breaks, got {len(base.breaks)}")
    cert.assume("base-extension-exists")
    base_lower = upper_to_lower(base)  # realizability gate
    v = max(base.breaks)
    cert.step("base-realizable", (("base", base),), (("lower", base_lower), ("top", v)))

    b, a, mid = _composite_breaks(kind, p, base)
    if kind == "A1d":
        if list(base.breaks) != sorted(set(base.breaks)):
            raise ParameterError("cyclic base chain must be strictly increasing")
        if Fraction(b) != base.breaks[0] or b % p == 0:
            raise ParameterError(
                f"first break of the cyclic chain must be an integer prime to p, got {base.breaks[0]}"
            )
        cert.step("shared-subfield-break", (("base", base),), (("b", b),))
        cert.assume("shared-base-field")
        cert.step("pick-a-above", (("floor", v), ("b", b)), (("a", a),))
    else:
        cert.step("pick-parameters", (("floor", v),), (("b", b), ("a", a)))

    _p3_steps(cert, P3Parameters.derive(p, b, a), precision, None)
    p3_predicted, witness = cert.predicted, cert.witness

    union = (("left", base), ("right", p3_predicted))
    if kind == "A1d":
        rule, union = "union-shared", union + (("shared", b),)
        joined = _upper(p, list(base.breaks) + [a, witness])
    else:
        rule, joined = "union-disjoint", compose_disjoint(base, p3_predicted)
    cert.step(rule, union, (("upper", joined),))

    cert.assume("smallest-ramification-peel")
    cert.step("peel-top-breaks", (("left_top", v), ("right_top", witness)), (("mid", mid),))

    predicted = _case_split(cert, mid, v, witness).other_breaks
    _group_check_steps(cert, kind, p, n, d)

    if witness != max(predicted.breaks):
        raise InternalCheckError("witness is not the largest predicted break")
    cert.step(
        "conclude-witness",
        (("mid", mid), ("extra", witness)),
        (
            ("upper", predicted),
            ("witness", witness),
            ("integral", False),
        ),
    )
    cert.predicted = predicted


def _route(
    kind: str,
    p: int,
    n: int,
    d: int,
    base: BreakMultiset | None,
) -> tuple[str, P3Parameters | None, BreakMultiset | None]:
    """The construction for a target of type (kind, n, d), as (kind, tower,
    base) with one of tower and base set.

    A(1, d) takes the fiber product, kind "A1d".  H(1, 1) is the bare tower
    above the top break of ``base`` (above 0 without one).  Any other
    target is the composite over ``base``, synthesized when None.
    """
    if kind == "A" and n == 1:
        kind = "A1d"
    if kind == "H" and n == 1 and d == 1:
        v0 = max(base.breaks) if base and base.breaks else 0
        return kind, P3Parameters.derive(p, *pick_parameters(p, v0)), None
    if base is None:
        base = _synth_base(kind, p, n, d)
    return kind, None, base


def derive_nonint(
    kind: str,
    p: int,
    n: int,
    d: int,
    base_breaks: BreakMultiset | None = None,
    precision: int = DEFAULT_PRECISION,
) -> Certificate:
    """Certificate for a group-of-type H(n, d) or A(n, d) extension whose
    largest upper break is a + b/p (not an integer).

    ``kind`` is "H", "A", or "A1d" (with n = 1); A with n = 1 is routed
    to the A1d construction, and H(1, 1) degenerates to a plain tower
    certificate.  A given base has one break per factor p of the base
    group's order.
    """
    _check_precision(precision)
    require_odd_prime(p)
    if kind not in ("H", "A", "A1d"):
        raise ParameterError(f"kind must be H, A, or A1d, got {kind!r}")
    if n < 1 or d < 1:
        raise ParameterError(f"need n >= 1 and d >= 1, got n={n} d={d}")
    if kind == "A1d" and n != 1:
        raise ParameterError(f"kind A1d needs n = 1, got n={n}")

    kind, tower, base = _route(kind, p, n, d, base_breaks)
    if tower is not None:
        return build_p3_tower(tower, precision)
    if base.numbering != "upper" or base.m != 1 or base.p != p:
        raise ParameterError("base breaks must be upper-numbered with m = 1 and matching p")
    cert = Certificate(f"nonint-{kind}", dict(p=p, n=n, d=d, base=base, precision=precision))
    _nonint_steps(cert, kind, p, n, d, base, precision)
    return cert


def derive_chat(
    group_descriptor: str,
    m: int,
    action=None,
    precision: int = DEFAULT_PRECISION,
) -> Certificate:
    """Certificate for G = P x| C_m: either the prime-to-p action is
    nontrivial (every totally ramified realization has a nonintegral
    break), or G = P x C_m with P nonabelian and a quotient construction
    supplies the witness.

    ``action`` is None/"trivial" or a permutation of element indices
    giving the image of a generator of C_m on P.
    """
    _check_precision(precision)
    P = parse_group_descriptor(group_descriptor)
    p = P.p
    if m < 1:
        raise ParameterError(f"m must be positive, got {m}")
    if gcd(m, p) != 1:
        raise ParameterError(f"m = {m} must be prime to p = {p}")
    tables(P)  # refuses an over-limit group before the action is read
    if action is None or action == "trivial":
        action_text, perm = "trivial", range(P.order)
    else:
        perm = [int(x) for x in action]
        action_text = "perm " + ",".join(map(str, perm))
    burn = burnside_action_check(P, perm, m)  # also checks that perm permutes P's indices
    # a nontrivial action has an order above 1 dividing m, so m = 1 only
    # comes with the quotient construction
    cert = Certificate(
        "pchat" if m == 1 else "chat",
        dict(group=group_descriptor, m=m, action=action_text, precision=precision),
    )
    cert.step("coprime-check", (("m", m), ("p", p)), (("gcd", 1),))
    cert.step(
        "action-check",
        (("action", action_text),),
        (("automorphism", True), ("order", burn.order), ("nontrivial", burn.nontrivial_on_group)),
    )

    if burn.nontrivial_on_group:
        cert.step(
            "burnside-agreement",
            (("group", group_descriptor),),
            (
                ("nontrivial_on_group", burn.nontrivial_on_group),
                ("nontrivial_on_frattini_quotient", burn.nontrivial_on_frattini_quotient),
            ),
        )
        cert.assume("abelian-wild-part-nonintegral")
        cert.step(
            "conclude-universal",
            (("group", group_descriptor), ("m", m)),
            (
                (
                    "conclusion",
                    "every totally ramified realization has a nonintegral upper break",
                ),
            ),
        )
    else:
        if is_abelian(P):
            raise ParameterError(
                "trivial action with abelian wild part gives an abelian group; "
                "all upper breaks are integral"
            )
        cert.step("wild-part-nonabelian", (("group", group_descriptor),), (("nonabelian", True),))
        kernel, quotient, cls = minimal_nonabelian_quotient(P)
        cert.step(
            "minimal-quotient",
            (("group", group_descriptor),),
            (
                ("kernel_order", len(kernel)),
                ("kernel", ",".join(map(str, kernel))),
                ("quotient", make_group(cls.kind, p, cls.n, cls.d).descriptor()),
            ),
        )
        kind, tower, base = _route(cls.kind, p, cls.n, cls.d, None)
        if tower is not None:
            _p3_steps(cert, tower, precision, None)
        else:
            _nonint_steps(cert, kind, p, cls.n, cls.d, base, precision)
        cert.assume("embedding-lift")
        if m > 1:
            cert.assume("tame-base-change")
        witness = cert.witness
        cert.step("persist-witness", (("witness", witness), ("m", m)), (("witness", witness),))
    return cert


# -- parsing and verification -----------------------------------------------


@dataclass
class ParsedCertificate:
    kind: str
    params: dict[str, str]


def parse_certificate(text: str) -> ParsedCertificate:
    lines = text.splitlines()
    if not lines or lines[0] != HEADER:
        raise ParseError(f"missing header {HEADER!r}")
    if len(lines) < 2 or not lines[1].startswith("kind: "):
        raise ParseError("missing kind line")
    kind = lines[1][len("kind: ") :]
    if kind not in KINDS:
        raise ParseError(f"unknown certificate kind {kind!r}")
    params: dict[str, str] = {}
    saw_assumptions = False
    for ln in lines[2:]:
        if ln.startswith("param "):
            body = ln[len("param ") :]
            key, sep, value = body.partition(" = ")
            if not sep:
                raise ParseError(f"malformed param line {ln!r}")
            params[key] = value
        elif ln.startswith("step "):
            head = ln.split(" | ")[0]
            if ": RULE " not in head:
                raise ParseError(f"malformed step line {ln!r}")
            rule = head.split(": RULE ")[1]
            if rule not in RULES:
                raise ParseError(f"unknown rule {rule!r}")
        elif ln == "ASSUMPTIONS:":
            saw_assumptions = True
        elif ln.startswith("assume "):
            name = ln[len("assume ") :].partition(":")[0]
            if name not in ASSUMPTION_STATEMENTS:
                raise ParseError(f"unknown assumption {name!r}")
        elif ln.startswith(("PREDICTED: ", "VERIFIED: ", "WITNESS: ")):
            pass
        else:
            raise ParseError(f"unrecognized certificate line {ln!r}")
    if not saw_assumptions:
        raise ParseError("missing ASSUMPTIONS block")
    return ParsedCertificate(kind=kind, params=params)


def _rebuild(parsed: ParsedCertificate) -> Certificate:
    kind = parsed.kind
    params = parsed.params
    try:
        precision = int(params.get("precision", DEFAULT_PRECISION))
        if kind == "p3-tower":
            p3 = P3Parameters.derive(int(params["p"]), int(params["b"]), int(params["a"]))
            unit = parse_series(params["beta_unit"]) if "beta_unit" in params else None
            return build_p3_tower(p3, precision, unit)
        if kind in ("nonint-H", "nonint-A", "nonint-A1d"):
            base = parse_multiset(params["base"])
            return derive_nonint(
                kind.removeprefix("nonint-"),
                int(params["p"]),
                int(params["n"]),
                int(params["d"]),
                base_breaks=base,
                precision=precision,
            )
        # pchat or chat: parse_certificate admits only KINDS
        action = params["action"]
        if action.startswith("perm "):
            action = [int(x) for x in action[len("perm ") :].split(",")]
        return derive_chat(params["group"], int(params["m"]), action, precision)
    except KeyError as exc:
        raise ParseError(f"certificate is missing parameter {exc}") from exc


def verify_certificate(text: str) -> None:
    """Re-execute every non-assumption step from the parameter block and
    demand bit-exact agreement with the given text."""
    parsed = parse_certificate(text)
    rebuilt = _rebuild(parsed).render()
    lines = zip_longest(text.splitlines(), rebuilt.splitlines(), fillvalue="<missing>")
    for i, (g, f) in enumerate(lines):
        if g != f:
            probe = g if g.startswith("step ") else f
            if probe.startswith("step "):
                label = probe.split(":", 1)[0]
            else:
                label = f"line {i + 1}"
            raise VerificationMismatchError(label, expected=f, found=g)

"""Structure analysis for small p-groups: centers, commutators, Frattini
subgroups, minimal-nonabelian recognition and classification, central
products, and the prime-to-p automorphism triviality check.  One
structural pass (`check_abcd`) gives minimality and the H/A type, and
`_minimal` cross-checks it; each recognizer and classifier calls it once.

Everything here runs on index tables or generator rows, which keeps the
checks independent of the normal-form constructions they are applied to:
a constructed group is never trusted to have the properties its
construction was aiming for.  Properties decided by a generating set are
computed from the generators: commutativity from their rows, the center
(elements commuting with every generator), [G, G] and Phi(G) (normal
closures of the generator commutators, and of those with the generator
p-th powers), conjugacy classes and automorphisms from the table.  Each
traversal is one `closure`: a normal closure closes the identity under
its generators and conjugation, classes and cycles are orbits, and the
minimal-quotient search builds subgroups of G' and of the preimage of a
center from their generators, without walking G's normal subgroups.
Subgroups and quotients are built from parent indices (see `subgroup` and
`quotient`), so central and fiber products never enumerate or table their
ambient product.  The Burnside check takes the automorphism as a
permutation of indices and decides triviality on P/Phi(P) as
g^-1 alpha(g) in Phi(P) without building the quotient; only
`automorphism_from_generator_images` and `group_basics` speak in group
elements.  Element orders (computed once per table), exponents and the
p-th powers of the structural pass remain exhaustive over all elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd, lcm

from ..errors import InternalCheckError, ParameterError
from .base import (
    CyclicPGroup,
    DirectProductGroup,
    GroupTables,
    HGroup,
    PGroup,
    _extend_partial,
    _greedy_generators,
    _log_p,
    closure,
    quotient,
    subgroup,
    tables,
)


def is_abelian(G: PGroup) -> bool:
    """Whether the generators commute, read from their rows (`PGroup._rows`,
    which sizes G when it builds them), untabled."""
    _, rows, _ = G._rows()
    gens = list(rows)
    return all(rows[a][b] == rows[b][a] for i, a in enumerate(gens) for b in gens[i + 1 :])


def center_idx(t: GroupTables) -> list[int]:
    """Elements commuting with every generator."""
    cols = [(s, t.mul[s]) for s in t.gens]
    return [a for a, row in enumerate(t.mul) if all(row[s] == rs[a] for s, rs in cols)]


def normal_closure_idx(t: GroupTables, xs) -> list[int]:
    """The smallest normal subgroup containing ``xs``: the identity closed
    under right multiplication by ``xs`` and conjugation by the generators.
    A generator's inverse is a power of it, so that set is closed under
    conjugation by every element, hence under right multiplication by every
    conjugate of ``xs``."""
    mul, conj = t.mul, t.conj
    moves = [lambda a, x=x: mul[a][x] for x in set(xs)]
    moves += [lambda a, s=s: conj(a, s) for s in t.gens]
    return sorted(closure([t.e], moves, lambda a, move: move(a)))


def commutator_subgroup_idx(t: GroupTables) -> list[int]:
    """[G, G]: the normal closure of the commutators of generators."""
    return normal_closure_idx(t, (t.commutator(a, b) for a in t.gens for b in t.gens))


def frattini_idx(t: GroupTables) -> list[int]:
    """Phi(G) = G^p [G, G] for a p-group: the normal closure of the
    generators' p-th powers and commutators (the quotient by it is
    generated by commuting elements of order p, hence elementary)."""
    powers = [t.power(a, t.p) for a in t.gens]
    return normal_closure_idx(
        t, powers + [t.commutator(a, b) for a in t.gens for b in t.gens]
    )


@dataclass(frozen=True)
class GroupBasics:
    order: int
    center: tuple
    commutator_subgroup: tuple
    frattini: tuple
    rank: int
    exponent: int


def group_basics(G: PGroup) -> GroupBasics:
    t = tables(G)
    elems = G.elements()
    z = center_idx(t)
    der = commutator_subgroup_idx(t)
    fr = frattini_idx(t)
    rank = _log_p(t.n // len(fr), G.p)
    return GroupBasics(
        order=t.n,
        center=tuple(elems[i] for i in z),
        commutator_subgroup=tuple(elems[i] for i in der),
        frattini=tuple(elems[i] for i in fr),
        rank=rank,
        exponent=max(t.orders()),
    )


def _is_cyclic_idx(t: GroupTables, subset: list[int]) -> bool:
    size = len(subset)
    orders = t.orders()
    return any(orders[g] == size for g in subset)


@dataclass(frozen=True)
class AbcdResult:
    """The four structural conditions of a minimal nonabelian p-group and its type."""

    class_two: bool  # (i)
    center_cyclic: bool  # (ii)
    commutator_is_socle: bool  # (iii)
    nondegenerate_form: bool  # (iv)
    n: int | None = None
    d: int | None = None
    kind: str | None = None

    @property
    def all_true(self) -> bool:
        return (
            self.class_two
            and self.center_cyclic
            and self.commutator_is_socle
            and self.nondegenerate_form
        )


def check_abcd(G: PGroup) -> AbcdResult:
    """The conditions and the type from one list of p-th powers: G is of
    H type exactly when every p-th power is one of a central element."""
    t = tables(G)
    p = G.p
    z = center_idx(t)
    zset = set(z)
    der = commutator_subgroup_idx(t)
    derset = set(der)

    class_two = len(der) > 1 and derset <= zset

    # Z(G) and G/Z(G) have p-power order by Lagrange
    d = _log_p(len(z), p)
    center_cyclic = d >= 1 and _is_cyclic_idx(t, z)

    # (iii) and (iv) need [G, G] central of order p; (iv) also needs G/Z
    # elementary abelian of even rank 2n, and then the commutator pairing
    # is a well-defined bilinear F_p-form.
    commutator_is_socle = nondegenerate_form = False
    n = kind = None
    if class_two and len(der) == p:
        powers = [t.power(g, p) for g in range(t.n)]
        commutator_is_socle = derset == {g for g in z if powers[g] == t.e}
        r = _log_p(t.n // len(z), p)
        elementary = all(x in zset for x in powers)
        # The pairing's radical on G/Z(G) is trivial by construction: Z(G)
        # is exactly the set of elements commuting with every generator.
        if r >= 2 and r % 2 == 0 and elementary:
            nondegenerate_form = True
            n = r // 2
        if commutator_is_socle and nondegenerate_form and center_cyclic:
            zp = {powers[g] for g in z}
            kind = "H" if all(x in zp for x in powers) else "A"
    return AbcdResult(
        class_two=class_two,
        center_cyclic=center_cyclic,
        commutator_is_socle=commutator_is_socle,
        nondegenerate_form=nondegenerate_form,
        n=n,
        d=d if center_cyclic else None,
        kind=kind,
    )


def _central_order_p_subgroups(t: GroupTables) -> set[frozenset[int]]:
    orders = t.orders()
    return {frozenset(t.power(g, k) for k in range(t.p)) for g in center_idx(t) if orders[g] == t.p}


@dataclass(frozen=True)
class ClassifyResult:
    kind: str  # "H" | "A"
    n: int
    d: int


def _minimal(G: PGroup) -> ClassifyResult | None:
    """The type of G when it is minimal nonabelian, else None.

    Minimality is computed two independent ways and cross-checked: (1)
    directly, via quotients by central order-p subgroups (every nontrivial
    normal subgroup of a p-group contains one); (2) via the four
    structural conditions, whose one pass also gives the type.
    Disagreement is a fatal internal error.
    """
    method1 = not is_abelian(G) and all(
        is_abelian(quotient(G, sub)) for sub in _central_order_p_subgroups(tables(G))
    )
    abcd = check_abcd(G)
    if method1 != abcd.all_true:
        raise InternalCheckError(
            f"minimality checks disagree on {G.descriptor()}: "
            f"quotient method {method1}, structural method {abcd.all_true}"
        )
    return ClassifyResult(abcd.kind, abcd.n, abcd.d) if method1 else None


def is_minimal_nonabelian(G: PGroup) -> bool:
    """Nonabelian with every proper quotient abelian (see `_minimal`)."""
    return _minimal(G) is not None


def classify_minimal(G: PGroup) -> ClassifyResult:
    """Classify a minimal nonabelian p-group as H(n, d) or A(n, d)."""
    cls = _minimal(G)
    if cls is None:
        raise ParameterError(f"{G.descriptor()} is not minimal nonabelian")
    return cls


def _glued(G: PGroup, g: int) -> PGroup:
    """G/<g> for the index g of a central element of G."""
    law = G._index_law()
    return quotient(G, closure([law.e], [g], law.mul))


def central_product(n1: PGroup, n2: PGroup) -> PGroup:
    """(N1 x N2) / B with B generated by the central order-p pair (w1, w2^-1).

    w_i is the least index generating the unique order-p subgroup of the
    center of N_i, which must be cyclic.  Both components are nontrivial,
    so B meets neither factor and each embeds in the quotient.  The
    quotient multiplies through the factors' tables, so the product
    N1 x N2 is never tabled; its order must still be within DEFAULT_LIMIT.
    """
    if n1.p != n2.p:
        raise ParameterError(f"prime mismatch: {n1.p} vs {n2.p}")
    p = n1.p
    t1 = tables(n1)
    t2 = tables(n2)
    picks = []
    for G, t in ((n1, t1), (n2, t2)):
        if t.n == 1:
            raise ParameterError(f"{G.descriptor()} is trivial")
        z = center_idx(t)
        if not _is_cyclic_idx(t, z):
            raise ParameterError(f"{G.descriptor()} has non-cyclic center")
        orders = t.orders()
        picks.append(min(g for g in z if g != t.e and orders[g] == p))
    g1, g2 = picks[0], t2.inv[picks[1]]
    # (g1, g2) has index g1 n2 + g2 in the product
    return _glued(DirectProductGroup(n1, n2), g1 * t2.n + g2)


def build_A1d_via_Gd(p: int, d: int) -> PGroup:
    """Realize A(1, d) as a quotient of a subgroup of H(1,1) x C_(p^(d+1)).

    The subgroup G_d is generated by (x1, w), (y1, 0), (z, 0); the quotient
    identifies w^(p^d) with z.  The order is checked along the way.  The
    subgroup and the quotient multiply through the factors' tables, so
    neither the product (order p^(d+4), which must be within
    DEFAULT_LIMIT) nor G_d is tabled.
    """
    if d < 1:
        raise ParameterError(f"d >= 1 required, got {d}")
    prod = DirectProductGroup(HGroup(p, 1, 1), CyclicPGroup(p, d + 1))
    # the product's generators: (x1, 0), (y1, 0), (z, 0), (1, w)
    law = prod._index_law()
    x, y, z, w = law.gens
    gd = subgroup(prod, [law.mul(x, w), y, z])
    if gd.order != p ** (d + 3):
        raise InternalCheckError(
            f"ambient subgroup has order {gd.order}, expected p^{d + 3}"
        )
    # the glue (z^-1, w^(p^d)) is z^-1 (x1, w)^(p^d) in G_d, as x1 has order p
    xw, _, z = gd.generators()
    glue = gd.inv(z)
    for _ in range(p**d):
        glue = gd.mul(glue, xw)
    q = _glued(gd, glue)
    if q.order != p ** (2 + d):
        raise InternalCheckError(f"quotient has order {q.order}, expected p^{2 + d}")
    return q


def _orbits(n: int, moves, act) -> list[frozenset[int]]:
    """The orbits of 0..n-1 under ``moves`` applied by ``act``, in order
    of their least point."""
    out = []
    seen = set()
    for x in range(n):
        if x not in seen:
            out.append(frozenset(closure([x], moves, act)))
            seen |= out[-1]
    return out


def conjugacy_classes_idx(t: GroupTables) -> list[frozenset[int]]:
    """Classes in order of their least element: the orbits under
    conjugation by the generators."""
    return _orbits(t.n, t.gens, t.conj)


def minimal_nonabelian_quotient(G: PGroup) -> tuple[tuple, PGroup, ClassifyResult]:
    """A largest normal subgroup N with G/N minimal nonabelian: the
    sorted indices of N in G, G/N and its classification.

    N is the largest normal subgroup with G' = [G, G] ⊄ N, least in its
    sorted indices among those of its size: every larger normal subgroup
    contains G', so each proper quotient of G/N is abelian.  The search
    does not walk G's normal subgroups.  Q = G/N has |Q'| = p and Q'
    central (each central subgroup of order p contains Q'), so M = N ∩ G'
    has index p in G' and contains [G', G], and [N, G] ≤ M puts N in
    Z̃_M = {g : [g, s] ∈ M for every generator s}, the preimage of
    Z(G/M).  Conversely every N with M ≤ N ≤ Z̃_M and G' ⊄ N is normal,
    as N/M is central.  So a search over these M and N has the maximizers
    of the lattice search, and the tie-break picks the same N.  Z̃_M/M is
    abelian, and a largest N/M avoiding G'/M = <cM> has a cyclic quotient
    of order p^(h+1), with h the height of cM; so N contains the
    p^(h+1)-th powers of Z̃_M, and joining each g in index order while c
    stays out gives the least such N.
    """
    if is_abelian(G):
        raise ParameterError(f"{G.descriptor()} is abelian; no nonabelian quotient")
    t = tables(G)
    p, step = t.p, t.law().mul
    der = commutator_subgroup_idx(t)
    # G' over low = [G', G] (G')^p is elementary abelian and central; the
    # M are the kernels of the f with f(basis[i]) = 1, f(basis[:i]) = 0
    comms = [[t.commutator(g, s) for s in t.gens] for g in range(t.n)]
    low = normal_closure_idx(t, [x for d in der for x in comms[d]] + [t.power(d, p) for d in der])
    basis = _greedy_generators(der, low, step)
    candidates = []
    for i, c in enumerate(basis):
        for fs in product(range(p), repeat=len(basis) - i - 1):
            kernel = basis[:i] + [step(x, t.power(c, p - f)) for x, f in zip(basis[i + 1 :], fs)]
            M = closure(low, kernel, step)
            # Z̃_M; N starts at M times its p^(h+1)-th powers, k = p^(h+1)
            z = [g for g, cs in enumerate(comms) if all(x in M for x in cs)]
            k = p
            while c in (N := closure(M, {t.power(g, k) for g in z}, step)):
                k *= p
            for g in z:
                if g not in N and c not in (joined := closure(N, [g], step)):
                    N = joined
            candidates.append(sorted(N))
    N = tuple(min(candidates, key=lambda s: (-len(s), s)))
    # G/{e} has the table of G, so a minimal nonabelian G is its own quotient
    Q = G if len(N) == 1 else quotient(G, N)
    cls = _minimal(Q)
    if cls is None:
        raise InternalCheckError(
            f"no minimal nonabelian quotient found for {G.descriptor()}"
        )
    return N, Q, cls


@dataclass(frozen=True)
class BurnsideResult:
    nontrivial_on_group: bool
    nontrivial_on_frattini_quotient: bool
    order: int


def automorphism_from_generator_images(G: PGroup, images: dict) -> dict:
    """Extend generator images to the automorphism of G they determine,
    by the same table walk that isomorphism testing uses.

    Keys and images must be elements of G, the keys must generate G, and
    the extended map must be well defined and injective.
    """
    t = tables(G)
    idx = G.index_map()
    elems = G.elements()
    try:
        pairs = [(t.mul[idx[g]], t.mul[idx[h]]) for g, h in images.items()]
    except (KeyError, TypeError) as exc:  # not an element, or unhashable
        raise ParameterError("generator images must map elements of the group") from exc
    phi = _extend_partial(t.e, t.e, pairs)
    if phi is None:
        raise ParameterError("generator images are inconsistent or not injective")
    if len(phi) != t.n:
        raise ParameterError("images do not cover the group: keys must generate")
    return {elems[x]: elems[y] for x, y in phi.items()}


def perm_order(perm: list[int]) -> int:
    """The order of a permutation of 0..n-1: the lcm of its cycle lengths."""
    return lcm(*map(len, _orbits(len(perm), [perm], lambda x, move: move[x])))


def burnside_action_check(P: PGroup, perm, m: int) -> BurnsideResult:
    """Check triviality of a prime-to-p automorphism on P and on P/Phi(P).

    The automorphism alpha is ``perm``: the index of alpha(g) for each
    index g of P.  The two answers must agree (an automorphism of order
    prime to p acting trivially mod Frattini is trivial); disagreement is
    a fatal error.
    """
    if m < 1 or gcd(m, P.p) != 1:
        raise ParameterError(f"m = {m} must be positive and prime to p = {P.p}")
    t = tables(P)
    perm = list(perm)
    if not all(isinstance(x, int) for x in perm) or sorted(perm) != list(range(t.n)):
        raise ParameterError("alpha is not a permutation of the group's indices")
    # alpha(s x) = alpha(s) alpha(x) for each generator s and every x gives
    # alpha(e) = e (x = e) and, by induction on word length, every product
    if any(perm[sx] != t.mul[perm[s]][perm[x]] for s in t.gens for x, sx in enumerate(t.mul[s])):
        raise ParameterError("alpha is not a homomorphism")
    order = perm_order(perm)
    if m % order:
        raise ParameterError(f"alpha has order {order}, which does not divide m = {m}")
    nontrivial_group = any(perm[g] != g for g in range(t.n))
    # alpha is trivial on P/Phi when every g^-1 alpha(g) lies in Phi
    fr = set(frattini_idx(t))
    nontrivial_quotient = any(t.mul[t.inv[g]][perm[g]] not in fr for g in range(t.n))
    if nontrivial_group != nontrivial_quotient:
        raise InternalCheckError(
            "triviality on the group and on its Frattini quotient disagree "
            f"for an order-{order} automorphism of {P.descriptor()}"
        )
    return BurnsideResult(nontrivial_group, nontrivial_quotient, order)

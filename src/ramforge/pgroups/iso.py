"""Brute-force isomorphism testing for desk-scale p-groups.

Cheap invariants (order profile, center / commutator / Frattini sizes,
abelian type) reject most non-isomorphic pairs outright; otherwise a
backtracking search maps a Burnside-minimal generating sequence of one
group into the other.  Each step rebuilds the partial map on the subgroup
generated by the chosen generators by right multiplication with the chosen
(generator, image) pairs only, checking consistency and injectivity; a
consistent map on a generated subgroup is a homomorphism, so a complete
one is an isomorphism.  The invariants and per-element signatures are
exhaustive over the elements, from one list of element orders per table;
centralizer sizes come from conjugacy classes found as orbits under the
generators.  Sound and complete for materialized groups.
"""

from __future__ import annotations

from collections import Counter

from .analysis import (
    center_idx,
    commutator_subgroup_idx,
    conjugacy_classes_idx,
    frattini_idx,
)
from .base import GroupTables, PGroup, _extend_partial, _greedy_generators, tables


def _signatures(t: GroupTables) -> list[tuple[int, int]]:
    """(element order, centralizer size) per element; isomorphism-invariant.
    The centralizer of g has n / |class of g| elements."""
    cent = [0] * t.n
    for cls in conjugacy_classes_idx(t):
        size = t.n // len(cls)
        for g in cls:
            cent[g] = size
    return list(zip(t.orders(), cent))


def _invariants(t: GroupTables):
    """The order profile and the sizes of Z(G), [G, G] and Phi(G), which
    fix the order, the exponent and whether G is abelian; and Phi(G)."""
    phi = frattini_idx(t)
    profile = tuple(sorted(Counter(t.orders()).items()))
    return (profile, len(center_idx(t)), len(commutator_subgroup_idx(t)), len(phi)), phi


def is_isomorphic(G: PGroup, H: PGroup) -> bool:
    if G.p != H.p or G._exp != H._exp:  # orders p^e differ: no table needed
        return False
    tg = tables(G)
    th = tables(H)
    inv_g, phi_g = _invariants(tg)
    if inv_g != _invariants(th)[0]:
        return False
    if inv_g[2] == 1:
        # abelian p-groups with equal order profiles are isomorphic
        return True
    sig_g = _signatures(tg)
    sig_h = _signatures(th)
    if sorted(sig_g) != sorted(sig_h):
        return False
    # a minimal generating sequence: greedy from Phi(G) (Burnside basis theorem)
    gens = _greedy_generators(range(tg.n), set(phi_g), lambda x, g: tg.mul[x][g])
    by_sig: dict[tuple[int, int], list[int]] = {}
    for h, s in enumerate(sig_h):
        by_sig.setdefault(s, []).append(h)

    # depth first over the images of gens[0], gens[1], ..., each tried
    # among H's elements of the same signature in index order; a loop,
    # since a recursive closure would keep both tables alive in a
    # reference cycle until the cyclic collector runs
    stack = [[]]
    while stack:
        pairs = stack.pop()
        phi = _extend_partial(tg, th, pairs)
        if phi is None:
            continue
        k = len(pairs)
        if k == len(gens):
            if len(phi) == tg.n:
                return True
            continue
        g = gens[k]
        stack.extend(pairs + [(g, h)] for h in reversed(by_sig.get(sig_g[g], ())))
    return False

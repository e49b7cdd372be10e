"""Brute-force isomorphism testing for desk-scale p-groups.

The orders p^e are compared first, then the centre orders, counted from
generator rows, so two groups that differ there are never tabled.  A
direct product counts its centre from its factors, as
Z(A x B) = Z(A) x Z(B), so only rows of its factors' orders are built for
the count; any other group counts from the rows it keeps
(`PGroup._rows`, which sizes it when it builds them), and `tables`
composes its table from those same rows.  Cheap invariants of the tables
(order profile, commutator / Frattini sizes, abelian type) reject most
other non-isomorphic pairs outright; otherwise a backtracking search maps
a Burnside-minimal generating sequence of one group into the other.  Each
step rebuilds the partial map on the subgroup generated by the chosen
generators with `_extend_partial`, by left multiplication with the table
rows of the chosen (generator, image) pairs only, checking consistency
and injectivity; a consistent map on a generated subgroup is a
homomorphism, so a complete one is an isomorphism.  The invariants and
per-element signatures are exhaustive over the elements, from one list
of element orders per table; centralizer sizes come from conjugacy
classes found as orbits under the generators.  Sound and complete for
materialized groups.
"""

from __future__ import annotations

from collections import Counter

from ..errors import InternalCheckError
from .analysis import (
    commutator_subgroup_idx,
    conjugacy_classes_idx,
    frattini_idx,
)
from .base import (
    DirectProductGroup,
    GroupTables,
    PGroup,
    _extend_partial,
    _greedy_generators,
    tables,
)


def _center(G: PGroup) -> int:
    """|Z(G)|, from generator rows and never from a table.  A direct
    product multiplies its factors' centre orders, so it is not sized
    itself: each factor is sized where its rows are built (`PGroup._rows`).
    Otherwise a is central when s a = a s for every generator s.  The rows
    give s a, and a -> a s sends e to s and commutes with every row, as
    t (a s) = (t a) s: one `_extend_partial` walk per s builds it and
    refuses rows that no such map fits.  The generators must reach every
    element, as in `tables`, so the count rests on what a table would: the
    rows and an associative law.  O(|G| r^2) for r generators."""
    if isinstance(G, DirectProductGroup):
        return _center(G.g1) * _center(G.g2)
    n = G.order
    e, rows, _ = G._rows()
    lefts = [(row, row) for row in rows.values()]
    # with no generators the one walk, from e to e, reaches e alone
    rights = [_extend_partial(e, s, lefts) for s in rows or [e]]
    if any(right is None for right in rights):
        raise InternalCheckError(f"generator rows of {G.descriptor()} are inconsistent")
    if len(rights[0]) != n:  # every walk reaches the same elements
        raise InternalCheckError(f"generators of {G.descriptor()} do not reach every element")
    central = range(n)
    for row, right in zip(rows.values(), rights):
        central = [a for a in central if row[a] == right[a]]
    return len(central)


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
    """The order profile and the sizes of [G, G] and Phi(G), which fix the
    order, the exponent and whether G is abelian; and Phi(G).  The centre
    order is compared before the tables exist (`_center`)."""
    phi = frattini_idx(t)
    profile = tuple(sorted(Counter(t.orders()).items()))
    return (profile, len(commutator_subgroup_idx(t)), len(phi)), phi


def is_isomorphic(G: PGroup, H: PGroup) -> bool:
    if G.p != H.p or G._exp != H._exp:  # orders p^e differ: no table needed
        return False
    if _center(G) != _center(H):  # from generator rows, no table
        return False
    tg = tables(G)
    th = tables(H)
    inv_g, phi_g = _invariants(tg)
    if inv_g != _invariants(th)[0]:
        return False
    if inv_g[1] == 1:
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
        phi = _extend_partial(tg.e, th.e, pairs)
        if phi is None:
            continue
        k = len(pairs)
        if k == len(gens):
            if len(phi) == tg.n:
                return True
            continue
        g = gens[k]
        stack.extend(pairs + [(tg.mul[g], th.mul[h])] for h in reversed(by_sig.get(sig_g[g], ())))
    return False

"""Brute-force isomorphism testing for desk-scale p-groups.

The orders p^e are compared first, then the centre orders, counted from
generator rows, so two groups that differ there are never tabled.  For r
generator rows the count takes O(|G| r^2) element steps, all but one
walk of |G| r steps in C: whole-row compositions build and check the map
a -> a s of each generator s (`_center`).  A direct product counts its
centre from its factors, as Z(A x B) = Z(A) x Z(B), so only rows of its
factors' orders are built for the count; any other group counts from the
rows it keeps (`PGroup._rows`, which sizes it when it builds them), and
`tables` composes its table from those same rows.  Cheap invariants of the tables
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
from operator import eq

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
    _row_maps,
    tables,
)


def _center(G: PGroup) -> int:
    """|Z(G)|, from generator rows and never from a table.  A direct
    product multiplies its factors' centre orders, so it is not sized
    itself: each factor is sized where its rows are built (`PGroup._rows`).
    Otherwise a is central when s a = a s for every generator s.  The row
    R_s gives s a, and a s = (s^-1 a^-1)^-1, so rho_s = inv o R_s^-1 o inv
    would send a to a s: it is solved as the map (s b)^-1 -> b^-1 from the
    inverse list.  rho_s is kept only as the one map that sends e to s,
    commutes with every row (t (a s) = (t a) s) and is injective, once a
    breadth-first walk has shown that the rows reach every element from e,
    as in `tables`.  So the count rests on what a table would, the rows and
    an associative law, and never on the inverse list; rows that no such
    map fits, or a wrong inverse list, are refused.  For r generators the
    walk takes |G| r steps in Python, and the rest O(|G| r^2) element steps
    in whole-row operations in C (`_row_maps`)."""
    if isinstance(G, DirectProductGroup):
        return _center(G.g1) * _center(G.g2)
    n = G.order
    e, rows, inv = G._rows()
    key, outer, after, solve = _row_maps(n)
    rhos = []
    try:
        lefts = list(map(key, rows.values()))
        reached = {e}
        queue = [e]  # not `closure`, whose call per step costs ~1.5x here
        for x in queue:
            for left in lefts:
                y = left[x]
                if y not in reached:
                    reached.add(y)
                    queue.append(y)
        if len(reached) != n:
            raise InternalCheckError(f"generators of {G.descriptor()} do not reach every element")
        outers = list(map(outer, lefts))
        afters = list(map(after, lefts))
        inv_key = key(inv)
        inv_outer = outer(inv_key)
        for s, after_s in zip(rows, afters):
            rho = solve(after_s(inv_outer), inv_key)
            rho_after, rho_outer = after(rho), outer(rho)
            if (
                rho[e] != s
                or any(rho_after(t) != a(rho_outer) for t, a in zip(outers, afters))
                or len(set(rho)) != n
            ):
                raise ValueError
            rhos.append(rho)
    except (TypeError, ValueError, OverflowError, LookupError):
        raise InternalCheckError(f"generator rows of {G.descriptor()} are inconsistent") from None
    # range(n) leads each tuple, so with no generators every element counts
    return sum(map(eq, zip(range(n), *lefts), zip(range(n), *rhos)))


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

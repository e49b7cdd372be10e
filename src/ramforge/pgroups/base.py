"""Core finite p-group machinery: normal-form groups, products, subgroups,
quotients, Cayley-table groups, and lazy materialization to index tables.

Every group exposes a deterministic element order and a generating set;
all searches and constructions derive their results from that order, never
from timing, so repeated runs give identical answers.  Orders are known in
closed form before any element is enumerated, and `tables` builds the
multiplication table from one row per generator.  No table calls a group
law: H, A and C compute their generator rows and inverses by arithmetic
on their normal-form index layout, an explicit table reads them from
itself, and a direct product pairs its factors' rows.  `subgroup` and
`quotient` take parent indices and return a group whose elements are the
indices 0..n-1 and whose law is composed from the parent's index law, so
they keep no element view.  A direct product multiplies indices through
its factors' tables, so a subgroup or quotient of a product never tables
the product itself; a quotient checks normality by conjugating N by the
parent's generators only.  The laws of H, A, C and products stay the
public API and the test oracle for the tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import gcd, prod
from operator import itemgetter
from typing import Callable, NamedTuple

from ..errors import (
    InternalCheckError,
    MaterializationLimitError,
    ParameterError,
    ParseError,
)
from ..laurent import require_odd_prime

DEFAULT_LIMIT = 10000


class PGroup:
    """A finite p-group over hashable normal-form elements.

    Subclasses set ``p`` and ``_order`` in ``__init__``.
    """

    p: int
    _order: int

    def identity(self):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def generators(self) -> list:
        """Elements that generate the group."""
        raise NotImplementedError

    def _element_list(self) -> list:
        raise NotImplementedError

    def _generator_rows(self, limit: int) -> tuple[int, dict, list[int]]:
        """The identity's index, the row ``b -> s b`` of each generator
        index ``s`` (without the identity or repeats, in generator order),
        and the inverse of every index, all without calling the law.  By
        default they are read from `_index_law`."""
        law = self._index_law(limit)
        n = len(law.inv)
        return law.e, {s: [law.mul(s, b) for b in range(n)] for s in law.gens}, law.inv

    def _index_law(self, limit: int) -> _IndexLaw:
        """The group law on element indices, for subgroups and quotients:
        read from this group's tables unless a group can multiply indices
        without them.  A group defines this or `_generator_rows`."""
        t = tables(self, limit)
        rows = t.mul
        return _IndexLaw(t.e, t.gens, lambda a, b: rows[a][b], t.inv)

    def descriptor(self) -> str:
        raise NotImplementedError

    # -- cached element order / index tables --------------------------------

    def elements(self) -> tuple:
        cached = getattr(self, "_elements", None)
        if cached is None:
            cached = tuple(self._element_list())
            self._elements = cached
        return cached

    @property
    def order(self) -> int:
        return self._order

    def index_map(self) -> dict:
        cached = getattr(self, "_index_map", None)
        if cached is None:
            cached = {g: i for i, g in enumerate(self.elements())}
            self._index_map = cached
        return cached

    def __repr__(self):
        return f"<{type(self).__name__} {self.descriptor()} order={self.order}>"


class _IndexLaw(NamedTuple):
    """Identity, generators (as in `GroupTables.gens`), product and
    inverses of a group, on its element indices."""

    e: int
    gens: tuple[int, ...]
    mul: Callable[[int, int], int]
    inv: list[int]


@dataclass
class GroupTables:
    """Materialized index tables: everything analysis needs, as plain ints.

    ``mul[a]`` is the row of ``a`` (a tuple); ``gens`` are the indices of
    the group's generators, without the identity or repeats.  The tables
    hold no reference to their group, so a dropped group frees them at once.
    """

    p: int
    n: int
    e: int
    mul: list[tuple[int, ...]]
    inv: list[int]
    gens: tuple[int, ...]
    _orders: list[int] | None = field(default=None, init=False, repr=False)

    def orders(self) -> list[int]:
        """The order of every element, computed once per table.  Each walk
        along the powers of g fills in those powers too: g^k has order
        m / gcd(k, m) when g has order m."""
        if self._orders is None:
            orders = [0] * self.n
            for g in range(self.n):
                if orders[g]:
                    continue
                powers = [g]
                while powers[-1] != self.e:
                    powers.append(self.mul[powers[-1]][g])
                m = len(powers)
                for k, x in enumerate(powers, 1):
                    orders[x] = m // gcd(k, m)
            self._orders = orders
        return self._orders

    def conj(self, g: int, h: int) -> int:
        """h^-1 g h"""
        return self.mul[self.mul[self.inv[h]][g]][h]

    def commutator(self, g: int, h: int) -> int:
        """g^-1 h^-1 g h"""
        return self.mul[self.mul[self.inv[g]][self.inv[h]]][self.mul[g][h]]

    def power(self, g: int, k: int) -> int:
        out = self.e
        acc = g
        while k:
            if k & 1:
                out = self.mul[out][acc]
            acc = self.mul[acc][acc]
            k >>= 1
        return out


def closure(start, gens, mul) -> set:
    """The elements reached from ``start`` by right multiplication by
    ``gens`` under ``mul``; from the identity this is the subgroup the
    generators generate, from a normal subgroup N it is N<gens>."""
    seen = set(start)
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def _greedy_generators(n: int, span: set, mul) -> list[int]:
    """Indices in increasing order, each taken when it lies outside
    ``span`` closed under right multiplication by the ones taken before,
    until that closure has all n elements.  From the identity they
    generate; from Phi(G) they form a minimal generating sequence."""
    gens: list[int] = []
    for g in range(n):
        if len(span) == n:
            break
        if g not in span:
            gens.append(g)
            span = closure(span, gens, mul)
    return gens


def _extend_partial(tg: GroupTables, th: GroupTables, pairs: list[tuple[int, int]]):
    """The map on <g_1, ..., g_k> with phi(x g_i) = phi(x) h_i for the
    ``pairs`` (g_i, h_i), built from the identity.

    Returns None if some product is inconsistent or injectivity fails.
    """
    phi = {tg.e: th.e}
    used = {th.e}
    frontier = [tg.e]
    while frontier:
        nxt = []
        for x in frontier:
            row_x = tg.mul[x]
            row_fx = th.mul[phi[x]]
            for g, h in pairs:
                y = row_x[g]
                img = row_fx[h]
                known = phi.get(y)
                if known is None:
                    if img in used:
                        return None
                    phi[y] = img
                    used.add(img)
                    nxt.append(y)
                elif known != img:
                    return None
        frontier = nxt
    return phi


def _check_limit(G: PGroup, limit: int) -> None:
    if G.order > limit:
        raise MaterializationLimitError(
            f"group of order {G.order} exceeds materialization limit {limit}"
        )


def tables(G: PGroup, limit: int = DEFAULT_LIMIT) -> GroupTables:
    """Materialize multiplication/inverse index tables (cached on the group).

    The group supplies one row per generator and the inverses (by index
    arithmetic, or from its parents); every other row is composed from
    those breadth-first from the identity, so the table agrees with the
    law whenever the law is associative and the rows agree with it.
    ``limit`` applies to every table built on the way, and to the order of
    any product multiplied through its factors instead.
    """
    _check_limit(G, limit)
    n = G.order
    cached = getattr(G, "_tables", None)
    if cached is not None:
        return cached
    e, rows, inv = G._generator_rows(limit)
    gens = tuple(rows)
    # gather[s] maps the row of a to the row of a s, since (a s) b = a (s b)
    gather = {s: itemgetter(*row) for s, row in rows.items()}
    mul: list = [None] * n
    mul[e] = tuple(range(n))
    queue = [e]
    for a in queue:
        if len(queue) == n:
            break
        row = mul[a]
        for s, g in gather.items():
            c = row[s]
            if mul[c] is None:
                mul[c] = g(row)
                queue.append(c)
    if len(queue) != n:
        raise InternalCheckError(
            f"generators of {G.descriptor()} do not reach every element"
        )
    for a in range(n):
        if mul[a][inv[a]] != e or mul[inv[a]][a] != e or mul[a][e] != a:
            raise InternalCheckError(f"group tables inconsistent at element {a}")
    t = GroupTables(G.p, n, e, mul, inv, gens)
    G._tables = t
    return t


def _vec_add(a: tuple, b: tuple, p: int) -> tuple:
    return tuple((x + y) % p for x, y in zip(a, b))


def _vec_neg(a: tuple, p: int) -> tuple:
    return tuple((-x) % p for x in a)


def _dot(a: tuple, b: tuple) -> int:
    return sum(x * y for x, y in zip(a, b))


def _step(radix: list[int], i: int) -> list[int]:
    """For each index of a mixed-radix digit vector (first digit most
    significant), the index after adding 1 to digit i modulo radix[i]."""
    w, r = prod(radix[i + 1 :]), radix[i]
    return [
        h + (d + 1) % r * w + k
        for h in range(0, prod(radix), r * w)
        for d in range(r)
        for k in range(w)
    ]


def _negated(vecs: list[tuple], p: int) -> list[int]:
    """The index of -v for each v in ``vecs = product(range(p), repeat=k)``."""
    pos = {v: i for i, v in enumerate(vecs)}
    return [pos[_vec_neg(v, p)] for v in vecs]


class HGroup(PGroup):
    """H(n, d): generators x_i, y_i of order p and central z of order p^d,
    with [x_i, y_i] = z^(p^(d-1)) the only nontrivial commutation.

    Elements are normal forms (a, b, c) for x^a y^b z^c; the collection
    convention y^b x^a' = x^a' y^b z^(-p^(d-1) a'.b) fixes the product law.
    H(0, d) is the cyclic group of order p^d.
    """

    def __init__(self, p: int, n: int, d: int):
        require_odd_prime(p)
        if n < 0 or d < 1:
            raise ParameterError(f"H(n, d) needs n >= 0 and d >= 1, got n={n} d={d}")
        self.p = p
        self.n = n
        self.d = d
        self.zmod = p**d
        self.shift = p ** (d - 1)
        self._order = p ** (2 * n + d)

    def identity(self):
        return ((0,) * self.n, (0,) * self.n, 0)

    def mul(self, g, h):
        (a1, b1, c1), (a2, b2, c2) = g, h
        c = (c1 + c2 - self.shift * _dot(a2, b1)) % self.zmod
        return (_vec_add(a1, a2, self.p), _vec_add(b1, b2, self.p), c)

    def inv(self, g):
        a, b, c = g
        ci = (-c - self.shift * _dot(a, b)) % self.zmod
        return (_vec_neg(a, self.p), _vec_neg(b, self.p), ci)

    def _element_list(self):
        vecs = list(product(range(self.p), repeat=self.n))
        return [(a, b, c) for a in vecs for b in vecs for c in range(self.zmod)]

    def _generator_rows(self, limit: int) -> tuple[int, dict, list[int]]:
        # An index has the digits (a_1..a_n, b_1..b_n, c) of its normal
        # form.  x_i steps a_i; y_i steps b_i and subtracts p^(d-1) a_i
        # from c; z steps c.  Entry 0 of a row is its generator's index.
        p, n, zm, sh = self.p, self.n, self.zmod, self.shift
        radix = [p] * (2 * n) + [zm]
        ys = []
        for i in range(n):
            w = prod(radix[i + 1 :])  # the weight of a_i
            step = _step(radix, n + i)
            ys.append([j - k % zm + (k - sh * (k // w % p)) % zm for k, j in enumerate(step)])
        rows = [_step(radix, i) for i in range(n)] + ys + [_step(radix, 2 * n)]
        vecs = list(product(range(p), repeat=n))
        neg = _negated(vecs, p)
        inv = []
        for a, va in enumerate(vecs):
            for b, vb in enumerate(vecs):
                base = (neg[a] * len(vecs) + neg[b]) * zm
                t = sh * _dot(va, vb)
                inv.extend(base + (-c - t) % zm for c in range(zm))
        return 0, {row[0]: row for row in rows}, inv

    def generators(self) -> list:
        xs = [self.gen_x(i) for i in range(self.n)]
        ys = [self.gen_y(i) for i in range(self.n)]
        return xs + ys + [self.gen_z()]

    def descriptor(self) -> str:
        return f"kind=H p={self.p} n={self.n} d={self.d}"

    def gen_x(self, i: int):
        a = tuple(1 if j == i else 0 for j in range(self.n))
        return (a, (0,) * self.n, 0)

    def gen_y(self, i: int):
        b = tuple(1 if j == i else 0 for j in range(self.n))
        return ((0,) * self.n, b, 0)

    def gen_z(self):
        return ((0,) * self.n, (0,) * self.n, 1)


class AGroup(PGroup):
    """A(n, d): like H(n, d) but x_1 has order p^(d+1) with x_1^p = z.

    Elements are normal forms (a1, rest, b) for x_1^a1 x_2^a2 ... y^b with
    a1 mod p^(d+1); the commutator [x_i, y_i] = z^(p^(d-1)) = x_1^(p^d)
    feeds corrections into the a1 coordinate.
    """

    def __init__(self, p: int, n: int, d: int):
        require_odd_prime(p)
        if n < 1 or d < 1:
            raise ParameterError(f"A(n, d) needs n >= 1 and d >= 1, got n={n} d={d}")
        self.p = p
        self.n = n
        self.d = d
        self.x1mod = p ** (d + 1)
        self.shift = p**d
        self._order = p ** (2 * n + d)

    def identity(self):
        return (0, (0,) * (self.n - 1), (0,) * self.n)

    def _avec(self, g):
        a1, rest, _ = g
        return (a1 % self.p,) + rest

    def mul(self, g, h):
        (a1, r1, b1), (a2, r2, b2) = g, h
        a1n = (a1 + a2 - self.shift * _dot(self._avec(h), b1)) % self.x1mod
        return (a1n, _vec_add(r1, r2, self.p), _vec_add(b1, b2, self.p))

    def inv(self, g):
        a1, rest, b = g
        a1i = (-a1 - self.shift * _dot(self._avec(g), b)) % self.x1mod
        return (a1i, _vec_neg(rest, self.p), _vec_neg(b, self.p))

    def _element_list(self):
        rests = list(product(range(self.p), repeat=self.n - 1))
        bvecs = list(product(range(self.p), repeat=self.n))
        return [(a1, r, b) for a1 in range(self.x1mod) for r in rests for b in bvecs]

    def _generator_rows(self, limit: int) -> tuple[int, dict, list[int]]:
        # An index has the digits (a1, a_2..a_n, b_1..b_n) of its normal
        # form, with a_1 = a1 mod p.  x_i steps a1 or a_i; y_i steps b_i and
        # subtracts p^d a_i from a1.  Entry 0 of a row is its generator's index.
        p, n, m, sh = self.p, self.n, self.x1mod, self.shift
        radix = [m] + [p] * (2 * n - 1)
        top = prod(radix[1:])  # the weight of a1
        ys = []
        for i in range(n):
            w = prod(radix[i + 1 :])  # the weight of a_i
            step = _step(radix, n + i)
            ys.append(
                [j + ((k // top - sh * (k // w % p)) % m - k // top) * top for k, j in enumerate(step)]
            )
        rows = [_step(radix, i) for i in range(n)] + ys
        rests = list(product(range(p), repeat=n - 1))
        bvecs = list(product(range(p), repeat=n))
        rneg, bneg = _negated(rests, p), _negated(bvecs, p)
        inv = []
        for a1 in range(m):
            for R, rv in enumerate(rests):
                av = (a1 % p,) + rv
                for B, bv in enumerate(bvecs):
                    a1i = (-a1 - sh * _dot(av, bv)) % m
                    inv.append((a1i * len(rests) + rneg[R]) * len(bvecs) + bneg[B])
        return 0, {row[0]: row for row in rows}, inv

    def generators(self) -> list:
        # z = x_1^p, so the x_i and y_i suffice
        return [self.gen_x(i) for i in range(self.n)] + [self.gen_y(i) for i in range(self.n)]

    def descriptor(self) -> str:
        return f"kind=A p={self.p} n={self.n} d={self.d}"

    def gen_x(self, i: int):
        if i == 0:
            return (1, (0,) * (self.n - 1), (0,) * self.n)
        rest = tuple(1 if j == i - 1 else 0 for j in range(self.n - 1))
        return (0, rest, (0,) * self.n)

    def gen_y(self, i: int):
        b = tuple(1 if j == i else 0 for j in range(self.n))
        return (0, (0,) * (self.n - 1), b)

    def gen_z(self):
        return (self.p, (0,) * (self.n - 1), (0,) * self.n)


class CyclicPGroup(PGroup):
    """Cyclic group of order p^k, written additively on 0..p^k-1."""

    def __init__(self, p: int, k: int):
        require_odd_prime(p)
        if k < 1:
            raise ParameterError(f"cyclic p-group needs k >= 1, got {k}")
        self.p = p
        self.k = k
        self.mod = p**k
        self._order = self.mod

    def identity(self):
        return 0

    def mul(self, a, b):
        return (a + b) % self.mod

    def inv(self, a):
        return (-a) % self.mod

    def _element_list(self):
        return list(range(self.mod))

    def _generator_rows(self, limit: int) -> tuple[int, dict, list[int]]:
        return 0, {1: [*range(1, self.mod), 0]}, [0, *range(self.mod - 1, 0, -1)]

    def generators(self) -> list:
        return [self.gen()]

    def descriptor(self) -> str:
        return f"kind=C p={self.p} k={self.k}"

    def gen(self):
        return 1


class DirectProductGroup(PGroup):
    """Direct product with elements as pairs."""

    def __init__(self, g1: PGroup, g2: PGroup):
        if g1.p != g2.p:
            raise ParameterError(f"prime mismatch: {g1.p} vs {g2.p}")
        self.p = g1.p
        self.g1 = g1
        self.g2 = g2
        self._order = g1.order * g2.order

    def identity(self):
        return (self.g1.identity(), self.g2.identity())

    def mul(self, a, b):
        return (self.g1.mul(a[0], b[0]), self.g2.mul(a[1], b[1]))

    def inv(self, a):
        return (self.g1.inv(a[0]), self.g2.inv(a[1]))

    def generators(self) -> list:
        e1, e2 = self.g1.identity(), self.g2.identity()
        return [(g, e2) for g in self.g1.generators()] + [(e1, h) for h in self.g2.generators()]

    def _index_law(self, limit: int) -> _IndexLaw:
        # (a, b) has index a n2 + b, and (a, b) (c, d) = (a c, b d): only
        # the factors are tabled, however large the product
        _check_limit(self, limit)
        t1 = tables(self.g1, limit)
        t2 = tables(self.g2, limit)
        n2 = t2.n
        m1, m2 = t1.mul, t2.mul

        def mul(i: int, j: int) -> int:
            a, b = divmod(i, n2)
            c, d = divmod(j, n2)
            return m1[a][c] * n2 + m2[b][d]

        gens = tuple(s * n2 + t2.e for s in t1.gens) + tuple(t1.e * n2 + s for s in t2.gens)
        inv = [a * n2 + b for a in t1.inv for b in t2.inv]
        return _IndexLaw(t1.e * n2 + t2.e, gens, mul, inv)

    def _generator_rows(self, limit: int) -> tuple[int, dict, list[int]]:
        # the row of (s1, s2) pairs the factor rows of s1 and s2
        law = self._index_law(limit)
        m1, m2 = tables(self.g1, limit).mul, tables(self.g2, limit).mul
        n2 = len(m2)
        rows = {s: [x * n2 + y for x in m1[s // n2] for y in m2[s % n2]] for s in law.gens}
        return law.e, rows, law.inv

    def _element_list(self):
        return [(a, b) for a in self.g1.elements() for b in self.g2.elements()]

    def descriptor(self) -> str:
        return f"{self.g1.descriptor()} x {self.g2.descriptor()}"


class _IndexGroup(PGroup):
    """A subgroup or quotient of ``parent``: its elements are the indices
    0..n-1 and its law, composed from the parent's, is ``mul`` and ``inv``
    on them.  ``gens`` become its generators, without the identity ``e``
    or repeats."""

    def __init__(self, parent: PGroup, kind: str, e: int, gens, mul, inv: list[int]):
        own = dict.fromkeys(gens)
        own.pop(e, None)
        self.p = parent.p
        self._law = _IndexLaw(e, tuple(own), mul, inv)
        self._order = len(inv)
        self._descriptor = f"{kind}(order={self._order}) of {parent.descriptor()}"

    def identity(self):
        return self._law.e

    def mul(self, a, b):
        return self._law.mul(a, b)

    def inv(self, a):
        return self._law.inv[a]

    def generators(self) -> list:
        return list(self._law.gens)

    def _index_law(self, limit: int) -> _IndexLaw:
        _check_limit(self, limit)
        return self._law

    def _element_list(self):
        return list(range(self._order))

    def descriptor(self) -> str:
        return self._descriptor


def _parent_indices(law: _IndexLaw, xs, what: str) -> list[int]:
    xs = list(xs)
    n = len(law.inv)
    if not all(isinstance(x, int) and 0 <= x < n for x in xs):
        raise ParameterError(f"{what} has elements outside the group")
    return xs


def subgroup(parent: PGroup, gen_indices, limit: int = DEFAULT_LIMIT) -> PGroup:
    """The subgroup of ``parent`` generated by the elements with the parent
    indices ``gen_indices``.  Its k-th element is the k-th smallest parent
    index in it; its generators are those of ``gen_indices``, in order,
    without the identity or repeats.  Closure, rows and inverses use the
    parent's index law (materialized under ``limit``)."""
    law = parent._index_law(limit)
    gens = _parent_indices(law, gen_indices, "generating set")
    members = sorted(closure([law.e], gens, law.mul))
    pos = {m: k for k, m in enumerate(members)}
    pmul = law.mul
    return _IndexGroup(
        parent,
        "subgroup",
        pos[law.e],
        (pos[g] for g in gens),
        lambda a, b: pos[pmul(members[a], members[b])],
        [pos[law.inv[m]] for m in members],
    )


def quotient(parent: PGroup, normal_indices, limit: int = DEFAULT_LIMIT) -> PGroup:
    """G/N for the normal subgroup N of ``parent`` with the parent indices
    ``normal_indices``.

    Coset k is the k-th coset in the order of the least parent index in
    it, which is its representative, so the element order is
    deterministic.  Cosets, the normality check and the quotient's law all
    use the parent's index law (materialized under ``limit``; a direct
    product multiplies through its factors' tables).  Normality is tested
    on the parent's generators only: conjugation is a bijection, so
    s^-1 N s within N gives s^-1 N s = N, and the elements fixing N form a
    subgroup.
    """
    law = parent._index_law(limit)
    mul = law.mul
    nidx = set(_parent_indices(law, normal_indices, "normal subgroup"))
    if law.e not in nidx:
        raise ParameterError("normal subgroup must contain the identity")
    n = len(law.inv)
    if n % len(nidx):
        raise ParameterError("subgroup size does not divide the group order")
    coset_id = [-1] * n
    reps: list[int] = []
    for g in range(n):  # the first unassigned index leads its coset
        if coset_id[g] >= 0:
            continue
        members = {mul(g, h) for h in nidx}
        if len(members) != len(nidx):
            raise ParameterError("coset size mismatch: not a subgroup")
        for x in members:
            if coset_id[x] >= 0:
                raise ParameterError("cosets overlap: not a subgroup")
            coset_id[x] = len(reps)
        reps.append(g)
    if any(mul(mul(law.inv[s], h), s) not in nidx for s in law.gens for h in nidx):
        raise ParameterError("subgroup is not normal")
    # coset c times coset d is the coset of rep(c) rep(d)
    return _IndexGroup(
        parent,
        "quotient",
        coset_id[law.e],
        (coset_id[s] for s in law.gens),
        lambda a, b: coset_id[mul(reps[a], reps[b])],
        [coset_id[law.inv[r]] for r in reps],
    )


class TableGroup(PGroup):
    """A group given by an explicit Cayley table of 0-based indices.

    Used for foreign groups fed to the CLI; the constructor checks the
    group axioms (closure, identity, inverses, associativity), so an
    invalid table is rejected rather than silently accepted.
    Associativity is Light's test: x (a y) = (x a) y for every x, y and
    every a in a generating set, which holds for all a exactly when it
    holds for the generators (the elements passing it are closed under
    products).
    """

    def __init__(self, p: int, table: list[list[int]]):
        require_odd_prime(p)
        n = len(table)
        if n < 1 or any(len(row) != n for row in table):
            raise ParameterError("Cayley table must be square")
        m = n
        while m % p == 0:
            m //= p
        if m != 1:
            raise ParameterError(f"order {n} is not a power of p = {p}")
        rows = [tuple(row) for row in table]
        for row in rows:
            if min(row) < 0 or max(row) >= n:
                bad = next(x for x in row if not 0 <= x < n)
                raise ParameterError(f"table entry {bad} out of range")
        identity_row = tuple(range(n))
        ident = next(
            (e for e in range(n) if rows[e] == identity_row and all(rows[x][e] == x for x in range(n))),
            None,
        )
        if ident is None:
            raise ParameterError("table has no identity element")
        # The first right inverse must also be a left inverse: when another
        # two-sided inverse exists the table is not associative anyway.
        inverse = []
        for a, row in enumerate(rows):
            b = row.index(ident) if ident in row else None
            if b is None or rows[b][a] != ident:
                raise ParameterError(f"element {a} has no inverse")
            inverse.append(b)
        # every element is a product e s_1 s_2 ... of these generators
        gens = _greedy_generators(n, {ident}, lambda x, s: rows[x][s])
        for a in gens:
            row_a = rows[a]
            gather = itemgetter(*row_a)
            for x, row_x in enumerate(rows):
                if gather(row_x) != rows[row_x[a]]:
                    y = next(y for y in range(n) if row_x[row_a[y]] != rows[row_x[a]][y])
                    raise ParameterError(
                        f"table is not associative at ({x}, {a}, {y})"
                    )
        self.p = p
        self._table = rows
        self._inv_list = inverse
        self._ident = ident
        self._gens = gens
        self._order = n

    def identity(self):
        return self._ident

    def mul(self, a, b):
        return self._table[a][b]

    def inv(self, a):
        return self._inv_list[a]

    def generators(self) -> list:
        return list(self._gens)

    def _generator_rows(self, limit: int) -> tuple[int, dict, list[int]]:
        return self._ident, {s: self._table[s] for s in self._gens}, self._inv_list

    def _element_list(self):
        return list(range(len(self._table)))

    def descriptor(self) -> str:
        return f"table(order={len(self._table)}, p={self.p})"


def make_group(kind: str, p: int, n: int, d: int) -> PGroup:
    """Construct H(n, d) or A(n, d) from parameters."""
    if kind == "H":
        return HGroup(p, n, d)
    if kind == "A":
        return AGroup(p, n, d)
    raise ParameterError(f"unknown group kind {kind!r}")


def parse_group_descriptor(text: str) -> PGroup:
    """Parse ``kind=H p=3 n=1 d=1`` optionally joined by `` x `` into products."""
    parts = text.split(" x ")
    groups = []
    for part in parts:
        kv = {}
        for tok in part.split():
            k, sep, v = tok.partition("=")
            if not sep:
                raise ParseError(f"malformed group descriptor: {part!r}")
            kv[k] = v
        try:
            kind = kv.pop("kind")
            if kind in ("H", "A"):
                groups.append(make_group(kind, int(kv.pop("p")), int(kv.pop("n")), int(kv.pop("d"))))
            elif kind == "C":
                groups.append(CyclicPGroup(int(kv.pop("p")), int(kv.pop("k"))))
            else:
                raise ParseError(f"unknown group kind {kind!r}")
            if kv:
                raise ParseError(f"unexpected fields {sorted(kv)} in descriptor {part!r}")
        except (KeyError, ValueError) as exc:
            raise ParseError(f"malformed group descriptor: {part!r}") from exc
    G = groups[0]
    for h in groups[1:]:
        G = DirectProductGroup(G, h)
    return G

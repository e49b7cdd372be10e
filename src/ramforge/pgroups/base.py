"""Core finite p-group machinery: normal-form groups, products, subgroups,
quotients, Cayley-table groups, and lazy materialization to index tables.

Every group exposes a deterministic element order and a generating set;
all searches and constructions derive their results from that order, never
from timing, so repeated runs give identical answers.  Every group knows
its order as p^e before any element is enumerated, and a limit check
decides on e before p^e is computed.  Every group but an index group
(below), which is no larger than the parent whose sized law it was built
from, is sized against DEFAULT_LIMIT when its rows, its composed law or
its table is first built.  Each group keeps one row per generator
(`PGroup._rows`), which `tables` composes into the table; kept rows and a
kept table are returned without sizing again.  No table calls a group
law: H(n, d), A(n, d) and the cyclic C(p^k) = H(0, k) share one
class-two normal form, which computes generator rows and inverses by
arithmetic on its mixed-radix index layout, and a direct product pairs
its factors' rows.  Every other group is an index group: its elements
are the indices 0..n-1.  An explicit table is one once its axioms are
checked, and its checked rows are its table and its generator rows.
`subgroup` and `quotient` take parent indices and return one whose law
is composed from the parent's index law, so they keep no element view.
A direct product without a table of its own multiplies indices through
its factors' tables, so a subgroup or quotient of a product never tables
the product itself; a tabled product reads its law from its rows.  A
quotient checks normality by conjugating N by the parent's generators
only.  The laws of H, A, C and products stay the public API and the test
oracle for the tables.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, product
from math import gcd, prod
from operator import add, itemgetter, mod, neg
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

    Subclasses set ``p``, ``_exp`` (the order is p^_exp) and
    ``_descriptor`` in ``__init__``, and define `_index_law`.
    """

    p: int
    _exp: int
    _descriptor: str

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

    def _index_law(self) -> _IndexLaw:
        """The group law on element indices."""
        raise NotImplementedError

    def _generator_rows(self) -> tuple[int, dict, list[int]]:
        """The identity's index, the row ``b -> s b`` of each generator
        index ``s`` (without the identity or repeats, in generator order),
        and the inverse of every index, all without calling the law.  By
        default they are read from `_index_law`.  Called only by `_rows`,
        which sizes the group first."""
        law = self._index_law()
        n = len(law.inv)
        return law.e, {s: [law.mul(s, b) for b in range(n)] for s in law.gens}, law.inv

    def _rows(self) -> tuple[int, dict, list[int]]:
        """`_generator_rows()`, built once and kept.  The group is sized
        (`_check_limit`) when they are built."""
        if getattr(self, "_row_view", None) is None:
            _check_limit(self)
            self._row_view = self._generator_rows()
        return self._row_view

    def descriptor(self) -> str:
        return self._descriptor

    # -- cached element order / index tables --------------------------------

    def elements(self) -> tuple:
        cached = getattr(self, "_elements", None)
        if cached is None:
            cached = tuple(self._element_list())
            self._elements = cached
        return cached

    @property
    def order(self) -> int:
        return self.p**self._exp

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
        m / gcd(k, m) when g has order m.  A walk, not `closure`: the fill
        needs the exponent k of each power."""
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

    def law(self) -> _IndexLaw:
        """The group law read from the rows."""
        rows = self.mul
        return _IndexLaw(self.e, self.gens, lambda a, b: rows[a][b], self.inv)

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


def _greedy_generators(elements, span, mul) -> list[int]:
    """Indices of the subgroup ``elements`` in increasing order, each taken
    when it lies outside ``span`` closed under right multiplication by the
    ones taken before, until that closure is all of ``elements``.  From the
    identity they generate; from Phi(G) they form a minimal generating
    sequence; from a normal L in a subgroup D with D/L elementary abelian,
    a basis of D/L."""
    gens: list[int] = []
    for g in elements:
        if len(span) == len(elements):
            break
        if g not in span:
            gens.append(g)
            span = closure(span, gens, mul)
    return gens


def _extend_partial(eg: int, eh: int, pairs: list[tuple]) -> dict[int, int] | None:
    """The map with phi(eg) = eh and phi(g_i x) = h_i phi(x) on what ``eg``
    reaches by left multiplication; ``pairs`` holds the rows b -> g_i b and
    b -> h_i b (a table's ``mul[g_i]``, or generator rows).  None if a step
    is inconsistent or not injective.  From the identities it is a
    homomorphism on <g_1, ..., g_k>: phi(w x) = phi(w) phi(x) by induction
    on the length of the word w."""
    phi = {eg: eh}
    used = {eh}
    queue = [eg]  # a BFS, not `closure`: each image comes from its parent's
    for x in queue:
        fx = phi[x]
        for row_g, row_h in pairs:
            y, img = row_g[x], row_h[fx]
            known = phi.get(y)
            if known is None:
                if img in used:
                    return None
                phi[y] = img
                used.add(img)
                queue.append(y)
            elif known != img:
                return None
    return phi


def _log_p(n: int, p: int) -> int:
    """The k with p^k = n."""
    k, m = 0, n
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise ParameterError(f"order {n} is not a power of p = {p}")
    return k


def _within_limit(p: int, e: int, limit: int) -> bool:
    """p^e <= ``limit``, decided on e first: p >= 3, so p^e exceeds
    ``limit`` once e exceeds its bit length, and p^e for e in the millions
    takes seconds to compute."""
    return e <= limit.bit_length() and p**e <= limit


def _check_limit(G: PGroup) -> None:
    """Refuse a group of order above DEFAULT_LIMIT (see `_within_limit`)
    unless it is an index group, which is never sized: a subgroup or
    quotient is no larger than the parent whose sized law it was built
    from, and an explicit table is already in memory.  The message names
    the group by its descriptor: an order such as 3^10001 is too long for
    Python to print in decimal."""
    if isinstance(G, _IndexGroup):
        return
    if not _within_limit(G.p, G._exp, DEFAULT_LIMIT):
        raise MaterializationLimitError(
            f"group {G.descriptor()} exceeds materialization limit {DEFAULT_LIMIT}"
        )


def tables(G: PGroup) -> GroupTables:
    """Materialize multiplication/inverse index tables (cached on the group).

    The group supplies one row per generator and the inverses (by index
    arithmetic, or from its parents) through `PGroup._rows`; every other
    row is composed from those breadth-first from the identity, so the
    table agrees with the law whenever the law is associative and the rows
    agree with it.  An explicit table's checked rows are its tables,
    cached when it is made.  A kept table is returned as it is; any other
    group is sized (`_check_limit`) by `_rows` before its rows are built.
    """
    cached = getattr(G, "_tables", None)
    if cached is not None:
        return cached
    e, rows, inv = G._rows()
    n = G.order
    gens = tuple(rows)
    # gather[s] maps the row of a to the row of a s, since (a s) b = a (s b)
    gather = {s: itemgetter(*row) for s, row in rows.items()}
    mul: list = [None] * n
    mul[e] = tuple(range(n))
    queue = [e]  # a BFS, not `closure`: each row is composed from its parent's
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


class _ClassTwoGroup(PGroup):
    """The class-two normal form behind H(n, d), A(n, d) and C(p^k):
    generators x_1..x_n, y_1..y_n and a central z, with
    [x_i, y_i] = z^(p^(d-1)) the only nontrivial commutator.

    An element is the tuple of its mixed-radix digits, first digit most
    significant: the exponents of x_1..x_n, then of y_1..y_n, and its
    index is their mixed-radix value.  z lives on the central digit
    ``zpos`` in steps of ``zstep``: H(n, d) gives z a last digit of its
    own (step 1), A(n, d) counts it on x_1's digit (step p, as
    x_1^p = z).  Every digit has radix p except the central one, whose
    radix is zstep p^d, and the commutator is shift = zstep p^(d-1) on
    it.  Collecting y^b x^a' = x^a' y^b z^(-p^(d-1) a'.b) gives the law:
    digits add, and the central digit loses shift * sum_i (a'_i mod p) b_i.

    The digit list is built when first needed, never by a limit check:
    an over-limit group can have millions of digits.
    """

    def __init__(self, p: int, n: int, d: int, zpos: int, zstep: int, descriptor: str):
        require_odd_prime(p)
        self.p = p
        self.n = n
        self.d = d
        self._zpos = zpos
        self._zstep = zstep
        self._exp = 2 * n + d
        self._descriptor = descriptor

    @cached_property
    def _radix(self) -> list[int]:
        radix = [self.p] * (2 * self.n + (self._zpos == 2 * self.n))
        radix[self._zpos] = self._zstep * self.p**self.d
        return radix

    def _collected(self, digits: list[int], xs: tuple, ys: tuple) -> tuple:
        """``digits`` with shift * sum_i (x_i mod p) y_i taken off the
        central digit, reduced by their radices; x_i is digit i of ``xs``
        and y_i is digit n + i of ``ys``."""
        n = self.n
        if n:
            p, z = self.p, self._zpos
            digits[z] -= self._radix[z] // p * sum(x % p * y for x, y in zip(xs[:n], ys[n:]))
        return tuple(map(mod, digits, self._radix))

    def identity(self):
        return (0,) * len(self._radix)

    def mul(self, g, h):
        return self._collected(list(map(add, g, h)), h, g)

    def inv(self, g):
        return self._collected(list(map(neg, g)), g, g)

    def _element_list(self):
        return list(product(*map(range, self._radix)))

    def _index_law(self) -> _IndexLaw:
        # read from the tables, which `_generator_rows` below computes
        return tables(self).law()

    def _generator_rows(self) -> tuple[int, dict, list[int]]:
        # Each generator steps its digit; y_i also takes shift * (x_i mod p)
        # off the central digit.  The inverse negates every digit and takes
        # shift * sum_i (x_i mod p) y_i off the central one.  Entry 0 of a
        # row is its generator's index.
        radix, n, p, z = self._radix, self.n, self.p, self._zpos
        size = prod(radix)
        rz, wz, shift = radix[z], prod(radix[z + 1 :]), radix[z] // p

        def digit(j: int, m: int, sign: int = 1) -> list[int]:
            # sign times digit j of every index, mod m
            w, r = prod(radix[j + 1 :]), radix[j]
            return [sign * d % m for d in range(r) for _ in range(w)] * (size // (r * w))

        def twisted(row, cs, ts):
            # row with shift * t taken off the central digit c of each entry
            return [j + ((c - shift * t) % rz - c) * wz for j, c, t in zip(row, cs, ts)]

        xs = [digit(i, p) for i in range(n)]
        rows = [_step(radix, j) for j in range(len(radix))]
        cs = digit(z, rz)
        rows[n : 2 * n] = [twisted(rows[n + i], cs, xs[i]) for i in range(n)]
        negated = [0]
        for r in radix:
            negated = [a * r + (-b) % r for a in negated for b in range(r)]
        ts = [0] * size
        for i in range(n):
            ts = [t + x * y for t, x, y in zip(ts, xs[i], digit(n + i, p))]
        inv = twisted(negated, digit(z, rz, -1), ts)
        return 0, {row[0]: row for row in rows}, inv

    def generators(self) -> list:
        # one per digit: x_1..x_n, y_1..y_n, and z where it has its own
        return [self._unit(j) for j in range(len(self._radix))]

    def _unit(self, j: int, step: int = 1) -> tuple:
        return tuple(step if i == j else 0 for i in range(len(self._radix)))

    def gen_x(self, i: int):
        return self._unit(i)

    def gen_y(self, i: int):
        return self._unit(self.n + i)

    def gen_z(self):
        return self._unit(self._zpos, self._zstep)


class HGroup(_ClassTwoGroup):
    """H(n, d): x_i, y_i of order p and central z of order p^d.  Digits
    (a_1..a_n, b_1..b_n, c) for x^a y^b z^c.  H(0, d) is the cyclic group
    of order p^d."""

    def __init__(self, p: int, n: int, d: int):
        super().__init__(p, n, d, 2 * n, 1, f"kind=H p={p} n={n} d={d}")
        if n < 0 or d < 1:
            raise ParameterError(f"H(n, d) needs n >= 0 and d >= 1, got n={n} d={d}")


class AGroup(_ClassTwoGroup):
    """A(n, d): like H(n, d) but x_1 has order p^(d+1) with x_1^p = z.
    Digits (a1, a_2..a_n, b_1..b_n) for x_1^a1 x_2^a2 ... y^b, with a1
    mod p^(d+1) and z on a1 in steps of p."""

    def __init__(self, p: int, n: int, d: int):
        super().__init__(p, n, d, 0, p, f"kind=A p={p} n={n} d={d}")
        if n < 1 or d < 1:
            raise ParameterError(f"A(n, d) needs n >= 1 and d >= 1, got n={n} d={d}")


class CyclicPGroup(_ClassTwoGroup):
    """The cyclic group of order p^k, as H(0, k): its elements are the
    1-tuples (c,) for gen_z()^c."""

    def __init__(self, p: int, k: int):
        super().__init__(p, 0, k, 0, 1, f"kind=C p={p} k={k}")
        if k < 1:
            raise ParameterError(f"cyclic p-group needs k >= 1, got {k}")


class DirectProductGroup(PGroup):
    """Direct product with elements as pairs."""

    def __init__(self, g1: PGroup, g2: PGroup):
        if g1.p != g2.p:
            raise ParameterError(f"prime mismatch: {g1.p} vs {g2.p}")
        self.p = g1.p
        self.g1 = g1
        self.g2 = g2
        self._exp = g1._exp + g2._exp
        self._descriptor = f"{g1.descriptor()} x {g2.descriptor()}"

    def identity(self):
        return (self.g1.identity(), self.g2.identity())

    def mul(self, a, b):
        return (self.g1.mul(a[0], b[0]), self.g2.mul(a[1], b[1]))

    def inv(self, a):
        return (self.g1.inv(a[0]), self.g2.inv(a[1]))

    def generators(self) -> list:
        e1, e2 = self.g1.identity(), self.g2.identity()
        return [(g, e2) for g in self.g1.generators()] + [(e1, h) for h in self.g2.generators()]

    def _index_law(self) -> _IndexLaw:
        if getattr(self, "_tables", None) is not None:
            return self._tables.law()
        # the one law composed without a table of its own, so it is sized
        _check_limit(self)
        return self._composed_law()

    def _composed_law(self) -> _IndexLaw:
        # (a, b) has index a n2 + b, and (a, b) (c, d) = (a c, b d): only
        # the factors are tabled
        t1 = tables(self.g1)
        t2 = tables(self.g2)
        n2 = t2.n
        m1, m2 = t1.mul, t2.mul

        def mul(i: int, j: int) -> int:
            a, b = divmod(i, n2)
            c, d = divmod(j, n2)
            return m1[a][c] * n2 + m2[b][d]

        gens = tuple(s * n2 + t2.e for s in t1.gens) + tuple(t1.e * n2 + s for s in t2.gens)
        inv = [a * n2 + b for a in t1.inv for b in t2.inv]
        return _IndexLaw(t1.e * n2 + t2.e, gens, mul, inv)

    def _generator_rows(self) -> tuple[int, dict, list[int]]:
        # the row of (s1, s2) pairs the factor rows of s1 and s2
        law = self._composed_law()
        m1, m2 = tables(self.g1).mul, tables(self.g2).mul
        n2 = len(m2)
        rows = {s: [x * n2 + y for x in m1[s // n2] for y in m2[s % n2]] for s in law.gens}
        return law.e, rows, law.inv

    def _element_list(self):
        return [(a, b) for a in self.g1.elements() for b in self.g2.elements()]


class _IndexGroup(PGroup):
    """A group whose elements are the indices 0..n-1 and whose law is
    ``mul`` and ``inv`` on them: a subgroup or a quotient, with its law
    composed from its parent's, or an explicit table.  ``gens`` become its
    generators, without the identity ``e`` or repeats."""

    def __init__(self, p: int, descriptor: str, e: int, gens, mul, inv: list[int]):
        own = dict.fromkeys(gens)
        own.pop(e, None)
        self.p = p
        self._law = _IndexLaw(e, tuple(own), mul, inv)
        self._exp = _log_p(len(inv), p)
        self._descriptor = descriptor

    def identity(self):
        return self._law.e

    def mul(self, a, b):
        return self._law.mul(a, b)

    def inv(self, a):
        return self._law.inv[a]

    def generators(self) -> list:
        return list(self._law.gens)

    def _index_law(self) -> _IndexLaw:
        return self._law

    def _element_list(self):
        return list(range(len(self._law.inv)))


def _parent_indices(law: _IndexLaw, xs, what: str) -> list[int]:
    xs = list(xs)
    n = len(law.inv)
    if not all(isinstance(x, int) and 0 <= x < n for x in xs):
        raise ParameterError(f"{what} has elements outside the group")
    return xs


def subgroup(parent: PGroup, gen_indices) -> PGroup:
    """The subgroup of ``parent`` generated by the elements with the parent
    indices ``gen_indices``.  Its k-th element is the k-th smallest parent
    index in it; its generators are those of ``gen_indices``, in order,
    without the identity or repeats.  Closure, rows and inverses use the
    parent's index law."""
    law = parent._index_law()
    gens = _parent_indices(law, gen_indices, "generating set")
    members = sorted(closure([law.e], gens, law.mul))
    pos = {m: k for k, m in enumerate(members)}
    pmul = law.mul
    return _IndexGroup(
        parent.p,
        f"subgroup(order={len(members)}) of {parent.descriptor()}",
        pos[law.e],
        (pos[g] for g in gens),
        lambda a, b: pos[pmul(members[a], members[b])],
        [pos[law.inv[m]] for m in members],
    )


def quotient(parent: PGroup, normal_indices) -> PGroup:
    """G/N for the normal subgroup N of ``parent`` with the parent indices
    ``normal_indices``.

    Coset k is the k-th coset in the order of the least parent index in
    it, which is its representative, so the element order is
    deterministic.  Cosets, the normality check and the quotient's law all
    use the parent's index law (a direct product without a table of its
    own multiplies through its factors' tables).  Normality is tested on
    the parent's generators only: conjugation is a bijection, so
    s^-1 N s within N gives s^-1 N s = N, and the elements fixing N form
    a subgroup.
    """
    law = parent._index_law()
    mul = law.mul
    nidx = set(_parent_indices(law, normal_indices, "normal subgroup"))
    if law.e not in nidx:
        raise ParameterError("normal subgroup must contain the identity")
    n = len(law.inv)
    if n % len(nidx):
        raise ParameterError("subgroup size does not divide the group order")
    coset_id = [-1] * n
    reps: list[int] = []
    for g in range(n):  # n products in all; an orbit `closure` under N takes n |N|
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
        parent.p,
        f"quotient(order={len(reps)}) of {parent.descriptor()}",
        coset_id[law.e],
        (coset_id[s] for s in law.gens),
        lambda a, b: coset_id[mul(reps[a], reps[b])],
        [coset_id[law.inv[r]] for r in reps],
    )


def _row_keys(rows: list[tuple[int, ...]], n: int):
    """The rows of an order-n Cayley table as keys that compare like them,
    and ``compose``: compose(a) yields, for x = 0..n-1, the key of the row
    y -> x (a y).  When n <= 256 every index fits in a byte, so the keys
    are bytes and that row is a's key translated by x's: one
    ``bytes.translate`` in place of n lookups through itemgetter.  Above
    256 the keys are the rows.  Raises TypeError, ValueError or
    OverflowError unless every entry is an integer in [0, n).
    """
    if n <= 256:
        keys = [bytes(row) for row in rows]
        indices = bytes(range(n))
        if any(key.translate(None, indices) for key in keys):  # an entry in [n, 256)
            raise ValueError
        padded = [key + bytes(256 - n) for key in keys]
        return keys, lambda a: map(keys[a].translate, padded)
    if any(max(array("Q", row)) >= n for row in rows):
        raise ValueError
    return rows, lambda a: map(itemgetter(*rows[a]), rows)


def _entry_error(rows: list[tuple], n: int) -> ParameterError:
    """The error naming the first entry of ``rows`` that is not an integer
    in [0, n)."""
    for x in chain.from_iterable(rows):
        if not hasattr(type(x), "__index__"):
            return ParameterError(f"table entry {x!r} is not an integer")
        if not 0 <= x < n:
            return ParameterError(f"table entry {x} out of range")
    raise InternalCheckError("every table entry is an index")


class TableGroup(_IndexGroup):
    """A group given by an explicit Cayley table of 0-based indices.

    Used for foreign groups fed to the CLI; the constructor checks the
    group axioms (closure, identity, inverses, associativity), so an
    invalid table is rejected rather than silently accepted.
    Associativity is Light's test: x (a y) = (x a) y for every x, y and
    every a in a generating set, which holds for all a exactly when it
    holds for the generators (the elements passing it are closed under
    products).  The checked rows, inverses, identity and generators are
    the group's tables, so `tables` composes no second table.
    """

    def __init__(self, p: int, table: list[list[int]]):
        require_odd_prime(p)
        n = len(table)
        if n < 1 or any(len(row) != n for row in table):
            raise ParameterError("Cayley table must be square")
        _log_p(n, p)
        rows = [tuple(row) for row in table]
        try:
            keys, compose = _row_keys(rows, n)
        except (TypeError, ValueError, OverflowError):
            raise _entry_error(rows, n) from None
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
        for a, key in enumerate(keys):
            b = key.index(ident) if ident in key else None
            if b is None or rows[b][a] != ident:
                raise ParameterError(f"element {a} has no inverse")
            inverse.append(b)
        # every element is a product e s_1 s_2 ... of these generators
        gens = _greedy_generators(range(n), {ident}, lambda x, s: rows[x][s])
        for a in gens:
            for x, (key, row_x) in enumerate(zip(compose(a), rows)):
                if key != keys[row_x[a]]:
                    row_a = rows[a]
                    y = next(y for y in range(n) if row_x[row_a[y]] != rows[row_x[a]][y])
                    raise ParameterError(
                        f"table is not associative at ({x}, {a}, {y})"
                    )
        super().__init__(
            p, f"table(order={n}, p={p})", ident, gens, lambda a, b: rows[a][b], inverse
        )
        self._tables = GroupTables(p, n, ident, rows, inverse, tuple(gens))
        self._row_view = ident, {s: rows[s] for s in gens}, inverse


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
            if k in kv:  # a later copy would silently win
                raise ParseError(f"repeated field {k!r} in descriptor {part!r}")
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
        except (ParameterError, ParseError):
            raise  # they name the violated condition
        except (KeyError, ValueError) as exc:
            raise ParseError(f"malformed group descriptor: {part!r}") from exc
    G = groups[0]
    for h in groups[1:]:
        G = DirectProductGroup(G, h)
    return G

"""Independent checks of the generator-based group engine.

sympy's permutation groups (Schreier-Sims, on the right regular
representation built from the group law) are the oracle for orders,
centers, commutator subgroups, conjugacy classes, normal closures and
permutation orders; an exhaustive O(n^3) associativity scan is the oracle
for `TableGroup`'s axiom check.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup
from test_pgroups import law_tables, relabelled

from ramforge.errors import ParameterError
from ramforge.pgroups import (
    CyclicPGroup,
    DirectProductGroup,
    TableGroup,
    make_group,
    parse_group_descriptor,
    subgroup,
    tables,
)
from ramforge.pgroups.analysis import (
    center_idx,
    commutator_subgroup_idx,
    conjugacy_classes_idx,
    normal_closure_idx,
    perm_order,
)
from ramforge.pgroups.iso import _signatures

# Descriptor groups up to order 243, and C_3 wr C_3 (order 81, class 3)
# as a table and as the subgroup its two standard generators generate.
WREATH = "C3 wr C3"
WREATH_AB = "C3 wr C3 on <a, b>"
DESCRIPTORS = (
    WREATH,
    WREATH_AB,
    "kind=H p=3 n=1 d=1",
    "kind=H p=3 n=1 d=2",
    "kind=H p=3 n=1 d=3",
    "kind=H p=3 n=2 d=1",
    "kind=H p=3 n=0 d=2",
    "kind=A p=3 n=1 d=1",
    "kind=A p=3 n=1 d=2",
    "kind=A p=3 n=1 d=3",
    "kind=A p=3 n=2 d=1",
    "kind=H p=5 n=1 d=1",
    "kind=C p=3 k=4",
    "kind=C p=5 k=2 x kind=C p=5 k=1",
    "kind=H p=3 n=1 d=1 x kind=C p=3 k=1",
    "kind=H p=3 n=1 d=1 x kind=C p=3 k=2",
    "kind=A p=3 n=1 d=1 x kind=C p=3 k=1 x kind=C p=3 k=1",
    "kind=C p=3 k=1 x kind=C p=3 k=1 x kind=C p=3 k=1",
)


def wreath():
    """C_3 wr C_3 as the Sylow 3-subgroup of S_9 (elements sorted), and
    the indices of its generators a, b."""
    a = Permutation([1, 2, 0, 3, 4, 5, 6, 7, 8])
    b = Permutation([3, 4, 5, 6, 7, 8, 0, 1, 2])
    elems = sorted(PermutationGroup([a, b]).elements, key=lambda g: g.array_form)
    idx = {g: i for i, g in enumerate(elems)}
    return TableGroup(3, [[idx[x * y] for y in elems] for x in elems]), [idx[a], idx[b]]


def make(desc):
    if desc == WREATH:
        return wreath()[0]
    if desc == WREATH_AB:
        return subgroup(*wreath())
    return parse_group_descriptor(desc)


def translation(G, s):
    elems = G.elements()
    idx = G.index_map()
    return Permutation([idx[G.mul(x, s)] for x in elems])


def regular_representation(G):
    """sympy group of the right translations x -> x s by the generators,
    computed from the group law; element g corresponds to the permutation
    that sends the identity to g."""
    perms = [translation(G, s) for s in G.generators()]
    return PermutationGroup(perms or [Permutation(list(range(G.order)))])


def element_set(P, e):
    return {perm(e) for perm in P.elements}


@st.composite
def groups(draw):
    """A seeded relabelling of one of the groups above, as a table."""
    G = make(draw(st.sampled_from(DESCRIPTORS)))
    return TableGroup(G.p, relabelled(law_tables(G), draw(st.integers(0, 2**32))))


def check_against_sympy(G):
    t = tables(G)
    P = regular_representation(G)
    assert P.order() == G.order == t.n
    assert set(center_idx(t)) == element_set(P.center(), t.e)
    assert set(commutator_subgroup_idx(t)) == element_set(P.derived_subgroup(), t.e)
    classes = conjugacy_classes_idx(t)
    assert set(classes) == {frozenset(g(t.e) for g in c) for c in P.conjugacy_classes()}
    assert [min(c) for c in classes] == sorted(min(c) for c in classes)


class TestSympyOracle:
    @pytest.mark.parametrize("desc", DESCRIPTORS)
    def test_order_center_commutator(self, desc):
        check_against_sympy(make(desc))

    @settings(max_examples=25, deadline=None)
    @given(groups())
    def test_relabelled(self, G):
        check_against_sympy(G)

    @pytest.mark.parametrize(
        "desc", [WREATH, WREATH_AB, "kind=H p=3 n=1 d=2", "kind=A p=3 n=1 d=1 x kind=C p=3 k=1"]
    )
    def test_normal_closures(self, desc):
        # of every element, and of every fifth pair of consecutive ones.
        # C3 wr C3 has class 3, the only group here where g and its
        # conjugates by the generators can generate less than the normal
        # closure of g (for 18 of its 81 elements)
        G = make(desc)
        t = tables(G)
        P = regular_representation(G)
        elems = G.elements()
        for xs in [[g] for g in range(t.n)] + [[g, g + 1] for g in range(0, t.n - 1, 5)]:
            want = P.normal_closure([translation(G, elems[g]) for g in xs])
            assert set(normal_closure_idx(t, xs)) == element_set(want, t.e), xs

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40).flatmap(lambda n: st.permutations(range(n))))
    def test_perm_order(self, perm):
        assert perm_order(perm) == Permutation(perm).order()

    @pytest.mark.parametrize("desc", [WREATH, "kind=H p=3 n=1 d=2", "kind=A p=3 n=2 d=1"])
    def test_centralizer_sizes(self, desc):
        G = make(desc)
        t = tables(G)
        P = regular_representation(G)
        elems = G.elements()
        sig = _signatures(t)
        for g in range(0, t.n, 7):
            assert sig[g][1] == P.centralizer(translation(G, elems[g])).order()


def valid_tables():
    return [
        law_tables(make_group("H", 3, 1, 1)),
        law_tables(make_group("A", 3, 1, 1)),
        law_tables(DirectProductGroup(CyclicPGroup(3, 1), CyclicPGroup(3, 1))),
        law_tables(CyclicPGroup(5, 2)),
        law_tables(make_group("H", 3, 1, 2)),
    ]


VALID = valid_tables()


def exhaustive_group_check(rows):
    """The O(n^3) reference: identity, two-sided inverses, associativity."""
    n = len(rows)
    idents = [e for e in range(n) if all(rows[e][x] == x == rows[x][e] for x in range(n))]
    if not idents:
        return False
    e = idents[0]
    if not all(any(rows[a][b] == e == rows[b][a] for b in range(n)) for a in range(n)):
        return False
    return all(
        rows[rows[a][b]][c] == rows[a][rows[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def reduced_latin_squares(n):
    """Every n x n Latin square whose first row and column are 0..n-1."""
    out = []

    def fill(rows, row):
        r, c = len(rows), len(row)
        if c == n:
            rows = rows + [row]
            if len(rows) == n:
                out.append(rows)
            else:
                fill(rows, [len(rows)])
            return
        used = set(row) | {rows[i][c] for i in range(r)}
        for v in range(n):
            if v not in used:
                fill(rows, row + [v])

    fill([list(range(n))], [1])
    return out


class TestTableGroupAxioms:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_single_entry_corruption_rejected(self, data):
        rows = [list(r) for r in data.draw(st.sampled_from(VALID))]
        n = len(rows)
        a = data.draw(st.integers(0, n - 1))
        b = data.draw(st.integers(0, n - 1))
        v = data.draw(st.integers(0, n - 1).filter(lambda v: v != rows[a][b]))
        rows[a][b] = v
        p = 5 if n in (5, 25) else 3
        with pytest.raises(ParameterError):
            TableGroup(p, rows)

    def test_order_five_loops(self):
        # all 56 reduced Latin squares of order 5: every one is a loop, six
        # are the cyclic group; the others either lack two-sided inverses or
        # reach Light's test and fail it
        squares = reduced_latin_squares(5)
        assert len(squares) == 56
        accepted = 0
        light = 0
        for rows in squares:
            if exhaustive_group_check(rows):
                TableGroup(5, rows)
                accepted += 1
                continue
            two_sided = all(rows[rows[a].index(0)][a] == 0 for a in range(5))
            reason = "not associative" if two_sided else "no inverse"
            with pytest.raises(ParameterError, match=reason):
                TableGroup(5, rows)
            light += two_sided
        assert accepted == 6
        assert light > 0

    def test_loop_times_cyclic(self):
        # L x C_5 for a non-associative order-5 loop L with two-sided
        # inverses: the first greedy generator (e, 1) is central and passes
        # Light's test, a later one (l, 0) must fail it
        loops = [
            rows
            for rows in reduced_latin_squares(5)
            if all(rows[rows[a].index(0)][a] == 0 for a in range(5))
            and not exhaustive_group_check(rows)
        ]
        assert loops
        for loop in loops:
            rows = [
                [loop[a // 5][b // 5] * 5 + (a + b) % 5 for b in range(25)]
                for a in range(25)
            ]
            with pytest.raises(ParameterError, match="not associative"):
                TableGroup(5, rows)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_agrees_with_exhaustive_check(self, data):
        # relabelled valid tables with one to three entries rewritten, or none
        rows = relabelled(data.draw(st.sampled_from(VALID[:3])), data.draw(st.integers(0, 99)))
        n = len(rows)
        for _ in range(data.draw(st.integers(0, 3))):
            a, b, v = (data.draw(st.integers(0, n - 1)) for _ in range(3))
            rows[a][b] = v
        try:
            TableGroup(3, rows)
            accepted = True
        except ParameterError:
            accepted = False
        assert accepted == exhaustive_group_check(rows)

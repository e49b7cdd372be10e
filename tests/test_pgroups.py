import gc
import random
import time
import weakref
from collections import Counter

import pytest

from ramforge.errors import InternalCheckError, MaterializationLimitError, ParameterError
from ramforge.forge import derive_nonint, verify_certificate
from ramforge.pgroups import (
    DEFAULT_LIMIT,
    CyclicPGroup,
    DirectProductGroup,
    TableGroup,
    automorphism_from_generator_images,
    build_A1d_via_Gd,
    burnside_action_check,
    central_product,
    check_abcd,
    classify_minimal,
    group_basics,
    is_abelian,
    is_isomorphic,
    is_minimal_nonabelian,
    make_group,
    minimal_nonabelian_quotient,
    parse_group_descriptor,
    quotient,
    subgroup,
    tables,
)
from ramforge.pgroups import analysis, base
from ramforge.pgroups.analysis import _normal_subgroups_avoiding
from ramforge.pgroups.base import _extend_partial


def H(n, d, p=3):
    return make_group("H", p, n, d)


def A(n, d, p=3):
    return make_group("A", p, n, d)


def law_tables(G):
    """The n^2 table straight from the group law: the oracle for `tables`."""
    elems = G.elements()
    idx = G.index_map()
    return [[idx[G.mul(a, b)] for b in elems] for a in elems]


def power_order(t, g):
    """The order of g by multiplying powers of g until the identity: the
    oracle for `GroupTables.orders`."""
    k = 1
    x = g
    while x != t.e:
        x = t.mul[x][g]
        k += 1
    return k


def relabelled(rows, seed):
    """The same table with elements renamed by a seeded permutation."""
    n = len(rows)
    new = list(range(n))
    random.Random(seed).shuffle(new)
    old = [0] * n
    for o, x in enumerate(new):
        old[x] = o
    return [[new[rows[old[a]][old[b]]] for b in range(n)] for a in range(n)]


def indices(G, elems):
    idx = G.index_map()
    return [idx[g] for g in elems]


def law_quotient(G, N):
    """G/N the way the law gives it: cosets g N through `G.mul` in element
    order, each led by its least member, and normality by conjugating N
    by every element.  The oracle for `quotient`: its multiplication table
    and inverses on coset numbers, or None when N is not normal."""
    nset = set(N)
    coset_of = {}
    cosets = []
    for g in G.elements():
        if g not in coset_of:
            coset = frozenset(G.mul(g, h) for h in nset)
            assert len(coset) == len(nset) and not coset & coset_of.keys()
            coset_of.update(dict.fromkeys(coset, len(cosets)))
            cosets.append(coset)
    if not all(G.mul(G.mul(G.inv(g), h), g) in nset for g in G.elements() for h in nset):
        return None
    idx = G.index_map()
    reps = [min(c, key=idx.__getitem__) for c in cosets]
    mul = [[coset_of[G.mul(a, b)] for b in reps] for a in reps]
    inv = [coset_of[G.inv(a)] for a in reps]
    return mul, inv


def counting_law(G):
    """Count calls of G's law from here on."""
    calls = Counter()
    for name in ("mul", "inv"):
        def counted(*args, _law=getattr(G, name), _name=name):
            calls[_name] += 1
            return _law(*args)
        setattr(G, name, counted)
    return calls


def subgroup_x_z():
    G = H(1, 2)
    return subgroup(G, indices(G, [G.gen_x(0), G.gen_z()]))


def subgroup_of_product():
    # <(x, 1), (y, 0)> in H(1,1) x C(3,2): order 81, neither factor
    G = DirectProductGroup(H(1, 1), CyclicPGroup(3, 2))
    h = G.g1
    return subgroup(G, indices(G, [(h.gen_x(0), 1), (h.gen_y(0), 0)]))


def quotient_by_center():
    G = H(1, 1)
    z = G.gen_z()
    return quotient(G, indices(G, [G.identity(), z, G.mul(z, z)]))


# Every kind of group `tables` meets, up to order 729.
TABLE_CASES = {
    "H(1,1)": lambda: H(1, 1),
    "H(1,2)": lambda: H(1, 2),
    "H(2,1)": lambda: H(2, 1),
    "H(0,2)": lambda: H(0, 2),
    "H(1,1) p=5": lambda: H(1, 1, p=5),
    "A(1,1)": lambda: A(1, 1),
    "A(1,2)": lambda: A(1, 2),
    "A(2,1)": lambda: A(2, 1),
    "A(1,3)": lambda: A(1, 3),
    "C(3,1)": lambda: CyclicPGroup(3, 1),
    "C(3,4)": lambda: CyclicPGroup(3, 4),
    "C(5,2)": lambda: CyclicPGroup(5, 2),
    "H(1,1) x C(3,1)": lambda: DirectProductGroup(H(1, 1), CyclicPGroup(3, 1)),
    "A(1,1) x C(3,2)": lambda: DirectProductGroup(A(1, 1), CyclicPGroup(3, 2)),
    "C(3,1) x C(3,1) x C(3,1)": lambda: parse_group_descriptor(
        "kind=C p=3 k=1 x kind=C p=3 k=1 x kind=C p=3 k=1"
    ),
    "subgroup <x, z> of H(1,2)": subgroup_x_z,
    "subgroup <(x, 1), (y, 0)> of H(1,1) x C(3,2)": subgroup_of_product,
    "H(1,1) / Z": quotient_by_center,
    "central product H(1,1) * H(1,1)": lambda: central_product(H(1, 1), H(1, 1)),
    "central product H(0,2) * H(1,1)": lambda: central_product(H(0, 2), H(1, 1)),
    "A(1,1) via G_d": lambda: build_A1d_via_Gd(3, 1),
    "A(1,2) via G_d": lambda: build_A1d_via_Gd(3, 2),
    "H(1,2) x C(3,1) x C(3,1)": lambda: parse_group_descriptor(
        "kind=H p=3 n=1 d=2 x kind=C p=3 k=1 x kind=C p=3 k=1"
    ),
    "table H(1,2)": lambda: TableGroup(3, relabelled(law_tables(H(1, 2)), 1)),
    "table A(2,1)": lambda: TableGroup(3, relabelled(law_tables(A(2, 1)), 2)),
}


class TestConstruction:
    def test_heisenberg(self):
        G = H(1, 1)
        gb = group_basics(G)
        assert gb.order == 27 and gb.exponent == 3

    def test_metacyclic(self):
        G = A(1, 1)
        assert G.order == 27
        assert group_basics(G).exponent == 9

    def test_degenerate_cyclic(self):
        G = H(0, 2)
        assert G.order == 9 and is_abelian(G)
        assert is_isomorphic(G, CyclicPGroup(3, 2))

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            make_group("A", 3, 0, 1)
        with pytest.raises(ParameterError):
            make_group("H", 3, 1, 0)
        with pytest.raises(ParameterError):
            make_group("H", 2, 1, 1)
        with pytest.raises(ParameterError):
            make_group("X", 3, 1, 1)

    @pytest.mark.parametrize("G", [H(1, 1), A(1, 1)])
    def test_associativity_exhaustive(self, G):
        # the law itself: `tables` composes rows and is associative by
        # construction, so checking its output would prove nothing
        elems = G.elements()
        for a in elems:
            for b in elems:
                ab = G.mul(a, b)
                for c in elems:
                    assert G.mul(ab, c) == G.mul(a, G.mul(b, c))

    @pytest.mark.parametrize("G", [H(1, 1), A(1, 1), A(1, 2)])
    def test_power_collection_identity(self, G):
        # (xy)^p = x^p y^p [y,x]^(p(p-1)/2) in class-2 groups
        t = tables(G)
        p = G.p
        k = p * (p - 1) // 2
        for a in range(t.n):
            for b in range(t.n):
                lhs = t.power(t.mul[a][b], p)
                rhs = t.mul[t.mul[t.power(a, p)][t.power(b, p)]][
                    t.power(t.commutator(b, a), k)
                ]
                assert lhs == rhs


class TestTables:
    @pytest.mark.parametrize("name", sorted(TABLE_CASES))
    def test_matches_law(self, name):
        G = TABLE_CASES[name]()
        t = tables(G)
        assert [list(row) for row in t.mul] == law_tables(G)
        idx = G.index_map()
        assert t.inv == [idx[G.inv(g)] for g in G.elements()]
        assert t.e == idx[G.identity()]
        assert t.p == G.p and t.n == G.order
        assert t.e not in t.gens and len(set(t.gens)) == len(t.gens)
        # index-native rows keep the generators the group reports
        assert t.gens == tuple(dict.fromkeys(idx[g] for g in G.generators() if idx[g] != t.e))

    @pytest.mark.parametrize("name", sorted(TABLE_CASES))
    def test_orders_match_powers(self, name):
        t = tables(TABLE_CASES[name]())
        assert t.orders() == [power_order(t, g) for g in range(t.n)]

    @pytest.mark.parametrize(
        "G",
        [H(n, d, p) for p in (3, 5) for n in (0, 1, 2) for d in (1, 2) if p**(2 * n + d) <= 3125]
        + [A(n, d, p) for p in (3, 5) for n in (1, 2) for d in (1, 2) if p**(2 * n + d) <= 3125]
        + [CyclicPGroup(p, k) for p in (3, 7) for k in (1, 3)]
        + [DirectProductGroup(A(1, 1), CyclicPGroup(3, 2)), subgroup_x_z(), quotient_by_center()],
        ids=repr,
    )
    def test_closed_form_order(self, G):
        assert G.order == len(G._element_list())

    def test_over_limit_refused_before_enumeration(self):
        G = H(9, 1)  # order 3^19
        start = time.perf_counter()
        with pytest.raises(MaterializationLimitError):
            tables(G)
        assert time.perf_counter() - start < 1.0
        assert getattr(G, "_elements", None) is None

    def test_generators_must_generate(self):
        # the rows of x and z alone: <x, z> is a proper subgroup
        G = H(1, 1)
        e, rows, inv = G._generator_rows(DEFAULT_LIMIT)
        idx = G.index_map()
        kept = {idx[g]: rows[idx[g]] for g in (G.gen_x(0), G.gen_z())}
        G._generator_rows = lambda limit: (e, kept, inv)
        with pytest.raises(InternalCheckError, match="do not reach"):
            tables(G)

    def test_inverses_must_be_inverses(self):
        # every element claimed to be its own inverse
        G = CyclicPGroup(3, 2)
        e, rows, _ = G._generator_rows(DEFAULT_LIMIT)
        G._generator_rows = lambda limit: (e, rows, list(range(G.order)))
        with pytest.raises(InternalCheckError, match="inconsistent"):
            tables(G)

    def test_dropped_group_frees_its_tables(self):
        # the tables hold no reference back to the group, so dropping the
        # group frees them without the cycle collector
        gc.disable()
        try:
            G = H(1, 1)
            ref = weakref.ref(tables(G))
            del G
            assert ref() is None
        finally:
            gc.enable()

    def test_hostile_rank_builds_and_verifies_quickly(self):
        # group legs of H(9, 1) are over the certificate limit and become
        # assumptions; closed-form orders decide that without enumeration
        start = time.perf_counter()
        text = derive_nonint("H", 3, 9, 1).render()
        verify_certificate(text)
        assert time.perf_counter() - start < 5.0


class TestBasics:
    def test_heisenberg_basics(self):
        gb = group_basics(H(1, 1))
        assert len(gb.center) == 3
        assert len(gb.commutator_subgroup) == 3
        assert gb.rank == 2

    def test_cyclic_basics(self):
        gb = group_basics(CyclicPGroup(3, 2))
        assert len(gb.center) == 9
        assert len(gb.commutator_subgroup) == 1
        assert gb.rank == 1

    def test_a12_basics(self):
        gb = group_basics(A(1, 2))
        assert gb.order == 81
        assert len(gb.center) == 9

    def test_limit(self):
        with pytest.raises(MaterializationLimitError):
            group_basics(H(2, 1), limit=27)


class TestAbcd:
    def test_target_groups_pass(self):
        res = check_abcd(H(2, 1))
        assert res.all_true and res.n == 2 and res.d == 1

    def test_noncyclic_center_fails_ii(self):
        res = check_abcd(DirectProductGroup(H(1, 1), CyclicPGroup(3, 1)))
        assert not res.center_cyclic
        assert not res.all_true

    def test_abelian_fails_iii(self):
        res = check_abcd(DirectProductGroup(CyclicPGroup(3, 1), CyclicPGroup(3, 1)))
        assert not res.commutator_is_socle
        assert not res.class_two


class TestLargerFamilies:
    @pytest.mark.parametrize("kind,n,d", [("H", 2, 2), ("A", 2, 2)])
    def test_order_729_members(self, kind, n, d):
        G = make_group(kind, 3, n, d)
        gb = group_basics(G)
        assert gb.order == 3 ** (2 * n + d)
        assert len(gb.center) == 3**d
        res = check_abcd(G)
        assert res.all_true and (res.n, res.d) == (n, d)
        cls = classify_minimal(G)
        assert (cls.kind, cls.n, cls.d) == (kind, n, d)


class TestMinimality:
    def test_minimal(self):
        assert is_minimal_nonabelian(H(1, 1))

    def test_extra_factor_is_not_minimal(self):
        assert not is_minimal_nonabelian(DirectProductGroup(H(1, 1), CyclicPGroup(3, 1)))

    def test_abelian_is_not_minimal(self):
        assert not is_minimal_nonabelian(CyclicPGroup(3, 3))

    @pytest.mark.parametrize("kind,n,d", [("H", 1, 1), ("H", 1, 2), ("A", 1, 1), ("A", 1, 2)])
    def test_classify_roundtrip(self, kind, n, d):
        cls = classify_minimal(make_group(kind, 3, n, d))
        assert (cls.kind, cls.n, cls.d) == (kind, n, d)

    def test_classify_rejects_nonminimal(self):
        with pytest.raises(ParameterError):
            classify_minimal(CyclicPGroup(3, 1))


class TestCentralProduct:
    def test_heisenberg_growth(self):
        cp = central_product(H(1, 1), H(1, 1))
        assert cp.order == 243
        assert is_isomorphic(cp, H(2, 1))

    def test_bad_pairing(self):
        G = H(1, 1)
        with pytest.raises(ParameterError):
            central_product(G, G, pairing=(G.identity(), G.gen_z()))
        with pytest.raises(ParameterError):
            central_product(G, G, pairing=(G.gen_x(0), G.gen_z()))  # not central
        K = H(1, 2)
        with pytest.raises(ParameterError, match="order p"):
            central_product(K, G, pairing=(K.gen_z(), G.gen_z()))  # z of H(1, 2) has order 9

    def test_cyclic_times_heisenberg(self):
        # H(0, 2) is cyclic of order 9; gluing it to H(1, 1) gives H(1, 2)
        cp = central_product(make_group("H", 3, 0, 2), H(1, 1))
        assert cp.order == 81
        assert is_isomorphic(cp, make_group("H", 3, 1, 2))

    def test_a1d_construction(self):
        q = build_A1d_via_Gd(3, 1)
        assert q.order == 27
        assert is_isomorphic(q, A(1, 1))
        assert classify_minimal(q) == classify_minimal(A(1, 1))


class TestMinQuot:
    def test_extra_factor(self):
        G = DirectProductGroup(H(1, 1), CyclicPGroup(3, 1))
        kernel, Q, cls = minimal_nonabelian_quotient(G)
        assert len(kernel) == 3
        assert (cls.kind, cls.n, cls.d) == ("H", 1, 1)
        # the kernel is given by its indices in G
        assert tables(quotient(G, kernel)).mul == tables(Q).mul

    def test_already_minimal(self):
        kernel, quotient, cls = minimal_nonabelian_quotient(H(1, 1))
        assert len(kernel) == 1
        assert (cls.kind, cls.n, cls.d) == ("H", 1, 1)

    def test_minimal_group_is_its_own_quotient(self):
        # every proper quotient of H(2, 1) is abelian, so the search
        # returns the trivial kernel
        kernel, quotient, cls = minimal_nonabelian_quotient(H(2, 1))
        assert len(kernel) == 1
        assert (cls.kind, cls.n, cls.d) == ("H", 2, 1)

    def test_abelian_rejected(self):
        with pytest.raises(ParameterError):
            minimal_nonabelian_quotient(CyclicPGroup(3, 2))

    def test_deterministic(self):
        G = DirectProductGroup(H(1, 1), CyclicPGroup(3, 1))
        k1, _, _ = minimal_nonabelian_quotient(G)
        k2, _, _ = minimal_nonabelian_quotient(
            DirectProductGroup(H(1, 1), CyclicPGroup(3, 1))
        )
        assert k1 == k2


def inversion_map(G):
    return {g: G.inv(g) for g in G.elements()}


class TestBurnside:
    def test_inversion_on_elementary(self):
        G = DirectProductGroup(CyclicPGroup(3, 1), CyclicPGroup(3, 1))
        res = burnside_action_check(G, inversion_map(G), 2)
        assert res.nontrivial_on_group and res.nontrivial_on_frattini_quotient
        assert res.order == 2

    def test_identity(self):
        G = CyclicPGroup(3, 2)
        res = burnside_action_check(G, {g: g for g in G.elements()}, 2)
        assert not res.nontrivial_on_group
        assert not res.nontrivial_on_frattini_quotient
        assert res.order == 1

    def test_sign_flip_on_heisenberg(self):
        G = H(1, 1)
        images = {
            G.gen_x(0): G.gen_x(0),
            G.gen_y(0): G.inv(G.gen_y(0)),
            G.gen_z(): G.inv(G.gen_z()),
        }
        alpha = automorphism_from_generator_images(G, images)
        res = burnside_action_check(G, alpha, 2)
        assert res.nontrivial_on_group and res.nontrivial_on_frattini_quotient
        assert res.order == 2

    def test_reports_order_four(self):
        # x -> y, y -> x^-1 rotates the Frattini quotient F_3^2 by a quarter turn
        G = H(1, 1)
        x, y = G.gen_x(0), G.gen_y(0)
        alpha = automorphism_from_generator_images(G, {x: y, y: G.inv(x)})
        assert burnside_action_check(G, alpha, 4).order == 4
        with pytest.raises(ParameterError, match="order 4"):
            burnside_action_check(G, alpha, 2)

    def test_generator_images_must_be_injective(self):
        # a -> a, b -> a is a homomorphism of C_3 x C_3 onto one factor
        G = DirectProductGroup(CyclicPGroup(3, 1), CyclicPGroup(3, 1))
        a, b = G.generators()
        with pytest.raises(ParameterError, match="not injective"):
            automorphism_from_generator_images(G, {a: a, b: a})

    def test_generator_images_must_be_consistent(self):
        # on C_9, g -> g forces g^3 -> g^3, which contradicts g^3 -> g
        G = CyclicPGroup(3, 2)
        g = G.gen()
        g3 = G.mul(g, G.mul(g, g))
        with pytest.raises(ParameterError, match="inconsistent"):
            automorphism_from_generator_images(G, {g: g, g3: g})

    def test_generator_images_keys_must_generate(self):
        G = DirectProductGroup(CyclicPGroup(3, 1), CyclicPGroup(3, 1))
        a, b = G.generators()
        with pytest.raises(ParameterError, match="keys must generate"):
            automorphism_from_generator_images(G, {a: a})
        for images in ({a: a, b: "junk"}, {"junk": a}, {a: [1]}):
            with pytest.raises(ParameterError, match="elements of the group"):
                automorphism_from_generator_images(G, images)

    def test_rejects_non_automorphism(self):
        G = CyclicPGroup(3, 1)
        e, g1, g2 = G.elements()
        with pytest.raises(ParameterError):
            burnside_action_check(G, {e: e, g1: g1, g2: g1}, 2)

    def test_rejects_map_multiplicative_on_one_generator_only(self):
        # (a, b, c) -> (a, b, c + b^2) respects the first generator only
        G = parse_group_descriptor("kind=C p=3 k=1 x kind=C p=3 k=1 x kind=C p=3 k=1")
        alpha = {((a, b), c): ((a, b), (c + b * b) % 3) for ((a, b), c) in G.elements()}
        with pytest.raises(ParameterError, match="not a homomorphism"):
            burnside_action_check(G, alpha, 2)

    def test_rejects_p_order(self):
        G = DirectProductGroup(CyclicPGroup(3, 1), CyclicPGroup(3, 1))
        shear = {(a, b): ((a + b) % 3, b) for (a, b) in G.elements()}
        with pytest.raises(ParameterError):
            burnside_action_check(G, shear, 3)  # m must be prime to p
        with pytest.raises(ParameterError):
            burnside_action_check(G, shear, 2)  # order 3 does not divide 2


class TestIsomorphism:
    def test_distinguishes_families(self):
        assert not is_isomorphic(H(1, 1), A(1, 1))

    def test_self(self):
        assert is_isomorphic(H(1, 1), H(1, 1))

    def test_abelian_invariants(self):
        assert not is_isomorphic(
            CyclicPGroup(3, 2), DirectProductGroup(CyclicPGroup(3, 1), CyclicPGroup(3, 1))
        )

    def test_partial_map_consistency(self):
        # C_3 x C_3 -> C_9 by a -> 1, b -> 3 is injective but not a
        # homomorphism: 3a = 0 would map to 3
        tg = tables(DirectProductGroup(CyclicPGroup(3, 1), CyclicPGroup(3, 1)))
        th = tables(CyclicPGroup(3, 2))
        a, b = tg.gens
        assert _extend_partial(tg, th, [(a, 1), (b, 3)]) is None

    def test_partial_map_injectivity(self):
        G = H(1, 1)
        t = tables(G)
        idx = G.index_map()
        x, y = idx[G.gen_x(0)], idx[G.gen_y(0)]
        assert _extend_partial(t, t, [(x, x), (y, x)]) is None
        swap = _extend_partial(t, t, [(x, y), (y, x)])
        assert swap is not None and sorted(swap.values()) == list(range(t.n))

    def test_relabelled_table(self):
        G = H(1, 1)
        t = tables(G)
        # relabel elements by an arbitrary but fixed permutation
        perm = [(i * 7 + 3) % t.n for i in range(t.n)]
        assert sorted(perm) == list(range(t.n))
        inv_perm = [0] * t.n
        for i, x in enumerate(perm):
            inv_perm[x] = i
        table = [
            [perm[t.mul[inv_perm[a]][inv_perm[b]]] for b in range(t.n)]
            for a in range(t.n)
        ]
        assert is_isomorphic(TableGroup(3, table), G)


class TestTableGroup:
    def test_valid_roundtrip(self):
        t = tables(CyclicPGroup(3, 2))
        G = TableGroup(3, t.mul)
        assert G.order == 9 and is_abelian(G)

    def test_rejects_non_group(self):
        bad = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]  # not associative / bad inverses
        with pytest.raises(ParameterError):
            TableGroup(3, bad)

    def test_rejects_wrong_order(self):
        with pytest.raises(ParameterError):
            TableGroup(3, [[0, 1], [1, 0]])


class TestQuotientDeterminism:
    def test_coset_order(self):
        G = H(1, 1)
        z = G.gen_z()
        N = indices(G, [G.identity(), z, G.mul(z, z)])
        q1 = quotient(G, N)
        q2 = quotient(G, list(reversed(N)))
        assert tables(q1).mul == tables(q2).mul
        assert is_abelian(q1)

    def test_rejects_non_normal(self):
        G = H(1, 1)
        x = G.gen_x(0)
        with pytest.raises(ParameterError, match="not normal"):
            quotient(G, indices(G, [G.identity(), x, G.mul(x, x)]))

    def test_rejects_non_subgroup(self):
        G = H(1, 1)
        e, x, x2, y = indices(G, [G.identity(), G.gen_x(0), G.mul(G.gen_x(0), G.gen_x(0)), G.gen_y(0)])
        with pytest.raises(ParameterError, match="not a subgroup"):
            quotient(G, [e, x, y])
        with pytest.raises(ParameterError, match="identity"):
            quotient(G, [x, x2, y])
        with pytest.raises(ParameterError, match="divide"):
            quotient(G, [e, x])

    @pytest.mark.parametrize("build", [quotient, subgroup])
    @pytest.mark.parametrize("bad", [1.0, "1", (0, 1), -1, 27], ids=repr)
    def test_rejects_non_indices(self, build, bad):
        # a non-integer, an element instead of its index, or an index out of range
        G = H(1, 1)
        with pytest.raises(ParameterError, match="outside"):
            build(G, [0, bad, 2])


# Parents for the quotient differential test: every normal subgroup of each.
QUOTIENT_PARENTS = {
    "H(1,1)": lambda: H(1, 1),
    "H(1,2)": lambda: H(1, 2),
    "A(1,2)": lambda: A(1, 2),
    "H(1,1) x C(3,1)": lambda: DirectProductGroup(H(1, 1), CyclicPGroup(3, 1)),
    "table A(1,2)": lambda: TableGroup(3, relabelled(law_tables(A(1, 2)), 3)),
}


class TestQuotientDifferential:
    @pytest.mark.parametrize("name", sorted(QUOTIENT_PARENTS))
    def test_normal_subgroups_match_law(self, name):
        G = QUOTIENT_PARENTS[name]()
        t = tables(G)
        elems = G.elements()
        # an index outside the group is in no subgroup, so nothing is pruned
        normals = _normal_subgroups_avoiding(t, frozenset({t.n}))
        assert len(normals) > 3
        for sub in normals:
            N = sorted(sub)
            mul, inv = law_quotient(G, [elems[i] for i in N])
            Q = quotient(G, N)
            assert Q.order == len(mul) == t.n // len(N)
            tq = tables(Q)
            # equal tables on coset numbers: the same cosets in the same order
            assert [list(row) for row in tq.mul] == mul == law_tables(Q)
            assert tq.inv == inv

    @pytest.mark.parametrize("name", sorted(QUOTIENT_PARENTS))
    def test_normality_matches_law(self, name):
        # every cyclic subgroup: accepted exactly when the scan over all
        # elements finds it normal
        G = QUOTIENT_PARENTS[name]()
        t = tables(G)
        elems = G.elements()
        cyclic = {frozenset(t.power(g, k) for k in range(m)) for g, m in enumerate(t.orders())}
        verdicts = Counter()
        for sub in cyclic:
            N = sorted(sub)
            want = law_quotient(G, [elems[i] for i in N])
            verdicts[want is None] += 1
            if want is None:
                with pytest.raises(ParameterError, match="not normal"):
                    quotient(G, N)
            else:
                assert [list(row) for row in tables(quotient(G, N)).mul] == want[0]
        assert verdicts[True] > 0 and verdicts[False] > 0


# H(n, d), A(n, d) and C_(p^k) at p in {3, 5, 7}, d <= 3, order <= 3^8.
ROW_CASES = (
    [("H", p, n, d) for p in (3, 5, 7) for n in range(4) for d in (1, 2, 3) if p ** (2 * n + d) <= 3**8]
    + [("A", p, n, d) for p in (3, 5, 7) for n in (1, 2, 3) for d in (1, 2, 3) if p ** (2 * n + d) <= 3**8]
    + [("C", p, k, None) for p in (3, 5, 7) for k in range(1, 9) if p**k <= 3**8]
)


class TestIndexRows:
    """The generator rows and inverses that H, A and C compute from their
    index layout are the law's, compared row by row (no table is built)."""

    @pytest.mark.parametrize("kind, p, n, d", ROW_CASES)
    def test_rows_match_law(self, kind, p, n, d):
        G = CyclicPGroup(p, n) if kind == "C" else make_group(kind, p, n, d)
        e, rows, inv = G._generator_rows(DEFAULT_LIMIT)
        elems = G.elements()
        idx = G.index_map()
        assert e == idx[G.identity()]
        assert list(rows) == [idx[g] for g in G.generators()]
        for s, row in rows.items():
            assert row == [idx[G.mul(elems[s], b)] for b in elems]
        assert inv == [idx[G.inv(a)] for a in elems]


def table_spy(monkeypatch) -> list:
    """The order of every table built from here on."""
    built = []
    real = base.tables

    def spy(G, limit=DEFAULT_LIMIT):
        if getattr(G, "_tables", None) is None:
            built.append(G.order)
        return real(G, limit)

    for mod in (base, analysis):
        monkeypatch.setattr(mod, "tables", spy)
    return built


class TestIndexNative:
    """No table calls a group law, and composite groups build their tables
    from their parents': once those exist, the parents' laws are not
    called again, and a product is multiplied through its factors."""

    @pytest.mark.parametrize(
        "G", [H(0, 2), H(2, 1), H(1, 1, p=5), A(1, 2), A(2, 1), CyclicPGroup(3, 3)], ids=repr
    )
    def test_tables_make_no_law_calls(self, G):
        calls = counting_law(G)
        assert tables(G).n == G.order
        assert calls == Counter()

    @pytest.mark.parametrize(
        "build, factors",
        [
            (lambda: central_product(H(1, 1), H(1, 1)), 27),
            (lambda: central_product(A(1, 1), H(1, 1)), 27),
            (lambda: build_A1d_via_Gd(3, 2), 27),
        ],
        ids=["H(1,1) * H(1,1)", "A(1,1) * H(1,1)", "A(1,2) via G_d"],
    )
    def test_constructions_table_no_ambient_product(self, monkeypatch, build, factors):
        # the ambient products have order 729 and G_d has order 243
        built = table_spy(monkeypatch)
        enumerated = []
        for name in ("_element_list", "index_map"):

            def spy(self, _real=getattr(DirectProductGroup, name), _name=name):
                enumerated.append(_name)
                return _real(self)

            monkeypatch.setattr(DirectProductGroup, name, spy)
        Q = build()
        assert built and max(built) <= factors
        assert base.tables(Q).n == Q.order
        assert max(built) == max(factors, Q.order) < 729
        assert enumerated == []

    def test_quotient_makes_no_parent_law_calls(self):
        G = H(1, 2)
        z3 = G.mul(G.gen_z(), G.mul(G.gen_z(), G.gen_z()))
        N = indices(G, [G.identity(), z3, G.mul(z3, z3)])
        tables(G)
        calls = counting_law(G)
        Q = quotient(G, N)
        tables(Q)
        assert Q.order == 27
        assert calls == Counter()

    def test_product_makes_no_factor_law_calls(self):
        g1, g2 = A(1, 1), H(1, 1)
        tables(g1)
        tables(g2)
        calls1, calls2 = counting_law(g1), counting_law(g2)
        assert tables(DirectProductGroup(g1, g2)).n == 729
        assert calls1 == calls2 == Counter()

    def test_limit_reaches_the_parent(self):
        G = H(1, 2)
        with pytest.raises(MaterializationLimitError):
            quotient(G, [0], limit=27)
        with pytest.raises(MaterializationLimitError):
            tables(DirectProductGroup(H(1, 1), CyclicPGroup(3, 1)), limit=27)
        with pytest.raises(MaterializationLimitError):
            subgroup(G, [1], limit=27)
        # a product is refused by its order, although it is never tabled
        # and each factor is within the limit
        P = DirectProductGroup(H(1, 1), CyclicPGroup(3, 1))
        with pytest.raises(MaterializationLimitError):
            quotient(P, [0], limit=27)
        with pytest.raises(MaterializationLimitError):
            subgroup(P, [3], limit=27)
        with pytest.raises(MaterializationLimitError):
            central_product(H(1, 1), H(1, 1), limit=243)
        with pytest.raises(MaterializationLimitError):
            build_A1d_via_Gd(3, 2, limit=243)


class TestDescriptors:
    def test_parse_product(self):
        G = parse_group_descriptor("kind=H p=3 n=1 d=1 x kind=C p=3 k=1")
        assert G.order == 81
        assert not is_minimal_nonabelian(G)

    def test_element_orders(self):
        t = tables(A(1, 1))
        x = A(1, 1).index_map()[A(1, 1).gen_x(0)]
        assert t.orders()[x] == power_order(t, x) == 9

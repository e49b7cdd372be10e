import gc
import hashlib
import inspect
import itertools
import random
import re
import time
import weakref
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramforge.errors import InternalCheckError, MaterializationLimitError, ParameterError, ParseError
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
from ramforge import pgroups
from ramforge.pgroups import analysis, base, iso
from ramforge.pgroups.base import _extend_partial

from conftest import index_perm, largest_kernel_avoiding_derived, normal_subgroups_avoiding, table_spy, within


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
    h, c = G.g1, G.g2
    return subgroup(G, indices(G, [(h.gen_x(0), c.gen_z()), (h.gen_y(0), c.identity())]))


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


# sha256 of repr((e, gens, inv, mul)) of `tables`, first 16 hex digits,
# for every H, A and C up to order 729 at p = 3 and 625 at p = 5.  Law and
# rows share one normal form, so only pinned tables catch a change of the
# index order, which certificates and kernel indices depend on.
LAYOUT_DIGESTS = {
    "kind=C p=3 k=1": "7da3c52fbc020726",
    "kind=C p=3 k=2": "b9303b7b1f6165be",
    "kind=C p=3 k=3": "944c16009cb003f2",
    "kind=C p=3 k=4": "5970cb286b2f681b",
    "kind=C p=3 k=5": "af98051cafa75b76",
    "kind=C p=3 k=6": "1c8a670f84bbf2b6",
    "kind=H p=3 n=1 d=1": "b4ae62124ef59c7c",
    "kind=H p=3 n=1 d=2": "00e6677dc0e71d2f",
    "kind=H p=3 n=1 d=3": "f779f6ba87237255",
    "kind=H p=3 n=1 d=4": "685778c6fcb4da42",
    "kind=H p=3 n=2 d=1": "b4cc62cf8a3b870d",
    "kind=H p=3 n=2 d=2": "1e946837e9d34270",
    "kind=A p=3 n=1 d=1": "b83b5911601ae4da",
    "kind=A p=3 n=1 d=2": "fc04b79388d8692e",
    "kind=A p=3 n=1 d=3": "94dd061692453611",
    "kind=A p=3 n=1 d=4": "70791eb71c96ec8a",
    "kind=A p=3 n=2 d=1": "39f6473b2d8c24a3",
    "kind=A p=3 n=2 d=2": "9e1131f22ba29969",
    "kind=C p=5 k=1": "81cc4d4154c8415c",
    "kind=C p=5 k=2": "a2e99a5d33b877e1",
    "kind=C p=5 k=3": "6e54a15e88402aea",
    "kind=C p=5 k=4": "c525b26243f6b4ed",
    "kind=H p=5 n=1 d=1": "0e37f44cc6672e1b",
    "kind=H p=5 n=1 d=2": "4027d1beca5018fa",
    "kind=A p=5 n=1 d=1": "cbf76dbb52726412",
    "kind=A p=5 n=1 d=2": "9deaebee8dcc20d9",
}


@pytest.mark.parametrize("descriptor", LAYOUT_DIGESTS)
def test_layout_is_pinned(descriptor):
    t = tables(parse_group_descriptor(descriptor))
    digest = hashlib.sha256(repr((t.e, t.gens, t.inv, t.mul)).encode()).hexdigest()
    assert digest[:16] == LAYOUT_DIGESTS[descriptor]


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
        e, rows, inv = G._generator_rows()
        idx = G.index_map()
        kept = {idx[g]: rows[idx[g]] for g in (G.gen_x(0), G.gen_z())}
        G._generator_rows = lambda: (e, kept, inv)
        with pytest.raises(InternalCheckError, match="do not reach"):
            tables(G)

    def test_inverses_must_be_inverses(self):
        # every element claimed to be its own inverse
        G = CyclicPGroup(3, 2)
        e, rows, _ = G._generator_rows()
        G._generator_rows = lambda: (e, rows, list(range(G.order)))
        with pytest.raises(InternalCheckError, match="inconsistent"):
            tables(G)

    def test_dropped_group_frees_its_tables(self):
        # the tables hold no reference back to the group, and an
        # isomorphism search keeps none in a reference cycle, so dropping
        # the group frees them without the cycle collector
        gc.disable()
        try:
            for make in (lambda: H(1, 1), lambda: TableGroup(3, relabelled(law_tables(H(1, 1)), 5))):
                G = make()
                ref = weakref.ref(tables(G))
                assert is_isomorphic(G, H(1, 1))
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
        # H(4, 1) has order 3^9 = 19683
        with pytest.raises(MaterializationLimitError):
            group_basics(H(4, 1))


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

    def test_type_only_when_all_true(self):
        assert check_abcd(H(2, 1)).kind == "H" and check_abcd(A(2, 1)).kind == "A"
        assert check_abcd(DirectProductGroup(A(1, 1), CyclicPGroup(3, 1))).kind is None


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

    def test_quotients_are_not_tabled(self, monkeypatch):
        # the quotients by the central order-p subgroups (order 27) are
        # decided abelian from their generator rows
        built = table_spy(monkeypatch)
        assert is_minimal_nonabelian(H(1, 2))
        assert built == [81]

    @pytest.mark.parametrize("decide", [classify_minimal, is_minimal_nonabelian])
    def test_one_structural_pass(self, monkeypatch, decide):
        # minimality and the type come from one check_abcd call
        calls = []
        check = analysis.check_abcd
        monkeypatch.setattr(analysis, "check_abcd", lambda G: calls.append(G) or check(G))
        G = A(1, 2)
        decide(G)
        assert calls == [G]


class TestCentralProduct:
    def test_heisenberg_growth(self):
        cp = central_product(H(1, 1), H(1, 1))
        assert cp.order == 243
        assert is_isomorphic(cp, H(2, 1))

    def test_rejects_non_cyclic_center(self):
        # H(1,1) x C_3 has center C_3 x C_3: no canonical order-p subgroup;
        # the trivial group has no order-p subgroup at all
        for G, why in (
            (DirectProductGroup(H(1, 1), CyclicPGroup(3, 1)), "non-cyclic center"),
            (TableGroup(3, [[0]]), r"table\(order=1, p=3\) is trivial"),
        ):
            with pytest.raises(ParameterError, match=why):
                central_product(G, H(1, 1))
            with pytest.raises(ParameterError, match=why):
                central_product(H(1, 1), G)

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

    def test_minimal_group_is_its_own_quotient(self, monkeypatch):
        # every proper quotient of H(2, 1) is abelian, so the search
        # returns the trivial kernel; one structural pass recognizes and
        # classifies G itself, and the only quotient built is the
        # minimality cross-check's, by the centre of order 3
        calls, kernels = [], []
        check, divide = analysis.check_abcd, analysis.quotient
        monkeypatch.setattr(analysis, "check_abcd", lambda G: calls.append(G) or check(G))
        monkeypatch.setattr(
            analysis, "quotient", lambda G, N: kernels.append(len(N)) or divide(G, N)
        )
        G = H(2, 1)
        kernel, Q, cls = minimal_nonabelian_quotient(G)
        assert len(kernel) == 1 and calls == [G] and Q is G
        assert kernels == [3]
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


# Factors of the products on which the minimal-quotient search is
# compared with the lattice walk: H(1-2, 1-2), A(1-2, 1-2), C(3^1..3^3)
MINQUOT_FACTORS = {f"{k}({n},{d})": f"kind={k} p=3 n={n} d={d}" for k in "HA" for n in (1, 2) for d in (1, 2)}
MINQUOT_FACTORS.update({f"C{3 ** k}": f"kind=C p=3 k={k}" for k in (1, 2, 3)})


def products_up_to_729() -> dict:
    """Every nonabelian direct product of the factors above of order at
    most 729, each factor multiset once, a nonabelian factor first."""
    out = {}
    for r in range(1, 5):
        for combo in itertools.combinations_with_replacement(MINQUOT_FACTORS, r):
            descriptor = " x ".join(MINQUOT_FACTORS[f] for f in combo)
            if combo[0][0] != "C" and parse_group_descriptor(descriptor).order <= 729:
                out[" x ".join(combo)] = descriptor
    return out


MINQUOT_PRODUCTS = products_up_to_729()


@pytest.mark.parametrize("name", sorted(MINQUOT_PRODUCTS))
def test_minquot_matches_lattice_search(name):
    # the search over index-p subgroups of [G, G] against the walk of the
    # whole normal-subgroup lattice: the same kernel, so the same quotient
    G = parse_group_descriptor(MINQUOT_PRODUCTS[name])
    want = largest_kernel_avoiding_derived(G)
    kernel, Q, cls = minimal_nonabelian_quotient(G)
    assert kernel == want
    assert cls == classify_minimal(quotient(G, want))
    assert tables(Q).mul == tables(quotient(G, want)).mul


def inversion_map(G):
    return {g: G.inv(g) for g in G.elements()}


class TestBurnside:
    def test_inversion_on_elementary(self):
        G = DirectProductGroup(CyclicPGroup(3, 1), CyclicPGroup(3, 1))
        res = burnside_action_check(G, index_perm(G, inversion_map(G)), 2)
        assert res.nontrivial_on_group and res.nontrivial_on_frattini_quotient
        assert res.order == 2

    def test_identity(self):
        G = CyclicPGroup(3, 2)
        res = burnside_action_check(G, range(G.order), 2)
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
        res = burnside_action_check(G, index_perm(G, alpha), 2)
        assert res.nontrivial_on_group and res.nontrivial_on_frattini_quotient
        assert res.order == 2

    def test_reports_order_four(self):
        # x -> y, y -> x^-1 rotates the Frattini quotient F_3^2 by a quarter turn
        G = H(1, 1)
        x, y = G.gen_x(0), G.gen_y(0)
        perm = index_perm(G, automorphism_from_generator_images(G, {x: y, y: G.inv(x)}))
        assert burnside_action_check(G, perm, 4).order == 4
        with pytest.raises(ParameterError, match="order 4"):
            burnside_action_check(G, perm, 2)

    def test_generator_images_must_be_injective(self):
        # a -> a, b -> a is a homomorphism of C_3 x C_3 onto one factor
        G = DirectProductGroup(CyclicPGroup(3, 1), CyclicPGroup(3, 1))
        a, b = G.generators()
        with pytest.raises(ParameterError, match="not injective"):
            automorphism_from_generator_images(G, {a: a, b: a})

    def test_generator_images_must_be_consistent(self):
        # on C_9, g -> g forces g^3 -> g^3, which contradicts g^3 -> g
        G = CyclicPGroup(3, 2)
        g = G.gen_z()
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
        # a repeat, wrong lengths, an index out of range, non-integers
        G = CyclicPGroup(3, 1)
        for perm in ([0, 1, 1], [0, 1], [0, 1, 2, 0], [0, 2, 3], [0, 1.0, 2], [0, "1", 2]):
            with pytest.raises(ParameterError, match="not a permutation"):
                burnside_action_check(G, perm, 2)

    def test_rejects_map_multiplicative_on_one_generator_only(self):
        # (a, b, c) -> (a, b, c + b^2) respects the first generator only
        G = parse_group_descriptor("kind=C p=3 k=1 x kind=C p=3 k=1 x kind=C p=3 k=1")
        alpha = {
            ((a, (b,)), (c,)): ((a, (b,)), ((c + b * b) % 3,)) for ((a, (b,)), (c,)) in G.elements()
        }
        with pytest.raises(ParameterError, match="not a homomorphism"):
            burnside_action_check(G, index_perm(G, alpha), 2)
        # a translation x -> x g sends each generator s where the
        # homomorphism with s -> s g does, but it moves the identity
        g = (((1,), (1,)), (1,))
        with pytest.raises(ParameterError, match="not a homomorphism"):
            burnside_action_check(G, index_perm(G, {x: G.mul(x, g) for x in G.elements()}), 2)

    def test_rejects_p_order(self):
        G = DirectProductGroup(CyclicPGroup(3, 1), CyclicPGroup(3, 1))
        shear = index_perm(
            G, {((a,), (b,)): (((a + b) % 3,), (b,)) for ((a,), (b,)) in G.elements()}
        )
        with pytest.raises(ParameterError, match="prime to p"):
            burnside_action_check(G, shear, 3)
        with pytest.raises(ParameterError, match="does not divide"):
            burnside_action_check(G, shear, 2)


class TestIsomorphism:
    def test_distinguishes_families(self):
        assert not is_isomorphic(H(1, 1), A(1, 1))

    def test_self(self):
        assert is_isomorphic(H(1, 1), H(1, 1))

    def test_abelian_invariants(self):
        assert not is_isomorphic(
            CyclicPGroup(3, 2), DirectProductGroup(CyclicPGroup(3, 1), CyclicPGroup(3, 1))
        )

    def test_nonabelian_with_equal_invariants(self):
        # equal order profiles and sizes of Z, [G, G] and Phi: neither the
        # invariants nor the abelian shortcut may decide this pair
        G = make_group("H", 3, 1, 2)
        K = DirectProductGroup(A(1, 1), CyclicPGroup(3, 1))
        for basics in map(group_basics, (G, K)):
            assert (len(basics.center), len(basics.commutator_subgroup), len(basics.frattini)) == (9, 3, 3)
        assert Counter(tables(G).orders()) == Counter(tables(K).orders())
        assert not is_isomorphic(G, K) and not is_isomorphic(K, G)

    def test_not_isomorphic_after_the_search(self):
        # equal invariants and centralizer sizes, so only the backtracking
        # search can answer; it must find no isomorphism.  G' lies in the
        # ninth powers of the central product only.  The direct product
        # goes first: ~4 s, against ~31 s the other way round
        G = DirectProductGroup(A(1, 1), CyclicPGroup(3, 3))
        K = central_product(A(1, 2), CyclicPGroup(3, 3))
        tg, tk = tables(G), tables(K)
        assert iso._invariants(tg)[0] == iso._invariants(tk)[0]
        assert sorted(iso._signatures(tg)) == sorted(iso._signatures(tk))

        def derived_in_ninth_powers(t):
            return set(analysis.commutator_subgroup_idx(t)) <= {t.power(g, 9) for g in range(t.n)}

        assert not derived_in_ninth_powers(tg) and derived_in_ninth_powers(tk)
        with within(15, "A(1,1) x C27 against A(1,2) o C27"):
            assert not is_isomorphic(G, K)

    def test_partial_map_consistency(self):
        # C_3 x C_3 -> C_9 by a -> 1, b -> 3 is injective but not a
        # homomorphism: 3a = 0 would map to 3
        tg = tables(DirectProductGroup(CyclicPGroup(3, 1), CyclicPGroup(3, 1)))
        th = tables(CyclicPGroup(3, 2))
        a, b = tg.gens
        assert _extend_partial(tg.e, th.e, [(tg.mul[a], th.mul[1]), (tg.mul[b], th.mul[3])]) is None

    def test_partial_map_injectivity(self):
        G = H(1, 1)
        t = tables(G)
        idx = G.index_map()
        x, y = idx[G.gen_x(0)], idx[G.gen_y(0)]
        rx, ry = t.mul[x], t.mul[y]
        assert _extend_partial(t.e, t.e, [(rx, rx), (ry, rx)]) is None
        swap = _extend_partial(t.e, t.e, [(rx, ry), (ry, rx)])
        assert swap is not None and sorted(swap.values()) == list(range(t.n))

    def test_orders_differ_without_tables(self):
        # H(3, 2) has order 3^8: equal primes, different orders, no table
        G, C = H(3, 2), CyclicPGroup(3, 1)
        with within(1, "is_isomorphic(H(3, 2), C(3))"):
            assert not is_isomorphic(G, C) and not is_isomorphic(C, G)
        assert getattr(G, "_tables", None) is None and getattr(C, "_tables", None) is None

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

    def test_centres_differ_without_tables(self):
        # the distinctness leg of nonint-H(2,2): |Z| is 81 against 9
        side = parse_group_descriptor("kind=H p=3 n=1 d=2 x kind=C p=3 k=1 x kind=C p=3 k=1")
        target = H(2, 2)
        assert not is_isomorphic(side, target) and not is_isomorphic(target, side)
        assert getattr(side, "_tables", None) is None and getattr(target, "_tables", None) is None

    def test_rows_built_once(self, monkeypatch):
        # a relabelled table against a descriptor group of equal centre:
        # the rows that counted the descriptor's centre build its table
        calls = []
        real = base._ClassTwoGroup._generator_rows

        def counted(self):
            calls.append(self.descriptor())
            return real(self)

        monkeypatch.setattr(base._ClassTwoGroup, "_generator_rows", counted)
        table = TableGroup(3, relabelled(law_tables(H(1, 2)), 3))
        assert is_isomorphic(table, H(1, 2))
        assert calls == ["kind=H p=3 n=1 d=2"]

    def test_distinctness_leg_tables_no_group_of_its_order(self, monkeypatch):
        # the side group and H(2,2) have order 729; the form leg is assumed
        built = table_spy(monkeypatch)
        cert = derive_nonint("H", 3, 2, 2)
        assert "group-distinctness-assumed" not in cert.assumptions
        assert "central-product-assumed" in cert.assumptions  # order 3^7
        assert built == []


# |Z(G)| from generator rows against the centre of the table: every H, A
# and C of order <= 729 at p = 3, the direct products of two of them up to
# 729, central and fiber products, subgroups (one with no generators), a
# quotient and a relabelled table
CENTER_FACTORS = {f"H({n},{d})": f"kind=H p=3 n={n} d={d}" for n in (1, 2) for d in range(1, 7 - 2 * n)}
CENTER_FACTORS.update({f"A({n},{d})": f"kind=A p=3 n={n} d={d}" for n in (1, 2) for d in range(1, 7 - 2 * n)})
CENTER_FACTORS.update({f"C{3 ** k}": f"kind=C p=3 k={k}" for k in range(1, 7)})
CENTER_CASES = {name: lambda text=text: parse_group_descriptor(text) for name, text in CENTER_FACTORS.items()}
for (f1, t1), (f2, t2) in itertools.combinations_with_replacement(CENTER_FACTORS.items(), 2):
    if parse_group_descriptor(f"{t1} x {t2}").order <= 729:
        CENTER_CASES[f"{f1} x {f2}"] = lambda text=f"{t1} x {t2}": parse_group_descriptor(text)
CENTER_CASES.update(
    {
        "H(1,1) * H(1,1)": lambda: central_product(H(1, 1), H(1, 1)),
        "A(1,1) * H(1,1)": lambda: central_product(A(1, 1), H(1, 1)),
        "A(1,1) via G_d": lambda: build_A1d_via_Gd(3, 1),
        "A(1,2) via G_d": lambda: build_A1d_via_Gd(3, 2),
        "subgroup <(x, 1), (y, 0)> of H(1,1) x C(3,2)": subgroup_of_product,
        "H(1,1) / Z": quotient_by_center,
        "trivial subgroup of H(1,1)": lambda: subgroup(H(1, 1), [0]),
        "table A(2,1)": lambda: TableGroup(3, relabelled(law_tables(A(2, 1)), 2)),
    }
)
# above 256 the rows are composed through itemgetter: H(2,2) and A(2,2)
# (order 729) are among the factors above; H(3,1) has order 2187
CENTER_CASES.update(
    {
        "H(3,1)": lambda: H(3, 1),
        "table H(2,2)": lambda: TableGroup(3, relabelled(tables(H(2, 2)).mul, 7)),
    }
)
# the side groups base x C3 x C3 of the checked distinctness legs
CENTER_CASES.update(
    {
        f"{f} x C3 x C3": lambda text=f"{CENTER_FACTORS[f]} x kind=C p=3 k=1 x kind=C p=3 k=1": parse_group_descriptor(text)
        for f in ("H(1,1)", "A(1,1)", "H(1,2)")
    }
)


class TestCenterOrder:
    @pytest.mark.parametrize("name", sorted(CENTER_CASES))
    def test_matches_the_table(self, name):
        G = CENTER_CASES[name]()
        tabled = getattr(G, "_tables", None) is not None
        order = iso._center(G)
        assert (getattr(G, "_tables", None) is not None) == tabled
        assert order == len(analysis.center_idx(tables(G)))

    def test_product_counts_from_its_factors(self, monkeypatch):
        # Z(A x B) = Z(A) x Z(B): the side group of nonint-H(2,2) builds
        # no rows of a product, only those of H(1,2) and C3
        def refuse(self):
            raise AssertionError("built the rows of a direct product")

        monkeypatch.setattr(DirectProductGroup, "_generator_rows", refuse)
        side = parse_group_descriptor("kind=H p=3 n=1 d=2 x kind=C p=3 k=1 x kind=C p=3 k=1")
        assert iso._center(side) == 81

    def test_over_limit_product_counts_from_its_factors(self, monkeypatch):
        # H(2,2) x H(2,2) has order 3^12, above DEFAULT_LIMIT; each factor
        # (3^6) is sized where its rows are built, and the product is not
        def refuse(self):
            raise AssertionError("built the rows of a direct product")

        monkeypatch.setattr(DirectProductGroup, "_generator_rows", refuse)
        P = DirectProductGroup(H(2, 2), H(2, 2))
        assert iso._center(P) == 81
        assert getattr(P, "_tables", None) is None

    def test_tabled_group_reads_its_table(self, monkeypatch):
        G = H(1, 2)
        tables(G)

        def refuse():
            raise AssertionError("recomputed the rows of a tabled group")

        monkeypatch.setattr(G, "_generator_rows", refuse)
        assert iso._center(G) == 9
        # an explicit table keeps its checked rows as its generator rows
        T = TableGroup(3, relabelled(law_tables(A(2, 1)), 3))
        monkeypatch.setattr(T, "_generator_rows", refuse)
        assert (iso._center(T), is_abelian(T), is_abelian(G)) == (3, False, False)

    def test_generators_must_generate(self):
        # the rows of x and z alone: <x, z> is a proper subgroup
        G = H(1, 1)
        e, rows, inv = G._generator_rows()
        idx = G.index_map()
        kept = {idx[g]: rows[idx[g]] for g in (G.gen_x(0), G.gen_z())}
        G._generator_rows = lambda: (e, kept, inv)
        with pytest.raises(InternalCheckError, match="do not reach"):
            iso._center(G)

    def test_no_generator_rows_are_refused(self):
        # with no rows only the identity is reached; a count that ran no
        # walk would read 27
        G = H(1, 1)
        e, _, inv = G._generator_rows()
        G._generator_rows = lambda: (e, {}, inv)
        with pytest.raises(InternalCheckError, match="do not reach"):
            iso._center(G)

    def test_inconsistent_rows_are_refused(self):
        # y's row with entries 3 and 4 swapped fits no group; a count that
        # did not check the rows would read 3
        G = H(1, 1)
        e, rows, inv = G._generator_rows()
        y = G.index_map()[G.gen_y(0)]
        row = list(rows[y])
        row[3], row[4] = row[4], row[3]
        G._generator_rows = lambda: (e, {**rows, y: row}, inv)
        with pytest.raises(InternalCheckError, match="inconsistent"):
            iso._center(G)

    def test_over_limit_group_is_refused_by_its_order(self):
        G = H(9, 1)  # order 3^19
        with within(1, "_center(H(9, 1))"):
            with pytest.raises(MaterializationLimitError):
                iso._center(G)
        with within(1, "is_abelian(H(9, 1))"):
            with pytest.raises(MaterializationLimitError):
                is_abelian(G)

    def test_inconsistent_rows_are_refused_above_256(self):
        # as above, on the rows of H(2,2) (order 729), which are composed
        # through itemgetter: y_1's row with two entries swapped
        G = H(2, 2)
        e, rows, inv = G._generator_rows()
        y = G.index_map()[G.gen_y(0)]
        row = list(rows[y])
        row[3], row[728] = row[728], row[3]
        G._generator_rows = lambda: (e, {**rows, y: row}, inv)
        with pytest.raises(InternalCheckError, match="inconsistent"):
            iso._center(G)

    def test_generators_must_generate_above_256(self):
        # without y_1's row the rows of H(2,2) reach a proper subgroup
        G = H(2, 2)
        e, rows, inv = G._generator_rows()
        y = G.index_map()[G.gen_y(0)]
        kept = {s: row for s, row in rows.items() if s != y}
        G._generator_rows = lambda: (e, kept, inv)
        with pytest.raises(InternalCheckError, match="do not reach"):
            iso._center(G)

    @pytest.mark.parametrize("n, d", [(1, 1), (2, 2)], ids=["order 27, bytes", "order 729, itemgetter"])
    @pytest.mark.parametrize("wrong", ["swapped", "twisted"])
    def test_wrong_inverses_are_refused(self, n, d, wrong):
        # The count must rest on the rows alone.  "swapped" exchanges the
        # inverses of x_1 and y_1.  "twisted" is a -> phi(a)^-1 for the
        # automorphism phi: x_i -> x_i^-1, y_i -> y_i, z -> z^-1 of order 2;
        # with it inv o R_s^-1 o inv is right multiplication by phi(s),
        # which commutes with every row and is injective, so only the check
        # that it sends e to s refuses it (a count would read 0: not even e
        # has s e = e phi(s)).
        G = H(n, d)
        e, rows, inv = G._generator_rows()
        F = H(n, d)
        idx = F.index_map()
        x, y = idx[F.gen_x(0)], idx[F.gen_y(0)]
        if wrong == "swapped":
            bad = list(inv)
            bad[x], bad[y] = bad[y], bad[x]
        else:
            images = {F.gen_x(i): F.inv(F.gen_x(i)) for i in range(n)}
            images.update({F.gen_y(i): F.gen_y(i) for i in range(n)})
            images[F.gen_z()] = F.inv(F.gen_z())
            phi = automorphism_from_generator_images(F, images)
            bad = [idx[phi[g]] for g in F.elements()]
            bad = [bad[a] for a in inv]
        assert bad != inv
        G._generator_rows = lambda: (e, rows, bad)
        with pytest.raises(InternalCheckError, match="inconsistent"):
            iso._center(G)


class TestRowMaps:
    @pytest.mark.parametrize("n, kind", [(255, bytes), (256, bytes), (257, tuple)])
    def test_split_at_256(self, n, kind):
        # every index of an order-256 group fits in a byte, so its rows are
        # composed as bytes; one more element and they are tuples
        key, outer, after, solve = base._row_maps(n)
        shift = key([(x + 1) % n for x in range(n)])  # x -> x + 1
        double = key([2 * x % n for x in range(n)])  # x -> 2 x
        assert type(shift) is kind
        # x -> 2 (x + 1) and x -> 2 x + 1
        assert list(after(shift)(outer(double))) == [(2 * x + 2) % n for x in range(n)]
        assert list(after(double)(outer(shift))) == [(2 * x + 1) % n for x in range(n)]
        # the inverse of the shift
        assert list(solve(shift, key(range(n)))) == [(x - 1) % n for x in range(n)]
        with pytest.raises((ValueError, IndexError)):  # an entry past n
            key([n] * n)


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

    @pytest.mark.parametrize("p", [3, 17], ids=["order 9, bytes", "order 289, itemgetter"])
    @pytest.mark.parametrize(
        "entry, message",
        [
            (1.0, "table entry 1.0 is not an integer"),
            ("1", "table entry '1' is not an integer"),
            (-1, "table entry -1 out of range"),
            (300, "table entry 300 out of range"),
            (2**70, f"table entry {2**70} out of range"),
        ],
        ids=["float", "str", "negative", "above 255", "above 2^64"],
    )
    def test_entry_not_an_index_refused(self, p, entry, message):
        # each composition path converts the rows and refuses a bad entry
        # by name, never with a TypeError from the conversion
        n = p * p
        rows = [[(a + b) % n for b in range(n)] for a in range(n)]
        rows[3][4] = entry
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            TableGroup(p, rows)

    @pytest.mark.parametrize("n", [9, 729])
    def test_first_bad_entry_named(self, n):
        rows = [[(a + b) % n for b in range(n)] for a in range(n)]
        rows[2][5], rows[2][7], rows[4][1] = n, 1.5, -1
        with pytest.raises(ParameterError, match=f"^table entry {n} out of range$"):
            TableGroup(3, rows)
        rows[2][5] = 0
        with pytest.raises(ParameterError, match="^table entry 1.5 is not an integer$"):
            TableGroup(3, rows)

    def test_entry_in_byte_range_above_order_refused(self):
        # 9 <= b < 256 fits in a byte, so the bytes conversion alone does
        # not refuse it
        rows = [[(a + b) % 9 for b in range(9)] for a in range(9)]
        rows[8][8] = 9
        with pytest.raises(ParameterError, match="^table entry 9 out of range$"):
            TableGroup(3, rows)

    def test_tables_are_the_checked_rows(self, monkeypatch):
        # the rows given (tuples are kept as they are) are the table's
        # rows: nothing is composed
        rows = [tuple(row) for row in relabelled(law_tables(A(1, 2)), 4)]
        G = TableGroup(3, rows)
        monkeypatch.setattr(G, "_generator_rows", None)
        t = tables(G)
        assert all(a is b for a, b in zip(t.mul, rows)) and len(t.mul) == len(rows)
        assert (t.e, t.gens) == (G.identity(), tuple(G.generators()))
        assert t.inv == [G.inv(a) for a in range(t.n)]


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
        # {0, 1, 2} tiles C9 by translates and commutes with every element,
        # so only closure tells it from a subgroup
        with pytest.raises(ParameterError, match="not a subgroup"):
            quotient(CyclicPGroup(3, 2), [0, 1, 2])

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
        normals = normal_subgroups_avoiding(t, frozenset({t.n}))
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
        e, rows, inv = G._generator_rows()
        elems = G.elements()
        idx = G.index_map()
        assert e == idx[G.identity()]
        assert list(rows) == [idx[g] for g in G.generators()]
        for s, row in rows.items():
            assert row == [idx[G.mul(elems[s], b)] for b in elems]
        assert inv == [idx[G.inv(a)] for a in elems]


def _exponent(kind, n, d):
    """e with p^e the order of H(n, d), A(n, d) or, for kind C, C(p^n)."""
    return n if kind == "C" else 2 * n + d


# H(n, d), A(n, d) and C(p^k) at p in {3, 5, 7} of order at most 3^8
CLASS_TWO = st.one_of(
    st.tuples(st.just("H"), st.sampled_from((3, 5, 7)), st.integers(0, 3), st.integers(1, 4)),
    st.tuples(st.just("A"), st.sampled_from((3, 5, 7)), st.integers(1, 3), st.integers(1, 4)),
    st.tuples(st.just("C"), st.sampled_from((3, 5, 7)), st.integers(1, 8), st.none()),
).filter(lambda c: c[1] ** _exponent(c[0], c[2], c[3]) <= 3**8)


class TestRowSlices:
    """The rows the class-two form assembles from slices and gathers are
    the element law's, on seeded draws (`derandomize`)."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(CLASS_TWO)
    # A with d >= 2, whose x_1 digit has radix p^(d+1) and carries z: one
    # each side of 256 elements; a twist at p = 7; a cyclic group of 243
    @example(("A", 3, 1, 2))
    @example(("A", 5, 1, 2))
    @example(("A", 3, 2, 2))
    @example(("H", 7, 1, 1))
    @example(("H", 5, 2, 1))
    @example(("C", 3, 5, None))
    def test_rows_are_the_law(self, case):
        kind, p, n, d = case
        with within(2, f"rows of {case}"):
            G = CyclicPGroup(p, n) if kind == "C" else make_group(kind, p, n, d)
            e, rows, inv = G._generator_rows()
            elems, idx = G.elements(), G.index_map()
            assert e == idx[G.identity()]
            assert list(rows) == [idx[g] for g in G.generators()]
            for s, row in rows.items():
                assert row == [idx[G.mul(elems[s], b)] for b in elems]
            assert inv == [idx[G.inv(a)] for a in elems]


def gd_of(p, d):
    """G_d = <(x1, w), (y1, 0), (z, 0)> in H(1,1) x C(p^(d+1)), as
    `build_A1d_via_Gd` builds it."""
    prod = DirectProductGroup(H(1, 1, p), CyclicPGroup(p, d + 1))
    law = prod._index_law()
    x, y, z, w = law.gens
    return subgroup(prod, [law.mul(x, w), y, z])


# index laws whose rows are gathered: a product (untabled), a subgroup of
# one (G_d, order 81 and 243), quotients of a product and of G_d
INDEX_LAWS = {
    "H(1,1) x C9": lambda: DirectProductGroup(H(1, 1), CyclicPGroup(3, 2)),
    "A(1,1) x H(1,1)": lambda: DirectProductGroup(A(1, 1), H(1, 1)),
    "G_1": lambda: gd_of(3, 1),
    "G_2": lambda: gd_of(3, 2),
    "H(1,1) * H(1,1)": lambda: central_product(H(1, 1), H(1, 1)),
    "A(1,2) via G_2": lambda: build_A1d_via_Gd(3, 2),
    "H(1,1) / Z": quotient_by_center,
}


class TestIndexLawRows:
    """`_IndexLaw.row(a)` is the row b -> a b of the law's products."""

    @pytest.mark.parametrize("name", sorted(INDEX_LAWS))
    def test_row_is_the_product(self, name):
        G = INDEX_LAWS[name]()
        law = G._index_law()
        n = len(law.inv)
        assert n == G.order
        for a in range(n):
            assert list(law.row(a)) == [law.mul(a, b) for b in range(n)]
            assert law.mul(a, law.inv[a]) == law.e == law.mul(law.inv[a], a)
        assert getattr(G, "_tables", None) is None  # nothing was tabled for it

    def test_product_rows_are_the_element_law(self):
        G = DirectProductGroup(A(1, 1), CyclicPGroup(3, 2))
        law = G._index_law()
        elems, idx = G.elements(), G.index_map()
        for a in (0, 1, 40, len(elems) - 1):
            assert list(law.row(a)) == [idx[G.mul(elems[a], b)] for b in elems]
        assert law.inv == [idx[G.inv(g)] for g in elems]

    @pytest.mark.parametrize("G, rank", [(H(2, 2), 5), (A(2, 1), 4)], ids=repr)
    def test_frattini_quotient_matches_law(self, G, rank):
        # G / Phi(G) is elementary abelian of G's rank: z is a generator of
        # H(2,2) (order 729), and z = x_1^3 in A(2,1)
        N = sorted(analysis.frattini_idx(tables(G)))
        mul, inv = law_quotient(G, [G.elements()[i] for i in N])
        Q = quotient(G, N)
        law = Q._index_law()
        assert Q.order == len(mul) == 3**rank
        assert [list(law.row(a)) for a in range(Q.order)] == mul
        assert law.inv == inv
        assert [list(row) for row in tables(Q).mul] == mul


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

    def test_tabled_product_reads_its_own_table(self, monkeypatch):
        # a quotient of a tabled product multiplies through the product's
        # rows, and equals the quotient composed through the factors
        composed = DirectProductGroup(H(1, 1), CyclicPGroup(3, 2))
        tabled = DirectProductGroup(H(1, 1), CyclicPGroup(3, 2))
        t = tables(tabled)
        N = analysis.center_idx(t)

        def refuse():
            raise AssertionError("composed a law for a tabled product")

        monkeypatch.setattr(tabled, "_composed_law", refuse)
        via_rows, via_factors = tables(quotient(tabled, N)), tables(quotient(composed, N))
        assert (via_rows.mul, via_rows.inv) == (via_factors.mul, via_factors.inv)
        assert getattr(composed, "_tables", None) is None

    def test_limit_reaches_the_parent(self):
        G = H(9, 1)  # order 3^19
        with pytest.raises(MaterializationLimitError):
            quotient(G, [0])
        with pytest.raises(MaterializationLimitError):
            subgroup(G, [1])
        # a product of order 3^12 is refused by its order before it or a
        # factor is tabled, although each factor (3^6) is within the limit
        P = DirectProductGroup(H(2, 2), H(2, 2))
        for refused in (lambda: tables(P), lambda: quotient(P, [0]), lambda: subgroup(P, [3])):
            with pytest.raises(MaterializationLimitError):
                refused()
        assert [getattr(F, "_tables", None) for F in (P, P.g1, P.g2)] == [None] * 3
        with pytest.raises(MaterializationLimitError):
            central_product(H(2, 2), H(2, 2))
        with pytest.raises(MaterializationLimitError):
            build_A1d_via_Gd(3, 5)  # H(1, 1) x C(3^6) has order 3^9


def test_no_callable_takes_a_limit():
    """Every group is sized against the one cap, DEFAULT_LIMIT: no public
    pgroups callable, nor `PGroup._rows` or `_check_limit`, takes a
    ``limit`` parameter."""
    callables = [getattr(pgroups, name) for name in pgroups.__all__] + [base.PGroup._rows, base._check_limit]
    takes = [obj for obj in callables if callable(obj) and "limit" in inspect.signature(obj).parameters]
    assert takes == []


# nonabelian groups of order 243, whose analyses build quotients and
# subgroups of order 81 and below
ORDER_243 = {
    "H(2,1)": lambda: H(2, 1),
    "A(2,1)": lambda: A(2, 1),
    "H(1,1) x C9": lambda: DirectProductGroup(H(1, 1), CyclicPGroup(3, 2)),
    "a table": lambda: TableGroup(3, relabelled(law_tables(H(2, 1)), 5)),
}


@pytest.mark.parametrize("case", sorted(ORDER_243))
def test_analysis_sizes_no_group_it_builds(monkeypatch, case):
    """A group is sized once, when it is tabled: the quotients and
    subgroups its analyses build are never sized, so with every size
    check refusing after that, each analysis answers as it did."""

    def answers(G, other):
        gb = group_basics(G)
        kernel, _, cls = minimal_nonabelian_quotient(G)
        counts = (len(gb.center), len(gb.commutator_subgroup), len(gb.frattini))
        return counts, gb.rank, gb.exponent, len(kernel), cls, is_isomorphic(G, other)

    want = answers(ORDER_243[case](), H(2, 1))
    G, other = ORDER_243[case](), H(2, 1)
    tables(G), tables(other)
    monkeypatch.setattr(base, "_within_limit", lambda p, e, limit: False)
    if case != "a table":  # the refusal bites on a group not yet tabled
        with pytest.raises(MaterializationLimitError):
            tables(ORDER_243[case]())
    assert answers(G, other) == want


class TestDescriptors:
    def test_parse_product(self):
        G = parse_group_descriptor("kind=H p=3 n=1 d=1 x kind=C p=3 k=1")
        assert G.order == 81
        assert not is_minimal_nonabelian(G)

    @pytest.mark.parametrize(
        "text, field",
        [
            ("kind=H p=5 p=3 n=1 d=1", "p"),
            ("kind=H p=3 n=1 d=1 kind=A", "kind"),
            ("kind=C p=3 k=1 k=1", "k"),  # a repeat of the same value too
            ("kind=H p=3 n=1 d=1 x kind=A p=3 n=1 d=1 d=2", "d"),
            ("kind=C p=3 k=1 x kind=C p=3 n=1 k=2 n=1", "n"),
        ],
    )
    def test_repeated_field_refused(self, text, field):
        # otherwise the last copy wins, and the text misnames its group
        with pytest.raises(ParseError, match=f"repeated field '{field}'"):
            parse_group_descriptor(text)

    @pytest.mark.parametrize(
        "text",
        ["kind=H p=3 n=1 d=1", "kind=A p=5 n=2 d=1", "kind=C p=17 k=2", "kind=H p=3 n=1 d=1 x kind=C p=3 k=1"],
    )
    def test_canonical_descriptor_round_trips(self, text):
        assert parse_group_descriptor(text).descriptor() == text

    def test_element_orders(self):
        t = tables(A(1, 1))
        x = A(1, 1).index_map()[A(1, 1).gen_x(0)]
        assert t.orders()[x] == power_order(t, x) == 9

from fractions import Fraction

import pytest

from ramforge.astower import ASExtension, as_reduce_F
from ramforge import forge
from ramforge.errors import (
    InternalCheckError,
    MaterializationLimitError,
    ParameterError,
    ParseError,
    VerificationMismatchError,
)
from ramforge.forge import (
    Certificate,
    P3Parameters,
    build_p3_tower,
    derive_chat,
    derive_nonint,
    parse_certificate,
    pick_parameters,
    verify_certificate,
)
from ramforge.laurent import monomial, parse_series
from ramforge.pgroups import base
from ramforge.pgroups import CyclicPGroup, build_A1d_via_Gd, central_product, is_isomorphic, make_group, tables
from ramforge.ramcalc import parse_multiset, upper_to_lower

from conftest import table_spy, within


class TestParameters:
    def test_pick(self):
        assert pick_parameters(3, Fraction(13, 3)) == (5, 8)
        assert pick_parameters(3, 0) == (1, 4)
        assert pick_parameters(5, 0) == (1, 2)

    def test_derive(self):
        p = P3Parameters.derive(3, 1, 4)
        assert (p.t, p.s, p.r) == (1, 1, 2)
        p = P3Parameters.derive(5, 3, 4)
        assert (p.t, p.s, p.r) == (3, -1, 4)
        p = P3Parameters.derive(5, 1, 2)
        assert (p.t, p.s, p.r) == (2, 0, 2)

    def test_violations_name_the_congruence(self):
        with pytest.raises(ParameterError, match="-b"):
            P3Parameters.derive(3, 1, 2)
        with pytest.raises(ParameterError, match="0"):
            P3Parameters.derive(3, 1, 6)
        with pytest.raises(ParameterError, match="p \\| b"):
            P3Parameters.derive(3, 3, 4)
        with pytest.raises(ParameterError, match="exceed"):
            P3Parameters.derive(3, 4, 2)


class TestP3Tower:
    def test_first_instance(self):
        cert = build_p3_tower(P3Parameters.derive(3, 1, 4))
        assert cert.witness == Fraction(13, 3)
        assert cert.predicted == parse_multiset("upper m=1 p=3 : 1, 4, 13/3")
        assert cert.verified == parse_multiset("upper m=1 p=3 : 1, 4")
        step3 = cert.steps[2]
        assert ("machine_break", "11") in step3.outputs
        assert ("residual_valuation", "-11") in step3.outputs

    @pytest.mark.parametrize(
        "p,b,a,witness",
        [
            (5, 1, 2, Fraction(11, 5)),
            (5, 3, 4, Fraction(23, 5)),
            (3, 2, 11, Fraction(35, 3)),
            (3, 5, 8, Fraction(29, 3)),
        ],
    )
    def test_instances(self, p, b, a, witness):
        cert = build_p3_tower(P3Parameters.derive(p, b, a))
        assert cert.witness == witness
        step3 = dict(cert.steps[2].outputs)
        assert step3["machine_break"] == str(2 * b + p * (a - b))

    def test_deterministic(self):
        one = build_p3_tower(P3Parameters.derive(3, 2, 11)).render()
        two = build_p3_tower(P3Parameters.derive(3, 2, 11)).render()
        assert one == two

    def test_beta_unit_changes_datum_not_breaks(self):
        unit = parse_series("p=3 prec=40 : 0:1 1:1 2:2")
        cert = build_p3_tower(P3Parameters.derive(3, 1, 4), beta_unit=unit)
        assert cert.witness == Fraction(13, 3)
        assert dict(cert.steps[2].outputs)["machine_break"] == "11"
        verify_certificate(cert.render())

    def test_witness_is_largest_and_unique_nonintegral(self):
        for p, b, a in ((3, 1, 4), (5, 3, 4), (3, 5, 8)):
            cert = build_p3_tower(P3Parameters.derive(p, b, a))
            nonint = [x for x in cert.predicted.breaks if x.denominator > 1]
            assert nonint == [cert.witness]
            assert cert.witness == max(cert.predicted.breaks)
            upper_to_lower(cert.predicted)  # realizable

    def test_closed_form_grid(self):
        # machine reduction equals 2b + p(a-b) across the full small grid
        for p in (3, 5):
            for b in range(1, 8):
                if b % p == 0:
                    continue
                for a in range(b + 1, 21):
                    if a % p == 0 or (a + b) % p == 0:
                        continue
                    params = P3Parameters.derive(p, b, a)
                    window = 4 * p * a
                    beta = monomial(p, 1, -b, -b + window)
                    ext = ASExtension(p, beta)
                    alpha = (
                        monomial(p, 1, -p * params.s, -p * params.s + window)
                        * beta**params.t
                    )
                    delta = ext.element({0: alpha * beta * params.r, 1: alpha})
                    res = as_reduce_F(delta)
                    assert res.outcome.break_value == 2 * b + p * (a - b), (p, b, a)


class TestVerification:
    def test_roundtrip(self):
        cert = build_p3_tower(P3Parameters.derive(3, 1, 4))
        verify_certificate(cert.render())

    def test_tamper_detected_at_step(self):
        text = build_p3_tower(P3Parameters.derive(3, 1, 4)).render()
        bad = text.replace("out machine_break = 11", "out machine_break = 12")
        with pytest.raises(VerificationMismatchError) as info:
            verify_certificate(bad)
        assert info.value.location == "step 3"

    def test_tampered_witness_detected(self):
        text = build_p3_tower(P3Parameters.derive(3, 1, 4)).render()
        bad = text.replace("WITNESS: 13/3", "WITNESS: 14/3")
        with pytest.raises(VerificationMismatchError):
            verify_certificate(bad)

    def test_unknown_rule_is_parse_error(self):
        text = build_p3_tower(P3Parameters.derive(3, 1, 4)).render()
        bad = text.replace("RULE cp-break-base", "RULE bogus")
        with pytest.raises(ParseError):
            verify_certificate(bad)

    def test_unknown_kind_is_parse_error(self):
        text = build_p3_tower(P3Parameters.derive(3, 1, 4)).render()
        bad = text.replace("kind: p3-tower", "kind: q5-tower")
        with pytest.raises(ParseError):
            verify_certificate(bad)

    def test_garbage_is_parse_error(self):
        with pytest.raises(ParseError):
            verify_certificate("not a certificate\n")

    def test_parse_extracts_params(self):
        text = build_p3_tower(P3Parameters.derive(3, 2, 11)).render()
        parsed = parse_certificate(text)
        assert parsed.kind == "p3-tower"
        assert parsed.params["b"] == "2"


class TestAllKindsVerify:
    def test_every_certificate_kind_round_trips(self):
        from ramforge.pgroups import CyclicPGroup

        P = CyclicPGroup(3, 1)
        inversion = [P.index_map()[P.inv(g)] for g in P.elements()]
        certs = [
            build_p3_tower(P3Parameters.derive(3, 1, 4)),
            derive_nonint("H", 3, 2, 1),
            derive_nonint("A", 3, 2, 1),
            derive_nonint("A1d", 3, 1, 1),
            derive_chat("kind=H p=3 n=1 d=1 x kind=C p=3 k=1", 1),  # pchat
            derive_chat("kind=H p=3 n=1 d=1", 2),  # chat, trivial action
            derive_chat("kind=C p=3 k=1", 2, inversion),  # chat, branch A
        ]
        kinds = {c.kind for c in certs}
        assert kinds == {"p3-tower", "nonint-H", "nonint-A", "nonint-A1d", "pchat", "chat"}
        for cert in certs:
            verify_certificate(cert.render())


class TestDerivation:
    def test_step_number_is_position(self):
        certs = [
            build_p3_tower(P3Parameters.derive(3, 1, 4)),
            derive_nonint("A1d", 3, 1, 1),
            derive_chat("kind=H p=3 n=1 d=1", 2),
        ]
        for cert in certs:
            heads = [
                ln.split(" | ")[0]
                for ln in cert.render().splitlines()
                if ln.startswith("step ")
            ]
            assert heads == [
                f"step {i}: RULE {s.rule}" for i, s in enumerate(cert.steps, 1)
            ]

    def test_chat_numbers_continue_through_the_quotient_legs(self):
        cert = derive_chat("kind=H p=3 n=1 d=1", 2)
        rules = [s.rule for s in cert.steps]
        assert rules[:4] == [
            "coprime-check", "action-check", "wild-part-nonabelian", "minimal-quotient",
        ]
        assert rules[4] == "cp-break-base" and rules[-1] == "persist-witness"
        assert f"step {len(rules)}: RULE persist-witness" in cert.render()

    def test_unregistered_names_are_rejected(self):
        cert = Certificate("p3-tower")
        with pytest.raises(InternalCheckError):
            cert.step("bogus")
        with pytest.raises(InternalCheckError):
            cert.assume("central-cp2", "bogus")
        assert cert.steps == [] and cert.assumptions == ["central-cp2"]

    def test_assumptions_keep_first_use_order(self):
        cert = Certificate("p3-tower")
        cert.assume("embedding-lift", "central-cp2")
        cert.assume("central-cp2", "tame-base-change", "embedding-lift")
        assert cert.assumptions == ["embedding-lift", "central-cp2", "tame-base-change"]

    def test_render_refuses_a_vacuous_witness(self):
        cert = build_p3_tower(P3Parameters.derive(3, 1, 4))
        cert.witness = Fraction(4)  # a predicted break, but an integer
        with pytest.raises(InternalCheckError, match="integer"):
            cert.render()
        cert.witness = Fraction(14, 3)  # nonintegral, but not predicted
        with pytest.raises(InternalCheckError, match="predicted break"):
            cert.render()


class TestVerifierFuzz:
    def test_every_single_char_corruption_is_caught(self):
        text = build_p3_tower(P3Parameters.derive(3, 1, 4)).render()
        rng_positions = range(0, len(text), max(1, len(text) // 80))
        caught = 0
        for pos in rng_positions:
            orig = text[pos]
            repl = "X" if orig != "X" else "Y"
            if orig == "\n":
                continue
            bad = text[:pos] + repl + text[pos + 1 :]
            try:
                verify_certificate(bad)
            except (ParseError, ParameterError, VerificationMismatchError):
                caught += 1
            else:
                raise AssertionError(f"corruption at {pos} went unnoticed")
        assert caught >= 60


class TestDeriveNonint:
    def test_h21_with_explicit_base(self):
        base = parse_multiset("upper m=1 p=3 : 1, 4, 13/3")
        cert = derive_nonint("H", 3, 2, 1, base_breaks=base)
        assert cert.witness == Fraction(29, 3)
        assert cert.predicted == parse_multiset("upper m=1 p=3 : 1, 4, 5, 8, 29/3")
        verify_certificate(cert.render())

    def test_h21_synthesized_base_matches(self):
        cert = derive_nonint("H", 3, 2, 1)
        assert dict(cert.params)["base"] == "upper m=1 p=3 : 1, 4, 13/3"
        assert cert.witness == Fraction(29, 3)

    def test_h11_degenerates_to_tower(self):
        cert = derive_nonint("H", 3, 1, 1)
        assert cert.kind == "p3-tower"
        assert cert.witness == Fraction(13, 3)
        # with a base, the tower sits above the base's top break
        cert = derive_nonint("H", 3, 1, 1, parse_multiset("upper m=1 p=3 : 1, 4"))
        assert cert.kind == "p3-tower"
        assert cert.witness == Fraction(29, 3)

    def test_a1d_instance(self):
        base = parse_multiset("upper m=1 p=3 : 1, 4")
        cert = derive_nonint("A1d", 3, 1, 1, base_breaks=base)
        # a = 7 is the least integer above 4 avoiding 0 and -1 mod 3
        assert dict(cert.steps[2].outputs)["a"] == "7"
        assert cert.witness == Fraction(22, 3)
        verify_certificate(cert.render())

    def test_a_with_n1_routes_to_a1d(self):
        cert = derive_nonint("A", 3, 1, 1)
        assert cert.kind == "nonint-A1d"
        assert cert.witness == Fraction(22, 3)

    def test_a21(self):
        cert = derive_nonint("A", 3, 2, 1)
        assert cert.witness == Fraction(41, 3)
        assert max(cert.predicted.breaks) == cert.witness
        verify_certificate(cert.render())

    def test_h12(self):
        cert = derive_nonint("H", 3, 1, 2)
        upper_to_lower(cert.predicted)
        assert cert.witness.denominator == 3
        verify_certificate(cert.render())

    def test_witness_unique_nonintegral(self):
        for cert in (derive_nonint("H", 3, 2, 1), derive_nonint("A", 3, 2, 1)):
            nonint = [x for x in cert.predicted.breaks if x.denominator > 1]
            assert nonint == [cert.witness]

    def test_rejects_bad_base(self):
        with pytest.raises(ParameterError):
            derive_nonint(
                "H", 3, 2, 1, base_breaks=parse_multiset("upper m=1 p=5 : 1")
            )
        with pytest.raises(ParameterError):
            derive_nonint("B", 3, 2, 1)

    def test_synthesized_base_is_the_prediction_one_level_down(self, monkeypatch):
        # the oracle is the full certificate one level down; the synthesized
        # base itself comes from break bookkeeping and builds no certificate
        cases = [
            (kind, p, n, d)
            for kind in ("H", "A")
            for p in (3, 5, 7)
            for n in range(2, 6)
            for d in (1, 2, 3)
        ]
        want = {c: derive_nonint(c[0], c[1], c[2] - 1, c[3]).predicted for c in cases}

        def no_certificate(*args, **kwargs):
            raise AssertionError("_synth_base built a certificate")

        monkeypatch.setattr(forge, "derive_nonint", no_certificate)
        for case in cases:
            assert forge._synth_base(*case) == want[case], case


def form_case(kind, p, n, d):
    """The target of nonint-<kind> at (n, d), its construction, and the
    images `_form_images` names in it."""
    if kind == "A1d":
        target, built = make_group("A", p, 1, d), build_A1d_via_Gd(p, d)
    else:
        target = make_group(kind, p, n, d)
        built = central_product(make_group(kind, p, n - 1, d), make_group("H", p, 1, 1))
    return target, built, forge._form_images(kind, n, built)


# every construction whose ambient order at p = 3 is at most 2187 (N1 o N2
# has order p^(2n + d + 1), the fiber product behind A(1, d) p^(d + 4)),
# and one at p = 5
FORM_CASES = (
    [("H", 3, 1, d) for d in (1, 2, 3, 4)]
    + [("H", 3, 2, 1), ("H", 3, 2, 2), ("A", 3, 2, 1), ("A", 3, 2, 2)]
    + [("A1d", 3, 1, d) for d in (1, 2, 3)]
    + [("A1d", 5, 1, 1)]
)
# nonint certificates whose form leg is checked (ambient order <= 729)
CHECKED_FORMS = [("H", 3, 2, 1), ("A", 3, 2, 1), ("H", 3, 1, 2), ("A1d", 3, 1, 1)]


class TestFormLeg:
    """The quotient-group-form leg checks the map its construction names."""

    @pytest.mark.parametrize("kind, p, n, d", FORM_CASES)
    def test_named_map_agrees_with_is_isomorphic(self, kind, p, n, d):
        target, built, images = form_case(kind, p, n, d)
        assert forge._realizes(target, built, images)
        assert is_isomorphic(target, built)

    @pytest.mark.parametrize("wrong", ["y_n squared", "x_n and y_n swapped"])
    @pytest.mark.parametrize("kind, p, n, d", CHECKED_FORMS)
    def test_wrong_image_fails_the_leg(self, monkeypatch, kind, p, n, d, wrong):
        real = forge._form_images

        def edited(*args):
            images, built = real(*args), args[-1]
            x, y = n - 1, 2 * n - 1
            if wrong == "y_n squared":
                images[y] = tables(built).mul[images[y]][images[y]]
            else:
                images[x], images[y] = images[y], images[x]
            return images

        monkeypatch.setattr(forge, "_form_images", edited)
        with pytest.raises(InternalCheckError, match="does not realize"):
            derive_nonint(kind, p, n, d)

    @pytest.mark.parametrize("kind, p, n, d", [("H", 3, 1, 2), ("A", 3, 2, 1), ("A1d", 3, 1, 1)])
    def test_partial_map_is_refused(self, kind, p, n, d):
        # the last image's generator (z, y_2, y_1) lies outside the span of
        # the others, so a map named on the others reaches a proper subgroup
        target, built, images = form_case(kind, p, n, d)
        assert not forge._realizes(target, built, images[:-1])

    def test_embedding_into_a_larger_group_is_refused(self):
        # H(1,1) embeds in H(2,1) = H(1,1) o H(1,1) by x1, y1, z
        _, built, images = form_case("H", 3, 2, 1)
        assert not forge._realizes(make_group("H", 3, 1, 1), built, images[::2])

    @pytest.mark.parametrize("kind", ["H", "A"])
    def test_tables_no_group_of_the_target_order(self, monkeypatch, kind):
        # both legs of nonint (3, 2, 1) run at order 243: the form leg walks
        # generator rows, and the target's are built once for both legs
        built = table_spy(monkeypatch)
        target = f"kind={kind} p=3 n=2 d=1"
        calls = []
        real = base._ClassTwoGroup._generator_rows

        def counted(self):
            calls.append(self.descriptor())
            return real(self)

        monkeypatch.setattr(base._ClassTwoGroup, "_generator_rows", counted)
        cert = derive_nonint(kind, 3, 2, 1)
        assert not {"group-distinctness-assumed", "central-product-assumed"} & set(cert.assumptions)
        assert 243 not in built
        assert calls.count(target) == 1

    def test_too_few_generators_are_refused(self):
        with pytest.raises(InternalCheckError, match="do not name"):
            forge._form_images("H", 2, make_group("H", 3, 1, 1))


class TestDeriveChat:
    def test_branch_a_inversion(self):
        P = CyclicPGroup(3, 1)
        perm = [P.index_map()[P.inv(g)] for g in P.elements()]
        cert = derive_chat("kind=C p=3 k=1", 2, perm)
        assert cert.kind == "chat"
        assert cert.witness is None
        burnside = dict(cert.steps[2].outputs)
        assert burnside["nontrivial_on_group"] == "true"
        assert burnside["nontrivial_on_frattini_quotient"] == "true"
        verify_certificate(cert.render())

    def test_branch_a_nonabelian_wild_part(self):
        from ramforge.pgroups import automorphism_from_generator_images, make_group

        H11 = make_group("H", 3, 1, 1)
        alpha = automorphism_from_generator_images(
            H11,
            {
                H11.gen_x(0): H11.gen_x(0),
                H11.gen_y(0): H11.inv(H11.gen_y(0)),
                H11.gen_z(): H11.inv(H11.gen_z()),
            },
        )
        idx = H11.index_map()
        perm = [idx[alpha[g]] for g in H11.elements()]
        cert = derive_chat("kind=H p=3 n=1 d=1", 2, perm)
        assert cert.kind == "chat" and cert.witness is None
        assert dict(cert.steps[2].outputs)["nontrivial_on_group"] == "true"
        verify_certificate(cert.render())

    def test_branch_b_heisenberg_times_c2(self):
        cert = derive_chat("kind=H p=3 n=1 d=1", 2)
        assert cert.kind == "chat"
        assert cert.witness == Fraction(13, 3)
        verify_certificate(cert.render())

    def test_branch_b_m1_is_pchat(self):
        cert = derive_chat("kind=H p=3 n=1 d=1 x kind=C p=3 k=1", 1)
        assert cert.kind == "pchat"
        assert cert.witness == Fraction(13, 3)
        quot = dict(cert.steps[3].outputs)
        assert quot["quotient"] == "kind=H p=3 n=1 d=1"
        verify_certificate(cert.render())

    def test_branch_b_deeper_quotient(self):
        cert = derive_chat("kind=H p=3 n=1 d=2 x kind=C p=3 k=1", 2)
        quot = next(s for s in cert.steps if s.rule == "minimal-quotient")
        assert dict(quot.outputs)["quotient"] == "kind=H p=3 n=1 d=2"
        assert cert.witness == Fraction(29, 3)
        verify_certificate(cert.render())

    def test_abelian_trivial_action_rejected(self):
        with pytest.raises(ParameterError):
            derive_chat("kind=C p=3 k=2", 2)

    def test_m_not_coprime_rejected(self):
        with pytest.raises(ParameterError):
            derive_chat("kind=H p=3 n=1 d=1", 3)

    @pytest.mark.parametrize("action", [None, [0, 2, 1]], ids=["trivial", "perm"])
    def test_over_limit_group_refused_before_enumeration(self, action):
        # order 3^25: enumerating it first would exhaust memory
        with pytest.raises(MaterializationLimitError):
            derive_chat("kind=H p=3 n=12 d=1", 2, action)

    def test_deterministic(self):
        a = derive_chat("kind=H p=3 n=1 d=1", 2).render()
        b = derive_chat("kind=H p=3 n=1 d=1", 2).render()
        assert a == b


def test_large_p_tower_within_1s():
    """p = 10007, (b, a) = (2, 7): the F-reduction's witness has y-degree
    i' = 5008, but only the few components of its wp below O_F are formed."""
    with within(1, "p = 10007 tower"):
        cert = build_p3_tower(P3Parameters.derive(10007, 2, 7), precision=400)
        verify_certificate(cert.render())
    assert cert.witness == Fraction(7 * 10007 + 2, 10007)

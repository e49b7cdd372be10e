"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every expected value here is either recomputed by an independent
oracle inside the test or asserted against exact closed forms.
"""

import contextlib
import io
import random
import time
from fractions import Fraction

from ramforge.astower import ASExtension, as_reduce_F
from ramforge.cli import main as cli_main
from ramforge.forge import P3Parameters, derive_chat
from ramforge.laurent import LaurentSeries, monomial
from ramforge.pgroups import (
    CyclicPGroup,
    DirectProductGroup,
    automorphism_from_generator_images,
    build_A1d_via_Gd,
    burnside_action_check,
    central_product,
    check_abcd,
    classify_minimal,
    group_basics,
    is_isomorphic,
    is_minimal_nonabelian,
    make_group,
    tables,
)
from ramforge.ramcalc import (
    BreakMultiset,
    lower_to_upper,
    parse_multiset,
    upper_to_lower,
)

from conftest import index_perm

P3_INSTANCES = [(3, 1, 4), (3, 2, 11), (3, 5, 8), (5, 1, 2), (5, 3, 4)]


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def test_criterion_1_tower_reproduction():
    worst = 0.0
    for p, b, a in P3_INSTANCES:
        t0 = time.perf_counter()
        code, out, err = run_cli(["p3", "--p", str(p), "--b", str(b), "--a", str(a)])
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        assert code == 0, f"(p={p}, b={b}, a={a}): exit {code}: {err}"
        step3 = next(line for line in out.splitlines() if line.startswith("step 3:"))
        machine = int(step3.split("machine_break = ")[1].split(" |")[0])
        assert machine == 2 * b + p * (a - b), (p, b, a, machine)
        predicted = next(
            line for line in out.splitlines() if line.startswith("PREDICTED: ")
        )
        expect = BreakMultiset(
            "upper", 1, p, tuple(sorted((Fraction(b), Fraction(a), Fraction(a * p + b, p))))
        )
        assert parse_multiset(predicted[len("PREDICTED: ") :]) == expect
        assert elapsed < 5.0, f"(p={p}, b={b}, a={a}) took {elapsed:.2f}s"
    report(1, True, f"5 towers, machine break = 2b+p(a-b), worst {worst:.2f}s < 5s")


def test_criterion_2_residual_valuation():
    for p, b, a in P3_INSTANCES:
        params = P3Parameters.derive(p, b, a)
        window = max(400, 4 * p * a)
        beta = monomial(p, 1, -b, -b + window)
        ext = ASExtension(p, beta)
        alpha = monomial(p, 1, -p * params.s, -p * params.s + window) * beta**params.t
        delta = ext.element({0: alpha * beta * params.r, 1: alpha})
        # subtract wp of the explicit witness r * pi^-s * y^(t+1), then reduce
        hand = ext.monomial_element(params.r, -params.s, params.t + 1, window)
        shifted = delta - hand.wp()
        assert shifted.valuation() == -p * a + p * b - 2 * b, (p, b, a)
        res = as_reduce_F(delta)
        assert res.reduced.valuation() == -p * a + p * b - 2 * b, (p, b, a)
    report(2, True, "residual valuation = -pa+pb-2b on all 5 instances")


def test_criterion_3_herbrand_roundtrip():
    rng = random.Random(2026)
    t0 = time.perf_counter()
    for _ in range(1000):
        p = rng.choice([3, 5])
        m = rng.choice([1, 2, 4])
        n = rng.randint(1, 6)
        lo = BreakMultiset(
            "lower", m, p, tuple(sorted(rng.randint(1, 400) for _ in range(n)))
        )
        assert upper_to_lower(lower_to_upper(lo)) == lo
    elapsed = time.perf_counter() - t0
    report(3, elapsed < 1.0, f"1000 roundtrips in {elapsed:.3f}s < 1s")


def test_criterion_4_reduction_soundness():
    rng = random.Random(2027)
    t0 = time.perf_counter()
    count = 0
    for p, b in ((3, 1), (3, 2), (5, 1)):
        window = 200
        ext = ASExtension(p, monomial(p, 1, -b, -b + window))
        for _ in range(67 if p == 3 else 66):
            comps = {
                i: LaurentSeries(
                    p,
                    [(rng.randint(-6, 3), rng.randint(0, p - 1)) for _ in range(5)],
                    window // 2,
                )
                for i in range(p)
            }
            delta = ext.element(comps)
            res = as_reduce_F(delta)
            assert (delta - res.witness.wp() - res.reduced).is_zero()
            v = res.reduced.valuation()
            if res.outcome.is_wild:
                assert v < 0 and v % p != 0
            else:
                assert v >= 0 or res.reduced.is_zero()
            count += 1
    elapsed = time.perf_counter() - t0
    report(4, count == 200 and elapsed < 30.0, f"{count} reductions in {elapsed:.2f}s < 30s")


def _corpus():
    for n, d in ((1, 1), (1, 2), (1, 3), (2, 1)):
        for kind in ("H", "A"):
            yield kind, n, d, make_group(kind, 3, n, d)


def _controls():
    C = CyclicPGroup
    D = DirectProductGroup
    H11 = make_group("H", 3, 1, 1)
    A11 = make_group("A", 3, 1, 1)
    abelian = [
        C(3, 1),
        C(3, 2),
        C(3, 3),
        D(C(3, 1), C(3, 1)),
        D(C(3, 1), D(C(3, 1), C(3, 1))),
        D(D(C(3, 1), C(3, 1)), D(C(3, 1), C(3, 1))),
        D(C(3, 2), C(3, 1)),
        D(C(3, 2), C(3, 2)),
        D(C(3, 3), C(3, 1)),
        D(C(3, 3), C(3, 2)),
        D(C(3, 2), D(C(3, 1), C(3, 1))),
    ]
    products = [
        D(H11, C(3, 1)),
        D(H11, C(3, 2)),
        D(H11, D(C(3, 1), C(3, 1))),
        D(A11, C(3, 1)),
        D(A11, C(3, 2)),
        D(A11, D(C(3, 1), C(3, 1))),
        D(make_group("H", 3, 1, 2), C(3, 1)),
        D(make_group("A", 3, 1, 2), C(3, 1)),
        D(C(3, 1), H11),
    ]
    return abelian + products


def test_criterion_5_group_corpus():
    t0 = time.perf_counter()
    for kind, n, d, G in _corpus():
        res = check_abcd(G)
        assert res.all_true, (kind, n, d, res)
        gb = group_basics(G)
        assert len(gb.center) == 3**d, (kind, n, d)
        assert gb.order == 3 ** (2 * n + d), (kind, n, d)
        cls = classify_minimal(G)  # runs both minimality methods internally
        assert (cls.kind, cls.n, cls.d) == (kind, n, d)
    controls = _controls()
    assert len(controls) == 20
    for G in controls:
        assert not is_minimal_nonabelian(G), G.descriptor()
    elapsed = time.perf_counter() - t0
    report(
        5,
        elapsed < 60.0,
        f"8 minimal groups + 20 controls, both methods agree, {elapsed:.1f}s < 60s",
    )


def test_criterion_6_central_products():
    t0 = time.perf_counter()
    H11 = make_group("H", 3, 1, 1)
    A11 = make_group("A", 3, 1, 1)
    assert is_isomorphic(central_product(H11, H11), make_group("H", 3, 2, 1))
    assert is_isomorphic(central_product(A11, H11), make_group("A", 3, 2, 1))
    for d in (1, 2):
        assert is_isomorphic(build_A1d_via_Gd(3, d), make_group("A", 3, 1, d))
    elapsed = time.perf_counter() - t0
    report(6, elapsed < 120.0, f"central products and A(1,d) forms, {elapsed:.1f}s < 120s")


def _gl2_2power_maps():
    """Invertible 2x2 matrices over F_3 whose multiplicative order is a
    power of 2, acting on C_3 x C_3."""
    mats = []
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    if (a * d - b * c) % 3 == 0:
                        continue
                    M = ((a, b), (c, d))
                    order = 1
                    X = M
                    while X != ((1, 0), (0, 1)):
                        X = (
                            (
                                (X[0][0] * M[0][0] + X[0][1] * M[1][0]) % 3,
                                (X[0][0] * M[0][1] + X[0][1] * M[1][1]) % 3,
                            ),
                            (
                                (X[1][0] * M[0][0] + X[1][1] * M[1][0]) % 3,
                                (X[1][0] * M[0][1] + X[1][1] * M[1][1]) % 3,
                            ),
                        )
                        order += 1
                    if order & (order - 1) == 0:
                        mats.append((M, order))
    return mats


def _harvest_automorphisms():
    """(group, map, m) triples with verified prime-to-p order on |G| <= 81."""
    C = CyclicPGroup
    D = DirectProductGroup
    cases = []
    cyclics = [C(3, 1), C(3, 2), C(3, 3), C(3, 4)]
    abelians = cyclics + [
        D(C(3, 1), C(3, 1)),
        D(C(3, 2), C(3, 1)),
        D(C(3, 2), C(3, 2)),
        D(C(3, 3), C(3, 1)),
        D(C(3, 1), D(C(3, 1), C(3, 1))),
        D(D(C(3, 1), C(3, 1)), D(C(3, 1), C(3, 1))),
    ]
    for G in abelians:
        cases.append((G, {g: G.inv(g) for g in G.elements()}, 2))
    for G in abelians[:5]:
        cases.append((G, {g: g for g in G.elements()}, 2))

    V = D(C(3, 1), C(3, 1))
    for M, order in _gl2_2power_maps():
        if order == 1:
            continue
        alpha = {
            ((x,), (y,)): (
                ((M[0][0] * x + M[0][1] * y) % 3,),
                ((M[1][0] * x + M[1][1] * y) % 3,),
            )
            for ((x,), (y,)) in V.elements()
        }
        cases.append((V, alpha, order))

    W = D(C(3, 1), D(C(3, 1), C(3, 1)))
    for signs in ((2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 1), (2, 2, 2)):
        alpha = {
            ((x,), ((y,), (z,))): (
                ((signs[0] * x) % 3,),
                (((signs[1] * y) % 3,), ((signs[2] * z) % 3,)),
            )
            for ((x,), ((y,), (z,))) in W.elements()
        }
        cases.append((W, alpha, 2))
    swap = {(x, (y, z)): (y, (x, z)) for (x, (y, z)) in W.elements()}
    cases.append((W, swap, 2))

    H11 = make_group("H", 3, 1, 1)
    for images in (
        {H11.gen_x(0): H11.gen_x(0), H11.gen_y(0): H11.inv(H11.gen_y(0)), H11.gen_z(): H11.inv(H11.gen_z())},
        {H11.gen_x(0): H11.inv(H11.gen_x(0)), H11.gen_y(0): H11.inv(H11.gen_y(0)), H11.gen_z(): H11.gen_z()},
        {H11.gen_x(0): H11.gen_y(0), H11.gen_y(0): H11.gen_x(0), H11.gen_z(): H11.inv(H11.gen_z())},
    ):
        cases.append((H11, automorphism_from_generator_images(H11, images), 2))

    A11 = make_group("A", 3, 1, 1)
    cases.append(
        (
            A11,
            automorphism_from_generator_images(
                A11,
                {A11.gen_x(0): A11.inv(A11.gen_x(0)), A11.gen_y(0): A11.gen_y(0)},
            ),
            2,
        )
    )
    H12 = make_group("H", 3, 1, 2)
    cases.append(
        (
            H12,
            automorphism_from_generator_images(
                H12,
                {
                    H12.gen_x(0): H12.gen_x(0),
                    H12.gen_y(0): H12.inv(H12.gen_y(0)),
                    H12.gen_z(): H12.inv(H12.gen_z()),
                },
            ),
            2,
        )
    )
    A12 = make_group("A", 3, 1, 2)
    cases.append(
        (
            A12,
            automorphism_from_generator_images(
                A12,
                {A12.gen_x(0): A12.inv(A12.gen_x(0)), A12.gen_y(0): A12.gen_y(0)},
            ),
            2,
        )
    )
    return cases


def test_criterion_7_burnside_agreement():
    cases = _harvest_automorphisms()
    assert len(cases) >= 50, len(cases)
    for G, alpha, m in cases:
        assert G.order <= 81
        res = burnside_action_check(G, index_perm(G, alpha), m)  # raises on disagreement
        assert res.nontrivial_on_group == res.nontrivial_on_frattini_quotient
    report(7, True, f"{len(cases)} automorphisms, triviality booleans agree")


def test_criterion_8_end_to_end(tmp_path):
    cert = derive_chat("kind=H p=3 n=1 d=1", 2)
    assert cert.witness == Fraction(13, 3)
    # minimal parameters: the embedded tower uses (b, a) = (1, 4)
    pick = next(s for s in cert.steps if s.rule == "cp-break-base")
    assert ("break", "1") in pick.outputs
    path = tmp_path / "chat.cert"
    path.write_text(cert.render())
    code, _, _ = run_cli(["verify", str(path)])
    assert code == 0
    tampered = cert.render().replace("out machine_break = 11", "out machine_break = 10")
    step_no = next(
        line.split(":", 1)[0]
        for line in cert.render().splitlines()
        if "machine_break" in line
    )
    bad = tmp_path / "tampered.cert"
    bad.write_text(tampered)
    code, _, err = run_cli(["verify", str(bad)])
    assert code == 3
    assert step_no in err
    report(8, True, f"chat certificate witness 13/3, verify ok, tamper fails at {step_no}")

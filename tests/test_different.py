"""The different of a tower L/K computed two ways: an independent check of
the upper breaks {b, a, a + b/p} that a p3-tower certificate predicts.

Route 1 is Hilbert's formula v_L(D_{L/K}) = sum over i >= 0 of (|G_i| - 1)
(Serre, *Local Fields*, IV §1 Prop. 4) on the predicted upper breaks,
turned into lower ones by Herbrand's psi.  Route 2 goes through F = K(y) by
transitivity of the different (III §4 Prop. 8): e_{L/F} * v_F(D_{F/K})
from the break b of F/K, plus Hilbert's formula for L/F, whose group is
C_p x C_p with upper breaks u_x < u_w over F.  u_x is the break over F of
X^p - X = alpha, from an exact F-reduction of alpha; u_w is the top step's
machine break.  Route 2 uses neither the Herbrand function of L/K nor the
closed form a + b/p, so the two agree only if the prediction is right.

Every value is read from the certificate text: beta and alpha from the
inputs of steps 1 and 2, u_w from step 3, the prediction from its line.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from ramforge.astower import ASExtension, as_reduce_F
from ramforge.forge import P3Parameters, build_p3_tower
from ramforge.laurent import LaurentSeries, parse_series
from ramforge.ramcalc import parse_multiset

from conftest import within

CORPUS = sorted((Path(__file__).resolve().parent.parent / "certs").glob("p3-tower*.cert"))


def hilbert(p: int, upper) -> int:
    """v_L of the different of a totally ramified Galois extension of
    degree p^n whose upper breaks ``upper`` each have multiplicity one:
    psi has slope p^k past the k-th break, and |G_i| = p^(n-k) between the
    k-th and the next lower break."""
    upper = sorted(Fraction(u) for u in upper)
    n = len(upper)
    lower = [upper[0]]
    for k in range(1, n):
        lower.append(lower[-1] + p**k * (upper[k] - upper[k - 1]))
    total, prev = 0, Fraction(-1)
    for k, low in enumerate(lower):
        total += (p ** (n - k) - 1) * (low - prev)
        prev = low
    assert total.denominator == 1, upper
    return int(total)


def step_value(text: str, rule: str, key: str) -> str:
    line = next(ln for ln in text.splitlines() if f": RULE {rule} |" in ln)
    fields = dict(f.split(" ", 1)[1].split(" = ", 1) for f in line.split(" | ")[1:])
    return fields[key]


def tower_values(text: str):
    """(p, b, predicted upper breaks, u_x, u_w) read from a certificate."""
    beta = parse_series(step_value(text, "cp-break-base", "beta"))
    alpha = parse_series(step_value(text, "cp-break-aux", "alpha"))
    predicted = next(ln for ln in text.splitlines() if ln.startswith("PREDICTED: "))
    ux = as_reduce_F(ASExtension(beta.p, beta).element({0: alpha})).outcome
    assert ux.is_wild
    uw = int(step_value(text, "wild-reduce-ext", "machine_break"))
    b = -beta.valuation()
    return beta.p, b, parse_multiset(predicted.removeprefix("PREDICTED: ")).breaks, ux.break_value, uw


def route_1(p, upper) -> int:
    return hilbert(p, upper)


def route_2(p, b, ux, uw) -> int:
    return p**2 * hilbert(p, [b]) + hilbert(p, [ux, uw])


def check_tower(text: str) -> None:
    p, b, upper, ux, uw = tower_values(text)
    lo, a, top = upper
    assert (lo, top) == (b, a + Fraction(b, p))
    assert route_1(p, upper) == route_2(p, b, ux, uw), (p, b, a)
    for wrong in (a + 1, a + Fraction(b + 1, p), a + Fraction(b, p**2)):
        assert route_1(p, (b, a, wrong)) != route_2(p, b, ux, uw), (p, b, a, wrong)
    for off in (ux - 1, ux + 1):
        assert route_1(p, upper) != route_2(p, b, off, uw), (p, b, a, off)


def seeded_towers():
    """Two (b, a) per p <= 11 from a seeded draw, each with beta sparse
    and with a dense unit."""
    rng = random.Random(13)
    for p in (3, 5, 7, 11):
        pairs = [
            (b, a)
            for b in range(1, 2 * p)
            for a in range(b + 1, b + 2 * p)
            if b % p and a % p and (a + b) % p
        ]
        for b, a in rng.sample(pairs, 2):
            dense = LaurentSeries(p, enumerate([rng.randrange(1, p)] + [rng.randrange(p) for _ in range(63)]), 64)
            for unit in (None, dense):
                yield pytest.param(p, b, a, unit, id=f"{p}-{b}-{a}-{'sparse' if unit is None else 'dense'}")


def test_hilbert_known_value():
    # (3; 1, 4): lower breaks 1, 10, 13, so 2*26 + 9*8 + 3*2
    assert hilbert(3, [1, 4, Fraction(13, 3)]) == 130 == route_2(3, 1, 10, 11)


@pytest.mark.parametrize("path", CORPUS, ids=lambda path: path.name)
def test_corpus_tower_different(path):
    with within(1, path.name):
        check_tower(path.read_text())


@pytest.mark.parametrize("p,b,a,unit", list(seeded_towers()))
def test_seeded_tower_different(p, b, a, unit):
    with within(1, f"tower {(p, b, a)}"):
        check_tower(build_p3_tower(P3Parameters.derive(p, b, a), 64, unit).render())

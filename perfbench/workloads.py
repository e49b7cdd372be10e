"""The three workloads: inputs made from a seed, one pass of each
workload's operation mix, and the check on every output.

Every pass of a run repeats the same operations on the same inputs, so a
run's throughput does not depend on how many passes fit in it.  The
program is reached only through attributes of the `rf` namespace
(``rf.forge.build_p3_tower`` ...), looked up at call time, so the tracer's
rebinding sees every call.

Why each workload (details in README.md):

- ``tower-dense``: p3-tower certificates with a dense seeded unit; the
  Laurent multiply does almost all the work and pgroups none.
- ``group-certs``: certificates whose group legs are machine-checked up to
  order 729, plus direct group queries on relabelled Cayley tables; pgroups
  does most of the work.
- ``cli-corpus``: documented command-line traffic in-process; every
  operation takes a few milliseconds, so fixed per-operation cost shows.
"""

from __future__ import annotations

import hashlib
import io
import random
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# The machine's speed drifts by tens of percent within seconds (README.md,
# "Machine speed"), so timings are scaled by calibration: units of fixed
# pure-Python integer work, like the program's own, run in bursts between
# operations.  An operation's speed is the mean unit time of the bursts
# just before and just after it, divided by REF_UNIT_S, the median unit
# time on the baseline machine; its scaled time is its time / its speed.
REF_UNIT_S = 2.5e-3
# calibration time as a share of timed operation time; a burst runs before
# an operation whenever calibration has fallen below that share
CAL_SHARE = 0.05


def calibration_unit() -> float:
    """Seconds taken by one unit of fixed work."""
    t0 = perf_counter()
    acc = 0
    for i in range(200):
        for x in range(i, i + 100):
            acc = (acc * 31 + x * i) % 1000003
    return perf_counter() - t0


class Tally:
    """Per operation kind: successes, summed seconds (as measured and
    scaled by calibration) and latencies; plus the attempted and failed
    totals.  Every failure makes the run incorrect.  ``known_defects``
    counts outcomes of the documented defect probe (README.md, "Known
    defect kept visible"), which are not operations.

    With a tracer, every operation runs twice, untraced and traced, back
    to back: the results must agree, and the summed times of the two give
    the tracing overhead without drift of the machine's speed between them."""

    def __init__(self, tracer=None):
        self.ok = Counter()
        self.seconds = Counter()
        self.scaled_s = Counter()
        self._cal_s = 0.0
        self._op_s = 0.0
        self._speed = None  # of the last burst
        self._unscaled = []  # (kind, seconds) of operations since it
        self.latency_ms: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()
        self.known_defects: Counter = Counter()
        self.tracer = tracer
        self.untraced_s = 0.0

    def call(self, kind: str, fn, *args):
        """Time one operation: (True, result) or (False, the exception)."""
        self.attempted += 1
        self.calibrate(force=self._speed is None)
        if self.tracer is None:
            ok, result, dt = _timed(fn, args)
        else:
            ok, result, dt = self._paired(kind, fn, args)
        self.seconds[kind] += dt
        self._op_s += dt
        self._unscaled.append((kind, dt))
        self.latency_ms[kind].append(dt * 1e3)
        return ok, result

    def calibrate(self, force: bool = False) -> None:
        """Run a burst if calibration is below CAL_SHARE (or ``force``), and
        scale the operations since the last burst.  Call it with ``force``
        after the last operation."""
        units = []
        while (force and not units) or self._cal_s <= CAL_SHARE * self._op_s:
            units.append(calibration_unit())
            self._cal_s += units[-1]
        if not units:
            return
        speed = sum(units) / len(units) / REF_UNIT_S
        for kind, dt in self._unscaled:
            self.scaled_s[kind] += dt / ((self._speed + speed) / 2)
        self._unscaled.clear()
        self._speed = speed

    def _paired(self, kind: str, fn, args):
        # alternate which of the two runs goes first, so that an advantage
        # of running second (warm caches) does not bias the overhead
        tracer = self.tracer
        tracer.op += 1
        if tracer.op % 2:
            ok0, res0, dt0 = _timed(fn, args)
            ok, result, dt = self._traced(kind, fn, args)
        else:
            ok, result, dt = self._traced(kind, fn, args)
            ok0, res0, dt0 = _timed(fn, args)
        self.untraced_s += dt0
        if _outcome(ok0, res0) != _outcome(ok, result):
            self.fail(kind, "result differs with tracing on")
        return ok, result, dt

    def _traced(self, kind: str, fn, args):
        tracer = self.tracer
        tracer.install()
        tracer.enter("op." + kind)
        try:
            return _timed(fn, args)
        finally:
            tracer.exit()
            tracer.uninstall()

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def success(self, kind: str) -> None:
        self.ok[kind] += 1

    def fail(self, kind: str, why: str) -> None:
        self.failed += 1
        self.failures[f"{kind}: {why}"] += 1


def _timed(fn, args):
    t0 = perf_counter()
    try:
        result, ok = fn(*args), True
    except Exception as exc:  # noqa: BLE001 - every escape is a counted failure
        result, ok = exc, False
    return ok, result, perf_counter() - t0


def _outcome(ok: bool, result):
    return (ok, result) if ok else (ok, type(result).__name__)


def tamper(text: str, rng: random.Random) -> str:
    """Change one ``out`` field of one step: a digit to another digit, or,
    in a field without digits, ``true`` and ``false`` into each other."""
    lines = text.split("\n")
    sites = []  # (line index, offset of the value in the line, value)
    for i, line in enumerate(lines):
        if not line.startswith("step "):
            continue
        pos = 0
        for field in line.split(" | "):
            if field.startswith("out "):
                value = field.split(" = ", 1)[1]
                if any(ch.isdigit() for ch in value) or "true" in value or "false" in value:
                    sites.append((i, pos + len(field) - len(value), value))
            pos += len(field) + len(" | ")
    i, at, old = sites[rng.randrange(len(sites))]
    digits = [k for k, ch in enumerate(old) if ch.isdigit()]
    if digits:
        k = rng.choice(digits)
        new = old[:k] + rng.choice([d for d in "0123456789" if d != old[k]]) + old[k + 1 :]
    elif "false" in old:
        new = old.replace("false", "true", 1)
    else:
        new = old.replace("true", "false", 1)
    lines[i] = lines[i][:at] + new + lines[i][at + len(old) :]
    return "\n".join(lines)


def _tamper_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"tamper:{seed}:{index}")


def _check_digest(tally, kind, index, digest, reference) -> None:
    if reference is not None and reference[index] != digest:
        tally.fail(kind, "certificate digest mismatch")
    else:
        tally.success(kind)


def _verify(rf, text) -> None:
    # looked up at call time, so a traced call reaches the wrapper
    rf.forge.verify_certificate(text)


def _verify_genuine(tally, rf, text) -> None:
    ok, res = tally.call("verify", _verify, rf, text)
    if ok:
        tally.success("verify")
    else:
        tally.fail("verify", f"genuine certificate rejected: {type(res).__name__}")


def _reject_tampered(tally, rf, text) -> None:
    ok, res = tally.call("reject", _verify, rf, text)
    if ok:
        tally.fail("reject", "tampered certificate accepted")
    elif isinstance(res, rf.errors.VerificationMismatchError):
        tally.success("reject")
    else:
        tally.fail("reject", f"tampered certificate raised {type(res).__name__}")


# -- tower-dense ----------------------------------------------------------------

# (p, precision, t values).  The cost of a dense tower grows with p, with
# the precision and with t = a/b mod p (alpha = pi^(-ps) * beta^t), so every
# pass holds every t of each p and the seed only draws (b, a) within a t
# class and the unit's coefficients.
TOWER_STRATA = ((3, 1600, (1,)), (5, 600, (1, 2, 3)), (7, 400, (1, 2, 3, 4, 5)))


@dataclass(frozen=True)
class Tower:
    p: int
    b: int
    a: int
    precision: int
    unit: object  # LaurentSeries with every coefficient drawn from the seed


def _pick_ba(rng: random.Random, p: int, t: int, a_max: int) -> tuple[int, int]:
    """Seeded (b, a) with p not dividing b, b < a <= a_max and a = t*b mod p;
    such a pair satisfies a != 0, -b mod p because 1 <= t <= p - 2."""
    while True:
        b = rng.randrange(1, a_max)
        if b % p == 0:
            continue
        choices = [a for a in range(b + 1, a_max + 1) if a % p == (t * b) % p]
        if choices:
            return b, rng.choice(choices)


def tower_inputs(rf, seed: int, work) -> list[Tower]:
    rng = random.Random(f"tower-dense:{seed}")
    towers = []
    for p, precision, ts in TOWER_STRATA:
        for t in ts:
            # keeping 4*p*a <= precision keeps the series window at `precision`
            b, a = _pick_ba(rng, p, t, precision // (4 * p))
            coeffs = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(precision - 1)]
            unit = rf.laurent.LaurentSeries(p, enumerate(coeffs), precision)
            towers.append(Tower(p, b, a, precision, unit))
    return towers


def _build_tower(rf, c: Tower) -> str:
    params = rf.forge.P3Parameters.derive(c.p, c.b, c.a)
    return rf.forge.build_p3_tower(params, c.precision, c.unit).render()


def _break_query(rf, c: Tower):
    """The break over F = K(y) of the top-step datum alpha*y + r*alpha*beta,
    computed through the public reduction as in demos/02."""
    q = rf.forge.P3Parameters.derive(c.p, c.b, c.a)
    window = max(c.precision, 4 * c.p * c.a)
    monomial = rf.laurent.monomial
    beta = monomial(c.p, 1, -c.b, -c.b + window) * c.unit
    alpha = monomial(c.p, 1, -c.p * q.s, -c.p * q.s + window) * beta**q.t
    ext = rf.astower.ASExtension(c.p, beta)
    red = rf.astower.as_reduce_F(ext.element({0: alpha * beta * q.r, 1: alpha}))
    return red.outcome.break_value, red.reduced.valuation()


def tower_pass(rf, towers: list[Tower], tally: Tally, seed: int, reference) -> list:
    digests = []
    for i, c in enumerate(towers):
        ok, res = tally.call("build", _build_tower, rf, c)
        if not ok:
            tally.fail("build", f"raised {type(res).__name__}")
            digests.append(None)
            continue
        digests.append(sha256(res))
        _check_digest(tally, "build", i, digests[-1], reference)
        _verify_genuine(tally, rf, res)
        _reject_tampered(tally, rf, tamper(res, _tamper_rng(seed, i)))
        ok, got = tally.call("query", _break_query, rf, c)
        # closed forms from the paper: break 2b + p(a-b), residual -(pa - pb + 2b)
        want = (2 * c.b + c.p * (c.a - c.b), -(c.p * c.a - c.p * c.b + 2 * c.b))
        if not ok:
            tally.fail("query", f"raised {type(got).__name__}")
        elif got != want:
            tally.fail("query", f"break query gave {got}, closed form {want}")
        else:
            tally.success("query")
    return digests


# -- group-certs ----------------------------------------------------------------

GROUP_PRECISION = 400

# Certificates whose group legs are machine-checked (orders <= 729).
# nonint-A at (1, 2) is routed by derive_nonint to the nonint-A1d builder.
NONINT = (("H", 2, 1), ("A", 2, 1), ("H", 1, 2), ("A", 1, 2), ("H", 2, 2), ("A1d", 1, 1), ("A1d", 1, 2))
H11 = "kind=H p=3 n=1 d=1"

# Direct queries on seeded relabellings of these groups, as explicit Cayley
# tables, with the answers at the seed commit (relabelling changes none).
QUERIES = (
    ("group_basics", "kind=H p=3 n=1 d=2", None, "order=81 center=9 commutator=3 frattini=3 rank=3 exponent=9"),
    ("group_basics", "kind=H p=3 n=2 d=1", None, "order=243 center=3 commutator=3 frattini=3 rank=4 exponent=3"),
    ("classify_minimal", "kind=A p=3 n=1 d=2", None, "A n=1 d=2"),
    ("classify_minimal", "kind=H p=3 n=1 d=3", None, "H n=1 d=3"),
    ("minimal_nonabelian_quotient", f"{H11} x kind=C p=3 k=1", None, "kernel=3 quotient=H n=1 d=1"),
    ("minimal_nonabelian_quotient", f"{H11} x kind=C p=3 k=2", None, "kernel=9 quotient=H n=1 d=1"),
    ("is_isomorphic", "kind=H p=3 n=1 d=2", "kind=H p=3 n=1 d=2", "True"),
    ("is_isomorphic", "kind=A p=3 n=1 d=2", "kind=H p=3 n=1 d=2", "False"),
)


@dataclass(frozen=True)
class GroupInputs:
    certs: tuple  # (builder name, args)
    tables: tuple  # relabelled Cayley table per query


def _order_two_actions(rf):
    """Permutations of H(1,1)'s element indices given by four automorphisms
    of order 2, each fixed by the images of the generators x, y, z."""
    G = rf.pgroups.make_group("H", 3, 1, 1)
    x, y, z = G.gen_x(0), G.gen_y(0), G.gen_z()
    inv = G.inv
    images = (
        {x: x, y: inv(y), z: inv(z)},
        {x: inv(x), y: y, z: inv(z)},
        {x: inv(x), y: inv(y), z: z},
        {x: y, y: x, z: inv(z)},
    )
    idx = G.index_map()
    out = []
    for im in images:
        alpha = rf.pgroups.automorphism_from_generator_images(G, im)
        out.append([idx[alpha[g]] for g in G.elements()])
    return out


def _relabel(rf, descriptor: str, rng: random.Random) -> list[list[int]]:
    t = rf.pgroups.tables(rf.pgroups.parse_group_descriptor(descriptor))
    new = list(range(t.n))
    rng.shuffle(new)
    old = [0] * t.n
    for o, n in enumerate(new):
        old[n] = o
    return [[new[t.mul[old[a]][old[b]]] for b in range(t.n)] for a in range(t.n)]


def group_inputs(rf, seed: int, work) -> GroupInputs:
    rng = random.Random(f"group-certs:{seed}")
    certs = [("derive_nonint", (kind, 3, n, d)) for kind, n, d in NONINT]
    certs.append(("derive_chat", (f"{H11} x kind=C p=3 k=1", 1, None)))  # pchat
    certs.append(("derive_chat", (H11, rng.choice((2, 4, 5, 7, 8)), None)))  # chat, trivial action
    certs.append(("derive_chat", (H11, 2, rng.choice(_order_two_actions(rf)))))  # chat, nontrivial
    tables = tuple(_relabel(rf, desc, rng) for _, desc, _, _ in QUERIES)
    return GroupInputs(tuple(certs), tables)


def _build_group_cert(rf, builder: str, args) -> str:
    return getattr(rf.forge, builder)(*args, precision=GROUP_PRECISION).render()


def _group_query(rf, query: str, rows, rhs) -> str:
    pg = rf.pgroups
    G = pg.TableGroup(3, rows)
    if query == "group_basics":
        b = pg.group_basics(G)
        return (
            f"order={b.order} center={len(b.center)} commutator={len(b.commutator_subgroup)} "
            f"frattini={len(b.frattini)} rank={b.rank} exponent={b.exponent}"
        )
    if query == "classify_minimal":
        c = pg.classify_minimal(G)
        return f"{c.kind} n={c.n} d={c.d}"
    if query == "minimal_nonabelian_quotient":
        kernel, _, c = pg.minimal_nonabelian_quotient(G)
        return f"kernel={len(kernel)} quotient={c.kind} n={c.n} d={c.d}"
    return str(pg.is_isomorphic(G, pg.parse_group_descriptor(rhs)))


def group_pass(rf, inputs: GroupInputs, tally: Tally, seed: int, reference) -> list:
    digests = []
    for i, (builder, args) in enumerate(inputs.certs):
        ok, res = tally.call("build", _build_group_cert, rf, builder, args)
        if not ok:
            tally.fail("build", f"raised {type(res).__name__}")
            digests.append(None)
            continue
        digests.append(sha256(res))
        _check_digest(tally, "build", i, digests[-1], reference)
        _verify_genuine(tally, rf, res)
        _reject_tampered(tally, rf, tamper(res, _tamper_rng(seed, i)))
    for (query, _, rhs, want), rows in zip(QUERIES, inputs.tables):
        ok, got = tally.call("query", _group_query, rf, query, rows, rhs)
        if not ok:
            tally.fail("query", f"{query} raised {type(got).__name__}")
        elif got != want:
            tally.fail("query", f"{query} gave {got!r}, expected {want!r}")
        else:
            tally.success("query")
    return digests


# -- cli-corpus -----------------------------------------------------------------

CLI_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
TOWERS_PER_PRIME = 2
BREAKS_PER_COMMAND = 5
EXIT_OK, EXIT_USAGE, EXIT_MISMATCH = 0, 2, 3


@dataclass(frozen=True)
class CliInputs:
    towers: tuple  # (argv, certificate path, tampered path)
    missing: tuple  # paths that do not exist
    breaks: tuple  # (argv, expected stdout)


def _upper_from_lower(p: int, lowers: list[int]) -> list[Fraction]:
    """Upper breaks of lower breaks for m = 1, by the Herbrand recursion
    u_1 = l_1, u_i = u_(i-1) + (l_i - l_(i-1)) / p^(i-1)."""
    us: list[Fraction] = []
    for i, low in enumerate(lowers):
        us.append(Fraction(low) if i == 0 else us[-1] + Fraction(low - lowers[i - 1], p**i))
    return us


def _lower_from_upper(p: int, ups: list) -> list[Fraction]:
    """The inverse recursion, l_i = l_(i-1) + (u_i - u_(i-1)) * p^(i-1)."""
    lows: list[Fraction] = []
    for i, u in enumerate(ups):
        lows.append(Fraction(u) if i == 0 else lows[-1] + (u - ups[i - 1]) * p**i)
    return lows


def _multiset(numbering: str, p: int, xs) -> str:
    body = ", ".join(str(x) for x in xs)
    return f"{numbering} m=1 p={p} :" + (f" {body}" if body else "")


def _lowers(rng: random.Random) -> list[int]:
    out = [rng.randint(1, 20)]
    for _ in range(rng.randint(0, 3)):
        out.append(out[-1] + rng.randint(1, 30))
    return out


def _breaks_traffic(rng: random.Random, precision: str):
    cmds = []
    for _ in range(BREAKS_PER_COMMAND):
        p = rng.choice(CLI_PRIMES)
        low = _lowers(rng)
        up = _upper_from_lower(p, low)
        want_up, want_low = _multiset("upper", p, up), _multiset("lower", p, low)
        cmds.append((["--precision", precision, "breaks", "toupper", want_low], want_up))
        cmds.append((["--precision", precision, "breaks", "tolower", want_up], want_low))
        while True:
            other = _upper_from_lower(p, _lowers(rng))
            if not set(other) & set(up):
                break
        cmds.append(
            (
                ["--precision", precision, "breaks", "compose", want_up, _multiset("upper", p, other)],
                _multiset("upper", p, sorted(up + other)),
            )
        )
        # integers above the top break keep the full multiset realizable
        u = int(max(up)) + rng.randint(1, 5)
        v = u + rng.randint(1, 5)
        lower_u, lower_v = _lower_from_upper(p, up + [u, v])[-2:]
        want = f"lower_u: {lower_u}\nlower_v: {lower_v}"
        cmds.append(
            (
                ["--precision", precision, "breaks", "fact1", "--multiset", want_up, "--u", str(u), "--v", str(v)],
                want,
            )
        )
    return cmds


def cli_inputs(rf, seed: int, work) -> CliInputs:
    rng = random.Random(f"cli-corpus:{seed}")
    towers = []
    for p in CLI_PRIMES:
        for _ in range(TOWERS_PER_PRIME):
            while True:
                b = rng.randint(1, 2 * p)
                a = rng.randint(b + 1, b + 3 * p)
                if b % p and a % p and (a + b) % p:
                    break
            precision = str(rng.randint(64, 800))
            k = len(towers)
            argv = ["--precision", precision, "p3", "--p", str(p), "--b", str(b), "--a", str(a)]
            towers.append((argv, work / f"{k}.cert", work / f"{k}-tampered.cert"))
    missing = tuple(work / f"missing-{j}.cert" for j in range(rng.randint(1, 3)))
    breaks = tuple(_breaks_traffic(rng, str(rng.randint(64, 800))))
    return CliInputs(tuple(towers), missing, breaks)


def _cli(rf, argv) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = rf.cli.main(argv)
    return code, out.getvalue()


def _cli_build(rf, argv, path) -> tuple[int, str]:
    code, text = _cli(rf, argv)
    path.write_text(text)
    return code, text


def _cli_expect(tally, kind, ok, res, code) -> bool:
    """Count a CLI operation that must exit with ``code``; True on success."""
    if not ok:
        tally.fail(kind, f"{type(res).__name__} escaped cli.main")
        return False
    if res[0] != code:
        tally.fail(kind, f"exit {res[0]}, expected {code}")
        return False
    return True


def _probe_missing(tally, rf, path) -> None:
    """``verify`` of a missing path, untimed.  The documented answer is
    exit 2, but today FileNotFoundError escapes cli.main (ROADMAP item 5).
    That escape is tallied in ``known_defects`` and printed, not counted as
    an operation, because the workloads are held to operations that do not
    fail; once fixed, the probe is a counted operation that must exit 2,
    and any other outcome fails it."""
    ok, res, _ = _timed(_cli, (rf, ["--precision", "400", "verify", str(path)]))
    if not ok and isinstance(res, FileNotFoundError):
        tally.known_defects["verify_missing: FileNotFoundError escaped cli.main"] += 1
        return
    tally.attempted += 1
    if _cli_expect(tally, "verify_missing", ok, res, EXIT_USAGE):
        tally.success("verify_missing")


def cli_pass(rf, inputs: CliInputs, tally: Tally, seed: int, reference) -> list:
    digests = []
    for i, (argv, path, tampered) in enumerate(inputs.towers):
        ok, res = tally.call("build", _cli_build, rf, argv, path)
        if not _cli_expect(tally, "build", ok, res, EXIT_OK):
            digests.append(None)
            continue
        digests.append(sha256(res[1]))
        _check_digest(tally, "build", i, digests[-1], reference)
        tampered.write_text(tamper(res[1], _tamper_rng(seed, i)))
        ok, res = tally.call("verify", _cli, rf, ["--precision", argv[1], "verify", str(path)])
        if _cli_expect(tally, "verify", ok, res, EXIT_OK):
            tally.success("verify")
        ok, res = tally.call("reject", _cli, rf, ["--precision", argv[1], "verify", str(tampered)])
        if _cli_expect(tally, "reject", ok, res, EXIT_MISMATCH):
            tally.success("reject")
    for path in inputs.missing:
        _probe_missing(tally, rf, path)
    for argv, want in inputs.breaks:
        ok, res = tally.call("query", _cli, rf, argv)
        if not _cli_expect(tally, "query", ok, res, EXIT_OK):
            continue
        got = res[1].strip()
        if got != want and not got.startswith(want + "\n"):
            tally.fail("query", f"breaks {argv[3]} gave {got!r}, expected {want!r}")
        else:
            tally.success("query")
    return digests


# name -> (make inputs, run one pass)
WORKLOADS = {
    "tower-dense": (tower_inputs, tower_pass),
    "group-certs": (group_inputs, group_pass),
    "cli-corpus": (cli_inputs, cli_pass),
}

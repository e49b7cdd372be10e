import contextlib
import io
import re
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ramforge import cli
from ramforge.cli import (
    EXIT_LIMIT,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PRECISION,
    EXIT_UNREALIZABLE,
    EXIT_USAGE,
    _build_parser,
    _exit_code_for,
    main,
)
from ramforge.errors import (
    InsufficientPrecisionError,
    InternalCheckError,
    MaterializationLimitError,
    UnrealizableMultisetError,
    VerificationMismatchError,
)
from ramforge.forge import P3Parameters, build_p3_tower
from ramforge.pgroups import (
    DEFAULT_LIMIT,
    CyclicPGroup,
    DirectProductGroup,
    make_group,
    parse_group_descriptor,
    tables,
)
from ramforge.pgroups import base

from conftest import table_spy, within


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestP3Command:
    def test_success(self):
        code, out, _ = run(["p3", "--p", "3", "--b", "1", "--a", "4"])
        assert code == EXIT_OK
        assert "WITNESS: 13/3" in out
        assert out.startswith("RAMFORGE CERTIFICATE v1")

    def test_congruence_violation(self):
        code, out, err = run(["p3", "--p", "3", "--b", "1", "--a", "2"])
        assert code == EXIT_USAGE
        assert "-b" in err and not out

    def test_p2_rejected(self):
        code, _, err = run(["p3", "--p", "2", "--b", "1", "--a", "4"])
        assert code == EXIT_USAGE
        assert "p > 2" in err

    def test_beta_unit_flag(self):
        code, out, _ = run(
            ["p3", "--p", "3", "--b", "1", "--a", "4", "--beta-unit", "p=3 prec=40 : 0:1 1:2"]
        )
        assert code == EXIT_OK and "WITNESS: 13/3" in out

    def test_precision_floor(self):
        code, _, err = run(["--precision", "32", "p3", "--p", "3", "--b", "1", "--a", "4"])
        assert code == EXIT_USAGE and ">= 64" in err

    def test_precision_only_from_its_flag(self, monkeypatch):
        # the environment sets no precision: --precision or the default
        monkeypatch.setenv("RAMFORGE_PRECISION", "abc")
        code, out, _ = run(["p3", "--p", "3", "--b", "1", "--a", "4"])
        assert code == EXIT_OK and "param precision = 400" in out


class TestGroupCommand:
    def test_classify(self):
        code, out, _ = run(["group", "classify", "kind=H p=3 n=1 d=2"])
        assert code == EXIT_OK
        assert out.strip() == "H n=1 d=2"

    def test_make(self):
        code, out, _ = run(["group", "make", "kind=H p=3 n=0 d=2"])
        assert code == EXIT_OK
        assert "order: 9" in out

    def test_make_cyclic(self):
        code, out, _ = run(["group", "make", "kind=C p=3 k=2"])
        assert code == EXIT_OK
        assert "group: kind=C p=3 k=2" in out and "order: 9" in out

    def test_basics(self):
        code, out, _ = run(["group", "basics", "kind=A p=3 n=1 d=1"])
        assert code == EXIT_OK
        assert "order: 27" in out and "exponent: 9" in out

    def test_no_output_format_option(self):
        code, out, err = run(["--output", "text", "group", "make", "kind=C p=3 k=2"])
        assert code == EXIT_USAGE
        assert not out and "usage:" in err

    def test_minquot_from_table(self, tmp_path):
        G = DirectProductGroup(make_group("H", 3, 1, 1), CyclicPGroup(3, 1))
        t = tables(G)
        path = tmp_path / "hxc3.table"
        path.write_text("\n".join(" ".join(map(str, row)) for row in t.mul) + "\n")
        code, out, _ = run(["group", "minquot", f"@{path}"])
        assert code == EXIT_OK
        assert "kind=H p=3 n=1 d=1" in out

    def test_iso_table_vs_descriptor(self, tmp_path):
        from ramforge.pgroups import central_product

        cp = central_product(make_group("H", 3, 1, 1), make_group("H", 3, 1, 1))
        t = tables(cp)
        path = tmp_path / "cp.table"
        path.write_text("\n".join(" ".join(map(str, row)) for row in t.mul) + "\n")
        code, out, _ = run(["group", "iso", f"@{path}", "kind=H p=3 n=2 d=1"])
        assert code == EXIT_OK
        assert out.strip() == "isomorphic"

    def test_iso_negative(self):
        code, out, _ = run(
            ["group", "iso", "kind=H p=3 n=1 d=1", "kind=A p=3 n=1 d=1"]
        )
        assert code == EXIT_OK
        assert out.strip() == "not isomorphic"

    def test_iso_decided_on_centres_tables_nothing(self, monkeypatch):
        # the README's order-729 pair: |Z| is 81 against 9
        built = table_spy(monkeypatch)
        lhs = "kind=H p=3 n=1 d=2 x kind=C p=3 k=1 x kind=C p=3 k=1"
        code, out, _ = run(["group", "iso", lhs, "kind=H p=3 n=2 d=2"])
        assert (code, out.strip()) == (EXIT_OK, "not isomorphic")
        assert 729 not in built

    def test_limit_exceeded(self):
        # H(4, 1) has order 3^9 = 19683, above DEFAULT_LIMIT
        code, out, err = run(["group", "basics", "kind=H p=3 n=4 d=1"])
        assert code == EXIT_LIMIT and not out and "limit 10000" in err

    def test_bad_args(self):
        code, _, err = run(["group", "classify", "kind=H"])
        assert code == EXIT_USAGE

    def test_missing_table(self, tmp_path):
        code, out, err = run(["group", "basics", f"@{tmp_path / 'absent.table'}"])
        assert code == EXIT_USAGE
        assert not out and "absent.table" in err

    @pytest.mark.parametrize(
        "p, n, message", [("4", "1", "p must be prime, got 4"), ("3", "-1", "H(n, d) needs n >= 0")]
    )
    def test_descriptor_error_names_violation(self, p, n, message):
        code, out, err = run(["group", "make", f"kind=H p={p} n={n} d=1"])
        assert code == EXIT_USAGE
        assert not out and message in err


class TestBreaksCommand:
    def test_tolower(self):
        code, out, _ = run(["breaks", "tolower", "upper m=1 p=3 : 1, 4, 13/3"])
        assert code == EXIT_OK
        assert out.strip() == "lower m=1 p=3 : 1, 10, 13"

    def test_toupper(self):
        code, out, _ = run(["breaks", "toupper", "lower m=1 p=3 : 5"])
        assert code == EXIT_OK
        assert out.strip() == "upper m=1 p=3 : 5"

    def test_toupper_tame(self):
        code, out, _ = run(["breaks", "toupper", "lower m=2 p=3 : 3"])
        assert code == EXIT_OK
        assert out.strip() == "upper m=2 p=3 : 3/2"

    def test_unrealizable(self):
        code, _, err = run(["breaks", "tolower", "upper m=1 p=3 : 1, 3/2"])
        assert code == EXIT_UNREALIZABLE

    def test_parse_error(self):
        code, _, _ = run(["breaks", "tolower", "not a multiset"])
        assert code == EXIT_USAGE

    def test_compose(self):
        code, out, _ = run(["breaks", "compose", "upper m=1 p=3 : 1", "upper m=1 p=3 : 4"])
        assert code == EXIT_OK
        assert out.strip() == "upper m=1 p=3 : 1, 4"

    def test_fact1(self):
        code, out, _ = run(
            ["breaks", "fact1", "--multiset", "upper m=1 p=3 :", "--u", "1", "--v", "4"]
        )
        assert code == EXIT_OK
        assert "lower_v: 10" in out

    def test_fact1_warns_below_top_break(self):
        code, out, err = run(
            ["breaks", "fact1", "--multiset", "upper m=1 p=3 : 4", "--u", "1", "--v", "5"]
        )
        assert code == EXIT_OK
        assert "lower_v: 19" in out
        assert err == "warning: u = 1 lies below the existing top break 4\n"

    # a break is read as an integer or int/int: Fraction would also read an
    # exponent form, and expanding 1e1000000000 takes unbounded time
    @pytest.mark.parametrize("token", ["1e1000000000", "1.5"])
    def test_tolower_refuses_other_break_forms(self, token):
        with within(1, f"tolower {token}"):
            code, out, err = run(["breaks", "tolower", f"upper m=1 p=3 : 1, {token}"])
        assert code == EXIT_USAGE
        assert not out and err == f"error: malformed break {token!r}: expected an integer or int/int\n"

    @pytest.mark.parametrize("u, v", [("1e1000000000", "4"), ("1", "5e1000000000"), ("1.5", "4")])
    def test_fact1_refuses_other_break_forms(self, u, v):
        argv = ["breaks", "fact1", "--multiset", "upper m=1 p=3 :", "--u", u, "--v", v]
        with within(1, f"fact1 --u {u} --v {v}"):
            code, out, err = run(argv)
        bad = v if u == "1" else u
        assert code == EXIT_USAGE
        assert not out and err == f"error: malformed break {bad!r}: expected an integer or int/int\n"

    @pytest.mark.parametrize("u, v", [("1/0", "4"), ("1", "5/0")])
    def test_fact1_zero_denominator(self, u, v):
        argv = ["breaks", "fact1", "--multiset", "upper m=1 p=3 :", "--u", u, "--v", v]
        with within(1, f"fact1 --u {u} --v {v}"):
            code, out, err = run(argv)
        assert code == EXIT_USAGE
        assert not out and err.startswith("error: ") and err.count("\n") == 1


class TestVerifyCommand:
    def test_roundtrip(self, tmp_path):
        cert = build_p3_tower(P3Parameters.derive(3, 1, 4)).render()
        path = tmp_path / "tower.cert"
        path.write_text(cert)
        code, out, _ = run(["verify", str(path)])
        assert code == EXIT_OK and "verified" in out

    def test_tampered(self, tmp_path):
        cert = build_p3_tower(P3Parameters.derive(3, 1, 4)).render()
        path = tmp_path / "bad.cert"
        path.write_text(cert.replace("out machine_break = 11", "out machine_break = 12"))
        code, _, err = run(["verify", str(path)])
        assert code == EXIT_MISMATCH
        assert "step 3" in err

    def test_unknown_rule(self, tmp_path):
        cert = build_p3_tower(P3Parameters.derive(3, 1, 4)).render()
        path = tmp_path / "odd.cert"
        path.write_text(cert.replace("RULE merge-lowers", "RULE bogus-rule"))
        code, _, _ = run(["verify", str(path)])
        assert code == EXIT_USAGE

    def test_seed_corpus(self, tmp_path):
        # a corpus is its files as operands, checked in the order given
        paths = []
        for i, (b, a) in enumerate([(1, 4), (2, 11)]):
            path = tmp_path / f"c{i}.cert"
            path.write_text(build_p3_tower(P3Parameters.derive(3, b, a)).render())
            paths.append(str(path))
        paths.reverse()
        code, out, _ = run(["verify", *paths])
        assert (code, out) == (EXIT_OK, "".join(f"{path}: verified\n" for path in paths))

    def test_first_failure_stops_the_run(self, tmp_path):
        # a good certificate prints before a missing one is refused, and
        # nothing after the missing one is read
        good = tmp_path / "good.cert"
        good.write_text(build_p3_tower(P3Parameters.derive(3, 1, 4)).render())
        absent = tmp_path / "absent.cert"
        code, out, err = run(["verify", str(good), str(absent), str(good)])
        assert (code, out) == (EXIT_USAGE, f"{good}: verified\n")
        assert err.startswith("error: ") and err.count("\n") == 1 and "absent.cert" in err

    @pytest.mark.parametrize("argv", [["--seed-corpus", "certs"], ["tower.cert", "--seed-corpus", "certs"]])
    def test_seed_corpus_option_refused(self, argv):
        # certificates are named only by operands
        code, out, err = run(["verify", *argv])
        assert code == EXIT_USAGE and not out and "usage:" in err

    def test_directory_refused(self, tmp_path):
        code, out, err = run(["verify", str(tmp_path)])
        assert code == EXIT_USAGE and not out and err.startswith("error: ")

    def test_empty_certificate_path_refused(self):
        # an empty path is a path given, not an absent one
        code, out, err = run(["verify", ""])
        assert (code, out) == (EXIT_USAGE, "") and "''" in err, err

    def test_over_limit_chat_group_exits_at_once(self, tmp_path):
        # H(12, 1) has order 3^25: refused by its order, never enumerated
        path = tmp_path / "huge.cert"
        path.write_text(
            "RAMFORGE CERTIFICATE v1\n"
            "kind: chat\n"
            "param group = kind=H p=3 n=12 d=1\n"
            "param m = 2\n"
            "param action = trivial\n"
            "param precision = 400\n"
            "step 1: RULE coprime-check | in m = 2 | in p = 3 | out gcd = 1\n"
            "ASSUMPTIONS:\n"
            "PREDICTED: none\n"
            "VERIFIED: none\n"
        )
        start = time.perf_counter()
        code, _, err = run(["verify", str(path)])
        assert code == EXIT_LIMIT and "limit" in err
        assert time.perf_counter() - start < 1

    def test_missing_file(self, tmp_path):
        code, out, err = run(["verify", str(tmp_path / "absent.cert")])
        assert code == EXIT_USAGE
        assert not out and "absent.cert" in err

    def test_nothing_to_verify(self):
        code, out, err = run(["verify"])
        assert code == EXIT_USAGE and not out and "usage:" in err


CHAT_CERT = Path(__file__).resolve().parent.parent / "certs" / "chat-H11-m2-trivial.cert"
NONINT_CERT = Path(__file__).resolve().parent.parent / "certs" / "nonint-H-p3-n2-d1.cert"
H11 = "kind=H p=3 n=1 d=1"
HUGE = "kind=H p=3 n=5000 d=1"  # order 3^10001: more than 4,300 decimal digits
VAST = "kind=H p=3 n=10000000 d=1"  # order 3^20000001: seconds to compute
BIG_P = 10000000000000061  # prime: hours by trial division

# name: (argv with {f} for the input file, the file's text or None, exit code)
HOSTILE = {
    "empty file": (["group", "basics", "@{f}"], "", EXIT_USAGE),
    "blank file": (["group", "basics", "@{f}"], " \n\n\t \n", EXIT_USAGE),
    "empty file as iso operand": (["group", "iso", "@{f}", H11], "", EXIT_USAGE),
    "empty table path": (["group", "basics", "@"], None, EXIT_USAGE),
    "non-square table": (["group", "basics", "@{f}"], "0 1 2\n1 2 0\n", EXIT_USAGE),
    "non-integer token": (["group", "basics", "@{f}"], "0 1 2\n1 2 0\n2 0 x\n", EXIT_USAGE),
    # refused by its order: its 1-entry rows are never looked at
    "over-limit table": (["group", "basics", "@{f}"], "0\n" * (DEFAULT_LIMIT + 1), EXIT_LIMIT),
    "huge descriptor": (["group", "make", HUGE], None, EXIT_LIMIT),
    "huge chat certificate": (["verify", "{f}"], CHAT_CERT.read_text().replace(H11, HUGE, 1), EXIT_LIMIT),
    "vast descriptor": (["group", "make", VAST], None, EXIT_LIMIT),
    "vast chat certificate": (["verify", "{f}"], CHAT_CERT.read_text().replace(H11, VAST, 1), EXIT_LIMIT),
    # its 3-break base is refused by length: H(n - 1, d) would need 19999999
    "vast nonint certificate": (
        ["verify", "{f}"],
        NONINT_CERT.read_text().replace("param n = 2\n", "param n = 10000000\n", 1),
        EXIT_USAGE,
    ),
}


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_group_input(tmp_path, case):
    """Each input is refused with its exit code and one error line, within
    1 s; a hang fails by the alarm instead of stalling the suite."""
    argv, text, want = HOSTILE[case]
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text)
    with within(1, case):
        code, out, err = run([a.replace("{f}", str(path)) for a in argv])
    assert code == want
    assert not out and err.startswith("error: ") and err.count("\n") == 1


# a row of 560,000 tokens: converting 27 or 28 of them takes seconds; the
# first entry is the cap the table's order is checked against
TABLE_CAPS = {
    "28 long rows over a cap of 27": (27, 28, EXIT_LIMIT, "exceeds materialization limit 27"),
    "27 rows of the wrong length": (DEFAULT_LIMIT, 27, EXIT_USAGE, "has a row of 560000 entries"),
    # no power of an odd prime (even, or a power of none of its primes):
    # refused by the order, before the first row's length is looked at
    **{f"{n} long rows": (DEFAULT_LIMIT, n, EXIT_USAGE, f"order {n} is") for n in (2, 6, 12, 15)},
}


@pytest.mark.parametrize("case", sorted(TABLE_CAPS))
def test_table_refused_before_its_tokens(monkeypatch, tmp_path, case):
    """An explicit table's order (by the cap, then by its primes) and
    row lengths are refused before its tokens are converted."""
    cap, rows, want, why = TABLE_CAPS[case]
    monkeypatch.setattr(cli, "DEFAULT_LIMIT", cap)
    path = tmp_path / "input"
    path.write_text((" ".join(["1"] * 560_000) + "\n") * rows)
    with within(1, case):
        code, out, err = run(["group", "basics", f"@{path}"])
    assert code == want
    assert not out and err.startswith("error: ") and err.count("\n") == 1 and why in err, err


def test_large_prime_within_1s():
    with within(1, "17-digit p"):
        code, out, _ = run(["breaks", "tolower", f"upper m=1 p={BIG_P} : 1"])
    assert code == EXIT_OK and out.strip() == f"lower m=1 p={BIG_P} : 1"
    # a prime beyond the range where Miller-Rabin with bases 2..41 decides
    with within(1, "26-digit p"):
        code, out, err = run(["breaks", "tolower", f"upper m=1 p={10**25 + 13} : 1"])
    assert code == EXIT_USAGE and not out and "too large" in err


def test_minquot_order_2187_within_1s():
    """A(1,1) x A(1,1) x C3, order 2187: the largest kernels have order
    81, with quotient A(1,1).  A walk of the whole normal-subgroup lattice
    takes ~46 s on this group (2-core VM)."""
    descriptor = "kind=A p=3 n=1 d=1 x kind=A p=3 n=1 d=1 x kind=C p=3 k=1"
    with within(1, "group minquot A(1,1) x A(1,1) x C3"):
        code, out, _ = run(["group", "minquot", descriptor])
    assert code == EXIT_OK
    assert out == "kernel_order: 81\nquotient: kind=A p=3 n=1 d=1\n"


def test_large_p_tower_verifies_within_1s(tmp_path):
    """The tower certificate at p = 1000003, (b, a) = (1, 4): its witness
    degree i' is 5, so checking it costs what p = 3 costs."""
    path = tmp_path / "tower.cert"
    path.write_text(build_p3_tower(P3Parameters.derive(1000003, 1, 4)).render())
    with within(1, "p = 1000003 tower"):
        code, out, _ = run(["verify", str(path)])
    assert code == EXIT_OK and out.endswith(": verified\n")


def test_large_witness_degree_tower_within_1s(tmp_path):
    """p = 1000003, (b, a) = (2, 7): the witness degree i' is 500006, but
    the top step forms only the components of wp(w) below O_F, and beta^t
    takes ~20 multiplies by squaring."""
    with within(1, "p3 at p = 1000003, (2, 7)"):
        code, out, _ = run(["p3", "--p", "1000003", "--b", "2", "--a", "7"])
    assert code == EXIT_OK and "WITNESS: 7000023/1000003" in out
    path = tmp_path / "tower.cert"
    path.write_text(out)
    with within(1, "verify at p = 1000003, (2, 7)"):
        code, out, _ = run(["verify", str(path)])
    assert code == EXIT_OK and out.endswith(": verified\n")


CORPUS_DIR = Path(__file__).resolve().parent.parent / "certs"
CORPUS = sorted(CORPUS_DIR.glob("*.cert"))


@st.composite
def cert_mutants(draw):
    """(what, text): a corpus certificate with one line deleted, duplicated
    or swapped with the next, or one character of a non-``param`` line
    changed.  Param values are left alone: an edited one can cost without
    bound, or name another genuine certificate."""
    path = draw(st.sampled_from(CORPUS))
    lines = path.read_text().splitlines()
    how = draw(st.sampled_from(["delete", "duplicate", "swap", "edit"]))
    if how == "edit":
        i = draw(st.sampled_from([k for k, ln in enumerate(lines) if not ln.startswith("param ")]))
        k = draw(st.integers(0, len(lines[i]) - 1))
        ch = draw(st.characters(min_codepoint=32, max_codepoint=126).filter(lambda c: c != lines[i][k]))
        mutant = lines[:i] + [lines[i][:k] + ch + lines[i][k + 1 :]] + lines[i + 1 :]
    elif how == "swap":
        i = draw(st.integers(0, len(lines) - 2))
        mutant = lines[:i] + [lines[i + 1], lines[i]] + lines[i + 2 :]
    else:
        i = draw(st.integers(0, len(lines) - 1))
        mutant = lines[:i] + lines[i + 1 :] if how == "delete" else lines[: i + 1] + lines[i:]
    assume(mutant != lines)
    return f"{path.name}: {how} line {i + 1}", "\n".join(mutant) + "\n"


@pytest.fixture(scope="module")
def mutant_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants") / "mutant.cert"


@settings(max_examples=150, deadline=None)
@given(mutant=cert_mutants())
def test_mutated_certificate_refused(mutant_path, mutant):
    """A certificate changed in one line is refused as malformed (exit 2)
    or as not matching its rebuild (exit 3), with an error message and no
    traceback, within 1 s."""
    what, text = mutant
    mutant_path.write_text(text)
    with within(1, what):
        code, out, err = run(["verify", str(mutant_path)])
    assert code in (EXIT_USAGE, EXIT_MISMATCH), (what, code, err)
    assert not out and err.startswith("error: ")


# one param line of a corpus certificate set to a value the certificate's
# kind refuses: certificate, key, value, and the refused condition as the
# error names it
HOSTILE_PARAMS = {
    "A1d base of three breaks": ("nonint-A1d-p3-n1-d1", "base", "upper m=1 p=3 : 1, 4, 5", "must have 2 breaks, got 3"),
    "A1d base not increasing": ("nonint-A1d-p3-n1-d1", "base", "upper m=1 p=3 : 1, 1", "strictly increasing"),
    "A1d base break divisible by p": ("nonint-A1d-p3-n1-d1", "base", "upper m=1 p=3 : 3, 4", "integer prime to p, got 3"),
    "nonint base break in exponent form": ("nonint-H-p3-n2-d1", "base", "upper m=1 p=3 : 1, 4, 1e1000000000", "malformed break '1e1000000000'"),
    # a base has one upper break per factor p of its group's order, H(1, 1)'s three
    "nonint base of two breaks": ("nonint-H-p3-n2-d1", "base", "upper m=1 p=3 : 1, 4", "base must have 3 breaks, got 2"),
    # refused before its lower breaks, of up to 4,000 digits, are computed
    "nonint base of 8500 breaks": (
        "nonint-H-p3-n2-d1", "base", "upper m=1 p=3 : " + ", ".join(map(str, range(1, 8501))), "must have 3 breaks, got 8500"
    ),
    "nonint-A base of two breaks": ("nonint-A-p3-n2-d1", "base", "upper m=1 p=3 : 1, 4", "base must have 3 breaks, got 2"),
    "A1d n = 2": ("nonint-A1d-p3-n1-d1", "n", "2", "A1d needs n = 1, got n=2"),
    "nonint n = 0": ("nonint-H-p3-n2-d1", "n", "0", "need n >= 1 and d >= 1, got n=0 d=1"),
    "nonint d = 0": ("nonint-H-p3-n2-d1", "d", "0", "need n >= 1 and d >= 1, got n=2 d=0"),
    "chat m = 0": ("chat-H11-m2-trivial", "m", "0", "m must be positive, got 0"),
    "tower b = 0": ("p3-tower-p3-b1-a4", "b", "0", "b must be positive, got 0"),
    "beta unit of another prime": ("p3-tower-dense-p7-prec400", "beta_unit", "p=5 prec=40 : 0:1", "wrong modulus"),
    "beta unit of valuation 1": ("p3-tower-dense-p7-prec400", "beta_unit", "p=7 prec=40 : 1:1", "must have valuation 0"),
    "group without d": ("pchat-H11xC3", "group", "kind=H p=3 n=1", "malformed group descriptor"),
    "group of unknown kind": ("pchat-H11xC3", "group", "kind=Q p=3 n=1 d=1", "unknown group kind 'Q'"),
    "group with an extra field": ("pchat-H11xC3", "group", "kind=H p=3 n=1 d=1 e=2", "unexpected fields ['e']"),
    "group with a bare key": ("pchat-H11xC3", "group", "kind=H p=3 n=1 d", "malformed group descriptor"),
    # the last copy would win, and the text would misname its own group
    "group with a repeated prime": ("chat-H11-m2-trivial", "group", "kind=H p=5 p=3 n=1 d=1", "repeated field 'p'"),
    "group with a repeated kind": (
        "pchat-H11xC3", "group", "kind=H p=3 n=1 d=1 kind=A x kind=C p=3 k=1", "repeated field 'kind'"
    ),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_PARAMS))
def test_hostile_param_refused(tmp_path, case):
    """A certificate whose parameters break a condition of its kind is
    refused as bad input (exit 2), with an error naming the condition."""
    name, key, value, why = HOSTILE_PARAMS[case]
    text = (CORPUS_DIR / f"{name}.cert").read_text()
    edited, count = re.subn(rf"^param {key} = .*$", f"param {key} = {value}", text, flags=re.M)
    assert count == 1
    target = tmp_path / f"{name}.cert"
    target.write_text(edited)
    with within(1, case):
        code, out, err = run(["verify", str(target)])
    assert code == EXIT_USAGE and not out and err.startswith("error: ") and why in err, err


@pytest.mark.parametrize("entry", [27, -1])
def test_table_entry_out_of_range(tmp_path, entry):
    """A 27-row table naming an element outside 0..26 is refused."""
    rows = [[(i + j) % 27 for j in range(27)] for i in range(27)]
    rows[5][7] = entry
    path = tmp_path / "input"
    path.write_text("".join(" ".join(map(str, row)) + "\n" for row in rows))
    with within(1, f"entry {entry}"):
        code, out, err = run(["group", "basics", f"@{path}"])
    assert code == EXIT_USAGE and not out and f"table entry {entry} out of range" in err


@pytest.mark.parametrize("precision", ["63", "0", "-1"])
@pytest.mark.parametrize("path", CORPUS, ids=lambda path: path.name)
def test_precision_below_floor_refused(tmp_path, path, precision):
    """`verify` refuses a certificate whose precision `p3` would refuse,
    whatever kind it is and whether or not its steps read the precision."""
    text = path.read_text()
    edited = re.sub(r"^param precision = \d+$", f"param precision = {precision}", text, flags=re.M)
    assert edited != text
    target = tmp_path / path.name
    target.write_text(edited)
    with within(1, f"{path.name} at precision {precision}"):
        code, out, err = run(["verify", str(target)])
    assert code == EXIT_USAGE and not out and f">= 64, got {precision}" in err


UNTABLED = {
    "make": (["group", "make", "kind=H p=3 n=3 d=2"], "order: 6561"),
    "iso of two primes": (
        ["group", "iso", "kind=H p=3 n=3 d=2", "kind=C p=5 k=1"],
        "not isomorphic",
    ),
    "iso of two orders": (
        ["group", "iso", "kind=H p=3 n=3 d=2", "kind=C p=3 k=1"],
        "not isomorphic",
    ),
}


@pytest.mark.parametrize("case", sorted(UNTABLED))
def test_answered_without_tables(monkeypatch, case):
    """`group make` reports an order, and `group iso` answers for groups
    of two primes or two orders, without building a table or listing an
    element."""
    argv, want = UNTABLED[case]
    built = []
    for name in ("_generator_rows", "_element_list"):
        monkeypatch.setattr(base._ClassTwoGroup, name, lambda *args, _name=name: built.append(_name))
    with within(1, case):
        code, out, _ = run(argv)
    assert code == EXIT_OK and want in out and built == []


A11 = "kind=A p=3 n=1 d=1"
A11_BASICS = "order: 27\ncenter_order: 3\ncommutator_order: 3\nfrattini_order: 3\nrank: 2\nexponent: 9\n"
# every group subcommand on a descriptor and on an @table operand ({a} is a
# table of A(1,1), {c} one of C17, {t} one of C3 and {e} the trivial
# table), with its expected output
OPERANDS = {
    "make a descriptor": (["make", A11], f"group: {A11}\norder: 27\n"),
    "make a table": (["make", "@{a}"], "group: @{a}\norder: 27\n"),
    "basics a descriptor": (["basics", A11], f"group: {A11}\n{A11_BASICS}"),
    "basics a table": (["basics", "@{a}"], f"group: @{{a}}\n{A11_BASICS}"),
    "classify a descriptor": (["classify", A11], "A n=1 d=1\n"),
    "classify a table": (["classify", "@{a}"], "A n=1 d=1\n"),
    "minquot a descriptor": (["minquot", A11], f"kernel_order: 1\nquotient: {A11}\n"),
    "minquot a table": (["minquot", "@{a}"], f"kernel_order: 1\nquotient: {A11}\n"),
    "iso of a descriptor and a table": (["iso", A11, "@{a}"], "isomorphic\n"),
    "iso of two groups": (["iso", H11, "@{a}"], "not isomorphic\n"),
    # a table's prime is the least prime factor of its order
    "make a table of order 17": (["make", "@{c}"], "group: @{c}\norder: 17\n"),
    "iso of a table of order 17": (["iso", "@{c}", "kind=C p=17 k=1"], "isomorphic\n"),
    "iso of tables of two primes": (["iso", "@{c}", "@{t}"], "not isomorphic\n"),
    "make the trivial table": (["make", "@{e}"], "group: @{e}\norder: 1\n"),
}


def _table_text(G) -> str:
    return "".join(" ".join(map(str, row)) + "\n" for row in tables(G).mul)


@pytest.mark.parametrize("case", sorted(OPERANDS))
def test_group_operands(tmp_path, case):
    """Each group subcommand names its groups by GROUP operands."""
    paths = {name: tmp_path / f"{name}.table" for name in "acte"}
    for name, G in (("a", make_group("A", 3, 1, 1)), ("c", CyclicPGroup(17, 1)), ("t", CyclicPGroup(3, 1))):
        paths[name].write_text(_table_text(G))
    paths["e"].write_text("0\n")
    argv, want = OPERANDS[case]
    assert run(["group"] + [arg.format_map(paths) for arg in argv]) == (EXIT_OK, want.format_map(paths), "")


@pytest.mark.parametrize("command", ["make", "basics"])
def test_table_named_as_given(tmp_path, command):
    """The `group:` line names an @FILE operand as given, and fed back as
    the operand it reports the same group."""
    path = tmp_path / "a11.table"
    path.write_text("".join(" ".join(map(str, row)) + "\n" for row in tables(make_group("A", 3, 1, 1)).mul))
    code, out, _ = run(["group", command, f"@{path}"])
    name = out.splitlines()[0].removeprefix("group: ")
    assert code == EXIT_OK and name == f"@{path}"
    assert run(["group", command, name]) == (EXIT_OK, out, "")


@pytest.mark.parametrize(
    "command, why", [("classify", "is not minimal nonabelian"), ("minquot", "is abelian; no nonabelian quotient")]
)
def test_table_error_names_the_operand(tmp_path, command, why):
    """An error about an @FILE operand names it as given."""
    path = tmp_path / "c289.table"
    path.write_text(_table_text(CyclicPGroup(17, 2)))
    assert run(["group", command, f"@{path}"]) == (EXIT_USAGE, "", f"error: @{path} {why}\n")


# orders 17, 17^2 and 5^3: a prime outside 3, 5, 7, 11, 13 and a
# nonabelian group of another prime than 3
@pytest.mark.parametrize("descriptor", ["kind=C p=17 k=1", "kind=C p=17 k=2", "kind=H p=5 n=1 d=1"])
def test_table_prime_read_off_its_order(tmp_path, descriptor):
    """A table is read with the least prime factor of its order as its
    prime, and answers each subcommand as its descriptor does."""
    path = tmp_path / "g.table"
    path.write_text(_table_text(parse_group_descriptor(descriptor)))
    for command in ("make", "basics"):
        code, out, _ = run(["group", command, descriptor])
        assert code == EXIT_OK
        want = out.replace(f"group: {descriptor}", f"group: @{path}", 1)
        assert run(["group", command, f"@{path}"]) == (EXIT_OK, want, "")
    assert run(["group", "iso", f"@{path}", descriptor]) == (EXIT_OK, "isomorphic\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--kind", "H", "--p", "3", "--n", "1", "--d", "2"],
        ["basics", "--descriptor", A11],
        ["minquot", "--table", "a11.table"],
        ["iso", "--lhs", H11, "--rhs", A11],
    ]
    + [
        pytest.param([command, "--p", "3", *operands], id=f"{command} --p")
        for command, operands in [
            ("make", [H11]),
            ("basics", [H11]),
            ("classify", [H11]),
            ("minquot", [H11]),
            ("iso", [H11, A11]),
        ]
    ],
    ids=lambda argv: argv[1],
)
def test_group_flags_refused(argv):
    """A group is named only by operands, and a table's prime is read off
    its order: --kind, --descriptor, --table, --lhs and --p are usage
    errors."""
    code, out, err = run(["group"] + argv)
    assert code == EXIT_USAGE and not out and "usage:" in err


TOWER_CERT = Path(__file__).resolve().parent.parent / "certs" / "p3-tower-p3-b1-a4.cert"
PARSER_CALLS = [
    ["p3", "--p", "3"],
    ["--help"],
    ["--precision", "512", "p3", "--p", "3", "--b", "1", "--a", "4"],
    ["verify", str(TOWER_CERT)],
    ["breaks", "tolower", "upper m=1 p=3 : 1, 4"],
    ["p3", "--p", "3", "--b", "1", "--a", "4"],
    ["group", "classify", "kind=H p=3 n=1 d=2"],
    ["breaks", "compose"],
]


TOLOWER = ["breaks", "tolower", "upper m=1 p=3 : 1, 4"]


@pytest.mark.parametrize("argv", [["verify", str(TOWER_CERT)], TOLOWER], ids=["verify", "tolower"])
def test_setting_read_only_by_its_command(argv):
    """The precision is read only by p3: a value that it refuses changes
    no other command's exit code or output."""
    want = run(argv)
    assert run(["--precision", "10"] + argv) == want and want[0] == EXIT_OK


# an option no parser defines, with a value that argparse would otherwise
# read as the command or as an operand
LEFTOVER = {
    "--limit before group": ["--limit", "243", "group", "classify", H11],
    "--limit before verify": ["--limit", "243", "verify", str(TOWER_CERT)],
    "--limit before breaks": ["--limit", "243", *TOLOWER],
    "--limit=243 before group": ["--limit=243", "group", "classify", H11],
    "--limit after --precision": ["--precision", "64", "--limit", "243", "group", "classify", H11],
    "--p after group make": ["group", "make", "--p", "5", H11],
}


@pytest.mark.parametrize("case", sorted(LEFTOVER))
def test_leftover_option_named(case):
    """A usage error names the undefined option itself, not its value."""
    code, out, err = run(LEFTOVER[case])
    option = case.split()[0].split("=")[0]
    assert (code, out) == (EXIT_USAGE, "") and "usage:" in err
    assert err.splitlines()[-1].endswith(f"error: unrecognized option: {option}"), err


@pytest.mark.parametrize(
    "argv, why",
    [
        # a value after a defined option is its value, even when it starts with "-"
        (["breaks", "fact1", "--multiset", "upper m=1 p=3 : 1, 4", "--u", "-1/2", "--v", "1"], "expected one argument"),
        (["p3", "--p", "3", "--b", "1", "--a", "4", "--beta-unit", "-1:1"], "expected one argument"),
        (["breaks", "tolower", "-1/2"], "required: multiset"),
    ],
    ids=["break", "series", "operand"],
)
def test_dash_value_not_read_as_an_option(argv, why):
    """A value that starts with "-" is left to argparse's own errors."""
    code, out, err = run(argv)
    assert (code, out) == (EXIT_USAGE, "") and why in err and "unrecognized" not in err, err


def test_abbreviated_option_is_defined():
    """argparse reads --prec as --precision, so it is not refused."""
    argv = ["p3", "--p", "3", "--b", "1", "--a", "4"]
    want = run(["--precision", "64"] + argv)
    assert run(["--prec", "64"] + argv) == want and want[0] == EXIT_OK


def test_help_wins_over_a_leftover_option():
    code, out, _ = run(["group", "make", "--p", "5", "--help"])
    assert code == EXIT_OK and out.startswith("usage: ramforge group make")


def test_parser_reused_across_calls():
    """One parser serves every call in a process: interleaved usage
    errors, help, builds with and without a precision flag, verifies and
    queries give the exit code and stdout that a freshly built parser
    gives."""
    fresh = []
    for argv in PARSER_CALLS:
        _build_parser.cache_clear()
        fresh.append(run(argv)[:2])
    assert [code for code, _ in fresh] == [EXIT_USAGE, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_USAGE]
    assert "param precision = 512" in fresh[2][1] and "param precision = 400" in fresh[5][1]
    _build_parser.cache_clear()
    parser = _build_parser()
    for _ in range(2):
        for argv, want in zip(PARSER_CALLS, fresh):
            assert run(argv)[:2] == want, argv
    assert _build_parser() is parser


class TestExitCodes:
    def test_mapping(self):
        assert _exit_code_for(VerificationMismatchError("step 1")) == EXIT_MISMATCH
        assert _exit_code_for(InternalCheckError("x")) == EXIT_MISMATCH
        assert _exit_code_for(InsufficientPrecisionError("x")) == EXIT_PRECISION
        assert _exit_code_for(MaterializationLimitError("x")) == EXIT_LIMIT
        assert _exit_code_for(UnrealizableMultisetError("x")) == EXIT_UNREALIZABLE
        assert _exit_code_for(ValueError("x")) == EXIT_USAGE
        assert _exit_code_for(FileNotFoundError("x")) == EXIT_USAGE
        with pytest.raises(KeyError):
            _exit_code_for(KeyError("unmapped"))

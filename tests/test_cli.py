import contextlib
import io
import re
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from ramforge.pgroups import DEFAULT_LIMIT, CyclicPGroup, DirectProductGroup, make_group, tables
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

    def test_limit_floor(self):
        code, out, err = run(["--limit", "26", "group", "make", "kind=C p=3 k=2"])
        assert code == EXIT_USAGE
        assert not out and ">= 27" in err

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
        code, _, err = run(["--limit", "27", "group", "basics", "kind=H p=3 n=2 d=1"])
        assert code == EXIT_LIMIT and "limit" in err

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
        for i, (b, a) in enumerate([(1, 4), (2, 11)]):
            (tmp_path / f"c{i}.cert").write_text(
                build_p3_tower(P3Parameters.derive(3, b, a)).render()
            )
        code, out, _ = run(["verify", "--seed-corpus", str(tmp_path)])
        assert code == EXIT_OK
        assert out.count("verified") == 2

    @pytest.mark.parametrize("corpus", ["missing", "empty"])
    def test_seed_corpus_without_certificates_refused(self, tmp_path, corpus):
        # refused by name, alone or next to a certificate file, before
        # anything is verified
        (tmp_path / "empty").mkdir()
        cert = tmp_path / "ok.cert"
        cert.write_text(build_p3_tower(P3Parameters.derive(3, 1, 4)).render())
        folder = str(tmp_path / corpus)
        for argv in (["verify", "--seed-corpus", folder], ["verify", str(cert), "--seed-corpus", folder]):
            code, out, err = run(argv)
            assert (code, out) == (EXIT_USAGE, "") and folder in err

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
        code, _, _ = run(["verify"])
        assert code == EXIT_USAGE


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
    "over-limit table": (["--limit", "27", "group", "basics", "@{f}"], "0\n" * 28, EXIT_LIMIT),
    "huge descriptor": (["group", "make", HUGE], None, EXIT_LIMIT),
    "huge chat certificate": (["verify", "{f}"], CHAT_CERT.read_text().replace(H11, HUGE, 1), EXIT_LIMIT),
    "vast descriptor": (["group", "make", VAST], None, EXIT_LIMIT),
    "vast chat certificate": (["verify", "{f}"], CHAT_CERT.read_text().replace(H11, VAST, 1), EXIT_LIMIT),
    # its group legs are decided on exponents, so 3^20000003 is never computed
    "vast nonint certificate": (
        ["verify", "{f}"],
        NONINT_CERT.read_text().replace("param n = 2\n", "param n = 10000000\n", 1),
        EXIT_MISMATCH,
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


# a row of 560,000 tokens: converting 27 or 28 of them takes seconds
TABLE_CAPS = {
    "28 long rows over --limit 27": (["--limit", "27"], 28, EXIT_LIMIT),
    "27 rows of the wrong length": ([], 27, EXIT_USAGE),
}


@pytest.mark.parametrize("case", sorted(TABLE_CAPS))
def test_table_refused_before_its_tokens(tmp_path, case):
    """An explicit table's order and row lengths are refused before its
    tokens are converted."""
    head, rows, want = TABLE_CAPS[case]
    path = tmp_path / "input"
    path.write_text((" ".join(["1"] * 560_000) + "\n") * rows)
    with within(1, case):
        code, out, err = run(head + ["group", "basics", f"@{path}"])
    assert code == want
    assert not out and err.startswith("error: ") and err.count("\n") == 1


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


H2 = "kind=H p=3 n=2 d=1"
# group commands on groups of order 243, which table quotients of order 81
ORDER_243 = {
    "basics": ["group", "basics", H2],
    "classify H(2,1)": ["group", "classify", "kind=H p=3 n=2 d=1"],
    "classify A(2,1)": ["group", "classify", "kind=A p=3 n=2 d=1"],
    "minquot": ["group", "minquot", "kind=H p=3 n=1 d=1 x kind=C p=3 k=2"],
    "iso": ["group", "iso", H2, "kind=A p=3 n=2 d=1"],
    "iso of a table": ["group", "iso", "@{f}", H2],
    "classify a table": ["group", "classify", "@{f}"],
}


@pytest.mark.parametrize("case", sorted(ORDER_243))
def test_limit_above_default_reaches_every_command(monkeypatch, tmp_path, case):
    """``--limit`` sizes the group named on the command line once: with
    every check against DEFAULT_LIMIT lowered to 27, ``--limit 243`` still
    runs each analysis command on a group of order 243, whose quotients
    and subgroups are never sized again."""
    path = tmp_path / "h21.table"
    rows = tables(make_group("H", 3, 2, 1)).mul
    path.write_text("\n".join(" ".join(map(str, row)) for row in rows) + "\n")
    argv = [a.replace("{f}", str(path)) for a in ORDER_243[case]]
    want = run(["--limit", "243"] + argv)
    real = base._within_limit
    monkeypatch.setattr(
        base, "_within_limit", lambda p, e, limit: real(p, e, 27 if limit == DEFAULT_LIMIT else limit)
    )
    assert run(["--limit", "243"] + argv) == want and want[0] == EXIT_OK
    assert run(["--limit", "80", "group", "minquot", f"{H11} x kind=C p=3 k=1"])[0] == EXIT_LIMIT
    if "table" not in case:  # the lowered default bites without --limit
        assert run(argv)[0] == EXIT_LIMIT


UNTABLED = {
    "make above the default limit": (
        ["--limit", "20000", "group", "make", "kind=H p=3 n=4 d=1"],
        "order: 19683",
    ),
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
# table of A(1,1), {c} one of C17), with its expected output
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
    # 17 is not inferred: the table is read only under --p
    "make a table of order 17": (["make", "@{c}", "--p", "17"], "group: @{c}\norder: 17\n"),
    "iso of a table of order 17": (["iso", "@{c}", "kind=C p=17 k=1", "--p", "17"], "isomorphic\n"),
}


@pytest.mark.parametrize("case", sorted(OPERANDS))
def test_group_operands(tmp_path, case):
    """Each group subcommand names its groups by GROUP operands."""
    a, c = tmp_path / "a11.table", tmp_path / "c17.table"
    a.write_text("".join(" ".join(map(str, row)) + "\n" for row in tables(make_group("A", 3, 1, 1)).mul))
    c.write_text("".join(" ".join(str((i + j) % 17) for j in range(17)) + "\n" for i in range(17)))

    def fill(text):
        return text.replace("{a}", str(a)).replace("{c}", str(c))

    argv, want = OPERANDS[case]
    assert run(["group"] + [fill(arg) for arg in argv]) == (EXIT_OK, fill(want), "")


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


# a --p that disagrees with a descriptor operand's prime is refused; one
# that agrees is accepted
P_CONFLICTS = {
    "make": ["make", "--p", "5", H11],
    "basics": ["basics", "--p", "5", A11],
    "iso, second operand": ["iso", "--p", "3", H11, "kind=C p=5 k=1"],
    "iso of a table and a descriptor": ["iso", "--p", "17", "@{c}", "kind=C p=3 k=1"],
}


@pytest.mark.parametrize("case", sorted(P_CONFLICTS))
def test_p_conflict_refused(tmp_path, case):
    path = tmp_path / "c17.table"
    path.write_text("".join(" ".join(str((i + j) % 17) for j in range(17)) + "\n" for i in range(17)))
    code, out, err = run(["group"] + [arg.replace("{c}", str(path)) for arg in P_CONFLICTS[case]])
    assert code == EXIT_USAGE and not out and "disagrees with the prime" in err


def test_agreeing_p_accepted():
    assert run(["group", "make", "--p", "3", H11]) == run(["group", "make", H11]) == (
        EXIT_OK, f"group: {H11}\norder: 27\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--kind", "H", "--p", "3", "--n", "1", "--d", "2"],
        ["basics", "--descriptor", A11],
        ["minquot", "--table", "a11.table"],
        ["iso", "--lhs", H11, "--rhs", A11],
    ],
    ids=lambda argv: argv[1],
)
def test_group_flags_refused(argv):
    """A group is named only by operands: --kind, --descriptor, --table and
    --lhs are usage errors."""
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


@pytest.mark.parametrize(
    "flags, precision, argv",
    [
        (["--limit", "5"], None, ["verify", str(TOWER_CERT)]),
        ([], "10", ["verify", str(TOWER_CERT)]),
        ([], "10", TOLOWER),
        (["--limit", "5"], None, TOLOWER),
    ],
)
def test_setting_read_only_by_its_command(flags, precision, argv):
    """The precision is read only by p3 and the limit only by group: a
    value that they refuse changes no other command's exit code or output."""
    want = run(argv)
    if precision is not None:
        flags = ["--precision", precision] + flags
    assert run(flags + argv) == want and want[0] == EXIT_OK


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

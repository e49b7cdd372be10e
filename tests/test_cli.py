import contextlib
import io
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
from ramforge.pgroups import CyclicPGroup, DirectProductGroup, make_group, tables

from conftest import within


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

    def test_precision_env(self, monkeypatch):
        monkeypatch.setenv("RAMFORGE_PRECISION", "512")
        code, out, _ = run(["p3", "--p", "3", "--b", "1", "--a", "4"])
        assert code == EXIT_OK
        assert "param precision = 512" in out

    def test_precision_floor(self):
        code, _, err = run(["--precision", "32", "p3", "--p", "3", "--b", "1", "--a", "4"])
        assert code == EXIT_USAGE and ">= 64" in err


class TestGroupCommand:
    def test_classify(self):
        code, out, _ = run(["group", "classify", "--kind", "H", "--p", "3", "--n", "1", "--d", "2"])
        assert code == EXIT_OK
        assert out.strip() == "H n=1 d=2"

    def test_make(self):
        code, out, _ = run(["group", "make", "--kind", "H", "--p", "3", "--n", "0", "--d", "2"])
        assert code == EXIT_OK
        assert "order: 9" in out

    def test_basics_structured(self):
        code, out, _ = run(
            ["--output", "structured-text", "group", "basics", "--kind", "A", "--p", "3", "--n", "1", "--d", "1"]
        )
        assert code == EXIT_OK
        assert "order=27" in out and "exponent=9" in out

    def test_minquot_from_table(self, tmp_path):
        G = DirectProductGroup(make_group("H", 3, 1, 1), CyclicPGroup(3, 1))
        t = tables(G)
        path = tmp_path / "hxc3.table"
        path.write_text("\n".join(" ".join(map(str, row)) for row in t.mul) + "\n")
        code, out, _ = run(["group", "minquot", "--table", str(path)])
        assert code == EXIT_OK
        assert "kind=H p=3 n=1 d=1" in out

    def test_iso_table_vs_descriptor(self, tmp_path):
        from ramforge.pgroups import central_product

        cp = central_product(make_group("H", 3, 1, 1), make_group("H", 3, 1, 1))
        t = tables(cp)
        path = tmp_path / "cp.table"
        path.write_text("\n".join(" ".join(map(str, row)) for row in t.mul) + "\n")
        code, out, _ = run(["group", "iso", "--lhs", f"@{path}", "--rhs", "kind=H p=3 n=2 d=1"])
        assert code == EXIT_OK
        assert out.strip() == "isomorphic"

    def test_iso_negative(self):
        code, out, _ = run(
            ["group", "iso", "--lhs", "kind=H p=3 n=1 d=1", "--rhs", "kind=A p=3 n=1 d=1"]
        )
        assert code == EXIT_OK
        assert out.strip() == "not isomorphic"

    def test_limit_exceeded(self):
        code, _, err = run(["--limit", "27", "group", "basics", "--descriptor", "kind=H p=3 n=2 d=1"])
        assert code == EXIT_LIMIT and "limit" in err

    def test_bad_args(self):
        code, _, err = run(["group", "classify", "--kind", "H"])
        assert code == EXIT_USAGE

    def test_missing_table(self, tmp_path):
        code, out, err = run(["group", "basics", "--table", f"@{tmp_path / 'absent.table'}"])
        assert code == EXIT_USAGE
        assert not out and "absent.table" in err

    @pytest.mark.parametrize(
        "p, n, message", [("4", "1", "p must be prime, got 4"), ("3", "-1", "H(n, d) needs n >= 0")]
    )
    def test_descriptor_error_names_violation(self, p, n, message):
        code, out, err = run(["group", "make", "--kind", "H", "--p", p, "--n", n, "--d", "1"])
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
    "empty file": (["group", "basics", "--table", "{f}"], "", EXIT_USAGE),
    "blank file": (["group", "basics", "--table", "{f}"], " \n\n\t \n", EXIT_USAGE),
    "empty file as iso operand": (["group", "iso", "--lhs", "@{f}", "--rhs", H11], "", EXIT_USAGE),
    "empty table path": (["group", "basics", "--table", ""], None, EXIT_USAGE),
    "non-square table": (["group", "basics", "--table", "{f}"], "0 1 2\n1 2 0\n", EXIT_USAGE),
    "non-integer token": (["group", "basics", "--table", "{f}"], "0 1 2\n1 2 0\n2 0 x\n", EXIT_USAGE),
    "over-limit table": (["--limit", "27", "group", "basics", "--table", "{f}"], "0\n" * 28, EXIT_LIMIT),
    "huge descriptor": (["group", "make", "--descriptor", HUGE], None, EXIT_LIMIT),
    "huge chat certificate": (["verify", "{f}"], CHAT_CERT.read_text().replace(H11, HUGE, 1), EXIT_LIMIT),
    "vast descriptor": (["group", "make", "--descriptor", VAST], None, EXIT_LIMIT),
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


def test_large_prime_within_1s():
    with within(1, "17-digit p"):
        code, out, _ = run(["breaks", "tolower", f"upper m=1 p={BIG_P} : 1"])
    assert code == EXIT_OK and out.strip() == f"lower m=1 p={BIG_P} : 1"
    # a prime beyond the range where Miller-Rabin with bases 2..41 decides
    with within(1, "26-digit p"):
        code, out, err = run(["breaks", "tolower", f"upper m=1 p={10**25 + 13} : 1"])
    assert code == EXIT_USAGE and not out and "too large" in err


def test_large_p_tower_verifies_within_1s(tmp_path):
    """The tower certificate at p = 1000003, (b, a) = (1, 4): its witness
    degree i' is 5, so checking it costs what p = 3 costs."""
    path = tmp_path / "tower.cert"
    path.write_text(build_p3_tower(P3Parameters.derive(1000003, 1, 4)).render())
    with within(1, "p = 1000003 tower"):
        code, out, _ = run(["verify", str(path)])
    assert code == EXIT_OK and out.endswith(": verified\n")


CORPUS = sorted((Path(__file__).resolve().parent.parent / "certs").glob("*.cert"))


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


TOWER_CERT = Path(__file__).resolve().parent.parent / "certs" / "p3-tower-p3-b1-a4.cert"
# (argv, RAMFORGE_PRECISION or None)
PARSER_CALLS = [
    (["p3", "--p", "3"], None),
    (["--help"], None),
    (["p3", "--p", "3", "--b", "1", "--a", "4"], "512"),
    (["verify", str(TOWER_CERT)], None),
    (["breaks", "tolower", "upper m=1 p=3 : 1, 4"], None),
    (["p3", "--p", "3", "--b", "1", "--a", "4"], None),
    (["group", "classify", "--kind", "H", "--p", "3", "--n", "1", "--d", "2"], None),
    (["breaks", "compose"], None),
]


def test_parser_reused_across_calls(monkeypatch):
    """One parser serves every call in a process: interleaved usage
    errors, help, builds, verifies, queries and an environment change
    give the exit code and stdout that a freshly built parser gives."""

    def call(argv, precision):
        if precision is None:
            monkeypatch.delenv("RAMFORGE_PRECISION", raising=False)
        else:
            monkeypatch.setenv("RAMFORGE_PRECISION", precision)
        return run(argv)[:2]

    fresh = []
    for argv, precision in PARSER_CALLS:
        _build_parser.cache_clear()
        fresh.append(call(argv, precision))
    assert [code for code, _ in fresh] == [EXIT_USAGE, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_USAGE]
    assert "param precision = 512" in fresh[2][1] and "param precision = 400" in fresh[5][1]
    _build_parser.cache_clear()
    parser = _build_parser()
    for _ in range(2):
        for (argv, precision), want in zip(PARSER_CALLS, fresh):
            assert call(argv, precision) == want, argv
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

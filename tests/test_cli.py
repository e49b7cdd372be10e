import contextlib
import io
import time

import pytest

from ramforge.cli import (
    EXIT_LIMIT,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PRECISION,
    EXIT_UNREALIZABLE,
    EXIT_USAGE,
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

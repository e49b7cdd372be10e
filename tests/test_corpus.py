"""The golden certificate corpus in ``certs/``.

`verify_certificate` rebuilds a certificate from its param block and
compares every line, so a file that verifies is one the current code
renders byte-identically.  The corpus must keep covering every
certificate kind and both assumed outcomes of the group legs.
"""

from pathlib import Path

import pytest

from ramforge import cli
from ramforge.forge import KINDS, parse_certificate, verify_certificate

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "certs").glob("*.cert"))


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_golden_certificate_verifies(path):
    verify_certificate(path.read_text())


def test_cli_verifies_seed_corpus(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    names = [f"certs/{path.name}" for path in FILES]  # as `ramforge verify certs/*.cert` names them
    assert cli.main(["verify", *names]) == 0
    assert capsys.readouterr().out == "".join(f"{name}: verified\n" for name in names)


def test_corpus_covers_kinds_and_assumed_outcomes():
    texts = [path.read_text() for path in FILES]
    assert {parse_certificate(text).kind for text in texts} == set(KINDS)
    for outcome in ("assumed-false", "assumed-true"):
        assert any(f"out isomorphic = {outcome}\n" in text for text in texts), outcome

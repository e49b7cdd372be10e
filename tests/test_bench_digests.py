"""One untimed pass of each benchmark workload at its committed seed.

No operation may fail, and every certificate digest must equal the one in
``perfbench/expected.json``, so a byte change in any benchmark certificate
fails here and not only in a benchmark run.  The workloads module is loaded
from its file without writing bytecode next to it, and the program is the
``ramforge`` already imported, unlike ``perfbench/run.py``, which reimports
it for each set-up.
"""

import importlib
import importlib.util
import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
EXPECTED = json.loads((BENCH / "expected.json").read_text())
MODULES = ("errors", "laurent", "astower", "ramcalc", "pgroups", "forge", "cli")


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the module runs
    sys.modules[spec.name] = module
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_workload_digests_match_committed(workloads, name, tmp_path):
    rf = types.SimpleNamespace(**{m: importlib.import_module(f"ramforge.{m}") for m in MODULES})
    make_inputs, run_pass = workloads.WORKLOADS[name]
    seed, certs = EXPECTED[name]["seed"], EXPECTED[name]["certs"]
    tally = workloads.Tally()
    digests = run_pass(rf, make_inputs(rf, seed, tmp_path), tally, seed, certs)
    assert tally.failed == 0, dict(tally.failures)
    assert digests == certs

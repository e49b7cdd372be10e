#!/usr/bin/env python3
"""ramforge benchmark: certificate build, verify and reject throughput on
three workloads, with an optional traced run for per-layer numbers.

    python3 perfbench/run.py                      # all workloads, default seed
    python3 perfbench/run.py --workload tower-dense --seed 7 --seconds 30
    python3 perfbench/run.py --workload group-certs --trace 1

Each workload runs in a single process with one caller and no threads (a
closed loop).  A run repeats whole passes of the workload's fixed operation
mix while another pass still fits in ``--seconds`` (at least one pass).
The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics, or with ``--trace 1``
the per-layer metrics of one traced pass.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter

from tracer import Tracer
from workloads import REF_UNIT_S, WORKLOADS, Tally, calibration_unit, sha256

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 1
# setup_s is a median over at least SETUP_REPEATS set-ups that take at
# least SETUP_SECONDS together: one set-up takes ~0.07 s on tower-dense and
# cli-corpus, ~1 s on group-certs
SETUP_REPEATS = 5
SETUP_SECONDS = 3.0
# calibration units run right before each set-up (see workloads.REF_UNIT_S)
SETUP_CAL_UNITS = 3
MODULES = ("errors", "laurent", "astower", "ramcalc", "pgroups", "forge", "cli")

# every workload reports each of these (see BENCHMARK.json); a rate is
# successful operations of its kind per second of their summed time
RATES = {
    "build_certs_per_s": "build",
    "verify_certs_per_s": "verify",
    "reject_certs_per_s": "reject",
    "query_ops_per_s": "query",
}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "commit": _git_commit(),
    }


def _git_commit() -> str:
    """The checked-out commit, or "unknown" outside a git checkout (git is
    not run there, so nothing above the checkout is read)."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _import_ramforge() -> types.SimpleNamespace:
    for name in [m for m in sys.modules if m == "ramforge" or m.startswith("ramforge.")]:
        del sys.modules[name]
    importlib.import_module("ramforge")
    return types.SimpleNamespace(**{m: importlib.import_module(f"ramforge.{m}") for m in MODULES})


def setup(make_inputs, seed: int, work: Path):
    """Import the program and make the inputs: (rf, inputs, (seconds,
    speed)), speed as in workloads.Tally, from units run right before."""
    speed = sum(calibration_unit() for _ in range(SETUP_CAL_UNITS)) / SETUP_CAL_UNITS / REF_UNIT_S
    t0 = perf_counter()
    rf = _import_ramforge()
    inputs = make_inputs(rf, seed, work)
    return rf, inputs, (perf_counter() - t0, speed)


def setup_times(make_inputs, seed: int, work: Path, first: tuple) -> list[tuple]:
    """The first set-up's (seconds, speed) and those of repeats, at least
    SETUP_REPEATS in all and for at least SETUP_SECONDS.  They run after
    the timed passes and after peak RSS is read, so that the passes and the
    peak see a process that was set up once, as a user's is."""
    times = [first]
    while len(times) < SETUP_REPEATS or sum(t for t, _ in times) < SETUP_SECONDS:
        # the previous set-up's modules and inputs are garbage now; collect
        # them untimed, so no repeat pays for another's
        gc.collect()
        times.append(setup(make_inputs, seed, work)[2])
    return times


def run_passes(run_pass, rf, inputs, tally, seed, reference, seconds: float):
    """Whole passes while another one fits in ``seconds``; the first
    pass's digests become the reference when none is committed."""
    passes = 0
    t0 = perf_counter()
    while True:
        digests = run_pass(rf, inputs, tally, seed, reference)
        reference = reference or digests
        passes += 1
        elapsed = perf_counter() - t0
        if elapsed + elapsed / passes > seconds:
            return passes, elapsed, digests


def end_to_end(tally, setups: list[tuple], peak_rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics, with their timings scaled to the reference
    speed; and the same timings as measured."""
    out, measured = {}, {}
    for name, kind in RATES.items():
        seconds = tally.seconds[kind]
        measured[name] = tally.ok[kind] / seconds if seconds else 0.0
        out[name] = (tally.ok[kind] / tally.scaled_s[kind] if seconds else 0.0, "1/s")
    measured["setup_s"] = statistics.median(t for t, _ in setups)
    out["setup_s"] = (statistics.median(t / speed for t, speed in setups), "s")
    out["peak_rss_mb"] = (peak_rss_mb, "MB")
    return out, measured


# per-layer span names and the statistics reported for each
CALLS_AND_S = ("laurent.mul", "astower.reduce_K", "astower.reduce_F", "ramcalc", "pgroups.tables",
               "pgroups.order", "pgroups.is_isomorphic", "pgroups.table_group", "forge.build")
S_ONLY = ("laurent.frobenius", "laurent.addsub", "pgroups.central_product",
          "pgroups.minimal_nonabelian_quotient", "pgroups.burnside_action_check",
          "pgroups.group_basics", "pgroups.classify_minimal", "forge.render", "forge.parse")
SELF_S = ("astower.reduce_F", "pgroups.is_isomorphic", "forge.build", "forge.verify", "cli.main")
ERRORS = ("pgroups.tables", "forge.verify", "cli.main")


def per_layer(tracer, overhead: float) -> dict:
    """Per-layer metrics of the traced pass, with units."""
    tot = tracer.totals()
    cnt = tracer.counts

    def get(name, key):
        return tot[name][key] if name in tot else 0.0

    out = {}
    for name in CALLS_AND_S:
        out[f"{name}.calls"] = (get(name, "calls"), "count")
        out[f"{name}.s"] = (get(name, "s"), "s")
    for name in S_ONLY:
        out[f"{name}.s"] = (get(name, "s"), "s")
    for name in SELF_S:
        out[f"{name}.self_s"] = (get(name, "self_s"), "s")
    out["cli.main.calls"] = (get("cli.main", "calls"), "count")
    for name in ERRORS:
        out[f"{name}.errors"] = (cnt[f"{name}.errors"], "count")
    coeffs = cnt["laurent.mul.coeffs_in"]
    out["laurent.mul.coeffs_in"] = (coeffs, "count")
    out["laurent.mul.density"] = (cnt["laurent.mul.nonzero_in"] / coeffs if coeffs else 0.0, "ratio")
    out["astower.reduce_F.witness_terms"] = (cnt["astower.reduce_F.witness_terms"], "count")
    returned = get("pgroups.tables", "calls") - cnt["pgroups.tables.errors"]
    out["pgroups.tables.hit_ratio"] = (cnt["pgroups.tables.hits"] / returned if returned else 0.0, "ratio")
    out["pgroups.tables.elements"] = (cnt["pgroups.tables.elements"], "count")
    out["forge.cert_bytes"] = (cnt["forge.cert_bytes"], "bytes")
    build_s = get("forge.build", "s")
    for layer in ("laurent", "pgroups"):
        inside = tracer.covered_s(layer + ".", within="forge.build")
        out[f"forge.build.{layer}_share"] = (inside / build_s if build_s else 0.0, "ratio")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


def _committed(workload: str, seed: int) -> dict | None:
    """The committed digests ({"corpus", "certs"}) of this workload at the
    default seed, else None."""
    if seed != DEFAULT_SEED or not EXPECTED.exists():
        return None
    return json.loads(EXPECTED.read_text()).get(workload)


def run_workload(args) -> int:
    os.environ.pop("RAMFORGE_PRECISION", None)
    env = environment()
    make_inputs, run_pass = WORKLOADS[args.workload]
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        rf, inputs, first_setup = setup(make_inputs, args.seed, work)
        setups, measured = [first_setup], {}
        committed = _committed(args.workload, args.seed)
        tally = Tally(Tracer() if args.trace else None)
        # a traced run is one pass: its spans are kept for every call
        seconds = 0 if args.trace else args.seconds
        reference = committed["certs"] if committed else None
        passes, wall, digests = run_passes(run_pass, rf, inputs, tally, args.seed, reference, seconds)
        tally.calibrate(force=True)
        if args.trace:
            overhead = sum(tally.seconds.values()) / tally.untraced_s
            metrics = per_layer(tally.tracer, overhead)
            tally.tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        else:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            rf = inputs = None
            setups = setup_times(make_inputs, args.seed, work, first_setup)
            metrics, measured = end_to_end(tally, setups, peak_rss_mb)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    corpus = sha256("\n".join(d or "-" for d in digests))
    report(args, env, tally, passes, wall, metrics, measured, len(setups), corpus, committed)
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "corpus_digest": corpus, "certs": digests, "measured": measured,
                    "known_defects": tally.known_defects, **result}, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


def report(args, env, tally, passes, wall, metrics, measured, setups, corpus, committed) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {passes}  wall {wall:.3f} s")
    print("env " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        n = len(tally.latency_ms[RATES[name]]) if name in RATES else setups if name == "setup_s" else None
        note = f"  (n={n}; as measured {measured[name]:.6g} {unit})" if name in measured else ""
        print(f"metric {name} = {value:.6g} {unit}{note}")
    samples = tally.latency_ms["verify"]
    if args.workload == "cli-corpus" and len(samples) >= 100:
        deciles = statistics.quantiles(samples, n=10)
        print(f"metric verify_ms_p50 = {statistics.median(samples):.6g} ms  (n={len(samples)})")
        print(f"metric verify_ms_p90 = {deciles[8]:.6g} ms  (n={len(samples)})")
    ratio = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"metric failed_ops_ratio = {ratio:.6g}  ({tally.failed} failed / {tally.attempted} attempted)")
    for why, n in sorted(tally.failures.items()):
        print(f"failure {why}  x{n}")
    for what, n in sorted(tally.known_defects.items()):
        print(f"known_defect {what}  x{n}  (untimed probe, not an operation)")
    match = "not compared" if committed is None else "matches committed" if corpus == committed["corpus"] else "MISMATCH"
    print(f"corpus_digest {args.workload} seed {args.seed} = {corpus} ({match})")


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for name in ("tower-dense", "group-certs", "cli-corpus"):
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=["all", "tower-dense", "group-certs", "cli-corpus"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    # the run length; the default is run_seconds in BENCHMARK.json
    ap.add_argument("--seconds", type=float, default=32)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ramforge" / "__init__.py").is_file():
        print(f"error: no ramforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())

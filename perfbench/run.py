#!/usr/bin/env python3
"""Benchmark for blackwell-audit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
``src/`` and from nowhere else.  Workloads are described in
``perfbench/workloads.py`` and, with what each metric should move, in
``perfbench/metrics.json``.

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
time over several fresh interpreters, then a timed phase of about
``--seconds``.  ``--trace 1`` replays one fixed pass of the workload
untraced, traced and untraced again in the same process, and reports the
per-layer metrics of the traced pass plus the tracing overhead.

Both modes check every output.  They also check determinism: the
warm-up's digest must agree across fresh interpreters and with the
timed run's repeat of it, the traced pass's digests must equal the
untraced passes', and every digest and per-operation call count must
equal what earlier runs with the same seed recorded for the same
package and benchmark source (in ``.perfbench_out/``).  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads; fresh interpreters inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7
SETUP_PROBES = 10  # speed-probe samples after each set-up interpreter
CHILD_TIMEOUT_S = 120

RECIPES = (
    "claim1-hyperplane", "claim2-separation", "claim3-mixture", "lemma3-threshold",
    "lemma3-ternary", "contagion1-separation", "degenerate-prior", "vertexprop-separation",
    "random-search",
)
CHECKERS = (
    "distortions.is_occasionally_coarse", "distortions.is_occasionally_stubborn",
    "distortions.is_trivial_on_interior", "distortions.is_affine",
)
EXTRACTORS = {
    "geometry.simplex_lattice": lambda args, kwargs, out: out.shape[0],
    "distortions.classify_batch": lambda args, kwargs, out: len(args[2] if len(args) > 2 else kwargs["X"]),
    "auditor.verify_certificate": lambda args, kwargs, out: 1.0 if out[0] else 0.0,
}


def import_package():
    """Import blackwell_audit from this checkout's src/; exit if it is not there."""
    if not (SRC / "blackwell_audit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no blackwell_audit source under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import blackwell_audit

    if Path(blackwell_audit.__file__).resolve().parent != (SRC / "blackwell_audit").resolve():
        sys.exit(f"perfbench: imported blackwell_audit from {blackwell_audit.__file__}, not {SRC}")


def load_spec() -> dict:
    """BENCHMARK.json, checked against the metric notes in metrics.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    notes = json.loads((HERE / "metrics.json").read_text())
    if {m["name"] for m in spec["per_layer"]} != set(notes["per_layer"]) or {
        m["name"] for m in spec["end_to_end"]
    } != set(notes["end_to_end"]):
        sys.exit("perfbench: BENCHMARK.json and perfbench/metrics.json name different metrics")
    return spec


def source_hash() -> str:
    """Hash of the package source and of the benchmark, which defines the inputs."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Set-up time: fresh interpreters
# ---------------------------------------------------------------------------


def setup_child(workload: str, seed: int, workdir: str) -> None:
    """Child side: import, make inputs, warm up, print when ready and the digest."""
    import_package()
    from workloads import WORKLOADS

    w = WORKLOADS[workload](seed, Path(workdir))
    print(json.dumps({"ready": time.monotonic(), "digest": w.warmup()}))


def measure_setup(workload: str, seed: int, workdir: Path, probe):
    """Seconds from spawn to warmed-up, and the warm-up digest, per fresh interpreter.

    Both sides read CLOCK_MONOTONIC (time.monotonic), which is system-wide.
    ``probe`` samples the machine speed after each interpreter.
    """
    samples, digests = [], []
    for k in range(SETUP_SAMPLES):
        sub = workdir / f"setup-{k}"
        sub.mkdir()
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--setup-probe", str(sub)]
        t0 = time.monotonic()
        done = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if done.returncode != 0:
            sys.exit(f"perfbench: set-up interpreter failed:\n{done.stderr}")
        line = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append(line["ready"] - t0)
        digests.append(line["digest"])
        probe.sample(SETUP_PROBES)
    return samples, digests


# ---------------------------------------------------------------------------
# Determinism record, shared by runs with the same workload, seed and source
# ---------------------------------------------------------------------------


def check_record(workload: str, seed: int, digests: dict, counts: dict) -> list:
    """Compare with what earlier runs recorded, add what is new; return mismatches."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"record-{workload}-{seed}-{source_hash()}.json"
    doc = json.loads(path.read_text()) if path.exists() else {"digests": {}, "counts": {}}
    mismatches = []
    for kind, new in (("digests", digests), ("counts", counts)):
        for op, value in new.items():
            old = doc[kind].setdefault(str(op), value)
            if old != value:
                mismatches.append(f"op {op}: {kind} differ from an earlier run with this seed")
    fd, tmp = tempfile.mkstemp(dir=OUT, suffix=".tmp")
    with os.fdopen(fd, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
    os.replace(tmp, path)
    return mismatches


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(out, setup: list, setup_probe, probe) -> tuple:
    """(metrics, notes printed beside them, printed-only metrics).

    Every timing is rescaled to the speed probe's nominal machine speed:
    set-up time by ``setup_probe``, the timed phase by ``probe``.
    """
    n = len(out.audit_s)
    if not n or not out.audit_wall:
        sys.exit("perfbench: no audit completed: " + "; ".join(out.failures))
    speed = probe.speed
    rate = out.audits / out.audit_wall
    p50 = 1000.0 * statistics.median(out.audit_s)
    metrics = {
        "audits_per_s": rate / speed,
        "audit_p50_ms": p50 * speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup) * setup_probe.speed,
    }
    rescaled = f"rescaled by machine speed {speed:.4f} ({len(probe.samples)} probes)"
    notes = {
        "audits_per_s": f"{out.audits} audits in {out.audit_wall:.2f} s = {rate:.4g}/s as measured; {rescaled}",
        "audit_p50_ms": f"n={n} audit() calls, {p50:.4g} ms as measured; {rescaled}",
        "peak_rss_mb": "this process, set-up interpreters excluded",
        "setup_s": f"median of {len(setup)} fresh interpreters, as measured: "
        + ", ".join(f"{s:.3f}" for s in setup)
        + f"; rescaled by machine speed {setup_probe.speed:.4f} ({len(setup_probe.samples)} probes)",
    }
    extra = []
    p90 = statistics.quantiles(out.audit_s, n=10, method="inclusive")[-1] if n >= 2 else math.inf
    beyond = sum(1 for s in out.audit_s if s > p90)
    if beyond >= 10:
        extra.append(("audit_p90_ms", 1000.0 * p90 * speed, "ms", f"n={n}, {beyond} beyond; rescaled"))
    if out.verifies:
        extra.append(("verifies_per_s", out.verifies / out.verify_wall / speed, "1/s",
                      f"{out.verifies} cli verify calls in {out.verify_wall:.2f} s; rescaled"))
    extra.append(("failed_share", out.failed / max(out.attempted, 1), "ratio",
                  f"{out.failed} of {out.attempted} operations"))
    return metrics, notes, extra


def search_seconds(tr, audit_span: int) -> float:
    """An audit span's time outside its lattice, census and checker spans.

    Where the census is error-free no recipe runs, so this is the random
    search's time, and the audit's budget_used counts its trials.
    """
    excluded = ("geometry.simplex_lattice", "distortions.classify_batch") + CHECKERS
    return tr.duration(audit_span) - tr.time_in(excluded, within=audit_span)


def per_layer(tr, out, overhead: float) -> dict:
    rows = tr.summary()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "failed": 0, "value": 0.0}

    def row(name):
        return rows.get(name, empty)

    m = {}
    for name in ("geometry.in_convex_hull", "geometry.linprog", "experiments.bring_point_in",
                 "decision.expected_payoff", "experiments.blackwell_dominates",
                 "experiments.linprog", "auditor.verify_certificate"):
        m[f"{name}.calls"] = row(name)["calls"]
        m[f"{name}.s"] = row(name)["s"]
    m["experiments.bring_point_in.failed"] = row("experiments.bring_point_in")["failed"]
    seps = [row("geometry.separating_hyperplane"), row("geometry.separating_hyperplane_sets")]
    for key in ("calls", "s", "failed"):
        m[f"geometry.separating_hyperplane.{key}"] = sum(r[key] for r in seps)
    for recipe in RECIPES:
        m[f"auditor.certificates.{recipe}"] = sum(
            f.recipe == recipe for facts in out.facts.values() for f in facts
        )
    verify = row("auditor.verify_certificate")
    m["auditor.verify_certificate.ok_share"] = verify["value"] / verify["calls"] if verify["calls"] else 0.0
    lattice = row("geometry.simplex_lattice")
    m["geometry.simplex_lattice.s"] = lattice["s"]
    m["geometry.simplex_lattice.points"] = lattice["value"]
    census = row("distortions.classify_batch")
    m["distortions.classify_batch.s"] = census["s"]
    m["distortions.classify_batch.points_per_s"] = census["value"] / census["s"] if census["s"] else 0.0

    # Random search, measured from outside (see search_seconds).
    audits = {}
    for i in tr.spans(["auditor.audit"]):
        audits.setdefault(tr.audit[i], []).append(i)
    trials, search_s = 0, 0.0
    for op, facts in out.facts.items():
        spans = audits.get(op, [])
        if len(spans) != len(facts):
            continue
        for i, fact in zip(spans, facts):
            if fact.errors == 0:
                trials += fact.budget_used
                search_s += search_seconds(tr, i)
    m["auditor.random_search.trials"] = trials
    m["auditor.random_search.trials_per_s"] = trials / search_s if search_s > 0 else 0.0
    m["distortions.checkers.s"] = tr.time_in(CHECKERS)
    m["cli.self_s"] = sum(
        tr.duration(i) - tr.time_in(("auditor.audit", "auditor.verify_certificate"), within=i)
        for i in tr.spans(["cli.main"])
    )
    m["trace.overhead_share"] = overhead
    return m


# ---------------------------------------------------------------------------
# The two modes
# ---------------------------------------------------------------------------


def timed_run(w, args, workdir: Path) -> tuple:
    from workloads import SpeedProbe

    setup_probe = SpeedProbe()
    setup, child_digests = measure_setup(args.workload, args.seed, workdir, setup_probe)
    warm = w.warmup()
    problems = []
    if any(d != warm for d in child_digests) or warm == "failed":
        problems.append("warm-up output differs across fresh interpreters, or failed")
    w.probe = SpeedProbe()
    out = w.run(seconds=args.seconds)
    w.check(out)
    if w.warmup_op in out.digests and out.digests[w.warmup_op] != warm:
        problems.append("timed run's repeat of the warm-up gave other output")
    digests = dict(out.digests)
    if not problems:
        digests[w.warmup_op] = warm
    problems += check_record(args.workload, args.seed, digests, {})
    metrics, notes, extra = end_to_end(out, setup, setup_probe, w.probe)
    return out, metrics, notes, extra, problems


def traced_run(w, args) -> tuple:
    from tracer import Tracer

    if w.warmup() == "failed":
        sys.exit("perfbench: warm-up failed")
    before = w.run(count=w.pass_ops)
    tr = Tracer(EXTRACTORS)
    w.on_op = lambda i: setattr(tr, "audit_id", i)
    tr.install()
    try:
        out = w.run(count=w.pass_ops)
    finally:
        tr.uninstall()
    w.on_op = lambda i: None
    after = w.run(count=w.pass_ops)
    problems = []
    for o in (before, out, after):
        w.check(o)
        if o.digests != before.digests:
            problems.append("traced pass gave other output than the untraced passes")
    counts = tr.counts_by_audit()
    counts.pop(-1, None)
    problems += check_record(args.workload, args.seed, out.digests, counts)
    wall = lambda o: o.audit_wall + o.verify_wall
    # Untraced passes on both sides of the traced one cancel a steady drift in machine speed.
    untraced = (wall(before) + wall(after)) / 2
    metrics = per_layer(tr, out, wall(out) / untraced - 1.0)
    OUT.mkdir(exist_ok=True)
    tr.write(OUT / f"spans-{args.workload}-{args.seed}.json.gz")
    top = sorted(tr.summary().items(), key=lambda kv: -kv[1]["self_s"])[:12]
    extra = [(f"self_s {name}", r["self_s"], "s", f"{r['calls']} calls") for name, r in top]
    for o in (before, after):
        out.attempted += o.attempted
        out.failed += o.failed
        out.failures += o.failures
    cost = Tracer.span_cost()
    notes = {"trace.overhead_share": f"traced {wall(out):.2f} s vs untraced {wall(before):.2f} s "
             f"before and {wall(after):.2f} s after, not rescaled; the wrappers alone cost "
             f"{len(tr.name)} spans x {1e6 * cost:.2f} us = {len(tr.name) * cost / untraced:.2%}"}
    return out, metrics, notes, extra, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.setup_probe:
        setup_child(args.workload, args.seed, args.setup_probe)
        return 0
    import_package()
    spec = load_spec()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.seconds < 1:
        sys.exit("perfbench: --seconds must be at least 1")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT, prefix="work-"))
    try:
        w = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            out, metrics, notes, extra, problems = traced_run(w, args)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            out, metrics, notes, extra, problems = timed_run(w, args, workdir)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for name in units:
        print(f"{name:45s} {metrics[name]:>14.6g} {units[name]:6s} {notes.get(name, '')}")
    for name, value, unit, note in extra:
        print(f"{name:45s} {value:>14.6g} {unit:6s} {note}")
    for line in out.failures + problems:
        print(f"FAILED: {line}")
    result = {
        "correct": out.failed == 0 and not problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

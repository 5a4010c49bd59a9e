"""The benchmark's workloads: inputs made from a seed, operations, output checks.

Every operation ``i`` of a workload draws its inputs from
``numpy.random.default_rng([seed, i])``, so any prefix of the stream is
the same whatever the run length.  Operations come in strata of
``cycle`` consecutive indices with a fixed mix of families, state counts
and selectors; a timed run stops only at a stratum boundary, so every run
measures the same mix.  One *pass* is the first ``pass_ops`` operations;
the traced run replays exactly one pass.

Every output is checked, and every check that fails counts one failed
operation (an exception, a wrong verdict or a wrong exit code alike).
Each operation also leaves a digest of its output bytes, which the
runner compares across processes and runs.

Package functions are always called through their module
(``auditor.audit``, ``cli.main``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional

import numpy as np

from blackwell_audit import auditor, cli, decision, distortions, geometry


@dataclass
class AuditFact:
    """What one audit reported, as far as the per-layer metrics need it."""

    budget_used: int
    errors: int  # expansive + contractive census entries
    recipe: Optional[str]


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    audit_s: List[float] = field(default_factory=list)  # wall time of each audit() call
    audits: int = 0
    audit_wall: float = 0.0
    verifies: int = 0
    verify_wall: float = 0.0
    digests: Dict[int, str] = field(default_factory=dict)
    facts: Dict[int, List[AuditFact]] = field(default_factory=dict)
    certificates: Dict[int, object] = field(default_factory=dict)

    def fail(self, op: int, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"op {op}: {what}")


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def report_bytes(report) -> bytes:
    """A report serialised the way the command line writes it."""
    return (json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n").encode()


def fact_of(report) -> AuditFact:
    census = report.error_census
    cert = report.certificate
    return AuditFact(
        int(report.budget_used),
        int(census["expansive"]) + int(census["contractive"]),
        cert.recipe if cert is not None else None,
    )


class SpeedProbe:
    """Times a fixed task that touches nothing of the package.

    The CPU speed of a shared 2-core machine drifts by up to 30% within a
    minute, which no run length averages out.  A timed run therefore runs
    this task between operations (in cli-sweep, between the audits inside
    a command), once for every ``every_s`` seconds since it last ran, and
    rescales its wall times by ``nominal_s`` over the task's mean time
    (see ``speed``).  The probe's own time is kept out of the workload's
    wall time.  Set-up time is rescaled by samples taken between the
    set-up interpreters.
    """

    every_s = 0.25
    nominal_s = 0.0065  # the probe's time on the machine the bounds were set on

    def __init__(self) -> None:
        from scipy.optimize import linprog

        rng = np.random.default_rng(0)
        self._linprog = linprog
        self._array = rng.random(150_000)
        self._lp = (-np.ones(6), rng.random((8, 6)), np.ones(8))
        self.samples: List[float] = []
        self.spent = 0.0
        self._last: Optional[float] = None

    def task(self) -> None:
        total = 0
        for i in range(30_000):  # interpreter
            total += i * i
        np.sort(self._array)  # memory
        c, a, b = self._lp
        self._linprog(c, A_ub=a, b_ub=b, bounds=[(0.0, 1.0)] * 6, method="highs")  # HiGHS

    def sample(self, times: int) -> None:
        """Run the task ``times`` times and record each of its times."""
        now = time.perf_counter()
        for _ in range(times):
            t = time.perf_counter()
            self.task()
            self.samples.append(time.perf_counter() - t)
        self._last = time.perf_counter()
        self.spent += self._last - now

    def maybe(self) -> None:
        """Run the task once per ``every_s`` passed since it last ran (at most 20 times)."""
        if self._last is None:
            self.sample(1)
            return
        due = min(int((time.perf_counter() - self._last) / self.every_s), 20)
        if due:
            self.sample(due)

    @property
    def speed(self) -> float:
        """Machine speed relative to nominal: multiply a wall time by it to rescale."""
        return self.nominal_s / statistics.fmean(self.samples)


class Workload:
    name = ""
    cycle = 1
    pass_ops = 1
    warmup_op = 0  # index of the operation warmup() runs; the timed run repeats it when >= 0

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.on_op = lambda i: None  # told the index of each operation as it starts
        self.probe: Optional[SpeedProbe] = None  # run between operations when set
        self._inputs: Dict[int, tuple] = {}
        for i in range(self.pass_ops):
            self.inputs(i)

    def rng(self, i: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, i])

    def inputs(self, i: int) -> tuple:
        if i not in self._inputs:
            self._inputs[i] = self.make_inputs(i)
        return self._inputs[i]

    def make_inputs(self, i: int) -> tuple:
        raise NotImplementedError

    def ops(self, seconds: Optional[float], count: Optional[int], t0: float) -> Iterator[int]:
        """Operation indices: exactly ``count``, or whole strata until ``seconds`` pass."""
        i = 0
        while True:
            if count is not None and i >= count:
                return
            if seconds is not None and i % self.cycle == 0 and i and self.clock() - t0 >= seconds:
                return
            self.between_ops(i)
            yield i
            i += 1

    def clock(self) -> float:
        """time.perf_counter() minus the time the probe has taken so far."""
        return time.perf_counter() - (self.probe.spent if self.probe is not None else 0.0)

    def between_ops(self, i: int) -> None:
        if self.probe is not None:
            self.probe.maybe()
        self.on_op(i)

    def warmup(self) -> str:
        """Run one untimed operation and return its digest."""
        raise NotImplementedError

    def run(self, seconds: Optional[float] = None, count: Optional[int] = None) -> Outcome:
        raise NotImplementedError

    def check(self, out: Outcome) -> None:
        """Checks that run after the measured (and traced) part."""


def _audit_op(w: Workload, i: int, out: Outcome, want_certificate: bool):
    """Audit op i's rule; count the audit and check the verdict against ``want_certificate``."""
    rule, n, grid, budget, sel, seed = w.inputs(i)
    out.attempted += 1
    try:
        t = time.perf_counter()
        rep = auditor.audit(
            rule, geometry.uniform_belief(n), grid_size=grid, budget=budget, seed=seed, sel=sel
        )
        out.audit_s.append(time.perf_counter() - t)
        out.audits += 1
        out.facts[i] = [fact_of(rep)]
        out.digests[i] = digest(report_bytes(rep))
    except Exception as err:  # a crash is a failed operation, never a stop
        out.fail(i, f"audit raised {err!r}")
        return None
    if (rep.certificate is not None) != want_certificate or rep.verdict != (
        "violation" if want_certificate else "pass"
    ):
        out.fail(i, f"wrong verdict {rep.verdict!r}")
        return None
    return rep


# Criterion 6's harmless mix in strata of three: one interval rule, one
# collapse rule and one trivial rule, the last two alternating n = 3 / 4.
# LEX_LAST goes to one member of each stratum in turn (8 of 24), which
# sends random search down the general-selector path.
_HARMLESS = []
for _t in range(8):
    _members = [("occ-coarse", 2), ("occ-stubborn", 3 + _t % 2), ("trivial", 4 - _t % 2)]
    for _k, (_family, _n) in enumerate(_members):
        _HARMLESS.append((_family, _n, _k == _t % 3))


class HarmlessDispatch(Workload):
    """Harmless rules: every audit must pass; hull-membership LPs dominate."""

    name = "harmless-dispatch"
    cycle = 3
    pass_ops = len(_HARMLESS)

    def make_inputs(self, i: int) -> tuple:
        family, n, lex_last = _HARMLESS[i % len(_HARMLESS)]
        rng = self.rng(i)
        rule = distortions.random_rule(family, n, rng)
        sel = decision.Selector(decision.SelectorPolicy.LEX_LAST) if lex_last else decision.Selector()
        return rule, n, 101 if n == 2 else 41, 250, sel, int(rng.integers(1 << 30))

    def warmup(self) -> str:
        out = Outcome()
        _audit_op(self, 0, out, want_certificate=False)
        return out.digests.get(0, "failed") if not out.failed else "failed"

    def run(self, seconds=None, count=None) -> Outcome:
        out = Outcome()
        t0 = self.clock()
        for i in self.ops(seconds, count, t0):
            _audit_op(self, i, out, want_certificate=False)
        out.audit_wall = self.clock() - t0
        return out


_HARMFUL = [(family, n) for n in (2, 3, 4) for family in ("grether", "shrinkage")]


class HarmfulCertify(Workload):
    """Harmful rules: every audit must yield a certificate that verifies,
    in-process and through ``blackwell-audit verify`` on its file."""

    name = "harmful-certify"
    cycle = len(_HARMFUL)
    pass_ops = 600
    audit_share = 0.8  # of --seconds; verifying the certificates takes about the rest

    def make_inputs(self, i: int) -> tuple:
        family, n = _HARMFUL[i % len(_HARMFUL)]
        rng = self.rng(i)
        rule = distortions.random_rule(family, n, rng)
        return rule, n, 101 if n == 2 else 41, 250, decision.Selector(), int(rng.integers(1 << 30))

    def _certify(self, i: int, out: Outcome, files: Dict[int, Path]) -> None:
        rep = _audit_op(self, i, out, want_certificate=True)
        if rep is None:
            return
        path = self.workdir / f"cert-{i}.json"
        path.write_text(rep.certificate.dumps() + "\n")
        out.certificates[i] = rep.certificate
        files[i] = path

    def _verify(self, i: int, path: Path, out: Outcome) -> None:
        out.attempted += 1
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(["verify", str(path)])
        except Exception as err:
            out.fail(i, f"verify raised {err!r}")
            return
        out.verifies += 1
        out.digests[i] = digest(out.digests[i], path.read_bytes(), code, buf.getvalue())
        if code != 0:
            out.fail(i, f"verify exit code {code}")

    def warmup(self) -> str:
        out, files = Outcome(), {}
        self._certify(0, out, files)
        if 0 in files:
            self._verify(0, files[0], out)
        return out.digests.get(0, "failed") if not out.failed else "failed"

    def run(self, seconds=None, count=None) -> Outcome:
        out, files = Outcome(), {}
        budget = None if seconds is None else seconds * self.audit_share
        t0 = self.clock()
        for i in self.ops(budget, count, t0):
            self._certify(i, out, files)
        t1 = self.clock()
        for i, path in files.items():
            self.between_ops(i)
            self._verify(i, path, out)
        out.audit_wall = t1 - t0
        out.verify_wall = self.clock() - t1
        return out

    def check(self, out: Outcome) -> None:
        for i, cert in out.certificates.items():
            try:
                ok, reason = auditor.verify_certificate(cert)
            except Exception as err:
                ok, reason = False, repr(err)
            if not ok:
                out.fail(i, f"certificate rejected in-process: {reason}")


_BAYES4 = ["audit", "--rule", "bayes", "--states", "4", "--grid", "201", "--prior", "sweep:3", "--budget", "5000"]
_BAYES3_DOUBLE = ["audit", "--rule", "bayes", "--states", "3", "--grid", "201", "--prior", "sweep:3", "--mode", "double"]


class CliSweep(Workload):
    """Bayes through the command line: every prior must pass with an
    error-free census.  No LP runs; lattice, census and random search do.

    A stratum runs the DOUBLE n=3 command twice and the n=4 command once.
    A DOUBLE n=3 audit takes about 0.7 s and an n=4 audit about 2 s, so
    with equal shares the median audit would fall in the gap between the
    two groups and jump between them from run to run; at 2:1 it lies
    inside the DOUBLE n=3 group, whose random search is plain Python and
    follows the speed probe more closely than the n=4 group's lattice.
    """

    name = "cli-sweep"
    cycle = 3
    pass_ops = 3
    warmup_op = -1
    commands = (_BAYES3_DOUBLE, _BAYES4, _BAYES3_DOUBLE)
    warmup_command = ["audit", "--rule", "bayes", "--states", "3", "--grid", "41", "--prior", "sweep:1", "--budget", "200"]

    def make_inputs(self, i: int) -> tuple:
        return (self.commands[i % self.cycle], int(self.rng(i).integers(1 << 30)))

    def _call(self, i: int, argv: List[str], seed: int, out: Outcome) -> None:
        path = self.workdir / f"report-{i}.json"
        out.attempted += 1
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv + ["--seed", str(seed), "--out", str(path)])
            raw = path.read_bytes()
            runs = json.loads(raw)["runs"]
            facts = [
                AuditFact(
                    int(r["budget_used"]),
                    int(r["error_census"]["expansive"]) + int(r["error_census"]["contractive"]),
                    r["certificate"]["recipe"] if r["certificate"] else None,
                )
                for r in runs
            ]
        except Exception as err:
            out.fail(i, f"audit command raised {err!r}")
            return
        out.audits += len(runs)
        out.facts[i] = facts
        out.digests[i] = digest(code, raw)
        priors = int(argv[argv.index("--prior") + 1].split(":")[1])
        if code != 0 or len(runs) != priors or any(f.errors or f.recipe for f in facts):
            out.fail(i, f"exit code {code}, {len(runs)} runs, facts {facts}")

    def warmup(self) -> str:
        out = Outcome()
        self._call(self.warmup_op, self.warmup_command, self.seed, out)
        return out.digests.get(self.warmup_op, "failed") if not out.failed else "failed"

    def run(self, seconds=None, count=None) -> Outcome:
        out = Outcome()
        original = cli.audit

        def timed_audit(*args, **kwargs):
            if self.probe is not None:
                self.probe.maybe()
            t = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                out.audit_s.append(time.perf_counter() - t)

        cli.audit = timed_audit
        try:
            t0 = self.clock()
            for i in self.ops(seconds, count, t0):
                argv, seed = self.inputs(i)
                self._call(i, argv, seed, out)
            out.audit_wall = self.clock() - t0
        finally:
            cli.audit = original
        return out


WORKLOADS = {w.name: w for w in (HarmlessDispatch, HarmfulCertify, CliSweep)}

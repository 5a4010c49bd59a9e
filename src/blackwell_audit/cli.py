"""Command-line front end.

Subcommands
-----------
audit       Run the violation search for a rule at one or more priors and
            write a JSON report (exit 0 = pass, 3 = violation found,
            2 = bad configuration, too many states (17 or more in single
            mode, 400 or more in double mode), a malformed rule table, or a
            rule whose map returns non-finite images).  A found certificate
            is also written next to the report as ``<stem>.certificate.json``.
reproduce   Emit the reference data sets as plot-ready CSV files.
verify      Re-check a certificate file, or the first certificate in a
            report that ``audit`` wrote (exit 0 = valid, 4 = invalid,
            2 = unreadable, no certificate in the report, or a rule that
            returns non-finite images or is queried off its table on the
            certificate's posteriors).

Outputs are written atomically (temp file + rename) and are
byte-identical for identical configuration and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

import numpy as np

from .geometry import Belief, Face, face_samples, uniform_belief
from .experiments import PriorNotInterior
from .distortions import CoarseRule, Distortion, GridMiss, NonFiniteImage, WrongDimension, evaluate_batch, parse_rule
from .decision import Selector, WelfareMode, quadratic_loss_problem, value_batch, welfare_batch
from .auditor import ViolationCertificate, audit, verify_certificate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VIOLATION = 3
EXIT_INVALID_CERT = 4


class ConfigError(ValueError):
    pass


#: The audit flags a report's "config" records.
_CONFIG_KEYS = ("states", "prior", "rule", "grid", "budget", "seed", "tol", "mode")


def _resolve_rule(args: argparse.Namespace) -> Distortion:
    text = args.rule.strip()
    try:
        is_file = not text.startswith("{") and Path(text).is_file()
    except OSError:  # e.g. a rule longer than a file name may be: it is rule text
        is_file = False
    if is_file:
        text = Path(text).read_text()
    try:
        rule = parse_rule(text, n=args.states)
    except Exception as err:
        raise ConfigError(f"cannot parse rule: {err}") from err
    if rule.n != args.states:
        raise ConfigError(f"rule is for {rule.n} states, config says {args.states}")
    return rule


def _resolve_priors(args: argparse.Namespace) -> List[Belief]:
    spec = args.prior.strip()
    n = args.states
    if spec == "uniform":
        return [uniform_belief(n)]
    if spec.startswith("sweep:"):
        try:
            k = int(spec.split(":", 1)[1])
        except ValueError as err:
            raise ConfigError("sweep prior must look like sweep:5") from err
        if k < 1:
            raise ConfigError("sweep count must be positive")
        rng = np.random.default_rng(args.seed)
        out = []
        for _ in range(k):
            raw = rng.dirichlet(np.ones(n) * 2.0)
            out.append(Belief(0.8 * raw + 0.2 / n))
        return out
    try:
        coords = json.loads(spec)
        prior = Belief(coords)
    except Exception as err:
        raise ConfigError(f"cannot parse prior: {err}") from err
    if prior.n != n:
        raise ConfigError("prior length must match --states")
    return [prior]


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def cmd_audit(args: argparse.Namespace) -> int:
    # The bounds argparse's types and choices leave open.
    if args.states < 2:
        raise ConfigError("--states must be at least 2")
    if args.grid < 11:
        raise ConfigError("--grid must be at least 11")
    if args.budget < 1:
        raise ConfigError("--budget must be positive")
    if not 0.0 <= args.tol < math.inf:
        raise ConfigError("--tol must be finite and non-negative")
    if args.seed < 0:
        raise ConfigError("--seed must be non-negative")
    rule = _resolve_rule(args)
    runs = []
    first_cert: Optional[ViolationCertificate] = None
    for prior in _resolve_priors(args):
        rep = audit(
            rule,
            prior,
            grid_size=args.grid,
            budget=args.budget,
            mode=WelfareMode(args.mode),
            seed=args.seed,
            tol=args.tol,
        )
        runs.append(rep.to_json())
        if rep.certificate is not None and first_cert is None:
            first_cert = rep.certificate
    doc = {
        "config": {key: getattr(args, key) for key in _CONFIG_KEYS},
        "verdict": "violation" if first_cert else "pass",
        "runs": runs,
    }
    if args.out:
        out = Path(args.out)
        _atomic_write(out, _dump(doc))
        if first_cert is not None:
            cert_path = out.with_name(out.stem + ".certificate.json")
            _atomic_write(cert_path, first_cert.dumps() + "\n")
            print(f"violation: certificate written to {cert_path}")
        print(f"report written to {out}")
    else:
        print(_dump(doc), end="")
    return EXIT_VIOLATION if first_cert else EXIT_OK


def _write_csv(path: Path, header: List[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def cmd_reproduce(example_id: str, outdir: str, a: float, b: float, u: float, v: float) -> int:
    out = Path(outdir)
    if example_id == "occ-coarse-figure":
        try:
            rule = CoarseRule(a, b, u, v)
        except ValueError as err:  # also NaN, which fails every bound
            raise ConfigError(f"occ-coarse-figure: {err}") from err
        problem = quadratic_loss_problem()
        x = np.arange(1001) / 1000.0
        beliefs = np.column_stack([x, 1.0 - x])
        V = value_batch(problem, beliefs)
        W = welfare_batch(problem, rule, (0.5, 0.5), Selector(), WelfareMode.SINGLE, beliefs)
        rows = np.column_stack([x, evaluate_batch(rule, (0.5, 0.5), beliefs)[:, 0], V, W]).tolist()
        _write_csv(out / "occ_coarse_figure.csv", ["x", "phi", "V", "W"], rows)
        print(f"wrote {out / 'occ_coarse_figure.csv'}")
        return EXIT_OK
    # argparse's choices leave the two stubborn examples.
    rule = parse_rule(example_id)
    mu = (1 / 3, 1 / 3, 1 / 3)
    pts = [np.eye(3)[i] for i in range(3)]
    for face in (Face((0, 1)), Face((0, 2)), Face((1, 2))):
        pts.extend(face_samples(face, 3, 8))
    pts.extend(face_samples(Face((0, 1, 2)), 3, 16))
    X = np.asarray(pts)
    imgs = evaluate_batch(rule, mu, X)
    rows = [
        [float(x[0]), float(x[1]), float(im[0]), float(im[1])]
        for x, im in zip(X, imgs)
    ]
    name = "occ_stubborn_a.csv" if example_id.endswith("a") else "occ_stubborn_b.csv"
    _write_csv(out / name, ["x1", "x2", "phi1", "phi2"], rows)
    print(f"wrote {out / name}")
    return EXIT_OK


def cmd_verify(path: str) -> int:
    try:
        doc = json.loads(Path(path).read_text())
    except Exception as err:
        print(f"cannot read certificate: {err}", file=sys.stderr)
        return EXIT_CONFIG
    if isinstance(doc, dict) and "runs" in doc and "pi" not in doc:  # audit's report: its first run's certificate
        runs = [run for run in doc["runs"] if isinstance(run, dict)] if isinstance(doc["runs"], list) else []
        doc = next((run["certificate"] for run in runs if run.get("certificate") is not None), None)
    elif isinstance(doc, dict) and "certificate" in doc and "pi" not in doc:
        doc = doc["certificate"]  # the library's AuditReport
    if not isinstance(doc, dict) or doc.get("certificate", doc) is None:
        print("no certificate found in file", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cert = ViolationCertificate.from_json(doc)
    except Exception as err:
        print(f"cannot parse certificate: {err}", file=sys.stderr)
        return EXIT_CONFIG
    ok, reason = verify_certificate(cert)
    if ok:
        print(f"certificate valid: gap {cert.gap:.6g} via {cert.recipe}")
        return EXIT_OK
    print(f"certificate invalid: {reason}")
    return EXIT_INVALID_CERT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blackwell-audit",
        description="Audit belief-updating rules for violations of the informativeness order.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_audit = sub.add_parser("audit", help="search for a violation certificate")
    p_audit.add_argument("--states", type=int, required=True, help="number of states (>= 2)")
    p_audit.add_argument(
        "--prior",
        default="uniform",
        help="'uniform', 'sweep:K' (K random interior priors), or a JSON array",
    )
    p_audit.add_argument(
        "--rule",
        required=True,
        help="rule spec: shorthand like bayes, grether(2,1), occ-coarse(0.3,0.7,0.2,0.8), "
        "shrinkage(0.5); inline JSON; or a path to a JSON file",
    )
    p_audit.add_argument("--grid", type=int, default=101, help="belief lattice resolution (>= 11)")
    p_audit.add_argument(
        "--budget", type=int, default=5000,
        help="construction budget: one unit per recipe cut, lemma-3 pair, DOUBLE-mode chord or random-search trial",
    )
    p_audit.add_argument("--seed", type=int, default=0)
    p_audit.add_argument("--tol", type=float, default=1e-9, help="error-detection tolerance")
    p_audit.add_argument("--mode", choices=["single", "double"], default="single")
    p_audit.add_argument("--out", default=None, help="report path (JSON)")

    p_rep = sub.add_parser("reproduce", help="emit reference data sets as CSV")
    p_rep.add_argument(
        "example",
        choices=["occ-coarse-figure", "occ-stubborn-a", "occ-stubborn-b"],
    )
    p_rep.add_argument("--out", default=".", help="output directory")
    p_rep.add_argument("--a", type=float, default=0.3)
    p_rep.add_argument("--b", type=float, default=0.7)
    p_rep.add_argument("--u", type=float, default=0.2)
    p_rep.add_argument("--v", type=float, default=0.8)

    p_ver = sub.add_parser("verify", help="re-check a certificate file")
    p_ver.add_argument("certificate", help="path to a certificate (or report) JSON")

    return parser


#: Built once per process: parse_args keeps no state between calls.
_PARSER = build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as err:
        return EXIT_CONFIG if err.code not in (0, None) else EXIT_OK
    try:
        if args.command == "audit":
            return cmd_audit(args)
        if args.command == "reproduce":
            return cmd_reproduce(args.example, args.out, args.a, args.b, args.u, args.v)
        return cmd_verify(args.certificate)  # the subparser is required: verify is all that is left
    except (ConfigError, PriorNotInterior, GridMiss, NonFiniteImage, WrongDimension) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

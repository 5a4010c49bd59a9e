"""Command-line front end.

Subcommands
-----------
audit       Run the violation search for a rule at one or more priors and
            write a JSON report (exit 0 = pass, 3 = violation found,
            2 = bad configuration).  A found certificate is also written
            next to the report as ``<stem>.certificate.json``.
reproduce   Emit the reference data sets as plot-ready CSV files.
verify      Re-check a certificate file (exit 0 = valid, 4 = invalid,
            2 = unreadable).

Outputs are written atomically (temp file + rename) and are
byte-identical for identical configuration and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

from .geometry import Belief, Face, face_samples, uniform_belief
from .experiments import PriorNotInterior
from .distortions import CoarseRule, Distortion, GridMiss, parse_rule
from .decision import (
    Selector,
    WelfareMode,
    quadratic_loss_problem,
    value_function,
    welfare,
)
from .auditor import ViolationCertificate, audit, verify_certificate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VIOLATION = 3
EXIT_INVALID_CERT = 4


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Validated audit configuration (mirrors the CLI flags)."""

    states: int
    prior: str
    rule: str
    grid: int = 101
    budget: int = 5000
    seed: int = 0
    tol: float = 1e-9
    mode: str = "single"
    out: Optional[str] = None

    def __post_init__(self) -> None:
        if self.states < 2:
            raise ConfigError("--states must be at least 2")
        if self.grid < 11:
            raise ConfigError("--grid must be at least 11")
        if self.budget < 1:
            raise ConfigError("--budget must be positive")
        if self.mode not in ("single", "double"):
            raise ConfigError("--mode must be 'single' or 'double'")

    def resolve_rule(self) -> Distortion:
        text = self.rule.strip()
        if not text.startswith("{") and Path(text).is_file():
            text = Path(text).read_text()
        try:
            rule = parse_rule(text, n=self.states)
        except Exception as err:
            raise ConfigError(f"cannot parse rule: {err}") from err
        if rule.n != self.states:
            raise ConfigError(f"rule is for {rule.n} states, config says {self.states}")
        return rule

    def resolve_priors(self) -> List[Belief]:
        spec = self.prior.strip()
        if spec == "uniform":
            return [uniform_belief(self.states)]
        if spec.startswith("sweep:"):
            try:
                k = int(spec.split(":", 1)[1])
            except ValueError as err:
                raise ConfigError("sweep prior must look like sweep:5") from err
            if k < 1:
                raise ConfigError("sweep count must be positive")
            rng = np.random.default_rng(self.seed)
            out = []
            for _ in range(k):
                raw = rng.dirichlet(np.ones(self.states) * 2.0)
                out.append(Belief(0.8 * raw + 0.2 / self.states))
            return out
        try:
            coords = json.loads(spec)
            prior = Belief(coords)
        except Exception as err:
            raise ConfigError(f"cannot parse prior: {err}") from err
        if prior.n != self.states:
            raise ConfigError("prior length must match --states")
        if not prior.is_interior():
            raise ConfigError("prior must have full support")
        return [prior]

    def to_json(self) -> dict:
        return {
            "states": self.states,
            "prior": self.prior,
            "rule": self.rule,
            "grid": self.grid,
            "budget": self.budget,
            "seed": self.seed,
            "tol": self.tol,
            "mode": self.mode,
        }


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


def cmd_audit(cfg: RunConfig) -> int:
    rule = cfg.resolve_rule()
    priors = cfg.resolve_priors()
    runs = []
    first_cert: Optional[ViolationCertificate] = None
    for prior in priors:
        rep = audit(
            rule,
            prior,
            grid_size=cfg.grid,
            budget=cfg.budget,
            mode=WelfareMode(cfg.mode),
            seed=cfg.seed,
            tol=cfg.tol,
        )
        runs.append(rep.to_json())
        if rep.certificate is not None and first_cert is None:
            first_cert = rep.certificate
    doc = {
        "config": cfg.to_json(),
        "verdict": "violation" if first_cert else "pass",
        "runs": runs,
    }
    if cfg.out:
        out = Path(cfg.out)
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
        rule = CoarseRule(a, b, u, v)
        problem = quadratic_loss_problem()
        mu = (0.5, 0.5)
        sel = Selector()
        rows = []
        for k in range(1001):
            x = k / 1000.0
            belief = np.array([x, 1.0 - x])
            phi = float(rule.apply_scalar(np.array([x]))[0])
            V = value_function(problem, belief).payoff
            W = welfare(problem, rule, mu, sel, WelfareMode.SINGLE, belief)
            rows.append([float(x), phi, float(V), float(W)])
        _write_csv(out / "occ_coarse_figure.csv", ["x", "phi", "V", "W"], rows)
        print(f"wrote {out / 'occ_coarse_figure.csv'}")
        return EXIT_OK
    if example_id in ("occ-stubborn-a", "occ-stubborn-b"):
        rule = parse_rule(example_id)
        mu = (1 / 3, 1 / 3, 1 / 3)
        pts = [np.eye(3)[i] for i in range(3)]
        for face in (Face((0, 1)), Face((0, 2)), Face((1, 2))):
            pts.extend(face_samples(face, 3, 8))
        pts.extend(face_samples(Face((0, 1, 2)), 3, 16))
        from .distortions import evaluate_batch

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
    print(f"unknown example: {example_id}", file=sys.stderr)
    return EXIT_CONFIG


def cmd_verify(path: str) -> int:
    try:
        doc = json.loads(Path(path).read_text())
    except Exception as err:
        print(f"cannot read certificate: {err}", file=sys.stderr)
        return EXIT_CONFIG
    if isinstance(doc, dict) and "certificate" in doc and "pi" not in doc:
        doc = doc["certificate"]  # accept full audit reports too
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
        help="construction budget: one unit per recipe cut, lemma-3 pair or random-search trial",
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
            cfg = RunConfig(
                states=args.states,
                prior=args.prior,
                rule=args.rule,
                grid=args.grid,
                budget=args.budget,
                seed=args.seed,
                tol=args.tol,
                mode=args.mode,
                out=args.out,
            )
            return cmd_audit(cfg)
        if args.command == "reproduce":
            return cmd_reproduce(args.example, args.out, args.a, args.b, args.u, args.v)
        if args.command == "verify":
            return cmd_verify(args.certificate)
    except (ConfigError, PriorNotInterior, GridMiss) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: exit codes, report files, reproductions."""

import functools
import json
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blackwell_audit
from audit_helpers import forged_bayes_certificate, one_error
from blackwell_audit import auditor, distortions, geometry
from blackwell_audit.auditor import audit
from blackwell_audit.decision import Selector, SelectorPolicy
from blackwell_audit.distortions import GretherRule
from blackwell_audit.cli import (
    EXIT_CONFIG,
    EXIT_INVALID_CERT,
    EXIT_OK,
    EXIT_VIOLATION,
    main,
)
from blackwell_audit.geometry import simplex_lattice


def run(argv):
    return main(argv)


def _table(nodes, images, tol=0.006):
    """A tabulated rule's JSON spec."""
    return {"family": "tabulated", "nodes": nodes.tolist(), "images": images.tolist(), "tol": tol}


#: A collapse rule whose vertex 1 image weights state 1 more than x* does, off the segment to vertex 1.
_OFF_SEGMENT = {"family": "occ-stubborn", "x_star": [0.2, 1 / 3, 1 - 0.2 - 1 / 3], "vertex_images": {"1": [0.3, 0.5, 0.2]}}
_OFF_SEGMENT_ERROR = "vertex 1 image must lie on the segment from the common image to vertex 1"


class TestAuditCommand:
    def test_bayes_sweep_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = run([
            "audit", "--states", "3", "--prior", "sweep:2", "--rule", "bayes",
            "--grid", "31", "--budget", "100", "--seed", "5", "--out", str(out),
        ])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "pass"
        assert len(doc["runs"]) == 2
        for rundoc in doc["runs"]:
            assert rundoc["error_census"]["expansive"] == 0
            assert rundoc["error_census"]["contractive"] == 0

    def test_grether_violation_with_certificate(self, tmp_path):
        out = tmp_path / "report.json"
        code = run([
            "audit", "--states", "3", "--prior", "uniform", "--rule", "grether(2,1)",
            "--grid", "41", "--budget", "300", "--out", str(out),
        ])
        assert code == EXIT_VIOLATION
        cert_path = tmp_path / "report.certificate.json"
        assert cert_path.exists()
        assert run(["verify", str(cert_path)]) == EXIT_OK

    def test_coarse_rule_reports_checker_verdict(self, tmp_path):
        out = tmp_path / "report.json"
        code = run([
            "audit", "--states", "2", "--prior", "[0.5,0.5]",
            "--rule", "occ-coarse(0.3,0.7,0.2,0.8)",
            "--grid", "101", "--budget", "100", "--out", str(out),
        ])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        verdict = doc["runs"][0]["checker_verdicts"]["occasionally_coarse"]
        assert verdict["ok"]
        assert verdict["a"] == pytest.approx(0.3)
        assert verdict["b"] == pytest.approx(0.7)

    def test_rule_from_json_file(self, tmp_path):
        rule_file = tmp_path / "rule.json"
        rule_file.write_text(json.dumps({"family": "shrinkage", "lambda": 0.5, "n": 2}))
        code = run([
            "audit", "--states", "2", "--rule", str(rule_file),
            "--grid", "51", "--budget", "300", "--out", str(tmp_path / "r.json"),
        ])
        assert code == EXIT_VIOLATION

    def test_rule_text_longer_than_a_file_name(self, tmp_path):
        # 60 coordinates make rule text far past the 255-byte limit on a file name, which
        # the probe for a rule file must not turn into an error.
        rule = "trivial(" + ",".join(["0.016666666666666666"] * 60) + ")"
        out = tmp_path / "r.json"
        code = run(["audit", "--states", "60", "--mode", "double", "--grid", "11", "--rule", rule, "--out", str(out)])
        assert code == EXIT_OK and json.loads(out.read_text())["verdict"] == "pass"

    def test_config_errors(self, tmp_path):
        assert run(["audit", "--states", "1", "--rule", "bayes"]) == EXIT_CONFIG
        assert run(["audit", "--states", "2", "--rule", "nonsense(1)"]) == EXIT_CONFIG
        assert run(["audit", "--states", "2", "--rule", "bayes", "--grid", "5"]) == EXIT_CONFIG
        assert run(["audit", "--states", "2", "--rule", "bayes", "--prior", "[0.9,0.2]"]) == EXIT_CONFIG
        assert run(["audit", "--states", "3", "--rule", "bayes", "--prior", "[1.0,0.0,0.0]"]) == EXIT_CONFIG

    def test_prior_off_the_interior_is_refused_by_the_audit_gate(self, capsys):
        assert run(["audit", "--states", "3", "--rule", "bayes", "--prior", "[0.5,0.5,0.0]"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "configuration error: audit requires a full-support prior\n"

    def test_reference_example_on_wrong_state_count(self, tmp_path, capsys):
        for states, rule in (("4", "occ-stubborn-a"), ("2", "occ-stubborn-b")):
            capsys.readouterr()
            assert run(["audit", "--states", states, "--rule", rule, "--grid", "11", "--budget", "1"]) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert "rule is for 3 states" in captured.err
            assert "Traceback" not in captured.out + captured.err
        out = tmp_path / "r.json"
        assert run(["audit", "--states", "3", "--rule", "occ-stubborn-b", "--grid", "11", "--budget", "1", "--out", str(out)]) == EXIT_OK

    def test_tabulated_rule_queried_off_its_nodes(self, tmp_path, capsys):
        # The checkers sample faces off the 11-level lattice the table covers.
        nodes = simplex_lattice(3, 11).tolist()
        rule_file = tmp_path / "tab.json"
        rule_file.write_text(json.dumps({"family": "tabulated", "nodes": nodes, "images": nodes, "tol": 1e-9}))
        out = tmp_path / "r.json"
        code = run(["audit", "--states", "3", "--rule", str(rule_file), "--grid", "11", "--out", str(out)])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "configuration error: tabulated rule queried off its nodes" in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert not out.exists()

    def test_off_segment_vertex_image(self, tmp_path, capsys):
        rule_file = tmp_path / "rule.json"
        rule_file.write_text(json.dumps(_OFF_SEGMENT))
        out = tmp_path / "r.json"
        capsys.readouterr()
        assert run(["audit", "--states", "3", "--rule", str(rule_file), "--grid", "11", "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"configuration error: cannot parse rule: {_OFF_SEGMENT_ERROR}"]
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
    def test_hostile_tolerance(self, tmp_path, capsys, tol):
        # At tol nan or inf this harmful rule used to pass with an all-none census.
        out = tmp_path / "r.json"
        argv = ["audit", "--states", "3", "--rule", "grether(2,1)", "--grid", "41", "--budget", "200", "--out", str(out)]
        capsys.readouterr()
        assert run(argv + [f"--tol={tol}"]) == EXIT_CONFIG  # "=": argparse reads a lone -inf as an option
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["configuration error: --tol must be finite and non-negative"]
        assert captured.out == "" and not out.exists()
        assert run(argv + ["--tol", "0"]) == EXIT_VIOLATION

    def test_a_tolerance_below_the_floor_acts_as_the_floor(self, tmp_path):
        argv = ["audit", "--states", "3", "--rule", "shrinkage(0.5)", "--grid", "41", "--prior", "sweep:2"]
        runs = []
        for tol in ("0", "1e-9"):
            out = tmp_path / f"r-{tol}.json"
            assert run(argv + ["--tol", tol, "--out", str(out)]) == EXIT_VIOLATION
            runs.append(json.loads(out.read_text())["runs"])
        assert runs[0] == runs[1]
        assert [r["error_census"]["expansive"] for r in runs[0]] == [0, 0]

    def test_negative_seed(self, tmp_path, capsys):
        # The sweep prior's generator used to raise numpy's "expected non-negative integer".
        out = tmp_path / "r.json"
        argv = ["audit", "--rule", "bayes", "--states", "3", "--grid", "11", "--prior", "sweep:2", "--out", str(out)]
        capsys.readouterr()
        assert run(argv + ["--seed", "-3"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["configuration error: --seed must be non-negative"]
        assert captured.out == "" and not out.exists()
        assert run(argv + ["--seed", "0"]) == EXIT_OK

    def test_too_many_states_for_the_collapse_checker(self, tmp_path, capsys, monkeypatch):
        # 24 samples on each of the 2^17 - 18 faces would be 3,145,296 points: refused before any face or lattice.
        def refuse(*args, **kwargs):
            raise AssertionError("a face list or a lattice was built")

        for module, name in ((distortions, "enumerate_faces"), (geometry, "enumerate_faces"),
                             (auditor, "simplex_lattice"), (geometry, "simplex_lattice")):
            monkeypatch.setattr(module, name, refuse)
        out = tmp_path / "r.json"
        capsys.readouterr()
        assert run(["audit", "--states", "17", "--rule", "bayes", "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        message = "the collapse checker's 24 samples on each face of 17 states exceed 2,000,000 points"
        assert captured.err.splitlines() == [f"configuration error: {message}"]
        assert captured.out == "" and not out.exists()

    def test_too_many_states_for_the_chord_scan(self, tmp_path, capsys, monkeypatch):
        # Levels 0, 1/2, 1 of 400 states hold 80,200 points of 400 coordinates: refused before any lattice.
        def refuse(*args, **kwargs):
            raise AssertionError("a lattice was built")

        for module in (distortions, geometry):
            monkeypatch.setattr(module, "_lattice", refuse)
        out = tmp_path / "r.json"
        capsys.readouterr()
        assert run(["audit", "--states", "400", "--mode", "double", "--rule", "bayes", "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        message = "the chord scan's 3-level lattice of 400 states exceeds 32,000,000 coordinates"
        assert captured.err.splitlines() == [f"configuration error: {message}"]
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("rule", ["grether(2,800)", "grether(1000,1)"])
    def test_non_finite_images(self, tmp_path, capsys, rule):
        # mu**800 underflows to 0/0 on every lattice row; (x/mu)**1000 overflows on some.
        out = tmp_path / "r.json"
        code = run(["audit", "--states", "3", "--rule", rule, "--grid", "41", "--out", str(out)])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "configuration error: the rule's map returned a non-finite image at prior "
            f"{[1 / 3] * 3}"
        ]
        assert "Traceback" not in captured.out + captured.err
        assert not out.exists()

    @pytest.mark.parametrize("images", ["off-simplex", "nan"])
    def test_malformed_table(self, tmp_path, capsys, images):
        # Images 5 * node - 2 sum to 1 but leave the simplex: the table is no updating rule.
        nodes = simplex_lattice(2, 101)
        imgs = 5.0 * nodes - 2.0 if images == "off-simplex" else np.where(nodes[:, :1] > 0.5, np.nan, nodes)
        rule_file = tmp_path / "tab.json"
        rule_file.write_text(json.dumps(_table(nodes, imgs)))
        out = tmp_path / "r.json"
        assert run(["audit", "--states", "2", "--rule", str(rule_file), "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "configuration error: cannot parse rule: every image of a tabulated rule must be a finite belief summing to 1"
        ]
        assert "Traceback" not in captured.out + captured.err
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "audit", "--states", "2", "--prior", "uniform", "--rule", "shrinkage(0.5)",
            "--grid", "51", "--budget", "200", "--seed", "9",
        ]
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert run(args + ["--out", str(out1)]) == EXIT_VIOLATION
        assert run(args + ["--out", str(out2)]) == EXIT_VIOLATION
        assert out1.read_bytes() == out2.read_bytes()
        c1 = tmp_path / "a.certificate.json"
        c2 = tmp_path / "b.certificate.json"
        assert c1.read_bytes() == c2.read_bytes()


    def test_double_mode(self, tmp_path, capsys):
        # A non-affine rule gets a chord certificate; Bayes passes without spending budget.
        out = tmp_path / "g.json"
        assert run(["audit", "--mode", "double", "--rule", "grether(2,1)", "--states", "3", "--out", str(out)]) == EXIT_VIOLATION
        capsys.readouterr()
        assert run(["verify", str(tmp_path / "g.certificate.json")]) == EXIT_OK
        assert "via chord" in capsys.readouterr().out
        out = tmp_path / "b.json"
        assert run(["audit", "--mode", "double", "--rule", "bayes", "--states", "3", "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["runs"][0]["budget_used"] == 0

    def test_budget_help_names_every_unit(self, capsys):
        assert run(["audit", "--help"]) == EXIT_OK
        help_text = " ".join(capsys.readouterr().out.split())
        assert "recipe cut, lemma-3 pair, DOUBLE-mode chord or random-search trial" in help_text

    def test_flags_do_not_carry_over_between_calls(self, tmp_path):
        # One process, one parser: a flag given to one call must not stick to the next.
        args = ["audit", "--states", "2", "--rule", "grether(2,1)", "--grid", "51", "--budget", "200"]
        assert run(args + ["--mode", "double", "--out", str(tmp_path / "a.json")]) == EXIT_VIOLATION
        assert run(args + ["--out", str(tmp_path / "b.json")]) == EXIT_VIOLATION
        assert run(["verify", str(tmp_path / "b.certificate.json")]) == EXIT_OK
        modes = [json.loads((tmp_path / f"{stem}.json").read_text())["config"]["mode"] for stem in "ab"]
        assert modes == ["double", "single"]


class TestReproduceCommand:
    def test_coarse_figure_values(self, tmp_path):
        assert run(["reproduce", "occ-coarse-figure", "--out", str(tmp_path)]) == EXIT_OK
        lines = (tmp_path / "occ_coarse_figure.csv").read_text().strip().splitlines()
        assert lines[0] == "x,phi,V,W"
        assert len(lines) == 1002
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        # Identity region: held belief is correct, so welfare equals value.
        assert float(rows["0.5"][1]) == pytest.approx(0.5)
        assert float(rows["0.5"][2]) == pytest.approx(0.05)
        assert float(rows["0.5"][3]) == pytest.approx(0.05)
        # Collapsed region at x = 0.1: the chord through the action at 0.3.
        assert float(rows["0.1"][1]) == pytest.approx(0.3)
        assert float(rows["0.1"][3]) == pytest.approx(0.17)
        # Vertices carry their own images.
        assert float(rows["0"][1]) == pytest.approx(0.2)
        assert float(rows["1"][1]) == pytest.approx(0.8)

    def test_coarse_figure_respects_flags(self, tmp_path):
        assert run([
            "reproduce", "occ-coarse-figure", "--out", str(tmp_path),
            "--a", "0.4", "--b", "0.6", "--u", "0.1", "--v", "0.9",
        ]) == EXIT_OK
        lines = (tmp_path / "occ_coarse_figure.csv").read_text().strip().splitlines()
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert float(rows["0.1"][1]) == pytest.approx(0.4)
        assert float(rows["0"][1]) == pytest.approx(0.1)

    @pytest.mark.parametrize("flags, message", [
        (["--a", "0.7", "--b", "0.3"], "need 0 <= a <= b <= 1"),
        (["--a", "nan"], "need 0 <= a <= b <= 1"),
        (["--b", "inf"], "need 0 <= a <= b <= 1"),
        (["--u", "0.9"], "vertex image u must satisfy 0 <= u <= a"),
        (["--v", "0.1"], "vertex image v must satisfy b <= v <= 1"),
        (["--v", "nan"], "vertex image v must satisfy b <= v <= 1"),
    ])
    def test_coarse_figure_refuses_an_invalid_rule(self, tmp_path, capsys, flags, message):
        capsys.readouterr()
        assert run(["reproduce", "occ-coarse-figure", "--out", str(tmp_path)] + flags) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"configuration error: occ-coarse-figure: {message}"]
        assert not (tmp_path / "occ_coarse_figure.csv").exists()

    def test_stubborn_tables(self, tmp_path):
        assert run(["reproduce", "occ-stubborn-a", "--out", str(tmp_path)]) == EXIT_OK
        lines = (tmp_path / "occ_stubborn_a.csv").read_text().strip().splitlines()
        assert lines[0] == "x1,x2,phi1,phi2"
        rows = [line.split(",") for line in lines[1:]]
        # Vertex rows first: (1,0) is read correctly.
        assert rows[0] == ["1", "0", "1", "0"]
        # Interior rows all carry the common image (0.2, 1/3).
        interior = [r for r in rows if float(r[0]) > 0 and float(r[1]) > 0 and float(r[0]) + float(r[1]) < 1]
        assert interior
        for r in interior:
            assert float(r[2]) == pytest.approx(0.2)
            assert float(r[3]) == pytest.approx(1 / 3)

        assert run(["reproduce", "occ-stubborn-b", "--out", str(tmp_path)]) == EXIT_OK
        lines_b = (tmp_path / "occ_stubborn_b.csv").read_text().strip().splitlines()
        rows_b = [line.split(",") for line in lines_b[1:]]
        assert ["0", "1", "0.3", "0.7"] in rows_b

    def test_byte_identical(self, tmp_path):
        run(["reproduce", "occ-stubborn-a", "--out", str(tmp_path / "x")])
        run(["reproduce", "occ-stubborn-a", "--out", str(tmp_path / "y")])
        a = (tmp_path / "x" / "occ_stubborn_a.csv").read_bytes()
        b = (tmp_path / "y" / "occ_stubborn_a.csv").read_bytes()
        assert a == b


class TestVerifyCommand:
    @pytest.fixture()
    def cert_path(self, tmp_path):
        out = tmp_path / "report.json"
        run([
            "audit", "--states", "2", "--prior", "uniform", "--rule", "grether(2,1)",
            "--grid", "101", "--budget", "200", "--out", str(out),
        ])
        return tmp_path / "report.certificate.json"

    def test_valid_certificate(self, cert_path):
        assert run(["verify", str(cert_path)]) == EXIT_OK

    def test_report_verifies_as_its_certificate_file(self, tmp_path, capsys):
        # audit's report holds one run per prior; verify reads the certificate of the first run that has one.
        out = tmp_path / "rep.json"
        argv = ["audit", "--states", "3", "--rule", "grether(2,1)", "--grid", "41", "--out", str(out)]
        assert run(argv) == EXIT_VIOLATION
        capsys.readouterr()
        results = [(run(["verify", str(path)]), capsys.readouterr()) for path in (out, tmp_path / "rep.certificate.json")]
        assert results[0] == results[1] and results[0][0] == EXIT_OK
        assert results[0][1].out.startswith("certificate valid: gap")
        doc = json.loads(out.read_text())
        doc["runs"].insert(0, dict(doc["runs"][0], certificate=None, verdict="pass"))
        out.write_text(json.dumps(doc))
        assert (run(["verify", str(out)]), capsys.readouterr()) == results[1]
        # A passing report holds no certificate.
        assert run(["audit", "--states", "3", "--rule", "bayes", "--grid", "41", "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert run(["verify", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == ["no certificate found in file"]

    def test_forged_bayes_certificate_fails_dominance(self, tmp_path, capsys):
        # Its pi_prime is 2e-8 from every garbling of pi, which the garbling LP's optimum misses.
        forged = tmp_path / "bayes.certificate.json"
        forged.write_text(forged_bayes_certificate().dumps())
        assert run(["verify", str(forged)]) == EXIT_INVALID_CERT
        assert capsys.readouterr().out == "certificate invalid: dominance\n"

    def test_rule_of_another_state_count(self, tmp_path, capsys):
        # Grether maps never read n: a three-state certificate whose rule claimed 7 states verified.
        out = tmp_path / "rep.json"
        assert run(["audit", "--states", "3", "--rule", "grether(2,1)", "--grid", "41", "--out", str(out)]) == EXIT_VIOLATION
        cert_path = tmp_path / "rep.certificate.json"
        doc = json.loads(cert_path.read_text())
        doc["rule"]["n"] = 7
        cert_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", str(cert_path)]) == EXIT_INVALID_CERT
        assert capsys.readouterr().out == "certificate invalid: malformed\n"

    def test_swapped_experiments(self, cert_path, tmp_path):
        doc = json.loads(cert_path.read_text())
        doc["pi"], doc["pi_prime"] = doc["pi_prime"], doc["pi"]
        bad = tmp_path / "swapped.json"
        bad.write_text(json.dumps(doc))
        assert run(["verify", str(bad)]) == EXIT_INVALID_CERT

    def test_forged_gap(self, cert_path, tmp_path):
        doc = json.loads(cert_path.read_text())
        doc["gap"] = -1.0
        bad = tmp_path / "forged.json"
        bad.write_text(json.dumps(doc))
        assert run(["verify", str(bad)]) == EXIT_INVALID_CERT

    def test_perturbed_problem(self, cert_path, tmp_path):
        doc = json.loads(cert_path.read_text())
        doc["problem"]["payoff"][1][0] += 0.05
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(doc))
        assert run(["verify", str(bad)]) == EXIT_INVALID_CERT

    def test_non_finite_likelihood(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        run([
            "audit", "--states", "3", "--prior", "uniform", "--rule", "grether(2,1)",
            "--grid", "41", "--budget", "300", "--out", str(out),
        ])
        doc = json.loads((tmp_path / "report.certificate.json").read_text())
        doc["pi"]["likelihoods"][0][0] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", str(bad)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "must be finite" in captured.err
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize(
        "field, value",
        [("gap", float("nan")), ("alpha", float("nan")), ("tie_tol", float("nan")), ("tie_tol", -1.0)],
        ids=["gap", "alpha", "tie_tol", "negative-tie_tol"],
    )
    def test_non_finite_field(self, cert_path, tmp_path, capsys, field, value):
        # A negative tie_tol would let a gap of 0 verify.
        doc = json.loads(cert_path.read_text())
        if field == "gap":
            doc["gap"] = value
        elif field == "alpha":
            doc["rule"]["alpha"] = value
        else:
            doc["selector"]["tie_tol"] = value
        bad = tmp_path / f"bad-{field}.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", str(bad)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "cannot parse certificate" in captured.err
        assert "Traceback" not in captured.out + captured.err

    def test_malformed_table(self, cert_path, tmp_path, capsys):
        # A certificate's verdict cannot rest on a rule table that is no rule.
        doc = json.loads(cert_path.read_text())
        nodes = simplex_lattice(2, 101)
        doc["rule"] = _table(nodes, 5.0 * nodes - 2.0)
        bad = tmp_path / "table.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", str(bad)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "cannot parse certificate: every image of a tabulated rule" in captured.err
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("broken", ["beta", "table"])
    def test_rule_that_cannot_be_evaluated(self, tmp_path, capsys, broken):
        # verify meets such a rule as audit does: a configuration error, exit 2, not "invalid".
        out = tmp_path / "report.json"
        run([
            "audit", "--states", "3", "--prior", "uniform", "--rule", "grether(2,1)",
            "--grid", "41", "--budget", "300", "--out", str(out),
        ])
        cert = tmp_path / "report.certificate.json"
        assert run(["verify", str(cert)]) == EXIT_OK
        doc = json.loads(cert.read_text())
        if broken == "beta":
            doc["rule"]["beta"] = 800.0  # the prior's 800th power underflows: NaN images
            expected = "non-finite image"
        else:
            doc["rule"] = _table(np.eye(3), np.eye(3), tol=1e-9)  # answers at the vertices only
            expected = "queried off its nodes"
        bad = tmp_path / f"{broken}.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", str(bad)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error:") and expected in captured.err
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert "Traceback" not in captured.out + captured.err

    def test_off_segment_vertex_image(self, cert_path, tmp_path, capsys):
        doc = json.loads(cert_path.read_text())
        doc["prior"] = [1 / 3] * 3
        doc["rule"] = _OFF_SEGMENT
        bad = tmp_path / "off-segment.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", str(bad)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"cannot parse certificate: {_OFF_SEGMENT_ERROR}"]
        assert captured.out == ""

    def test_unreadable_file(self, tmp_path):
        bad = tmp_path / "junk.json"
        bad.write_text("{not json")
        assert run(["verify", str(bad)]) == EXIT_CONFIG
        assert run(["verify", str(tmp_path / "missing.json")]) == EXIT_CONFIG


@functools.lru_cache(maxsize=None)
def _valid_certificates() -> tuple:
    """Two verified certificates: two states, lex-first; three states, with a pin."""
    two = one_error("expansive", GretherRule(2.0, 1.0, 2), (0.5, 0.5), (0.7, 0.3), budget=100)
    pinned = Selector(SelectorPolicy.PINNED, pins=(((0.6, 0.2, 0.2), 1),))
    three = one_error("expansive", GretherRule(2.0, 1.0, 3), (1 / 3, 1 / 3, 1 / 3), (0.6, 0.2, 0.2), budget=100, sel=pinned)
    return json.dumps(two.to_json()), json.dumps(three.to_json())


@functools.lru_cache(maxsize=None)
def _unevaluable_certificate() -> str:
    """A verified n = 3 grether(2,1) certificate with beta set to 800: the
    prior's 800th power underflows, so the rule's images are NaN."""
    rep = audit(GretherRule(2.0, 1.0, 3), (1 / 3, 1 / 3, 1 / 3), grid_size=41, budget=300)
    doc = rep.certificate.to_json()
    doc["rule"]["beta"] = 800.0
    return json.dumps(doc)


def _paths(doc, prefix=()):
    """Every path into a JSON document, the root included."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


class TestVerifyFuzz:
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(data=st.data())
    def test_any_document_ends_in_a_documented_exit_code(self, data):
        # Random JSON (a mutation at the root) and single-field mutations of valid
        # certificates and of one whose rule cannot be evaluated.
        doc = json.loads(data.draw(st.sampled_from(_valid_certificates() + (_unevaluable_certificate(),))))
        path = data.draw(st.sampled_from(list(_paths(doc))))
        if path:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if data.draw(st.booleans()):
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(JSON_VALUES)
        else:
            doc = data.draw(JSON_VALUES)
        if data.draw(st.booleans()):
            doc = {"verdict": "violation", "certificate": doc}  # the report form verify also reads
        with tempfile.TemporaryDirectory() as tmp:
            target = Path(tmp) / "certificate.json"
            target.write_text(json.dumps(doc))
            assert main(["verify", str(target)]) in (EXIT_OK, EXIT_CONFIG, EXIT_INVALID_CERT)

    def test_unevaluable_certificate_exits_config(self, tmp_path):
        # The fuzz pool's certificate whose rule cannot be evaluated, unmutated.
        target = tmp_path / "certificate.json"
        target.write_text(_unevaluable_certificate())
        assert main(["verify", str(target)]) == EXIT_CONFIG


class TestColdStart:
    """scipy.optimize loads at the first LP or NNLS solve, not at import: a cold
    run that needs neither never pays for it, and one that does prints and
    writes what an in-process run with scipy.optimize already loaded does."""

    CHILD = textwrap.dedent("""
        import contextlib, io, json, sys
        import blackwell_audit.cli
        steps = [("import", None, "scipy.optimize" in sys.modules, "")]
        for argv in json.loads(sys.argv[1]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = blackwell_audit.cli.main(argv)
            steps.append((argv, code, "scipy.optimize" in sys.modules, out.getvalue()))
        print(json.dumps(steps))
    """)

    BAYES = [
        ["audit", "--rule", "bayes", "--states", "4", "--grid", "201", "--prior", "sweep:3", "--budget", "5000"],
        ["audit", "--rule", "bayes", "--states", "3", "--grid", "201", "--prior", "sweep:3", "--mode", "double"],
        ["audit", "--rule", "bayes", "--states", "3", "--grid", "41", "--prior", "sweep:3", "--budget", "200"],
    ]
    GRETHER = ["audit", "--rule", "grether(2,1)", "--states", "3", "--grid", "41", "--out", "report.json"]
    VERIFY = ["verify", "report.certificate.json"]

    def cold(self, cwd, *argvs):
        """Run ``argvs`` through cli.main in one fresh interpreter: per step,
        (argv, exit code, whether scipy.optimize is loaded, standard output)."""
        src = os.path.dirname(os.path.dirname(blackwell_audit.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        argv = [sys.executable, "-c", self.CHILD, json.dumps(argvs)]
        done = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=cwd, timeout=300)
        assert done.returncode == 0, done.stderr
        return [tuple(step) for step in json.loads(done.stdout)]

    def test_lp_free_runs_never_load_scipy_optimize(self, tmp_path):
        config_error = ["audit", "--states", "1", "--rule", "bayes"]
        bayes = [argv + ["--out", f"bayes-{k}.json"] for k, argv in enumerate(self.BAYES)]
        steps = self.cold(tmp_path, ["--help"], config_error, *bayes)
        expected = [(None, False), (EXIT_OK, False), (EXIT_CONFIG, False)] + [(EXIT_OK, False)] * len(bayes)
        assert [(code, loaded) for _, code, loaded, _ in steps] == expected

    def test_runs_that_solve_load_it_and_match_a_warm_run(self, tmp_path, monkeypatch, capsys):
        import scipy.optimize  # noqa: F401  (the warm run's interpreter has it loaded)

        cold, warm = tmp_path / "cold", tmp_path / "warm"
        cold.mkdir()
        warm.mkdir()
        (_, _, before, _), audited = self.cold(cold, self.GRETHER)
        (_, _, before_verify, _), verified = self.cold(cold, self.VERIFY)
        assert not before and not before_verify
        assert audited[1:3] == (EXIT_VIOLATION, True) and verified[1:3] == (EXIT_OK, True)
        monkeypatch.chdir(warm)
        outputs = []
        for argv in (self.GRETHER, self.VERIFY):
            capsys.readouterr()
            code = main(argv)
            outputs.append((argv, code, True, capsys.readouterr().out))
        assert outputs == [audited, verified]
        for name in ("report.json", "report.certificate.json"):
            assert (cold / name).read_bytes() == (warm / name).read_bytes(), name

#!/usr/bin/env python3
"""Regenerate the single-audit rows of ROADMAP.md's Baseline table.

    python3 perfbench/baseline.py

Report only, no gate.  Each row's time is the median of three untraced
audits; one more, traced, audit gives the notes: lattice
points and build time, census time, LP calls, budget used, recipe, and
random-search trials per second where the census is error-free (there
``budget_used`` counts trials).  Prints a markdown table, then the same
rows as one JSON line.
"""

import json
import statistics
import sys
import time

import run  # sets the one-thread BLAS environment before numpy loads

run.import_package()

import numpy as np  # noqa: E402

from blackwell_audit import auditor, decision, distortions, geometry  # noqa: E402
from tracer import Tracer  # noqa: E402

REPEATS = 3


def rows():
    """(label, rule, states, audit keyword arguments)."""
    lex_last = decision.Selector(decision.SelectorPolicy.LEX_LAST)
    yield "grether(2,1), n=3, grid 101", distortions.parse_rule("grether(2,1)", n=3), 3, {"grid_size": 101}
    yield "shrinkage(0.5), n=3, grid 101", distortions.parse_rule("shrinkage(0.5)", n=3), 3, {"grid_size": 101}
    yield "Bayes, n=3, grid 201, budget 5000", distortions.parse_rule("bayes", n=3), 3, {"grid_size": 201}
    yield "Bayes, n=4, grid 201, budget 5000", distortions.parse_rule("bayes", n=4), 4, {"grid_size": 201}
    yield (
        "random 4-state collapse rule, grid 41, budget 250",
        distortions.random_rule("occ-stubborn", 4, np.random.default_rng(0)), 4,
        {"grid_size": 41, "budget": 250},
    )
    yield (
        "random trivial rule, n=3, grid 41, budget 250",
        distortions.random_rule("trivial", 3, np.random.default_rng(0)), 3,
        {"grid_size": 41, "budget": 250},
    )
    yield (
        "Bayes, n=3, grid 201, budget 5000, LEX_LAST (general selector path)",
        distortions.parse_rule("bayes", n=3), 3, {"grid_size": 201, "sel": lex_last},
    )


def measure(rule, n: int, kwargs: dict) -> dict:
    mu = geometry.uniform_belief(n)
    times = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        auditor.audit(rule, mu, **kwargs)
        times.append(time.perf_counter() - t)
    tr = Tracer(run.EXTRACTORS)
    tr.install()
    try:
        rep = auditor.audit(rule, mu, **kwargs)
    finally:
        tr.uninstall()
    s = tr.summary()
    get = lambda name, key: s.get(name, {}).get(key, 0)
    (top,) = tr.spans(["auditor.audit"])
    census = rep.error_census
    trials = rep.budget_used if census["expansive"] + census["contractive"] == 0 else None
    search_s = run.search_seconds(tr, top)
    return {
        "time_s": statistics.median(times),
        "verdict": rep.verdict,
        "recipe": rep.certificate.recipe if rep.certificate else None,
        "budget_used": rep.budget_used,
        "lattice_points": int(get("geometry.simplex_lattice", "value")),
        "lattice_s": get("geometry.simplex_lattice", "s"),
        "census_s": get("distortions.classify_batch", "s"),
        "lp_calls": sum(r["calls"] for name, r in s.items() if name.endswith(".linprog")),
        "random_search_trials_per_s": trials / search_s if trials else None,
    }


def main() -> int:
    results = []
    print(f"| audit | time (median of {REPEATS}) | notes |")
    print("|---|---|---|")
    for label, rule, n, kwargs in rows():
        r = measure(rule, n, kwargs)
        results.append({"audit": label, **r})
        notes = [r["verdict"] + (f" via {r['recipe']}" if r["recipe"] else ""),
                 f"budget used {r['budget_used']}", f"{r['lp_calls']} LPs",
                 f"{r['lattice_points']:,} lattice points built in {r['lattice_s']:.2f} s",
                 f"census {r['census_s']:.2f} s"]
        if r["random_search_trials_per_s"]:
            notes.append(f"random search {r['random_search_trials_per_s']:,.0f} trials/s")
        print(f"| {label} | {1000 * r['time_s']:.0f} ms | {'; '.join(notes)} |")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Consolidate every built-in model and tabulate the compression results.

For each model: per-cluster node counts of the freshly inlined equations vs
the pass-minimized ones, the variables marginalized away, the intervention
atoms dropped, and the verification verdict of the final model against its
base.  Exits with status 1 when any verdict is not "equal".

Usage: python scripts/compression_table.py
"""

import sys
import time

from scmc import zoo
from scmc.verification import EquivalenceStrategy, verify_equivalence


def main() -> int:
    builders = [
        ("dominoes n=16", lambda: zoo.dominoes(16)),
        ("tool wear T=36", lambda: zoo.tool_wear(36)),
        ("firing squad N=5", lambda: zoo.firing_squad(5)),
        ("step by step", zoo.step_by_step),
        ("platformer", zoo.platformer),
    ]
    print(f"{'model':<18} {'cluster':>7} {'before':>7} {'after':>6} {'saved':>6}  verdict")
    not_equal = []
    for label, build in builders:
        entry = build()
        started = time.perf_counter()
        cons = entry.consolidated()
        strategy = (
            EquivalenceStrategy.sampled(count=256, seed=0)
            if entry.scm.interventions.size() > 4096
            else EquivalenceStrategy.exhaustive()
        )
        verdict = verify_equivalence(entry.scm, cons, entry.targets, strategy).verdict
        elapsed = time.perf_counter() - started
        if verdict != "equal":
            not_equal.append(label)
        for c in cons.report.clusters:
            saved = c.nodes_before - c.nodes_after
            print(
                f"{label:<18} {c.cluster:>7} {c.nodes_before:>7} {c.nodes_after:>6} "
                f"{saved:>6}  {verdict} ({elapsed:.2f}s)"
            )
            label = ""
        if cons.report.variables_marginalized:
            gone = ", ".join(str(v) for v in cons.report.variables_marginalized)
            print(f"{'':<18} marginalized: {gone}")
        if cons.report.atoms_dropped:
            gone = ", ".join(str(v) for v in cons.report.atoms_dropped)
            print(f"{'':<18} atoms dropped on: {gone}")
    if not_equal:
        print(f"not equal: {', '.join(not_equal)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

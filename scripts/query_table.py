#!/usr/bin/env python3
"""Query cost of five built-in models before and after consolidation.

For each model, draws 256 seeded inputs and times one query per input with
`eval_scm` on the base model and with `eval_consolidated` on the result of
its default consolidation, first under the empty intervention set and then
under one sampled set per input.  Prints µs per query (best of 5 timed
passes) and the ratio consolidated / base, so a ratio above 1 means the
consolidated model is slower to query.  Next to them it prints the ms that
building each model's generated code (`Plan.compiled`) takes, base /
consolidated, best of 5; the query times leave the build out.  Exits with
status 1 when any consolidated answer differs from the base answer on the
model's targets, or when either model's answer, which its generated code
computes, differs in any value or class from the tree walker's (`run_plan`
on the same plan).

Usage: python scripts/query_table.py
"""

import sys
import time

from scmc import zoo
from scmc.codegen import compile_plan
from scmc.consolidation import eval_consolidated
from scmc.evaluation import eval_scm, make_rng, run_plan, sample_exogenous
from scmc.expr import values_close
from scmc.scm import InterventionSet

DRAWS = 256
REPEATS = 5
SEED = 0

MODELS = [
    ("dominoes(128)", lambda: zoo.dominoes(128)),
    ("platformer", zoo.platformer),
    ("tool_wear(36)", lambda: zoo.tool_wear(36)),
    ("firing_squad(8)", lambda: zoo.firing_squad(8)),
    ("step_by_step", zoo.step_by_step),
]


def us_per_query(evaluate, model, cases) -> float:
    """Best of `REPEATS` timed passes over every case, in µs per case."""
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        for u, iv in cases:
            evaluate(model, u, iv)
        best = min(best, time.perf_counter() - started)
    return 1e6 * best / len(cases)


def build_ms(plan) -> float:
    """Best of `REPEATS` builds of the plan's generated code, in ms."""
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        compile_plan(plan)
        best = min(best, time.perf_counter() - started)
    return 1e3 * best


def main() -> int:
    print(
        f"{'model':<16} {'empty set: base / cons (ratio)':>32}  {'sampled sets: base / cons (ratio)':>34}"
        f"  {'build ms: base / cons':>22}"
    )
    differ, generated = [], []
    for label, build in MODELS:
        entry = build()
        cons = entry.consolidated()
        us = sample_exogenous(entry.scm, SEED, DRAWS)
        rng = make_rng(SEED + 1)
        columns = []
        builds = f"{build_ms(entry.scm.plan):.2f} / {build_ms(cons.plan):.2f}"
        for ivs in ([InterventionSet.empty()] * len(us), [entry.scm.interventions.sample(rng) for _ in us]):
            cases = list(zip(us, ivs))
            for u, iv in cases:
                want, got = eval_scm(entry.scm, u, iv), eval_consolidated(cons, u, iv)
                if not all(values_close(got[t], want[t]) for t in entry.targets):
                    differ.append(label)
                if repr(want) != repr(run_plan(entry.scm.plan, u, iv)) or repr(got) != repr(run_plan(cons.plan, u, iv)):
                    generated.append(label)
            base = us_per_query(eval_scm, entry.scm, cases)
            consolidated = us_per_query(eval_consolidated, cons, cases)
            columns.append(f"{base:.1f} / {consolidated:.1f} ({consolidated / base:.2f})")
        print(f"{label:<16} {columns[0]:>32}  {columns[1]:>34}  {builds:>22}", flush=True)
    if differ:
        print(f"consolidated answers differ: {', '.join(sorted(set(differ)))}", file=sys.stderr)
    if generated:
        print(f"generated code differs from run_plan: {', '.join(sorted(set(generated)))}", file=sys.stderr)
    return 1 if differ or generated else 0


if __name__ == "__main__":
    sys.exit(main())

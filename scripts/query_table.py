#!/usr/bin/env python3
"""Query cost of five built-in models before and after consolidation.

For each model, draws 256 seeded inputs and times one query per input with
`eval_scm` on the base model and with `eval_consolidated` on the result of
its default consolidation, first under the empty intervention set and then
under one sampled set per input.  Prints µs per query (best of 5 timed
passes) and the ratio consolidated / base, so a ratio above 1 means the
consolidated model is slower to query.  Exits with status 1 when any
consolidated answer differs from the base answer on the model's targets.

Usage: python scripts/query_table.py
"""

import sys
import time

from scmc import zoo
from scmc.consolidation import eval_consolidated
from scmc.evaluation import eval_scm, make_rng, sample_exogenous
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


def main() -> int:
    print(f"{'model':<16} {'empty set: base / cons (ratio)':>32}  {'sampled sets: base / cons (ratio)':>34}")
    differ = []
    for label, build in MODELS:
        entry = build()
        cons = entry.consolidated()
        us = sample_exogenous(entry.scm, SEED, DRAWS)
        rng = make_rng(SEED + 1)
        columns = []
        for ivs in ([InterventionSet.empty()] * len(us), [entry.scm.interventions.sample(rng) for _ in us]):
            cases = list(zip(us, ivs))
            for u, iv in cases:
                want, got = eval_scm(entry.scm, u, iv), eval_consolidated(cons, u, iv)
                if not all(values_close(got[t], want[t]) for t in entry.targets):
                    differ.append(label)
                    break
            base = us_per_query(eval_scm, entry.scm, cases)
            consolidated = us_per_query(eval_consolidated, cons, cases)
            columns.append(f"{base:.1f} / {consolidated:.1f} ({consolidated / base:.2f})")
        print(f"{label:<16} {columns[0]:>32}  {columns[1]:>34}", flush=True)
    if differ:
        print(f"consolidated answers differ: {', '.join(sorted(set(differ)))}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

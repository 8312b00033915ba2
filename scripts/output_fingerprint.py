#!/usr/bin/env python3
"""One SHA-256 per bench model and seed over everything a consolidation outputs.

For each model in bench/inputs/manifest.json and each of seeds 1, 7 and 13,
consolidates the frozen model with `PassConfig(seed=seed)` and verifies the
result under the bench's strategy rule (256 sampled cases with the seed past
4096 intervention sets, else exhaustive).  The hash covers the consolidated
document, the per-cluster node counts, the pass and reject logs and the whole
verify report.  The last line hashes every line before it, so two checkouts
compare with one command each:

    PYTHONPATH=src python scripts/output_fingerprint.py
"""

import hashlib
import json
import os
import sys

from scmc import documents as D
from scmc import expr as E
from scmc.consolidation import PassConfig, consolidate
from scmc.verification import EquivalenceStrategy, verify_equivalence

INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench", "inputs")
SEEDS = (1, 7, 13)
#: the bench's rule: sample past this many intervention sets
EXHAUSTIVE_SET_LIMIT = 4096
SAMPLED_CASES = 256


def load(row):
    stem = os.path.join(INPUTS, row["model"])
    with open(stem + ".model.json", encoding="utf-8") as fh:
        scm = D.model_from_doc(json.load(fh))
    with open(stem + ".partition.json", encoding="utf-8") as fh:
        partition = D.partition_from_doc(json.load(fh))
    targets = [E.parse_var_name(t) for t in row["targets"]]
    clusters = None if row["clusters"] is None else set(row["clusters"])
    return scm, partition, targets, clusters


def fingerprint(scm, partition, targets, clusters, seed: int) -> str:
    cons = consolidate(scm, partition, targets, clusters, PassConfig(seed=seed))
    if scm.interventions.size() > EXHAUSTIVE_SET_LIMIT:
        strategy = EquivalenceStrategy.sampled(count=SAMPLED_CASES, seed=seed)
    else:
        strategy = EquivalenceStrategy.exhaustive()
    report = verify_equivalence(scm, cons, targets, strategy)
    h = hashlib.sha256()
    for part in (
        D.to_json(D.consolidated_to_doc(cons)),
        repr([(c.cluster, c.nodes_before, c.nodes_after) for c in cons.report.clusters]),
        repr(cons.report.passes),
        repr(cons.report.rejected),
        repr(report),
    ):
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def main() -> int:
    with open(os.path.join(INPUTS, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    lines = []
    for workload in sorted(manifest):
        for row in manifest[workload]:
            model = load(row)
            for seed in SEEDS:
                lines.append(f"{row['model']} seed={seed} {fingerprint(*model, seed)}")
                print(lines[-1])
    print(f"total {hashlib.sha256(chr(10).join(lines).encode()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

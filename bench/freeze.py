#!/usr/bin/env python3
"""Write the benchmark's frozen workload inputs from the built-in model zoo.

Each model and its partition are stored as the library's own JSON documents,
next to a manifest that names, per workload, the models together with their
targets and the clusters to consolidate.  The benchmark only ever loads these
files, so a later change to `scmc.zoo` cannot silently change a workload.
Re-run this only to define a new baseline on purpose:

    PYTHONPATH=src python3 bench/freeze.py
"""

import json
import os
import sys

from scmc import documents as D
from scmc import zoo

INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "inputs")

# workload -> (file stem, zoo function); the zoo entry supplies partition,
# targets and cluster selection
WORKLOADS = {
    "compress": [
        ("platformer", zoo.platformer),
        ("firing_squad_8", lambda: zoo.firing_squad(8)),
        ("step_by_step", zoo.step_by_step),
    ],
    "chain": [("dominoes_128", lambda: zoo.dominoes(128))],
    "timeseries": [("tool_wear_36", lambda: zoo.tool_wear(36))],
}


def main() -> int:
    os.makedirs(INPUTS, exist_ok=True)
    manifest = {}
    for workload, models in WORKLOADS.items():
        rows = []
        for stem, build in models:
            entry = build()
            D.save(os.path.join(INPUTS, f"{stem}.model.json"), D.model_to_doc(entry.scm))
            D.save(os.path.join(INPUTS, f"{stem}.partition.json"), D.partition_to_doc(entry.partition))
            clusters = entry.consolidate_clusters
            rows.append(
                {
                    "model": stem,
                    "targets": [str(t) for t in entry.targets],
                    "clusters": None if clusters is None else sorted(clusters),
                }
            )
        manifest[workload] = rows
    with open(os.path.join(INPUTS, "manifest.json"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(manifest, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's result line, and a library that keeps standard output clean.

`bench/run.py` prints its result as the last line of standard output, one
JSON object that tools read with `tail -n 1`.  Each workload is run here for
about a second, and that line must parse and name exactly the end-to-end
metrics that BENCHMARK.json declares.  Nothing in the package may print
while it consolidates and verifies, or it could end up after that line.
"""

import json
import os
import subprocess
import sys

import pytest

from scmc import zoo
from scmc.verification import EquivalenceStrategy, verify_equivalence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_the_last_stdout_line_is_the_result(workload):
    command = [sys.executable, "bench/run.py", "--workload", workload]
    command += ["--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("name", ["platformer", "tool_wear", "step_by_step"])
def test_consolidating_and_verifying_print_nothing(name, capsys):
    entry = zoo.ZOO_BUILDERS[name]()
    cons = entry.consolidated()
    for strategy in (EquivalenceStrategy.exhaustive(), EquivalenceStrategy.sampled(count=64, seed=1)):
        verify_equivalence(entry.scm, cons, entry.targets, strategy)
    out, _ = capsys.readouterr()
    assert out == ""

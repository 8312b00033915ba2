"""The benchmark's result line, and a library that keeps standard output clean.

`bench/run.py` prints its result as the last line of standard output, one
strict JSON object (no NaN or Infinity) that tools read with `tail -n 1`.
Each workload is run here for about a second, untraced and traced, and that
line must parse and name exactly the end-to-end metrics, or with the trace
exactly the per-layer metrics, that BENCHMARK.json declares.  Nothing in the
package may print while it consolidates and verifies, or it could end up
after that line.
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


def _not_json(constant):
    raise ValueError(f"{constant} is not strict JSON")


def _run_bench(workload: str, trace: int) -> tuple[dict, str]:
    """One second of `bench/run.py`: its result line, parsed strictly, and its
    standard output."""
    command = [sys.executable, "bench/run.py", "--workload", workload]
    command += ["--seed", "1", "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip(), done.stderr
    result = json.loads(done.stdout.splitlines()[-1], parse_constant=_not_json)
    assert result["correct"] is True, result
    assert result["failed"] == 0
    return result, done.stdout


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_the_last_stdout_line_is_the_result(workload):
    result, _ = _run_bench(workload, 0)
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_the_traced_run_ends_with_every_layer_metric(workload):
    result, stdout = _run_bench(workload, 1)
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    assert "missing layer metrics" not in stdout


@pytest.mark.parametrize("name", ["platformer", "tool_wear", "step_by_step"])
def test_consolidating_and_verifying_print_nothing(name, capsys):
    entry = zoo.ZOO_BUILDERS[name]()
    cons = entry.consolidated()
    for strategy in (EquivalenceStrategy.exhaustive(), EquivalenceStrategy.sampled(count=64, seed=1)):
        verify_equivalence(entry.scm, cons, entry.targets, strategy)
    out, _ = capsys.readouterr()
    assert out == ""

"""The outputs of every bench model, pinned byte for byte.

`scripts/output_fingerprint.py` hashes, per bench model and seed, the
consolidated document, the per-cluster node counts, the pass and reject logs
and the verify report.  A change that is meant to keep outputs the same must
keep every one of these lines; a change that is meant to alter them updates
the lines here and says why.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DOMINOES = "0f1c9a1288de6d576d8a121f6f370888730857199972f75e2af30b15828e3899"
PLATFORMER = "7dd4d9b3b07a1fdf421433ae1edf2d751f160d732fd384d6ca59daee0bd72ea4"
FIRING_SQUAD = "3c024098ce6a388140025781ff70ed7243b75fc8de81915cf618347a04f1dd92"
STEP_BY_STEP = "76cde75cb13b26c58c4db338f1cb89ef02dcdb68c8f5270c6ecbbea634ae9102"
TOOL_WEAR = "c3f73c43312c035f9c8e27917315fa4ff38ab320be3df4355a6b1525ab8f1b93"

PINNED = [
    f"{model} seed={seed} {digest}"
    for model, digest in (
        ("dominoes_128", DOMINOES),
        ("platformer", PLATFORMER),
        ("firing_squad_8", FIRING_SQUAD),
        ("step_by_step", STEP_BY_STEP),
        ("tool_wear_36", TOOL_WEAR),
    )
    for seed in (1, 7, 13)
] + ["total ab4db082ac22aa5575fdca6f0d5f1e8e7f5772210c2d3764ca6f471559b7c26b"]


def test_every_bench_model_gives_its_pinned_outputs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, os.path.join("scripts", "output_fingerprint.py")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == PINNED

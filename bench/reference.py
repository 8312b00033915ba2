"""A fixed reference loop that the end-to-end timings are divided by.

On a shared host the same call can run 1.8 times slower for a minute or more
while a neighbour is busy, and no statistic over one run removes that.  The
reference loop does the kind of work scmc does (a recursive, `match`-based
evaluator over frozen dataclass trees that allocates a value object per
node) and slows down with it, so a timing divided by the loop's time stays
put while the host's speed moves.  The loop depends on nothing in `src/`, so
no change to scmc can move it.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Node:
    op: str
    kids: tuple = ()
    value: int = 0


@dataclass(frozen=True)
class Val:
    v: int


def _build(rng: random.Random, depth: int) -> Node:
    if depth == 0 or rng.random() < 0.2:
        return Node("leaf", (), rng.randrange(100))
    op = rng.choice(("add", "mul", "min", "ite"))
    arity = 3 if op == "ite" else 2
    return Node(op, tuple(_build(rng, depth - 1) for _ in range(arity)))


def _evaluate(tree: Node, env: dict) -> Val:
    # like scmc's evaluator: a closure per call, a new value object per node
    def ev(node: Node) -> Val:
        match node:
            case Node("leaf", _, v):
                return env.get(v) or Val(v)
            case Node("add", (a, b)):
                return Val(ev(a).v + ev(b).v)
            case Node("mul", (a, b)):
                return Val(ev(a).v * ev(b).v % 1000003)
            case Node("min", (a, b)):
                return Val(min(ev(a).v, ev(b).v))
            case Node("ite", (c, a, b)):
                return ev(a) if ev(c).v % 2 else ev(b)
        raise ValueError(node.op)

    return ev(tree)


_RNG = random.Random(7)
_TREES = [_build(_RNG, 12) for _ in range(5)]


def loop_s() -> float:
    """Seconds taken by one pass of the reference loop (4–8 ms).

    The cyclic garbage collector is paused for the pass: a full collection
    walks every object the benchmark holds, so its cost depends on scmc's
    heap, not on the host's speed.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        for i, tree in enumerate(_TREES):
            env = {j: Val(i * j) for j in range(0, 100, 3)}
            _evaluate(tree, env)
        return time.perf_counter() - t0
    finally:
        gc.enable()

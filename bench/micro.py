"""Per-layer micro measurements on a workload's own trees and case lists.

Each figure times one layer function in a plain loop, untraced, over inputs
the workload itself produced: the consolidated equations, the rewrite gate's
local case list for each consolidated cluster, and the verifier's case list
for the base model.  A loop is repeated until it has run for a fixed time and
the median repetition is reported.
"""

from __future__ import annotations

import statistics
import time

from scmc import consolidation as C
from scmc import evaluation as V
from scmc import expr as E
from scmc import images as I
from scmc import verification as Q

MIN_LOOP_S = 0.2
MIN_REPS = 3
#: cap on the cases a single micro loop walks, to bound its run time
MAX_CASES = 512


def loop_s(loop) -> float:
    """Median seconds of one `loop()` call over repeated calls."""
    reps = []
    started = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - started < MIN_LOOP_S:
        t0 = time.perf_counter()
        loop()
        reps.append(time.perf_counter() - t0)
    return statistics.median(reps)


_NOT_REACHED = E.VSym("__not_reached__")


def visits(e: E.Expr, env, iv) -> tuple[E.Value, int]:
    """The value of `e` and the number of nodes `eval_expr` visits for it.

    Follows `eval_expr`'s short-circuit rules (one branch of a conditional,
    guards up to the first true one, `and`/`or`, the fallback of an
    intervention value only when not intervened); every operator itself is
    evaluated by `eval_expr` on constant operands.
    """
    count = 0

    def truth(x: E.Expr) -> bool:
        return ev(x) == E.VBool(True)

    def ev(x: E.Expr) -> E.Value:
        nonlocal count
        count += 1
        match x:
            case E.IfThenElse(c, t, o):
                return ev(t) if truth(c) else ev(o)
            case E.CaseList(cases, default):
                for g, b in cases:
                    if truth(g):
                        return ev(b)
                return ev(default)
            case E.Binary("and", l, r):
                return E.VBool(truth(l) and truth(r))
            case E.Binary("or", l, r):
                return E.VBool(truth(l) or truth(r))
            case E.Binary(op, l, r):
                return E.eval_expr(E.Binary(op, E.Const(ev(l)), E.Const(ev(r))), {}, None)
            case E.Unary(op, a):
                return E.eval_expr(E.Unary(op, E.Const(ev(a))), {}, None)
            case E.InterventionValue(v, fb) if fb is not None and not iv.has(v):
                return ev(fb)
            case E.MaxIntervenedIndex(family, upper, default):
                probe = E.MaxIntervenedIndex(family, E.Const(ev(upper)), E.Const(_NOT_REACHED))
                got = E.eval_expr(probe, env, iv)
                return ev(default) if got == _NOT_REACHED else got
        return E.eval_expr(x, env, iv)

    value = ev(e)
    return value, count


def env_images(sub) -> dict:
    """The images `build_rho` assumes for a cluster's local inputs."""
    out = {}
    for v in sub.local_exogenous:
        dist = sub.local_dists.get(v)
        img = I.dist_image(dist) if dist is not None else I.TOP
        if isinstance(img, I.TopImage):
            img = I.domain_image(sub.domains[v])
        out[v] = img
    return out


def gate_cases(sub, seed: int) -> list:
    """The rewrite gate's own case list for a cluster."""
    strategy = Q.gate_strategy_for(sub, C.PassConfig(seed=seed))
    if strategy.mode == Q.EXHAUSTIVE:
        cases = Q.enumerate_local_cases(sub)
    else:
        cases = Q.sample_local_cases(sub, strategy.sample_count, strategy.seed)
    return cases[:MAX_CASES]


def verifier_cases(base, strategy) -> list:
    """The case list `verify_equivalence` walks for this strategy."""
    if strategy.mode == Q.EXHAUSTIVE:
        us = V.enumerate_exogenous(base, strategy.exogenous_budget)
        ivs = base.interventions.enumerate(strategy.intervention_budget)
        cases = [(u, iv) for u in us for iv in ivs]
    else:
        rng = V.make_rng(strategy.seed)
        us = V.sample_exogenous(base, strategy.seed, strategy.sample_count, strict=False)
        cases = list(zip(us, [base.interventions.sample(rng) for _ in us]))
    return cases[:MAX_CASES]


def measure(models, seed: int) -> tuple[dict[str, float], int]:
    """Micro figures over every model of a workload.

    `models` yields (base model, verifier strategy, consolidated model).
    Returns µs/ns per item, and the number of trees on which the visit
    counter's value disagreed with `eval_expr`.  A figure whose inputs are
    missing (no consolidated cluster, or no gate case function) is left out.
    """
    ccv_s = ccv_n = 0.0
    expr_s = expr_n = 0.0
    look_s = look_n = 0.0
    image_s = image_n = 0.0
    scm_s = scm_n = 0.0
    mismatches = 0
    for base, strategy, cons in models:
        cases = verifier_cases(base, strategy)
        scm_s += loop_s(lambda: [V.eval_scm(base, u, iv, check_membership=False) for u, iv in cases])
        scm_n += len(cases)
        for cluster in cons.clusters:
            if not isinstance(cluster, C.CcvCluster):
                continue
            ccv, sub = cluster.ccv, cluster.sub
            try:
                local = gate_cases(sub, seed)
            except AttributeError:  # the gate's case functions were renamed
                continue
            ccv_s += loop_s(lambda: [C.eval_ccv(ccv, env, iv) for env, iv in local])
            ccv_n += len(local)

            items = []
            for env, iv in local:
                out = C.eval_ccv(ccv, env, iv)
                scope = dict(env)
                for t in ccv.targets:
                    value, n = visits(ccv.rho[t], scope, iv)
                    mismatches += value != out[t]
                    items.append((ccv.rho[t], dict(scope), iv))
                    expr_n += n
                    scope[t] = out[t]
            expr_s += loop_s(lambda: [E.eval_expr(tree, env, iv) for tree, env, iv in items])

            queried = set()
            for tree in ccv.rho.values():
                queried |= E.intervention_queries(tree)
            pairs = [(iv, v) for _, iv in local for v in queried]
            if pairs:
                look_s += loop_s(lambda: [(iv.has(v), iv.get(v)) for iv, v in pairs])
                look_n += 2 * len(pairs)

            ictx = I.ImageContext(env_images(sub), sub.interventions, {})
            trees = [ccv.rho[t] for t in ccv.targets]
            image_s += loop_s(lambda: [I.image_of(tree, ictx) for tree in trees])
            image_n += len(trees)
    out = {"evaluation.eval_scm_us_per_case": 1e6 * scm_s / scm_n}
    if ccv_n:
        out["consolidation.eval_ccv_us_per_case"] = 1e6 * ccv_s / ccv_n
        out["expr.eval_ns_per_node"] = 1e9 * expr_s / expr_n
        out["images.top_call_us"] = 1e6 * image_s / image_n
    if look_n:
        out["scm.iset_lookup_ns"] = 1e9 * look_s / look_n
    return out, mismatches

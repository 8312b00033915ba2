"""Evaluating models under interventions and sampling their inputs.

Comparisons between two models always reuse the same exogenous draws.  Since
every equation is deterministic, pointwise equality per draw implies the
distributional equality that consolidation has to preserve, so the whole
test surface is built on shared-input pointwise checks.

Random draws come from a Philox counter-based generator, keyed only by the
user seed, so sample streams are reproducible across platforms and runs.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import expr as E
from . import scm as S
from .errors import (
    DomainError,
    InterventionNotAllowedError,
    NonDeterministicModelError,
    UnboundRefError,
    recursion_as_too_deep,
)
from .expr import Value, VarRef
from .partition import Partition, extract_sub_scm, order_clusters
from .scm import InterventionSet, Scm

Assignment = dict[VarRef, Value]


def make_rng(seed: int) -> np.random.Generator:
    """The package-wide generator: Philox keyed by the seed."""
    return np.random.Generator(np.random.Philox(seed))


def eval_scm(
    scm: Scm,
    u: Assignment,
    interventions: InterventionSet = None,
    rng=None,
    check_membership: bool = True,
) -> Assignment:
    """Evaluate every endogenous variable in declared (topological) order.

    Intervened variables take their forced value and their equation is
    skipped.  Every input and value is checked against its domain.  Runs
    the model's plan as generated code (`Plan.compiled`), built on the
    first call; it does not recurse per tree level, so a model nested
    deeper than the recursion limit evaluates.
    """
    iv = interventions if interventions is not None else InterventionSet.empty()
    if check_membership and not scm.interventions.contains(iv):
        raise InterventionNotAllowedError(f"{iv} is not in the allowed intervention space")
    return scm.plan.compiled(u, iv, rng)


@recursion_as_too_deep
def eval_partitioned(
    scm: Scm,
    partition: Partition,
    u: Assignment,
    interventions: InterventionSet = None,
    rng=None,
) -> Assignment:
    """Cluster-by-cluster evaluation; agrees exactly with `eval_scm`.

    Clusters run in a linear extension of the quotient order.  Each cluster
    selects its local inputs from the values accumulated so far, applies the
    projection of the intervention set onto its own variables, evaluates its
    equations, and merges the values back.  It walks the trees
    (`run_plan`), so a model nested too deeply for that raises
    `ModelTooDeepError`.
    """
    iv = interventions if interventions is not None else InterventionSet.empty()
    if not scm.interventions.contains(iv):
        raise InterventionNotAllowedError(f"{iv} is not in the allowed intervention space")
    subs = [extract_sub_scm(scm, partition.clusters[i]) for i in order_clusters(scm, partition)]
    clusters = tuple((sub.local_exogenous, sub.cluster, sub.rows) for sub in subs)
    return run_plan(replace(scm.plan, clusters=clusters), u, iv, rng)


def run_plan(plan: S.Plan, u: Assignment, iv: InterventionSet, rng=None) -> Assignment:
    """A plan's outputs on one case: every input is checked against its
    domain, then each cluster runs its rows on its local inputs, under the
    atoms of `iv` that it sees.  The tree-walking runner, for plans that run
    once; `plan.compiled(u, iv, rng)` returns and raises the same."""
    acc: Assignment = {}
    for var, dom in plan.inputs:
        if var not in u:
            raise UnboundRefError(var)
        x = acc[var] = u[var]
        if dom is not None and not dom._contains(x):
            raise DomainError(f"input {var}={x} is outside its domain")
    pairs = iv.assignments
    for inputs, visible, rows in plan.clusters:
        env = {v: acc[v] for v in inputs}
        run_rows(rows, env, dict(pairs) if visible is None else {v: x for v, x in pairs if v in visible}, rng)
        acc.update(env)
    return {v: acc[v] for v in plan.outputs}


def run_rows(rows, env: Assignment, forced: dict, rng=None) -> None:
    """Evaluate a plan's `(var, domain, tree)` rows in order into `env`,
    which holds their inputs; `forced` maps each intervened variable to its
    value.  A row with a domain takes its forced value and is checked
    against the domain; a row without one is evaluated as it stands."""
    for var, dom, tree in rows:
        if dom is None:
            env[var] = tree._eval(env, forced, rng)
            continue
        x = forced.get(var)
        if x is None:
            x = tree._eval(env, forced, rng)
        if not dom._contains(x):
            raise DomainError(f"{var} evaluated to {x}, outside its domain")
        env[var] = x


def sample_exogenous(scm: Scm, seed: int, count: int, strict: bool = True) -> list[Assignment]:
    """Draw `count` joint assignments of the exogenous variables.

    Deterministic given the seed.  Variables are drawn independently, in
    declared order, one variable after another within each draw.  In strict
    mode a model whose equations still contain raw draw nodes is rejected,
    since sampling it cannot be made consistent without reparameterization.
    """
    if count < 0:
        raise DomainError("count must be non-negative")
    if strict:
        for row in scm.endogenous:
            if E.contains_draw(row.equation):
                raise NonDeterministicModelError(
                    f"equation of {row.var} contains an unreparameterized draw"
                )
    rng = make_rng(seed)
    draws: list[Assignment] = []
    for _ in range(count):
        u: Assignment = {}
        for row in scm.exogenous:
            u[row.var] = _draw(row.dist, rng)
        draws.append(u)
    return draws


def _draw(dist: S.ExoDistribution, rng) -> Value:
    match dist:
        case S.PointMass(v):
            return v
        case S.UniformFinite(values):
            return values[int(rng.integers(len(values)))]
        case S.NormalDist(mean, variance):
            return E.VReal(float(mean + np.sqrt(variance) * rng.standard_normal()))
        case S.UniformReal(lo, hi):
            return E.VReal(float(lo + (hi - lo) * rng.random()))
        case S.BernoulliDist(p):
            return E.VBool(bool(rng.random() < p))
    raise TypeError(f"not a distribution: {dist!r}")


def enumerate_exogenous(scm: Scm, budget: int = 10**6) -> list[Assignment]:
    """Every joint input assignment, when all distributions have finite support."""
    supports: list[tuple[VarRef, list[Value]]] = []
    total = 1
    for row in scm.exogenous:
        sup = S.dist_support(row.dist)
        if sup is None:
            raise DomainError(f"{row.var} has continuous support")
        supports.append((row.var, sup))
        total *= len(sup)
        if total > budget:
            raise DomainError(f"joint exogenous support exceeds budget {budget}")
    out: list[Assignment] = [{}]
    for var, sup in supports:
        out = [{**a, var: v} for a in out for v in sup]
    return out

"""Evaluating models under interventions and sampling their inputs.

Comparisons between two models always reuse the same exogenous draws.  Since
every equation is deterministic, pointwise equality per draw implies the
distributional equality that consolidation has to preserve, so the whole
test surface is built on shared-input pointwise checks.

Random draws come from a Philox counter-based generator, keyed only by the
user seed, so sample streams are reproducible across platforms and runs.
"""

from __future__ import annotations

import numpy as np

from . import expr as E
from . import scm as S
from .errors import (
    DomainError,
    InterventionNotAllowedError,
    NonDeterministicModelError,
    UnboundRefError,
)
from .expr import Value, VarRef
from .partition import Partition, SubScm, extract_sub_scm, order_clusters, psi_restrict
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
    skipped.  The result is checked against each variable's domain.
    """
    iv = interventions if interventions is not None else InterventionSet.empty()
    if check_membership and not scm.interventions.contains(iv):
        raise InterventionNotAllowedError(f"{iv} is not in the allowed intervention space")
    env: Assignment = {}
    for row in scm.exogenous:
        if row.var not in u:
            raise UnboundRefError(row.var)
        if not row.domain._contains(u[row.var]):
            raise DomainError(f"input {row.var}={u[row.var]} is outside its domain")
        env[row.var] = u[row.var]
    forced_values = dict(iv.assignments)
    out: Assignment = {}
    for row in scm.endogenous:
        forced = forced_values.get(row.var)
        if forced is not None:
            val = forced
        else:
            val = row.equation._eval(env, forced_values, rng)
        if not row.domain._contains(val):
            raise DomainError(f"{row.var} evaluated to {val}, outside its domain")
        env[row.var] = val
        out[row.var] = val
    return out


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
    equations, and merges the values back.
    """
    iv = interventions if interventions is not None else InterventionSet.empty()
    if not scm.interventions.contains(iv):
        raise InterventionNotAllowedError(f"{iv} is not in the allowed intervention space")
    order = order_clusters(scm, partition)  # raises InvalidPartitionError
    subs = [extract_sub_scm(scm, partition.clusters[i]) for i in order]

    acc: Assignment = {}
    for row in scm.exogenous:
        if row.var not in u:
            raise UnboundRefError(row.var)
        acc[row.var] = u[row.var]

    for sub in subs:
        local_u = {v: acc[v] for v in sub.local_exogenous}
        local_iv = psi_restrict(iv, sub.cluster)
        values = eval_sub_scm(sub, local_u, local_iv, rng=rng)
        acc.update(values)

    return {v: acc[v] for v in scm.endo_vars()}


def eval_sub_scm(sub: SubScm, local_u: Assignment, local_iv: InterventionSet, rng=None) -> Assignment:
    env: Assignment = dict(local_u)
    run_sub_scm(sub, env, dict(local_iv.assignments), rng)
    return {v: env[v] for v in sub.order}


def run_sub_scm(sub: SubScm, env: Assignment, forced: dict, rng=None) -> None:
    """Evaluate a cluster's variables in order into `env`, which holds its
    local inputs; `forced` maps each intervened member to its value."""
    for var in sub.order:
        val = forced.get(var)
        if val is None:
            val = sub.equations[var]._eval(env, forced, rng)
        if not sub.domains[var]._contains(val):
            raise DomainError(f"{var} evaluated to {val}, outside its domain")
        env[var] = val


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

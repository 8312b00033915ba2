"""Building causal compositional variables and consolidated models.

The pipeline follows one recipe per cluster: work out which cluster
variables must survive (user targets plus anything a later cluster reads),
inline everything else into those survivors while attaching intervention
branches to every variable that can actually be intervened, then shrink the
resulting trees with the rewrite passes.  Clusters that are not selected for
consolidation ride along unchanged, so partial consolidation falls out of
the same machinery.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Optional

from . import expr as E
from . import images as I
from . import passes as P
from . import scm as S
from .errors import (
    EmptySpaceError,
    InterventionNotAllowedError,
    InvalidParameterError,
    InvalidPartitionError,
    InvalidTargetError,
    PassBudgetExceededError,
    recursion_as_too_deep,
)
from .evaluation import Assignment, run_plan
from .expr import Expr, VarRef, node_count, ref_sort_key
from .partition import (
    Partition,
    SubScm,
    check_partition,
    extract_sub_scm,
    order_clusters,
)
from .scm import InterventionSet, InterventionSpace, Scm


# ---------------------------------------------------------------------------
# Data model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ccv:
    """A causal compositional variable: one equation per surviving target.

    Equations reference only local exogenous variables, earlier targets of
    the same Ccv, and intervention primitives on cluster variables; the
    cluster's internal variables have been inlined away.
    """

    targets: tuple[VarRef, ...]  # in evaluation order
    rho: dict[VarRef, Expr]
    interventions: InterventionSpace  # the cluster-restricted space
    provenance: int  # source cluster index

    def total_nodes(self) -> int:
        return sum(node_count(self.rho[t]) for t in self.targets)

    @cached_property
    def rows(self) -> tuple[tuple[VarRef, None, Expr], ...]:
        """The targets as a plan's rows, without domains: each is evaluated
        as it stands.  Worked out on first use; not a field."""
        return tuple((t, None, self.rho[t]) for t in self.targets)


@dataclass
class PassLogEntry:
    cluster: int
    target: Optional[VarRef]  # None when one application swept every target
    pass_name: str
    nodes_removed: int
    verdict: str
    guards_dropped: int = 0


@dataclass
class ClusterReport:
    cluster: int
    members: tuple[VarRef, ...]
    consolidated: bool
    nodes_before: int = 0
    nodes_after: int = 0
    source_equation_nodes: int = 0
    inlined_images: dict[VarRef, int] = field(default_factory=dict)


@dataclass
class CompressionReport:
    clusters: list[ClusterReport] = field(default_factory=list)
    passes: list[PassLogEntry] = field(default_factory=list)
    rejected: list[PassLogEntry] = field(default_factory=list)
    variables_marginalized: list[VarRef] = field(default_factory=list)
    atoms_dropped: list[VarRef] = field(default_factory=list)

    def cluster_report(self, idx: int) -> ClusterReport:
        for c in self.clusters:
            if c.cluster == idx:
                return c
        raise KeyError(idx)


@dataclass(frozen=True)
class PassthroughCluster:
    index: int
    sub: SubScm


@dataclass(frozen=True)
class CcvCluster:
    index: int
    sub: SubScm
    ccv: Ccv


@dataclass(frozen=True)
class ConsolidatedScm:
    """The merge of per-cluster results, evaluable like a partitioned model."""

    name: str
    base_name: str
    exogenous: tuple[S.ExoVar, ...]
    clusters: tuple[CcvCluster | PassthroughCluster, ...]  # evaluation order
    targets: tuple[VarRef, ...]
    interventions: InterventionSpace  # post-pruning space
    dropped_atom_vars: frozenset[VarRef]
    domains: dict[VarRef, E.Domain]  # every computed variable
    report: CompressionReport

    def computed_vars(self) -> list[VarRef]:
        out: list[VarRef] = []
        for c in self.clusters:
            if isinstance(c, CcvCluster):
                out.extend(c.ccv.targets)
            else:
                out.extend(c.sub.order)
        return out

    def ccvs(self) -> list[Ccv]:
        return [c.ccv for c in self.clusters if isinstance(c, CcvCluster)]

    @cached_property
    def plan(self) -> S.Plan:
        """What every evaluator of this model runs, worked out on first use;
        not a field.  Each cluster sees the atoms on its own members but the
        marginalized ones; a consolidated cluster's rows are its Ccv's."""
        dropped = self.dropped_atom_vars
        clusters = tuple(
            (c.sub.local_exogenous, c.sub.cluster - dropped, c.ccv.rows if isinstance(c, CcvCluster) else c.sub.rows)
            for c in self.clusters
        )
        return S.Plan(tuple((row.var, row.domain) for row in self.exogenous), clusters, tuple(self.computed_vars()))


@dataclass
class PassConfig:
    """Knobs for the rewrite pipeline.

    The gate budget bounds the exhaustive case count per check; larger local
    spaces fall back to seeded sampling.  Speculative rewrites are only
    attempted where the gate can enumerate the local space completely.
    """

    passes: tuple[str, ...] = tuple(P.ALL_PASSES)
    max_rounds: int = 100
    tolerance: float = E.EPS_VAL
    gate_case_budget: int = 4096
    gate_sample_count: int = 256
    seed: int = 0
    gate: bool = True


# ---------------------------------------------------------------------------
# Required sets and childless pruning
# ---------------------------------------------------------------------------


def compute_required_set(cluster: Iterable[VarRef], targets: Iterable[VarRef], scm: Scm) -> set[VarRef]:
    """Targets inside the cluster plus cluster variables read by outsiders."""
    cset = set(cluster)
    tset = set(targets)
    graph = scm.graph
    outside = [v for v in scm.endo_vars() if v not in cset]
    needed_outside = S.relatives(graph, outside, "parents") & cset
    return (cset & tset) | needed_outside


def prune_childless(scm: Scm, targets: Iterable[VarRef]) -> tuple[Scm, list[VarRef], list[VarRef]]:
    """Repeatedly drop non-target sinks, then every atom on a removed variable.

    Returns the pruned model, the removed variables, and the variables whose
    intervention atoms were dropped.  Surviving variables are exactly the
    targets and their ancestors, values of which are untouched under any
    surviving intervention set.
    """
    tset = set(targets)
    for t in tset:
        if not any(r.var == t for r in scm.endogenous):
            raise InvalidTargetError(f"{t} is not an endogenous variable")
    graph = scm.graph
    position = {v: k for k, v in enumerate(scm.endo_vars())}
    consumers = {v: len(graph.children[v]) for v in position}
    alive = set(position)
    removed: list[VarRef] = []
    # peel sinks layer by layer, each layer in model order
    layer = [v for v in position if v not in tset and not consumers[v]]
    while layer:
        alive.difference_update(layer)
        removed.extend(layer)
        freed = []
        for v in layer:
            for p in graph.parents[v]:
                if p in alive:
                    consumers[p] -= 1
                    if not consumers[p] and p not in tset:
                        freed.append(p)
        layer = sorted(freed, key=position.__getitem__)
    had_atoms = [v for v in removed if scm.interventions.atom_values(v)]
    pruned = _restrict(scm, alive)
    pruned = replace(pruned, interventions=scm.interventions.drop_atoms(removed))
    return pruned, removed, had_atoms


def _restrict(scm: Scm, keep: Iterable[VarRef]) -> Scm:
    ks = set(keep)
    return replace(scm, endogenous=tuple(r for r in scm.endogenous if r.var in ks))


# ---------------------------------------------------------------------------
# Building the compositional equations
# ---------------------------------------------------------------------------


def wrap_intervention(var: VarRef, body: Expr) -> Expr:
    """The conditional-branching form: forced value when intervened, else body."""
    return E.IfThenElse(E.IsIntervened(var), E.InterventionValue(var), body)


def build_rho(
    sub: SubScm, targets: Iterable[VarRef], images: Optional[I.ImageContext] = None
) -> tuple[Ccv, dict[VarRef, int]]:
    """Inline a cluster's equations into its targets.

    Walks the cluster in topological order.  Non-target variables are
    substituted into their consumers (so they are never computed at
    evaluation time); target variables stay referencable, which keeps shared
    prefixes shared.  Any variable with an atom in the cluster's intervention
    space gets the conditional branch attached before it is consumed.

    Also returns the effective image size of every inlined variable, when
    finite: the raw material for the composition-bound bookkeeping.  The
    images are worked out in `images`, when given, so that `run_passes` can
    go on from them (see `_cluster_images`).
    """
    tset = set(targets)
    for t in tset:
        if t not in sub.cluster:
            raise InvalidTargetError(f"{t} is not in the cluster")

    ictx = images if images is not None else _cluster_images(sub)

    defs: dict[VarRef, Expr] = {}
    rho: dict[VarRef, Expr] = {}
    inlined_images: dict[VarRef, int] = {}
    order: list[VarRef] = []
    for var in sub.order:
        eq = sub.equations[var]
        bindings = {w: defs[w] for w in E.free_refs(eq) if w in defs}
        core = E.substitute(eq, bindings)
        if sub.interventions.atom_values(var):
            core = wrap_intervention(var, core)
        if var in tset:
            rho[var] = core
            order.append(var)
        else:
            defs[var] = core
            size = I.finite_size(I.image_of(core, ictx))
            if size is not None:
                inlined_images[var] = size
    ccv = Ccv(tuple(order), rho, sub.interventions, provenance=-1)
    return ccv, inlined_images


def _cluster_images(sub: SubScm) -> I.ImageContext:
    """An empty image context for the cluster: its local inputs' images and
    its intervention space."""
    return I.ImageContext(_local_env_images(sub), sub.interventions, {})


def _local_env_images(sub: SubScm) -> dict[VarRef, I.Image]:
    out: dict[VarRef, I.Image] = {}
    for v in sub.local_exogenous:
        dist = sub.local_dists.get(v)
        img = I.dist_image(dist) if dist is not None else I.TOP
        if isinstance(img, I.TopImage):
            img = I.domain_image(sub.domains[v])
        out[v] = img
    return out


# ---------------------------------------------------------------------------
# The pass pipeline
# ---------------------------------------------------------------------------


def _inverse_rules(sub: SubScm) -> list[tuple[Expr, Expr]]:
    rules: list[tuple[Expr, Expr]] = []
    for a, b in sub.inverse_pairs:
        if a not in sub.equations or b not in sub.equations:
            continue
        f_a, f_b = sub.equations[a], sub.equations[b]
        a_reads = E.free_refs(f_a)
        if len(a_reads) != 1 or E.free_refs(f_b) != {a}:
            continue
        (x,) = a_reads
        rules.append((E.substitute(f_b, {a: f_a}), E.Ref(x)))
        atom_vals = sub.interventions.atom_values(a)
        if atom_vals:
            wrapped = E.substitute(f_b, {a: wrap_intervention(a, f_a)})
            forced = E.substitute(f_b, {a: E.InterventionValue(a)})
            rules.append((wrapped, E.IfThenElse(E.IsIntervened(a), forced, E.Ref(x))))
            # variants with the forced value already specialized by earlier passes
            for v in atom_vals:
                w2 = E.substitute(f_b, {a: E.IfThenElse(E.IsIntervened(a), E.Const(v), f_a)})
                f2 = E.substitute(f_b, {a: E.Const(v)})
                rules.append((w2, E.IfThenElse(E.IsIntervened(a), f2, E.Ref(x))))
    return rules


def run_passes(
    ccv: Ccv,
    sub: SubScm,
    config: PassConfig = None,
    log: list[PassLogEntry] = None,
    rejected: list[PassLogEntry] = None,
    images: Optional[I.ImageContext] = None,
) -> Ccv:
    """Iterate the enabled passes to a fixpoint, gating every acceptance.

    A candidate is accepted only when it does not grow the tree and the
    equivalence gate answers Equal over the cluster's local spaces.  Raises
    when the round cap is hit while rewrites are still firing.

    The image passes share one image context: `images` when given, the one
    `build_rho` worked in, else a new one.  It forgets what it holds before
    every acceptance check and before `absorb`.

    A pure pass is deterministic, so it is not run again on a tree it left
    unchanged.  Per (pass, target), a memo holds the tree object the pass
    last left as it was; a sweep that meets that same object keeps it
    without running the pass.  `dedupe_targets` also reads the trees its
    sweep gave the earlier targets, so its memo holds those objects too.
    """
    from .verification import GateMemo, gate_strategy_for, verify_pass

    config = config or PassConfig()
    log = log if log is not None else []
    rejected = rejected if rejected is not None else []
    nondet = any(E.contains_draw(t) for t in ccv.rho.values())
    if nondet:
        return ccv  # draws make the gate meaningless; leave the tree alone

    if images is None:
        images = I.ImageContext(_local_env_images(sub), ccv.interventions, {})
    var_kinds = sub.var_kinds()
    inverse_rules = _inverse_rules(sub)
    strategy = gate_strategy_for(sub, config) if config.gate else None
    memo = GateMemo()
    exhaustive_gate = strategy is not None and strategy.mode == "exhaustive"
    #: (pass, target) -> the trees the pass last read and left unchanged
    idle: dict[tuple[str, VarRef], tuple[Expr, ...]] = {}

    current = ccv
    enabled = [p for p in config.passes if p in P.PURE_PASSES or p == P.ABSORB]

    def gated(trial: Ccv, pass_name: str, target, removed: int, guards: int, key) -> bool:
        nonlocal current
        # the memo would hold the old trees through the gate's allocations
        images.forget()
        verdict = "ungated"
        if strategy is not None:
            report = verify_pass(current, trial, sub, strategy, memo, key)
            verdict = report.verdict
            if report.verdict != "equal":
                rejected.append(
                    PassLogEntry(current.provenance, target, pass_name, removed, verdict, guards)
                )
                return False
        current = trial
        log.append(PassLogEntry(current.provenance, target, pass_name, removed, verdict, guards))
        return True

    for _round in range(config.max_rounds):
        changed = False
        for pass_name in enabled:
            if pass_name == P.ABSORB:
                if not exhaustive_gate:
                    continue  # speculative rewrites need a complete gate
                images.forget()
                for target in current.targets:
                    accepted = True
                    while accepted:
                        accepted = False
                        # passes are deterministic, so (pass, target, position)
                        # names one candidate for as long as `current` stands
                        for pos, candidate in enumerate(P.absorb_candidates(current.rho[target])):
                            before_tree = current.rho[target]
                            removed = node_count(before_tree) - node_count(candidate)
                            if candidate == before_tree or removed < 0:
                                continue
                            trial = replace(current, rho={**current.rho, target: candidate})
                            if gated(trial, P.ABSORB, target, removed, 0, (P.ABSORB, target, pos)):
                                accepted = True
                                changed = True
                                break
                continue
            # one application sweeps every target, then the gate runs once
            fn = P.PURE_PASSES[pass_name]
            ctx = P.PassContext(
                env_images=images.env,
                space=current.interventions,
                var_kinds=var_kinds,
                inverse_rules=inverse_rules,
                images=images,
            )
            reads_earlier = pass_name == "dedupe_targets"
            new_rho: dict[VarRef, Expr] = {}
            removed_total = 0
            guards_total = 0
            for target in current.targets:
                before_tree = current.rho[target]
                read = (before_tree, *new_rho.values()) if reads_earlier else (before_tree,)
                left = idle.get((pass_name, target))
                if left is not None and len(left) == len(read) and all(map(operator.is_, left, read)):
                    candidate = before_tree
                else:
                    ctx.stats = P.PassStats()
                    candidate = fn(before_tree, ctx)
                    removed = node_count(before_tree) - node_count(candidate)
                    if candidate == before_tree or removed < 0:
                        candidate = before_tree
                        idle[(pass_name, target)] = read
                    else:
                        removed_total += removed
                        guards_total += ctx.stats.guards_dropped
                new_rho[target] = candidate
                ctx.add_earlier_target(target, candidate)
            if all(new_rho[t] is current.rho[t] for t in current.targets):
                continue
            trial = replace(current, rho=new_rho)
            if gated(trial, pass_name, None, removed_total, guards_total, (pass_name,)):
                changed = True
        if not changed:
            return current
    raise PassBudgetExceededError(f"no fixpoint after {config.max_rounds} rounds")


# ---------------------------------------------------------------------------
# Evaluation of compositional variables and consolidated models
# ---------------------------------------------------------------------------


def ccv_plan(ccv: Ccv, inputs: tuple[VarRef, ...]) -> S.Plan:
    """A Ccv as a one-cluster plan over the local inputs `inputs`, which it
    takes as they stand, under every atom of a case's set: what the rewrite
    gate runs, per case and by columns."""
    return S.Plan(tuple((v, None) for v in inputs), ((inputs, None, ccv.rows),), ccv.targets)


@recursion_as_too_deep
def eval_ccv(ccv: Ccv, local_u: Assignment, local_iv: InterventionSet, rng=None) -> Assignment:
    """Evaluate the targets in order; earlier targets are visible to later
    ones.  The plan runs once, so it walks the trees (`run_plan`): a Ccv
    nested too deeply for that raises `ModelTooDeepError`."""
    return run_plan(ccv_plan(ccv, tuple(local_u)), local_u, local_iv, rng)


#: the variable of an intervention set's `(var, value)` pair
_VAR = operator.itemgetter(0)


def eval_consolidated(
    cons: ConsolidatedScm,
    u: Assignment,
    interventions: InterventionSet = None,
    rng=None,
    check_membership: bool = True,
) -> Assignment:
    """Evaluate a consolidated model.

    Atoms on marginalized variables are projected away (they cannot
    influence any surviving target): membership is checked without them, and
    no cluster sees them.  Clusters then run in order exactly like
    partitioned evaluation, each under its own atoms, with compositional
    equations standing in for the consolidated clusters.  Runs the model's
    plan as generated code (`Plan.compiled`), built on the first call; it
    does not recurse per tree level, so a model nested deeper than the
    recursion limit evaluates.
    """
    iv = interventions if interventions is not None else InterventionSet.empty()
    if check_membership:
        dropped = cons.dropped_atom_vars
        kept = iv.drop(dropped) if dropped and not dropped.isdisjoint(map(_VAR, iv.assignments)) else iv
        if not cons.interventions.contains(kept):
            raise InterventionNotAllowedError(f"{kept} is not in the allowed intervention space")
    return cons.plan.compiled(u, iv, rng)


# ---------------------------------------------------------------------------
# The end-to-end consolidation
# ---------------------------------------------------------------------------


@recursion_as_too_deep
def consolidate(
    scm: Scm,
    partition: Partition,
    targets: Iterable[VarRef],
    clusters_to_consolidate: Optional[Iterable[int]] = None,
    config: PassConfig = None,
) -> ConsolidatedScm:
    """Partition, prune, inline, and compress a model around the given targets.

    `clusters_to_consolidate` selects cluster indices of the *original*
    partition; everything else is kept as an ordinary sub-model.  Passing an
    empty set yields the partitioned model unchanged (no compositional
    equations at all).  An index outside the partition raises
    `InvalidPartitionError`, a pass name outside `passes.ALL_PASSES`
    `InvalidParameterError`, and an explicit intervention space that lists
    no set `EmptySpaceError`.  A model nested too deeply for the recursive
    tree walkers raises `ModelTooDeepError`.
    """
    config = config or PassConfig()
    unknown = [p for p in config.passes if p not in P.ALL_PASSES]
    if unknown:
        raise InvalidParameterError(f"unknown pass {unknown[0]!r}; the passes are {', '.join(P.ALL_PASSES)}")
    tlist = sorted(set(targets), key=ref_sort_key)
    endo = set(scm.endo_vars())
    for t in tlist:
        if t not in endo:
            raise InvalidTargetError(f"target {t} is not endogenous")
    pre_report = check_partition(scm, partition)
    if not pre_report.valid:
        raise InvalidPartitionError(str(pre_report))
    if scm.interventions.mode == S.EXPLICIT and not scm.interventions.sets:
        raise EmptySpaceError()

    pruned, removed, atom_vars = prune_childless(scm, tlist)
    survivor_partition = partition.restrict_to(pruned.endo_vars())
    index_map = [i for i, c in enumerate(partition.clusters) if c & set(pruned.endo_vars())]

    order = order_clusters(pruned, survivor_partition)
    if clusters_to_consolidate is None:
        selected = set(range(len(partition.clusters)))
    else:
        selected = set(clusters_to_consolidate)
        missing = selected - set(range(len(partition.clusters)))
        if missing:
            raise InvalidPartitionError(f"no cluster with index {sorted(missing)}")

    report = CompressionReport(
        variables_marginalized=removed,
        atoms_dropped=atom_vars,
    )
    # every sub-model and required set first: the pruned model, and the graph
    # cached on it, are then let go before the passes run
    work = []
    for pos in order:
        cluster = survivor_partition.clusters[pos]
        required = compute_required_set(cluster, tlist, pruned) if index_map[pos] in selected else None
        work.append((index_map[pos], cluster, extract_sub_scm(pruned, cluster), required))
    domains = {}
    for row in pruned.endogenous:
        domains.setdefault(row.var, row.domain)  # the first row, as `domain_of` reads it
    exogenous, interventions = pruned.exogenous, pruned.interventions
    del pruned

    built: list[CcvCluster | PassthroughCluster] = []
    for original_index, cluster, sub, required in work:
        creport = ClusterReport(
            cluster=original_index,
            members=tuple(sorted(cluster, key=ref_sort_key)),
            consolidated=required is not None,
            source_equation_nodes=sum(node_count(sub.equations[v]) for v in sub.order),
        )
        if required is not None:
            images = _cluster_images(sub)
            ccv, inlined = build_rho(sub, required, images)
            ccv = replace(ccv, provenance=original_index)
            creport.nodes_before = ccv.total_nodes()
            creport.inlined_images = inlined
            ccv = run_passes(ccv, sub, config, log=report.passes, rejected=report.rejected, images=images)
            creport.nodes_after = ccv.total_nodes()
            built.append(CcvCluster(original_index, sub, ccv))
        else:
            creport.nodes_before = creport.source_equation_nodes
            creport.nodes_after = creport.source_equation_nodes
            built.append(PassthroughCluster(original_index, sub))
        report.clusters.append(creport)

    cons = ConsolidatedScm(
        name=f"{scm.name}.consolidated",
        base_name=scm.name,
        exogenous=exogenous,
        clusters=tuple(built),
        targets=tuple(tlist),
        interventions=interventions,
        dropped_atom_vars=frozenset(removed),
        domains=domains,
        report=report,
    )
    for t in tlist:
        if t not in set(cons.computed_vars()):
            raise InvalidTargetError(f"target {t} was lost during consolidation")
    return cons


def attach_ccvs(cons: ConsolidatedScm, ccvs: dict[int, Ccv]) -> ConsolidatedScm:
    """Swap hand-written compositional equations into selected clusters."""
    new_clusters: list[CcvCluster | PassthroughCluster] = []
    seen = set()
    for cluster in cons.clusters:
        if cluster.index in ccvs:
            ccv = replace(ccvs[cluster.index], provenance=cluster.index)
            need = set(ccv.targets)
            if not need <= set(cluster.sub.cluster):
                raise InvalidTargetError("closed form targets variables outside the cluster")
            new_clusters.append(CcvCluster(cluster.index, cluster.sub, ccv))
            seen.add(cluster.index)
        else:
            new_clusters.append(cluster)
    missing = set(ccvs) - seen
    if missing:
        raise InvalidPartitionError(f"no cluster with index {sorted(missing)}")
    return replace(cons, clusters=tuple(new_clusters))


@dataclass(frozen=True)
class VerifiedCcv:
    ccv: Ccv
    node_count: int
    consolidated: ConsolidatedScm
    report: object  # EquivalenceReport


def register_closed_form(
    scm: Scm,
    partition: Partition,
    targets: Iterable[VarRef],
    cluster_index: int,
    ccv: Ccv,
    strategy=None,
) -> VerifiedCcv:
    """Adopt a hand-written compositional form after it survives verification.

    The candidate replaces the pipeline's output for one cluster; every other
    cluster stays a plain sub-model.  Equivalence against the base model is
    mandatory; a mismatch raises with the counterexample attached.
    """
    from .verification import EquivalenceStrategy, verify_equivalence
    from .errors import EquivalenceFailedError

    cons = consolidate(
        scm,
        partition,
        targets,
        clusters_to_consolidate=set(),
        config=PassConfig(gate=False),
    )
    candidate = attach_ccvs(cons, {cluster_index: ccv})
    for cluster in candidate.clusters:
        if cluster.index != cluster_index:
            continue
        pruned_view = _restrict(scm, cons.computed_vars())
        required = compute_required_set(cluster.sub.cluster, cons.targets, pruned_view)
        if set(required) - set(ccv.targets):
            missing = ", ".join(
                str(v) for v in sorted(set(required) - set(ccv.targets), key=ref_sort_key)
            )
            raise InvalidTargetError(f"closed form misses required variables: {missing}")
    strategy = strategy or EquivalenceStrategy.exhaustive()
    report = verify_equivalence(scm, candidate, candidate.targets, strategy)
    if report.verdict != "equal":
        raise EquivalenceFailedError(report)
    return VerifiedCcv(ccv, ccv.total_nodes(), candidate, report)

"""Partitioning a model into sub-models with restricted intervention spaces.

A partition groups the endogenous variables into disjoint exhaustive
clusters.  It is usable only when the quotient graph over clusters is
acyclic: otherwise evaluating one cluster would require values that are
computed later, inside another cluster that itself waits on the first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from . import expr as E
from . import scm as S
from .errors import InvalidPartitionError, UnknownVariableError
from .expr import Domain, Expr, VarRef, ref_sort_key
from .scm import InterventionSet, InterventionSpace, Scm


@dataclass(frozen=True)
class Partition:
    clusters: tuple[frozenset[VarRef], ...]

    @staticmethod
    def of(clusters: Iterable[Iterable[VarRef]]) -> "Partition":
        return Partition(tuple(frozenset(c) for c in clusters))

    def cluster_of(self, var: VarRef) -> Optional[int]:
        for i, c in enumerate(self.clusters):
            if var in c:
                return i
        return None

    def restrict_to(self, keep: Iterable[VarRef]) -> "Partition":
        """Drop variables outside `keep`; empty clusters disappear."""
        ks = set(keep)
        return Partition(tuple(c & ks for c in self.clusters if c & ks))


@dataclass
class PartitionReport:
    findings: list[str] = field(default_factory=list)
    cycle_witness: Optional[list[int]] = None

    @property
    def valid(self) -> bool:
        return not self.findings

    def __str__(self):
        return "valid" if self.valid else "; ".join(self.findings)


def _quotient_edges(scm: Scm, partition: Partition) -> dict[int, set[int]]:
    graph = scm.graph
    owner: dict[VarRef, int] = {}
    for i, cluster in enumerate(partition.clusters):
        for v in cluster:
            owner[v] = i
    edges: dict[int, set[int]] = {i: set() for i in range(len(partition.clusters))}
    for child in scm.endo_vars():
        ci = owner.get(child)
        if ci is None:
            continue
        for parent in graph.parents[child]:
            pi = owner.get(parent)
            if pi is not None and pi != ci:
                edges[pi].add(ci)
    return edges


def check_partition(scm: Scm, partition: Partition) -> PartitionReport:
    """Exclusivity, exhaustiveness, and acyclicity of the cluster quotient.

    Quotient acyclicity is equivalent to the evaluation-order relation over
    clusters being a strict partial order, and it produces a witness cycle
    when violated.
    """
    return _checked_quotient(scm, partition)[0]


def _checked_quotient(scm: Scm, partition: Partition) -> tuple[PartitionReport, Optional[dict[int, set[int]]]]:
    """`check_partition`'s report, and the quotient edges it worked out: None
    when the clusters do not cover the model exactly once."""
    report = PartitionReport()
    endo = set(scm.endo_vars())

    seen: set[VarRef] = set()
    for i, cluster in enumerate(partition.clusters):
        if not cluster:
            report.findings.append(f"cluster {i} is empty")
        for v in cluster:
            if v not in endo:
                report.findings.append(f"cluster {i} contains non-endogenous {v}")
            if v in seen:
                report.findings.append(f"{v} appears in more than one cluster")
            seen.add(v)
    missing = endo - seen
    if missing:
        names = ", ".join(str(v) for v in sorted(missing, key=ref_sort_key))
        report.findings.append(f"not exhaustive, missing: {names}")
    if report.findings:
        return report, None

    edges = _quotient_edges(scm, partition)
    cycle = S.find_cycle({i: sorted(dsts) for i, dsts in edges.items()})
    if cycle is not None:
        report.cycle_witness = cycle
        pretty = " -> ".join(_cluster_label(partition.clusters[i]) for i in cycle)
        report.findings.append(f"cluster quotient has a cycle: {pretty}")
    return report, edges


def _cluster_label(cluster: frozenset[VarRef]) -> str:
    return "{" + ",".join(str(v) for v in sorted(cluster, key=ref_sort_key)) + "}"


def order_clusters(scm: Scm, partition: Partition) -> list[int]:
    """A linear extension of the cluster quotient, as cluster indices.

    Deterministic: among ready clusters the one with the smallest original
    index goes first.
    """
    report, edges = _checked_quotient(scm, partition)
    if not report.valid:
        raise InvalidPartitionError(str(report))
    indeg = {i: 0 for i in edges}
    for src, dsts in edges.items():
        for d in dsts:
            indeg[d] += 1
    ready = sorted(i for i, d in indeg.items() if d == 0)
    out: list[int] = []
    while ready:
        node = ready.pop(0)
        out.append(node)
        for d in sorted(edges[node]):
            indeg[d] -= 1
            if indeg[d] == 0:
                ready.append(d)
        ready.sort()
    return out


def psi_restrict(iset: InterventionSet, cluster: Iterable[VarRef]) -> InterventionSet:
    """Keep exactly the atoms whose variable lies in the cluster."""
    return iset.restrict(cluster)


@dataclass(frozen=True)
class SubScm:
    """One cluster packaged as a model of its own.

    Local exogenous variables are the cluster's parents outside it; their
    distributions are whatever the enclosing model induces, so only the ones
    that are truly exogenous in the base model carry a sampling distribution
    here.
    """

    cluster: frozenset[VarRef]
    local_exogenous: tuple[VarRef, ...]
    order: tuple[VarRef, ...]  # cluster members, base topological order
    equations: dict[VarRef, Expr]
    domains: dict[VarRef, Domain]  # cluster plus local exogenous
    local_dists: dict[VarRef, S.ExoDistribution]  # truly exogenous locals only
    interventions: InterventionSpace
    inverse_pairs: tuple[tuple[VarRef, VarRef], ...] = ()

    def var_kinds(self) -> dict[VarRef, str]:
        return {v: E.domain_kind(d) for v, d in self.domains.items()}

    @property
    def rows(self) -> tuple[tuple[VarRef, Domain, Expr], ...]:
        """The cluster's `(var, domain, equation)` rows in order, as a plan holds them."""
        return tuple((v, self.domains[v], self.equations[v]) for v in self.order)


def extract_sub_scm(scm: Scm, cluster: Iterable[VarRef]) -> SubScm:
    """Restrict the model to one cluster, with the projected intervention space."""
    cset = frozenset(cluster)
    endo = set(scm.endo_vars())
    for v in cset:
        if v not in endo:
            raise UnknownVariableError(v)
    graph = scm.graph
    local_exo = sorted(S.relatives(graph, cset, "parents") - cset, key=ref_sort_key)
    order = tuple(v for v in scm.endo_vars() if v in cset)
    # each variable's first row, endogenous before exogenous, as `domain_of` reads it
    rows = {row.var: row for row in reversed(scm.endogenous + scm.exogenous)}
    equations = {v: rows[v].equation for v in order}
    domains = {v: rows[v].domain for v in (*order, *local_exo)}
    exo_set = set(scm.exo_vars())
    local_dists = {v: scm.dist_of(v) for v in local_exo if v in exo_set}
    pairs = tuple(p for p in scm.inverse_pairs if p[0] in cset and p[1] in cset)
    return SubScm(
        cluster=cset,
        local_exogenous=tuple(local_exo),
        order=order,
        equations=equations,
        domains=domains,
        local_dists=local_dists,
        interventions=scm.interventions.restrict(cset),
        inverse_pairs=pairs,
    )


def sub_scm_as_scm(sub: SubScm, name: str = "sub") -> Scm:
    """View a sub-model as a standalone model, to validate it or check it as
    the verifier checks a model.

    A local input without an induced distribution is uniform over its
    domain: over its values when they are finite, else over a real interval
    whose missing bound lies 2 past the other one, or [-1, 1) with neither.
    """
    exo_rows = []
    for v in sub.local_exogenous:
        dom = sub.domains[v]
        dist = sub.local_dists.get(v)
        if dist is None:
            dist = _uniform_over(dom)
        exo_rows.append(S.ExoVar(v, dom, dist))
    endo_rows = [S.EndoVar(v, sub.domains[v], sub.equations[v]) for v in sub.order]
    return Scm(
        name=name,
        endogenous=tuple(endo_rows),
        exogenous=tuple(exo_rows),
        interventions=sub.interventions,
        inverse_pairs=sub.inverse_pairs,
    )


def _uniform_over(dom: Domain) -> S.ExoDistribution:
    if E.domain_is_finite(dom):
        return S.UniformFinite(tuple(E.domain_values(dom)))
    lo, hi = dom.lo, dom.hi
    if lo is None:
        lo = -1.0 if hi is None else hi - 2.0
    if hi is None:
        hi = lo + 2.0
    return S.UniformReal(lo, hi)

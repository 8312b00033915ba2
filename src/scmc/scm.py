"""Structural causal models: variables, equations, allowed interventions.

A model couples an ordered table of endogenous variables (each with a
deterministic equation), a table of exogenous inputs (each with a sampling
distribution), and a family of allowed intervention sets.  The family is
closed under subsets and never contains two atoms on the same variable
within one set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterable, Mapping, Optional, Union

import numpy as np

from . import codegen
from . import expr as E
from .errors import (
    DomainError,
    EmptySpaceError,
    EnumerationTooLargeError,
    UnknownVariableError,
)
from .expr import Domain, Expr, Value, VarRef, domain_kind, ref_sort_key

# ---------------------------------------------------------------------------
# Exogenous distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointMass:
    value: Value


@dataclass(frozen=True)
class UniformFinite:
    values: tuple[Value, ...]


@dataclass(frozen=True)
class NormalDist:
    mean: float
    variance: float


@dataclass(frozen=True)
class UniformReal:
    lo: float
    hi: float


@dataclass(frozen=True)
class BernoulliDist:
    """Only legitimate before reparameterization; strict sampling rejects it."""

    p: float


ExoDistribution = Union[PointMass, UniformFinite, NormalDist, UniformReal, BernoulliDist]


def dist_support(dist: ExoDistribution) -> Optional[list[Value]]:
    """Finite support of a distribution, or None when it is continuous."""
    match dist:
        case PointMass(v):
            return [v]
        case UniformFinite(values):
            return list(values)
        case BernoulliDist():
            return [E.VBool(False), E.VBool(True)]
        case NormalDist() | UniformReal():
            return None
    raise TypeError(f"not a distribution: {dist!r}")


# ---------------------------------------------------------------------------
# Intervention sets and spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InterventionSet:
    """One concrete set of perfect interventions, at most one per variable."""

    assignments: tuple[tuple[VarRef, Value], ...]

    @staticmethod
    def of(mapping: dict[VarRef, Value] | Iterable[tuple[VarRef, Value]]) -> "InterventionSet":
        pairs = list(mapping.items()) if isinstance(mapping, dict) else list(mapping)
        seen = set()
        for var, _ in pairs:
            if var in seen:
                raise DomainError(f"two interventions on {var} in one set")
            seen.add(var)
        return InterventionSet(tuple(sorted(pairs, key=lambda p: ref_sort_key(p[0]))))

    @staticmethod
    def empty() -> "InterventionSet":
        return _EMPTY_INTERVENTIONS

    def has(self, var: VarRef) -> bool:
        return any(v == var for v, _ in self.assignments)

    def get(self, var: VarRef) -> Optional[Value]:
        for v, val in self.assignments:
            if v == var:
                return val
        return None

    def restrict(self, cluster: Iterable[VarRef]) -> "InterventionSet":
        keep = set(cluster)
        return InterventionSet(tuple(p for p in self.assignments if p[0] in keep))

    def drop(self, vars_out: Iterable[VarRef]) -> "InterventionSet":
        gone = set(vars_out)
        return InterventionSet(tuple(p for p in self.assignments if p[0] not in gone))

    def vars(self) -> tuple[VarRef, ...]:
        return tuple(v for v, _ in self.assignments)

    def __len__(self):
        return len(self.assignments)

    def __str__(self):
        if not self.assignments:
            return "{}"
        inner = ", ".join(f"do({v}={_fmt_value(val)})" for v, val in self.assignments)
        return "{" + inner + "}"


_EMPTY_INTERVENTIONS = InterventionSet(())


def _fmt_value(v: Value) -> str:
    match v:
        case E.VBool(b):
            return "true" if b else "false"
        case E.VInt(i):
            return str(i)
        case E.VReal(r):
            return repr(r)
        case E.VSym(name):
            return name
    return repr(v)


POWER_SET = "power_set"
EXPLICIT = "explicit"
SINGLETON = "singleton"
#: the modes whose members are listed by position
_LISTED = (EXPLICIT, SINGLETON)


@dataclass(frozen=True)
class InterventionSpace:
    """The family of allowed intervention sets.

    Stored intensionally: `power_set` admits any value-consistent subset of
    the atom table, `singleton` admits the empty set and one-atom sets, and
    `explicit` lists every member outright.  The two generator modes are
    closed under subsets by construction.
    """

    mode: str
    atoms: tuple[tuple[VarRef, tuple[Value, ...]], ...] = ()
    sets: tuple[InterventionSet, ...] = ()

    @staticmethod
    def power_set(atoms: Iterable[tuple[VarRef, Iterable[Value]]]) -> "InterventionSpace":
        return InterventionSpace(POWER_SET, _norm_atoms(atoms))

    @staticmethod
    def singletons(atoms: Iterable[tuple[VarRef, Iterable[Value]]]) -> "InterventionSpace":
        return InterventionSpace(SINGLETON, _norm_atoms(atoms))

    @staticmethod
    def explicit(sets: Iterable[InterventionSet]) -> "InterventionSpace":
        seen: list[InterventionSet] = []
        for s in sets:
            if s not in seen:
                seen.append(s)
        atoms: dict[VarRef, list[Value]] = {}
        for s in seen:
            for var, val in s.assignments:
                atoms.setdefault(var, [])
                if val not in atoms[var]:
                    atoms[var].append(val)
        normed = tuple(
            (var, tuple(vals)) for var, vals in sorted(atoms.items(), key=lambda p: ref_sort_key(p[0]))
        )
        ordered = tuple(sorted(seen, key=lambda s: [(ref_sort_key(v), repr(val)) for v, val in s.assignments]))
        return InterventionSpace(EXPLICIT, normed, ordered)

    @cached_property
    def _atom_index(self) -> dict[VarRef, tuple[Value, ...]]:
        """The atom table by variable, built on first use.

        Not a field: equality, hashing, repr and documents ignore it.  The
        first row wins, as a scan of `atoms` would.
        """
        index: dict[VarRef, tuple[Value, ...]] = {}
        for v, vals in self.atoms:
            index.setdefault(v, vals)
        return index

    @cached_property
    def _atom_pairs(self) -> tuple[tuple, Callable[[tuple], InterventionSet]]:
        """Per atom row, its `(var, value)` pairs, and what makes a set of a
        selection of them in row order.

        That is the `InterventionSet` constructor when the rows are in
        `ref_sort_key` order, one per variable, as `_norm_atoms` leaves
        them, since `InterventionSet.of` would sort and check them for
        nothing; else `InterventionSet.of`.  Worked out once per space,
        since `InterventionSpace(...)` takes atoms in any order.
        """
        rows = tuple(tuple((v, val) for val in vals) for v, vals in self.atoms)
        keys = [ref_sort_key(v) for v, _ in self.atoms]
        canonical = len({v for v, _ in self.atoms}) == len(keys) and keys == sorted(keys)
        return rows, InterventionSet if canonical else InterventionSet.of

    @property
    def atoms_canonical(self) -> bool:
        """Whether the atom rows are in `ref_sort_key` order, one per
        variable, as `_norm_atoms` leaves them."""
        return self._atom_pairs[1] is InterventionSet

    def atom_values(self, var: VarRef) -> tuple[Value, ...]:
        return self._atom_index.get(var, ())

    def intervenable_vars(self) -> list[VarRef]:
        return [v for v, vals in self.atoms if vals]

    def family_atoms(self, family: str) -> list[tuple[VarRef, tuple[Value, ...]]]:
        return [
            (v, vals)
            for v, vals in self._atom_index.items()
            if v.name == family and v.index is not None
        ]

    def has_family_atom(
        self, family: str, lo: Optional[int] = None, hi: Optional[int] = None, value: Optional[Value] = None
    ) -> bool:
        """Whether some atom on a member of `family` with an index in lo..hi
        forces `value`, or any value when it is None: whether an
        `ExistsIntervention` with these fields can hold in this space."""
        for var, vals in self.family_atoms(family):
            if lo is not None and var.index < lo:
                continue
            if hi is not None and var.index > hi:
                continue
            if value is not None and value not in vals:
                continue
            return True
        return False

    def contains(self, iset: InterventionSet) -> bool:
        if self.mode == EXPLICIT:
            return iset in self.sets
        pairs = iset.assignments
        if self.mode == SINGLETON and len(pairs) > 1:
            return False
        # a scan of a short tuple finds a value by identity first, where a
        # set would call the value's Python-level hash
        index = self._atom_index
        for var, val in pairs:
            if val not in index.get(var, ()):
                return False
        return True

    def contains_kept(self, iset: InterventionSet, dropped: frozenset) -> bool:
        """`self.contains(iset.drop(dropped))`.  A generated space scans the
        set's atoms once, skipping those on `dropped`, and makes no set."""
        if self.mode == EXPLICIT:
            return iset.drop(dropped) in self.sets
        index = self._atom_index
        kept = 0
        for var, val in iset.assignments:
            if var in dropped:
                continue
            if val not in index.get(var, ()):
                return False
            kept += 1
        return kept <= 1 or self.mode != SINGLETON

    def size(self) -> int:
        if self.mode == EXPLICIT:
            return len(self.sets)
        if self.mode == SINGLETON:
            return 1 + sum(len(vals) for _, vals in self.atoms)
        if self.mode == POWER_SET:
            n = 1
            for _, vals in self.atoms:
                n *= 1 + len(vals)
            return n
        raise DomainError(f"unknown intervention-space mode {self.mode!r}")

    def enumerate(self, budget: int = 4096) -> list[InterventionSet]:
        """All members in canonical order; refuses to materialize past `budget`."""
        total = self.size()
        if total > budget:
            raise EnumerationTooLargeError(
                f"intervention space has {total} sets, budget is {budget}"
            )
        if self.mode in _LISTED:
            return list(self._members)
        rows, make = self._atom_pairs
        return [
            make(tuple([p for p in combo if p is not None]))
            for combo in itertools.product(*[(None,) + row for row in rows])
        ]

    def sample(self, rng) -> InterventionSet:
        """One member drawn with the package RNG; uniform over the enumeration
        for explicit/singleton modes, independent per-atom for power sets.

        One `rng.integers` call, which consumes the stream as `picks(rng, 1)`
        does: a scalar position, or one row of bounds."""
        if self.mode in _LISTED:
            return self._members[rng.integers(len(self._members), dtype=np.int64)]
        if not self.atoms:
            return InterventionSet.empty()
        return self.member(rng.integers(self._bounds, dtype=np.int64).tolist())

    @cached_property
    def _bounds(self) -> np.ndarray:
        """A power set's draw bounds, one per atom row: 1 + its values."""
        return np.array([1 + len(vals) for _, vals in self.atoms], np.int64)

    def picks(self, rng, count: int) -> np.ndarray:
        """What `count` draws pick, before they are made sets: for
        explicit/singleton modes, count positions in the enumeration; for a
        power set, count rows of one entry per atom row, 0 for no atom or 1 +
        the position of the drawn value.

        One `rng.integers` call on an array of bounds consumes the stream
        exactly like one scalar call per position or per atom, in order."""
        count = max(count, 0)
        if self.mode in _LISTED:
            if not count:
                return np.zeros(0, np.int64)
            return rng.integers(len(self._members), size=count, dtype=np.int64)
        bounds = self._bounds
        if not count or not len(bounds):
            return np.zeros((count, len(bounds)), np.int64)
        return rng.integers(bounds, size=(count, len(bounds)), dtype=np.int64)

    def member(self, pick) -> InterventionSet:
        """The set of one draw of `picks`, a position or a list of atom-row
        entries."""
        if self.mode in _LISTED:
            return self._members[pick]
        if not any(pick):
            return InterventionSet.empty()
        rows, make = self._atom_pairs
        return make(tuple([row[k - 1] for row, k in zip(rows, pick) if k]))

    def member_at(self, position: int) -> InterventionSet:
        """The member at `position` in `enumerate`'s order, made alone: for a
        power set, the set whose atom-row entries are the digits of
        `position` in the mixed radix of the bounds, first row outermost."""
        if self.mode in _LISTED:
            return self._members[position]
        pick = [0] * len(self.atoms)
        for r in range(len(pick) - 1, -1, -1):
            position, pick[r] = divmod(position, 1 + len(self.atoms[r][1]))
        return self.member(pick)

    @cached_property
    def _members(self) -> tuple[InterventionSet, ...]:
        """An explicit or singleton space's members in canonical order, built
        on first use; not a field."""
        if self.mode == EXPLICIT:
            return self.sets
        out = [InterventionSet.empty()]
        for var, vals in self.atoms:
            for val in vals:
                out.append(InterventionSet.of({var: val}))
        return tuple(out)

    def restrict(self, cluster: Iterable[VarRef]) -> "InterventionSpace":
        """Image of the space under the projection onto `cluster`."""
        keep = set(cluster)
        atoms = tuple((v, vals) for v, vals in self.atoms if v in keep)
        if self.mode == EXPLICIT:
            return InterventionSpace.explicit([s.restrict(keep) for s in self.sets])
        return InterventionSpace(self.mode, atoms)

    def drop_atoms(self, vars_out: Iterable[VarRef]) -> "InterventionSpace":
        """Remove every atom on the given variables, mapping each member set
        to its projection; the result stays closed under subsets."""
        gone = set(vars_out)
        atoms = tuple((v, vals) for v, vals in self.atoms if v not in gone)
        if self.mode == EXPLICIT:
            return InterventionSpace.explicit([s.drop(gone) for s in self.sets])
        return InterventionSpace(self.mode, atoms)


def _norm_atoms(atoms) -> tuple[tuple[VarRef, tuple[Value, ...]], ...]:
    grouped: dict[VarRef, list[Value]] = {}
    for var, vals in atoms:
        bucket = grouped.setdefault(var, [])
        for v in vals:
            if v not in bucket:
                bucket.append(v)
    return tuple(
        (var, tuple(vals)) for var, vals in sorted(grouped.items(), key=lambda p: ref_sort_key(p[0]))
    )


# ---------------------------------------------------------------------------
# The model itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EndoVar:
    var: VarRef
    domain: Domain
    equation: Expr


@dataclass(frozen=True)
class ExoVar:
    var: VarRef
    domain: Domain
    dist: ExoDistribution


@dataclass(frozen=True)
class Plan:
    """How a model is evaluated, per case (`evaluation.run_plan`, or the
    generated `compiled`) or by columns (`columns.plan_columns`).

    `inputs` holds `(var, domain)` per input, and `clusters` holds, per
    cluster in evaluation order, its local inputs, the variables whose atoms
    it sees (None for all) and its rows `(var, domain, tree)`.  An input is
    checked against its domain.  A row takes the forced value where its
    variable is intervened on, and is checked against its domain.  Where the
    domain is None, as for the local inputs and targets of a Ccv, the value
    is taken as it stands.  `outputs` are the variables returned, in order.
    """

    inputs: tuple[tuple[VarRef, Optional[Domain]], ...]
    clusters: tuple[tuple[tuple[VarRef, ...], Optional[frozenset], tuple[tuple]], ...]
    outputs: tuple[VarRef, ...]

    @cached_property
    def compiled(self) -> Callable:
        """The plan as one generated Python function, `(u, interventions,
        rng=None) -> outputs`, built on first use (`codegen.compile_plan`);
        not a field.  It returns and raises what `evaluation.run_plan` does
        without walking the trees, so it pays for the plans run on many
        cases, at about 10 µs per node to build."""
        return codegen.compile_plan(self)

    def __getstate__(self):
        # the generated function does not pickle; a copy builds its own
        return {k: v for k, v in self.__dict__.items() if k != "compiled"}

    @cached_property
    def in_place(self) -> bool:
        """Whether the plan is one cluster that reads exactly its inputs, so
        that `evaluation.run_plan` runs its rows on the checked inputs
        themselves; worked out on first use, not a field."""
        return len(self.clusters) == 1 and {v for v, _ in self.inputs} == set(self.clusters[0][0])

    @cached_property
    def _schedules(self) -> dict:
        return {}

    def schedule(self, keep: Optional[frozenset]) -> tuple:
        """Per cluster, per row: whether a later row of the cluster reads its
        value, whether it is returned (it is in `keep`, or a later cluster
        reads it), and the variables that no later row of the cluster reads.
        Without `keep`, every value is kept; with it, the schedule is worked
        out once per `keep`."""
        if keep is None:
            return tuple(((True, True, ()),) * len(rows) for _, _, rows in self.clusters)
        steps = self._schedules.get(keep)
        if steps is None:
            steps, later = [], set(keep)
            for inputs, _, rows in reversed(self.clusters):
                seen, out = set(), []
                for var, _, tree in reversed(rows):
                    reads = E.free_refs(tree)
                    out.append((var in seen, var in later, tuple(reads - seen)))
                    seen |= reads
                steps.append(tuple(reversed(out)))
                later.update(inputs)
            steps = self._schedules[keep] = tuple(reversed(steps))
        return steps


@dataclass(frozen=True)
class Scm:
    name: str
    endogenous: tuple[EndoVar, ...]
    exogenous: tuple[ExoVar, ...]
    interventions: InterventionSpace
    inverse_pairs: tuple[tuple[VarRef, VarRef], ...] = ()

    @cached_property
    def plan(self) -> "Plan":
        """What every evaluator of this model runs, worked out on first use;
        not a field: one cluster that reads every input and sees every atom."""
        inputs = tuple((row.var, row.domain) for row in self.exogenous)
        rows = tuple((row.var, row.domain, row.equation) for row in self.endogenous)
        return Plan(inputs, ((tuple(self.exo_vars()), None, rows),), tuple(self.endo_vars()))

    @cached_property
    def graph(self) -> "Graph":
        """The syntactic parent graph, derived on first use; not a field.
        Every caller shares it, so it is read-only."""
        return derive_graph_unchecked(self)

    def endo_vars(self) -> list[VarRef]:
        return [v.var for v in self.endogenous]

    def exo_vars(self) -> list[VarRef]:
        return [v.var for v in self.exogenous]

    def domain_of(self, var: VarRef) -> Domain:
        for row in self.endogenous:
            if row.var == var:
                return row.domain
        for row in self.exogenous:
            if row.var == var:
                return row.domain
        raise UnknownVariableError(var)

    def equation_of(self, var: VarRef) -> Expr:
        for row in self.endogenous:
            if row.var == var:
                return row.equation
        raise UnknownVariableError(var)

    def dist_of(self, var: VarRef) -> ExoDistribution:
        for row in self.exogenous:
            if row.var == var:
                return row.dist
        raise UnknownVariableError(var)

    def var_kinds(self) -> dict[VarRef, str]:
        kinds: dict[VarRef, str] = {}
        for row in self.exogenous:
            kinds[row.var] = domain_kind(row.domain)
        for row in self.endogenous:
            kinds[row.var] = domain_kind(row.domain)
        return kinds

    def has_var(self, var: VarRef) -> bool:
        return any(r.var == var for r in self.endogenous) or any(
            r.var == var for r in self.exogenous
        )


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Finding:
    kind: str
    message: str
    subject: tuple = ()

    def __str__(self):
        return f"[{self.kind}] {self.message}"


@dataclass
class ValidationReport:
    findings: list[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def add(self, kind: str, message: str, subject: tuple = ()):
        self.findings.append(Finding(kind, message, subject))

    def kinds(self) -> set[str]:
        return {f.kind for f in self.findings}

    def __str__(self):
        if self.ok:
            return "ok"
        return "\n".join(str(f) for f in self.findings)


_CLOSURE_CHECK_LIMIT = 4096


def validate(scm: Scm) -> ValidationReport:
    """Structural validation; every violated invariant becomes one finding."""
    report = ValidationReport()

    endo = scm.endo_vars()
    exo = scm.exo_vars()
    seen: set[VarRef] = set()
    for v in endo + exo:
        if v in seen:
            report.add("DuplicateVariable", f"{v} declared twice", (v,))
        seen.add(v)
    overlap = set(endo) & set(exo)
    for v in sorted(overlap, key=ref_sort_key):
        report.add("NameClash", f"{v} is both endogenous and exogenous", (v,))

    known = set(endo) | set(exo)
    position = {v: i for i, v in enumerate(endo)}
    kinds = scm.var_kinds()

    for row in scm.endogenous:
        for r in sorted(E.free_refs(row.equation), key=ref_sort_key):
            if r not in known:
                report.add("UnresolvedRef", f"equation of {row.var} references unknown {r}", (row.var, r))
            elif r in position and position[r] >= position[row.var]:
                if r == row.var:
                    report.add("Cycle", f"cycle: {row.var} -> {row.var}", (row.var, row.var))
                else:
                    report.add(
                        "OrderViolation",
                        f"equation of {row.var} references {r}, declared later",
                        (row.var, r),
                    )
        try:
            got = E.check_expr(row.equation, kinds)
            want = domain_kind(row.domain)
            if got != want and not (want == "real" and got == "int"):
                report.add("TypeError", f"equation of {row.var} yields {got}, domain is {want}", (row.var,))
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            report.add("TypeError", f"equation of {row.var}: {exc}", (row.var,))

    for row in scm.exogenous:
        _check_dist(row, report)

    graph = scm.graph
    cycle = find_cycle({v: sorted(graph.children.get(v, ()), key=ref_sort_key) for v in endo})
    if cycle and not any(f.kind == "Cycle" for f in report.findings):
        path = " -> ".join(str(v) for v in cycle)
        report.add("Cycle", f"cycle: {path}", tuple(cycle))

    _check_space(scm, report)
    return report


def _check_dist(row: ExoVar, report: ValidationReport):
    kind = domain_kind(row.domain)
    match row.dist:
        case PointMass(v):
            if not E.value_in_domain(v, row.domain):
                report.add("DistError", f"{row.var}: point mass outside its domain", (row.var,))
        case UniformFinite(values):
            if not values:
                report.add("DistError", f"{row.var}: empty uniform support", (row.var,))
            for v in values:
                if not E.value_in_domain(v, row.domain):
                    report.add("DistError", f"{row.var}: support value {v} outside domain", (row.var,))
        case NormalDist(_, variance):
            if variance < 0:
                report.add("DistError", f"{row.var}: negative variance", (row.var,))
            if kind != "real":
                report.add("DistError", f"{row.var}: normal draw into a {kind} domain", (row.var,))
        case UniformReal(lo, hi):
            if lo > hi:
                report.add("DistError", f"{row.var}: empty uniform interval", (row.var,))
            if kind != "real":
                report.add("DistError", f"{row.var}: real draw into a {kind} domain", (row.var,))
        case BernoulliDist(p):
            if not (0.0 <= p <= 1.0):
                report.add("DistError", f"{row.var}: bernoulli parameter {p} outside [0, 1]", (row.var,))
            if kind != "bool":
                report.add("DistError", f"{row.var}: bernoulli draw into a {kind} domain", (row.var,))


def _check_space(scm: Scm, report: ValidationReport):
    space = scm.interventions
    endo = set(scm.endo_vars())
    exo = set(scm.exo_vars())
    for var, vals in space.atoms:
        if var in exo:
            report.add("AtomOnExogenous", f"intervention atom on exogenous {var}", (var,))
            continue
        if var not in endo:
            report.add("AtomOnUnknown", f"intervention atom on unknown {var}", (var,))
            continue
        dom = scm.domain_of(var)
        for v in vals:
            if not E.value_in_domain(v, dom):
                report.add(
                    "AtomValueOutsideDomain",
                    f"do({var}={_fmt_value(v)}) falls outside the domain of {var}",
                    (var, v),
                )
    if space.mode == EXPLICIT:
        if not space.sets:
            # no set at all, not even the empty one: no check has a case
            report.add("EmptySpace", str(EmptySpaceError()), ())
        listed = set(space.sets)
        for s in space.sets:
            n = len(s)
            if 2**n > _CLOSURE_CHECK_LIMIT:
                report.add(
                    "ClosureUnchecked",
                    f"set {s} too large to check closure under subsets",
                    (s,),
                )
                continue
            for r in range(n):
                for combo in itertools.combinations(s.assignments, r):
                    sub = InterventionSet(tuple(combo))
                    if sub not in listed:
                        report.add(
                            "ClosureViolation",
                            f"{s} is allowed but its subset {sub} is not",
                            (s, sub),
                        )
    elif space.mode not in (POWER_SET, SINGLETON):
        report.add("SpaceMode", f"unknown intervention-space mode {space.mode!r}", ())


def find_cycle(successors: Mapping) -> Optional[list]:
    """A cycle of the digraph as a closed path `[v, ..., v]`, or None.

    The nodes are the keys of `successors`, each mapped to its successors;
    a depth-first search visits both in the order given and skips
    successors that are not nodes.  The path closes at the first node found
    on the search's own stack.
    """
    GREY, BLACK = 1, 2
    color: dict = {}
    parent: dict = {}
    for start in successors:
        if start in color:
            continue
        color[start] = GREY
        stack = [(start, iter(successors[start]))]
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if nxt not in successors or color.get(nxt) == BLACK:
                    continue
                if nxt in color:
                    path = [nxt, node]
                    while path[-1] != nxt:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                color[nxt], parent[nxt] = GREY, node
                stack.append((nxt, iter(successors[nxt])))
                break
            else:
                color[node] = BLACK
                stack.pop()
    return None


# ---------------------------------------------------------------------------
# Graph derivation and kin queries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Graph:
    vertices: tuple[VarRef, ...]
    parents: dict[VarRef, frozenset[VarRef]]
    children: dict[VarRef, frozenset[VarRef]]

    def has(self, var: VarRef) -> bool:
        return var in self.parents


#: every vertex without parents or without children shares this one set
_NO_VARS: frozenset = frozenset()


def _graph_from_parent_map(vertices: list[VarRef], pmap: dict[VarRef, set[VarRef]]) -> Graph:
    children: dict[VarRef, set[VarRef]] = {}
    for child, parents in pmap.items():
        for p in parents:
            children.setdefault(p, set()).add(child)
    return Graph(
        tuple(vertices),
        {v: frozenset(pmap[v]) if pmap.get(v) else _NO_VARS for v in vertices},
        {v: frozenset(children[v]) if v in children else _NO_VARS for v in vertices},
    )


def derive_graph_unchecked(scm: Scm) -> Graph:
    vertices = scm.exo_vars() + scm.endo_vars()
    known = set(vertices)
    pmap = {
        row.var: {r for r in E.free_refs(row.equation) if r in known}
        for row in scm.endogenous
    }
    return _graph_from_parent_map(vertices, pmap)


_SEMANTIC_BUDGET = 10**6


def derive_graph(scm: Scm, mode: str = "syntactic") -> Graph:
    """Parent structure of the model.

    Syntactic mode records an edge wherever an equation textually references
    a variable; semantic mode keeps only edges along which the equation can
    actually change value, established by enumerating the parents' finite
    domains.  Semantic edges are always a subset of syntactic ones.  The
    syntactic graph is the model's shared `Scm.graph`: read-only.
    """
    g = scm.graph
    if mode == "syntactic":
        return g
    if mode != "semantic":
        raise DomainError(f"unknown graph mode {mode!r}")

    pmap: dict[VarRef, set[VarRef]] = {}
    for row in scm.endogenous:
        parents = sorted(g.parents[row.var], key=ref_sort_key)
        doms = []
        joint = 1
        for p in parents:
            d = scm.domain_of(p)
            if not E.domain_is_finite(d):
                raise EnumerationTooLargeError(f"domain of {p} is not finite")
            vals = E.domain_values(d)
            joint *= len(vals)
            doms.append(vals)
        if joint > _SEMANTIC_BUDGET:
            raise EnumerationTooLargeError(
                f"joint parent domain of {row.var} has {joint} states"
            )
        keep: set[VarRef] = set()
        for i, p in enumerate(parents):
            others = doms[:i] + doms[i + 1 :]
            names = parents[:i] + parents[i + 1 :]
            found = False
            for rest in itertools.product(*others):
                env = dict(zip(names, rest))
                seen_vals = set()
                for v in doms[i]:
                    env[p] = v
                    out = E.eval_expr(row.equation, env, InterventionSet.empty())
                    seen_vals.add(out)
                    if len(seen_vals) > 1:
                        found = True
                        break
                if found:
                    break
            if found:
                keep.add(p)
        pmap[row.var] = keep
    return _graph_from_parent_map(list(g.vertices), pmap)


def relatives(graph: Graph, vars: Iterable[VarRef], kind: str) -> set[VarRef]:
    """Union of parents/children/ancestors over a set of query variables."""
    vs = list(vars)
    for v in vs:
        if not graph.has(v):
            raise UnknownVariableError(v)
    if kind == "parents":
        out: set[VarRef] = set()
        for v in vs:
            out |= graph.parents[v]
        return out
    if kind == "children":
        out = set()
        for v in vs:
            out |= graph.children.get(v, set())
        return out
    if kind == "ancestors":
        out = set()
        frontier = list(vs)
        while frontier:
            v = frontier.pop()
            for p in graph.parents.get(v, frozenset()):
                if p not in out:
                    out.add(p)
                    frontier.append(p)
        return out
    raise DomainError(f"unknown relative kind {kind!r}")


# ---------------------------------------------------------------------------
# Reparameterization of non-deterministic equations
# ---------------------------------------------------------------------------


def reparameterize(scm: Scm) -> Scm:
    """Replace every draw node with a comparison against a fresh uniform input.

    ``Bernoulli(e)`` becomes ``e < R`` with R uniform on [0, 1), matching the
    evaluation convention of the draw node itself, so the observational
    distribution is unchanged while every equation becomes deterministic.
    Models without draw nodes come back structurally identical.
    """
    taken = {v.name for v in scm.endo_vars() + scm.exo_vars()}
    fresh_rows: list[ExoVar] = []

    def fresh_name() -> VarRef:
        base = "R"
        k = 1
        name = base
        while name in taken:
            k += 1
            name = f"{base}{k}"
        taken.add(name)
        return VarRef(name)

    def rewrite(e: Expr) -> Expr:
        if isinstance(e, E.RandomBernoulli):
            r = fresh_name()
            fresh_rows.append(ExoVar(r, E.RealDomain(0.0, 1.0), UniformReal(0.0, 1.0)))
            return E.Binary("lt", rewrite(e.p), E.Ref(r))
        return E.map_children(e, rewrite)

    new_endo = []
    changed = False
    for row in scm.endogenous:
        if E.contains_draw(row.equation):
            new_endo.append(EndoVar(row.var, row.domain, rewrite(row.equation)))
            changed = True
        else:
            new_endo.append(row)
    if not changed:
        return scm
    return replace(
        scm,
        endogenous=tuple(new_endo),
        exogenous=scm.exogenous + tuple(fresh_rows),
    )

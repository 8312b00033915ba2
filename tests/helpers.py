"""Shared builders for the test suite: a small layered example model, a
seeded random-model generator used by the property suites, and reference
implementations the library is checked against."""

from __future__ import annotations

import dataclasses
import json
import os
import random
from dataclasses import dataclass
from typing import Mapping, Optional

from scmc import documents as Docs
from scmc import expr as E
from scmc import images as I
from scmc.errors import DivisionByZeroError, DomainError, NonDeterministicModelError, UnboundRefError
from scmc.expr import (
    Binary,
    BoolDomain,
    CaseList,
    ExistsIntervention,
    IfThenElse,
    IntDomain,
    InterventionValue,
    IsIntervened,
    MaxIntervenedIndex,
    RandomBernoulli,
    Ref,
    Unary,
    VarRef,
    band,
    bconst,
    bnot,
    iconst,
)
from scmc.partition import Partition
from scmc.scm import (
    EndoVar,
    ExoVar,
    InterventionSet,
    InterventionSpace,
    Scm,
    UniformFinite,
)

A, B, C, D = VarRef("A"), VarRef("B"), VarRef("C"), VarRef("D")
Ev, F, G, H = VarRef("E"), VarRef("F"), VarRef("G"), VarRef("H")
U = VarRef("U")


def three_layer_example() -> tuple[Scm, Partition]:
    """One root feeding two middles feeding two sinks; the bundled partition
    groups them layer by layer, so the quotient is a three-node chain."""
    scm = Scm(
        name="three-layer",
        endogenous=(
            EndoVar(A, BoolDomain(), Ref(U)),
            EndoVar(B, BoolDomain(), Ref(A)),
            EndoVar(D, BoolDomain(), bnot(Ref(A))),
            EndoVar(C, BoolDomain(), Ref(B)),
            EndoVar(Ev, BoolDomain(), band(Ref(B), Ref(D))),
        ),
        exogenous=(ExoVar(U, BoolDomain(), UniformFinite((E.VBool(False), E.VBool(True)))),),
        interventions=InterventionSpace.singletons(
            [(B, [E.VBool(False)]), (D, [E.VBool(True)])]
        ),
    )
    return scm, Partition.of([[A], [B, D], [C, Ev]])


def exit_reenter_example() -> tuple[Scm, Partition]:
    """A path leaves the first cluster and comes back: invalid partition."""
    scm = Scm(
        name="exit-reenter",
        endogenous=(
            EndoVar(A, BoolDomain(), Ref(U)),
            EndoVar(B, BoolDomain(), Ref(A)),
            EndoVar(C, BoolDomain(), Ref(B)),
        ),
        exogenous=(ExoVar(U, BoolDomain(), UniformFinite((E.VBool(False), E.VBool(True)))),),
        interventions=InterventionSpace.power_set([]),
    )
    return scm, Partition.of([[A, C], [B]])


# ---------------------------------------------------------------------------
# Random models
# ---------------------------------------------------------------------------


def _rand_int_expr(rng: random.Random, vars_by_kind, depth: int) -> E.Expr:
    ints = vars_by_kind["int"]
    if depth <= 0 or (not ints and rng.random() < 0.5):
        if ints and rng.random() < 0.6:
            return Ref(rng.choice(ints)[0])
        return iconst(rng.randint(0, 3))
    op = rng.choice(["add", "sub", "mul", "min", "max", "mod", "ite"])
    if op == "ite":
        return IfThenElse(
            _rand_bool_expr(rng, vars_by_kind, depth - 1),
            _rand_int_expr(rng, vars_by_kind, depth - 1),
            _rand_int_expr(rng, vars_by_kind, depth - 1),
        )
    if op == "mod":
        return Binary("mod", _rand_int_expr(rng, vars_by_kind, depth - 1), iconst(rng.randint(1, 4)))
    return Binary(op, _rand_int_expr(rng, vars_by_kind, depth - 1), _rand_int_expr(rng, vars_by_kind, depth - 1))


def _rand_bool_expr(rng: random.Random, vars_by_kind, depth: int) -> E.Expr:
    bools = vars_by_kind["bool"]
    if depth <= 0 or (not bools and rng.random() < 0.3):
        if bools and rng.random() < 0.6:
            return Ref(rng.choice(bools)[0])
        if vars_by_kind["int"] and rng.random() < 0.5:
            return Binary(
                rng.choice(["lt", "le", "eq"]),
                Ref(rng.choice(vars_by_kind["int"])[0]),
                iconst(rng.randint(0, 3)),
            )
        return bconst(rng.random() < 0.5)
    op = rng.choice(["and", "or", "not", "cases"])
    if op == "not":
        return bnot(_rand_bool_expr(rng, vars_by_kind, depth - 1))
    if op == "cases":
        return CaseList(
            (
                (
                    _rand_bool_expr(rng, vars_by_kind, depth - 1),
                    _rand_bool_expr(rng, vars_by_kind, depth - 1),
                ),
            ),
            _rand_bool_expr(rng, vars_by_kind, depth - 1),
        )
    return Binary(op, _rand_bool_expr(rng, vars_by_kind, depth - 1), _rand_bool_expr(rng, vars_by_kind, depth - 1))


def _clamp(e: E.Expr, dom: IntDomain) -> E.Expr:
    return Binary("min", Binary("max", e, iconst(dom.lo)), iconst(dom.hi))


def random_model(seed: int, max_endo: int = 12, max_domain: int = 4) -> Scm:
    """A random finite-domain model with a random intervention space."""
    rng = random.Random(seed)
    n_endo = rng.randint(2, max_endo)
    n_exo = rng.randint(1, 2)
    rows_exo = []
    vars_by_kind = {"bool": [], "int": []}
    for i in range(n_exo):
        var = VarRef("u", i + 1)
        if rng.random() < 0.5:
            dom = BoolDomain()
            dist = UniformFinite((E.VBool(False), E.VBool(True)))
            vars_by_kind["bool"].append((var, dom))
        else:
            hi = rng.randint(1, max_domain - 1)
            dom = IntDomain(0, hi)
            dist = UniformFinite(tuple(E.VInt(k) for k in range(hi + 1)))
            vars_by_kind["int"].append((var, dom))
        rows_exo.append(ExoVar(var, dom, dist))
    rows_endo = []
    for i in range(n_endo):
        var = VarRef("x", i + 1)
        if rng.random() < 0.5:
            dom = BoolDomain()
            eq = _rand_bool_expr(rng, vars_by_kind, rng.randint(1, 3))
            vars_by_kind["bool"].append((var, dom))
        else:
            hi = rng.randint(1, max_domain - 1)
            dom = IntDomain(0, hi)
            eq = _clamp(_rand_int_expr(rng, vars_by_kind, rng.randint(1, 3)), dom)
            vars_by_kind["int"].append((var, dom))
        rows_endo.append(EndoVar(var, dom, eq))
    atoms = []
    for row in rows_endo:
        if rng.random() < 0.5:
            vals = E.domain_values(row.domain)
            picked = rng.sample(vals, k=rng.randint(1, min(2, len(vals))))
            atoms.append((row.var, picked))
    mode = rng.choice(["power_set", "singleton", "explicit"])
    if mode == "power_set":
        space = InterventionSpace.power_set(atoms)
    elif mode == "singleton":
        space = InterventionSpace.singletons(atoms)
    else:
        base = InterventionSpace.singletons(atoms)
        space = InterventionSpace.explicit(base.enumerate(budget=10**6))
    return Scm(
        name=f"random-{seed}",
        endogenous=tuple(rows_endo),
        exogenous=tuple(rows_exo),
        interventions=space,
    )


def random_partition(scm: Scm, seed: int) -> Partition:
    """Consecutive blocks of a random linear extension: always valid."""
    rng = random.Random(seed)
    order = _random_linear_extension(scm, rng)
    blocks = []
    i = 0
    while i < len(order):
        size = rng.randint(1, min(4, len(order) - i))
        blocks.append(order[i : i + size])
        i += size
    return Partition.of(blocks)


def _random_linear_extension(scm: Scm, rng: random.Random):
    from scmc.scm import derive_graph_unchecked

    graph = derive_graph_unchecked(scm)
    endo = set(scm.endo_vars())
    indeg = {v: sum(1 for p in graph.parents[v] if p in endo) for v in endo}
    ready = sorted([v for v, d in indeg.items() if d == 0], key=str)
    out = []
    while ready:
        v = ready.pop(rng.randrange(len(ready)))
        out.append(v)
        for c in sorted(graph.children.get(v, ()), key=str):
            if c in endo:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
    return out


def random_u(scm: Scm, seed: int):
    rng = random.Random(seed)
    u = {}
    for row in scm.exogenous:
        vals = E.domain_values(row.domain)
        u[row.var] = vals[rng.randrange(len(vals))]
    return u


def random_intervention(scm: Scm, seed: int) -> InterventionSet:
    from scmc.evaluation import make_rng

    return scm.interventions.sample(make_rng(seed))


# ---------------------------------------------------------------------------
# Reference sampling streams
# ---------------------------------------------------------------------------
#
# One scalar `rng.integers` call per atom: the stream that the library's one
# call per power-set draw must reproduce exactly.


def oracle_sample_power_set(space: InterventionSpace, rng) -> InterventionSet:
    pairs = []
    for var, vals in space.atoms:
        k = int(rng.integers(1 + len(vals)))
        if k > 0:
            pairs.append((var, vals[k - 1]))
    return InterventionSet.of(pairs)


def oracle_sample(space: InterventionSpace, rng) -> InterventionSet:
    """One `sample` of any space, with one scalar `rng.integers` call per
    atom for a power set and per draw otherwise."""
    if space.mode == "explicit":
        return space.sets[int(rng.integers(len(space.sets)))]
    if space.mode == "singleton":
        k = int(rng.integers(1 + sum(len(vals) for _, vals in space.atoms)))
        if k == 0:
            return InterventionSet.empty()
        k -= 1
        for var, vals in space.atoms:
            if k < len(vals):
                return InterventionSet.of({var: vals[k]})
            k -= len(vals)
        raise AssertionError("unreachable")
    return oracle_sample_power_set(space, rng)


# ---------------------------------------------------------------------------
# Reference case lists
# ---------------------------------------------------------------------------
#
# The per-case (inputs, intervention set) lists the verifier and the rewrite
# gate built before they built columns, one dict and one set per case.


def canonical_u_order(scm: Scm, assignments: list) -> list:
    """`assignments` stably sorted by the repr of each input's value, inputs
    in declared order."""
    order = [row.var for row in scm.exogenous]
    return sorted(assignments, key=lambda u: [repr(u[v]) for v in order])


def oracle_verifier_cases(scm: Scm, strategy) -> list:
    """The verifier's case list: every input assignment in canonical order
    with every allowed set, or seeded samples from two streams, the sets
    drawn one scalar call per atom."""
    from scmc.evaluation import enumerate_exogenous, make_rng, sample_exogenous
    from scmc.verification import EXHAUSTIVE

    if strategy.mode == EXHAUSTIVE:
        us = canonical_u_order(scm, enumerate_exogenous(scm, strategy.exogenous_budget))
        if strategy.intervention_sets is not None:
            ivs = list(strategy.intervention_sets)
        else:
            ivs = scm.interventions.enumerate(strategy.intervention_budget)
        return [(u, iv) for u in us for iv in ivs]
    rng = make_rng(strategy.seed)
    us = sample_exogenous(scm, strategy.seed, strategy.sample_count, strict=False)
    return list(zip(us, [oracle_sample(scm.interventions, rng) for _ in range(strategy.sample_count)]))


def oracle_forced(ivs) -> dict:
    """Per variable, the raw value each set forces onto it or None; raises
    `columns.Unsupported` where a set has no exact column form."""
    from scmc import columns as C

    forced = {}
    for k, iv in enumerate(ivs):
        for var, val in iv.assignments:
            col = forced.setdefault(var, [None] * len(ivs))
            if col[k] is not None:
                raise C.Unsupported(f"two atoms on {var}")
            col[k] = C.raw(val)
    return forced


def cases_of(rows):
    """A column case list made by transposing (inputs, intervention set) rows."""
    from scmc import columns as C

    names = list(rows[0][0]) if rows else []
    inputs = {v: C.entries([env[v] for env, _ in rows]) for v in names}
    return C.Cases.listed(inputs, [iv for _, iv in rows])


# ---------------------------------------------------------------------------
# Reference arithmetic and domain membership
# ---------------------------------------------------------------------------
#
# `match`-based copies of the library's number unwrapping, binary operators
# and membership check, so the oracle evaluator below and the membership
# parity test do not share code with what they check.


def oracle_numeric(v: E.Value) -> float | int:
    match v:
        case E.VInt(i):
            return i
        case E.VReal(r):
            return r
    raise DomainError(f"expected a number, got {v}")


def oracle_as_bool(v: E.Value) -> bool:
    match v:
        case E.VBool(b):
            return b
    raise DomainError(f"expected a boolean, got {v}")


def oracle_wrap_number(x) -> E.Value:
    return E.VInt(x) if isinstance(x, int) else E.VReal(float(x))


def oracle_apply_binary(op: str, a: E.Value, b: E.Value) -> E.Value:
    """The library's former operator dispatch, a chain of string tests, kept
    as the oracle of the operator table `expr._BINARY`."""
    if op == "and":
        return E.VBool(oracle_as_bool(a) and oracle_as_bool(b))
    if op == "or":
        return E.VBool(oracle_as_bool(a) or oracle_as_bool(b))
    if op == "eq":
        if isinstance(a, (E.VInt, E.VReal)) and isinstance(b, (E.VInt, E.VReal)):
            return E.VBool(oracle_numeric(a) == oracle_numeric(b))
        if E.value_kind(a) != E.value_kind(b):
            raise DomainError(f"cannot compare {a} with {b}")
        return E.VBool(a == b)

    x, y = oracle_numeric(a), oracle_numeric(b)
    try:
        if op == "add":
            return oracle_wrap_number(x + y)
        if op == "sub":
            return oracle_wrap_number(x - y)
        if op == "mul":
            return oracle_wrap_number(x * y)
        if op == "div":
            if y == 0:
                raise DivisionByZeroError("division by zero")
            if isinstance(x, int) and isinstance(y, int):
                return E.VInt(x // y)
            return E.VReal(x / y)
    except OverflowError:  # an int past the float range meets a real
        raise DomainError(f"{op} result is out of the float range") from None
    if op == "mod":
        if not (isinstance(x, int) and isinstance(y, int)):
            raise DomainError("mod is defined on integers only")
        if y == 0:
            raise DivisionByZeroError("modulo by zero")
        return E.VInt(x % y)
    if op == "pow":
        try:
            if isinstance(x, int) and isinstance(y, int):
                if y < 0:
                    if x == 0:
                        raise DivisionByZeroError("zero to a negative power")
                    return E.VReal(float(x) ** y)
                return E.VInt(x**y)
            if x == 0 and y < 0:
                raise DivisionByZeroError("zero to a negative power")
            if x < 0 and not float(y).is_integer():
                raise DomainError("negative base with fractional exponent")
            return E.VReal(float(x) ** float(y))
        except OverflowError:
            raise DomainError("pow result is out of the float range") from None
    if op == "min":
        return a if oracle_numeric(a) <= oracle_numeric(b) else b
    if op == "max":
        return a if oracle_numeric(a) >= oracle_numeric(b) else b
    if op == "lt":
        return E.VBool(x < y)
    if op == "le":
        return E.VBool(x <= y)
    raise DomainError(f"unknown binary operator {op!r}")


def oracle_value_in_domain(v: E.Value, d: E.Domain) -> bool:
    match d, v:
        case BoolDomain(), E.VBool():
            return True
        case IntDomain(lo, hi), E.VInt(i):
            return lo <= i <= hi
        case E.SymDomain(symbols), E.VSym(name):
            return name in symbols
        case E.RealDomain(lo, hi), E.VReal(r):
            if lo is not None and r < lo:
                return False
            if hi is not None and r > hi:
                return False
            return True
        case E.RealDomain(lo, hi), E.VInt(i):
            # integers are acceptable carriers for real-valued variables,
            # those that round to a finite float: below the halfway point
            # between the largest float and 2**1024
            return abs(i) < 2**1024 - 2**970 and oracle_value_in_domain(E.VReal(float(i)), d)
    return False


def random_expr(seed: int, depth: int = 5) -> E.Expr:
    """A seeded random tree over every node class, kinds ignored.

    Leaves repeat, so equal subtrees occur; reals include -0.0 and 0.0.
    """
    rng = random.Random(seed)
    refs = [VarRef("A"), VarRef("B"), VarRef("S", 1), VarRef("S", 2)]
    leaf_values = [E.VBool(True), E.VInt(0), E.VInt(3), E.VReal(0.0), E.VReal(-0.0), E.VSym("a")]

    def leaf() -> E.Expr:
        kind = rng.randrange(4)
        if kind == 0:
            return E.Const(rng.choice(leaf_values))
        if kind == 1:
            return Ref(rng.choice(refs))
        if kind == 2:
            return IsIntervened(rng.choice(refs))
        return ExistsIntervention(
            rng.choice(["S", "A"]),
            rng.choice([None, 1]),
            rng.choice([None, 2]),
            rng.choice([None, E.VInt(1)]),
        )

    def tree(d: int) -> E.Expr:
        if d <= 0:
            return leaf()
        kind = rng.randrange(9)
        if kind == 0:
            return leaf()
        if kind == 1:
            return Unary(rng.choice(["neg", "not"]), tree(d - 1))
        if kind == 2:
            return Binary(rng.choice(["add", "and", "lt", "eq"]), tree(d - 1), tree(d - 1))
        if kind == 3:
            return IfThenElse(tree(d - 1), tree(d - 1), tree(d - 1))
        if kind == 4:
            cases = tuple((tree(d - 1), tree(d - 1)) for _ in range(rng.randrange(3)))
            return CaseList(cases, tree(d - 1))
        if kind == 5:
            return InterventionValue(rng.choice(refs), rng.choice([None, tree(d - 1)]))
        if kind == 6:
            return MaxIntervenedIndex(rng.choice(["S", "A"]), tree(d - 1), tree(d - 1))
        if kind == 7:
            return RandomBernoulli(tree(d - 1))
        return leaf()

    return tree(depth)


def subtrees(e: E.Expr) -> list[E.Expr]:
    """Every node of `e`, root first, each shared node once per occurrence."""
    out = [e]
    for c in E.children(e):
        out.extend(subtrees(c))
    return out


# ---------------------------------------------------------------------------
# Reference node size and hash
# ---------------------------------------------------------------------------

_SLOTTED = (IsIntervened, InterventionValue, ExistsIntervention, MaxIntervenedIndex)


def oracle_node_count(e: E.Expr) -> int:
    """`node_count` recomputed on every call, from the cost model alone."""
    own = 2 if isinstance(e, _SLOTTED) else 1
    return own + sum(oracle_node_count(c) for c in E.children(e))


class _HashesAs:
    """Stands in for a node inside a tuple: tuples hash their items' hashes."""

    def __init__(self, h: int):
        self.h = h

    def __hash__(self):
        return self.h


def oracle_hash(e: E.Expr) -> int:
    """A frozen dataclass's hash, the hash of its field tuple, with every
    subtree's hash computed afresh instead of read from the node."""

    def stand_in(v):
        if isinstance(v, tuple):
            return tuple(stand_in(x) for x in v)
        if isinstance(v, E._Node):
            return _HashesAs(oracle_hash(v))
        return v

    return hash(tuple(stand_in(getattr(e, f.name)) for f in dataclasses.fields(e)))


def oracle_rebuild(x: E.Expr, f) -> E.Expr:
    """A new node of `x`'s class with `f` applied to every expression child."""
    values = []
    for fld in dataclasses.fields(x):
        v = getattr(x, fld.name)
        if isinstance(v, E._Node):
            v = f(v)
        elif isinstance(v, tuple):  # CaseList arms
            v = tuple((f(g), f(b)) for g, b in v)
        values.append(v)
    return type(x)(*values)


def unshared(e: E.Expr) -> E.Expr:
    """An equal tree that shares no node object, with itself or any other
    tree: every node is built anew."""
    return oracle_rebuild(e, unshared)


def oracle_dedupe_targets(e: E.Expr, ctx) -> E.Expr:
    """`dedupe_targets` with its table built from scratch out of
    `ctx.earlier_targets` on every call, and every node rebuilt."""
    table = {tree: var for var, tree in ctx.earlier_targets.items() if oracle_node_count(tree) >= 2}

    def walk(x: E.Expr) -> E.Expr:
        hit = table.get(x)
        if hit is not None:
            return Ref(hit)
        return oracle_rebuild(x, walk)

    return walk(e)


def _oracle_is_closed(e: E.Expr) -> bool:
    """No refs, no intervention queries, no draws: evaluable right now."""
    match e:
        case Ref() | IsIntervened() | InterventionValue() | ExistsIntervention() | MaxIntervenedIndex() | RandomBernoulli():
            return False
    return all(_oracle_is_closed(c) for c in E.children(e))


def oracle_fold_constants(e: E.Expr) -> E.Expr:
    """`fold_constants` testing each rebuilt node's closedness afresh."""

    def walk(x: E.Expr) -> E.Expr:
        x = oracle_rebuild(x, walk)
        if isinstance(x, E.Const) or not _oracle_is_closed(x):
            return x
        try:
            return E.Const(oracle_eval(x, {}))
        except Exception:  # noqa: BLE001 - the erroring node stays
            return x

    return walk(e)


# ---------------------------------------------------------------------------
# Reference evaluator
# ---------------------------------------------------------------------------


def oracle_eval(e: E.Expr, env, interventions: InterventionSet = None, rng=None) -> E.Value:
    """A `match`-based tree walker with the evaluation semantics of `eval_expr`.

    Kept apart from the library so the per-node evaluator has something
    independent to agree with.  It queries the intervention set through
    `InterventionSet.has`/`get` and walks its atoms in stored order.
    """
    iv = interventions if interventions is not None else InterventionSet.empty()

    def ev(x: E.Expr) -> E.Value:
        match x:
            case E.Const(v):
                return v
            case Ref(v):
                if v not in env:
                    raise UnboundRefError(v)
                return env[v]
            case Unary("neg", a):
                return oracle_wrap_number(-oracle_numeric(ev(a)))
            case Unary("not", a):
                return E.VBool(not oracle_as_bool(ev(a)))
            case Unary(op, _):
                raise DomainError(f"unknown unary operator {op!r}")
            case Binary("and", l, r):
                return E.VBool(oracle_as_bool(ev(l)) and oracle_as_bool(ev(r)))
            case Binary("or", l, r):
                return E.VBool(oracle_as_bool(ev(l)) or oracle_as_bool(ev(r)))
            case Binary(op, l, r):
                return oracle_apply_binary(op, ev(l), ev(r))
            case IfThenElse(c, t, o):
                return ev(t) if oracle_as_bool(ev(c)) else ev(o)
            case CaseList(cases, default):
                for g, b in cases:
                    if oracle_as_bool(ev(g)):
                        return ev(b)
                return ev(default)
            case IsIntervened(v):
                return E.VBool(iv.has(v))
            case InterventionValue(v, fb):
                got = iv.get(v)
                if got is not None:
                    return got
                if fb is None:
                    raise UnboundRefError(v)
                return ev(fb)
            case ExistsIntervention(family, lo, hi, value):
                for var, val in iv.assignments:
                    if var.name != family or var.index is None:
                        continue
                    if lo is not None and var.index < lo:
                        continue
                    if hi is not None and var.index > hi:
                        continue
                    if value is not None and val != value:
                        continue
                    return E.VBool(True)
                return E.VBool(False)
            case MaxIntervenedIndex(family, upper, default):
                bound = ev(upper)
                if not isinstance(bound, E.VInt):
                    raise DomainError("max_intervened_index bound must be an integer")
                best = None
                for var, _val in iv.assignments:
                    if var.name != family or var.index is None or var.index > bound.i:
                        continue
                    if best is None or var.index > best:
                        best = var.index
                return E.VInt(best) if best is not None else ev(default)
            case RandomBernoulli(p):
                if rng is None:
                    raise NonDeterministicModelError(
                        "model draws at evaluation time; reparameterize it or pass an rng"
                    )
                pv = oracle_numeric(ev(p))
                return E.VBool(pv < rng.random())
        raise TypeError(f"not an Expr: {x!r}")

    return ev(e)


def oracle_run_plan(plan, u, interventions: InterventionSet, rng=None) -> dict:
    """A plan's outputs on one case, the rows of each cluster evaluated with
    `oracle_eval` under the atoms the cluster sees, taken from the set with
    `InterventionSet.get`; domains are checked with
    `oracle_value_in_domain`.  Raises what `evaluation.run_plan` raises."""
    acc = {}
    for var, dom in plan.inputs:
        if var not in u:
            raise UnboundRefError(var)
        x = acc[var] = u[var]
        if dom is not None and not oracle_value_in_domain(x, dom):
            raise DomainError(f"input {var}={x} is outside its domain")
    for inputs, visible, rows in plan.clusters:
        env = {v: acc[v] for v in inputs}
        seen = interventions
        if visible is not None:
            seen = InterventionSet(tuple(p for p in interventions.assignments if p[0] in visible))
        for var, dom, tree in rows:
            x = seen.get(var) if dom is not None else None
            if x is None:
                x = oracle_eval(tree, env, seen, rng)
            if dom is not None and not oracle_value_in_domain(x, dom):
                raise DomainError(f"{var} evaluated to {x}, outside its domain")
            env[var] = x
        acc.update(env)
    return {v: acc[v] for v in plan.outputs}


def oracle_gate(before, after, sub, strategy):
    """The rewrite gate's report as the plain per-case loop: over the
    verifier's case list of the cluster viewed as a model, in order, run
    `before` and then `after` with `oracle_run_plan` and compare the targets
    in `before`'s order as `verification._first_mismatch` does.  Raises what
    the first raising run raises."""
    from scmc.consolidation import ccv_plan
    from scmc.partition import sub_scm_as_scm
    from scmc.verification import EXHAUSTIVE, CounterExample, EquivalenceReport, _first_mismatch

    probabilistic = strategy.mode != EXHAUSTIVE
    cases = oracle_verifier_cases(sub_scm_as_scm(sub), strategy)
    plans = [ccv_plan(ccv, sub.local_exogenous) for ccv in (before, after)]
    tlist, worst = list(before.targets), 0.0
    for k, (u, iv) in enumerate(cases):
        want, got = (oracle_run_plan(plan, u, iv) for plan in plans)
        want, got = [want[t] for t in tlist], [got[t] for t in tlist]
        bad, dev = _first_mismatch(want, got, strategy.tolerance)
        worst = max(worst, dev)
        if bad is not None:
            cx = CounterExample(
                tuple(sorted(u.items(), key=lambda p: E.ref_sort_key(p[0]))), iv, tlist[bad], want[bad], got[bad]
            )
            return EquivalenceReport("counterexample", k + 1, worst, cx, probabilistic)
    return EquivalenceReport("equal", len(cases), worst, None, probabilistic)


def outcome(run) -> str:
    """What `run()` returns, or the type and message of what it raises, as
    text: a value's `repr` shows its class and the sign of a real zero."""
    try:
        return repr(run())
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return f"raises {type(exc).__name__}: {exc}"


_REUSE_CLUSTERS: list = []


def reuse_clusters() -> list:
    """(cluster, Ccv) pairs for checking the gate's reuse of `before`'s
    values: every cluster of a few zoo models and of seeded random models,
    each with the Ccv inlining builds and the one the passes leave.  Built
    once."""
    from scmc import zoo
    from scmc.consolidation import PassConfig, build_rho, run_passes
    from scmc.partition import extract_sub_scm

    if not _REUSE_CLUSTERS:
        models = [(e.scm, e.partition) for e in (zoo.step_by_step(), zoo.firing_squad(3), zoo.tool_wear(3))]
        models += [(scm, random_partition(scm, seed + 5)) for seed in range(12) for scm in [random_model(seed)]]
        for scm, partition in models:
            for cluster in partition.clusters:
                sub = extract_sub_scm(scm, cluster)
                built, _ = build_rho(sub, sorted(cluster, key=E.ref_sort_key))
                _REUSE_CLUSTERS.append((sub, built))
                _REUSE_CLUSTERS.append((sub, run_passes(built, sub, PassConfig())))
    return _REUSE_CLUSTERS


_STAND_INS = (
    bconst(True),
    bconst(False),
    iconst(0),
    iconst(1),
    E.rconst(0.0),
    E.rconst(-0.0),
    E.rconst(float("nan")),
    E.rconst(1e-12),
)


def shared_candidate(ccv, rng: random.Random):
    """A rewrite candidate for `ccv`: one or more targets with a node
    replaced, sharing every other subtree with `ccv`'s trees, and now and
    then the targets reordered.  A node is replaced by a conditional that
    always takes it (the same values from a new tree), by a node of some
    target's tree, or by a constant."""
    from scmc.consolidation import Ccv

    pool = [n for t in ccv.targets for n in subtrees(ccv.rho[t])]
    rho = dict(ccv.rho)
    targets = ccv.targets
    for t in rng.sample(targets, rng.choice([1, 1, 1, 2, len(targets)]) if len(targets) > 1 else 1):
        node = rng.choice(subtrees(rho[t]))
        kind = rng.randrange(3)
        new = IfThenElse(bconst(True), node, node) if kind == 0 else rng.choice(pool if kind == 1 else _STAND_INS)

        def swap(e):
            return new if e is node else E.map_children(e, swap)

        rho[t] = swap(rho[t])
    if rng.random() < 0.15:
        targets = tuple(rng.sample(targets, len(targets)))
    return Ccv(targets, rho, ccv.interventions, ccv.provenance)


# ---------------------------------------------------------------------------
# Reference queried-variable sets
# ---------------------------------------------------------------------------


def oracle_queried_vars(e: E.Expr, memo: dict) -> frozenset:
    """The variables whose assumed intervention state `e` reads, as one
    `frozenset` per node: what `ImageContext` keeps as a bit set.

    `memo` maps id(node) to (node, set); holding the node keeps its id from
    reuse.  Only `IsIntervened` and `InterventionValue` read the state.
    """
    hit = memo.get(id(e))
    if hit is not None:
        return hit[1]
    out: frozenset = frozenset()
    for c in E.children(e):
        below = oracle_queried_vars(c, memo)
        out = below if not out else out | below
    if isinstance(e, (IsIntervened, InterventionValue)) and e.var not in out:
        out = out | {e.var}
    memo[id(e)] = (e, out)
    return out


# ---------------------------------------------------------------------------
# Reference image analysis
# ---------------------------------------------------------------------------


def _scan_atom_values(space: InterventionSpace, var: VarRef) -> tuple:
    for v, vals in space.atoms:
        if v == var:
            return vals
    return ()


def _scan_family_atoms(space: InterventionSpace, family: str) -> list:
    return [(v, vals) for v, vals in space.atoms if v.name == family and v.index is not None]


@dataclass
class OracleImageContext:
    """`ImageContext` without memo or canonical children: every `child` is a
    fresh context carrying the added assumption."""

    env: Mapping[VarRef, I.Image]
    space: InterventionSpace
    assume_intervened: dict

    def child(self, var: VarRef, state: bool) -> "OracleImageContext":
        assume = dict(self.assume_intervened)
        assume[var] = state
        return OracleImageContext(self.env, self.space, assume)


def oracle_image_of(e: E.Expr, ctx: OracleImageContext) -> I.Image:
    """The image analysis recomputed for every node and every context.

    Kept apart from the library so the memoized analysis has something
    independent to agree with.  It reads the atom table by scanning
    `space.atoms`, not through the space's index.
    """
    FiniteImage, IntervalImage = I.FiniteImage, I.IntervalImage
    match e:
        case E.Const(v):
            return FiniteImage(frozenset({v}))
        case Ref(v):
            return ctx.env.get(v, I.TOP)
        case Unary(op, a):
            ia = oracle_image_of(a, ctx)
            if isinstance(ia, FiniteImage):
                return I._apply_finite_unary(op, ia)
            if op == "neg":
                nb = I._numeric_bounds(ia)
                if nb is None:
                    return I.TOP
                lo, hi, is_int = nb
                return IntervalImage(
                    None if hi is None else -hi, None if lo is None else -lo, is_int
                )
            return I.BOOL_BOTH
        case Binary(op, l, r):
            il, ir = oracle_image_of(l, ctx), oracle_image_of(r, ctx)
            if isinstance(il, FiniteImage) and isinstance(ir, FiniteImage):
                return I._apply_finite_binary(op, il, ir)
            if op in ("and", "or"):
                tv, fv = E.VBool(True), E.VBool(False)
                short = fv if op == "and" else tv
                for side in (il, ir):
                    if I.singleton_value(side) == short:
                        return FiniteImage(frozenset({short}))
                svl, svr = I.singleton_value(il), I.singleton_value(ir)
                other = tv if op == "and" else fv
                if svl == other and svr == other:
                    return FiniteImage(frozenset({other}))
                return I.BOOL_BOTH
            return I._interval_binary(op, il, ir)
        case IfThenElse(c, t, o):
            ic = oracle_image_of(c, ctx)
            then_ctx, else_ctx = ctx, ctx
            if isinstance(c, IsIntervened):
                then_ctx = ctx.child(c.var, True)
                else_ctx = ctx.child(c.var, False)
            sv = I.singleton_value(ic)
            if sv == E.VBool(True):
                return oracle_image_of(t, then_ctx)
            if sv == E.VBool(False):
                return oracle_image_of(o, else_ctx)
            return I.union(oracle_image_of(t, then_ctx), oracle_image_of(o, else_ctx))
        case CaseList(cases, default):
            acc: Optional[I.Image] = None
            for g, b in cases:
                ig = I.singleton_value(oracle_image_of(g, ctx))
                if ig == E.VBool(False):
                    continue
                bi = oracle_image_of(b, ctx)
                acc = bi if acc is None else I.union(acc, bi)
                if ig == E.VBool(True):
                    return acc
            di = oracle_image_of(default, ctx)
            return di if acc is None else I.union(acc, di)
        case IsIntervened(v):
            if v in ctx.assume_intervened:
                return FiniteImage(frozenset({E.VBool(ctx.assume_intervened[v])}))
            if not _scan_atom_values(ctx.space, v):
                return FiniteImage(frozenset({E.VBool(False)}))
            return I.BOOL_BOTH
        case InterventionValue(v, fb):
            atom_img = I._cap(FiniteImage(frozenset(_scan_atom_values(ctx.space, v))))
            fb_img = oracle_image_of(fb, ctx) if fb is not None else None
            state = ctx.assume_intervened.get(v)
            if state is True:
                return atom_img
            if state is False:
                return fb_img if fb_img is not None else I.TOP
            if fb_img is None:
                return atom_img
            return I.union(atom_img, fb_img)
        case ExistsIntervention(family, lo, hi, value):
            for var, vals in _scan_family_atoms(ctx.space, family):
                if lo is not None and var.index < lo:
                    continue
                if hi is not None and var.index > hi:
                    continue
                if value is not None and value not in vals:
                    continue
                return I.BOOL_BOTH
            return FiniteImage(frozenset({E.VBool(False)}))
        case MaxIntervenedIndex(family, upper, default):
            up = I._numeric_bounds(oracle_image_of(upper, ctx))
            idxs = []
            for var, _vals in _scan_family_atoms(ctx.space, family):
                if up is not None and up[1] is not None and var.index > up[1]:
                    continue
                idxs.append(E.VInt(var.index))
            di = oracle_image_of(default, ctx)
            if not idxs:
                return di
            return I.union(I._cap(FiniteImage(frozenset(idxs))), di)
        case RandomBernoulli():
            return I.BOOL_BOTH
    raise TypeError(f"not an Expr: {e!r}")


# ---------------------------------------------------------------------------
# Reference document text
# ---------------------------------------------------------------------------


def oracle_to_json(doc) -> str:
    """The canonical document text as the standard library writes it."""
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# The bench models
# ---------------------------------------------------------------------------

BENCH_INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench", "inputs")


def bench_models() -> list:
    """`(name, scm, partition, targets, clusters)` per row of the bench's
    manifest, loaded from the frozen documents."""
    with open(os.path.join(BENCH_INPUTS, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    out = []
    for workload in sorted(manifest):
        for row in manifest[workload]:
            stem = os.path.join(BENCH_INPUTS, row["model"])
            with open(stem + ".model.json", encoding="utf-8") as fh:
                scm = Docs.model_from_doc(json.load(fh))
            with open(stem + ".partition.json", encoding="utf-8") as fh:
                partition = Docs.partition_from_doc(json.load(fh))
            targets = [E.parse_var_name(t) for t in row["targets"]]
            clusters = None if row["clusters"] is None else set(row["clusters"])
            out.append((row["model"], scm, partition, targets, clusters))
    return out

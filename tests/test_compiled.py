"""The generated per-case code of a plan (`Plan.compiled`), checked against
the tree walker `run_plan` and the reference runner `oracle_run_plan`:
values with their classes, errors with their messages, and the draws taken
from the random source.  Covers random plans over every node kind and value
kind, the random models, every zoo model, and models nested deeper than
the recursion limit."""

from __future__ import annotations

import gc
import itertools
import pickle
import random
import re
import struct
import sys
import weakref
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import oracle_run_plan, random_intervention, random_model, random_partition, random_u
from scmc import documents as D
from scmc import expr as E
from scmc import zoo
from scmc.codegen import _LADDER_DISPATCH, _MAX_NESTING, plan_source
from scmc.consolidation import (
    Ccv,
    CcvCluster,
    PassConfig,
    attach_ccvs,
    consolidate,
    eval_ccv,
    eval_consolidated,
    wrap_intervention,
)
from scmc.errors import DomainError, ModelTooDeepError, NonDeterministicModelError, UnboundRefError
from scmc.evaluation import eval_partitioned, eval_scm, make_rng, run_plan, sample_exogenous
from scmc.expr import (
    Binary,
    BoolDomain,
    CaseList,
    Const,
    ExistsIntervention,
    IfThenElse,
    IntDomain,
    InterventionValue,
    IsIntervened,
    MaxIntervenedIndex,
    RandomBernoulli,
    RealDomain,
    Ref,
    SymDomain,
    Unary,
    VarRef,
    VBool,
    VInt,
    VReal,
    VSym,
)
from scmc.partition import Partition
from scmc.scm import EndoVar, ExoVar, InterventionSet, InterventionSpace, Plan, Scm, UniformFinite
from scmc.verification import EquivalenceStrategy, verify_equivalence

A, B = VarRef("A"), VarRef("B")
S1, S2, S3 = VarRef("S", 1), VarRef("S", 2), VarRef("S", 3)
Z = VarRef("Z")  # never an input, never a row
INPUT_VARS = [A, B]
ROW_VARS = [S1, S2, S3, A]
POOL = [A, B, S1, S2, S3]
#: the variables of `IsIntervened` ladders; only ladders test them
RUNGS = [VarRef("L", k) for k in range(_LADDER_DISPATCH + 8)]

VALUES = [
    VBool(False),
    VBool(True),
    E._TRUE,
    VInt(-2),
    VInt(0),
    VInt(1),
    VInt(2),
    VInt(10**400),  # a real domain cannot hold it: `float` overflows
    VReal(-1.5),
    VReal(-0.0),
    VReal(0.0),
    VReal(1.0),
    VReal(2.5),
    VReal(float("nan")),
    VSym("a"),
    VSym("c"),
]
DOMAINS = [
    None,
    BoolDomain(),
    IntDomain(0, 2),
    RealDomain(),
    RealDomain(0.0, 1.0),
    SymDomain(("a", "b")),
]
values = st.sampled_from(VALUES)
#: the kinds of value a tree is drawn to yield, and the values of each
VALUE_KINDS = ("bool", "int", "real", "sym")
KIND_OF = {VBool: "bool", VInt: "int", VReal: "real", VSym: "sym"}
OF_KIND = {kind: st.sampled_from([v for v in VALUES if KIND_OF[type(v)] == kind]) for kind in VALUE_KINDS}
DOMAIN_KIND = {BoolDomain: "bool", IntDomain: "int", RealDomain: "real", SymDomain: "sym"}
NUMBERS = st.sampled_from(["int", "real"])


def outcome(fn):
    """What a call returns, by `repr` and value classes, or what it raises."""
    try:
        out = fn()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return "raises", type(exc), str(exc)
    return "value", repr(out), [type(v) for v in out.values()]


def agree(plan: Plan, u, iv: InterventionSet, seed=None):
    """The compiled plan's outcome, after checking that `run_plan` and
    `oracle_run_plan` give the same one and take the same draws."""
    rngs = [None if seed is None else random.Random(seed) for _ in range(3)]
    got = outcome(lambda: plan.compiled(u, iv, rngs[0]))
    want = outcome(lambda: run_plan(plan, u, iv, rngs[1]))
    oracle = outcome(lambda: oracle_run_plan(plan, u, iv, rngs[2]))
    assert got == want, (plan, u, iv)
    assert got == oracle, (plan, u, iv)
    if seed is not None:
        assert rngs[0].getstate() == rngs[1].getstate() == rngs[2].getstate()
    return got


# ---------------------------------------------------------------------------
# Random plans over every node kind and value kind
# ---------------------------------------------------------------------------


@st.composite
def leaves(draw, of=None, refs=None):
    """A leaf.  Given a kind `of`, a constant is one of that kind, refs
    never read the unbound `Z`, and a test of the set is drawn only where
    the kind is bool: a constant takes its place.  Given `refs`, pairs of
    a variable bound where the leaf is read and its kind (None where any
    kind may be bound), a ref reads one of them, of the kind `of` where
    one is given, and a constant takes its place where none is."""
    kind = draw(st.integers(0, 3))
    bound = None if refs is None else [v for v, k in refs if of is None or k == of]
    if kind == 0 or kind > 1 and of not in (None, "bool") or kind == 1 and bound == []:
        return Const(draw(values if of is None else OF_KIND[of]))
    if kind == 1:
        return Ref(draw(st.sampled_from(bound or (POOL + [Z] if of is None else POOL))))
    if kind == 2:
        return IsIntervened(draw(st.sampled_from(POOL)))
    return ExistsIntervention(
        draw(st.sampled_from(["S", "A"])),
        draw(st.one_of(st.none(), st.integers(0, 3))),
        draw(st.one_of(st.none(), st.integers(0, 3))),
        draw(st.one_of(st.none(), values)),
    )


KINDS = st.integers(0, 19)
LADDER_LENGTHS = st.integers(_LADDER_DISPATCH - 2, len(RUNGS))
LINKS = st.integers(0, 4)
TAME_ARMS = st.builds(Const, values)
TAME_GUARDS = st.builds(Const, st.sampled_from(VALUES[:3]))


@st.composite
def ladders(draw, depth, tame=False, common=(), of=None, refs=None):
    """An else-chain of `IsIntervened` guards, long enough to dispatch on
    the set now and then: `IfThenElse` links, `CaseList`s and both mixed.
    Most rungs test a rung variable not tested above them and take its
    forced value, with or without a fallback; some test a repeated
    variable, one the cluster may not see, or another condition, and
    some arms are trees, or ladders on the same variables.  A tame ladder
    takes its other conditions, arms and fallbacks from constants, so that
    it raises only where a forced value is missing.  Given a kind `of`,
    the arms are trees of that kind and the other conditions bool trees."""
    if tame:
        sub, other = TAME_ARMS, TAME_GUARDS
    else:
        sub = trees(depth=max(depth - 2, 0), common=common, of=of, refs=refs)
        other = trees(depth=max(depth - 2, 0), common=common, of=of and "bool", refs=refs)
    order = draw(st.permutations(RUNGS))
    pairs = []
    for k in range(draw(LADDER_LENGTHS)):
        kind = draw(KINDS)  # hypothesis favours 0: the usual rung
        if kind == 1:
            guard = draw(other)
        elif kind == 2:
            guard = IsIntervened(draw(st.sampled_from(POOL + [Z] + order[:k])))
        else:
            guard = IsIntervened(order[k])
        kind = draw(KINDS)
        if kind == 1 or type(guard) is not IsIntervened:
            arm = draw(sub)
        elif kind == 2 and depth > 1:
            arm = draw(ladders(depth - 2, tame, common, of, refs))
        else:
            var = draw(st.sampled_from(order)) if kind == 3 else guard.var
            arm = InterventionValue(var, draw(sub) if kind > 9 else None)
        pairs.append((guard, arm))
    tree = draw(sub)
    while pairs:
        # the links from the bottom up: one `IfThenElse`, or a case list
        size = min(draw(LINKS), len(pairs))
        if size:
            tree = CaseList(tuple(pairs[-size:]), tree)
            del pairs[-size:]
        else:
            guard, arm = pairs.pop()
            tree = IfThenElse(guard, arm, tree)
    return tree


@st.composite
def repeats(draw, common):
    """One of the trees `common`: the object itself, or an equal copy made
    of other objects."""
    tree = draw(st.sampled_from(common))
    return tree if draw(st.booleans()) else pickle.loads(pickle.dumps(tree))


@st.composite
def trees(draw, depth=3, common=(), of=None, refs=None):
    """A tree over every node kind, which now and then takes a subtree from
    `common`, pairs of a kind and a tree (`repeats`).

    Given a kind `of`, most nodes read operands of the kinds their
    operator reads, so that the tree yields a value of that kind wherever
    its refs and forced values do; one node in ten or so ignores kinds, and
    so does the tree under it.  Refs are drawn as `leaves` draws them."""
    if of is not None and draw(st.integers(0, 9)):
        return draw(kinded(of, depth, common, refs))
    if depth == 0:
        return draw(leaves(refs=refs))
    sub = trees(depth=depth - 1, common=common, refs=refs)
    kind = draw(st.integers(0, 9))
    if kind == 1:
        return Unary(draw(st.sampled_from(["neg", "not", "abs"])), draw(sub))
    if kind == 2:
        return Binary(draw(st.sampled_from(sorted(E.BINARY_OPS) + ["xor"])), draw(sub), draw(sub))
    if kind == 3:
        return IfThenElse(draw(sub), draw(sub), draw(sub))
    if kind == 4:
        return CaseList(tuple(draw(st.lists(st.tuples(sub, sub), max_size=3))), draw(sub))
    if kind == 5:
        return InterventionValue(draw(st.sampled_from(POOL + [Z])), draw(st.one_of(st.none(), sub)))
    if kind == 6:
        return MaxIntervenedIndex(draw(st.sampled_from(["S", "A"])), draw(sub), draw(sub))
    if kind == 7:
        return RandomBernoulli(draw(sub))
    if kind == 8 and depth > 1:
        return draw(ladders(depth, common=common, refs=refs))
    if kind == 9 and common:
        return draw(repeats([tree for _, tree in common]))
    return draw(leaves(refs=refs))


@st.composite
def kinded(draw, kind, depth, common, refs=None):
    """A tree of `kind` for `trees`: a branch or a forced value of that
    kind, or an operator that yields it over operands of the kinds it
    reads."""
    if depth == 0:
        return draw(leaves(of=kind, refs=refs))

    def sub(of=kind):
        return draw(trees(depth - 1, common, of, refs))

    node = draw(st.integers(0, 6))
    if node == 1:
        return IfThenElse(sub("bool"), sub(), sub())
    if node == 2:
        return CaseList(tuple((sub("bool"), sub()) for _ in range(draw(st.integers(0, 2)))), sub())
    if node == 3:
        return InterventionValue(draw(st.sampled_from(POOL)), sub() if draw(st.booleans()) else None)
    if node == 4 and depth > 1:
        return draw(ladders(depth, common=common, of=kind, refs=refs))
    shared = [tree for k, tree in common if k == kind]
    if node == 5 and shared:
        return draw(repeats(shared))
    if node == 6 or kind == "sym":
        return draw(leaves(of=kind, refs=refs))
    if kind == "bool":
        op = draw(st.sampled_from(["not", "and", "or", "lt", "le", "eq", "bernoulli"]))
        if op == "not":
            return Unary(op, sub())
        if op == "bernoulli":
            return RandomBernoulli(sub("real"))
        if op in ("and", "or"):
            return Binary(op, sub(), sub())
        operands = draw(NUMBERS) if op != "eq" else draw(st.sampled_from(VALUE_KINDS))
        return Binary(op, sub(operands), sub(operands))
    op = draw(st.sampled_from(["neg", "max_intervened_index"] + sorted(E._NUMERIC_BINOPS)))
    if op == "neg":
        return Unary(op, sub())
    if op == "max_intervened_index":
        return MaxIntervenedIndex(draw(st.sampled_from(["S", "A"])), sub("int"), sub())
    # an int operator reads ints; a real one a real and a number
    left = kind if kind == "int" or draw(st.booleans()) else draw(NUMBERS)
    return Binary(op, sub(left), sub(kind if left != kind else draw(NUMBERS)))


@st.composite
def kinded_rows(draw, common, refs=None):
    """A row `(var, domain, tree)` whose tree is drawn to yield a value of
    its domain's kind, or of any kind where it has no domain, and to read
    `refs`, or any variable where they are None; and that kind."""
    domain = draw(st.sampled_from(DOMAINS))
    kind = DOMAIN_KIND[type(domain)] if domain is not None else draw(st.sampled_from(VALUE_KINDS))
    return (draw(st.sampled_from(ROW_VARS)), domain, draw(trees(common=common, of=kind, refs=refs))), kind


def members(domain) -> list:
    """The values of VALUES that `domain` holds, or all of them for None."""
    if domain is None:
        return VALUES
    return [v for v in VALUES if domain._contains(v)]


@st.composite
def cases(draw):
    """A plan, and one case of it: inputs, an intervention set and an rng
    seed (or None for no random source).  In a tame case the rows are tame
    ladders without domains, and each input is given once and holds a
    member of its domain (of one kind, where it has none), so that the
    case reaches its ladders.  Otherwise
    the rows' trees take subtrees from a few common ones (`repeats`), so
    that equal subtrees, as one object or as copies, recur within a row,
    across rows and across clusters that see different atoms; a row's
    refs read mostly the cluster's local inputs and earlier rows, and the
    common trees' refs the inputs.  Most cases give their inputs as
    a tame case does, so that they reach the trees; the others give an
    input twice, leave one out or put one outside its domain now and
    then.  Most forced values are values the forced variable's last
    binding holds."""
    tame = draw(st.booleans())
    clean = tame or draw(st.integers(0, 9))
    inputs = st.lists(
        st.tuples(st.sampled_from(INPUT_VARS), st.sampled_from(DOMAINS)),
        max_size=3,
        unique_by=(lambda pair: pair[0]) if clean else None,
    )
    inputs = tuple(draw(inputs))
    bound = [v for v, _ in inputs]
    #: the kind and the domain of each bound variable's last binding; an
    #: input without a domain is given values of one kind
    kind_of = {v: draw(st.sampled_from(VALUE_KINDS)) if dom is None else DOMAIN_KIND[type(dom)] for v, dom in inputs}
    domain_of = dict(inputs)

    def holds(var) -> list:
        """The values of VALUES that `var`'s last binding holds."""
        if domain_of.get(var) is not None:
            return members(domain_of[var])
        return [v for v in VALUES if KIND_OF[type(v)] == kind_of[var]] if kind_of.get(var) else VALUES

    given = tuple(kind_of.items())
    fitting = {var: holds(var) for var in kind_of}
    kinded_trees = st.sampled_from(VALUE_KINDS).flatmap(lambda k: st.tuples(st.just(k), trees(2, of=k, refs=given)))
    common = () if tame else tuple(draw(st.lists(kinded_trees, min_size=1, max_size=3)))
    clusters = []
    for _ in range(draw(st.integers(1, 3))):
        # mostly variables bound so far; now and then one that is not
        local = draw(st.lists(st.sampled_from(bound + [Z]), max_size=3))
        if tame or draw(st.integers(0, 9)):
            local = [v for v in local if v is not Z]
        visible = draw(st.one_of(st.none(), st.frozensets(st.sampled_from(POOL))))
        if visible is not None:
            # most rung variables, so that most ladders are long
            visible |= frozenset(RUNGS) - draw(st.frozensets(st.sampled_from(RUNGS), max_size=2))
        rows, refs = [], [(v, kind_of.get(v)) for v in local]
        for _ in range(draw(st.integers(1, 3))):
            if tame:
                row, kind = draw(st.tuples(st.sampled_from(ROW_VARS), st.none(), ladders(3, tame=True))), None
            else:
                row, kind = draw(kinded_rows(common, tuple(refs) if draw(st.integers(0, 9)) else None))
            rows.append(row)
            refs.append((row[0], kind))
        rows = tuple(rows)
        clusters.append((tuple(local), visible, rows))
        bound += [v for v, _, _ in rows]
        kind_of.update(refs[len(local):])
        domain_of.update((v, dom) for v, dom, _ in rows)
    pool = bound + [Z] if not bound or not draw(st.integers(0, 9)) else bound
    outputs = tuple(draw(st.lists(st.sampled_from(pool), max_size=4)))
    u = {}
    for var, dom in inputs:
        if clean:
            u[var] = draw(st.sampled_from(fitting[var] or VALUES))
        elif draw(st.integers(0, 19)):
            u[var] = draw(st.one_of(st.sampled_from(fitting[var] or VALUES), values))
    # mostly values the forced variables' rows hold; no rung, one, or
    # several (where the first rung wins)
    atoms = {}
    for var in draw(st.lists(st.sampled_from(POOL), max_size=3, unique=True)):
        atoms[var] = draw(st.sampled_from(holds(var) or VALUES) if draw(st.integers(0, 9)) else values)
    atoms.update(draw(st.dictionaries(st.sampled_from(RUNGS), values, max_size=3)))
    iv = InterventionSet.of(atoms)
    seed = draw(st.integers(0, 2**16)) if draw(st.integers(0, 4)) else None
    return Plan(inputs, tuple(clusters), outputs), u, iv, seed


def ladder_cases() -> list:
    """Ladders that random draws seldom build, as cases: a repeated
    variable past the first rungs, a case list that another guard splits,
    and a ladder nested in an arm on the same variables; each seeing every
    rung or all but one, under the empty set, one rung, the unseen rung,
    several rungs (the first wins) and other variables only."""
    top = [(IsIntervened(v), InterventionValue(v)) for v in RUNGS]
    k = _LADDER_DISPATCH + 1

    def chain(pairs, default):
        for guard, arm in reversed(pairs):
            default = IfThenElse(guard, arm, default)
        return default

    ladders_ = [
        chain(top[:k] + [(IsIntervened(RUNGS[3]), Const(VInt(99)))] + top[k:], Ref(A)),
        chain(top[:8], CaseList((*top[8:k], (Const(VBool(True)), Const(VInt(42))), *top[k:]), Ref(A))),
        chain([(g, chain(top[::-1], Const(VInt(7))) if j == 2 else arm) for j, (g, arm) in enumerate(top)], Ref(A)),
    ]
    sets = [
        {},
        {RUNGS[3]: VInt(5)},
        {RUNGS[5]: VInt(1), RUNGS[-2]: VInt(8)},
        {RUNGS[12]: VInt(3), RUNGS[2]: VInt(4), RUNGS[9]: VInt(2)},
        {S1: VInt(6)},
    ]
    out = []
    for tree in ladders_:
        for visible in (None, frozenset(RUNGS) - {RUNGS[5]}):
            plan = Plan(((A, None),), (((A,), visible, ((S2, None, tree),)),), (S2,))
            out += [(plan, {A: VInt(0)}, InterventionSet.of(atoms), None) for atoms in sets]
    return out


#: a NaN with another payload than `float("nan")`'s
OTHER_NAN = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_0001))[0]


def deep_ifs(bottom, levels=_MAX_NESTING + 5):
    """`bottom` under `levels` `if`s on computed conditions on B, each of
    which takes the branch towards it where B holds."""
    tree = bottom
    for k in range(levels):
        tree = IfThenElse(Unary("not", Ref(B)), Const(VInt(k)), tree)
    return tree


def sharing_cases() -> list:
    """Repeated subtrees that random draws seldom build, as cases: copies
    that differ only in the sign of a zero or in a NaN's payload; a
    repeated draw; a repeat first reached in a branch not taken; a repeat
    that raises, or that reads a variable unbound at its first use; a
    repeat first filled in a helper spilled past the nesting limit, before
    or after a use outside it; and a repeat before and after a row that
    binds an input again.  Each under B false and B true."""
    one, two = Const(VInt(1)), Const(VInt(2))
    inc = Binary("add", Ref(A), one)
    draw = RandomBernoulli(Binary("mul", Ref(A), Const(VReal(0.5))))
    late = Binary("add", Ref(S2), one)
    fails = Binary("div", Ref(A), Const(VInt(0)))
    rows_ = [
        [(S1, Binary("add", Ref(A), Const(VReal(-0.0)))), (S2, Binary("add", Ref(A), Const(VReal(0.0))))],
        [(S1, Binary("add", Ref(A), Const(VReal(float("nan"))))), (S2, Binary("add", Ref(A), Const(VReal(OTHER_NAN))))],
        [(S1, Binary("eq", draw, draw)), (S2, pickle.loads(pickle.dumps(draw))), (S3, draw)],
        [(S1, IfThenElse(Ref(B), inc, Const(VInt(0)))), (S2, Binary("mul", inc, two))],
        [(S1, IfThenElse(Ref(B), fails, one)), (S2, Binary("add", fails, one))],
        [(S1, IfThenElse(Ref(B), late, one)), (S2, Ref(A)), (S3, Binary("mul", late, late))],
        [(S1, deep_ifs(Binary("mul", inc, inc))), (S2, Binary("mul", inc, two))],
        [(S1, Binary("mul", inc, two)), (S2, deep_ifs(Binary("mul", inc, inc)))],
        [(S1, inc), (A, Binary("add", Ref(A), two)), (S2, pickle.loads(pickle.dumps(inc))), (S3, inc)],
    ]
    out = []
    for rows in rows_:
        cluster = ((A, B), None, tuple((v, None, t) for v, t in rows))
        plan = Plan(((A, None), (B, None)), (cluster,), tuple(v for v, _ in rows))
        for a in (VInt(3), VReal(-0.0)):
            for b in (VBool(False), VBool(True)):
                out.append((plan, {A: a, B: b}, InterventionSet.empty(), 7))
    return out


def with_examples(examples):
    def decorate(test):
        for case in examples:
            test = example(case)(test)
        return test

    return decorate


@settings(max_examples=500)
@with_examples(ladder_cases() + sharing_cases())
@given(cases())
def test_compiled_plans_match_the_tree_walker_and_the_oracle(case):
    plan, u, iv, seed = case
    agree(plan, u, iv, seed)


@settings(max_examples=200)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_random_models_match(seed, case_seed):
    scm = random_model(seed)
    u, iv = random_u(scm, case_seed), random_intervention(scm, case_seed)
    got = agree(scm.plan, u, iv)
    assert got == outcome(lambda: eval_scm(scm, u, iv, check_membership=False))


def test_consolidated_random_models_match():
    for seed in range(40):
        scm = random_model(seed)
        cons = consolidate(scm, random_partition(scm, seed), scm.endo_vars()[-2:], config=PassConfig(seed=seed))
        for k in range(8):
            u, iv = random_u(scm, 100 * seed + k), random_intervention(scm, 100 * seed + k)
            got = agree(cons.plan, u, iv)
            assert got == outcome(lambda: eval_consolidated(cons, u, iv, check_membership=False))


# ---------------------------------------------------------------------------
# The zoo, under every set of each space that fits the budget, else 64
# sampled sets
# ---------------------------------------------------------------------------

#: every zoo builder with its defaults; dominoes(128) and firing_squad(8) at
#: the bench's sizes; tool_wear(3), whose space, unlike tool_wear(36)'s, fits
#: the budget
ZOO = [build() for build in zoo.ZOO_BUILDERS.values()] + [zoo.dominoes(128), zoo.firing_squad(8), zoo.tool_wear(3)]


@pytest.mark.parametrize("entry", ZOO, ids=[f"{e.name}-{e.scm.name}-{i}" for i, e in enumerate(ZOO)])
def test_zoo_models_match_under_every_set(entry):
    space = entry.scm.interventions
    if space.size() <= 4096:
        sets = space.enumerate()
    else:
        rng = make_rng(0)
        sets = [space.sample(rng) for _ in range(64)]
    draws = sample_exogenous(entry.scm, 0, 3, strict=False)
    cons = entry.consolidated()
    for plan in (entry.scm.plan, cons.plan):
        for k, iv in enumerate(sets):
            for j, u in enumerate(draws):
                assert agree(plan, u, iv, seed=k * 3 + j)[0] == "value"


# ---------------------------------------------------------------------------
# Repeated sub-expressions: computed once per query
# ---------------------------------------------------------------------------


def memo_locals(plan) -> set:
    return set(re.findall(r"\bm\d+\b", plan_source(plan)[0]))


def composites(tree):
    """Every node of `tree` that has children, once per place it is reached."""
    stack = [tree]
    while stack:
        e = stack.pop()
        kids = E.children(e)
        if kids:
            yield e
        stack.extend(kids)


def test_the_consolidated_platformer_computes_each_distinct_operation_once_per_query():
    """On the bench's 256 draws, no query calls an operator more often than
    the plan has distinct sub-expressions on it: the 74 composite nodes the
    rows write hold 23 distinct ones, and each is evaluated at most once."""
    entry = zoo.platformer()
    plan = entry.consolidated().plan
    ((_, _, rows),) = plan.clusters
    written = [e for _, _, tree in rows for e in composites(tree)]
    assert (len(written), len({repr(e) for e in written})) == (74, 23)
    distinct = Counter(e.op for e in {repr(e): e for e in written}.values() if type(e) is Binary)
    assert memo_locals(plan)
    source, namespace = plan_source(plan)
    calls = Counter()

    def counted(op, apply):
        def call(a, b):
            calls[op] += 1
            return apply(a, b)

        return call

    ops = {id(apply): op for op, apply in E._BINARY.items()}
    for name, obj in list(namespace.items()):
        if id(obj) in ops:
            namespace[name] = counted(ops[id(obj)], obj)
    exec(compile(source, "<plan>", "exec"), namespace)
    run = namespace.pop("make")()
    rng = make_rng(2)
    most = Counter()
    for u in sample_exogenous(entry.scm, 1, 256, strict=False):
        iv = entry.scm.interventions.sample(rng)
        calls.clear()
        assert repr(run(u, iv)) == repr(run_plan(plan, u, iv))
        assert all(calls[op] <= distinct[op] for op in calls), (calls, distinct)
        most |= calls
    assert set(most) == {"add", "mul", "lt", "eq"} and sum(most.values()) > 4


@pytest.mark.parametrize("entry", ZOO, ids=[f"{e.name}-{e.scm.name}-{i}" for i, e in enumerate(ZOO)])
def test_plans_without_a_repeated_composite_write_no_memo(entry):
    """A plan whose clusters repeat no composite sub-expression writes the
    code it wrote before memo locals: no `_UNSET`, no memo local.  Every
    plan writes the same code whether its nodes have their hashes cached
    (here, from the check) or not (a copy)."""
    for plan in (entry.scm.plan, entry.consolidated().plan):
        repeated = False
        for _, _, rows in plan.clusters:
            seen = set()
            for e in (e for _, _, tree in rows for e in composites(tree)):
                repeated |= e in seen
                seen.add(e)
        if not repeated:
            assert not memo_locals(plan) and "_UNSET" not in plan_source(plan)[0]
        assert plan_source(pickle.loads(pickle.dumps(plan)))[0] == plan_source(plan)[0]


@pytest.mark.parametrize("other", [-0.0, OTHER_NAN], ids=["zero", "nan"])
def test_copies_that_differ_in_the_bits_of_a_real_are_not_shared(other):
    """`0.0` and `-0.0`, or two NaN payloads, compare equal or print alike,
    yet the rows read each constant's own bits; copies of one value are
    shared, also where they are two float objects (two NaN objects hash
    apart), with the nodes' hashes cached or not."""
    first = float("nan") if other != other else 0.0
    again = struct.unpack("<d", struct.pack("<d", first))[0]

    def row(var, x):
        return var, None, Binary("add", Const(VReal(x)), Ref(A))

    def bits(out):
        return [struct.pack("<d", v.r) for v in out.values()]

    for (xs, memo), cached in itertools.product((((first, other), False), ((first, again), True)), (False, True)):
        plan = Plan(((A, None),), (((A,), None, (row(S1, xs[0]), row(S2, xs[1]))),), (S1, S2))
        if cached:
            hash(plan)
        assert bool(memo_locals(plan)) == memo
        got = plan.compiled({A: VReal(-0.0)}, InterventionSet.empty())
        assert bits(got) == bits(run_plan(plan, {A: VReal(-0.0)}, InterventionSet.empty()))
        assert (bits(got)[0] == bits(got)[1]) == memo


def test_the_consolidated_dominoes_ladder_dispatches_on_the_set():
    """No stone is tested in turn: the 127-rung ladder is one pass over the
    set and a binary search of 7 levels down to the arms."""
    plan = zoo.dominoes(128).consolidated().plan
    source = plan_source(plan)[0]
    assert "elif" not in source and source.count(" in iv") == 1, source
    assert source.count("iv[") == 127
    assert nesting(plan) == 2 + (127).bit_length()


# ---------------------------------------------------------------------------
# Where the generated code raises, and where it must not
# ---------------------------------------------------------------------------


def one_row_plan(tree, domain=None, visible=None, inputs=((A, BoolDomain()),)):
    return Plan(inputs, ((tuple(v for v, _ in inputs), visible, ((S1, domain, tree),)),), (S1,))


def test_unbound_ref_raises_only_on_the_path_taken():
    for tree in (
        IfThenElse(Ref(A), Ref(Z), Const(VInt(1))),
        CaseList(((Ref(A), Ref(Z)),), Const(VInt(1))),
        IfThenElse(Binary("and", Ref(A), Ref(Z)), Const(VInt(2)), Const(VInt(1))),
        IfThenElse(Binary("or", Unary("not", Ref(A)), Ref(Z)), Const(VInt(2)), Const(VInt(1))),
        IfThenElse(Ref(A), InterventionValue(S2), Const(VInt(1))),
    ):
        plan = one_row_plan(tree)
        assert agree(plan, {A: VBool(False)}, InterventionSet.empty())[0] != "raises"
        got = agree(plan, {A: VBool(True)}, InterventionSet.empty())
        assert got[:2] == ("raises", UnboundRefError)
    # a Ccv reads only what its cluster has bound, not what an earlier cluster computed
    plan = Plan(((A, None),), (((A,), None, ((S1, None, Ref(A)),)), ((), None, ((S2, None, Ref(S1)),))), (S2,))
    assert agree(plan, {A: VInt(1)}, InterventionSet.empty()) == ("raises", UnboundRefError, f"unbound reference: {S1}")


def test_forced_values_are_checked_and_skip_the_tree():
    plan = one_row_plan(Ref(Z), IntDomain(0, 2))
    iv = InterventionSet.of({S1: VInt(5)})
    assert agree(plan, {A: VBool(True)}, iv) == ("raises", DomainError, "S_1 evaluated to VInt(i=5), outside its domain")
    assert agree(plan, {A: VBool(True)}, InterventionSet.of({S1: VInt(2)}))[1] == repr({S1: VInt(2)})
    # a cluster that does not see the atom evaluates the tree
    plan = one_row_plan(Const(VInt(1)), IntDomain(0, 2), visible=frozenset())
    assert agree(plan, {A: VBool(True)}, iv)[1] == repr({S1: VInt(1)})


def test_inputs_are_checked_in_order():
    plan = one_row_plan(Const(VInt(1)), inputs=((A, BoolDomain()), (B, IntDomain(0, 1))))
    assert agree(plan, {B: VInt(0)}, InterventionSet.empty()) == ("raises", UnboundRefError, "unbound reference: A")
    assert agree(plan, {A: VInt(3)}, InterventionSet.empty()) == (
        "raises",
        DomainError,
        "input A=VInt(i=3) is outside its domain",
    )
    assert agree(plan, {A: VBool(True), B: VInt(7)}, InterventionSet.empty())[2] == "input B=VInt(i=7) is outside its domain"


def test_draws_follow_the_evaluation_order():
    tree = Binary("eq", RandomBernoulli(Const(VReal(0.25))), RandomBernoulli(IfThenElse(Ref(A), Const(VReal(0.1)), Const(VReal(0.9)))))
    plan = one_row_plan(tree)
    for seed in range(20):
        assert agree(plan, {A: VBool(seed % 2 == 0)}, InterventionSet.empty(), seed)[0] == "value"
    assert agree(plan, {A: VBool(True)}, InterventionSet.empty()) == (
        "raises",
        NonDeterministicModelError,
        "model draws at evaluation time; reparameterize it or pass an rng",
    )


def test_the_plan_still_compares_hashes_prints_and_pickles_as_before():
    entry = zoo.step_by_step()
    plan = entry.scm.plan
    before = (repr(plan), hash(plan))
    eval_scm(entry.scm, sample_exogenous(entry.scm, 0, 1)[0])
    assert "compiled" in plan.__dict__
    assert (repr(plan), hash(plan)) == before
    copy = pickle.loads(pickle.dumps(entry.scm))
    assert copy == entry.scm and copy.plan == plan
    assert "compiled" not in copy.plan.__dict__


@pytest.mark.parametrize("deep", [False, True], ids=["flat", "with-helpers"])
def test_the_generated_function_is_freed_with_its_plan(deep):
    chain = Ref(A)
    for _ in range(3 * _MAX_NESTING if deep else 1):
        chain = Binary("and", Ref(A), chain)
    plan = one_row_plan(chain)
    assert ("def h1(" in plan_source(plan)[0]) == deep
    gc.collect()
    gc.disable()
    try:
        function = weakref.ref(plan.compiled)
        del plan
        assert function() is None  # no reference cycle keeps it alive
    finally:
        gc.enable()


def test_consolidation_verification_and_documents_build_no_code():
    """The bench's models under its strategies: the columns cover every
    case, so only queries build code."""
    for entry in (zoo.platformer(), zoo.firing_squad(8), zoo.step_by_step(), zoo.dominoes(128), zoo.tool_wear(36)):
        cons = entry.consolidated()
        if entry.scm.interventions.size() > 4096:
            strategy = EquivalenceStrategy.sampled(count=256, seed=1)
        else:
            strategy = EquivalenceStrategy.exhaustive()
        assert verify_equivalence(entry.scm, cons, entry.targets, strategy).equal
        back = D.consolidated_from_doc(D.consolidated_to_doc(cons))
        for plan in (entry.scm.plan, cons.plan, back.plan):
            assert "compiled" not in plan.__dict__


# ---------------------------------------------------------------------------
# Depth
# ---------------------------------------------------------------------------

DEEP = 5000


def not_chain(x, n=DEEP):
    for _ in range(n):
        x = Unary("not", x)
    return x


def add_chain(x, n=DEEP):
    for _ in range(n):
        x = Binary("add", x, Const(VInt(1)))
    return x


def ladder(stones, last):
    """if do(S_n) then its value elif do(S_n-1) ... else `last`."""
    tree = last
    for s in stones:
        tree = IfThenElse(IsIntervened(s), InterventionValue(s), tree)
    return tree


def nesting(plan) -> int:
    return max((len(line) - len(line.lstrip(" "))) // 4 for line in plan_source(plan)[0].splitlines())


U, N, X, Y, W = VarRef("U"), VarRef("N"), VarRef("X"), VarRef("Y"), VarRef("W")


def deep_scm() -> Scm:
    """dominoes(DEEP) with three more variables: a `not` chain, an `add`
    chain and a ladder over every stone, each DEEP levels deep."""
    base = zoo.dominoes(DEEP).scm
    stones = base.endo_vars()
    return Scm(
        name="deep",
        endogenous=base.endogenous
        + (
            EndoVar(X, BoolDomain(), not_chain(Ref(U))),
            EndoVar(Y, IntDomain(0, 2 * DEEP), add_chain(Ref(N))),
            EndoVar(W, BoolDomain(), ladder(stones[1:], Ref(stones[0]))),
        ),
        exogenous=base.exogenous
        + (
            ExoVar(U, BoolDomain(), UniformFinite((VBool(False), VBool(True)))),
            ExoVar(N, IntDomain(0, 3), UniformFinite((VInt(0), VInt(3)))),
        ),
        interventions=base.interventions,
    )


def test_models_deeper_than_the_recursion_limit_evaluate():
    assert sys.getrecursionlimit() < DEEP
    scm = deep_scm()
    push = VarRef("push")
    u = {push: VBool(True), U: VBool(False), N: VInt(3)}
    out = eval_scm(scm, u)
    assert (out[X], out[Y], out[W]) == (VBool(False), VInt(DEEP + 3), VBool(True))
    held = InterventionSet.of({VarRef("S", DEEP // 2): VBool(False)})
    out = eval_scm(scm, u, held)
    assert out[W] == VBool(False) and out[VarRef("S", DEEP)] == VBool(False)
    assert nesting(scm.plan) <= _MAX_NESTING + 2
    with pytest.raises(ModelTooDeepError):
        eval_partitioned(scm, Partition.of([[v] for v in scm.endo_vars()]), u)


def test_consolidated_models_deeper_than_the_recursion_limit_evaluate():
    entry = zoo.dominoes(DEEP)
    stones = entry.scm.endo_vars()
    cons = consolidate(entry.scm, entry.partition, entry.targets, set(), PassConfig(gate=False))
    rho = {stones[-1]: ladder(stones[1:], Ref(stones[0]))}
    cons = attach_ccvs(cons, {1: Ccv((stones[-1],), rho, entry.scm.interventions.restrict(stones[1:]), 1)})
    push = VarRef("push")
    assert eval_consolidated(cons, {push: VBool(True)})[stones[-1]] == VBool(True)
    for k in (2, DEEP // 2, DEEP):
        held = InterventionSet.of({VarRef("S", k): VBool(False)})
        want = eval_scm(entry.scm, {push: VBool(True)}, held)[stones[-1]]
        assert eval_consolidated(cons, {push: VBool(True)}, held)[stones[-1]] == want == VBool(k == 1)
    assert nesting(cons.plan) <= _MAX_NESTING + 2
    ccv = next(c.ccv for c in cons.clusters if isinstance(c, CcvCluster))
    with pytest.raises(ModelTooDeepError):
        eval_ccv(ccv, {stones[0]: VBool(True)}, InterventionSet.empty())


def test_deep_strict_chains_in_a_consolidated_model():
    base = Scm(
        name="two",
        endogenous=(EndoVar(X, BoolDomain(), Ref(U)), EndoVar(Y, IntDomain(0, 2 * DEEP), Ref(N))),
        exogenous=(
            ExoVar(U, BoolDomain(), UniformFinite((VBool(False), VBool(True)))),
            ExoVar(N, IntDomain(0, 3), UniformFinite((VInt(0), VInt(3)))),
        ),
        interventions=InterventionSpace.power_set([(X, [VBool(True)])]),
    )
    cons = consolidate(base, Partition.of([[X], [Y]]), [X, Y], set(), PassConfig(gate=False))
    space = base.interventions
    cons = attach_ccvs(
        cons,
        {
            0: Ccv((X,), {X: not_chain(Ref(U), DEEP + 1)}, space, 0),
            1: Ccv((Y,), {Y: add_chain(Ref(N))}, space, 1),
        },
    )
    assert eval_consolidated(cons, {U: VBool(True), N: VInt(2)}) == {X: VBool(False), Y: VInt(DEEP + 2)}
    with pytest.raises(ModelTooDeepError):
        eval_ccv(cons.ccvs()[0], {U: VBool(True)}, InterventionSet.empty())


@pytest.mark.parametrize("width", [_MAX_NESTING - 1, _MAX_NESTING, 3 * _MAX_NESTING + 7])
def test_lazy_nesting_moves_into_helpers(width):
    """Right-nested `and`s, `if`s on computed conditions, case lists with
    computed guards and fallback chains, each past the nesting limit."""
    bits = [VarRef("b", k) for k in range(width)]
    inputs = tuple((b, BoolDomain()) for b in bits)

    def right(op):
        tree = Ref(bits[-1])
        for b in reversed(bits[:-1]):
            tree = Binary(op, Unary("not", Ref(b)), tree)
        return tree

    ite = Const(VInt(-1))
    for k, b in enumerate(bits):
        ite = IfThenElse(Unary("not", Ref(b)), ite, Const(VInt(k)))
    cases_ = CaseList(tuple((Unary("not", Ref(b)), Const(VInt(k))) for k, b in enumerate(bits)), Const(VInt(-1)))
    fallback = Const(VInt(-1))
    for k, b in enumerate(bits):
        fallback = InterventionValue(b, Binary("add", fallback, Const(VInt(k))))
    rows = tuple((VarRef("r", k), None, tree) for k, tree in enumerate([right("and"), right("or"), ite, cases_, fallback]))
    plan = Plan(inputs, ((bits, None, rows),), tuple(v for v, _, _ in rows))
    assert nesting(plan) <= _MAX_NESTING + 2
    rng = random.Random(width)
    for _ in range(12):
        u = {b: VBool(rng.random() < 0.9) for b in bits}
        iv = InterventionSet.of({b: VInt(7) for b in bits if rng.random() < 0.05})
        got = agree(plan, u, iv)
        assert got[0] == "value", got


def test_a_ladder_whose_search_would_nest_too_deep_moves_into_a_helper():
    """A long ladder under `depth` computed `if`s: near the nesting limit
    the whole ladder, not each of its arms, is dispatched in a helper."""
    stones = [VarRef("L", k) for k in range(2 * _LADDER_DISPATCH)]
    bits = [VarRef("b", k) for k in range(_MAX_NESTING + 2)]
    sets = [
        InterventionSet.empty(),
        InterventionSet.of({stones[0]: VInt(1)}),
        InterventionSet.of({stones[-1]: VInt(2), S1: VInt(3)}),
        InterventionSet.of({stones[3]: VInt(4), stones[9]: VInt(5)}),
    ]
    for depth in range(_MAX_NESTING - 8, _MAX_NESTING + 2):
        tree = ladder(stones, Const(VInt(-1)))
        for k, b in enumerate(bits[:depth]):
            tree = IfThenElse(Unary("not", Ref(b)), tree, Const(VInt(k)))
        plan = Plan(tuple((b, BoolDomain()) for b in bits), ((tuple(bits), None, ((S1, None, tree),)),), (S1,))
        source = plan_source(plan)[0]
        assert source.count(" in iv") == 1 and "elif" not in source, source
        assert nesting(plan) <= _MAX_NESTING + 2
        for iv in sets:
            assert agree(plan, {b: VBool(False) for b in bits}, iv)[0] == "value"


def test_a_guarded_intervention_value_reads_the_set_outright():
    """In the branch an `IsIntervened(v)` test takes, `InterventionValue(v)`
    is `iv[v]`: no lookup that may miss, no `is None` test and no raise.
    That holds for `consolidation.wrap_intervention`'s shape, along a
    ladder dispatched on the set, an `elif` chain and a case list, and in
    helpers spilled past the nesting limit; elsewhere, or for another
    variable, the lookup stays."""
    stones = [VarRef("L", k) for k in range(3 * _MAX_NESTING + 7)]
    # rungs split by a constant guard: no ladder is long enough to dispatch,
    # so the chain is `elif`s and spills into helpers
    split = Ref(A)
    for s in stones:
        split = IfThenElse(IsIntervened(s), InterventionValue(s), IfThenElse(Const(VBool(False)), Ref(A), split))
    guarded = [
        wrap_intervention(S2, Ref(A)),
        ladder(stones, Ref(A)),
        split,
        CaseList(((IsIntervened(S2), InterventionValue(S2)), (IsIntervened(S3), InterventionValue(S3))), Ref(A)),
    ]
    for tree in guarded:
        source = plan_source(one_row_plan(tree))[0]
        # the one raise left is the input's presence check
        assert "is None" not in source and "iv.get(" not in source, source
        assert source.count("raise _UnboundRefError") == 1, source
    assert "def h1(" not in plan_source(one_row_plan(guarded[1]))[0]
    assert "def h1(" in plan_source(one_row_plan(split))[0]
    # S3's value under S2's test, and S2's outside it, are looked up
    unguarded = IfThenElse(
        IsIntervened(S2),
        Binary("add", InterventionValue(S2), InterventionValue(S3, Const(VInt(0)))),
        InterventionValue(S2),
    )
    source = plan_source(one_row_plan(unguarded))[0]
    assert source.count("is None") == 2 and source.count("iv.get(") == 2 and source.count("iv[") == 1, source
    assert source.count("raise _UnboundRefError") == 2, source
    # the generated code agrees with `run_plan` and the oracle
    sets = [
        InterventionSet.empty(),
        InterventionSet.of({S2: VInt(4)}),
        InterventionSet.of({S3: VInt(-1)}),
        InterventionSet.of({S2: VInt(4), S3: VReal(-0.0)}),
        InterventionSet.of({stones[0]: VInt(7)}),
        InterventionSet.of({stones[-1]: VInt(8), stones[_MAX_NESTING + 3]: VInt(9)}),
    ]
    for tree in guarded + [unguarded]:
        plan = one_row_plan(tree, inputs=((A, None),))
        for iv in sets:
            for u in ({A: VInt(2)}, {A: VReal(0.5)}):
                agree(plan, u, iv)
    assert agree(one_row_plan(unguarded, inputs=((A, None),)), {A: VInt(2)}, sets[0])[:2] == ("raises", UnboundRefError)

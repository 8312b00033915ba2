"""Expression IR: evaluation, node counting, substitution."""

import copy
import dataclasses
import itertools
import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from scmc import documents as D
from scmc import expr as E
from scmc import zoo
from scmc.errors import (
    DivisionByZeroError,
    DomainError,
    NonDeterministicModelError,
    UnboundRefError,
)
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
    bconst,
    eval_expr,
    iconst,
    node_count,
    parse_var_name,
    rconst,
    substitute,
    value_in_domain,
)
from scmc.scm import InterventionSet

from helpers import (
    oracle_apply_binary,
    oracle_eval,
    oracle_hash,
    oracle_node_count,
    oracle_value_in_domain,
    random_expr,
    subtrees,
)

S1, S3, A, B = VarRef("S", 1), VarRef("S", 3), VarRef("A"), VarRef("B")


def ivs(d):
    return InterventionSet.of(d)


class TestEval:
    def test_intervention_branch_overrides(self):
        # forced stone wins over the chain value
        e = IfThenElse(IsIntervened(S3), InterventionValue(S3, Ref(S1)), Ref(S1))
        got = eval_expr(e, {S1: VInt(1)}, ivs({S3: VInt(0)}))
        assert got == VInt(0)

    def test_plain_reference(self):
        assert eval_expr(Ref(A), {A: VInt(7)}, ivs({})) == VInt(7)

    def test_max_intervened_index(self):
        e = MaxIntervenedIndex("S", upper=iconst(30), default=iconst(0))
        iv = ivs({VarRef("S", 12): VInt(1), VarRef("S", 24): VInt(1)})
        # oracle: linear scan over the atoms
        best = max(v.index for v, _ in iv.assignments if v.index <= 30)
        assert best == 24
        assert eval_expr(e, {}, iv) == VInt(24)

    def test_max_intervened_index_respects_upper(self):
        e = MaxIntervenedIndex("S", upper=iconst(20), default=iconst(-1))
        iv = ivs({VarRef("S", 12): VInt(1), VarRef("S", 24): VInt(1)})
        assert eval_expr(e, {}, iv) == VInt(12)
        assert eval_expr(e, {}, ivs({})) == VInt(-1)

    def test_exists_intervention_value_filter(self):
        iv = ivs({VarRef("S", 2): VBool(True)})
        assert eval_expr(ExistsIntervention("S", value=VBool(True)), {}, iv) == VBool(True)
        assert eval_expr(ExistsIntervention("S", value=VBool(False)), {}, iv) == VBool(False)
        assert eval_expr(ExistsIntervention("S", lo=3), {}, iv) == VBool(False)
        assert eval_expr(ExistsIntervention("T"), {}, iv) == VBool(False)

    def test_case_list_first_match(self):
        # overlapping guards: the first one that fires decides
        e = CaseList(
            (
                (Binary("eq", Ref(B), iconst(0)), bconst(True)),
                (Binary("le", Ref(B), iconst(10)), bconst(False)),
            ),
            bconst(True),
        )
        assert eval_expr(e, {B: VInt(0)}, ivs({})) == VBool(True)
        assert eval_expr(e, {B: VInt(5)}, ivs({})) == VBool(False)
        assert eval_expr(e, {B: VInt(11)}, ivs({})) == VBool(True)

    def test_unbound_ref(self):
        with pytest.raises(UnboundRefError):
            eval_expr(Ref(A), {}, ivs({}))

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZeroError):
            eval_expr(Binary("div", iconst(1), iconst(0)), {}, ivs({}))
        with pytest.raises(DivisionByZeroError):
            eval_expr(Binary("mod", iconst(1), iconst(0)), {}, ivs({}))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            eval_expr(Binary("add", bconst(True), iconst(1)), {}, ivs({}))
        with pytest.raises(DomainError):
            eval_expr(Unary("not", iconst(1)), {}, ivs({}))
        with pytest.raises(DomainError):
            eval_expr(Binary("pow", rconst(-2.0), rconst(0.5)), {}, ivs({}))

    def test_intervention_value_without_fallback(self):
        e = InterventionValue(A)
        assert eval_expr(e, {}, ivs({A: VInt(9)})) == VInt(9)
        with pytest.raises(UnboundRefError):
            eval_expr(e, {}, ivs({}))

    def test_draw_requires_rng(self):
        with pytest.raises(NonDeterministicModelError):
            eval_expr(RandomBernoulli(rconst(0.5)), {}, ivs({}))

    def test_numeric_promotion(self):
        assert eval_expr(Binary("mul", rconst(0.5), iconst(4)), {}, ivs({})) == VReal(2.0)
        assert eval_expr(Binary("eq", iconst(2), rconst(2.0)), {}, ivs({})) == VBool(True)


class TestNodeCount:
    def test_leaves(self):
        assert node_count(iconst(5)) == 1
        assert node_count(Ref(A)) == 1

    def test_binary(self):
        assert node_count(Binary("add", Ref(A), iconst(1))) == 3

    def test_intervention_wrapper(self):
        # the conditional-branching wrapper around f = Ref A weighs 6:
        # if-node, check plus variable slot, forced value plus slot, body
        f = Ref(A)
        wrapper = IfThenElse(IsIntervened(A), InterventionValue(A), f)
        assert node_count(wrapper) == 6
        assert node_count(wrapper) == 5 + node_count(f)

    def test_case_list(self):
        e = CaseList(((bconst(True), iconst(1)),), iconst(2))
        assert node_count(e) == 4

    def test_quantifiers(self):
        assert node_count(ExistsIntervention("S")) == 2
        assert node_count(MaxIntervenedIndex("S", iconst(3), iconst(0))) == 4


class TestSubstitute:
    def test_single_replacement(self):
        got = substitute(Ref(B), {B: Binary("add", Ref(A), iconst(1))})
        assert got == Binary("add", Ref(A), iconst(1))

    def test_two_bindings(self):
        e5 = Binary("eq", Binary("mod", Ref(A), iconst(5)), iconst(0))
        e10 = Binary("eq", Binary("mod", Ref(A), iconst(10)), iconst(0))
        Evar, Fvar = VarRef("E"), VarRef("F")
        got = substitute(Binary("and", Ref(Evar), Ref(Fvar)), {Evar: e5, Fvar: e10})
        assert got == Binary("and", e5, e10)

    def test_empty_bindings_identity(self):
        e = IfThenElse(IsIntervened(A), InterventionValue(A, Ref(B)), Ref(B))
        assert substitute(e, {}) == e

    def test_intervention_slots_untouched(self):
        e = IfThenElse(IsIntervened(A), InterventionValue(A, Ref(A)), Ref(A))
        got = substitute(e, {A: iconst(3)})
        # value reads are replaced, intervention identities are not
        assert got == IfThenElse(IsIntervened(A), InterventionValue(A, iconst(3)), iconst(3))


def _filled(node, slot: str) -> bool:
    try:
        getattr(node, slot)
    except AttributeError:
        return False
    return True


NODE_SAMPLES = [
    iconst(1),
    Ref(A),
    Unary("not", Ref(A)),
    Binary("add", Ref(A), iconst(1)),
    IfThenElse(IsIntervened(A), InterventionValue(A), Ref(B)),
    CaseList(((bconst(True), iconst(1)),), iconst(2)),
    IsIntervened(A),
    InterventionValue(A, Ref(B)),
    ExistsIntervention("S", 1, None, VInt(2)),
    MaxIntervenedIndex("S", iconst(3), iconst(0)),
    RandomBernoulli(rconst(0.5)),
]


class TestNodeCaches:
    """Each node computes its size and its hash once and keeps them in two
    slots that are not dataclass fields."""

    def _check(self, root):
        nodes = subtrees(root)
        sizes = [oracle_node_count(n) for n in nodes]
        hashes = [oracle_hash(n) for n in nodes]
        assert not any(_filled(n, "_size") or _filled(n, "_hash") for n in nodes)
        for _ in range(2):  # the first pass fills the caches, the second reads them
            assert [node_count(n) for n in nodes] == sizes
            assert [hash(n) for n in nodes] == hashes
            assert all(_filled(n, "_size") and _filled(n, "_hash") for n in nodes)

    def test_size_and_hash_match_the_oracle_on_random_trees(self):
        for seed in range(400):
            self._check(random_expr(seed))

    def test_size_and_hash_match_the_oracle_on_consolidated_zoo_trees(self):
        for entry in (
            zoo.dominoes(16),
            zoo.tool_wear(12),
            zoo.firing_squad(5),
            zoo.step_by_step(),
            zoo.platformer(),
            zoo.bernoulli_fork(),
        ):
            cons = entry.consolidated()
            # the pipeline's own trees, caches filled while it ran
            for ccv in cons.ccvs():
                for tree in ccv.rho.values():
                    for n in subtrees(tree):
                        assert node_count(n) == oracle_node_count(n)
                        assert hash(n) == oracle_hash(n)
            # the same trees loaded afresh, caches empty
            for ccv in D.consolidated_from_doc(D.consolidated_to_doc(cons)).ccvs():
                for tree in ccv.rho.values():
                    self._check(tree)

    def test_nodes_have_no_instance_dict_and_stay_frozen(self):
        for node in NODE_SAMPLES:
            assert not hasattr(node, "__dict__")
            node_count(node)
            hash(node)
            for name in [f.name for f in dataclasses.fields(node)] + ["_size", "_hash", "extra"]:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(node, name, None)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(node, name)

    def test_fields_init_match_args_and_repr_are_the_dataclass_ones(self):
        for node in NODE_SAMPLES:
            names = tuple(f.name for f in dataclasses.fields(node))
            assert type(node).__match_args__ == names
            assert type(node)(*[getattr(node, n) for n in names]) == node
            assert "_size" not in repr(node) and "_hash" not in repr(node)
        assert repr(Binary("add", Ref(A), iconst(1))) == (
            "Binary(op='add', left=Ref(var=VarRef(name='A', index=None)), right=Const(value=VInt(i=1)))"
        )
        assert repr(InterventionValue(A)) == "InterventionValue(var=VarRef(name='A', index=None), fallback=None)"
        assert dataclasses.replace(Binary("add", Ref(A), iconst(1)), op="sub") == Binary("sub", Ref(A), iconst(1))

    def test_equal_nodes_stay_distinct_objects(self):
        neg, pos = Const(VReal(-0.0)), Const(VReal(0.0))
        assert neg == pos and hash(neg) == hash(pos)
        assert repr(neg) == "Const(value=VReal(r=-0.0))" and repr(pos) == "Const(value=VReal(r=0.0))"
        assert Binary("add", neg, Ref(A)) == Binary("add", pos, Ref(A))
        assert Binary("add", neg, Ref(A)).left is neg
        assert Const(VReal(-0.0)) is not neg
        # a filled cache is never compared
        cached = Binary("add", Ref(A), iconst(1))
        node_count(cached), hash(cached)
        assert cached == Binary("add", Ref(A), iconst(1))
        assert Binary("add", Ref(A), iconst(1)) == cached
        assert cached != Binary("add", Ref(A), iconst(2))

    def test_class_patterns_match(self):
        e = IfThenElse(IsIntervened(A), InterventionValue(A, Ref(B)), Binary("lt", Ref(B), rconst(-0.0)))
        node_count(e), hash(e)
        match e:
            case IfThenElse(IsIntervened(v), InterventionValue(var=w, fallback=Ref(fb)), Binary("lt", _, Const(VReal(r)))):
                assert (v, w, fb, str(r)) == (A, A, B, "-0.0")
            case _:
                pytest.fail("class patterns did not match")


class TestMapChildren:
    def test_identity_when_no_child_changes(self):
        for seed in range(100):
            e = random_expr(seed)
            for n in subtrees(e):
                assert E.map_children(n, lambda c: c) is n

    def test_children_are_visited_in_children_order(self):
        for seed in range(100):
            e = random_expr(seed)
            seen = []
            E.map_children(e, lambda c: seen.append(c) or c)
            assert len(seen) == len(E.children(e))
            assert all(a is b for a, b in zip(seen, E.children(e)))

    def test_changing_any_one_child_rebuilds_only_that_node(self):
        marker = Const(VSym("changed"))
        for node in NODE_SAMPLES:
            kids = E.children(node)
            for i in range(len(kids)):
                it = iter(range(len(kids)))
                got = E.map_children(node, lambda c: marker if next(it) == i else c)
                assert got is not node and type(got) is type(node)
                new_kids = E.children(got)
                assert new_kids[i] is marker
                assert all(new_kids[j] is kids[j] for j in range(len(kids)) if j != i)

    def test_extra_arguments_are_passed_to_f(self):
        for seed in range(100):
            e = random_expr(seed)
            seen = []
            got = E.map_children(e, lambda c, depth, tag: seen.append((c, depth, tag)) or c, 3, "x")
            assert got is e
            assert [(d, t) for _, d, t in seen] == [(3, "x")] * len(E.children(e))
            assert all(c is k for (c, _, _), k in zip(seen, E.children(e)))

    def test_fallback_less_intervention_value_is_not_visited(self):
        node = InterventionValue(A)
        assert E.map_children(node, lambda c: pytest.fail("visited")) is node

    def test_substitute_shares_what_it_does_not_bind(self):
        left = Binary("mul", Ref(B), iconst(2))
        e = Binary("add", left, Ref(A))
        got = substitute(e, {A: iconst(5)})
        assert got == Binary("add", left, iconst(5))
        assert got.left is left
        assert substitute(e, {VarRef("Q"): iconst(1)}) is e
        for seed in range(100):
            tree = random_expr(seed)
            assert substitute(tree, {VarRef("Q"): iconst(1)}) is tree


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

X, Y = VarRef("X"), VarRef("Y")


@st.composite
def int_exprs(draw, depth=3):
    if depth == 0:
        return draw(st.sampled_from([Ref(X), Ref(Y), iconst(0), iconst(1), iconst(2)]))
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return draw(int_exprs(depth=0))
    if kind == 1:
        op = draw(st.sampled_from(["add", "sub", "mul", "min", "max"]))
        return Binary(op, draw(int_exprs(depth=depth - 1)), draw(int_exprs(depth=depth - 1)))
    if kind == 2:
        return Binary("mod", draw(int_exprs(depth=depth - 1)), iconst(draw(st.integers(1, 4))))
    if kind == 3:
        return Unary("neg", draw(int_exprs(depth=depth - 1)))
    guard = Binary("le", draw(int_exprs(depth=depth - 1)), draw(int_exprs(depth=depth - 1)))
    return IfThenElse(guard, draw(int_exprs(depth=depth - 1)), draw(int_exprs(depth=depth - 1)))


@given(int_exprs(), st.integers(-3, 3), st.integers(-3, 3))
def test_eval_deterministic(e, x, y):
    env = {X: VInt(x), Y: VInt(y)}
    iv = ivs({})
    assert eval_expr(e, env, iv) == eval_expr(e, env, iv)


@given(int_exprs(), int_exprs())
def test_substitution_soundness(e, bound):
    """Substituting B's definition equals evaluating B first, exhaustively
    over the finite joint domain of the free inputs."""
    target = Binary("add", e, Ref(VarRef("Bv")))
    Bv = VarRef("Bv")
    substituted = substitute(target, {Bv: bound})
    for x, y in itertools.product(range(-2, 3), repeat=2):
        env = {X: VInt(x), Y: VInt(y)}
        bval = eval_expr(bound, env, ivs({}))
        direct = eval_expr(target, {**env, Bv: bval}, ivs({}))
        inlined = eval_expr(substituted, env, ivs({}))
        assert direct == inlined


@given(int_exprs(), int_exprs())
def test_substitution_node_count_bound(e, bound):
    Bv = VarRef("Bv")
    target = Binary("add", e, Ref(Bv))
    occurrences = 1
    got = node_count(substitute(target, {Bv: bound}))
    assert got <= node_count(target) + occurrences * node_count(bound)


# ---------------------------------------------------------------------------
# Parity with the reference evaluator
# ---------------------------------------------------------------------------

S2 = VarRef("S", 2)
Z = VarRef("Z")  # never bound, never intervened
BOUNDABLE = [A, B, S1, S2, S3]
VALUES = [
    VBool(False),
    VBool(True),
    VInt(-2),
    VInt(0),
    VInt(1),
    VInt(2),
    VReal(-1.5),
    VReal(0.0),
    VReal(1.0),
    VReal(2.5),
    VSym("a"),
    VSym("b"),
]
values = st.sampled_from(VALUES)
maybe_index = st.one_of(st.none(), st.integers(0, 4))


@st.composite
def leaves(draw):
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return Const(draw(values))
    if kind == 1:
        return Ref(draw(st.sampled_from(BOUNDABLE + [Z])))
    if kind == 2:
        return IsIntervened(draw(st.sampled_from(BOUNDABLE)))
    return ExistsIntervention(
        draw(st.sampled_from(["S", "A"])),
        draw(maybe_index),
        draw(maybe_index),
        draw(st.one_of(st.none(), values)),
    )


@st.composite
def any_exprs(draw, depth=3):
    """Every node class, including ill-kinded and erroring combinations."""
    if depth == 0:
        return draw(leaves())
    sub = any_exprs(depth=depth - 1)
    kind = draw(st.integers(0, 8))
    if kind == 0:
        return draw(leaves())
    if kind == 1:
        return Unary(draw(st.sampled_from(["neg", "not", "abs"])), draw(sub))
    if kind == 2:
        op = draw(st.sampled_from(sorted(E.BINARY_OPS) + ["xor"]))
        return Binary(op, draw(sub), draw(sub))
    if kind == 3:
        return IfThenElse(draw(sub), draw(sub), draw(sub))
    if kind == 4:
        arms = draw(st.lists(st.tuples(sub, sub), max_size=2))
        return CaseList(tuple(arms), draw(sub))
    if kind == 5:
        return InterventionValue(draw(st.sampled_from(BOUNDABLE + [Z])), draw(st.one_of(st.none(), sub)))
    if kind == 6:
        return MaxIntervenedIndex(draw(st.sampled_from(["S", "A"])), draw(sub), draw(sub))
    if kind == 7:
        return RandomBernoulli(draw(sub))
    return draw(leaves())


envs = st.dictionaries(st.sampled_from(BOUNDABLE), values)
intervention_sets = st.dictionaries(st.sampled_from(BOUNDABLE), values).map(InterventionSet.of)


def outcome(fn):
    try:
        return "value", fn()
    except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
        return "raises", type(exc)


@settings(max_examples=500)
@given(any_exprs(), envs, intervention_sets, st.one_of(st.none(), st.integers(0, 2**16)))
def test_eval_matches_reference_evaluator(e, env, iv, seed):
    rng_a = random.Random(seed) if seed is not None else None
    rng_b = random.Random(seed) if seed is not None else None
    got = outcome(lambda: eval_expr(e, env, iv, rng_a))
    want = outcome(lambda: oracle_eval(e, env, iv, rng_b))
    # dataclass equality also tells VInt(1) from VReal(1.0)
    assert got == want
    if got[0] == "raises":
        assert got[1] in (DivisionByZeroError, DomainError, UnboundRefError, NonDeterministicModelError)
    if seed is not None:
        assert rng_a.random() == rng_b.random()  # the same number of draws was taken


def test_operators_match_reference_evaluator_on_value_grid():
    """Every operator on every pair of sample values, so the arithmetic
    core is compared case by case, not only where random trees reach."""
    grid = VALUES + [VInt(3), VInt(-1), VReal(-0.0), VReal(3.0)]
    for op in sorted(E.BINARY_OPS):
        for a, b in itertools.product(grid, repeat=2):
            e = Binary(op, Const(a), Const(b))
            assert outcome(lambda: eval_expr(e, {})) == outcome(lambda: oracle_eval(e, {})), (op, a, b)
    for op in sorted(E.UNARY_OPS):
        for a in grid:
            e = Unary(op, Const(a))
            assert outcome(lambda: eval_expr(e, {})) == outcome(lambda: oracle_eval(e, {})), (op, a)


#: every value kind, with the payloads a document never holds: a VReal
#: holding an int or a bool, a VInt holding a bool or a float, ints past
#: 2**64 and past the float range, a real zero's sign, NaN and infinities
ODD_GRID = [
    VBool(False),
    VBool(True),
    VInt(0),
    VInt(3),
    VInt(-2),
    VInt(2**70),
    VInt(True),
    VInt(False),
    VInt(2.5),
    VReal(0.0),
    VReal(-0.0),
    VReal(1.5),
    VReal(-2.5),
    VReal(1e200),
    VReal(float("nan")),
    VReal(float("inf")),
    VReal(float("-inf")),
    VReal(2),
    VReal(True),
    VReal(10**400),
    VSym("a"),
    VSym("b"),
]


def exact_outcome(fn, a, b):
    """The result's class, payload type and repr, and which operand it is;
    or the error's type and message."""
    try:
        v = fn()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return "raises", type(exc), str(exc)
    payload = getattr(v, dataclasses.fields(v)[0].name)
    return "value", type(v), type(payload), repr(v), "a" if v is a else "b" if v is b else None


def test_operator_table_matches_the_string_chain_exactly():
    """`_apply_binary` and `Binary` against the string chain they replaced,
    kept as `oracle_apply_binary`: every operator, and an unknown one, on
    every pair of value kinds, odd payloads included."""
    assert set(E._BINARY) == E.BINARY_OPS
    for op in sorted(E.BINARY_OPS) + ["xor"]:
        for a, b in itertools.product(ODD_GRID, repeat=2):
            y = getattr(b, dataclasses.fields(b)[0].name)
            if op == "pow" and type(y) is int and abs(y) > 64:
                continue  # an int power that large never finishes
            want = exact_outcome(lambda: oracle_apply_binary(op, a, b), a, b)
            assert exact_outcome(lambda: E._apply_binary(op, a, b), a, b) == want, (op, a, b)
            node = Binary(op, Const(a), Const(b))
            assert exact_outcome(lambda: eval_expr(node, {}), a, b) == want, (op, a, b)


def test_pow_overflow_is_a_domain_error():
    # where an overflowing mul gives inf, Python's float power raises
    assert eval_expr(Binary("mul", rconst(1e200), rconst(1e200)), {}) == VReal(float("inf"))
    for base, exponent in ((rconst(1e200), iconst(2)), (rconst(10.0), rconst(400.0)), (iconst(10), rconst(400.0))):
        with pytest.raises(DomainError, match="out of the float range"):
            eval_expr(Binary("pow", base, exponent), {})


@pytest.mark.parametrize("value", [VBool(True), VInt(3), VSym("a"), VReal(-0.0)], ids=lambda v: type(v).__name__)
def test_values_are_frozen_slotted_and_copy(value):
    field = dataclasses.fields(value)[0].name
    before = repr(value)
    for attr in (field, "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, attr, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, attr)
    assert repr(value) == before and not hasattr(value, "__dict__")
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(copied) is type(value) and repr(copied) == before
        assert copied == value and hash(copied) == hash(value)
    # `_apply_binary` builds results without `__init__`: the same value as the class call
    assert E._int(7) == VInt(7) and repr(E._real(-0.0)) == repr(VReal(-0.0))


class ScriptedRng:
    """Hands out fixed draws in order and counts them."""

    def __init__(self, draws):
        self.draws = list(draws)
        self.taken = 0

    def random(self):
        self.taken += 1
        return self.draws.pop(0)


DIV_ZERO = Binary("eq", Binary("div", iconst(1), iconst(0)), iconst(0))


class TestEvalOrder:
    def test_and_or_short_circuit(self):
        assert eval_expr(Binary("and", bconst(False), DIV_ZERO), {}) == VBool(False)
        assert eval_expr(Binary("or", bconst(True), DIV_ZERO), {}) == VBool(True)
        with pytest.raises(DivisionByZeroError):
            eval_expr(Binary("and", bconst(True), DIV_ZERO), {})

    def test_case_list_evaluates_up_to_the_first_true_guard(self):
        e = CaseList(((bconst(False), DIV_ZERO), (bconst(True), iconst(1)), (DIV_ZERO, iconst(2))), DIV_ZERO)
        assert eval_expr(e, {}) == VInt(1)
        fall_through = CaseList(((bconst(False), DIV_ZERO),), iconst(3))
        assert eval_expr(fall_through, {}) == VInt(3)
        with pytest.raises(DivisionByZeroError):
            eval_expr(CaseList(((bconst(False), iconst(1)),), DIV_ZERO), {})

    def test_min_max_return_the_chosen_operand(self):
        assert eval_expr(Binary("min", iconst(1), rconst(1.0)), {}) == VInt(1)
        assert eval_expr(Binary("min", rconst(1.0), iconst(1)), {}) == VReal(1.0)
        assert eval_expr(Binary("max", rconst(2.0), iconst(2)), {}) == VReal(2.0)
        assert eval_expr(Binary("max", iconst(1), rconst(0.5)), {}) == VInt(1)
        assert eval_expr(Binary("min", iconst(3), rconst(0.5)), {}) == VReal(0.5)

    def test_fallback_runs_only_when_not_intervened(self):
        e = InterventionValue(A, Binary("div", iconst(1), iconst(0)))
        assert eval_expr(e, {}, ivs({A: VInt(4)})) == VInt(4)
        with pytest.raises(DivisionByZeroError):
            eval_expr(e, {}, ivs({B: VInt(4)}))

    def test_draws_are_taken_in_evaluation_order(self):
        # left operand draws first
        pair = Binary("eq", RandomBernoulli(rconst(0.25)), RandomBernoulli(rconst(0.75)))
        rng = ScriptedRng([0.5, 0.9])
        assert eval_expr(pair, {}, None, rng) == VBool(True)
        assert rng.taken == 2
        # a draw inside the parameter happens before the node's own draw
        nested = RandomBernoulli(IfThenElse(RandomBernoulli(rconst(0.5)), rconst(0.1), rconst(0.9)))
        rng = ScriptedRng([0.7, 0.5])
        assert eval_expr(nested, {}, None, rng) == VBool(True)
        assert rng.taken == 2
        # a short-circuited draw is never taken
        rng = ScriptedRng([0.1])
        assert eval_expr(Binary("and", RandomBernoulli(rconst(0.5)), RandomBernoulli(rconst(0.5))), {}, None, rng) == VBool(False)
        assert rng.taken == 1
        for e, draws in [(pair, [0.5, 0.9]), (nested, [0.7, 0.5])]:
            a, b = ScriptedRng(draws), ScriptedRng(draws)
            assert eval_expr(e, {}, None, a) == oracle_eval(e, {}, None, b)


# ---------------------------------------------------------------------------
# Interned variable references
# ---------------------------------------------------------------------------


class TestVarRefInterning:
    def test_equal_refs_are_one_object(self):
        s3 = VarRef("S", 3)
        assert VarRef("S", 3) is s3
        assert VarRef(name="S", index=3) is s3
        assert parse_var_name("S_3") is s3
        assert parse_var_name("A") is VarRef("A") is VarRef("A", None)
        assert copy.copy(s3) is s3
        assert copy.deepcopy(s3) is s3
        assert copy.deepcopy({s3: [Ref(s3)]})[s3][0].var is s3
        assert pickle.loads(pickle.dumps(s3)) is s3
        assert pickle.loads(pickle.dumps(Ref(s3), protocol=0)).var is s3

    def test_racing_constructors_get_one_object(self):
        keys = [("race", i) for i in range(3000)]
        results = [[] for _ in range(8)]
        barrier = threading.Barrier(len(results))

        def build(out):
            barrier.wait()
            out.extend(VarRef(name, index) for name, index in keys)

        threads = [threading.Thread(target=build, args=(out,)) for out in results]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        for out in results:
            assert len(out) == len(keys)
            assert all(a is b for a, b in zip(results[0], out))

    def test_refs_of_a_loaded_model_are_the_interned_ones(self):
        scm = zoo.dominoes(4).scm
        loaded = D.model_from_doc(D.model_to_doc(scm))
        for a, b in zip(scm.endogenous + scm.exogenous, loaded.endogenous + loaded.exogenous):
            assert a.var is b.var
        for (va, _), (vb, _) in zip(scm.interventions.atoms, loaded.interventions.atoms):
            assert va is vb

    def test_different_name_or_index_is_a_different_ref(self):
        refs = [VarRef("S"), VarRef("S", 0), VarRef("S", 1), VarRef("T", 1), VarRef("S_1"), VarRef("T")]
        assert len({id(r) for r in refs}) == len(refs)
        assert len(set(refs)) == len(refs)
        for a, b in itertools.combinations(refs, 2):
            assert a != b and not (a == b)

    def test_refs_are_frozen(self):
        s3 = VarRef("S", 3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            s3.name = "T"
        with pytest.raises(dataclasses.FrozenInstanceError):
            s3.index = 4
        with pytest.raises(dataclasses.FrozenInstanceError):
            del s3.index
        with pytest.raises(dataclasses.FrozenInstanceError):
            s3.extra = 1
        assert (s3.name, s3.index) == ("S", 3)

    def test_repr_and_str(self):
        assert repr(VarRef("S", 3)) == "VarRef(name='S', index=3)"
        assert repr(VarRef("A")) == "VarRef(name='A', index=None)"
        assert str(VarRef("S", 3)) == "S_3"
        assert str(VarRef("S", -1)) == "S_-1"
        assert str(VarRef("A")) == "A"

    def test_class_pattern_matches(self):
        match VarRef("S", 3):
            case VarRef(name, index):
                assert (name, index) == ("S", 3)
            case _:
                pytest.fail("VarRef(name, index) did not match")
        match VarRef("A"):
            case VarRef("A", None):
                pass
            case _:
                pytest.fail("VarRef('A', None) did not match")


# ---------------------------------------------------------------------------
# Domain membership against the reference copy
# ---------------------------------------------------------------------------

bounds = st.one_of(st.none(), st.floats(-4, 4), st.integers(-4, 4))
# 10**400 is too large for float(): in a real domain both sides must raise alike
numbers = st.one_of(st.integers(-6, 6), st.sampled_from([-(10**400), 10**400]))


@st.composite
def domains(draw):
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return BoolDomain()
    if kind == 1:
        lo = draw(st.integers(-4, 4))
        return IntDomain(lo, lo + draw(st.integers(0, 4)))
    if kind == 2:
        return SymDomain(tuple(draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=3, unique=True))))
    lo, hi = draw(bounds), draw(bounds)
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    return RealDomain(lo, hi)


domain_values_any = st.one_of(
    st.builds(VBool, st.booleans()),
    st.builds(VInt, numbers),
    st.builds(VSym, st.sampled_from("abcdz")),
    st.builds(VReal, st.one_of(st.floats(-6, 6), st.sampled_from([float("inf"), float("-inf"), float("nan")]))),
)


@settings(max_examples=1000)
@given(domains(), domain_values_any)
def test_value_in_domain_matches_reference(d, v):
    assert outcome(lambda: value_in_domain(v, d)) == outcome(lambda: oracle_value_in_domain(v, d))


def test_value_in_domain_grid_matches_reference():
    """Every domain kind against every value kind, bounds open and set."""
    grid_domains = [
        BoolDomain(),
        IntDomain(0, 2),
        IntDomain(-1, -1),
        SymDomain(("a", "b")),
        RealDomain(),
        RealDomain(0.0, None),
        RealDomain(None, 1.5),
        RealDomain(-1.0, 1.0),
        RealDomain(1, 1),
    ]
    grid_values = [
        VBool(False),
        VBool(True),
        VInt(-2),
        VInt(-1),
        VInt(0),
        VInt(1),
        VInt(2),
        VInt(10**400),
        VSym("a"),
        VSym("z"),
        VReal(-1.0),
        VReal(0.0),
        VReal(1.0),
        VReal(1.5),
        VReal(1.5000001),
        VReal(float("nan")),
        VReal(float("inf")),
    ]
    hits = set()
    for d, v in itertools.product(grid_domains, grid_values):
        got = outcome(lambda: value_in_domain(v, d))
        assert got == outcome(lambda: oracle_value_in_domain(v, d)), (d, v)
        if got == ("value", True):
            hits.add((type(d), type(v)))
    # members of each kind were found, ints carried by real domains included
    assert {(BoolDomain, VBool), (IntDomain, VInt), (SymDomain, VSym), (RealDomain, VReal), (RealDomain, VInt)} == hits

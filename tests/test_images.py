"""The image analysis must over-approximate every reachable value, and the
pure rewrite passes must preserve semantics; both checked on generated
expressions against brute-force enumeration.  The memoized analysis must
also agree with the un-memoized reference in `helpers`, node for node, its
queried-variable bit sets with the reference's sets, and its work must grow
linearly along a chain."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from helpers import OracleImageContext, oracle_image_of, oracle_queried_vars
from scmc import documents as D
from scmc import expr as E
from scmc import images as I
from scmc import zoo
from scmc.errors import PassBudgetExceededError
from scmc.expr import (
    Binary,
    CaseList,
    ExistsIntervention,
    IfThenElse,
    IntDomain,
    InterventionValue,
    IsIntervened,
    MaxIntervenedIndex,
    Ref,
    Unary,
    VarRef,
    bconst,
    eval_expr,
    iconst,
)
from scmc.passes import PURE_PASSES, PassContext
from scmc.scm import InterventionSet, InterventionSpace

X, Y, G = VarRef("X"), VarRef("Y"), VarRef("G")

X_DOM = IntDomain(0, 2)
Y_DOM = IntDomain(0, 3)
SPACE = InterventionSpace.singletons([(G, [E.VBool(False)])])
ENV_IMAGES = {X: I.domain_image(X_DOM), Y: I.domain_image(Y_DOM)}
VAR_KINDS = {X: "int", Y: "int", G: "bool"}


@st.composite
def int_exprs(draw, depth=3):
    if depth == 0:
        return draw(st.sampled_from([Ref(X), Ref(Y), iconst(0), iconst(1), iconst(5)]))
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return draw(int_exprs(depth=0))
    if kind == 1:
        op = draw(st.sampled_from(["add", "sub", "mul", "min", "max"]))
        return Binary(op, draw(int_exprs(depth=depth - 1)), draw(int_exprs(depth=depth - 1)))
    if kind == 2:
        return Binary("mod", draw(int_exprs(depth=depth - 1)), iconst(draw(st.integers(1, 3))))
    if kind == 3:
        return IfThenElse(
            draw(bool_exprs(depth=depth - 1)),
            draw(int_exprs(depth=depth - 1)),
            draw(int_exprs(depth=depth - 1)),
        )
    return CaseList(
        ((draw(bool_exprs(depth=depth - 1)), draw(int_exprs(depth=depth - 1))),),
        draw(int_exprs(depth=depth - 1)),
    )


@st.composite
def bool_exprs(draw, depth=2):
    if depth == 0:
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return bconst(draw(st.booleans()))
        if choice == 1:
            return IsIntervened(G)
        return Binary(
            draw(st.sampled_from(["lt", "le", "eq"])),
            draw(int_exprs(depth=0)),
            draw(int_exprs(depth=0)),
        )
    op = draw(st.sampled_from(["and", "or", "not", "ite"]))
    if op == "not":
        return Unary("not", draw(bool_exprs(depth=depth - 1)))
    if op == "ite":
        return IfThenElse(
            draw(bool_exprs(depth=depth - 1)),
            draw(bool_exprs(depth=depth - 1)),
            draw(bool_exprs(depth=depth - 1)),
        )
    return Binary(op, draw(bool_exprs(depth=depth - 1)), draw(bool_exprs(depth=depth - 1)))


def all_cases():
    for x, y in itertools.product(range(0, 3), range(0, 4)):
        for iv in SPACE.enumerate():
            yield {X: E.VInt(x), Y: E.VInt(y)}, iv


def reachable_values(expr):
    out = set()
    for env, iv in all_cases():
        try:
            out.add(eval_expr(expr, env, iv))
        except Exception:  # noqa: BLE001 - erroring cases produce no value
            continue
    return out


def value_in_image(v, img):
    if isinstance(img, I.TopImage):
        return True
    if isinstance(img, I.FiniteImage):
        return v in img.values
    if isinstance(v, (E.VInt, E.VReal)):
        num = v.i if isinstance(v, E.VInt) else v.r
        if img.lo is not None and num < img.lo:
            return False
        if img.hi is not None and num > img.hi:
            return False
        return True
    return False


@given(int_exprs())
def test_image_overapproximates_every_reachable_value(expr):
    img = I.image_of(expr, I.ImageContext(ENV_IMAGES, SPACE, {}))
    for v in reachable_values(expr):
        assert value_in_image(v, img), (expr, v, img)


@given(bool_exprs())
def test_image_overapproximates_boolean_expressions(expr):
    img = I.image_of(expr, I.ImageContext(ENV_IMAGES, SPACE, {}))
    for v in reachable_values(expr):
        assert value_in_image(v, img), (expr, v, img)


@given(int_exprs(), st.sampled_from(sorted(PURE_PASSES)))
def test_pure_passes_preserve_semantics(expr, pass_name):
    ctx = PassContext(env_images=ENV_IMAGES, space=SPACE, var_kinds=VAR_KINDS)
    rewritten = PURE_PASSES[pass_name](expr, ctx)
    for env, iv in all_cases():
        try:
            want = eval_expr(expr, env, iv)
        except Exception:  # noqa: BLE001 - erroring cases carry no obligation
            continue
        assert eval_expr(rewritten, env, iv) == want, (pass_name, expr, env, iv)


@given(int_exprs(), st.sampled_from(sorted(PURE_PASSES)))
def test_pure_passes_never_grow_the_tree(expr, pass_name):
    ctx = PassContext(env_images=ENV_IMAGES, space=SPACE, var_kinds=VAR_KINDS)
    rewritten = PURE_PASSES[pass_name](expr, ctx)
    assert E.node_count(rewritten) <= E.node_count(expr)


def test_intervention_value_specializes_under_its_guard():
    expr = IfThenElse(IsIntervened(G), InterventionValue(G), bconst(True))
    ctx = PassContext(env_images=ENV_IMAGES, space=SPACE, var_kinds=VAR_KINDS)
    rewritten = PURE_PASSES["prune_branches"](expr, ctx)
    assert rewritten == IfThenElse(IsIntervened(G), bconst(False), bconst(True))


def test_round_cap_is_enforced():
    from scmc import zoo
    from scmc.consolidation import PassConfig

    entry = zoo.step_by_step()
    with pytest.raises(PassBudgetExceededError):
        entry.consolidated(PassConfig(max_rounds=1))


# ---------------------------------------------------------------------------
# Memoized analysis against the reference, on trees that share subtrees
# ---------------------------------------------------------------------------

H, K = VarRef("H"), VarRef("K")
S1, S2 = VarRef("S", 1), VarRef("S", 2)
#: K is queried but has no atom; S_1 and S_2 form the family "S"
QUERIED = (G, H, K, S1, S2)
SHARED_ATOMS = [
    (G, [E.VBool(False)]),
    (H, [E.VInt(1), E.VInt(2)]),
    (S1, [E.VInt(0)]),
    (S2, [E.VInt(3)]),
]


class SharedTrees:
    """Seeded random trees that reuse earlier subtrees by identity and
    re-query a guarded variable inside its own `IsIntervened` branch."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.pool = {"int": [], "bool": []}

    def make(self, kind: str, depth: int, focus=None) -> E.Expr:
        rng = self.rng
        pool = self.pool[kind]
        if pool and rng.random() < 0.3:
            return rng.choice(pool)
        e = (self._int if kind == "int" else self._bool)(depth, focus)
        pool.append(e)
        return e

    def pair(self, kind: str, depth: int, focus):
        return self.make(kind, depth - 1, focus), self.make(kind, depth - 1, focus)

    def _var(self, focus):
        if focus is not None and self.rng.random() < 0.6:
            return focus
        return self.rng.choice(QUERIED)

    def _guarded(self, kind: str, depth: int, focus) -> E.Expr:
        v = self._var(focus)
        return IfThenElse(
            IsIntervened(v), self.make(kind, depth - 1, v), self.make(kind, depth - 1, focus)
        )

    def _int(self, depth: int, focus) -> E.Expr:
        rng = self.rng
        if depth <= 0:
            pick = rng.randrange(4)
            if pick == 0:
                return Ref(rng.choice([X, Y]))
            if pick == 1:
                return iconst(rng.randint(0, 3))
            v = self._var(focus)
            fb = None if pick == 2 else self.make("int", 0, focus)
            return InterventionValue(v, fb)
        pick = rng.randrange(6)
        if pick == 0:
            op = rng.choice(["add", "sub", "mul", "min", "max"])
            return Binary(op, *self.pair("int", depth, focus))
        if pick == 1:
            return IfThenElse(
                self.make("bool", depth - 1, focus),
                self.make("int", depth - 1, focus),
                self.make("int", depth - 1, focus),
            )
        if pick == 2:
            return CaseList(
                ((self.make("bool", depth - 1, focus), self.make("int", depth - 1, focus)),),
                self.make("int", depth - 1, focus),
            )
        if pick == 3:
            return MaxIntervenedIndex(
                "S", self.make("int", depth - 1, focus), self.make("int", depth - 1, focus)
            )
        if pick == 4:
            return Unary("neg", self.make("int", depth - 1, focus))
        return self._guarded("int", depth, focus)

    def _bool(self, depth: int, focus) -> E.Expr:
        rng = self.rng
        if depth <= 0:
            pick = rng.randrange(4)
            if pick == 0:
                return bconst(rng.random() < 0.5)
            if pick == 1:
                return IsIntervened(self._var(focus))
            if pick == 2:
                return ExistsIntervention("S", rng.choice([None, 1, 2]), None, None)
            op = rng.choice(["lt", "le", "eq"])
            return Binary(op, Ref(rng.choice([X, Y])), iconst(rng.randint(0, 3)))
        pick = rng.randrange(4)
        if pick == 0:
            return Binary(rng.choice(["and", "or"]), *self.pair("bool", depth, focus))
        if pick == 1:
            return Unary("not", self.make("bool", depth - 1, focus))
        if pick == 2:
            return Binary(rng.choice(["lt", "eq"]), *self.pair("int", depth, focus))
        return self._guarded("bool", depth, focus)


def shared_case(seed: int):
    trees = SharedTrees(seed)
    rng = trees.rng
    space = (InterventionSpace.power_set if rng.random() < 0.7 else InterventionSpace.singletons)(
        SHARED_ATOMS
    )
    root = trees.make(rng.choice(["int", "bool"]), rng.randint(2, 5))
    return root, space


def assert_images_match(e, ctx, octx):
    """Every subtree, in the context a pass walk would give it."""
    assert I.image_of(e, ctx) == oracle_image_of(e, octx), e
    if isinstance(e, IfThenElse) and isinstance(e.cond, IsIntervened):
        v = e.cond.var
        assert_images_match(e.cond, ctx, octx)
        assert_images_match(e.then, ctx.child(v, True, e.then), octx.child(v, True))
        assert_images_match(e.orelse, ctx.child(v, False, e.orelse), octx.child(v, False))
        return
    for c in E.children(e):
        assert_images_match(c, ctx, octx)


@pytest.mark.parametrize("block", range(4))
def test_memoized_images_match_the_reference_on_shared_trees(block):
    for seed in range(block * 100, (block + 1) * 100):
        root, space = shared_case(seed)
        ctx = I.ImageContext(ENV_IMAGES, space, {})
        assert_images_match(root, ctx, OracleImageContext(ENV_IMAGES, space, {}))


def test_child_contexts_are_canonical():
    space = InterventionSpace.power_set(SHARED_ATOMS)
    ctx = I.ImageContext(ENV_IMAGES, space, {})
    blind = Binary("add", Ref(X), InterventionValue(G, iconst(1)))
    assert ctx.child(H, True, blind) is ctx
    seeing = Binary("add", Ref(X), InterventionValue(H))
    kid = ctx.child(H, True, seeing)
    assert kid is not ctx and kid.assume_intervened == {H: True}
    assert ctx.child(H, True, IsIntervened(H)) is kid
    assert ctx.child(H, False, seeing) is not kid


def unshared(e):
    """A copy of `e` in which no node object appears twice."""
    return D.expr_from_json(D.expr_to_json(e))


@pytest.mark.parametrize("pass_name", ["fold_by_image", "prune_branches"])
def test_image_passes_ignore_sharing(pass_name):
    for seed in range(200):
        root, space = shared_case(seed)
        copy = unshared(root)
        assert copy == root
        out = []
        for tree in (root, copy):
            ctx = PassContext(env_images=ENV_IMAGES, space=space, var_kinds=VAR_KINDS)
            out.append((PURE_PASSES[pass_name](tree, ctx), ctx.stats.guards_dropped))
        assert out[0] == out[1], seed


def test_image_work_grows_linearly_along_a_chain(monkeypatch):
    """Each node's image is computed once per context: from 64 to 256 stones
    the work grows about 4x, where recomputing nested subtrees gave 16x."""
    calls = []
    inner = I._image_of

    def counting(e, ctx):
        calls.append(1)
        return inner(e, ctx)

    monkeypatch.setattr(I, "_image_of", counting)
    counts = []
    for n in (64, 256):
        calls.clear()
        zoo.dominoes(n).consolidated()
        counts.append(len(calls))
    assert counts[1] <= 5 * counts[0], counts


# ---------------------------------------------------------------------------
# Queried-variable bit sets against the frozenset reference
# ---------------------------------------------------------------------------

#: a variable no tree queries
ABSENT = VarRef("Absent")


def inlined_trees():
    """Each inlined target tree, with its cluster's intervention space, of
    the zoo models and of 40 random models: the trees `child` is asked about."""
    from helpers import random_model, random_partition
    from scmc.consolidation import PassConfig, consolidate

    entries = [zoo.dominoes(8), zoo.tool_wear(6), zoo.firing_squad(4), zoo.step_by_step(), zoo.platformer()]
    models = [(e.scm, e.partition, e.targets, e.consolidate_clusters) for e in entries]
    for seed in range(40):
        scm = random_model(seed, max_endo=8)
        models.append((scm, random_partition(scm, seed + 999), scm.endo_vars()[-2:], None))
    for scm, partition, targets, clusters in models:
        cons = consolidate(scm, partition, targets, clusters, PassConfig(passes=(), gate=False))
        for ccv in cons.ccvs():
            for t in ccv.targets:
                yield ccv.rho[t], ccv.interventions


def distinct_nodes(e):
    """Every node of `e` once, shared or not, parents before children."""
    seen, out, stack = set(), [], [e]
    while stack:
        x = stack.pop()
        if id(x) not in seen:
            seen.add(id(x))
            out.append(x)
            stack.extend(E.children(x))
    return out


def test_query_bit_sets_name_the_reference_variables():
    checked = 0
    for root, space in inlined_trees():
        ctx, memo = I.ImageContext({}, space, {}), {}
        # children first, so most variables get their bits deep in the tree
        for node in reversed(distinct_nodes(root)):
            mask = ctx._queried_mask(node)
            names = frozenset(v for v, bit in ctx._bits.items() if mask & bit)
            assert names == oracle_queried_vars(node, memo), node
            checked += 1
    assert checked > 2000


def test_child_is_the_context_the_reference_sets_give():
    """`child` adds the assumption exactly where the subtree queries the
    variable, once per (variable, state).  Each question is asked of a
    context shared by the whole tree and of a fresh one, in which the
    variable is met for the first time inside the subtree given to `child`."""
    asked = 0
    for root, space in inlined_trees():
        memo = {}
        shared = I.ImageContext({}, space, {})
        names = sorted(oracle_queried_vars(root, memo), key=E.ref_sort_key) + [ABSENT]
        for node in distinct_nodes(root):
            sees = oracle_queried_vars(node, memo)
            for var in names:
                for state in (True, False):
                    for ctx in (shared, I.ImageContext({}, space, {})):
                        kid = ctx.child(var, state, node)
                        if var in sees:
                            assert kid is not ctx and kid.assume_intervened == {var: state}
                            assert ctx.child(var, state, node) is kid
                            assert kid._queried is ctx._queried and kid._bits is ctx._bits
                        else:
                            assert kid is ctx, (node, var)
                        asked += 1
    assert asked > 10000


def test_a_variable_first_met_inside_the_subtree_is_seen():
    space = InterventionSpace.power_set(SHARED_ATOMS)
    ctx = I.ImageContext(ENV_IMAGES, space, {})
    assert ctx.child(G, True, IsIntervened(G)) is not ctx
    assert H not in ctx._bits  # G has a bit, H none yet
    seeing = Binary("add", Ref(X), InterventionValue(H, iconst(0)))
    kid = ctx.child(H, True, seeing)
    assert kid is not ctx and kid.assume_intervened == {H: True}
    want = oracle_image_of(seeing, OracleImageContext(ENV_IMAGES, space, {H: True}))
    assert I.image_of(seeing, kid) == want != I.image_of(seeing, ctx)


def test_forget_empties_the_context_and_leaves_images_unchanged():
    for seed in range(50):
        root, space = shared_case(seed)
        ctx = I.ImageContext(ENV_IMAGES, space, {})
        first = I.image_of(root, ctx)
        ctx.forget()
        assert not (ctx._images or ctx._children or ctx._queried or ctx._bits)
        assert set(map(id, ctx._finite.values())) == {id(I.BOOL_FALSE), id(I.BOOL_TRUE), id(I.BOOL_BOTH)}
        assert I.image_of(root, ctx) == first


def test_equal_images_are_one_object_but_signed_zeros_are_two():
    ctx = I.ImageContext({}, InterventionSpace.power_set([]), {})
    assert I.image_of(bconst(True), ctx) is I.BOOL_TRUE
    assert I.image_of(IsIntervened(G), ctx) is I.BOOL_FALSE  # G has no atom here
    assert I.image_of(Binary("lt", Ref(X), iconst(1)), ctx) is I.BOOL_BOTH  # X is unknown
    one_a, one_b = E.Binary("add", E.rconst(0.5), E.rconst(0.5)), E.rconst(1.0)
    assert I.image_of(one_a, ctx) is I.image_of(one_b, ctx)
    zero, minus_zero = E.rconst(0.0), E.Unary("neg", E.rconst(0.0))
    assert I.image_of(zero, ctx) == I.image_of(minus_zero, ctx)
    assert I.image_of(zero, ctx) is not I.image_of(minus_zero, ctx)
    (v,) = I.image_of(minus_zero, ctx).values
    assert str(v.r) == "-0.0"

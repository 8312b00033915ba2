"""The rewrite passes share what they do not change.

A pass that changes nothing hands back the tree it was given, and one that
changes something copies only the path to the change: every other subtree
of the result is the input's own object, with its cached size and hash.
Checked on every pass call the pipeline makes while consolidating the zoo
models and random models, and against reference copies of the passes in
`helpers` that rebuild every node.
"""

import dataclasses
import gc
import random
import types

import pytest

from helpers import (
    bench_models,
    oracle_dedupe_targets,
    oracle_fold_constants,
    random_expr,
    random_model,
    random_partition,
    unshared,
)
from scmc import consolidation as C
from scmc import expr as E
from scmc import images as I
from scmc import passes as P
from scmc import zoo
from scmc.consolidation import PassConfig, _inverse_rules, _local_env_images, consolidate
from scmc.expr import (
    Binary,
    IfThenElse,
    IntDomain,
    InterventionValue,
    IsIntervened,
    Ref,
    VarRef,
    iconst,
    node_count,
)
from scmc.passes import PURE_PASSES, PassContext
from scmc.scm import EndoVar, ExoVar, InterventionSpace, Scm, reparameterize

X, Y, G, H = VarRef("X"), VarRef("Y"), VarRef("G"), VarRef("H")
ENV_IMAGES = {X: I.domain_image(IntDomain(0, 2)), Y: I.domain_image(IntDomain(0, 3))}
VAR_KINDS = {X: "int", Y: "int", G: "int", H: "int"}
# G has one allowed value, so a forced G is a constant; H has two
SPACE = InterventionSpace.singletons([(G, [E.VInt(1)]), (H, [E.VInt(1), E.VInt(2)])])


def context() -> PassContext:
    return PassContext(env_images=ENV_IMAGES, space=SPACE, var_kinds=VAR_KINDS)


def _same_shape(a, b) -> bool:
    """Same class and the same non-child fields, so children line up."""
    if type(a) is not type(b) or len(E.children(a)) != len(E.children(b)):
        return False
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if not isinstance(x, (E._Node, tuple)) and x != y:
            return False
    return True


def assert_shared(before, after):
    """Wherever the result still lines up with the input, an equal subtree
    is the input's own object."""
    if before == after:
        assert before is after, before
        return
    if _same_shape(before, after):
        for b, a in zip(E.children(before), E.children(after)):
            assert_shared(b, a)


def sharing_checked(monkeypatch, calls: list):
    """Wrap every pure pass so each call the pipeline makes is checked."""
    for name, fn in list(PURE_PASSES.items()):

        def checked(e, ctx, fn=fn, name=name):
            out = fn(e, ctx)
            calls.append((name, out is e))
            assert_shared(e, out)
            return out

        monkeypatch.setitem(PURE_PASSES, name, checked)


ZOO = [
    lambda: zoo.dominoes(16),
    lambda: zoo.tool_wear(12),
    lambda: zoo.firing_squad(5),
    zoo.step_by_step,
    zoo.platformer,
]


def test_every_pass_call_of_the_pipeline_shares_unchanged_subtrees(monkeypatch):
    calls = []
    sharing_checked(monkeypatch, calls)
    for build in ZOO:
        build().consolidated()
    for seed in range(60):
        scm = random_model(seed, max_endo=8)
        consolidate(scm, random_partition(scm, seed + 999), scm.endo_vars()[-2:])
    # most calls change nothing, and then allocate nothing
    assert sum(same for _, same in calls) > len(calls) // 2
    assert {name for name, same in calls if same} == set(PURE_PASSES)


def test_passes_hand_back_unchanged_zoo_trees():
    """At the fixpoint every pass either hands the tree back or proposes a
    different one; none returns an equal copy."""
    for build in ZOO:
        cons = build().consolidated()
        for cluster in cons.clusters:
            ccv = getattr(cluster, "ccv", None)
            if ccv is None:
                continue
            sub = cluster.sub
            for name, fn in PURE_PASSES.items():
                ctx = PassContext(
                    env_images=_local_env_images(sub),
                    space=ccv.interventions,
                    var_kinds=sub.var_kinds(),
                    inverse_rules=_inverse_rules(sub),
                )
                for t in ccv.targets:
                    tree = ccv.rho[t]
                    out = fn(tree, ctx)
                    assert out is tree or out != tree, (name, t)
                    assert_shared(tree, out)
                    ctx.add_earlier_target(t, tree)


def test_guarded_branches_are_handed_back_when_nothing_changes():
    # H has two allowed values, so nothing under its guard can be specialized
    body = Binary("add", Ref(X), Ref(Y))
    tree = IfThenElse(IsIntervened(H), InterventionValue(H), body)
    for name in ("prune_branches", "fold_by_image"):
        assert PURE_PASSES[name](tree, context()) is tree, name


def test_guarded_branches_share_the_unchanged_branch():
    # G has one allowed value: the forced value becomes a constant
    body = Binary("add", Ref(X), Ref(Y))
    tree = IfThenElse(IsIntervened(G), InterventionValue(G), body)
    for name in ("prune_branches", "fold_by_image"):
        out = PURE_PASSES[name](tree, context())
        assert out == IfThenElse(IsIntervened(G), iconst(1), body), name
        assert out.cond is tree.cond and out.orelse is body, name


def test_case_list_without_dropped_guards_is_handed_back():
    tree = E.CaseList(((IsIntervened(H), Ref(X)), (Binary("lt", Ref(X), Ref(Y)), Ref(Y))), iconst(0))
    assert PURE_PASSES["prune_branches"](tree, context()) is tree


def test_unchanged_random_trees_come_back_as_themselves():
    for seed in range(200):
        tree = random_expr(seed)
        for name, fn in PURE_PASSES.items():
            try:
                out = fn(tree, context())
            except Exception:  # noqa: BLE001 - ill-kinded trees may make a pass raise
                continue
            assert out is tree or out != tree, (seed, name)
            assert_shared(tree, out)


def test_fold_constants_matches_the_reference_copy():
    for seed in range(400):
        tree = random_expr(seed)
        assert P.fold_constants(tree, context()) == oracle_fold_constants(tree), seed


def test_dedupe_table_is_the_one_built_from_scratch():
    rng = random.Random(5)
    trees = [iconst(1), Ref(X), Binary("add", Ref(X), iconst(1)), Binary("add", Ref(X), iconst(1))]
    trees += [random_expr(seed, depth=2) for seed in range(6)]
    for _ in range(200):
        picks = [(VarRef("T", i), rng.choice(trees)) for i in range(rng.randrange(8))]
        ctx = context()
        for var, tree in picks:
            ctx.add_earlier_target(var, tree)
        want = {tree: var for var, tree in dict(picks).items() if node_count(tree) >= 2}
        assert list(ctx._dedupe_table.items()) == list(want.items())
        assert all(a is b for a, b in zip(ctx._dedupe_table, want))
        # a context built with the targets at once holds the same table
        at_once = PassContext(
            env_images=ENV_IMAGES, space=SPACE, var_kinds=VAR_KINDS, earlier_targets=dict(picks)
        )
        assert at_once._dedupe_table == want


def test_dedupe_matches_the_reference_copy_on_random_models(monkeypatch):
    """Each sweep builds the table of earlier targets once, incrementally;
    every call must answer as a table built from scratch would."""
    real = PURE_PASSES["dedupe_targets"]
    rewrote = set()
    seed = None

    def checked(e, ctx):
        out = real(e, ctx)
        assert out == oracle_dedupe_targets(e, ctx), seed
        if out is not e:
            rewrote.add(seed)
        return out

    monkeypatch.setitem(PURE_PASSES, "dedupe_targets", checked)
    for seed in range(300):
        scm = random_model(seed, max_endo=10)
        consolidate(scm, random_partition(scm, seed + 999), scm.endo_vars())
    # the pass does rewrite trees of some of these models
    assert sorted(rewrote) == [216, 235]


def test_size_computations_grow_linearly(monkeypatch):
    """Each node's size is computed once: doubling the horizon of
    `tool_wear` doubles the work, where re-counting trees squared it."""
    calls = []
    inner = E._size_of

    def counting(e):
        calls.append(1)
        return inner(e)

    monkeypatch.setattr(E, "_size_of", counting)
    counts = []
    for horizon in (72, 144):
        calls.clear()
        zoo.tool_wear(horizon).consolidated(PassConfig(seed=1))
        counts.append(len(calls))
    assert counts[1] <= 2.5 * counts[0], counts


def test_reparameterize_names_fresh_inputs_in_visit_order():
    entry = zoo.bernoulli_fork()
    fixed = reparameterize(entry.scm)
    assert [row.var for row in fixed.exogenous] == [VarRef("A"), VarRef("R")]
    assert fixed.endogenous[0].equation == Binary("lt", Ref(VarRef("A")), Ref(VarRef("R")))
    assert fixed.endogenous[1] is entry.scm.endogenous[1]

    # several draws in one equation: guard, branch, next pair, default;
    # an inner draw is named after the one around it
    def draw(p):
        return E.RandomBernoulli(E.rconst(p))

    U, V = VarRef("U"), VarRef("V")
    eq = E.CaseList(((draw(0.1), draw(0.2)),), E.RandomBernoulli(IfThenElse(draw(0.3), Ref(U), Ref(U))))
    scm = Scm(
        name="draws",
        endogenous=(
            EndoVar(V, E.BoolDomain(), eq),
            EndoVar(VarRef("W"), E.BoolDomain(), Ref(V)),
        ),
        exogenous=(ExoVar(U, E.RealDomain(0.0, 1.0), entry.scm.exogenous[0].dist),),
        interventions=InterventionSpace.power_set([]),
    )
    fixed = reparameterize(scm)
    names = [row.var.name for row in fixed.exogenous]
    assert names == ["U", "R", "R2", "R3", "R4"]

    def lt(p, r):
        return Binary("lt", p, Ref(VarRef(r)))

    inner = IfThenElse(lt(E.rconst(0.3), "R4"), Ref(U), Ref(U))
    assert fixed.endogenous[0].equation == E.CaseList(
        ((lt(E.rconst(0.1), "R"), lt(E.rconst(0.2), "R2")),), lt(inner, "R3")
    )
    assert fixed.endogenous[1] is scm.endogenous[1]


BENCH_MODELS = {
    "platformer": zoo.platformer,
    "firing_squad(8)": lambda: zoo.firing_squad(8),
    "step_by_step": zoo.step_by_step,
    "dominoes(128)": lambda: zoo.dominoes(128),
    "tool_wear(36)": lambda: zoo.tool_wear(36),
}


@pytest.mark.parametrize("name", sorted(BENCH_MODELS))
def test_consolidate_and_verify_leave_no_walker_in_a_cycle(name):
    """A walker that is a closure calling itself is a reference cycle, and
    keeps its context and trees alive until the cyclic collector runs."""
    from scmc.verification import EquivalenceStrategy, verify_equivalence

    entry = BENCH_MODELS[name]()
    if entry.scm.interventions.size() > 4096:
        strategy = EquivalenceStrategy.sampled(count=256, seed=1)
    else:
        strategy = EquivalenceStrategy.exhaustive()
    gc.collect()
    gc.disable()
    try:
        cons = entry.consolidated(PassConfig(seed=1))
        assert verify_equivalence(entry.scm, cons, entry.targets, strategy).equal
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    functions = [
        o.__qualname__ for o in garbage if isinstance(o, types.FunctionType) and o.__module__.startswith("scmc")
    ]
    assert functions == []
    assert not any(isinstance(o, PassContext) for o in garbage)


# ---------------------------------------------------------------------------
# The sweep memo
# ---------------------------------------------------------------------------


def node_objects(trees) -> tuple[int, int]:
    """How many nodes `trees` have, each occurrence counted, and how many
    distinct node objects."""
    seen, stack, occurrences = set(), list(trees), 0
    while stack:
        x = stack.pop()
        occurrences += 1
        seen.add(id(x))
        stack.extend(E.children(x))
    return occurrences, len(seen)


def test_run_passes_gives_the_same_result_on_an_unshared_copy(monkeypatch):
    """With a memo on every sweep, `run_passes` gives the trees, pass log and
    reject log (nodes removed and guards dropped included) that the walkers
    without a memo give on a copy of the Ccv that shares no node."""
    real_run, real_shares = C.run_passes, C._shares_definitions
    memo_on = [True]
    monkeypatch.setattr(C, "_shares_definitions", lambda sub, targets: memo_on[0])
    shared = []

    def both(ccv, sub, config=None, log=None, rejected=None, images=None):
        copy = dataclasses.replace(ccv, rho={t: unshared(tree) for t, tree in ccv.rho.items()})
        occurrences, distinct = node_objects(copy.rho.values())
        assert occurrences == distinct
        memo_on[0] = False
        want_log, want_rejected = [], []
        want = real_run(copy, sub, config, want_log, want_rejected)
        memo_on[0] = True
        got_log, got_rejected = [], []
        got = real_run(ccv, sub, config, got_log, got_rejected, images)
        assert got.rho == want.rho
        assert got_log == want_log
        assert got_rejected == want_rejected
        shared.append(real_shares(sub, ccv.targets))
        log.extend(got_log)
        rejected.extend(got_rejected)
        return got

    monkeypatch.setattr(C, "run_passes", both)
    for name, build in sorted(zoo.ZOO_BUILDERS.items()):
        build().consolidated(PassConfig(seed=1))
    for seed in range(100):
        scm = random_model(seed, max_endo=8)
        consolidate(scm, random_partition(scm, seed + 999), scm.endo_vars()[-2:])
    # inlining shares a subtree in some of these clusters, not in most
    assert 0 < sum(shared) < len(shared) // 2, (sum(shared), len(shared))


def test_a_subtree_shared_under_two_guard_states_is_rewritten_in_each():
    """The image passes key the memo on the node and its image context: one
    object read inside and outside an `IsIntervened(H)` branch is rewritten
    once for each."""
    inner = Binary("add", IfThenElse(IsIntervened(H), InterventionValue(H), Ref(X)), Ref(Y))
    tree = IfThenElse(IsIntervened(H), inner, Binary("mul", inner, iconst(2)))
    for name in ("prune_branches", "fold_by_image"):
        ctx = context()
        ctx.memo = {}
        got = PURE_PASSES[name](tree, ctx)
        assert got == PURE_PASSES[name](unshared(tree), context()), name
        assert got.then != got.orelse.left, name


def test_each_walker_handles_each_node_once_per_sweep(monkeypatch):
    """On `platformer`, whose trees share most of their nodes, each walker
    is called at most once per distinct (node, context) in a sweep, and
    the consolidated trees keep the sharing inlining made."""
    sweep = [None]
    for name, fn in list(PURE_PASSES.items()):

        def marked(e, ctx, fn=fn):
            sweep[0] = ctx  # one context per sweep
            return fn(e, ctx)

        monkeypatch.setitem(PURE_PASSES, name, marked)
    calls: dict[tuple, int] = {}
    alive = []  # keeps every id used in a key from reuse

    walkers = ("_fold_closed", "_prune", "_fold_image", "_simplify", "_prune_queries")
    for walker in walkers:
        real = getattr(P, walker)

        def counting(x, arg, count, walk, real=real, walker=walker):
            key = (walker, id(sweep[0]), id(x), id(arg))
            calls[key] = calls.get(key, 0) + 1
            alive.append((sweep[0], x, arg))
            return real(x, arg, count, walk)

        monkeypatch.setattr(P, walker, counting)
    cons = zoo.platformer().consolidated(PassConfig(seed=1))
    assert {key[0] for key in calls} == set(walkers)
    assert max(calls.values()) == 1
    (cluster,) = [c for c in cons.clusters if getattr(c, "ccv", None) is not None]
    # 131 node objects where each sweep rebuilt a shared subtree per occurrence
    assert node_objects(cluster.ccv.rho.values()) == (189, 89)


def test_which_bench_clusters_share_inlined_subtrees(monkeypatch):
    """The sweep memo runs only where `build_rho` inlines a definition into
    two or more places."""
    seen = []
    real = C._shares_definitions
    monkeypatch.setattr(C, "_shares_definitions", lambda sub, targets: seen.append(real(sub, targets)) or seen[-1])
    found = {}
    for name, scm, partition, targets, clusters in bench_models():
        seen.clear()
        consolidate(scm, partition, targets, clusters, PassConfig(seed=1))
        found[name] = list(seen)
    assert found == {
        "dominoes_128": [False],
        "platformer": [True],
        "firing_squad_8": [False],
        "step_by_step": [False, True, False],
        "tool_wear_36": [False],
    }

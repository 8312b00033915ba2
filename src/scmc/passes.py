"""Semantics-preserving rewrites used to shrink consolidated equations.

Every pass maps an expression to an equivalent one and never increases the
node count; the pipeline driver additionally gates each accepted application
behind an equivalence check, so a buggy rule loses a round trip, not
correctness.  Passes are deliberately local and oriented (no rule undoes
another), which keeps the fixpoint iteration terminating.

Inlining substitutes one definition object wherever it is read, so a
cluster's trees can share subtrees.  Where they do, `run_passes` gives each
sweep (one pure pass over every target) a memo, `PassContext.memo`, and the
walkers of `fold_constants`, `prune_branches`, `fold_by_image`,
`simplify_algebra` and `prune_interventions` rewrite each distinct node once
in the sweep and hand back that one result at every occurrence, in every
target: the sharing survives the passes.  The image passes key it on
(node, image context), the others on the node; a hit adds to the walk's
counter (dropped guards, open nodes) what the first walk added.  The memo
lives as long as the sweep's context and holds every node it keys, so no
id is reused while it lives; `run_passes` drops it before the gate runs.
Trees that share nothing get no memo and walk with no memo work per node.
`dedupe_targets` reads a table that grows target by target, and
`cancel_inverses` matches whole patterns, so neither uses it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from . import expr as E
from . import images as I
from .expr import Expr, VarRef
from .scm import InterventionSpace


@dataclass
class PassStats:
    guards_dropped: int = 0


@dataclass
class PassContext:
    """What the passes of one sweep read: the cluster's input images, space
    and kinds, the targets swept so far, and the sweep memo."""

    env_images: Mapping[VarRef, I.Image]
    space: InterventionSpace
    var_kinds: Mapping[VarRef, str]
    inverse_rules: list[tuple[Expr, Expr]] = field(default_factory=list)
    earlier_targets: dict[VarRef, Expr] = field(default_factory=dict)
    stats: PassStats = field(default_factory=PassStats)
    #: the image context the image passes share; made on first use
    images: Optional[I.ImageContext] = None
    #: the sweep memo, walker -> {(id(node), id(arg)): entry}, or None for
    #: trees that share no node; see the module docstring
    memo: Optional[dict] = None
    #: earlier targets' trees of two or more nodes -> the target; of two
    #: equal trees the later target wins.  Kept in step with `earlier_targets`.
    _dedupe_table: dict[Expr, VarRef] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for var, tree in self.earlier_targets.items():
            self._note_for_dedupe(var, tree)

    def add_earlier_target(self, var: VarRef, tree: Expr) -> None:
        """Record the final tree of a target swept before the next one."""
        self.earlier_targets[var] = tree
        self._note_for_dedupe(var, tree)

    def _note_for_dedupe(self, var: VarRef, tree: Expr) -> None:
        if E.node_count(tree) >= 2:
            self._dedupe_table[tree] = var

    def image_ctx(self) -> I.ImageContext:
        if self.images is None:
            self.images = I.ImageContext(self.env_images, self.space, {})
        return self.images


#: Nodes that read the environment, the intervention set or a random source.
_OPEN_NODES = (
    E.Ref,
    E.IsIntervened,
    E.InterventionValue,
    E.ExistsIntervention,
    E.MaxIntervenedIndex,
    E.RandomBernoulli,
)


def fold_constants(e: Expr, ctx: PassContext) -> Expr:
    """Evaluate closed subtrees (no refs, no intervention queries, no draws);
    a subtree that errors is left in place."""
    return _rewrite(e, _fold_closed, None, ctx)


# The walkers below are module-level functions, not closures that call
# themselves: such a closure is a reference cycle, which keeps its context
# and the trees it saw alive until the cyclic collector runs.  Each takes
# `(x, arg, count, walk)`: `arg` is what the rewrite of `x` depends on
# besides `x` (the image context, for the image passes), `count` a
# one-item list the walk adds to, and `walk` what it recurses with: the
# walker itself, or the sweep memo around it.


def _rewrite(e: Expr, walker, arg, ctx: PassContext, count: Optional[list[int]] = None) -> Expr:
    """`e` rewritten by `walker`, through the sweep memo when `ctx` has one."""
    if ctx.memo is None:
        walk = walker
    else:
        walk = _Memo(walker, ctx.memo.setdefault(walker, {}))
    return walk(e, arg, count if count is not None else [0], walk)


class _Memo:
    """A walker that rewrites each distinct (node, arg) once per sweep and
    hands back that one result wherever the node recurs.  A hit adds to
    `count` what the walk added the first time.  Each entry keeps its node
    and arg alive, so their ids are not reused while the memo lives."""

    __slots__ = ("walker", "done")

    def __init__(self, walker, done: dict):
        self.walker, self.done = walker, done

    def __call__(self, x: Expr, arg, count: list[int], walk) -> Expr:
        key = (id(x), id(arg))
        hit = self.done.get(key)
        if hit is None:
            before = count[0]
            out = self.walker(x, arg, count, walk)
            self.done[key] = (x, arg, out, count[0] - before)
            return out
        count[0] += hit[3]
        return hit[2]


def _fold_closed(x: Expr, _, opened: list[int], walk) -> Expr:
    """`opened[0]` counts the open nodes walked so far: a subtree is closed
    when its walk adds none."""
    before = opened[0]
    x = E.map_children(x, walk, None, opened, walk)
    if isinstance(x, _OPEN_NODES):
        opened[0] += 1
    elif opened[0] == before and not isinstance(x, E.Const):
        try:
            return E.Const(E.eval_expr(x, {}, None))
        except Exception:  # noqa: BLE001 - leave the erroring node alone
            pass
    return x


def _branch_contexts(x: E.IfThenElse, ictx: I.ImageContext) -> tuple[I.ImageContext, ...]:
    """Contexts for the guard, the then- and the else-branch of `x`: under an
    `IsIntervened` guard each branch knows its variable's intervention state."""
    c = x.cond
    if isinstance(c, E.IsIntervened):
        return ictx, ictx.child(c.var, True, x.then), ictx.child(c.var, False, x.orelse)
    return ictx, ictx, ictx


def _map_branches(x: E.IfThenElse, contexts: tuple, count: list[int], walk) -> Expr:
    """`x` with its guard and its branches walked, each in its own one of
    the three `contexts`."""
    guard_ctx, then_ctx, else_ctx = contexts
    c = walk(x.cond, guard_ctx, count, walk)
    t = walk(x.then, then_ctx, count, walk)
    o = walk(x.orelse, else_ctx, count, walk)
    return x if c is x.cond and t is x.then and o is x.orelse else E.IfThenElse(c, t, o)


def fold_by_image(e: Expr, ctx: PassContext) -> Expr:
    """Replace any subtree whose image is a single value with that constant."""
    return _rewrite(e, _fold_image, ctx.image_ctx(), ctx)


def _fold_image(x: Expr, ictx: I.ImageContext, count: list[int], walk) -> Expr:
    if not isinstance(x, E.Const):
        sv = I.singleton_value(I.image_of(x, ictx))
        if sv is not None:
            return E.Const(sv)
    if isinstance(x, E.IfThenElse):
        return _map_branches(x, _branch_contexts(x, ictx), count, walk)
    return E.map_children(x, walk, ictx, count, walk)


def _const_bool(x: Expr) -> Optional[bool]:
    if isinstance(x, E.Const) and isinstance(x.value, E.VBool):
        return x.value.b
    return None


def _zero_like(kind: str) -> Optional[E.Const]:
    if kind == "int":
        return E.iconst(0)
    if kind == "real":
        return E.rconst(0.0)
    return None


def _kind_of(x: Expr, var_kinds: Mapping[VarRef, str]) -> Optional[str]:
    try:
        return E.check_expr(x, var_kinds)
    except Exception:  # noqa: BLE001
        return None


def _num_const(x: Expr) -> Optional[float]:
    if isinstance(x, E.Const):
        if isinstance(x.value, E.VInt):
            return float(x.value.i)
        if isinstance(x.value, E.VReal):
            return x.value.r
    return None


def simplify_algebra(e: Expr, ctx: PassContext) -> Expr:
    """Operator identities plus branch canonicalization."""
    return _rewrite(e, _simplify, ctx.var_kinds, ctx)


def _simplify(x: Expr, kinds: Mapping[VarRef, str], count: list[int], walk) -> Expr:
    x = E.map_children(x, walk, kinds, count, walk)
    match x:
        case E.Unary("not", E.Unary("not", inner)):
            return inner
        case E.Unary("neg", E.Unary("neg", inner)):
            return inner
        case E.Binary("and", l, r):
            lb, rb = _const_bool(l), _const_bool(r)
            if lb is True:
                return r
            if rb is True:
                return l
            if lb is False or rb is False:
                return E.bconst(False)
        case E.Binary("or", l, r):
            lb, rb = _const_bool(l), _const_bool(r)
            if lb is False:
                return r
            if rb is False:
                return l
            if lb is True or rb is True:
                return E.bconst(True)
        case E.Binary("add", l, r):
            if _num_const(l) == 0.0 and _kind_of(r, kinds) == _kind_of(x, kinds):
                return r
            if _num_const(r) == 0.0 and _kind_of(l, kinds) == _kind_of(x, kinds):
                return l
        case E.Binary("sub", l, r):
            if _num_const(r) == 0.0 and _kind_of(l, kinds) == _kind_of(x, kinds):
                return l
        case E.Binary("mul", l, r):
            if _num_const(l) == 1.0 and _kind_of(r, kinds) == _kind_of(x, kinds):
                return r
            if _num_const(r) == 1.0 and _kind_of(l, kinds) == _kind_of(x, kinds):
                return l
            for c, other in ((l, r), (r, l)):
                if _num_const(c) == 0.0:
                    zero = _zero_like(_kind_of(x, kinds) or "")
                    if zero is not None:
                        return zero
        case E.Binary("div", l, r):
            if _num_const(r) == 1.0 and _kind_of(l, kinds) == _kind_of(x, kinds):
                return l
        case E.Binary("pow", l, r):
            if _num_const(r) == 1.0 and _kind_of(l, kinds) == _kind_of(x, kinds):
                return l
        case E.Binary("eq", l, r):
            lb, rb = _const_bool(l), _const_bool(r)
            if rb is True:
                return l
            if lb is True:
                return r
            if rb is False:
                return E.Unary("not", l)
            if lb is False:
                return E.Unary("not", r)
        case E.IfThenElse(c, t, o):
            cb = _const_bool(c)
            if cb is True:
                return t
            if cb is False:
                return o
            tb, ob = _const_bool(t), _const_bool(o)
            if tb is True and ob is False:
                return c
            if tb is False and ob is True:
                return E.Unary("not", c)
            if t == o:
                return t
            if isinstance(c, E.Unary) and c.op == "not":
                return E.IfThenElse(c.operand, o, t)
        case E.CaseList(cases, default):
            out = []
            new_default = default
            truncated = False
            for g, b in cases:
                gb = _const_bool(g)
                if gb is False:
                    continue
                if gb is True:
                    new_default = b
                    truncated = True
                    break
                out.append((g, b))
            if truncated or len(out) != len(cases) or new_default != default:
                x = E.CaseList(tuple(out), new_default)
            if isinstance(x, E.CaseList):
                if not x.cases:
                    return x.default
                if len(x.cases) == 1:
                    (g, b) = x.cases[0]
                    return E.IfThenElse(g, b, x.default)
    # push a comparison with a constant into constant-armed branches
    match x:
        case E.Binary(op, branch, E.Const() as k) if op in ("eq", "lt", "le"):
            pushed = _push_into_branches(op, branch, k, right_const=True)
            if pushed is not None:
                return walk(pushed, kinds, count, walk)
        case E.Binary(op, E.Const() as k, branch) if op in ("eq", "lt", "le"):
            pushed = _push_into_branches(op, branch, k, right_const=False)
            if pushed is not None:
                return walk(pushed, kinds, count, walk)
    return x


def _push_into_branches(op: str, branch: Expr, k: E.Const, right_const: bool) -> Optional[Expr]:
    def mk(arm: Expr) -> Optional[Expr]:
        if not isinstance(arm, E.Const):
            return None
        node = E.Binary(op, arm, k) if right_const else E.Binary(op, k, arm)
        try:
            return E.Const(E.eval_expr(node, {}, None))
        except Exception:  # noqa: BLE001
            return None

    match branch:
        case E.IfThenElse(c, t, o):
            nt, no = mk(t), mk(o)
            if nt is not None and no is not None:
                return E.IfThenElse(c, nt, no)
        case E.CaseList(cases, default):
            arms = [mk(b) for _, b in cases]
            nd = mk(default)
            if nd is not None and all(a is not None for a in arms):
                return E.CaseList(tuple((g, a) for (g, _), a in zip(cases, arms)), nd)
    return None


def prune_branches(e: Expr, ctx: PassContext) -> Expr:
    """Image-driven branch elimination.

    Guards provably true or false disappear; inside an ``IsIntervened``
    branch the intervention state of that variable is known, so nested
    queries specialize (in particular an intervention value with a single
    allowed atom value becomes that constant).
    """
    dropped = [0]
    out = _rewrite(e, _prune, ctx.image_ctx(), ctx, dropped)
    ctx.stats.guards_dropped += dropped[0]
    return out


def _prune(x: Expr, ictx: I.ImageContext, dropped: list[int], walk) -> Expr:
    match x:
        case E.IfThenElse(c, t, o):
            gi = I.singleton_value(I.image_of(c, ictx))
            guard_ctx, then_ctx, else_ctx = _branch_contexts(x, ictx)
            if gi == E.VBool(True):
                dropped[0] += 1
                return walk(t, then_ctx, dropped, walk)
            if gi == E.VBool(False):
                dropped[0] += 1
                return walk(o, else_ctx, dropped, walk)
            return _map_branches(x, (guard_ctx, then_ctx, else_ctx), dropped, walk)
        case E.CaseList(cases, default):
            kept = []
            new_default = default
            for g, b in cases:
                gi = I.singleton_value(I.image_of(g, ictx))
                if gi == E.VBool(False):
                    dropped[0] += 1
                    continue
                if gi == E.VBool(True):
                    dropped[0] += 1
                    new_default = b
                    break
                kept.append((g, b))
            if kept and len(kept) == len(cases):
                return E.map_children(x, walk, ictx, dropped, walk)
            arms = tuple((walk(g, ictx, dropped, walk), walk(b, ictx, dropped, walk)) for g, b in kept)
            out = E.CaseList(arms, walk(new_default, ictx, dropped, walk))
            if not out.cases:
                return out.default
            return out
        case E.IsIntervened(v) if v in ictx.assume_intervened:
            return E.bconst(ictx.assume_intervened[v])
        case E.InterventionValue(v, fb):
            state = ictx.assume_intervened.get(v)
            if state is True:
                vals = ictx.space.atom_values(v)
                if len(vals) == 1:
                    return E.Const(vals[0])
            if state is False and fb is not None:
                return walk(fb, ictx, dropped, walk)
    return E.map_children(x, walk, ictx, dropped, walk)


def prune_interventions(e: Expr, ctx: PassContext) -> Expr:
    """Specialize intervention queries against the local atom table."""
    return _rewrite(e, _prune_queries, ctx.space, ctx)


def _prune_queries(x: Expr, space: InterventionSpace, count: list[int], walk) -> Expr:
    x = E.map_children(x, walk, space, count, walk)
    match x:
        case E.IsIntervened(v):
            if not space.atom_values(v):
                return E.bconst(False)
        case E.InterventionValue(v, fb):
            if not space.atom_values(v) and fb is not None:
                return fb
        case E.ExistsIntervention(family, lo, hi, value):
            if not space.has_family_atom(family, lo, hi, value):
                return E.bconst(False)
        case E.MaxIntervenedIndex(family, _, default):
            if not space.family_atoms(family):
                return default
    return x


def cancel_inverses(e: Expr, ctx: PassContext) -> Expr:
    """Rewrite registered inverse compositions to their identity form."""
    if not ctx.inverse_rules:
        return e
    return _cancel(e, ctx.inverse_rules)


def _cancel(x: Expr, rules: list[tuple[Expr, Expr]]) -> Expr:
    for pattern, replacement in rules:
        if x == pattern:
            return replacement
    return E.map_children(x, _cancel, rules)


def dedupe_targets(e: Expr, ctx: PassContext) -> Expr:
    """Replace subtrees that equal an earlier target's final equation with a
    reference to that target; the shared work is then computed once."""
    table = ctx._dedupe_table
    if not table:
        return e
    return _dedupe(e, table)


def _dedupe(x: Expr, table: Mapping[Expr, VarRef]) -> Expr:
    hit = table.get(x)
    if hit is not None:
        return E.Ref(hit)
    return E.map_children(x, _dedupe, table)


PURE_PASSES: dict[str, Callable[[Expr, PassContext], Expr]] = {
    # cancellation first: its patterns match the freshly inlined trees;
    # branch pruning before image folding so guard drops are attributed
    "cancel_inverses": cancel_inverses,
    "fold_constants": fold_constants,
    "prune_branches": prune_branches,
    "fold_by_image": fold_by_image,
    "simplify_algebra": simplify_algebra,
    "prune_interventions": prune_interventions,
    "dedupe_targets": dedupe_targets,
}

#: Speculative pass handled by the pipeline driver: its candidates are only
#: sound if the gate proves them, unlike the passes above which are sound by
#: construction and gated as a safety net.
ABSORB = "absorb"

ALL_PASSES = list(PURE_PASSES) + [ABSORB]


def absorb_candidates(e: Expr):
    """Candidate rewrites that drop one side of a conjunction/disjunction.

    Yields whole-tree replacements; the caller keeps a candidate only when
    an exhaustive equivalence check over the local spaces accepts it.
    """
    yield from _absorb_walk(e, e, ())


def _absorb_walk(root: Expr, x: Expr, path: tuple[int, ...]):
    if isinstance(x, E.Binary) and x.op in ("and", "or"):
        yield _replace_at(root, path, x.right)
        yield _replace_at(root, path, x.left)
    for i, c in enumerate(E.children(x)):
        yield from _absorb_walk(root, c, path + (i,))


def _replace_at(root: Expr, path: tuple[int, ...], new: Expr) -> Expr:
    """`root` with the subtree at `path`, a list of child indices, replaced."""
    if not path:
        return new
    kids = list(E.children(root))
    kids[path[0]] = _replace_at(kids[path[0]], path[1:], new)
    it = iter(kids)
    return E.map_children(root, lambda _: next(it))

"""Semantics-preserving rewrites used to shrink consolidated equations.

Every pass maps an expression to an equivalent one and never increases the
node count; the pipeline driver additionally gates each accepted application
behind an equivalence check, so a buggy rule loses a round trip, not
correctness.  Passes are deliberately local and oriented (no rule undoes
another), which keeps the fixpoint iteration terminating.
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
    env_images: Mapping[VarRef, I.Image]
    space: InterventionSpace
    var_kinds: Mapping[VarRef, str]
    inverse_rules: list[tuple[Expr, Expr]] = field(default_factory=list)
    earlier_targets: dict[VarRef, Expr] = field(default_factory=dict)
    stats: PassStats = field(default_factory=PassStats)

    def image_ctx(self) -> I.ImageContext:
        return I.ImageContext(self.env_images, self.space, {})


def _rebuild(e: Expr, f: Callable[[Expr], Expr]) -> Expr:
    """Apply f to every child, keeping the node itself."""
    match e:
        case E.Const() | E.Ref() | E.IsIntervened() | E.ExistsIntervention():
            return e
        case E.Unary(op, a):
            return E.Unary(op, f(a))
        case E.Binary(op, l, r):
            return E.Binary(op, f(l), f(r))
        case E.IfThenElse(c, t, o):
            return E.IfThenElse(f(c), f(t), f(o))
        case E.CaseList(cases, default):
            return E.CaseList(tuple((f(g), f(b)) for g, b in cases), f(default))
        case E.InterventionValue(v, fb):
            return E.InterventionValue(v, f(fb) if fb is not None else None)
        case E.MaxIntervenedIndex(fam, u, d):
            return E.MaxIntervenedIndex(fam, f(u), f(d))
        case E.RandomBernoulli(p):
            return E.RandomBernoulli(f(p))
    raise TypeError(f"not an Expr: {e!r}")


def _is_closed(e: Expr) -> bool:
    """No refs, no intervention queries, no draws: evaluable right now."""
    match e:
        case E.Ref() | E.IsIntervened() | E.InterventionValue() | E.ExistsIntervention() | E.MaxIntervenedIndex() | E.RandomBernoulli():
            return False
    return all(_is_closed(c) for c in E.children(e))


def fold_constants(e: Expr, ctx: PassContext) -> Expr:
    """Evaluate closed subtrees; a subtree that errors is left in place."""

    def walk(x: Expr) -> Expr:
        x = _rebuild(x, walk)
        if isinstance(x, E.Const):
            return x
        if _is_closed(x):
            try:
                return E.Const(E.eval_expr(x, {}, None))
            except Exception:  # noqa: BLE001 - leave the erroring node alone
                return x
        return x

    return walk(e)


def fold_by_image(e: Expr, ctx: PassContext) -> Expr:
    """Replace any subtree whose image is a single value with that constant."""

    def walk(x: Expr, ictx: I.ImageContext) -> Expr:
        if not isinstance(x, E.Const):
            sv = I.singleton_value(I.image_of(x, ictx))
            if sv is not None:
                return E.Const(sv)
        match x:
            case E.IfThenElse(c, t, o) if isinstance(c, E.IsIntervened):
                return E.IfThenElse(
                    walk(c, ictx),
                    walk(t, ictx.child(c.var, True, t)),
                    walk(o, ictx.child(c.var, False, o)),
                )
        return _rebuild(x, lambda ch: walk(ch, ictx))

    return walk(e, ctx.image_ctx())


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


def _kind_of(x: Expr, ctx: PassContext) -> Optional[str]:
    try:
        return E.check_expr(x, ctx.var_kinds)
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

    def walk(x: Expr) -> Expr:
        x = _rebuild(x, walk)
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
                if _num_const(l) == 0.0 and _kind_of(r, ctx) == _kind_of(x, ctx):
                    return r
                if _num_const(r) == 0.0 and _kind_of(l, ctx) == _kind_of(x, ctx):
                    return l
            case E.Binary("sub", l, r):
                if _num_const(r) == 0.0 and _kind_of(l, ctx) == _kind_of(x, ctx):
                    return l
            case E.Binary("mul", l, r):
                if _num_const(l) == 1.0 and _kind_of(r, ctx) == _kind_of(x, ctx):
                    return r
                if _num_const(r) == 1.0 and _kind_of(l, ctx) == _kind_of(x, ctx):
                    return l
                for c, other in ((l, r), (r, l)):
                    if _num_const(c) == 0.0:
                        zero = _zero_like(_kind_of(x, ctx) or "")
                        if zero is not None:
                            return zero
            case E.Binary("div", l, r):
                if _num_const(r) == 1.0 and _kind_of(l, ctx) == _kind_of(x, ctx):
                    return l
            case E.Binary("pow", l, r):
                if _num_const(r) == 1.0 and _kind_of(l, ctx) == _kind_of(x, ctx):
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
                    return walk(pushed)
            case E.Binary(op, E.Const() as k, branch) if op in ("eq", "lt", "le"):
                pushed = _push_into_branches(op, branch, k, right_const=False)
                if pushed is not None:
                    return walk(pushed)
        return x

    return walk(e)


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

    def walk(x: Expr, ictx: I.ImageContext) -> Expr:
        match x:
            case E.IfThenElse(c, t, o):
                gi = I.singleton_value(I.image_of(c, ictx))
                then_ctx, else_ctx = ictx, ictx
                if isinstance(c, E.IsIntervened):
                    then_ctx = ictx.child(c.var, True, t)
                    else_ctx = ictx.child(c.var, False, o)
                if gi == E.VBool(True):
                    ctx.stats.guards_dropped += 1
                    return walk(t, then_ctx)
                if gi == E.VBool(False):
                    ctx.stats.guards_dropped += 1
                    return walk(o, else_ctx)
                return E.IfThenElse(walk(c, ictx), walk(t, then_ctx), walk(o, else_ctx))
            case E.CaseList(cases, default):
                kept = []
                new_default = default
                for g, b in cases:
                    gi = I.singleton_value(I.image_of(g, ictx))
                    if gi == E.VBool(False):
                        ctx.stats.guards_dropped += 1
                        continue
                    if gi == E.VBool(True):
                        ctx.stats.guards_dropped += 1
                        new_default = b
                        break
                    kept.append((g, b))
                out = E.CaseList(tuple((walk(g, ictx), walk(b, ictx)) for g, b in kept), walk(new_default, ictx))
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
                    return walk(fb, ictx)
                return E.InterventionValue(v, walk(fb, ictx) if fb is not None else None)
        return _rebuild(x, lambda ch: walk(ch, ictx))

    return walk(e, ctx.image_ctx())


def prune_interventions(e: Expr, ctx: PassContext) -> Expr:
    """Specialize intervention queries against the local atom table."""

    def walk(x: Expr) -> Expr:
        x = _rebuild(x, walk)
        match x:
            case E.IsIntervened(v):
                if not ctx.space.atom_values(v):
                    return E.bconst(False)
            case E.InterventionValue(v, fb):
                if not ctx.space.atom_values(v) and fb is not None:
                    return fb
            case E.ExistsIntervention(family, lo, hi, value):
                for var, vals in ctx.space.family_atoms(family):
                    if lo is not None and var.index < lo:
                        continue
                    if hi is not None and var.index > hi:
                        continue
                    if value is not None and value not in vals:
                        continue
                    return x
                return E.bconst(False)
            case E.MaxIntervenedIndex(family, _, default):
                if not ctx.space.family_atoms(family):
                    return default
        return x

    return walk(e)


def cancel_inverses(e: Expr, ctx: PassContext) -> Expr:
    """Rewrite registered inverse compositions to their identity form."""
    if not ctx.inverse_rules:
        return e

    def walk(x: Expr) -> Expr:
        for pattern, replacement in ctx.inverse_rules:
            if x == pattern:
                return replacement
        return _rebuild(x, walk)

    return walk(e)


def dedupe_targets(e: Expr, ctx: PassContext) -> Expr:
    """Replace subtrees that equal an earlier target's final equation with a
    reference to that target; the shared work is then computed once."""
    if not ctx.earlier_targets:
        return e
    table = {
        tree: var
        for var, tree in ctx.earlier_targets.items()
        if E.node_count(tree) >= 2
    }
    if not table:
        return e

    def walk(x: Expr) -> Expr:
        hit = table.get(x)
        if hit is not None:
            return E.Ref(hit)
        return _rebuild(x, walk)

    return walk(e)


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

    def rebuild_at(root: Expr, path: tuple[int, ...], new: Expr) -> Expr:
        if not path:
            return new
        idx = path[0]
        kids = list(E.children(root))
        kids[idx] = rebuild_at(kids[idx], path[1:], new)
        return _with_children(root, kids)

    def walk(x: Expr, path: tuple[int, ...]):
        if isinstance(x, E.Binary) and x.op in ("and", "or"):
            yield rebuild_at(e, path, x.right)
            yield rebuild_at(e, path, x.left)
        for i, c in enumerate(E.children(x)):
            yield from walk(c, path + (i,))

    yield from walk(e, ())


def _with_children(e: Expr, kids: list[Expr]) -> Expr:
    it = iter(kids)

    def nxt() -> Expr:
        return next(it)

    match e:
        case E.Const() | E.Ref() | E.IsIntervened() | E.ExistsIntervention():
            return e
        case E.Unary(op, _):
            return E.Unary(op, nxt())
        case E.Binary(op, _, _):
            return E.Binary(op, nxt(), nxt())
        case E.IfThenElse(_, _, _):
            return E.IfThenElse(nxt(), nxt(), nxt())
        case E.CaseList(cases, _):
            new_cases = tuple((nxt(), nxt()) for _ in cases)
            return E.CaseList(new_cases, nxt())
        case E.InterventionValue(v, fb):
            return E.InterventionValue(v, nxt() if fb is not None else None)
        case E.MaxIntervenedIndex(fam, _, _):
            return E.MaxIntervenedIndex(fam, nxt(), nxt())
        case E.RandomBernoulli(_):
            return E.RandomBernoulli(nxt())
    raise TypeError(f"not an Expr: {e!r}")

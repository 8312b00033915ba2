"""Over-approximation of the values an expression can take.

Each subexpression gets an *image*: a finite value set when small enough, a
numeric interval otherwise, or an unknown marker.  Images power the branch
pruning passes: a guard whose image is {true} always fires, a guard whose
image is {false} never does, and any subtree with a singleton image is a
constant in disguise.

Composition through an inlined variable also yields that variable's
effective image, whose size can only shrink along a chain of finite maps;
the compression report records those sizes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

from . import expr as E
from .expr import Expr, Value, VarRef
from .scm import InterventionSpace

FINITE_CAP = 128
_PAIR_CAP = 4096


@dataclass(frozen=True, slots=True)
class FiniteImage:
    values: frozenset

    def __post_init__(self):
        object.__setattr__(self, "values", frozenset(self.values))


@dataclass(frozen=True, slots=True)
class IntervalImage:
    """Closed numeric interval; None on a side means unbounded."""

    lo: Optional[float]
    hi: Optional[float]
    is_int: bool = False


@dataclass(frozen=True, slots=True)
class TopImage:
    pass


Image = Union[FiniteImage, IntervalImage, TopImage]
TOP = TopImage()
BOOL_BOTH = FiniteImage(frozenset({E.VBool(False), E.VBool(True)}))
BOOL_FALSE = FiniteImage(frozenset({E.VBool(False)}))
BOOL_TRUE = FiniteImage(frozenset({E.VBool(True)}))
#: every context's finite images start from the three boolean ones, so a
#: boolean image is one of three objects
_BOOL_IMAGES = {img.values: img for img in (BOOL_FALSE, BOOL_TRUE, BOOL_BOTH)}


def finite_size(img: Image) -> Optional[int]:
    return len(img.values) if isinstance(img, FiniteImage) else None


def singleton_value(img: Image) -> Optional[Value]:
    if isinstance(img, FiniteImage) and len(img.values) == 1:
        return next(iter(img.values))
    return None


def _numeric_bounds(img: Image) -> Optional[tuple[Optional[float], Optional[float], bool]]:
    if isinstance(img, IntervalImage):
        return img.lo, img.hi, img.is_int
    if isinstance(img, FiniteImage):
        nums = []
        is_int = True
        for v in img.values:
            if isinstance(v, E.VInt):
                nums.append(v.i)
            elif isinstance(v, E.VReal):
                nums.append(v.r)
                is_int = False
            else:
                return None
        if not nums:
            return None
        return min(nums), max(nums), is_int
    return None


def _widen(img: FiniteImage) -> Image:
    bounds = _numeric_bounds(img)
    if bounds is None:
        return TOP
    lo, hi, is_int = bounds
    return IntervalImage(lo, hi, is_int)


def _cap(img: FiniteImage) -> Image:
    if len(img.values) > FINITE_CAP:
        return _widen(img)
    return img


def union(a: Image, b: Image) -> Image:
    if isinstance(a, FiniteImage) and isinstance(b, FiniteImage):
        return _cap(FiniteImage(a.values | b.values))
    na, nb = _numeric_bounds(a), _numeric_bounds(b)
    if na is not None and nb is not None:
        lo = None if na[0] is None or nb[0] is None else min(na[0], nb[0])
        hi = None if na[1] is None or nb[1] is None else max(na[1], nb[1])
        return IntervalImage(lo, hi, na[2] and nb[2])
    return TOP


def domain_image(dom: E.Domain) -> Image:
    match dom:
        case E.BoolDomain():
            return BOOL_BOTH
        case E.IntDomain(lo, hi):
            if hi - lo + 1 <= FINITE_CAP:
                return FiniteImage(frozenset(E.VInt(i) for i in range(lo, hi + 1)))
            return IntervalImage(lo, hi, True)
        case E.SymDomain(symbols):
            return _cap(FiniteImage(frozenset(E.VSym(s) for s in symbols)))
        case E.RealDomain(lo, hi):
            if lo is None and hi is None:
                return IntervalImage(None, None, False)
            return IntervalImage(lo, hi, False)
    raise TypeError(f"not a Domain: {dom!r}")


def dist_image(dist) -> Image:
    from . import scm as S

    match dist:
        case S.PointMass(v):
            return FiniteImage(frozenset({v}))
        case S.UniformFinite(values):
            return _cap(FiniteImage(frozenset(values)))
        case S.BernoulliDist():
            return BOOL_BOTH
        case S.UniformReal(lo, hi):
            return IntervalImage(lo, hi, False)
        case S.NormalDist():
            return IntervalImage(None, None, False)
    return TOP


def _apply_finite_unary(op: str, img: FiniteImage) -> Image:
    out = set()
    for v in img.values:
        try:
            out.add(E.eval_expr(E.Unary(op, E.Const(v)), {}, None))
        except Exception:  # noqa: BLE001 - erroring inputs produce no value
            continue
    return _cap(FiniteImage(frozenset(out)))


def _apply_finite_binary(op: str, a: FiniteImage, b: FiniteImage) -> Image:
    if len(a.values) * len(b.values) > _PAIR_CAP:
        return _interval_binary(op, _widen(a), _widen(b))
    out = set()
    for va, vb in itertools.product(a.values, b.values):
        try:
            out.add(E._apply_binary(op, va, vb))
        except Exception:  # noqa: BLE001
            continue
    return _cap(FiniteImage(frozenset(out)))


def _interval_binary(op: str, a: Image, b: Image) -> Image:
    na, nb = _numeric_bounds(a), _numeric_bounds(b)
    if na is None or nb is None:
        return BOOL_BOTH if op in ("lt", "le", "eq", "and", "or") else TOP
    alo, ahi, aint = na
    blo, bhi, bint = nb

    def both(f, xs, ys):
        vals = [f(x, y) for x in xs for y in ys if x is not None and y is not None]
        return vals

    if op == "add":
        lo = None if alo is None or blo is None else alo + blo
        hi = None if ahi is None or bhi is None else ahi + bhi
        return IntervalImage(lo, hi, aint and bint)
    if op == "sub":
        lo = None if alo is None or bhi is None else alo - bhi
        hi = None if ahi is None or blo is None else ahi - blo
        return IntervalImage(lo, hi, aint and bint)
    if op == "mul":
        if None in (alo, ahi, blo, bhi):
            return IntervalImage(None, None, aint and bint)
        prods = both(lambda x, y: x * y, [alo, ahi], [blo, bhi])
        return IntervalImage(min(prods), max(prods), aint and bint)
    if op in ("min", "max"):
        pick = min if op == "min" else max
        lo = None if alo is None or blo is None else pick(alo, blo)
        hi = None if ahi is None or bhi is None else pick(ahi, bhi)
        return IntervalImage(lo, hi, aint and bint)
    if op == "lt":
        if ahi is not None and blo is not None and ahi < blo:
            return BOOL_TRUE
        if alo is not None and bhi is not None and alo >= bhi:
            return BOOL_FALSE
        return BOOL_BOTH
    if op == "le":
        if ahi is not None and blo is not None and ahi <= blo:
            return BOOL_TRUE
        if alo is not None and bhi is not None and alo > bhi:
            return BOOL_FALSE
        return BOOL_BOTH
    if op == "eq":
        if (ahi is not None and blo is not None and ahi < blo) or (
            bhi is not None and alo is not None and bhi < alo
        ):
            return BOOL_FALSE
        return BOOL_BOTH
    return TOP


@dataclass
class ImageContext:
    """What the analysis may assume about the environment.

    `env` maps referencable variables to their images; `space` is the local
    intervention space, consulted for atom values; `assume_intervened`
    carries guard knowledge collected while descending branches.

    A context remembers the image of every node analysed in it, so a subtree
    shared by several consumers is analysed once per context.  Contexts are
    canonical: `child` only makes a new one when the subtree can observe the
    added assumption, and makes it once per (variable, state).

    Lifetime: one context serves one cluster while its trees stand.
    `consolidate` makes it for `build_rho`, and the image passes of
    `run_passes` go on using it for every target and every round.
    `run_passes` calls `forget` before each acceptance check and before
    `absorb`, so the memo never holds trees through a gate's own
    allocations, and the next image pass starts from an empty one.
    """

    env: Mapping[VarRef, Image]
    space: InterventionSpace
    assume_intervened: dict[VarRef, bool]
    #: id(node) -> (node, image); holding the node keeps its id from reuse
    _images: dict[int, tuple[Expr, Image]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _children: dict[tuple[VarRef, bool], "ImageContext"] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: id(node) -> (node, bit set of the variables it queries), and the bit
    #: of each variable met so far; both shared by a family of contexts
    _queried: dict[int, tuple[Expr, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _bits: dict[VarRef, int] = field(default_factory=dict, init=False, repr=False, compare=False)
    #: one object per distinct finite image, by `_finite_key`; shared by the family
    _finite: dict[frozenset, FiniteImage] = field(
        default_factory=lambda: dict(_BOOL_IMAGES), init=False, repr=False, compare=False
    )

    def child(self, var: VarRef, state: bool, subtree: Expr) -> "ImageContext":
        """The context for `subtree` once `var`'s intervention state is known."""
        # the subtree's mask first: a variable first met inside it gets its bit there
        queried = self._queried_mask(subtree)
        if not queried & self._bits.get(var, 0):
            return self
        kid = self._children.get((var, state))
        if kid is None:
            assume = dict(self.assume_intervened)
            assume[var] = state
            kid = ImageContext(self.env, self.space, assume)
            kid._queried, kid._bits, kid._finite = self._queried, self._bits, self._finite
            self._children[(var, state)] = kid
        return kid

    def forget(self) -> None:
        """Drop every remembered image, child context and query set."""
        self._images, self._children, self._queried, self._bits = {}, {}, {}, {}
        self._finite = dict(_BOOL_IMAGES)

    def _queried_mask(self, e: Expr) -> int:
        """The variables whose assumed state `e` reads, as a bit set: the only
        nodes that look at `assume_intervened` are `IsIntervened` and
        `InterventionValue`."""
        hit = self._queried.get(id(e))
        if hit is not None:
            return hit[1]
        out = 0
        for c in E.children(e):
            out |= self._queried_mask(c)
        if isinstance(e, (E.IsIntervened, E.InterventionValue)):
            bit = self._bits.get(e.var)
            if bit is None:
                bit = self._bits[e.var] = 1 << len(self._bits)
            out |= bit
        self._queried[id(e)] = (e, out)
        return out


def image_of(e: Expr, ctx: ImageContext) -> Image:
    """The image of `e` in `ctx`, computed once per node and context."""
    hit = ctx._images.get(id(e))
    if hit is not None:
        return hit[1]
    img = _image_of(e, ctx)
    if type(img) is FiniteImage:
        img = ctx._finite.setdefault(_finite_key(img.values), img)
    ctx._images[id(e)] = (e, img)
    return img


def _finite_key(values: frozenset) -> frozenset:
    """`values` with each real as its repr: `VReal(0.0) == VReal(-0.0)`, so
    images interned by plain equality could hand back the other zero."""
    return frozenset([repr(v.r) if type(v) is E.VReal else v for v in values])


def _image_of(e: Expr, ctx: ImageContext) -> Image:
    """One node's image; children go through `image_of` and its memo."""
    match e:
        case E.Const(v):
            return FiniteImage(frozenset({v}))
        case E.Ref(v):
            return ctx.env.get(v, TOP)
        case E.Unary(op, a):
            ia = image_of(a, ctx)
            if isinstance(ia, FiniteImage):
                return _apply_finite_unary(op, ia)
            if op == "neg":
                nb = _numeric_bounds(ia)
                if nb is None:
                    return TOP
                lo, hi, is_int = nb
                return IntervalImage(
                    None if hi is None else -hi, None if lo is None else -lo, is_int
                )
            return BOOL_BOTH
        case E.Binary(op, l, r):
            il, ir = image_of(l, ctx), image_of(r, ctx)
            if isinstance(il, FiniteImage) and isinstance(ir, FiniteImage):
                return _apply_finite_binary(op, il, ir)
            if op in ("and", "or"):
                short, other = (BOOL_FALSE, BOOL_TRUE) if op == "and" else (BOOL_TRUE, BOOL_FALSE)
                if short in (il, ir):
                    return short
                if il == other and ir == other:
                    return other
                return BOOL_BOTH
            return _interval_binary(op, il, ir)
        case E.IfThenElse(c, t, o):
            ic = image_of(c, ctx)
            then_ctx, else_ctx = ctx, ctx
            if isinstance(c, E.IsIntervened):
                then_ctx = ctx.child(c.var, True, t)
                else_ctx = ctx.child(c.var, False, o)
            sv = singleton_value(ic)
            if sv == E.VBool(True):
                return image_of(t, then_ctx)
            if sv == E.VBool(False):
                return image_of(o, else_ctx)
            return union(image_of(t, then_ctx), image_of(o, else_ctx))
        case E.CaseList(cases, default):
            acc: Optional[Image] = None
            for g, b in cases:
                ig = singleton_value(image_of(g, ctx))
                if ig == E.VBool(False):
                    continue
                bi = image_of(b, ctx)
                acc = bi if acc is None else union(acc, bi)
                if ig == E.VBool(True):
                    return acc
            di = image_of(default, ctx)
            return di if acc is None else union(acc, di)
        case E.IsIntervened(v):
            if v in ctx.assume_intervened:
                return BOOL_TRUE if ctx.assume_intervened[v] else BOOL_FALSE
            if not ctx.space.atom_values(v):
                return BOOL_FALSE
            return BOOL_BOTH
        case E.InterventionValue(v, fb):
            atom_img = _cap(FiniteImage(frozenset(ctx.space.atom_values(v))))
            fb_img = image_of(fb, ctx) if fb is not None else None
            state = ctx.assume_intervened.get(v)
            if state is True:
                return atom_img
            if state is False:
                return fb_img if fb_img is not None else TOP
            if fb_img is None:
                return atom_img
            return union(atom_img, fb_img)
        case E.ExistsIntervention(family, lo, hi, value):
            return BOOL_BOTH if ctx.space.has_family_atom(family, lo, hi, value) else BOOL_FALSE
        case E.MaxIntervenedIndex(family, upper, default):
            up = _numeric_bounds(image_of(upper, ctx))
            idxs = []
            for var, _vals in ctx.space.family_atoms(family):
                if up is not None and up[1] is not None and var.index > up[1]:
                    continue
                idxs.append(E.VInt(var.index))
            di = image_of(default, ctx)
            if not idxs:
                return di
            return union(_cap(FiniteImage(frozenset(idxs))), di)
        case E.RandomBernoulli():
            return BOOL_BOTH
    raise TypeError(f"not an Expr: {e!r}")

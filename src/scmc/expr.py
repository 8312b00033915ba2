"""Typed expression trees for structural equations and consolidated equations.

Every structural equation, every consolidation function and every rewrite
pass operates on the node types defined here.  Trees are immutable, so
rewrites share subtrees freely: `map_children` copies only the path to what
changed and hands back every untouched node as the same object.  Each node
computes its size (`node_count`) and its hash once, on first use, and keeps
them for as long as it lives; nodes are never merged, so two equal nodes stay
two objects.

Besides the usual arithmetic/boolean operators the IR carries four
intervention primitives (`IsIntervened`, `InterventionValue`,
`ExistsIntervention`, `MaxIntervenedIndex`).  These query the intervention
set an expression is evaluated under, which is what lets a consolidated
equation stay correct when individual variables it no longer computes are
forced to a value.

Each node evaluates itself (`_eval`).  A `Binary` node looks its operator up
in one table, `_BINARY`, which holds one function per operator and is also
what `_apply_binary` and the finite images of `scmc.images` call.  Values are
slotted frozen dataclasses; the operators build their results without the
dataclass `__init__`, and comparisons and the boolean nodes hand out two
shared booleans, which conditionals test by identity first.
"""

from __future__ import annotations

import operator
from dataclasses import FrozenInstanceError, dataclass, fields
from typing import Callable, Mapping, Optional, Union

from .errors import DivisionByZeroError, DomainError, NonDeterministicModelError, UnboundRefError

# ---------------------------------------------------------------------------
# Values and domains
# ---------------------------------------------------------------------------


def _refuse_set(self, attr, value):
    raise FrozenInstanceError(f"cannot assign to field {attr!r}")


def _refuse_delete(self, attr):
    raise FrozenInstanceError(f"cannot delete field {attr!r}")


def _value(cls):
    """Make `cls` a slotted frozen dataclass.

    Assigning or deleting any attribute raises FrozenInstanceError.  The
    dataclass's own frozen guards name the class they were made for, which
    `slots=True` replaces: on Python 3.11 assigning a name that is not a
    field raises TypeError through them.
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__setattr__ = _refuse_set
    cls.__delattr__ = _refuse_delete
    return cls


@_value
class VBool:
    b: bool


@_value
class VInt:
    i: int


@_value
class VSym:
    name: str


@_value
class VReal:
    r: float


Value = Union[VBool, VInt, VSym, VReal]

#: Results of the boolean nodes; values are immutable, so evaluation can
#: share two instances instead of allocating one per node visit.
_TRUE, _FALSE = VBool(True), VBool(False)

#: Absolute tolerance used when tests compare real-valued results.
EPS_VAL = 1e-9


def value_kind(v: Value) -> str:
    match v:
        case VBool():
            return "bool"
        case VInt():
            return "int"
        case VSym():
            return "sym"
        case VReal():
            return "real"
    raise TypeError(f"not a Value: {v!r}")


def values_close(a: Value, b: Value, eps: float = EPS_VAL) -> bool:
    """Exact equality, except reals compare within an absolute tolerance."""
    if isinstance(a, VReal) and isinstance(b, VReal):
        return abs(a.r - b.r) <= eps
    if isinstance(a, VReal) or isinstance(b, VReal):
        an = _numeric(a) if isinstance(a, (VInt, VReal)) else None
        bn = _numeric(b) if isinstance(b, (VInt, VReal)) else None
        if an is None or bn is None:
            return False
        return abs(an - bn) <= eps
    return a == b


@dataclass(frozen=True)
class BoolDomain:
    def _contains(self, v: Value) -> bool:
        return isinstance(v, VBool)


@dataclass(frozen=True)
class IntDomain:
    """Finite integer range, both ends inclusive."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise DomainError(f"empty integer domain {self.lo}..{self.hi}")

    def _contains(self, v: Value) -> bool:
        return isinstance(v, VInt) and self.lo <= v.i <= self.hi


@dataclass(frozen=True)
class SymDomain:
    symbols: tuple[str, ...]

    def __post_init__(self):
        if not self.symbols:
            raise DomainError("symbolic domain needs at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise DomainError("duplicate symbols in domain")

    def _contains(self, v: Value) -> bool:
        return isinstance(v, VSym) and v.name in self.symbols


@dataclass(frozen=True)
class RealDomain:
    """Real domain, optionally restricted to a closed interval."""

    lo: Optional[float] = None
    hi: Optional[float] = None

    def __post_init__(self):
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise DomainError(f"empty real interval [{self.lo}, {self.hi}]")

    def _contains(self, v: Value) -> bool:
        if isinstance(v, VReal):
            r = v.r
        elif isinstance(v, VInt):
            # integers are acceptable carriers for real-valued variables
            r = float(v.i)
        else:
            return False
        if self.lo is not None and r < self.lo:
            return False
        if self.hi is not None and r > self.hi:
            return False
        return True


Domain = Union[BoolDomain, IntDomain, SymDomain, RealDomain]


def domain_kind(d: Domain) -> str:
    match d:
        case BoolDomain():
            return "bool"
        case IntDomain():
            return "int"
        case SymDomain():
            return "sym"
        case RealDomain():
            return "real"
    raise TypeError(f"not a Domain: {d!r}")


def value_in_domain(v: Value, d: Domain) -> bool:
    """Membership of a value in a domain.  Each domain class answers with
    `_contains(v)`; hot loops call that method directly."""
    return d._contains(v)


def domain_values(d: Domain) -> list[Value]:
    """All members of a finite domain, in canonical order."""
    match d:
        case BoolDomain():
            return [VBool(False), VBool(True)]
        case IntDomain(lo, hi):
            return [VInt(i) for i in range(lo, hi + 1)]
        case SymDomain(symbols):
            return [VSym(s) for s in symbols]
        case RealDomain():
            raise DomainError("real domains are not enumerable")
    raise TypeError(f"not a Domain: {d!r}")


def domain_is_finite(d: Domain) -> bool:
    return not isinstance(d, RealDomain)


# ---------------------------------------------------------------------------
# Variable references
# ---------------------------------------------------------------------------


class VarRef:
    """Reference to a model variable.

    `index` is set for members of indexed families (S_3 is
    ``VarRef("S", 3)``) and None for scalar variables.

    Refs are interned: the constructor returns the one instance per
    ``(name, index)``, so equality and hashing are object identity and every
    dict or set lookup keyed on a ref hashes in C.  Compare refs with ``==``
    and build them only through the constructor (copying and pickling go
    through it too).  The hash is the object's id, so it differs from one
    process to the next.  Refs are immutable.
    """

    __slots__ = ("name", "index")
    __match_args__ = ("name", "index")

    #: (name, index) -> the interned ref; never shrinks.
    _interned: dict = {}

    name: str
    index: Optional[int]

    def __new__(cls, name: str, index: Optional[int] = None):
        key = (name, index)
        got = cls._interned.get(key)
        if got is None:
            fresh = object.__new__(cls)
            object.__setattr__(fresh, "name", name)
            object.__setattr__(fresh, "index", index)
            # of two racing constructors, setdefault hands both the first one stored
            got = cls._interned.setdefault(key, fresh)
        return got

    __setattr__ = _refuse_set
    __delattr__ = _refuse_delete

    def __reduce__(self):
        return (VarRef, (self.name, self.index))

    def __repr__(self):
        return f"VarRef(name={self.name!r}, index={self.index!r})"

    def __str__(self):
        return self.name if self.index is None else f"{self.name}_{self.index}"


def ref_sort_key(v: VarRef) -> tuple:
    return (v.name, v.index if v.index is not None else -(10**9))


def parse_var_name(text: str) -> VarRef:
    """Parse ``S_3`` into an indexed ref; a trailing ``_<int>`` is the index."""
    if "_" in text:
        stem, _, tail = text.rpartition("_")
        if stem and tail.lstrip("-").isdigit():
            return VarRef(stem, int(tail))
    return VarRef(text)


# ---------------------------------------------------------------------------
# Expression nodes
# ---------------------------------------------------------------------------


class _Node:
    """Base of the expression node classes: two cache slots, not dataclass
    fields, so they are never compared, printed or written to documents.

    `_size` holds `node_count` and `_hash` the hash of the field tuple; each
    is filled with `object.__setattr__` on first use.  Reading an unfilled
    slot raises AttributeError.
    """

    __slots__ = ("_size", "_hash")

    __setattr__ = _refuse_set
    __delattr__ = _refuse_delete


def _node(cls):
    """Make `cls` a slotted frozen dataclass whose hash is computed once.

    The hash is the dataclass's own, the hash of the field tuple, so values
    are unchanged; only repeat calls are saved.  The tuple is read in C, so a
    deep tree costs one Python frame per level to hash, as before.
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    names = tuple(f.name for f in fields(cls))
    field_tuple = operator.attrgetter(*names)  # a bare value, not a tuple, for one name
    single = len(names) == 1

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            key = field_tuple(self)
            h = hash((key,) if single else key)
            object.__setattr__(self, "_hash", h)
            return h

    cls.__hash__ = __hash__
    # as for values (`_value`): the dataclass's own guards would raise
    # TypeError for a name that is not a field
    cls.__setattr__ = _refuse_set
    cls.__delattr__ = _refuse_delete
    return cls


@_node
class Const(_Node):
    value: Value

    def _eval(self, env, iv, rng):
        return self.value


@_node
class Ref(_Node):
    var: VarRef

    def _eval(self, env, iv, rng):
        try:
            return env[self.var]
        except KeyError:
            raise UnboundRefError(self.var) from None


@_node
class Unary(_Node):
    op: str  # "neg" | "not"
    operand: "Expr"

    def _eval(self, env, iv, rng):
        if self.op == "not":
            v = self.operand._eval(env, iv, rng)
            if v is _TRUE:
                return _FALSE
            if v is _FALSE:
                return _TRUE
            return _FALSE if _as_bool(v) else _TRUE
        if self.op == "neg":
            return _wrap_number(-_numeric(self.operand._eval(env, iv, rng)))
        raise DomainError(f"unknown unary operator {self.op!r}")


@_node
class Binary(_Node):
    op: str  # add sub mul div pow mod min max lt le eq and or
    left: "Expr"
    right: "Expr"

    def _eval(self, env, iv, rng):
        op = self.op
        # `and`/`or` evaluate their right operand only when the left one does
        # not decide; an exact `VBool` is read without calling `_as_bool`
        if op == "and":
            v = self.left._eval(env, iv, rng)
            if not (v.b if type(v) is VBool else _as_bool(v)):
                return _FALSE
            v = self.right._eval(env, iv, rng)
            return _TRUE if (v.b if type(v) is VBool else _as_bool(v)) else _FALSE
        if op == "or":
            v = self.left._eval(env, iv, rng)
            if v.b if type(v) is VBool else _as_bool(v):
                return _TRUE
            v = self.right._eval(env, iv, rng)
            return _TRUE if (v.b if type(v) is VBool else _as_bool(v)) else _FALSE
        a = self.left._eval(env, iv, rng)
        b = self.right._eval(env, iv, rng)
        apply = _BINARY.get(op)
        return apply(a, b) if apply is not None else _apply_binary(op, a, b)


@_node
class IfThenElse(_Node):
    cond: "Expr"
    then: "Expr"
    orelse: "Expr"

    def _eval(self, env, iv, rng):
        c = self.cond._eval(env, iv, rng)
        if c is _TRUE or c is not _FALSE and _as_bool(c):
            return self.then._eval(env, iv, rng)
        return self.orelse._eval(env, iv, rng)


@_node
class CaseList(_Node):
    """Ordered guard->expression pairs with first-match semantics.

    Guards may overlap; the first guard that evaluates to true selects the
    arm, and `default` fires when none does.
    """

    cases: tuple[tuple["Expr", "Expr"], ...]
    default: "Expr"

    def _eval(self, env, iv, rng):
        for g, b in self.cases:
            if _as_bool(g._eval(env, iv, rng)):
                return b._eval(env, iv, rng)
        return self.default._eval(env, iv, rng)


@_node
class IsIntervened(_Node):
    """True iff the active intervention set contains an atom on `var`."""

    var: VarRef

    def _eval(self, env, iv, rng):
        return _TRUE if self.var in iv else _FALSE


@_node
class InterventionValue(_Node):
    """The value forced onto `var`, else the fallback when not intervened.

    The fallback may be omitted when the node is guarded by an
    `IsIntervened` check; evaluating a fallback-less node on an
    unintervened variable is an error.
    """

    var: VarRef
    fallback: Optional["Expr"] = None

    def _eval(self, env, iv, rng):
        got = iv.get(self.var)
        if got is not None:
            return got
        if self.fallback is None:
            raise UnboundRefError(self.var)
        return self.fallback._eval(env, iv, rng)


@_node
class ExistsIntervention(_Node):
    """True iff some atom on the named family matches index range and value."""

    family: str
    lo: Optional[int] = None
    hi: Optional[int] = None
    value: Optional[Value] = None

    def _eval(self, env, iv, rng):
        lo, hi, value = self.lo, self.hi, self.value
        for var, val in iv.items():
            if var.name != self.family or var.index is None:
                continue
            if lo is not None and var.index < lo:
                continue
            if hi is not None and var.index > hi:
                continue
            if value is not None and val != value:
                continue
            return _TRUE
        return _FALSE


@_node
class MaxIntervenedIndex(_Node):
    """Largest intervened index of the family that is <= `upper`, else `default`."""

    family: str
    upper: "Expr"
    default: "Expr"

    def _eval(self, env, iv, rng):
        bound = self.upper._eval(env, iv, rng)
        if not isinstance(bound, VInt):
            raise DomainError("max_intervened_index bound must be an integer")
        best = None
        for var in iv:
            if var.name != self.family or var.index is None or var.index > bound.i:
                continue
            if best is None or var.index > best:
                best = var.index
        return VInt(best) if best is not None else self.default._eval(env, iv, rng)


@_node
class RandomBernoulli(_Node):
    """Non-deterministic draw; true with probability 1 - p under the
    evaluation convention ``draw = (p < r)`` with r uniform on [0, 1).

    Only valid in models that have not been reparameterized yet.  Evaluation
    requires an explicit random source; without one it is an error, which is
    what forces callers through the reparameterization step.
    """

    p: "Expr"

    def _eval(self, env, iv, rng):
        if rng is None:
            raise NonDeterministicModelError(
                "model draws at evaluation time; reparameterize it or pass an rng"
            )
        pv = _numeric(self.p._eval(env, iv, rng))
        return VBool(pv < rng.random())


Expr = Union[
    Const,
    Ref,
    Unary,
    Binary,
    IfThenElse,
    CaseList,
    IsIntervened,
    InterventionValue,
    ExistsIntervention,
    MaxIntervenedIndex,
    RandomBernoulli,
]

_NUMERIC_BINOPS = {"add", "sub", "mul", "div", "pow", "mod", "min", "max"}
_COMPARE_BINOPS = {"lt", "le"}
_BOOL_BINOPS = {"and", "or"}
BINARY_OPS = _NUMERIC_BINOPS | _COMPARE_BINOPS | _BOOL_BINOPS | {"eq"}
UNARY_OPS = {"neg", "not"}


def children(e: Expr) -> tuple[Expr, ...]:
    """Expression children only; variable/family slots are not children."""
    match e:
        case Const() | Ref() | IsIntervened() | ExistsIntervention():
            return ()
        case Unary(_, x):
            return (x,)
        case Binary(_, l, r):
            return (l, r)
        case IfThenElse(c, t, o):
            return (c, t, o)
        case CaseList(cases, default):
            out: list[Expr] = []
            for g, x in cases:
                out.append(g)
                out.append(x)
            out.append(default)
            return tuple(out)
        case InterventionValue(_, fb):
            return (fb,) if fb is not None else ()
        case MaxIntervenedIndex(_, upper, default):
            return (upper, default)
        case RandomBernoulli(p):
            return (p,)
    raise TypeError(f"not an Expr: {e!r}")


def node_count(e: Expr) -> int:
    """Size of the tree under the cost model used by the rewrite pipeline.

    Constants and references count one.  Composite nodes count one plus their
    children.  The intervention primitives additionally count their variable
    or family slot as one leaf, so ``IsIntervened(V)`` weighs the same as a
    negated reference would.

    Computed once per node and kept on it; a subtree shared by several trees
    is counted once.
    """
    try:
        return e._size
    except AttributeError:
        n = _size_of(e)
        object.__setattr__(e, "_size", n)
        return n


_SLOTTED_PRIMITIVES = (IsIntervened, InterventionValue, ExistsIntervention, MaxIntervenedIndex)


def _size_of(e: Expr) -> int:
    """One node's size from its children's; `node_count` caches the result."""
    n = 2 if isinstance(e, _SLOTTED_PRIMITIVES) else 1
    for c in children(e):
        n += node_count(c)
    return n


def free_refs(e: Expr) -> set[VarRef]:
    """Variables whose *values* the expression reads.

    Intervention primitives query the intervention set, not the variable's
    value, so their variable slots do not appear here.
    """
    out: set[VarRef] = set()
    _add_free_refs(e, out)
    return out


def _add_free_refs(x: Expr, out: set[VarRef]) -> None:
    # a module-level walker, not a closure: a recursive closure is a reference
    # cycle, and would keep `out` alive until the cyclic collector runs
    if isinstance(x, Ref):
        out.add(x.var)
    for c in children(x):
        _add_free_refs(c, out)


def intervention_queries(e: Expr) -> set[VarRef]:
    """Variables and families whose intervention state the expression inspects.

    Family queries are reported as index-less refs.
    """
    out: set[VarRef] = set()
    _add_intervention_queries(e, out)
    return out


def _add_intervention_queries(x: Expr, out: set[VarRef]) -> None:
    match x:
        case IsIntervened(v) | InterventionValue(v, _):
            out.add(v)
        case ExistsIntervention(family=f) | MaxIntervenedIndex(family=f):
            out.add(VarRef(f))
    for c in children(x):
        _add_intervention_queries(c, out)


def contains_draw(e: Expr) -> bool:
    if isinstance(e, RandomBernoulli):
        return True
    return any(contains_draw(c) for c in children(e))


def map_children(e: Expr, f: Callable[..., Expr], *args) -> Expr:
    """`e` with `f(child, *args)` in place of each expression child.

    `f` sees the children in `children` order: a `CaseList` gives each
    guard, then its branch, then the default; an `InterventionValue` without
    a fallback has no child and `f` is not called.  When `f` hands back every
    child as the same object, `e` itself is returned, so a rewrite copies
    only the path to what it changed and shares every other subtree.  A
    walker passes its own state as `args` and recurses with `f` itself, so
    it needs no closure per node.
    """
    match e:
        case Const() | Ref() | IsIntervened() | ExistsIntervention():
            return e
        case Unary(op, a):
            a2 = f(a, *args)
            return e if a2 is a else Unary(op, a2)
        case Binary(op, l, r):
            l2 = f(l, *args)
            r2 = f(r, *args)
            return e if l2 is l and r2 is r else Binary(op, l2, r2)
        case IfThenElse(c, t, o):
            c2 = f(c, *args)
            t2 = f(t, *args)
            o2 = f(o, *args)
            return e if c2 is c and t2 is t and o2 is o else IfThenElse(c2, t2, o2)
        case CaseList(cases, default):
            cases2 = tuple((f(g, *args), f(b, *args)) for g, b in cases)
            d2 = f(default, *args)
            if d2 is default and all(g2 is g and b2 is b for (g2, b2), (g, b) in zip(cases2, cases)):
                return e
            return CaseList(cases2, d2)
        case InterventionValue(v, fb):
            if fb is None:
                return e
            fb2 = f(fb, *args)
            return e if fb2 is fb else InterventionValue(v, fb2)
        case MaxIntervenedIndex(fam, u, d):
            u2 = f(u, *args)
            d2 = f(d, *args)
            return e if u2 is u and d2 is d else MaxIntervenedIndex(fam, u2, d2)
        case RandomBernoulli(p):
            p2 = f(p, *args)
            return e if p2 is p else RandomBernoulli(p2)
    raise TypeError(f"not an Expr: {e!r}")


def substitute(e: Expr, bindings: Mapping[VarRef, Expr]) -> Expr:
    """Replace every `Ref` whose variable is bound with its binding.

    Variable slots of intervention primitives are identities, not value
    reads, and are left alone; the fallback of `InterventionValue` is an
    ordinary child and is rewritten.  Bindings are shared, not copied.
    """
    if not bindings:
        return e
    return _substitute(e, bindings)


def _substitute(x: Expr, bindings: Mapping[VarRef, Expr]) -> Expr:
    # a module-level walker: a closure that calls itself is a reference cycle
    if isinstance(x, Ref):
        return bindings.get(x.var, x)
    return map_children(x, _substitute, bindings)


# ---------------------------------------------------------------------------
# Kind checking
# ---------------------------------------------------------------------------


def check_expr(e: Expr, var_kinds: Mapping[VarRef, str]) -> str:
    """Infer the result kind of an expression, raising DomainError on misuse.

    `var_kinds` maps every referencable variable to one of
    bool/int/sym/real.  Mixed int/real arithmetic widens to real.
    """

    def kind(x: Expr) -> str:
        match x:
            case Const(v):
                return value_kind(v)
            case Ref(v):
                if v not in var_kinds:
                    raise UnboundRefError(v)
                return var_kinds[v]
            case Unary("neg", a):
                k = kind(a)
                if k not in ("int", "real"):
                    raise DomainError(f"neg needs a numeric operand, got {k}")
                return k
            case Unary("not", a):
                if kind(a) != "bool":
                    raise DomainError("not needs a boolean operand")
                return "bool"
            case Unary(op, _):
                raise DomainError(f"unknown unary operator {op!r}")
            case Binary(op, l, r):
                kl, kr = kind(l), kind(r)
                if op in _NUMERIC_BINOPS:
                    if kl not in ("int", "real") or kr not in ("int", "real"):
                        raise DomainError(f"{op} needs numeric operands, got {kl}/{kr}")
                    if op == "mod" and (kl != "int" or kr != "int"):
                        raise DomainError("mod is defined on integers only")
                    if op == "div" and kl == "int" and kr == "int":
                        return "int"
                    if op == "pow":
                        return "int" if kl == kr == "int" else "real"
                    return "real" if "real" in (kl, kr) else "int"
                if op in _COMPARE_BINOPS:
                    if kl not in ("int", "real") or kr not in ("int", "real"):
                        raise DomainError(f"{op} compares numbers, got {kl}/{kr}")
                    return "bool"
                if op == "eq":
                    numeric = {"int", "real"}
                    if kl != kr and not (kl in numeric and kr in numeric):
                        raise DomainError(f"eq needs comparable operands, got {kl}/{kr}")
                    return "bool"
                if op in _BOOL_BINOPS:
                    if kl != "bool" or kr != "bool":
                        raise DomainError(f"{op} needs boolean operands")
                    return "bool"
                raise DomainError(f"unknown binary operator {op!r}")
            case IfThenElse(c, t, o):
                if kind(c) != "bool":
                    raise DomainError("if-guard must be boolean")
                kt, ko = kind(t), kind(o)
                if kt != ko:
                    raise DomainError(f"branches disagree: {kt} vs {ko}")
                return kt
            case CaseList(cases, default):
                kd = kind(default)
                for g, b in cases:
                    if kind(g) != "bool":
                        raise DomainError("case guard must be boolean")
                    if kind(b) != kd:
                        raise DomainError("case arms disagree on kind")
                return kd
            case IsIntervened() | ExistsIntervention():
                return "bool"
            case InterventionValue(v, fb):
                if v not in var_kinds:
                    raise UnboundRefError(v)
                k = var_kinds[v]
                if fb is not None and kind(fb) != k:
                    raise DomainError(f"fallback kind differs from {v}'s kind")
                return k
            case MaxIntervenedIndex(_, u, d):
                if kind(u) != "int" or kind(d) != "int":
                    raise DomainError("max_intervened_index bounds must be integers")
                return "int"
            case RandomBernoulli(p):
                if kind(p) not in ("int", "real"):
                    raise DomainError("bernoulli parameter must be numeric")
                return "bool"
        raise TypeError(f"not an Expr: {x!r}")

    return kind(e)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _numeric(v: Value) -> float | int:
    if isinstance(v, VInt):
        return v.i
    if isinstance(v, VReal):
        return v.r
    raise DomainError(f"expected a number, got {v}")


def _as_bool(v: Value) -> bool:
    if isinstance(v, VBool):
        return v.b
    raise DomainError(f"expected a boolean, got {v}")


# Results are built without the dataclass `__init__`: a bare instance, then
# its one slot set through the slot's descriptor.
_new = object.__new__
_set_int = VInt.i.__set__
_set_real = VReal.r.__set__


def _int(x) -> VInt:
    v = _new(VInt)
    _set_int(v, x)
    return v


def _real(x) -> VReal:
    v = _new(VReal)
    _set_real(v, x)
    return v


def _wrap_number(x) -> Value:
    t = type(x)
    if t is float:
        v = _new(VReal)
        _set_real(v, x)
        return v
    if t is int:
        v = _new(VInt)
        _set_int(v, x)
        return v
    return _int(x) if isinstance(x, int) else _real(float(x))


# ---------------------------------------------------------------------------
# The operator table: one function per binary operator, `_BINARY[op](a, b)`.
#
# Each reads the payload of an exact `VInt` or `VReal` operand directly and
# hands any other operand to `_numeric`, which unwraps subclasses and raises
# for a non-number, left operand first.  So odd payloads (a `VReal` holding
# an int, a `VInt` holding a bool) compute with Python's operators as they
# are, and the result's type decides its class, as `_wrap_number` says.
# Comparisons return the shared `_TRUE`/`_FALSE` for a `bool` result.
# ---------------------------------------------------------------------------


def _arithmetic(fn: Callable) -> Callable[[Value, Value], Value]:
    """The operator that applies `fn` to two numbers and wraps the result."""

    def apply(a, b):
        ta, tb = type(a), type(b)
        x = a.r if ta is VReal else a.i if ta is VInt else _numeric(a)
        y = b.r if tb is VReal else b.i if tb is VInt else _numeric(b)
        r = fn(x, y)
        if type(r) is float:
            v = _new(VReal)
            _set_real(v, r)
            return v
        return _wrap_number(r)

    return apply


def _comparison(fn: Callable) -> Callable[[Value, Value], VBool]:
    """The operator that compares two numbers with `fn`."""

    def apply(a, b):
        ta, tb = type(a), type(b)
        x = a.r if ta is VReal else a.i if ta is VInt else _numeric(a)
        y = b.r if tb is VReal else b.i if tb is VInt else _numeric(b)
        r = fn(x, y)
        return _TRUE if r is True else _FALSE if r is False else VBool(r)

    return apply


def _div(a: Value, b: Value) -> Value:
    ta, tb = type(a), type(b)
    x = a.r if ta is VReal else a.i if ta is VInt else _numeric(a)
    y = b.r if tb is VReal else b.i if tb is VInt else _numeric(b)
    if y == 0:
        raise DivisionByZeroError("division by zero")
    if isinstance(x, int) and isinstance(y, int):
        return _int(x // y)
    return _real(x / y)


def _mod(a: Value, b: Value) -> Value:
    x, y = _numeric(a), _numeric(b)
    if not (isinstance(x, int) and isinstance(y, int)):
        raise DomainError("mod is defined on integers only")
    if y == 0:
        raise DivisionByZeroError("modulo by zero")
    return _int(x % y)


def _pow(a: Value, b: Value) -> Value:
    ta, tb = type(a), type(b)
    x = a.r if ta is VReal else a.i if ta is VInt else _numeric(a)
    y = b.r if tb is VReal else b.i if tb is VInt else _numeric(b)
    try:
        if isinstance(x, int) and isinstance(y, int):
            if y < 0:
                if x == 0:
                    raise DivisionByZeroError("zero to a negative power")
                return _real(float(x) ** y)
            return _int(x**y)
        if x == 0 and y < 0:
            raise DivisionByZeroError("zero to a negative power")
        if x < 0 and not float(y).is_integer():
            raise DomainError("negative base with fractional exponent")
        return _real(float(x) ** float(y))
    except OverflowError:
        # where `mul` gives an infinity, Python's float power raises
        raise DomainError("pow result is out of the float range") from None


def _min(a: Value, b: Value) -> Value:
    ta, tb = type(a), type(b)
    x = a.r if ta is VReal else a.i if ta is VInt else _numeric(a)
    y = b.r if tb is VReal else b.i if tb is VInt else _numeric(b)
    return a if x <= y else b


def _max(a: Value, b: Value) -> Value:
    ta, tb = type(a), type(b)
    x = a.r if ta is VReal else a.i if ta is VInt else _numeric(a)
    y = b.r if tb is VReal else b.i if tb is VInt else _numeric(b)
    return a if x >= y else b


def _eq(a: Value, b: Value) -> VBool:
    ta, tb = type(a), type(b)
    if (ta is VInt or ta is VReal) and (tb is VInt or tb is VReal):
        r = (a.r if ta is VReal else a.i) == (b.r if tb is VReal else b.i)
    elif isinstance(a, (VInt, VReal)) and isinstance(b, (VInt, VReal)):
        r = _numeric(a) == _numeric(b)
    elif value_kind(a) != value_kind(b):
        raise DomainError(f"cannot compare {a} with {b}")
    else:
        r = a == b
    return _TRUE if r is True else _FALSE if r is False else VBool(r)


def _and(a: Value, b: Value) -> VBool:
    return VBool(_as_bool(a) and _as_bool(b))


def _or(a: Value, b: Value) -> VBool:
    return VBool(_as_bool(a) or _as_bool(b))


_BINARY: dict[str, Callable[[Value, Value], Value]] = {
    "add": _arithmetic(operator.add),
    "sub": _arithmetic(operator.sub),
    "mul": _arithmetic(operator.mul),
    "div": _div,
    "mod": _mod,
    "pow": _pow,
    "min": _min,
    "max": _max,
    "lt": _comparison(operator.lt),
    "le": _comparison(operator.le),
    "eq": _eq,
    "and": _and,
    "or": _or,
}


def _apply_binary(op: str, a: Value, b: Value) -> Value:
    """`op` on two values, both already evaluated."""
    apply = _BINARY.get(op)
    if apply is None:
        # an unknown operator still checks its operands as a number would
        _numeric(a)
        _numeric(b)
        raise DomainError(f"unknown binary operator {op!r}")
    return apply(a, b)


def eval_expr(
    e: Expr,
    env: Mapping[VarRef, Value],
    interventions: "InterventionSet" = None,
    rng=None,
) -> Value:
    """Evaluate an expression against an environment and an intervention set.

    Deterministic: identical arguments always produce the identical value.
    `rng` is only consulted by `RandomBernoulli` nodes; omitting it makes any
    draw an error, which keeps reparameterized models honest.

    Each node class evaluates itself with `_eval(env, iv, rng)`, where `iv`
    is the intervention set as a plain dict from variable to forced value.
    Callers that evaluate many trees under one set build that dict once and
    call `_eval` on the roots directly.
    """
    iv = dict(interventions.assignments) if interventions is not None else {}
    return e._eval(env, iv, rng)


# ---------------------------------------------------------------------------
# Construction helpers (used heavily by the model zoo and tests)
# ---------------------------------------------------------------------------


def bconst(b: bool) -> Const:
    return Const(VBool(b))


def iconst(i: int) -> Const:
    return Const(VInt(i))


def rconst(r: float) -> Const:
    return Const(VReal(float(r)))


def sconst(name: str) -> Const:
    return Const(VSym(name))


def ref(name: str, index: Optional[int] = None) -> Ref:
    return Ref(VarRef(name, index))


def band(*xs: Expr) -> Expr:
    out = xs[0]
    for x in xs[1:]:
        out = Binary("and", out, x)
    return out


def bor(*xs: Expr) -> Expr:
    out = xs[0]
    for x in xs[1:]:
        out = Binary("or", out, x)
    return out


def bnot(x: Expr) -> Expr:
    return Unary("not", x)

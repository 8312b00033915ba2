"""Column-at-a-time evaluation of case lists.

The verifier and the rewrite gate evaluate the same trees on every case of a
case list.  Here a tree is walked once per case list: each node yields a
column, one raw Python value per case, where `bool`, `int`, `float` and `str`
stand for `VBool`, `VInt`, `VReal` and `VSym`.  Interpreting a node is then
paid once per list rather than once per case, as in the column-at-a-time
execution of MonetDB/X100 (Boncz, Zukowski, Nes, CIDR 2005).

Case lists are built in column form from the start: `Cases` holds a column
per input and a table of the values each case's intervention set forces,
and `Tiling` makes those columns per block for an exhaustive check by
repeating each input row and tiling the sets.  A case as the per-case loop
reads it, an assignment and an intervention set, is made only on demand.

Every node keeps the per-case semantics of its `_eval`:

- `and`/`or` short-circuit per case, and the branches of `IfThenElse` and
  `CaseList` and the fallbacks of `InterventionValue` and
  `MaxIntervenedIndex` are evaluated only on the cases that take them;
- each element goes through the arithmetic of `expr._apply_binary`: `div`
  of two ints floors, `min`/`max` return an operand unchanged, and a real
  zero keeps its sign;
- kinds are tested with `type(x) is ...`, never `isinstance`, since a Python
  `bool` is an `int`;
- every input and endogenous value is checked against its domain where
  `eval_scm` and `eval_sub_scm` check it;
- a cluster of a consolidated model sees only its own atoms, minus the
  atoms on marginalized variables.

Columns only ever establish that two models agree.  Wherever a case would
raise, or a value or node has no exact column form, evaluation raises, and
the caller runs its per-case loop instead, which stays the one definition of
counterexamples and errors.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Callable, Iterable, Mapping, Optional, Sequence

from . import expr as E
from .consolidation import Ccv, CcvCluster, ConsolidatedScm
from .expr import Value, VarRef
from .scm import POWER_SET, InterventionSet, InterventionSpace, Scm

Column = list


class Unsupported(Exception):
    """A column cannot follow the per-case evaluation exactly here."""


_NUMBERS = frozenset((int, float))
_INTS = frozenset((int,))
_BOOLS = frozenset((bool,))
_STRS = frozenset((str,))
_VALUE_OF = {bool: E.VBool, int: E.VInt, float: E.VReal, str: E.VSym}


def raw(v: Value):
    """The column entry for a value; raises when its payload has another type."""
    t = type(v)
    if t is E.VReal:
        x = v.r
        ok = type(x) is float
    elif t is E.VInt:
        x = v.i
        ok = type(x) is int
    elif t is E.VBool:
        x = v.b
        ok = type(x) is bool
    elif t is E.VSym:
        x = v.name
        ok = type(x) is str
    else:
        ok = False
    if not ok:
        raise Unsupported(f"no column form for {v!r}")
    return x


def value(x) -> Value:
    """The value a column entry stands for."""
    return _VALUE_OF[type(x)](x)


def entries(values: Sequence[Value]) -> tuple[list, bool]:
    """The column entries of `values` and False; or, when some value has no
    column form, the values themselves and True."""
    try:
        return [raw(v) for v in values], False
    except Unsupported:
        return list(values), True


def _forced_of(sets: Sequence[InterventionSet]) -> dict[VarRef, Column]:
    """The forced table of one intervention set per case."""
    n = len(sets)
    forced: dict[VarRef, Column] = {}
    for k, iv in enumerate(sets):
        for var, val in iv.assignments:
            col = forced.get(var)
            if col is None:
                col = forced[var] = [None] * n
            elif col[k] is not None:
                raise Unsupported(f"two atoms on {var} in one set")
            col[k] = raw(val)
    return forced


def _forced_of_picks(atoms, picks: Sequence[list]) -> dict[VarRef, Column]:
    """The forced table of power-set `picks` over atom rows that are sorted
    and one per variable."""
    forced: dict[VarRef, Column] = {}
    for (var, vals), col in zip(atoms, zip(*picks)):
        if any(col):
            table = [None] + [raw(v) for v in vals]
            forced[var] = [table[k] for k in col]
    return forced


def _table(build, *args):
    """`build(*args)`, or the `Unsupported` it raised."""
    try:
        return build(*args)
    except Unsupported as exc:
        return exc


class _Indexed:
    """`lst[k]` is `lst.case(k)`, and `lst[i:j]` a list of cases."""

    __slots__ = ()

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self.case(i) for i in range(len(self))[k]]
        return self.case(range(len(self))[k])


class Cases(_Indexed):
    """A case list in column form.

    `input(var)` is an input's column, one raw entry per case.  `forced[var]`
    holds, per case, the raw value the case's intervention set forces onto
    `var`, or None; only variables intervened on in some case have an entry.
    `case(k)` is the k-th case as the per-case loop reads it, an assignment
    of the inputs and an intervention set, made when asked for; the values
    equal the ones drawn or enumerated, in value and in type.

    An input whose values have no exact column form keeps the values
    themselves, for `case` to hand out, and `input` raises for it; `forced`
    raises when the sets have no exact column form.

    The inputs are given as `{var: entries(...)}` in declared order.
    """

    __slots__ = ("every", "_inputs", "_exact", "_forced", "_set")

    def __init__(
        self,
        inputs: Mapping[VarRef, tuple[list, bool]],
        forced,
        set_at: Callable[[int], InterventionSet],
        n: int,
    ):
        self.every = range(n)
        self._inputs = {v: col for v, (col, _) in inputs.items()}
        self._exact = frozenset(v for v, (_, exact) in inputs.items() if exact)
        self._forced = forced
        self._set = set_at

    @staticmethod
    def listed(inputs: Mapping[VarRef, tuple[list, bool]], sets: Sequence[InterventionSet]) -> "Cases":
        """Cases whose k-th intervention set is `sets[k]`."""
        return Cases(inputs, _table(_forced_of, sets), sets.__getitem__, len(sets))

    @staticmethod
    def drawn(inputs: Mapping[VarRef, tuple[list, bool]], space: InterventionSpace, picks: list) -> "Cases":
        """Cases whose k-th intervention set is `space.member(picks[k])`."""
        if space.mode == POWER_SET and space.atoms_canonical:
            forced = _table(_forced_of_picks, space.atoms, picks)
            return Cases(inputs, forced, lambda k: space.member(picks[k]), len(picks))
        # members of a listed space are shared; a power set whose atoms must be
        # sorted makes its sets now, and raises where `sample` would
        return Cases.listed(inputs, [space.member(p) for p in picks])

    @property
    def forced(self) -> dict[VarRef, Column]:
        if isinstance(self._forced, Unsupported):
            raise self._forced
        return self._forced

    def input(self, var: VarRef) -> Column:
        if var in self._exact:
            raise Unsupported(f"no column form for the values of {var}")
        return self._inputs[var]

    def case(self, k: int) -> tuple[dict[VarRef, Value], InterventionSet]:
        exact = self._exact
        env = {v: col[k] if v in exact else value(col[k]) for v, col in self._inputs.items()}
        return env, self._set(k)

    def block(self, lo: int, hi: int) -> "Cases":
        """Cases lo..hi-1 of this list."""
        if lo == 0 and hi == len(self.every):
            return self
        forced = self._forced
        if not isinstance(forced, Unsupported):
            forced = {v: col[lo:hi] for v, col in forced.items()}
        inputs = {v: (col[lo:hi], v in self._exact) for v, col in self._inputs.items()}
        return Cases(inputs, forced, lambda k: self._set(lo + k), hi - lo)

    def __len__(self) -> int:
        return len(self.every)


class Tiling(_Indexed):
    """The case list of an exhaustive check: each input row, in turn, with
    every intervention set, rows outermost.

    `case(k)` hands out the row's own assignment and the set.  Columns are
    made per block of cases, by repeating each row's entries once per set
    and tiling the sets once per row.
    """

    __slots__ = ("_envs", "_sets", "_inputs")

    def __init__(
        self, names: Sequence[VarRef], envs: Sequence[Mapping[VarRef, Value]], sets: Sequence[InterventionSet]
    ):
        self._envs = envs
        self._sets = list(sets)
        self._inputs = {v: entries([env[v] for env in envs]) for v in names}

    def __len__(self) -> int:
        return len(self._envs) * len(self._sets)

    def case(self, k: int) -> tuple[Mapping[VarRef, Value], InterventionSet]:
        per = len(self._sets)
        return self._envs[k // per], self._sets[k % per]

    def block(self, lo: int, hi: int) -> Cases:
        """Cases lo..hi-1 in column form."""
        per = len(self._sets)
        first = lo // per if per else 0
        rows = -(-hi // per) - first if per else 0
        skip, n = lo - first * per, hi - lo
        inputs = {}
        for v, (col, exact) in self._inputs.items():
            repeated = list(chain.from_iterable(repeat(x, per) for x in col[first : first + rows]))
            inputs[v] = (repeated[skip : skip + n], exact)
        return Cases.listed(inputs, (self._sets * rows)[skip : skip + n])


class _Scope:
    """What one model's trees read: the columns computed so far, and the
    atoms visible to them (all of them when `visible` is None)."""

    __slots__ = ("every", "env", "forced")

    def __init__(self, cases: Cases, env: dict, visible: Optional[frozenset] = None):
        self.every = cases.every
        self.env = env
        if visible is None:
            self.forced = cases.forced
        else:
            self.forced = {v: col for v, col in cases.forced.items() if v in visible}


# ---------------------------------------------------------------------------
# Nodes
# ---------------------------------------------------------------------------
#
# Each handler takes the scope, the node and the selection: the full range
# of cases (`scope.every`) or a list of case positions in increasing order.
# It returns the node's column over the selection.  Children are evaluated
# through `_COLUMN` inline, so a tree level costs one Python frame, as it
# does for `_eval`.


def _split(sel, cond: Column):
    """The cases of `sel` whose entry in `cond` is true, and the others."""
    yes = [i for i, c in zip(sel, cond) if c is True]
    if len(yes) == len(cond):
        return sel, ()
    no = [i for i, c in zip(sel, cond) if c is False]
    if len(yes) + len(no) != len(cond):
        raise Unsupported("expected a boolean")
    if not yes:
        return (), sel
    return yes, no


def _merge(cond, yes: Column, no: Column) -> Column:
    """One entry per case of `cond` (any truthy sequence), taken in order
    from `yes` where it is true and from `no` where it is not."""
    take_yes, take_no = iter(yes).__next__, iter(no).__next__
    return [take_yes() if c else take_no() for c in cond]


def _fill(col: Column, holes: Column) -> Column:
    """`col` with its None entries taken, in order, from `holes`."""
    take = iter(holes).__next__
    return [take() if x is None else x for x in col]


def _numbers(a: Column, b: Column) -> None:
    if not (_NUMBERS.issuperset(map(type, a)) and _NUMBERS.issuperset(map(type, b))):
        raise Unsupported("expected a number")


def _const(s, e, sel):
    return [raw(e.value)] * len(sel)


def _ref(s, e, sel):
    col = s.env[e.var]
    return col if sel is s.every else [col[i] for i in sel]


def _unary(s, e, sel):
    x = e.operand
    col = _COLUMN[type(x)](s, x, sel)
    if e.op == "not":
        if not _BOOLS.issuperset(map(type, col)):
            raise Unsupported("expected a boolean")
        return [not v for v in col]
    if e.op == "neg":
        if not _NUMBERS.issuperset(map(type, col)):
            raise Unsupported("expected a number")
        return [-v for v in col]
    raise Unsupported(f"unknown unary operator {e.op!r}")


def _binary(s, e, sel):
    op, left, right = e.op, e.left, e.right
    a = _COLUMN[type(left)](s, left, sel)
    if op == "and" or op == "or":
        yes, no = _split(sel, a)
        # the cases whose value the right operand decides
        rest = yes if op == "and" else no
        if not rest:
            return a
        b = _COLUMN[type(right)](s, right, rest)
        if not _BOOLS.issuperset(map(type, b)):
            raise Unsupported("expected a boolean")
        if len(rest) == len(a):
            return b
        take = iter(b).__next__
        if op == "and":
            return [take() if c else False for c in a]
        return [True if c else take() for c in a]
    return _BINARY[op](a, _COLUMN[type(right)](s, right, sel))


def _if(s, e, sel):
    cond, then, orelse = e.cond, e.then, e.orelse
    c = _COLUMN[type(cond)](s, cond, sel)
    yes, no = _split(sel, c)
    if not no:
        return _COLUMN[type(then)](s, then, sel)
    if not yes:
        return _COLUMN[type(orelse)](s, orelse, sel)
    # a byte per case, not a list entry, is held while the branches run:
    # the else branch of an intervention ladder nests one level per stone
    mask = bytes(c)
    del c
    return _merge(mask, _COLUMN[type(then)](s, then, yes), _COLUMN[type(orelse)](s, orelse, no))


def _case_list(s, e, sel):
    parts = []
    rest = sel
    for guard, arm in e.cases:
        if not rest:
            break
        yes, rest = _split(rest, _COLUMN[type(guard)](s, guard, rest))
        if yes:
            parts.append((yes, _COLUMN[type(arm)](s, arm, yes)))
    if rest:
        d = e.default
        parts.append((rest, _COLUMN[type(d)](s, d, rest)))
    if len(parts) == 1:
        return parts[0][1]
    out = [None] * len(sel)
    position = dict(zip(sel, range(len(sel))))
    for cases, col in parts:
        for i, v in zip(cases, col):
            out[position[i]] = v
    return out


def _is_intervened(s, e, sel):
    f = s.forced.get(e.var)
    if f is None:
        return [False] * len(sel)
    if sel is s.every:
        return [x is not None for x in f]
    return [f[i] is not None for i in sel]


def _intervention_value(s, e, sel):
    f = s.forced.get(e.var)
    if f is None:
        got, missing = None, sel
    else:
        got = f if sel is s.every else [f[i] for i in sel]
        missing = [i for i, x in zip(sel, got) if x is None]
        if not missing:
            return got
    fb = e.fallback
    if fb is None:
        raise Unsupported(f"{e.var} is not intervened on")
    col = _COLUMN[type(fb)](s, fb, missing)
    return col if got is None else _fill(got, col)


def _family(s, e, lo=None, hi=None) -> list[tuple[int, Column]]:
    """(index, forced column) of the visible atoms on `e`'s family with an
    index in lo..hi, largest index first."""
    out = []
    for var, col in s.forced.items():
        i = var.index
        if var.name != e.family or i is None or (lo is not None and i < lo) or (hi is not None and i > hi):
            continue
        out.append((i, col))
    out.sort(key=lambda p: -p[0])
    return out


def _exists(s, e, sel):
    cols = [col for _, col in _family(s, e, e.lo, e.hi)]
    want = e.value
    if want is None:
        return [any(col[i] is not None for col in cols) for i in sel]
    return [any(col[i] is not None and value(col[i]) == want for col in cols) for i in sel]


def _max_index(s, e, sel):
    upper = e.upper
    bounds = _COLUMN[type(upper)](s, upper, sel)
    if not _INTS.issuperset(map(type, bounds)):
        raise Unsupported("max_intervened_index bound must be an integer")
    family = _family(s, e)
    out = []
    for i, bound in zip(sel, bounds):
        best = None
        for index, col in family:
            if index <= bound and col[i] is not None:
                best = index
                break
        out.append(best)
    missing = [i for i, x in zip(sel, out) if x is None]
    if not missing:
        return out
    d = e.default
    return _fill(out, _COLUMN[type(d)](s, d, missing))


def _draw(s, e, sel):
    raise Unsupported("draws need a random source")


# ---------------------------------------------------------------------------
# Operators: `expr._apply_binary` on each pair of entries
# ---------------------------------------------------------------------------


def _add(a, b):
    _numbers(a, b)
    return [x + y for x, y in zip(a, b)]


def _sub(a, b):
    _numbers(a, b)
    return [x - y for x, y in zip(a, b)]


def _mul(a, b):
    _numbers(a, b)
    return [x * y for x, y in zip(a, b)]


def _div(a, b):
    _numbers(a, b)
    if 0 in b:
        raise Unsupported("division by zero")
    return [x // y if type(x) is int and type(y) is int else x / y for x, y in zip(a, b)]


def _mod(a, b):
    if not (_INTS.issuperset(map(type, a)) and _INTS.issuperset(map(type, b))):
        raise Unsupported("mod is defined on integers only")
    if 0 in b:
        raise Unsupported("modulo by zero")
    return [x % y for x, y in zip(a, b)]


def _power(x, y):
    if type(x) is int and type(y) is int:
        if y < 0:
            if x == 0:
                raise Unsupported("zero to a negative power")
            return float(x) ** y
        return x**y
    if x == 0 and y < 0:
        raise Unsupported("zero to a negative power")
    if x < 0 and not float(y).is_integer():
        raise Unsupported("negative base with fractional exponent")
    return float(x) ** float(y)


def _pow(a, b):
    _numbers(a, b)
    return [_power(x, y) for x, y in zip(a, b)]


def _min(a, b):
    _numbers(a, b)
    return [x if x <= y else y for x, y in zip(a, b)]


def _max(a, b):
    _numbers(a, b)
    return [x if x >= y else y for x, y in zip(a, b)]


def _lt(a, b):
    _numbers(a, b)
    return [x < y for x, y in zip(a, b)]


def _le(a, b):
    _numbers(a, b)
    return [x <= y for x, y in zip(a, b)]


def _equal(x, y) -> bool:
    if type(x) in _NUMBERS and type(y) in _NUMBERS:
        return x == y
    if type(x) is not type(y):
        raise Unsupported(f"cannot compare {x!r} with {y!r}")
    return x == y


def _eq(a, b):
    ta, tb = set(map(type, a)), set(map(type, b))
    if ta | tb <= _NUMBERS or (len(ta) == 1 and ta == tb):
        return [x == y for x, y in zip(a, b)]
    return [_equal(x, y) for x, y in zip(a, b)]


_BINARY = {
    "add": _add,
    "sub": _sub,
    "mul": _mul,
    "div": _div,
    "mod": _mod,
    "pow": _pow,
    "min": _min,
    "max": _max,
    "lt": _lt,
    "le": _le,
    "eq": _eq,
}

_COLUMN = {
    E.Const: _const,
    E.Ref: _ref,
    E.Unary: _unary,
    E.Binary: _binary,
    E.IfThenElse: _if,
    E.CaseList: _case_list,
    E.IsIntervened: _is_intervened,
    E.InterventionValue: _intervention_value,
    E.ExistsIntervention: _exists,
    E.MaxIntervenedIndex: _max_index,
    E.RandomBernoulli: _draw,
}


def column(e: E.Expr, cases: Cases, env: dict, visible: Optional[frozenset] = None) -> Column:
    """One tree over every case; `env` maps each readable variable to its column."""
    return _COLUMN[type(e)](_Scope(cases, env, visible), e, cases.every)


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


def _check_domain(dom: E.Domain, col: Column) -> None:
    """Raise unless every entry lies in the domain, as `Domain._contains` says."""
    t = type(dom)
    if t is E.RealDomain:
        types = set(map(type, col))
        if not types <= _NUMBERS:
            raise Unsupported("outside a real domain")
        if int in types:
            col = [float(x) for x in col]  # as `_contains` converts an int carrier
        if dom.lo is not None and any(r < dom.lo for r in col):
            raise Unsupported("below the domain")
        if dom.hi is not None and any(r > dom.hi for r in col):
            raise Unsupported("above the domain")
    elif t is E.IntDomain:
        if not _INTS.issuperset(map(type, col)):
            raise Unsupported("outside an integer domain")
        if col and (min(col) < dom.lo or max(col) > dom.hi):
            raise Unsupported("outside the integer range")
    elif t is E.BoolDomain:
        if not _BOOLS.issuperset(map(type, col)):
            raise Unsupported("outside the boolean domain")
    elif t is E.SymDomain:
        if not (_STRS.issuperset(map(type, col)) and set(dom.symbols).issuperset(col)):
            raise Unsupported("outside a symbolic domain")
    else:
        raise Unsupported(f"unknown domain {dom!r}")


def _inputs(rows: Iterable, cases: Cases) -> dict[VarRef, Column]:
    """The input columns, each checked against its row's domain."""
    out = {}
    for row in rows:
        col = cases.input(row.var)
        _check_domain(row.domain, col)
        out[row.var] = col
    return out


def _equations(scope: _Scope, rows: Sequence[tuple], keep: Optional[frozenset] = None) -> dict:
    """`(var, domain, equation)` rows in order, as `eval_scm` runs them: a
    forced value replaces the equation, and every value is checked against
    the domain.  With `keep`, only those columns are returned, and a column
    leaves the scope after the last equation that reads it."""
    env, every = scope.env, scope.every
    last_reader: dict[VarRef, int] = {}
    if keep is not None:
        for k, (_, _, tree) in enumerate(rows):
            for v in E.free_refs(tree):
                last_reader[v] = k
    done_after: dict[int, list] = {}
    for v, k in last_reader.items():
        if v not in keep:
            done_after.setdefault(k, []).append(v)
    out = {}
    for k, (var, dom, tree) in enumerate(rows):
        f = scope.forced.get(var)
        if f is None:
            col = _COLUMN[type(tree)](scope, tree, every)
        else:
            free = [i for i, x in enumerate(f) if x is None]
            col = _fill(f, _COLUMN[type(tree)](scope, tree, free)) if free else f
        _check_domain(dom, col)
        if keep is None or var in keep:
            out[var] = col
        if keep is None or var in last_reader:
            env[var] = col
        for v in done_after.get(k, ()):
            env.pop(v, None)
    return out


def scm_columns(scm: Scm, cases: Cases, keep: frozenset) -> dict[VarRef, Column]:
    """The columns `eval_scm` gives the variables in `keep`."""
    scope = _Scope(cases, _inputs(scm.exogenous, cases))
    rows = [(row.var, row.domain, row.equation) for row in scm.endogenous]
    return _equations(scope, rows, keep)


def ccv_columns(
    ccv: Ccv,
    cases: Cases,
    inputs: Mapping[VarRef, Column],
    visible: Optional[frozenset] = None,
    before: Optional[tuple[Ccv, Mapping[VarRef, Column]]] = None,
) -> dict[VarRef, Column]:
    """The columns `eval_ccv` gives every target, in target order.

    With `before` = (another Ccv over the same cases, its columns), a leading
    run of targets whose trees are `before`'s own objects, at the same
    positions, takes `before`'s columns unevaluated.
    """
    env = dict(inputs)
    scope = _Scope(cases, env, visible)
    out = {}
    reusing = before is not None
    for pos, t in enumerate(ccv.targets):
        tree = ccv.rho[t]
        if reusing:
            prior, prior_cols = before
            reusing = pos < len(prior.targets) and prior.targets[pos] == t and prior.rho[t] is tree
        col = prior_cols[t] if reusing else _COLUMN[type(tree)](scope, tree, scope.every)
        env[t] = out[t] = col
    return out


def consolidated_columns(cons: ConsolidatedScm, cases: Cases, keep: Iterable[VarRef]) -> dict[VarRef, Column]:
    """The columns `eval_consolidated` gives the variables in `keep`."""
    acc = _inputs(cons.exogenous, cases)
    dropped = cons.dropped_atom_vars
    for cluster in cons.clusters:
        sub = cluster.sub
        inputs = {v: acc[v] for v in sub.local_exogenous}
        visible = sub.cluster - dropped
        if isinstance(cluster, CcvCluster):
            acc.update(ccv_columns(cluster.ccv, cases, inputs, visible))
        else:
            rows = [(v, sub.domains[v], sub.equations[v]) for v in sub.order]
            acc.update(_equations(_Scope(cases, inputs, visible), rows))
    return {v: acc[v] for v in keep}


# ---------------------------------------------------------------------------
# Comparing
# ---------------------------------------------------------------------------


def _disagree(x, y, tolerance: float) -> bool:
    """Whether `verification._first_mismatch` would flag this pair."""
    if type(x) is float or type(y) is float:
        if type(x) not in _NUMBERS or type(y) not in _NUMBERS:
            return True
        return abs(float(x) - float(y)) > tolerance
    return type(x) is not type(y) or x != y


def _identical(a: Column, b: Column) -> bool:
    """Equal entry by entry, in value and in type."""
    return a == b and list(map(type, a)) == list(map(type, b))


def first_disagreement(
    targets: Sequence[VarRef],
    want: Mapping[VarRef, Column],
    got: Mapping[VarRef, Column],
    tolerance: float,
    lo: int,
    hi: int,
) -> tuple[Optional[int], float]:
    """The first position in lo..hi-1 where some target's entries disagree,
    as `verification._first_mismatch` judges a case, or None; and the largest
    real deviation before that position."""
    stop = hi
    # entries equal in value and type deviate by 0, or by NaN, which never
    # counts; with a negative tolerance a deviation of 0 disagrees
    exact = tolerance >= 0
    differ = []
    for t in targets:
        a, b = want[t], got[t]
        if exact and (a is b or _identical(a[lo:hi], b[lo:hi])):
            continue
        differ.append((a, b))
        for k in range(lo, stop):
            if _disagree(a[k], b[k], tolerance):
                stop = k
                break
    worst = 0.0
    for a, b in differ:
        for x, y in zip(a[lo:stop], b[lo:stop]):
            if type(x) is float or type(y) is float:
                dev = abs(float(x) - float(y))
                if dev > worst:
                    worst = dev
    return (stop if stop < hi else None), worst

"""Column-at-a-time evaluation of case lists.

The verifier and the rewrite gate evaluate the same trees on every case of a
case list.  Here a tree is walked once per case list: each node yields a
column, a numpy array with one entry per case, and its children are
evaluated only on the cases that reach them, named by a selection vector of
case positions.  Interpreting a node is then paid once per list rather than
once per case, as in the column-at-a-time execution of MonetDB/X100 (Boncz,
Zukowski, Nes, CIDR 2005), and most nodes cost a few numpy calls (Harris et
al., "Array programming with NumPy", Nature 2020).

A column is one of four things, each standing for one kind of value:

- `bool`, `float64`: `VBool`, `VReal`;
- `int64`: `VInt`, with every entry within +-2**53 (`INT_LIMIT`), so that no
  sum, difference or quotient of two such columns overflows and every entry
  converts to a float exactly, as Python compares and mixes ints with
  floats; a product is checked before it is taken;
- `object` with `str` entries: `VSym`.  Only `eq`, the branch merges and the
  `SymDomain` check read these, with numpy's elementwise comparisons.

Nothing else has a column: an int past +-2**53, a column that mixes kinds,
such as the int and real branches of a conditional, a numeric operator on
symbols and `pow` with an int base all raise `Unsupported`.

Case lists are built in column form from the start: `Cases` holds a column
per input and a table of what each case's intervention set forces, and
`Tiling`, an exhaustive check's list, works each case out from its position:
input columns are taken at the mixed-radix digits of the case's input row,
and a canonical space's sets and forced table come from the set's position,
with no set listed in advance.  A case as the per-case loop reads it, an
assignment and an intervention set of Python values, is made only on
demand.

Every node keeps the per-case semantics of its `_eval`:

- `and`/`or` short-circuit per case, and the branches of `IfThenElse` and
  `CaseList` and the fallbacks of `InterventionValue` and
  `MaxIntervenedIndex` are evaluated only on the cases that take them;
- each entry goes through the arithmetic of `expr._apply_binary`: `div`
  of two ints floors, `mod` takes the sign of the divisor, `min`/`max`
  return an operand unchanged, a real zero keeps its sign and a real `pow`
  is computed entry by entry with Python's own operator, since a
  vectorized power may differ in the last bit;
- a `bool` is never a number, and comparing it with one raises;
- a model is run from its `scm.Plan`, as the per-case evaluators run it:
  every input and every row with a domain is checked against that domain,
  and each cluster sees only the atoms its plan gives it, so a cluster of a
  consolidated model sees its own atoms, minus those on marginalized
  variables.

Columns only ever establish that two models agree.  Wherever a case would
raise, or a value or node has no exact column form, evaluation raises, and
the caller runs its per-case loop instead, which stays the one definition of
counterexamples and errors.  Kernels run with numpy's floating-point
warnings off, as Python's float arithmetic gives infinities and NaNs
silently.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from . import expr as E
from .expr import Value, VarRef
from .scm import POWER_SET, InterventionSet, InterventionSpace, Plan

Column = np.ndarray

#: the largest magnitude of an `int64` column entry
INT_LIMIT = 2**53
_INT64_MAX = 2**63 - 1

_BOOL = np.dtype(bool)
_INT = np.dtype(np.int64)
_REAL = np.dtype(np.float64)
_OBJECT = np.dtype(object)


class Unsupported(Exception):
    """A column cannot follow the per-case evaluation exactly here."""


_VALUE_OF = {bool: E.VBool, int: E.VInt, float: E.VReal, str: E.VSym}
_DTYPE_OF = {bool: _BOOL, int: _INT, float: _REAL, str: _OBJECT}


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
    """The value a Python column entry stands for."""
    return _VALUE_OF[type(x)](x)


def same_value(a: Value, b: Value) -> bool:
    """Whether two values are of the same class with the same payload bits,
    so that 0.0 is not -0.0: the per-case form of `_same_bits`.  Unlike a
    column entry, a NaN never counts, nor does a payload of another type
    than its class holds.  Python matches a NaN inside a container by object
    identity (`VReal(x) == VReal(x)` holds, and `x in (x,)`), so per case two
    NaNs with the same bits can still be told apart; a column's NaN has
    nothing but its bits."""
    try:
        x, y = raw(a), raw(b)
    except Unsupported:
        return False
    if type(a) is not type(b) or x != y:
        return False
    # equal floats differ in their bits only as 0.0 and -0.0
    return type(x) is not float or x != 0.0 or math.copysign(1.0, x) == math.copysign(1.0, y)


def _kind(xs: list) -> np.dtype:
    """The dtype of the column of the Python entries `xs`; raises when they
    mix kinds or hold an int past +-INT_LIMIT.  No entry: an `object` column."""
    kinds = set(map(type, xs))
    if not kinds:
        return _OBJECT
    kind = _DTYPE_OF.get(kinds.pop()) if len(kinds) == 1 else None
    if kind is None or kind is _INT and not (-INT_LIMIT <= min(xs) and max(xs) <= INT_LIMIT):
        raise Unsupported("no column holds entries of two kinds or ints past +-2**53")
    return kind


def column_of(xs: list) -> Column:
    """The column of the Python entries `xs`."""
    return np.array(xs, _kind(xs))


def _repeat(x, n: int) -> Column:
    """A column of `n` copies of the Python entry `x`."""
    out = np.empty(n, _kind([x]))
    out.fill(x)
    return out


def entries(values: Sequence[Value]) -> tuple[Column | list, bool]:
    """The column of `values` and False; or, when some value has no column
    form, the values themselves and True."""
    try:
        return column_of([raw(v) for v in values]), False
    except Unsupported:
        return list(values), True


# ---------------------------------------------------------------------------
# Case lists
# ---------------------------------------------------------------------------
#
# A forced table gives, for each variable that some case's set intervenes
# on, `(mask, values, codes, atoms)`: per case, whether the set forces the
# variable, the raw value it forces (any entry where it does not), and the
# position in `atoms` of the forced value, 0 for none.  `atoms` holds the
# forced `Value` objects themselves, after a None at position 0, so a node
# that compares them with a value compares what the per-case loop compares.


class _Table:
    """A forced table kept as 2-D arrays, one row per variable, so taking or
    slicing its cases costs a few numpy calls whatever the number of
    variables.  `values` holds, per dtype, the rows of the variables whose
    forced values have that dtype and their values; `rows` maps each
    variable to its entry, views of its rows.
    """

    __slots__ = ("atoms", "codes", "values", "rows")

    def __init__(self, atoms: Mapping[VarRef, tuple], codes: np.ndarray, values: list):
        self.atoms, self.codes, self.values = atoms, codes, values
        mask = codes != 0
        by_row = [None] * len(atoms)
        for at, vals in values:
            for r, row in zip(at.tolist(), vals):
                by_row[r] = row
        self.rows = {v: (mask[r], by_row[r], codes[r], a) for r, (v, a) in enumerate(atoms.items())}

    @staticmethod
    def of(atoms: Mapping[VarRef, tuple], codes: np.ndarray) -> "_Table":
        """The table of `codes` (variables x cases) into `atoms`."""
        groups: dict = {}
        for r, vals in enumerate(atoms.values()):
            raws = [raw(a) for a in vals[1:]]
            at, flat, offsets = groups.setdefault(_kind(raws), ([], [], []))
            at.append(r)
            offsets.append(len(flat))
            flat += raws[:1] + raws  # a filler entry, where nothing is forced
        values = []
        for kind, (at, flat, offsets) in groups.items():
            at, flat, offsets = np.array(at), np.array(flat, kind), np.array(offsets)[:, None]
            values.append((at, np.take(flat, offsets + codes[at])))
        return _Table(atoms, codes, values)

    def taken(self, at) -> "_Table":
        """The table whose k-th case is case `at[k]` of this one; `at` is an
        index array or a slice."""
        return _Table(self.atoms, self.codes[:, at], [(rows, vals[:, at]) for rows, vals in self.values])


def _code_dtype(count: int):
    return np.uint8 if count <= 0xFF else np.uint16 if count <= 0xFFFF else np.intp


def _forced_of(sets: Sequence[InterventionSet]) -> _Table:
    """The forced table of one intervention set per case."""
    rows: dict[VarRef, tuple[int, list, dict]] = {}
    where: tuple[list, list, list] = ([], [], [])
    last: dict[VarRef, int] = {}
    for k, iv in enumerate(sets):
        for var, val in iv.assignments:
            if last.get(var) == k:
                raise Unsupported(f"two atoms on {var} in one set")
            last[var] = k
            row = rows.get(var)
            if row is None:
                row = rows[var] = (len(rows), [None], {})
            r, atoms, at = row
            # by identity: atoms that compare equal may still differ, as a
            # real zero's sign does
            j = at.get(id(val))
            if j is None:
                j = at[id(val)] = len(atoms)
                atoms.append(val)
            where[0].append(r)
            where[1].append(k)
            where[2].append(j)
    codes = np.zeros((len(rows), len(sets)), _code_dtype(max((len(a) for _, a, _ in rows.values()), default=1)))
    codes[where[0], where[1]] = where[2]
    return _Table.of({var: tuple(atoms) for var, (_, atoms, _) in rows.items()}, codes)


def _forced_of_picks(atoms, picks: np.ndarray) -> _Table:
    """The forced table of power-set `picks` (cases x atom rows) over atom
    rows that are sorted and one per variable."""
    used = np.flatnonzero(np.count_nonzero(picks, axis=0)).tolist()
    width = max((len(atoms[j][1]) + 1 for j in used), default=1)
    codes = picks[:, used].T.astype(_code_dtype(width))
    return _Table.of({atoms[j][0]: (None,) + tuple(atoms[j][1]) for j in used}, codes)


def _forced_of_space(space: InterventionSpace) -> _Table:
    """The forced table of every member of a canonical singleton or power-set
    space, in `enumerate`'s order, worked out from the positions alone: no
    set is made.  A power set's row r holds the digits `(k // stride_r) %
    radix_r` of each position k, a singleton space's one code per set; rows
    without values are left out, as `_forced_of_picks` leaves them."""
    rows = [(v, vals) for v, vals in space.atoms if vals]
    n = space.size()
    codes = np.zeros((len(rows), n), _code_dtype(max((len(vals) + 1 for _, vals in rows), default=1)))
    if space.mode == POWER_SET:
        i, stride = 0, n
        for _, vals in space.atoms:
            radix = 1 + len(vals)
            stride //= radix
            if vals:
                # each code in turn for `stride` positions, over and over
                codes[i].reshape(-1, radix, stride)[:] = np.arange(radix, dtype=codes.dtype)[:, None]
                i += 1
    elif rows:
        # after the empty set, each row's values in turn, codes 1, 2, ...
        sizes = np.array([len(vals) for _, vals in rows])
        at = np.arange(1, n)
        codes[np.repeat(np.arange(len(rows)), sizes), at] = at - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return _Table.of({v: (None,) + tuple(vals) for v, vals in rows}, codes)


def _taken(set_at: Callable[[int], InterventionSet], table, at: np.ndarray):
    """The forced table, or the `Unsupported` it raised, of the cases whose
    k-th set is `set_at(at[k])`, given the forced table of all the sets or
    the `Unsupported` it raised: then a set no case takes does not count."""
    if isinstance(table, Unsupported):
        return _table(_forced_of, [set_at(i) for i in at.tolist()])
    return table.taken(at)


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

    `input(var)` is an input's column.  `forced[var]` is the forced-table
    entry of `var`; only variables intervened on in some case have one.
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
        inputs: Mapping[VarRef, tuple[Column | list, bool]],
        forced,
        set_at: Callable[[int], InterventionSet],
        n: int,
    ):
        #: the selection of every case
        self.every = np.arange(n)
        self._inputs = {v: col for v, (col, _) in inputs.items()}
        self._exact = frozenset(v for v, (_, exact) in inputs.items() if exact)
        self._forced = forced
        self._set = set_at

    @staticmethod
    def listed(inputs: Mapping[VarRef, tuple], sets: Sequence[InterventionSet]) -> "Cases":
        """Cases whose k-th intervention set is `sets[k]`."""
        return Cases(inputs, _table(_forced_of, sets), sets.__getitem__, len(sets))

    @staticmethod
    def drawn(inputs: Mapping[VarRef, tuple], space: InterventionSpace, picks: np.ndarray) -> "Cases":
        """Cases whose k-th intervention set is `space.member(picks[k])`."""
        if space.mode == POWER_SET and space.atoms_canonical:
            forced = _table(_forced_of_picks, space.atoms, picks)
            return Cases(inputs, forced, lambda k: space.member(picks[k].tolist()), len(picks))
        # members of a listed space are shared; a power set whose atoms must be
        # sorted makes its sets now, and raises where `sample` would
        return Cases.listed(inputs, [space.member(p) for p in picks.tolist()])

    @property
    def forced(self) -> dict[VarRef, tuple]:
        if isinstance(self._forced, Unsupported):
            raise self._forced
        return self._forced.rows

    def input(self, var: VarRef) -> Column:
        if var in self._exact:
            raise Unsupported(f"no column form for the values of {var}")
        return self._inputs[var]

    def case(self, k: int) -> tuple[dict[VarRef, Value], InterventionSet]:
        exact = self._exact
        env = {v: col[k] if v in exact else value(col.item(k)) for v, col in self._inputs.items()}
        return env, self._set(k)

    def block(self, lo: int, hi: int) -> "Cases":
        """Cases lo..hi-1 of this list."""
        if lo == 0 and hi == len(self.every):
            return self
        forced = self._forced
        if not isinstance(forced, Unsupported):
            forced = forced.taken(slice(lo, hi))
        inputs = {v: (col[lo:hi], v in self._exact) for v, col in self._inputs.items()}
        return Cases(inputs, forced, lambda k: self._set(lo + k), hi - lo)

    def __len__(self) -> int:
        return len(self.every)


def _by_repr(support: Sequence[Value]) -> tuple[list[Value], Optional[np.ndarray]]:
    """`support` stably sorted by `repr`; and, where two of its values share
    a repr, the rank of each sorted value's repr among the distinct ones."""
    if len(support) < 2:
        return list(support), None
    keyed = sorted((repr(x), i) for i, x in enumerate(support))
    keys = [key for key, _ in keyed]
    values = [support[i] for _, i in keyed]
    if len(set(keys)) == len(keys):
        return values, None
    return values, np.cumsum([0] + [a != b for a, b in zip(keys, keys[1:])])


class Tiling(_Indexed):
    """The case list of an exhaustive check: each input row, in turn, with
    every intervention set, rows outermost.

    Nothing is listed in advance; case k is worked out from k.  Each input
    has one column, its support sorted by `repr` (stably), and input row r
    takes from each column the digit of r in their mixed radix, first input
    outermost (Knuth, TAOCP 4A, 7.2.1.1).  That lists the rows in the order
    of their reprs, input by input.  Where a support holds two values with
    the same repr, rows that tie on every repr keep that mixed-radix order,
    and one stable `np.lexsort` over per-input repr ranks puts each row in
    its place.  The sets are a sequence, or a canonical singleton or power-set
    space read by position (`InterventionSpace.member_at`), whose forced
    table is worked out from the positions (`_forced_of_space`).

    `case(k)` makes the row's assignment and the set when asked.  Columns are
    made per block of cases, by taking each input's column at the digits of
    the block's rows, and the forced table at the block's set positions.
    """

    __slots__ = ("_inputs", "_order", "_rows", "_per", "_set", "_forced")

    def __init__(
        self,
        supports: Sequence[tuple[VarRef, Sequence[Value]]],
        sets: Sequence[InterventionSet] | InterventionSpace,
    ):
        #: per input: its variable, sorted support, `entries` of it, stride and radix
        self._inputs = []
        ranks = []
        rows = 1
        for var, support in reversed(supports):
            values, rank = _by_repr(support)
            self._inputs.append((var, values, entries(values), max(rows, 1), max(len(values), 1)))
            ranks.append(rank)
            rows *= len(values)
        self._inputs.reverse()
        self._rows = rows
        #: the mixed-radix row at each row position, where ties reorder them
        self._order = None
        if any(rank is not None for rank in ranks):
            every = np.arange(rows)
            # last input first, as `np.lexsort` takes its last key as the
            # primary one; a digit is its own rank where no two reprs tie
            keys = []
            for rank, (*_, stride, radix) in zip(ranks, reversed(self._inputs)):
                digits = every // stride % radix
                keys.append(digits if rank is None else rank[digits])
            self._order = np.lexsort(keys)
        if isinstance(sets, InterventionSpace):
            self._per, self._set = sets.size(), sets.member_at
            self._forced = _table(_forced_of_space, sets)
        else:
            sets = list(sets)
            self._per, self._set = len(sets), sets.__getitem__
            self._forced = _table(_forced_of, sets)

    def __len__(self) -> int:
        return self._rows * self._per

    def case(self, k: int) -> tuple[dict[VarRef, Value], InterventionSet]:
        row, at = divmod(k, self._per)
        if self._order is not None:
            row = int(self._order[row])
        return {var: values[row // stride % radix] for var, values, _, stride, radix in self._inputs}, self._set(at)

    def block(self, lo: int, hi: int) -> Cases:
        """Cases lo..hi-1 in column form."""
        set_at, per = self._set, max(self._per, 1)
        rows, at = np.divmod(np.arange(lo, hi), per)
        # the block's distinct rows, and each case's place among them
        first = lo // per
        runs = np.arange(first, (hi - 1) // per + 1) if hi > lo else rows
        place = None if per == 1 else rows - first
        if self._order is not None:
            runs = self._order[runs]
        inputs = {}
        for var, values, (col, noform), stride, radix in self._inputs:
            if radix == 1:
                inputs[var] = (values * (hi - lo) if noform else np.repeat(col, hi - lo), noform)
                continue
            digits = runs // stride % radix
            if noform:
                picked = [values[d] for d in digits.tolist()]
                inputs[var] = (picked if place is None else [picked[p] for p in place.tolist()], True)
            else:
                picked = col[digits]
                inputs[var] = (picked if place is None else picked[place], False)
        forced = _taken(set_at, self._forced, at)
        return Cases(inputs, forced, lambda k: set_at((lo + k) % per), hi - lo)


class _Scope:
    """What one model's trees read: the columns computed so far, the atoms
    visible to them (all of them when `visible` is None), and the constant
    columns made so far, by entry and length."""

    __slots__ = ("every", "env", "forced", "consts")

    def __init__(self, cases: Cases, env: dict, visible: Optional[frozenset] = None):
        self.every = cases.every
        self.env = env
        if visible is None:
            self.forced = cases.forced
        else:
            self.forced = {v: f for v, f in cases.forced.items() if v in visible}
        self.consts: dict[tuple, Column] = {}


def _quiet(walk):
    """`walk` with numpy's floating-point warnings off."""

    @functools.wraps(walk)
    def run(*args, **kwargs):
        with np.errstate(all="ignore"):
            return walk(*args, **kwargs)

    return run


# ---------------------------------------------------------------------------
# Nodes
# ---------------------------------------------------------------------------
#
# Each handler takes the scope, the node and the selection: the full range
# of cases (`scope.every`) or an array of case positions in increasing order.
# It returns the node's column over the selection, and never writes into a
# column it was given or handed out.  Children are evaluated through
# `_COLUMN` inline, so a tree level costs one Python frame, as it does for
# `_eval`, except along an else-chain, which is walked in one loop
# (`_branch`), so a chain of any length costs one frame.


def _bools(col: Column) -> Column:
    """`col`; raises unless it is a boolean column."""
    if col.dtype is not _BOOL:
        raise Unsupported("expected a boolean")
    return col


def _same_kind(a: Column, b: Column) -> np.dtype:
    """The dtype of both columns; raises when they differ, since no column
    holds entries of two kinds."""
    if a.dtype is not b.dtype:
        raise Unsupported("no column holds entries of two kinds")
    return a.dtype


def _const(s, e, sel):
    x = raw(e.value)
    # a real zero's sign tells it from the other zero, which compares equal
    key = (type(x), x, math.copysign(1.0, x) if type(x) is float else None, len(sel))
    col = s.consts.get(key)
    if col is None:
        col = s.consts[key] = _repeat(x, len(sel))
    return col


def _ref(s, e, sel):
    col = s.env[e.var]
    return col if sel is s.every else col[sel]


def _unary(s, e, sel):
    x = e.operand
    col = _COLUMN[type(x)](s, x, sel)
    if e.op == "not":
        return ~_bools(col)
    if e.op == "neg" and (col.dtype is _INT or col.dtype is _REAL):
        return -col
    raise Unsupported(f"no column for {e.op!r} of a {col.dtype} column")


def _binary(s, e, sel):
    op, left, right = e.op, e.left, e.right
    a = _COLUMN[type(left)](s, left, sel)
    if op == "and" or op == "or":
        a = _bools(a)
        # the cases whose value the right operand decides
        decide = a if op == "and" else ~a
        count = np.count_nonzero(decide)
        if not count:
            return a
        if count == len(sel):
            return _bools(_COLUMN[type(right)](s, right, sel))
        out = a.copy()
        out[decide] = _bools(_COLUMN[type(right)](s, right, sel[decide]))
        return out
    return _BINARY[op](a, _COLUMN[type(right)](s, right, sel))


def _branch(s, e, sel):
    # an else-chain of `IfThenElse` and `CaseList` nodes is one case list,
    # its guards in the order `_eval` tries them, walked in a loop: each
    # guard on the cases still open, each arm on the cases that take it, and
    # one column assembled from the parts at the end, so no frame or
    # selection is held per rung.  `at` names the open cases within `sel`:
    # all of them (None), a mask after the first split, then their positions
    parts = []
    rest, at = sel, None
    pairs, i = (), 0  # the guards and arms of a case list down the chain
    while True:
        if i < len(pairs):
            guard, arm = pairs[i]
            i += 1
        elif type(e) is E.IfThenElse:
            guard, arm, e = e.cond, e.then, e.orelse
        elif type(e) is E.CaseList:
            pairs, i, e = e.cases, 0, e.default
            continue
        else:
            break
        g = _bools(_COLUMN[type(guard)](s, guard, rest))
        count = np.count_nonzero(g)
        if count == len(rest):
            # every open case takes this arm: it reads `rest` itself
            e = arm
            break
        if count:
            if at is not None and at.dtype is _BOOL:
                at = np.flatnonzero(at)
            parts.append((g if at is None else at[g], _COLUMN[type(arm)](s, arm, rest[g])))
            open_ = ~g
            rest = rest[open_]
            at = open_ if at is None else at[open_]
    col = _COLUMN[type(e)](s, e, rest)
    if not parts:
        return col
    out = np.empty(len(sel), col.dtype)
    out[at] = col
    for where, part in parts:
        _same_kind(out, part)
        out[where] = part
    return out


def _fill(col: Column, holes: Column, fill: Column) -> Column:
    """`col` with its entries where `holes` is true taken, in order, from `fill`."""
    _same_kind(col, fill)
    out = col.copy()
    out[holes] = fill
    return out


def _is_intervened(s, e, sel):
    f = s.forced.get(e.var)
    if f is None:
        return np.zeros(len(sel), _BOOL)
    return f[0] if sel is s.every else f[0][sel]


def _intervention_value(s, e, sel):
    f = s.forced.get(e.var)
    if f is None:
        mask, forced = None, 0
    else:
        mask, got = (f[0], f[1]) if sel is s.every else (f[0][sel], f[1][sel])
        forced = np.count_nonzero(mask)
        if forced == len(sel):
            return got
    fb = e.fallback
    if fb is None:
        raise Unsupported(f"{e.var} is not intervened on")
    if not forced:
        return _COLUMN[type(fb)](s, fb, sel)
    holes = ~mask
    return _fill(got, holes, _COLUMN[type(fb)](s, fb, sel[holes]))


def _family(s, e, lo=None, hi=None) -> list[tuple[int, tuple]]:
    """(index, forced-table entry) of the visible atoms on `e`'s family with
    an index in lo..hi, largest index first."""
    out = []
    for var, f in s.forced.items():
        i = var.index
        if var.name != e.family or i is None or (lo is not None and i < lo) or (hi is not None and i > hi):
            continue
        out.append((i, f))
    out.sort(key=lambda p: -p[0])
    return out


def _exists(s, e, sel):
    want = e.value
    out = np.zeros(len(sel), _BOOL)
    for _, (mask, _, codes, atoms) in _family(s, e, e.lo, e.hi):
        if want is None:
            hit = mask
        else:
            hit = np.array([a is not None and a == want for a in atoms], _BOOL)[codes]
        out |= hit if sel is s.every else hit[sel]
    return out


def _max_index(s, e, sel):
    upper = e.upper
    bounds = _COLUMN[type(upper)](s, upper, sel)
    if bounds.dtype is not _INT:
        raise Unsupported("expected an integer bound for max_intervened_index")
    family = _family(s, e)
    if any(abs(i) > INT_LIMIT for i, _ in family):
        raise Unsupported("an index past +-2**53")
    best = np.zeros(len(sel), _INT)
    found = np.zeros(len(sel), _BOOL)
    for index, (mask, _, _, _) in family:
        hit = (mask if sel is s.every else mask[sel]) & (bounds >= index) & ~found
        best[hit] = index
        found |= hit
    missing = ~found
    count = np.count_nonzero(missing)
    if not count:
        return best
    d = e.default
    if count == len(sel):
        return _COLUMN[type(d)](s, d, sel)
    return _fill(best, missing, _COLUMN[type(d)](s, d, sel[missing]))


def _draw(s, e, sel):
    raise Unsupported("draws need a random source")


# ---------------------------------------------------------------------------
# Operators: `expr._apply_binary` on each pair of entries
# ---------------------------------------------------------------------------
#
# A kernel takes two columns of equal length and runs numpy on them where
# their dtypes give every entry its per-case result; otherwise it raises.


def _typed(a: Column, b: Column) -> bool:
    """Whether both columns are int64 or float64."""
    return (a.dtype is _INT or a.dtype is _REAL) and (b.dtype is _INT or b.dtype is _REAL)


def _numbers(a: Column, b: Column) -> None:
    """Raise unless both columns are int64 or float64."""
    if not _typed(a, b):
        raise Unsupported("expected numbers")


def _largest(col: Column) -> int:
    """The largest magnitude in an int64 column, 0 when it is empty."""
    return int(np.abs(col).max(initial=0))


def _in_range(col: Column) -> Column:
    """`col`; raises when it is an int64 result that left +-INT_LIMIT."""
    if col.dtype is _INT and _largest(col) > INT_LIMIT:
        raise Unsupported("an int past +-2**53")
    return col


def _add(a, b):
    _numbers(a, b)
    return _in_range(a + b)


def _sub(a, b):
    _numbers(a, b)
    return _in_range(a - b)


def _mul(a, b):
    _numbers(a, b)
    # two int64 factors may overflow: their largest product is checked first
    if a.dtype is _INT and b.dtype is _INT and _largest(a) * _largest(b) > _INT64_MAX:
        raise Unsupported("an int past +-2**53")
    return _in_range(a * b)


def _div(a, b):
    _numbers(a, b)
    if np.count_nonzero(b == 0):
        raise Unsupported("division by zero")
    return a // b if a.dtype is _INT and b.dtype is _INT else a / b


def _mod(a, b):
    if a.dtype is not _INT or b.dtype is not _INT:
        raise Unsupported("mod is defined on integers only")
    if np.count_nonzero(b == 0):
        raise Unsupported("modulo by zero")
    return a % b


def _pow(a, b):
    if a.dtype is not _REAL or (b.dtype is not _INT and b.dtype is not _REAL):
        raise Unsupported("pow needs a real base and a number exponent")
    # `expr._pow`'s guards on the whole column; a non-finite exponent is not
    # an integer, as `float.is_integer` says
    if np.count_nonzero((a == 0) & (b < 0)):
        raise Unsupported("zero to a negative power")
    if b.dtype is _REAL and np.count_nonzero((a < 0) & ~(np.isfinite(b) & (np.floor(b) == b))):
        raise Unsupported("negative base with fractional exponent")
    # Python's own float power, which `np.power` and `x * x` differ from in
    # the last bit; a float raised to an int converts the int to a float
    # first, exactly within +-2**53
    return np.array(list(map(operator.pow, a.tolist(), b.tolist())), _REAL)


def _min(a, b):
    # an operand unchanged, so both of one kind; `x if x <= y else y`,
    # which np.minimum is not where there is a NaN
    _same_kind(a, b)
    _numbers(a, b)
    return np.where(a <= b, a, b)


def _max(a, b):
    _same_kind(a, b)
    _numbers(a, b)
    return np.where(a >= b, a, b)


def _lt(a, b):
    _numbers(a, b)
    return a < b


def _le(a, b):
    _numbers(a, b)
    return a <= b


def _eq(a, b):
    # numbers compare with numbers, booleans and symbols within their kind
    if _typed(a, b) or a.dtype is b.dtype:
        return a == b
    raise Unsupported("cannot compare entries of two kinds")


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
    E.IfThenElse: _branch,
    E.CaseList: _branch,
    E.IsIntervened: _is_intervened,
    E.InterventionValue: _intervention_value,
    E.ExistsIntervention: _exists,
    E.MaxIntervenedIndex: _max_index,
    E.RandomBernoulli: _draw,
}


@_quiet
def column(e: E.Expr, cases: Cases, env: dict, visible: Optional[frozenset] = None) -> Column:
    """One tree over every case; `env` maps each readable variable to its column."""
    return _COLUMN[type(e)](_Scope(cases, env, visible), e, cases.every)


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


def _check_domain(dom: E.Domain, col: Column) -> None:
    """Raise unless every entry lies in the domain, as `Domain._contains` says."""
    t = type(dom)
    kind = col.dtype
    if not len(col):
        return
    if t is E.RealDomain:
        # an int carrier compares as a float, as `_contains` converts it
        if kind is not _INT and kind is not _REAL:
            raise Unsupported("expected a number")
        if dom.lo is not None and np.count_nonzero(col < dom.lo):
            raise Unsupported("below the domain")
        if dom.hi is not None and np.count_nonzero(col > dom.hi):
            raise Unsupported("above the domain")
    elif t is E.IntDomain:
        if kind is not _INT:
            raise Unsupported("expected an integer")
        if int(col.min()) < dom.lo or int(col.max()) > dom.hi:
            raise Unsupported("outside the integer range")
    elif t is E.BoolDomain:
        _bools(col)
    elif t is E.SymDomain:
        if kind is not _OBJECT or not set(dom.symbols).issuperset(col.tolist()):
            raise Unsupported("outside a symbolic domain")
    else:
        raise Unsupported(f"unknown domain {dom!r}")


@_quiet
def plan_columns(
    plan: Plan,
    cases: Cases,
    keep: Optional[frozenset] = None,
    before: Optional[tuple[Sequence[tuple], Mapping[VarRef, Column]]] = None,
) -> dict[VarRef, Column]:
    """The columns `evaluation.run_plan` gives the outputs, or the variables
    in `keep`.  With `keep`, only the columns still to be read are held: a
    column leaves its cluster after the last row that reads it.

    With `before` = (the rows of another plan with the same inputs and
    atoms, and their columns over the same cases), a row takes `before`'s
    column unevaluated when `before`'s row at the same position has the same
    variable and domain and is the same tree object, and every earlier row
    is clean.  A row is clean when it was taken so, or when the column it
    evaluates to is `before`'s bit for bit (`_same_bits`); it then hands on
    `before`'s column object itself.  A clean prefix means the same inputs
    as `before` had, so the tree gives the same column.
    """
    acc = {}
    for var, dom in plan.inputs:
        acc[var] = col = cases.input(var)
        if dom is not None:
            _check_domain(dom, col)
    prior, prior_cols = before if before is not None else ((), {})
    pos, clean = 0, True
    for (inputs, visible, rows), steps in zip(plan.clusters, plan.schedule(keep)):
        scope = _Scope(cases, {v: acc[v] for v in inputs}, visible)
        env = scope.env
        for row, (read, kept, done) in zip(rows, steps):
            var = row[0]
            old = None
            if clean and pos < len(prior) and prior[pos][0] == var and prior[pos][1] == row[1]:
                old = prior_cols.get(var)
            if old is not None and prior[pos][2] is row[2]:
                col = old
            else:
                col = _row_column(scope, row)
                if old is not None and _same_bits(col, old):
                    col = old
                else:
                    clean = False
            pos += 1
            if read:
                env[var] = col
            if kept:
                acc[var] = col
            for v in done:
                env.pop(v, None)
    return {v: acc[v] for v in (plan.outputs if keep is None else keep)}


def _row_column(scope: _Scope, row: tuple) -> Column:
    """The column of one plan row `(var, domain, tree)`: where the row has a
    domain, the forced values where its variable is intervened on, and the
    whole column checked against the domain."""
    var, dom, tree = row
    every = scope.every
    if dom is None:
        return _COLUMN[type(tree)](scope, tree, every)
    f = scope.forced.get(var)
    forced = 0 if f is None else np.count_nonzero(f[0])
    if not forced:
        col = _COLUMN[type(tree)](scope, tree, every)
    elif forced == len(every):
        col = f[1]
    else:
        free = ~f[0]
        col = _fill(f[1], free, _COLUMN[type(tree)](scope, tree, every[free]))
    _check_domain(dom, col)
    return col


# ---------------------------------------------------------------------------
# Comparing
# ---------------------------------------------------------------------------


def _same_bits(a: Column, b: Column) -> bool:
    """Equal entry by entry in kind and in bits, so that 0.0 is not -0.0 and
    a NaN matches only a NaN with the same payload (per case, `same_value`)."""
    if a.dtype is not b.dtype or a.shape != b.shape:
        return False
    if a.dtype is _REAL:
        a, b = a.view(np.int64), b.view(np.int64)
    return np.count_nonzero(a != b) == 0


def _first_disagreeing(a: Column, b: Column, tolerance: float) -> Optional[int]:
    """The first position where `verification._first_mismatch` would flag
    the pair, or None."""
    if _typed(a, b) and (a.dtype is _REAL or b.dtype is _REAL):
        bad = np.abs(a - b) > tolerance
    elif a.dtype is b.dtype:
        bad = a != b
    else:
        # a boolean or a symbol against another kind
        return 0 if len(a) else None
    at = np.flatnonzero(bad)
    return int(at[0]) if len(at) else None


def _deviation(a: Column, b: Column) -> float:
    """The largest real deviation between the pairs where one entry is a
    real, NaN never counting; 0 when there is none.  A real against a
    boolean or a symbol disagrees at once, so it is never measured."""
    if not _typed(a, b) or (a.dtype is _INT and b.dtype is _INT):
        return 0.0
    dev = np.abs(a - b)
    dev = dev[dev > 0]
    return float(dev.max()) if len(dev) else 0.0


@_quiet
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
    # entries with the same bits deviate by 0, or by NaN, which never
    # counts; with a negative tolerance a deviation of 0 disagrees
    exact = tolerance >= 0
    differ = []
    for t in targets:
        a, b = want[t], got[t]
        if exact and a is b:
            continue
        a, b = a[lo:hi], b[lo:hi]
        if exact and _same_bits(a, b):
            continue
        differ.append((a, b))
        bad = _first_disagreeing(a[: stop - lo], b[: stop - lo], tolerance)
        if bad is not None:
            stop = lo + bad
    worst = 0.0
    for a, b in differ:
        worst = max(worst, _deviation(a[: stop - lo], b[: stop - lo]))
    return (stop if stop < hi else None), worst

"""A plan's per-case evaluation as generated Python code.

`compile_plan` turns a `scm.Plan` into the source of one Python function,
`(u, interventions, rng=None) -> outputs`, and builds it with `compile()`.
The function computes what `evaluation.run_plan` computes, raises what it
raises, with the same messages, in the same order, and draws from `rng` in
the same order; it only leaves out the one method call per node that
`run_plan`'s tree walk pays:

- each input is checked for presence, then against its domain, in order;
- each row with a domain takes its forced value where its cluster sees an
  atom on its variable, else evaluates its tree, and is checked against the
  domain; a row without a domain is evaluated as it stands;
- which variables a cluster has bound, and which atoms it sees, are known
  when the code is built, so a `Ref` to a variable the cluster has not bound
  becomes a `raise UnboundRefError` at the point where `_eval` would raise,
  and an atom the cluster does not see is never looked up;
- each node is written as one statement that stores its value in a local.
  Operators call the functions of `expr._BINARY` directly, and conditions
  test the shared `_TRUE`/`_FALSE` by identity first.  `and`, `or`,
  `IfThenElse`, `CaseList` and an `InterventionValue`'s fallback evaluate
  their operands only where `_eval` does.  In the branch an
  `IsIntervened(v)` test takes, `InterventionValue(v)` reads `iv[v]`
  outright, since the set holds `v`;
- a composite sub-expression that recurs is computed once per query (lazy
  common-subexpression elimination), below;
- a node kind without a template here (`ExistsIntervention`,
  `MaxIntervenedIndex`) calls its own `_eval` on a dict of the values bound
  at that point and the atoms its cluster sees.

The trees are walked with an explicit stack, so a tree of any depth builds.
Lazy operands nest their statements in `if` blocks, and an `IfThenElse`
whose `orelse` is another `IfThenElse` on an `IsIntervened` (or on another
condition that needs no statement) continues as an `elif`.  Python's parser
refuses code nested past 100 levels, and its compiler recurses once per
level, so an operand that would nest past `_MAX_NESTING` levels, `elif`s
counted, moves into a helper function that takes the values it reads as
arguments and returns the operand's value.

An `IsIntervened` ladder is an else-chain, down `IfThenElse`s and through
case lists, of `IsIntervened` guards on distinct variables the cluster
sees.  One of `_LADDER_DISPATCH` rungs or more is not tested rung by rung:
one pass over `iv` looks each of the set's variables up in a dict from
variable to rung number, built with the code, and keeps the smallest; a
binary search on that number leads to the first rung whose variable the
set holds, or to the chain below the ladder.  A query then pays one lookup
per atom of the set and about log2 of the rungs in tests, where the
`elif` chain paid a test per rung up to the one taken.

Consolidation inlines a mechanism once per consumer, so equal subtrees
recur within and across the rows of a cluster.  Each node gets a value
number: a small int keyed on its class, its fields other than its children
(a constant's value by class, payload type and bits, so `0.0` and `-0.0`
differ) and its children's numbers (`_shared`, one postorder walk).  Rows
whose composite nodes have cached hashes that are all distinct repeat
nothing, and skip the numbering (`_may_repeat`).  A composite number that
the rows reach along two edges or more is written as one memo local
`m<k>`.  Its first use in a function writes the node into it.  A later use
reads it outright where an earlier use runs whenever it does (it sits in
the same block or in one around it), and else writes the node behind an
`if m<k> is _UNSET:` test.  The value of an equal subtree depends only on
the values it reads, which do not change once bound, and on the atoms its
cluster sees, so the first use to run computes what every later one would;
a first use that raises ends the query, as the tree walk would.  A subtree
that draws is evaluated at each use and never shared.  Clusters and helper
functions share nothing across their boundaries, and neither do the rows on
either side of one that binds a variable again.  A plan that repeats
nothing gets the source it got without memo locals.

Building costs about 10 µs per node, so `Plan.compiled` builds the code on
first use, for the plans that run on many cases (`eval_scm`,
`eval_consolidated`).  One-shot plans keep `run_plan`.
"""

from __future__ import annotations

import struct
import textwrap
from typing import Callable

from . import expr as E
from .errors import DomainError, NonDeterministicModelError, UnboundRefError

#: deepest `if` nesting, `elif`s counted, before an operand moves into a
#: helper; the parser's own limit is 100 levels of indentation, and the
#: functions sit two levels in
_MAX_NESTING = 90

#: fewest rungs of an `IsIntervened` ladder that dispatch on the set's
#: variables; a shorter ladder is an `elif` chain, which costs less up to
#: about this many rungs
_LADDER_DISPATCH = 12

_DRAW_MESSAGE = "model draws at evaluation time; reparameterize it or pass an rng"

#: the value of a memo local that no use has filled yet
_UNSET = object()


# -- value numbers -----------------------------------------------------------

_PAYLOAD = {E.VBool: "b", E.VInt: "i", E.VSym: "name", E.VReal: "r"}


def _exact(v):
    """A key that two values share only when they are of one class and hold
    payloads of one type with the same bits: `0.0` and `-0.0` differ, and
    so do NaNs with different payloads, where `==` would say otherwise.
    None (an `ExistsIntervention` on any value) is its own key."""
    if v is None:
        return None
    p = getattr(v, _PAYLOAD[type(v)])
    return type(v), type(p), struct.pack("<d", p) if isinstance(p, float) else p


#: per node class: its fields other than its children, as a key, and its
#: children in `E.children` order
_SHAPES = {
    E.Const: lambda e: ((E.Const, _exact(e.value)), ()),
    E.Ref: lambda e: ((E.Ref, e.var), ()),
    E.Unary: lambda e: ((E.Unary, e.op), (e.operand,)),
    E.Binary: lambda e: ((E.Binary, e.op), (e.left, e.right)),
    E.IfThenElse: lambda e: ((E.IfThenElse,), (e.cond, e.then, e.orelse)),
    E.CaseList: lambda e: ((E.CaseList, len(e.cases)), E.children(e)),
    E.IsIntervened: lambda e: ((E.IsIntervened, e.var), ()),
    E.InterventionValue: lambda e: ((E.InterventionValue, e.var), () if e.fallback is None else (e.fallback,)),
    E.ExistsIntervention: lambda e: (
        (E.ExistsIntervention, e.family, type(e.lo), e.lo, type(e.hi), e.hi, _exact(e.value)),
        (),
    ),
    E.MaxIntervenedIndex: lambda e: ((E.MaxIntervenedIndex, e.family), (e.upper, e.default)),
    E.RandomBernoulli: lambda e: ((E.RandomBernoulli,), (e.p,)),
}


#: node kinds that never have children, and those of them holding a value
_LEAVES = frozenset({E.Const, E.Ref, E.IsIntervened, E.ExistsIntervention})
_VALUED = (E.Const, E.ExistsIntervention)


def _may_repeat(rows) -> bool:
    """False only where no composite subtree of `rows` repeats: the hashes
    that the composite nodes reached have cached are all distinct.  Equal
    trees hash alike, so this rules a repeat out without numbering.  A node
    whose hash is not cached yet answers True, since working it out would
    recurse once per level, and so does a NaN, which hashes by identity:
    copies of one NaN would hash apart."""
    hashes: set[int] = set()
    for _, _, tree in rows:
        stack = [tree]
        while stack:
            e = stack.pop()
            t = type(e)
            if t in _LEAVES:
                if t in _VALUED and e.value is not None:
                    p = getattr(e.value, _PAYLOAD[type(e.value)])
                    if p != p:
                        return True
                continue
            kids = _SHAPES[type(e)](e)[1]
            if not kids:
                continue
            h = getattr(e, "_hash", None)
            if h is None or h in hashes:
                return True
            hashes.add(h)
            stack += kids
    return False


def _shared(rows) -> dict:
    """`{id(node): number}` for the composite nodes of `rows`' trees that
    the rows reach along two edges or more, where a node's number stands
    for its class, its other fields and its children's numbers.

    One postorder walk over an explicit stack numbers each node object
    once.  Each distinct number counts the edges to its children once, and
    each row one edge to its tree, so a subtree reached only through a
    repeated one is not counted twice.  A node that draws, or has a draw
    below it, is evaluated at each use: it is walked and takes a new
    number at each, and is never shared.  The children of a node that
    calls its own `_eval` are not counted, since the code never evaluates
    them apart.  Rows that `_may_repeat` clears are not numbered."""
    if not _may_repeat(rows):
        return {}
    numbers: dict[int, int] = {}
    keys: dict[tuple, int] = {}
    #: composite numbers without a draw: the edges that reach each
    edges: dict[int, int] = {}
    draws: set[int] = set()
    count = 0
    for _, _, tree in rows:
        stack = [tree]
        while stack:
            e = stack.pop()
            if type(e) is tuple:  # a node whose children are numbered
                e, head, kids = e
            else:
                n = numbers.get(id(e))
                if n is not None and n not in draws:
                    continue
                head, kids = _SHAPES[type(e)](e)
                if kids:
                    stack.append((e, head, kids))
                    stack.extend(kids)
                    continue
            if not kids:
                key = head
            else:
                below = [numbers[id(c)] for c in kids]
                if head[0] is E.RandomBernoulli or not draws.isdisjoint(below):
                    key = None
                else:
                    key = (*head, *below)
            n = keys.get(key)
            if n is None:
                n, count = count, count + 1
                if key is None:
                    draws.add(n)
                else:
                    keys[key] = n
                    if kids:
                        edges[n] = 0
                if kids and type(e) in _TEMPLATES:
                    for m in below:
                        if m in edges:
                            edges[m] += 1
            numbers[id(e)] = n
        n = numbers[id(tree)]
        if n in edges:
            edges[n] += 1
    shared = {n for n, k in edges.items() if k > 1}
    return {i: n for i, n in numbers.items() if n in shared} if shared else {}


def _runs(bound, rows):
    """`rows` cut after each row that binds a variable already bound,
    starting from `bound`: past the cut, a tree may read another value than
    an equal tree before it."""
    bound, start = set(bound), 0
    for k, (var, _, _) in enumerate(rows):
        if var in bound:
            yield rows[start : k + 1]
            start = k + 1
        bound.add(var)
    if start < len(rows):
        yield rows[start:]


class _Function:
    """One generated function: its lines, and the locals of the functions
    around it that it reads, which become its parameters.

    `blocks[d]` is the block that the lines written at depth `d` fall in.
    `memo` maps each value number written here to its memo local and the
    `(depth, block)` of each use that fills it; `unset` holds the memo
    locals that some use tests against `_UNSET`, which are set to it at
    line `start`."""

    __slots__ = ("name", "lines", "params", "blocks", "memo", "unset", "start")

    def __init__(self, name: str):
        self.name = name
        self.lines: list[str] = []
        self.params: dict[str, None] = {}
        self.blocks = [0, 0]
        self.memo: dict[int, tuple] = {}
        self.unset: dict[str, None] = {}
        self.start = 0


class _Builder:
    """Writes the source of one plan's function."""

    def __init__(self):
        self.namespace = {
            "_TRUE": E._TRUE,
            "_FALSE": E._FALSE,
            "_VBool": E.VBool,
            "_VInt": E.VInt,
            "_VReal": E.VReal,
            "_as_bool": E._as_bool,
            "_numeric": E._numeric,
            "_wrap_number": E._wrap_number,
            "_apply_binary": E._apply_binary,
            "_DomainError": DomainError,
            "_UnboundRefError": UnboundRefError,
            "_NonDeterministicModelError": NonDeterministicModelError,
            "_UNSET": _UNSET,
        }
        self.constants: dict[int, str] = {}
        self.locals: set[str] = set()
        self.count = 0
        self.opened = 0
        self.fn = _Function("plan")
        self.helpers: list[_Function] = []
        #: the cluster being built: variable -> the local holding its value,
        #: and the variables whose atoms it sees (None for all)
        self.scope: dict = {}
        self.visible = None
        #: the variables an enclosing `IsIntervened` test has found in `iv`
        #: on the path being written
        self.intervened: set = set()
        #: `_shared` of the rows being written, and the numbers whose memo
        #: local is being filled
        self.shared: dict = {}
        self.filling: set = set()

    # -- names ------------------------------------------------------------

    def const(self, obj) -> str:
        """The global name under which the code reads `obj` itself."""
        name = self.constants.get(id(obj))
        if name is None:
            name = self.constants[id(obj)] = f"k{len(self.constants)}"
            self.namespace[name] = obj
        return name

    def local(self, prefix: str = "t") -> str:
        self.count += 1
        name = f"{prefix}{self.count}"
        self.locals.add(name)
        return name

    def use(self, name: str) -> str:
        """`name` as read by the function being written: a local of an outer
        function becomes a parameter of a helper."""
        if name in self.locals and self.fn.name != "plan":
            self.fn.params[name] = None
        return name

    def line(self, depth: int, text: str) -> None:
        self.fn.lines.append("    " * depth + text)
        if text[-1] == ":":  # `if`, `elif`, `else` or `for`: a new block one level in
            blocks = self.fn.blocks
            del blocks[depth + 1 :]
            self.opened += 1
            blocks.append(self.opened)

    def sees(self, var) -> bool:
        return self.visible is None or var in self.visible

    def bound(self, var):
        """The local holding `var`'s value in this cluster, or None."""
        name = self.scope.get(var)
        return None if name is None else self.use(name)

    # -- conditions -------------------------------------------------------

    @staticmethod
    def truth(x: str) -> str:
        """The test `_eval` applies to a condition's value `x`."""
        return f"{x} is _TRUE or {x} is not _FALSE and _as_bool({x})"

    def pure_test(self, c):
        """The test of condition `c` when it needs no statement, else None."""
        t = type(c)
        if t is E.IsIntervened:
            return f"{self.const(c.var)} in iv" if self.sees(c.var) else "False"
        if t is E.Const:
            return self.truth(self.const(c.value))
        if t is E.Ref:
            x = self.bound(c.var)
            return None if x is None else self.truth(x)
        return None

    def test(self, c, depth: int, level: int):
        """Sub-generator: emits `c`'s statements, returns its test."""
        pure = self.pure_test(c)
        if pure is not None:
            return pure
        x = yield c, depth, level, None
        return self.truth(x)

    # -- the walk ---------------------------------------------------------

    def leaf(self, e, depth: int):
        """The operand of a node that needs no statement of its own, else None."""
        t = type(e)
        if t is E.Const:
            return self.const(e.value)
        if t is E.Ref:
            x = self.bound(e.var)
            if x is None:
                self.line(depth, f"raise _UnboundRefError({self.const(e.var)})")
                return "None"
            return x
        return None

    def value(self, e, depth: int, level: int, target=None) -> str:
        """Emits the statements of `e` at `depth` and returns the operand
        holding its value: `target` when given, else a leaf's own operand
        or a new local.

        Each node is a generator that yields `(child, depth, level, target)`
        for each operand it needs and gets the operand back; the stack below
        replaces recursion.  A shared child goes through its memo local
        (`memo`).  A child asked for at `_MAX_NESTING` levels or deeper is
        built in a helper function."""
        stack = []
        sent, request = None, (e, depth, level, target)
        while True:
            if request is not None:
                child, d, lvl, t = request
                x = self.leaf(child, d)
                filled = None
                if x is None and id(child) in self.shared:
                    x, filled, d, lvl, t = self.memo(child, d, lvl, t)
                if x is None:
                    spilled = None
                    if lvl >= _MAX_NESTING:
                        spilled = (self.fn, d, t)
                        self.fn = _Function(f"h{len(self.helpers) + 1}")
                        self.helpers.append(self.fn)
                        d, lvl, t = 1, 1, None
                    t = t or self.local()
                    stack.append((self.node(child, d, lvl, t), t, spilled, filled))
                    sent = None
                else:
                    if t is not None:
                        self.line(d, f"{t} = {x}")
                    if not stack:
                        return t or x
                    sent = t or x
            gen, t, spilled, filled = stack[-1]
            try:
                request = gen.send(sent)
            except StopIteration:
                stack.pop()
                request, sent = None, t if spilled is None else self.close_helper(spilled, t)
                if filled is not None:
                    sent = self.read_memo(*filled)
                if not stack:
                    return sent

    def memo(self, e, d: int, lvl: int, t):
        """A use of the shared node `e` at depth `d`: `(operand, None, ...)`
        where an earlier use in the same block or one around it has filled
        its memo local, else `(None, filled, d, lvl, target)`, to write `e`
        into its memo local at `d` and `lvl`.  The first use in a function
        writes it as it stands; a later one, behind an `is _UNSET` test.
        `e` itself, asked for again while it is written (a ladder moved
        into a helper), is written as it stands."""
        n = self.shared[id(e)]
        fn = self.fn
        if n in self.filling:
            return None, None, d, lvl, t
        entry = fn.memo.get(n)
        if entry is None:
            entry = fn.memo[n] = (self.local("m"), [])
        name, uses = entry
        guarded = bool(uses)
        if guarded:
            if any(du <= d and fn.blocks[du] == block for du, block in uses):
                return name, None, d, lvl, t
            self.line(d, f"if {name} is _UNSET:")
            fn.unset[name] = None
        uses.append((d, fn.blocks[d]))
        self.filling.add(n)
        return None, (n, name, d, t), d + guarded, lvl + guarded, name

    def read_memo(self, n: int, name: str, d: int, t) -> str:
        """Ends a use of a shared node: `t`, when the use asked for a
        target, set from the memo local `name`, else `name`."""
        self.filling.discard(n)
        if t is None:
            return name
        self.line(d, f"{t} = {name}")
        return t

    def share(self, rows) -> None:
        """Starts writing `rows`: their shared nodes, with no memo local
        filled yet."""
        self.shared = _shared(rows)
        self.fn.memo, self.fn.unset, self.fn.start = {}, {}, len(self.fn.lines)

    @staticmethod
    def declare(fn: _Function) -> None:
        """Sets `fn`'s memo locals that are tested against `_UNSET` to it,
        before the first of their uses."""
        if fn.unset:
            fn.lines.insert(fn.start, "    " + " = ".join(fn.unset) + " = _UNSET")

    def close_helper(self, spilled, result: str) -> str:
        """Ends the helper being written, which returns `result`, and calls
        it from the function it was split from, storing into the target it
        was asked for there."""
        helper = self.fn
        self.line(1, f"return {result}")
        self.declare(helper)
        self.fn, depth, t = spilled
        t = t or self.local()
        args = ", ".join(["iv", "rng"] + [self.use(p) for p in helper.params])
        self.line(depth, f"{t} = {helper.name}({args})")
        return t

    def node(self, e, d: int, lvl: int, t: str):
        return _TEMPLATES.get(type(e), _Builder.fallback)(self, e, d, lvl, t)

    # -- one template per node kind: a generator that stores into `t` -----

    def unary(self, e, d, lvl, t):
        if e.op == "not":
            x = yield e.operand, d, lvl, None
            self.line(d, f"{t} = _FALSE if {x} is _TRUE else _TRUE if {x} is _FALSE else _FALSE if _as_bool({x}) else _TRUE")
        elif e.op == "neg":
            x = yield e.operand, d, lvl, None
            self.line(d, f"{t} = _wrap_number(-_numeric({x}))")
        else:
            self.line(d, f"raise _DomainError({self.const(f'unknown unary operator {e.op!r}')})")

    def binary(self, e, d, lvl, t):
        op = e.op
        if op == "and" or op == "or":
            test = yield from self.test(e.left, d, lvl)
            self.line(d, f"if {test}:")
            if op == "or":
                self.line(d + 1, f"{t} = _TRUE")
                self.line(d, "else:")
            right = yield from self.test(e.right, d + 1, lvl + 1)
            self.line(d + 1, f"{t} = _TRUE if {right} else _FALSE")
            if op == "and":
                self.line(d, "else:")
                self.line(d + 1, f"{t} = _FALSE")
            return
        x = yield e.left, d, lvl, None
        y = yield e.right, d, lvl, None
        apply = E._BINARY.get(op)
        if apply is None:
            self.line(d, f"{t} = _apply_binary({self.const(op)}, {x}, {y})")
        else:
            self.line(d, f"{t} = {self.const(apply)}({x}, {y})")

    def guarded(self, cond):
        """The variable an `IsIntervened` condition tests, where the cluster
        sees it, else None."""
        return cond.var if type(cond) is E.IsIntervened and self.sees(cond.var) else None

    def taken(self, var, arm, d, lvl, t):
        """Sub-generator: emits `arm`, the branch taken where the condition
        holds.  Under an `IsIntervened(var)` test, `var` is in `iv`
        throughout it."""
        if var is None or var in self.intervened:
            yield arm, d, lvl, t
            return
        self.intervened.add(var)
        yield arm, d, lvl, t
        self.intervened.remove(var)

    def ladder(self, pairs, i, e, limit=None):
        """The `IsIntervened` ladder that starts with the guards `pairs[i:]`
        and goes on down the else-chain at `e`: `{var: arm}` in rung order,
        up to `limit` rungs, and the chain below it, as the guards
        `pairs[i:]` and then `e`.  It stops at any other guard, at a
        repeated variable and at a variable the cluster does not see."""
        rungs = {}
        while limit is None or len(rungs) < limit:
            if i < len(pairs):
                guard, arm = pairs[i]
            elif type(e) is E.IfThenElse:
                guard, arm = e.cond, e.then
            elif type(e) is E.CaseList:
                pairs, i, e = e.cases, 0, e.default
                continue
            else:
                break
            var = self.guarded(guard)
            if var is None or var in rungs:
                break
            rungs[var] = arm
            if i < len(pairs):
                i += 1
            else:
                e = e.orelse
        return rungs, pairs, i, e

    def long_ladder(self, pairs, i, e) -> bool:
        """Whether the ladder at `pairs[i:]`, then `e`, has enough rungs to
        dispatch."""
        return len(self.ladder(pairs, i, e, _LADDER_DISPATCH)[0]) == _LADDER_DISPATCH

    def dispatch(self, e, d, lvl, t):
        """Sub-generator: the ladder at the top of `e` by the first rung
        whose variable the set holds.  One pass over `iv` through a dict
        from variable to rung number keeps the smallest, and a binary search
        on it leads to that rung's arm, or to the chain below the ladder
        where there is none."""
        rungs, pairs, i, rest = self.ladder((), 0, e)
        if i < len(pairs):
            rest = E.CaseList(pairs[i:], rest)
        n = len(rungs)
        if lvl + n.bit_length() >= _MAX_NESTING:
            # the search would nest too deep here: a helper takes the ladder
            yield e, d, _MAX_NESTING, t
            return
        rung, atom, at = self.local(), self.local(), self.local()
        lookup = self.const({var: k for k, var in enumerate(rungs)}.get)
        self.line(d, f"{rung} = {n}")
        self.line(d, f"for {atom} in iv:")
        self.line(d + 1, f"{at} = {lookup}({atom}, {n})")
        self.line(d + 1, f"if {at} < {rung}:")
        self.line(d + 2, f"{rung} = {at}")
        yield from self.search([*rungs.items(), (None, rest)], 0, n + 1, rung, d, lvl, t)

    def search(self, arms, lo, hi, rung, d, lvl, t):
        """Sub-generator: emits `arms[lo:hi]`, each `(var, arm)`, by a binary
        search on the rung number in the local `rung`."""
        if hi - lo == 1:
            yield from self.taken(*arms[lo], d, lvl, t)
            return
        mid = (lo + hi) // 2
        self.line(d, f"if {rung} < {mid}:")
        yield from self.search(arms, lo, mid, rung, d + 1, lvl + 1, t)
        self.line(d, "else:")
        yield from self.search(arms, mid, hi, rung, d + 1, lvl + 1, t)

    def if_then_else(self, e, d, lvl, t):
        if self.long_ladder((), 0, e):
            yield from self.dispatch(e, d, lvl, t)
            return
        test = yield from self.test(e.cond, d, lvl)
        self.line(d, f"if {test}:")
        yield from self.taken(self.guarded(e.cond), e.then, d + 1, lvl + 1, t)
        e, lvl = e.orelse, lvl + 1
        while type(e) is E.IfThenElse and lvl + 1 < _MAX_NESTING:
            test = self.pure_test(e.cond)
            if test is None or self.long_ladder((), 0, e):
                break
            self.line(d, f"elif {test}:")
            yield from self.taken(self.guarded(e.cond), e.then, d + 1, lvl + 1, t)
            e, lvl = e.orelse, lvl + 1
        self.line(d, "else:")
        # at the limit, the rest of a chain moves into one helper, not each
        # branch of its next `if` into one of its own
        yield e, d + 1, lvl if lvl + 1 < _MAX_NESTING else _MAX_NESTING, t

    def case_list(self, e, d, lvl, t):
        for i, (g, b) in enumerate(e.cases):
            long = self.long_ladder(e.cases, i, e.default)
            if long and not i:
                yield from self.dispatch(e, d, lvl, t)
                return
            if i and (long or lvl + 1 >= _MAX_NESTING):
                # the cases left would nest too deep here, or start a ladder
                # to dispatch: a case list of their own takes them
                self.line(d, "else:")
                yield E.CaseList(e.cases[i:], e.default), d + 1, lvl, t
                return
            test = self.pure_test(g) if i else None
            if test is not None:
                self.line(d, f"elif {test}:")
            else:
                if i:
                    self.line(d, "else:")
                    d += 1
                test = yield from self.test(g, d, lvl)
                self.line(d, f"if {test}:")
            yield from self.taken(self.guarded(g), b, d + 1, lvl + 1, t)
            lvl += 1
        if e.cases:
            self.line(d, "else:")
            d += 1
        yield e.default, d, lvl, t

    def is_intervened(self, e, d, lvl, t):
        self.line(d, f"{t} = _TRUE if {self.pure_test(e)} else _FALSE")
        return
        yield  # a generator, like every template

    def intervention_value(self, e, d, lvl, t):
        if e.var in self.intervened:
            self.line(d, f"{t} = iv[{self.const(e.var)}]")
            return
        if self.sees(e.var):
            self.line(d, f"{t} = iv.get({self.const(e.var)})")
            self.line(d, f"if {t} is None:")
            d, lvl = d + 1, lvl + 1
        if e.fallback is None:
            self.line(d, f"raise _UnboundRefError({self.const(e.var)})")
        else:
            yield e.fallback, d, lvl, t

    def draw(self, e, d, lvl, t):
        self.line(d, "if rng is None:")
        self.line(d + 1, f"raise _NonDeterministicModelError({self.const(_DRAW_MESSAGE)})")
        x = yield e.p, d, lvl, None
        self.line(d, f"{t} = _VBool(_numeric({x}) < rng.random())")

    def fallback(self, e, d, lvl, t):
        env = ", ".join(f"{self.const(var)}: {self.use(name)}" for var, name in self.scope.items())
        if self.visible is None:
            forced = "iv"
        else:
            forced = f"{{v: x for v, x in iv.items() if v in {self.const(self.visible)}}}"
        self.line(d, f"{t} = {self.const(e)}._eval({{{env}}}, {forced}, rng)")
        return
        yield  # a generator, like every template

    # -- the plan ---------------------------------------------------------

    def check(self, x: str, domain, message: str) -> None:
        """Raises `DomainError(message)`, an f-string over `x`, unless `x`
        is in `domain`.  The domain's `_contains` decides, after a test that
        accepts the usual members without a call."""
        test = f"{self.const(domain._contains)}({x})"
        t = type(domain)
        if t is E.BoolDomain:
            test = f"type({x}) is _VBool or {test}"
        elif t is E.IntDomain:
            test = f"type({x}) is _VInt and {self.const(domain.lo)} <= {x}.i <= {self.const(domain.hi)} or {test}"
        elif t is E.RealDomain and domain.lo is None and domain.hi is None:
            test = f"type({x}) is _VReal or {test}"
        self.line(1, f"if not ({test}):")
        self.line(2, f"raise _DomainError(f{message!r})")

    def row(self, var, domain, tree) -> None:
        k = self.const(var)
        if domain is None:
            self.scope[var] = self.value(tree, 1, 1)
            return
        if self.sees(var):
            x = self.local()
            self.line(1, f"{x} = iv.get({k})")
            self.line(1, f"if {x} is None:")
            self.value(tree, 2, 2, x)
        else:
            x = self.value(tree, 1, 1)
        self.check(x, domain, f"{{{k}}} evaluated to {{{x}}}, outside its domain")
        self.scope[var] = x

    def plan(self, plan) -> None:
        self.line(1, "iv = dict(interventions.assignments)")
        acc = {}
        for var, domain in plan.inputs:
            k, x = self.const(var), self.local()
            self.line(1, f"if {k} not in u:")
            self.line(2, f"raise _UnboundRefError({k})")
            self.line(1, f"{x} = u[{k}]")
            if domain is not None:
                self.check(x, domain, f"input {{{k}}}={{{x}}} is outside its domain")
            acc[var] = x
        for inputs, visible, rows in plan.clusters:
            missing = next((v for v in inputs if v not in acc), None)
            if missing is not None:
                self.line(1, f"raise KeyError({self.const(missing)})")
                return
            self.scope, self.visible = {v: acc[v] for v in inputs}, visible
            for run in _runs(self.scope, rows):
                self.share(run)
                for var, domain, tree in run:
                    self.row(var, domain, tree)
                self.declare(self.fn)
            acc.update(self.scope)
        missing = next((v for v in plan.outputs if v not in acc), None)
        if missing is not None:
            self.line(1, f"raise KeyError({self.const(missing)})")
            return
        self.line(1, "return {" + ", ".join(f"{self.const(v)}: {acc[v]}" for v in plan.outputs) + "}")

    def source(self) -> str:
        """`make()`, which defines the helpers and `plan` and returns
        `plan`.  The helpers are locals of `make`, so no function is held
        by the globals it runs in, and the code is freed with the plan
        without the cyclic collector."""
        parts = []
        for fn in self.helpers:
            params = ", ".join(["iv", "rng", *fn.params])
            parts.append(f"def {fn.name}({params}):\n" + "\n".join(fn.lines))
        parts.append("def plan(u, interventions, rng=None):\n" + "\n".join(self.fn.lines))
        body = "\n\n".join(parts) + "\n\nreturn plan"
        return "def make():\n" + textwrap.indent(body, "    ") + "\n"


_TEMPLATES = {
    E.Unary: _Builder.unary,
    E.Binary: _Builder.binary,
    E.IfThenElse: _Builder.if_then_else,
    E.CaseList: _Builder.case_list,
    E.IsIntervened: _Builder.is_intervened,
    E.InterventionValue: _Builder.intervention_value,
    E.RandomBernoulli: _Builder.draw,
}


def plan_source(plan) -> tuple[str, dict]:
    """The source of `plan`'s function and the globals it runs in."""
    builder = _Builder()
    builder.plan(plan)
    return builder.source(), builder.namespace


def compile_plan(plan) -> Callable:
    """`plan` as one Python function `(u, interventions, rng=None) ->
    outputs` that agrees with `evaluation.run_plan(plan, u, interventions,
    rng)`."""
    source, namespace = plan_source(plan)
    exec(compile(source, "<scmc plan>", "exec"), namespace)
    return namespace.pop("make")()

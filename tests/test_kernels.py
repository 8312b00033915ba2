"""The numpy kernels of `scmc.columns` against the per-case evaluation.

Columns are numpy arrays, so each kernel must reproduce Python's own
arithmetic on the entries it stands for: ints compared with floats, a real
zero's sign, NaN and infinities, floor division and modulo of negative
ints, a float power to the last bit, and errors where the per-case loop
raises.  Where a value has no column (an int past 2**53, a column of ints
and reals, `min`/`max` of an int and a real, `pow` of an int base), the
kernel declines with `C.Unsupported`; each test pins which operators
compute and which decline.  Values are compared by `repr` of the Python
values, so an int stays an int and -0.0 stays -0.0.  A property test draws
random trees over case lists of every kind and requires each column to
equal the loop, decline, or raise where the loop raises.

The tests also hold the columns to computing wherever every case does, on
random models and on the bench models, and check that no numpy scalar
reaches a report, a counterexample, a case view or a document.
"""

import dataclasses
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import bench_models, cases_of, random_model, random_partition
from test_columns import assert_column_agrees, assert_column_matches, case_rows, column_over, per_case
from scmc import columns as C
from scmc import documents as D
from scmc import expr as E
from scmc import verification as Q
from scmc import zoo
from scmc.consolidation import Ccv, CcvCluster, PassConfig, attach_ccvs, ccv_plan, consolidate, eval_ccv, eval_consolidated
from scmc.evaluation import eval_scm
from scmc.expr import (
    Binary,
    CaseList,
    IfThenElse,
    InterventionValue,
    IsIntervened,
    Ref,
    Unary,
    VarRef,
    bconst,
    iconst,
    rconst,
    sconst,
)
from scmc.scm import InterventionSet

X, Y, B, S = VarRef("X"), VarRef("Y"), VarRef("B"), VarRef("S")

#: ints on both sides of 32, 53 and 64 bits
BIG_INTS = [s * m + d for m in (2**31, 2**53, 2**63) for s in (1, -1) for d in (-1, 0, 1)]
SMALL_INTS = [0, 1, -1, 2, -2, 3, -3, 7, -7]
REALS = [0.0, -0.0, 0.5, -2.5, 3.0, math.nan, math.inf, -math.inf, 1e308, -1e308, 2.0**53, 5e-324]
ARITHMETIC = ("add", "sub", "mul", "div", "mod", "min", "max", "lt", "le", "eq")


def value(x) -> E.Value:
    return {bool: E.VBool, int: E.VInt, float: E.VReal, str: E.VSym}[type(x)](x)


def grid(xs, ys) -> list:
    """Every pair of `xs` and `ys`, as rows over X and Y."""
    return [({X: value(x), Y: value(y)}, InterventionSet.empty()) for x, y in product(xs, ys)]


def assert_binary_ops(rows, ops=ARITHMETIC, computes=ARITHMETIC) -> None:
    """Every operator on (X, Y) and on (Y, X) agrees with the per-case loop;
    a zero divisor raises there, so each division also runs without it.
    Where every case computes, the operators in `computes` compute and the
    others decline."""
    for op in ops:
        for left, right in ((Ref(X), Ref(Y)), (Ref(Y), Ref(X))):
            tree = Binary(op, left, right)
            parts = [rows]
            if op in ("div", "mod"):
                parts.append([r for r in rows if r[0][right.var] != E.VInt(0) and r[0][right.var] != E.VReal(0.0)])
            for part in parts:
                computed = assert_column_agrees(tree, part, oracle=False)
                if per_case(tree, part) is not None:
                    assert computed == (op in computes), (tree, computed)


#: every operator but `mod`, which raises per case on a real
REAL_OPS = tuple(op for op in ARITHMETIC if op != "mod")


@pytest.mark.parametrize(
    "xs, ys, computes",
    [
        (SMALL_INTS, SMALL_INTS, ARITHMETIC),  # int64 columns
        # results past 2**53 decline; quotients, remainders and comparisons stay within
        (SMALL_INTS + [2**53, -(2**53)], [2**53, -(2**53), 1, -1], ("div", "mod", "min", "max", "lt", "le", "eq")),
        (BIG_INTS, SMALL_INTS, ()),  # past 2**53: no column
        (REALS, REALS, REAL_OPS),  # float64 columns
        # ints against floats: `min`/`max` would keep an operand of either kind
        (SMALL_INTS + [2**53, 2**53 - 1], REALS, ("add", "sub", "mul", "div", "lt", "le", "eq")),
        (BIG_INTS, REALS, ()),
        (SMALL_INTS + REALS, SMALL_INTS + REALS, ()),  # a column of both kinds
    ],
    ids=["ints", "int-range", "big-ints", "reals", "ints-reals", "big-ints-reals", "mixed"],
)
def test_binary_kernels_match_the_per_case_loop(xs, ys, computes):
    assert_binary_ops(grid(xs, ys), computes=computes)


def test_results_past_2_53_stay_exact():
    rows = grid([2**53, 2**53 - 1, -(2**53), 3], [1, -1, 2**53])
    one = rconst(2.0**53)
    trees = [
        Binary("le", Binary("add", Ref(X), iconst(1)), one),
        Binary("eq", Binary("add", Ref(X), Ref(Y)), rconst(2.0**54)),
        Binary("lt", Binary("sub", Ref(X), Ref(Y)), one),
        Binary("eq", Binary("mul", Ref(X), Ref(Y)), rconst(2.0**106)),
        Binary("eq", Binary("mul", Ref(X), iconst(3)), Binary("mul", Ref(X), rconst(3.0))),
        Binary("add", Binary("mul", Ref(X), Ref(Y)), iconst(1)),
        Unary("neg", Binary("mul", Ref(X), Ref(X))),
    ]
    for tree in trees:
        # every case computes, but each tree has a result past 2**53
        assert per_case(tree, rows) is not None
        assert not assert_column_agrees(tree, rows, oracle=False)
        with pytest.raises(C.Unsupported):
            column_over(tree, rows)
    # +-2**53 itself is the last int a column holds: (tree, (x, y) reaching
    # it, (x, y) one past it)
    add, mul, sub = Binary("add", Ref(X), Ref(Y)), Binary("mul", Ref(X), Ref(Y)), Binary("sub", Ref(X), iconst(1))
    for tree, within, past in (
        (add, (2**53 - 1, 1), (2**53, 1)),
        (add, (1 - 2**53, -1), (-(2**53), -1)),
        (mul, (2**52, 2), (2**52 + 1, 2)),
        (mul, (2**52, -2), (2**52 + 1, -2)),
        (sub, (1 - 2**53, 0), (-(2**53), 0)),
    ):
        edge = grid([within[0]], [within[1]])
        assert assert_column_agrees(tree, edge, oracle=False)
        assert abs(column_over(tree, edge)[0]) == C.INT_LIMIT
        assert per_case(tree, grid([past[0]], [past[1]])) is not None
        with pytest.raises(C.Unsupported):
            column_over(tree, grid([past[0]], [past[1]]))


def test_negative_division_floors_and_modulo_takes_the_divisor_sign():
    rows = grid([-7, 7, -1, 0, 6, -(2**53)], [2, -2, 3, -3, 7, -(2**53)])
    assert_binary_ops(rows, ("div", "mod"))
    cases = cases_of(rows[:4])
    env = {v: cases.input(v) for v in (X, Y)}
    got = C.column(Binary("div", Ref(X), Ref(Y)), cases, env)
    assert got.dtype == np.int64 and got.tolist() == [-4, 3, -3, 2]
    got = C.column(Binary("mod", Ref(X), Ref(Y)), cases, env)
    assert got.tolist() == [1, -1, 2, -1]


def test_min_and_max_keep_nan_and_the_operand_kind():
    rows = grid([math.nan, 1, 1.0, -0.0, 0, 2**63], [math.nan, 1.0, 1, 0.0, 0, -0.0])
    # columns of ints and reals, and an int past 2**53, decline
    assert_binary_ops(rows, ("min", "max"), computes=())
    # one kind on both sides computes, NaN and the sign of zero included
    assert_binary_ops(grid([math.nan, 1.0, -0.0], [math.nan, 1.0, 0.0, -0.0]), ("min", "max"))
    assert_binary_ops(grid([1, 0], [1, 0]), ("min", "max"))
    # an int against a real keeps an operand of either kind, which no column holds
    assert_binary_ops(grid([1, 0], [math.nan, 1.0, 0.0, -0.0]), ("min", "max"), computes=())
    # NaN on either side: `x if x <= y else y`, which np.minimum is not
    cases = cases_of(grid([math.nan, 1.0], [1.0, math.nan]))
    env = {v: cases.input(v) for v in (X, Y)}
    got = C.column(Binary("min", Ref(X), Ref(Y)), cases, env)
    assert [repr(x) for x in got.tolist()] == ["1.0", "nan", "1.0", "nan"]


def test_mixed_int_and_real_branches():
    rows = [({B: E.VBool(b), X: E.VInt(i), Y: E.VReal(r)}, InterventionSet.empty()) for b in (True, False) for i, r in ((1, 1.0), (-3, 0.5), (0, -0.0))]
    trees = [
        IfThenElse(Ref(B), Ref(X), Ref(Y)),
        IfThenElse(Ref(B), Ref(Y), Ref(X)),
        Binary("add", IfThenElse(Ref(B), Ref(X), Ref(Y)), iconst(1)),
        Binary("min", Ref(X), Ref(Y)),
        Binary("max", Binary("min", Ref(X), Ref(Y)), rconst(0.0)),
        Binary("eq", IfThenElse(Ref(B), Ref(X), Ref(Y)), Ref(X)),
        Binary("and", Ref(B), Binary("lt", Ref(X), Ref(Y))),
        Binary("or", Ref(B), Binary("le", Binary("max", Ref(X), Ref(Y)), iconst(0))),
    ]
    for tree in trees:
        computed = assert_column_agrees(tree, rows)
        # only the comparison of an int and a real has a column: every
        # other tree has an int and a real result, or operands that keep one
        assert computed == (tree is trees[6]), tree
        if not computed:
            with pytest.raises(C.Unsupported):
                column_over(tree, rows)
    # a branch that no case takes does not count
    for b, tree in ((True, trees[0]), (False, trees[1])):
        assert assert_column_agrees(tree, [r for r in rows if r[0][B] == E.VBool(b)])


def test_pow_matches_the_loop_and_raises_where_it_does():
    bases = [0, 2, -2, 10, 2.0, -8.0, 1e308, 0.5, math.inf, math.nan]
    exponents = [0, 1, 2, -1, 3, 0.5, 2.0, -0.5, 1000]
    for x, y in product(bases, exponents):
        rows = grid([x], [y])
        # a real base computes wherever the case does; an int base declines
        computed = assert_column_agrees(Binary("pow", Ref(X), Ref(Y)), rows, oracle=False)
        assert computed == (type(x) is float and per_case(Binary("pow", Ref(X), Ref(Y)), rows) is not None)
        if type(x) is int and per_case(Binary("pow", Ref(X), Ref(Y)), rows) is not None:
            with pytest.raises(C.Unsupported):
                column_over(Binary("pow", Ref(X), Ref(Y)), rows)
    # a column: the overflowing base raises for all, the others compute
    rows = grid([2.0, 3.0, 0.5], [2.0, 1023.5])
    assert per_case(Binary("pow", Ref(X), Ref(Y)), rows) is None
    assert_column_matches(Binary("pow", Ref(X), Ref(Y)), rows, oracle=False)
    assert_column_matches(Binary("pow", Ref(X), Ref(Y)), grid([2.0, 3.0, 0.5], [2.0, 700.0]), oracle=False)


#: bases and exponents at every edge of `expr._pow`'s guards and of the float range
POW_BASES = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 10.0, 1e200, -1e200, 1e308, 5e-324, math.nan, math.inf, -math.inf]
POW_EXPONENTS = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 3.0, 0.5, -0.5, 2.5, 1023.5, 1e300, -1e300, math.nan, math.inf, -math.inf]


def per_entry_pow(xs, ys):
    """The per-case operator's results as float64 bytes, or None where it raises."""
    try:
        return np.array([E._apply_binary("pow", value(x), value(y)).r for x, y in zip(xs, ys)], np.float64).tobytes()
    except Exception:  # noqa: BLE001 - any error: the column kernel must raise too
        return None


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.sampled_from(POW_BASES), st.floats()),
            st.one_of(st.sampled_from(POW_EXPONENTS), st.floats(), st.integers(-1100, 1100)),
        ),
        min_size=1,
        max_size=6,
    ),
    st.booleans(),
)
def test_float_pow_kernel_is_the_per_entry_kernel(pairs, int_exponents):
    """A float64 base column with an int64 or float64 exponent column gives
    the per-case operator's bytes, and raises wherever it raises."""
    xs = [x for x, _ in pairs]
    if int_exponents:
        ys = [int(y) if isinstance(y, int) or math.isfinite(y) and abs(y) < 2**53 else 3 for _, y in pairs]
        b = np.array(ys, np.int64)
    else:
        ys = [float(y) for _, y in pairs]
        b = np.array(ys, np.float64)
    want = per_entry_pow(xs, ys)
    with np.errstate(all="ignore"):
        if want is None:
            with pytest.raises((C.Unsupported, OverflowError)):
                C._pow(np.array(xs, np.float64), b)
        else:
            got = C._pow(np.array(xs, np.float64), b)
            assert got.dtype == np.float64 and got.tobytes() == want


def test_float_pow_kernel_is_exact_on_random_bases():
    # `np.power` and `x * x` differ from Python's power in the last bit on
    # some of these bases; the kernel must not
    rng = np.random.Generator(np.random.Philox(0))
    xs = rng.uniform(-10.0, 10.0, 4000)
    for b in (np.full(4000, 2, np.int64), np.full(4000, 3.0), rng.integers(-4, 5, 4000)):
        want = per_entry_pow(xs.tolist(), b.tolist())
        assert C._pow(xs, b).tobytes() == want


def test_symbols_and_booleans_compare_only_with_their_kind():
    syms = [({S: E.VSym(s), B: E.VBool(b), X: E.VInt(i)}, InterventionSet.empty()) for s in ("a", "b") for b in (True, False) for i in (0, 1)]
    for tree in (
        Binary("eq", Ref(S), sconst("a")),
        IfThenElse(Binary("eq", Ref(S), sconst("b")), sconst("x"), Ref(S)),
        Binary("eq", IfThenElse(Ref(B), Ref(S), sconst("b")), Ref(S)),
        Binary("eq", Ref(B), bconst(False)),
        Binary("eq", Ref(B), Ref(X)),  # raises on every case
        Binary("eq", Ref(S), Ref(X)),
        Binary("eq", Ref(X), Ref(B)),
        Binary("lt", Ref(S), sconst("b")),
        Binary("add", Ref(B), Ref(X)),
        Unary("not", Ref(X)),
    ):
        assert_column_matches(tree, syms)


def test_infinities_and_nan_in_comparisons_and_domains():
    rows = grid(REALS, [0.0, math.inf, math.nan])
    for tree in (
        Binary("sub", Ref(X), Ref(X)),
        Binary("mul", Ref(X), rconst(0.0)),
        Binary("div", Ref(X), rconst(math.inf)),
        Binary("eq", Binary("add", Ref(X), Ref(Y)), Ref(X)),
        IfThenElse(Binary("le", Ref(X), Ref(Y)), Ref(X), Ref(Y)),
    ):
        assert_column_matches(tree, rows, oracle=False)


# ---------------------------------------------------------------------------
# Random trees over case lists of every kind
# ---------------------------------------------------------------------------

V = VarRef("V")

#: entries by kind: a column of one kind has a column, any mix has none
KIND_POOLS = [
    [E.VBool(True), E.VBool(False)],
    [E.VInt(i) for i in (0, 1, -1, 2, -7, 2**53, -(2**53))],
    [E.VInt(i) for i in (2**53 + 1, -(2**63), 2**70)],
    [E.VReal(r) for r in (0.0, -0.0, 1.5, -2.5, math.nan, math.inf, -math.inf, 2.0**53)],
    [E.VSym(name) for name in ("a", "b")],
]
EVERY_KIND = [v for pool in KIND_POOLS for v in pool]
OPERATORS = ARITHMETIC + ("pow", "and", "or")


def trees():
    leaves = st.one_of(
        st.sampled_from([Ref(X), Ref(Y), Ref(S), IsIntervened(V)]),
        st.sampled_from(EVERY_KIND).map(E.Const),
    )

    def nodes(children):
        return st.one_of(
            st.builds(Binary, st.sampled_from(OPERATORS), children, children),
            st.builds(Unary, st.sampled_from(("neg", "not")), children),
            st.builds(IfThenElse, children, children, children),
            st.builds(lambda g, a, d: CaseList(((g, a),), d), children, children, children),
            st.builds(InterventionValue, st.just(V), children),
        )

    return st.recursive(leaves, nodes, max_leaves=8)


@st.composite
def mixed_rows(draw):
    """Rows over X, Y and S, each an input column of one kind or of every
    kind, with an atom on V, also of one kind or of every kind, in some sets."""
    n = draw(st.integers(1, 8))
    pools = {v: draw(st.sampled_from(KIND_POOLS + [EVERY_KIND])) for v in (X, Y, S, V)}
    rows = []
    for _ in range(n):
        env = {v: draw(st.sampled_from(pools[v])) for v in (X, Y, S)}
        forced = draw(st.booleans())
        iv = InterventionSet.of({V: draw(st.sampled_from(pools[V]))}) if forced else InterventionSet.empty()
        rows.append((env, iv))
    return rows


@settings(max_examples=400, deadline=None)
@given(trees(), mixed_rows())
def test_every_column_equals_the_loop_or_declines(tree, rows):
    """A column equals `_eval` on every case, or declines with
    `C.Unsupported`, or raises where some case raises; an object column
    holds only symbols (`assert_column_agrees`)."""
    assert_column_agrees(tree, rows, oracle=False)


# ---------------------------------------------------------------------------
# Columns compute wherever the per-case loop does
# ---------------------------------------------------------------------------


def column_form(values) -> bool:
    try:
        for v in values:
            C.raw(v)
    except C.Unsupported:
        return False
    return True


def test_columns_compute_wherever_every_case_does():
    computed = 0
    for seed in range(200):
        scm = random_model(seed, max_endo=10, max_domain=4)
        rows = case_rows(scm, seed)
        try:
            outs = [eval_scm(scm, u, iv, check_membership=False) for u, iv in rows]
        except Exception:  # noqa: BLE001 - the columns may raise too
            continue
        if not all(column_form(out.values()) for out in outs):
            continue
        keep = frozenset(scm.endo_vars())
        C.plan_columns(scm.plan, cases_of(rows), keep)
        cons = consolidate(scm, random_partition(scm, seed + 5), scm.endo_vars()[-3:])
        C.plan_columns(cons.plan, cases_of(rows), frozenset(cons.computed_vars()))
        for cluster in cons.clusters:
            if isinstance(cluster, CcvCluster):
                strategy = Q.gate_strategy_for(cluster.sub, PassConfig(seed=seed))
                cases, _ = Q.GateMemo().cases(cluster.sub, strategy)
                if cases is not None:
                    C.plan_columns(ccv_plan(cluster.ccv, cluster.sub.local_exogenous), cases)
        computed += 1
    assert computed >= 190  # all 200 seeds, at the time of writing


def bench_strategy(scm, seed: int):
    """The bench's rule: 256 sampled cases past 4096 intervention sets."""
    if scm.interventions.size() > 4096:
        return Q.EquivalenceStrategy.sampled(count=256, seed=seed)
    return Q.EquivalenceStrategy.exhaustive()


def test_columns_never_decline_on_the_bench_models(monkeypatch):
    declined, walks = [], []
    check_cases = Q._check_cases

    def watched(tlist, n, tolerance, probabilistic, case, values, blocks, probe=0):
        def watched_blocks():
            try:
                for block in blocks():
                    walks.append(block[1] - block[0])
                    yield block
            except Exception as exc:  # noqa: BLE001 - recorded, then raised as before
                declined.append(repr(exc))
                raise

        return check_cases(tlist, n, tolerance, probabilistic, case, values, watched_blocks, probe)

    monkeypatch.setattr(Q, "_check_cases", watched)
    models = bench_models()
    assert len(models) == 5
    for name, scm, partition, targets, clusters in models:
        for seed in (1, 7, 13):
            cons = consolidate(scm, partition, targets, clusters, PassConfig(seed=seed))
            report = Q.verify_equivalence(scm, cons, targets, bench_strategy(scm, seed))
            assert report.equal, (name, seed)
    assert declined == []
    assert len(walks) > 100


# ---------------------------------------------------------------------------
# No numpy value escapes
# ---------------------------------------------------------------------------

_PAYLOAD = {E.VBool: bool, E.VInt: int, E.VReal: float, E.VSym: str}


def assert_plain(x, where="") -> None:
    """No numpy scalar or array anywhere in `x`, and every value's payload
    of exactly its Python type."""
    assert not isinstance(x, (np.generic, np.ndarray)), (where, type(x))
    if type(x) in _PAYLOAD:
        field = dataclasses.fields(x)[0].name
        assert type(getattr(x, field)) is _PAYLOAD[type(x)], (where, x)
    elif dataclasses.is_dataclass(x) and not isinstance(x, type):
        for f in dataclasses.fields(x):
            assert_plain(getattr(x, f.name), f"{where}.{f.name}")
    elif isinstance(x, dict):
        for k, v in x.items():
            assert_plain(k, f"{where}[key]")
            assert_plain(v, f"{where}[{k!r}]")
    elif isinstance(x, (list, tuple, set, frozenset)):
        for i, v in enumerate(x):
            assert_plain(v, f"{where}[{i}]")
    elif isinstance(x, float):
        assert type(x) is float, (where, type(x))


def nudged(cons, by: float):
    """`cons` with the last target of its first consolidated cluster plus `by`."""
    for cluster in cons.clusters:
        if isinstance(cluster, CcvCluster):
            ccv = cluster.ccv
            last = ccv.targets[-1]
            rho = {**ccv.rho, last: Binary("add", ccv.rho[last], rconst(by))}
            return attach_ccvs(cons, {cluster.index: Ccv(ccv.targets, rho, ccv.interventions, ccv.provenance)})
    raise AssertionError("no consolidated cluster")


def test_no_numpy_scalar_reaches_reports_views_or_documents():
    entry = zoo.tool_wear(36)
    cons = entry.consolidated()
    strategy = Q.EquivalenceStrategy.sampled(count=256, seed=3)
    # a deviation inside the tolerance is measured by the columns
    close = Q.verify_equivalence(entry.scm, nudged(cons, 1e-12), entry.targets, strategy)
    assert close.equal and close.max_abs_deviation > 0
    assert type(close.max_abs_deviation) is float and type(close.cases_checked) is int
    far = Q.verify_equivalence(entry.scm, nudged(cons, 1e-3), entry.targets, strategy)
    assert far.verdict == "counterexample"
    for report in (close, far):
        assert_plain(report)
        assert "np." not in repr(report)
    # exhaustive lists, and the gate with its memo
    squad = zoo.firing_squad(5)
    for report in (
        Q.verify_equivalence(squad.scm, squad.consolidated(), squad.targets),
        Q.verify_equivalence(squad.scm, broken(squad.consolidated()), squad.targets),
    ):
        assert_plain(report)
    for cluster in entry.consolidated().clusters + squad.consolidated().clusters:
        if not isinstance(cluster, CcvCluster):
            continue
        sub, ccv = cluster.sub, cluster.ccv
        gate = Q.gate_strategy_for(sub, PassConfig())
        memo = Q.GateMemo()
        cases, _ = memo.cases(sub, gate)
        views = cases[:40]
        assert_plain(views)
        assert_plain(Q.verify_pass(ccv, ccv, sub, gate, memo))
        env, iv = views[-1]
        assert_plain(memo.before_values(len(views) - 1, env, iv, list(ccv.targets)))
        rejected = Q.verify_pass(ccv, flipped(ccv, views[0]), sub, gate, memo)
        assert rejected.verdict == "counterexample"
        assert_plain(rejected)
    # verifier lists, exhaustive and sampled, and their blocks
    for scm in (entry.scm, squad.scm):
        for s in (Q.EquivalenceStrategy.exhaustive(), Q.EquivalenceStrategy.sampled(count=64, seed=1)):
            cases, _ = Q.verifier_cases(scm, s)
            if cases is not None:
                assert_plain(cases[:8])
                assert_plain(cases.block(3, 9)[:])
    # documents and what the consolidated model answers per case
    doc = D.consolidated_to_doc(cons)
    assert_plain(doc)
    assert "np." not in D.to_json(doc)
    u, iv = Q.verifier_cases(entry.scm, strategy)[0][5]
    assert_plain(eval_consolidated(cons, u, iv, check_membership=False))


def broken(cons):
    """`cons` with the last target of its first consolidated cluster wrong
    on the cluster's first gate case."""
    for cluster in cons.clusters:
        if isinstance(cluster, CcvCluster):
            cases, _ = Q.GateMemo().cases(cluster.sub, Q.gate_strategy_for(cluster.sub, PassConfig()))
            return attach_ccvs(cons, {cluster.index: flipped(cluster.ccv, cases[0])})
    raise AssertionError("no consolidated cluster")


def flipped(ccv: Ccv, case) -> Ccv:
    """`ccv` with its last target wrong on `case`."""
    last = ccv.targets[-1]
    tree = ccv.rho[last]
    got = eval_ccv(ccv, *case)[last]
    wrong = Unary("not", tree) if isinstance(got, E.VBool) else bconst(True)
    return Ccv(ccv.targets, {**ccv.rho, last: wrong}, ccv.interventions, ccv.provenance)

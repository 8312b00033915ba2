"""Column evaluation against the per-case evaluators it stands in for.

`scmc.columns` walks a tree once per case list.  Each test here evaluates
the same trees per case, with the node classes' own `_eval`, with the
library's model evaluators and with `helpers.oracle_eval`, and requires the
columns to hold the same values (compared by `repr`, so a real zero keeps
its sign and an int stays an int) or, wherever some case raises, to raise.
Where a value has no column (an int past 2**53, a column of two kinds), the
columns decline with `C.Unsupported`; the tests pin which trees compute and
which decline, and check the declining ones end to end against the loop.
"""

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    cases_of,
    oracle_eval,
    oracle_run_plan,
    oracle_verifier_cases,
    outcome,
    random_model,
    random_partition,
    reuse_clusters,
    shared_candidate,
)
from scmc import columns as C
from scmc import expr as E
from scmc import verification as Q
from scmc import zoo
from scmc.consolidation import Ccv, PassConfig, ccv_plan, consolidate, eval_ccv, eval_consolidated
from scmc.errors import DivisionByZeroError, DomainError
from scmc.evaluation import enumerate_exogenous, eval_scm, make_rng, sample_exogenous
from scmc.expr import (
    Binary,
    BoolDomain,
    CaseList,
    ExistsIntervention,
    IfThenElse,
    IntDomain,
    InterventionValue,
    IsIntervened,
    MaxIntervenedIndex,
    RealDomain,
    Ref,
    Unary,
    VarRef,
    bconst,
    iconst,
    rconst,
    sconst,
)
from scmc.partition import extract_sub_scm, sub_scm_as_scm
from scmc.scm import EndoVar, ExoVar, InterventionSet, InterventionSpace, Scm, UniformFinite
from scmc.verification import EquivalenceStrategy, verify_equivalence, verify_pass

X, Y, Z, B = VarRef("X"), VarRef("Y"), VarRef("Z"), VarRef("B")


def reprs(values) -> list[str]:
    return [repr(v) for v in values]


def column_values(col) -> list[str]:
    return reprs(C.value(x) for x in col.tolist())


def make_cases(rows):
    """`Cases` from (env, intervention set) rows, with every input converted."""
    cases = cases_of(rows)
    env = {v: cases.input(v) for v in (rows[0][0] if rows else {})}
    return cases, env


def column_over(tree, rows, visible=None):
    """The tree's column over the rows; raises where the columns cannot be made."""
    return C.column(tree, *make_cases(rows), visible)


def per_case(tree, rows, visible=None):
    """The tree's value on every row through `_eval`, or None when a row raises."""
    out = []
    for env, iv in rows:
        if visible is not None:
            iv = iv.restrict(visible)
        try:
            out.append(tree._eval(env, dict(iv.assignments), None))
        except Exception:  # noqa: BLE001 - any error: the columns must raise too
            return None
    return out


def assert_column_agrees(tree, rows, visible=None, oracle=True) -> bool:
    """Columns raise where a row raises through `_eval`; where every row
    computes, they equal `_eval` (and the oracle) exactly, or decline with
    `C.Unsupported`, and never raise anything else.  Returns whether the
    columns computed."""
    want = per_case(tree, rows, visible)
    if want is None:
        with pytest.raises(Exception):
            column_over(tree, rows, visible)
        return False
    if oracle:
        restricted = [(e, iv.restrict(visible) if visible is not None else iv) for e, iv in rows]
        assert reprs(oracle_eval(tree, e, iv) for e, iv in restricted) == reprs(want)
    try:
        got = column_over(tree, rows, visible)
    except C.Unsupported:
        return False
    assert column_values(got) == reprs(want), tree
    assert_column_kind(got)
    return True


def assert_column_matches(tree, rows, visible=None, oracle=True):
    """Columns equal `_eval` (and the oracle) on every row, or raise where a row raises."""
    assert assert_column_agrees(tree, rows, visible, oracle) or per_case(tree, rows, visible) is None, tree


def assert_column_kind(col) -> None:
    """`col` is a boolean or float64 column, an int64 one within +-2**53 or
    an object one of symbols."""
    assert col.dtype in (bool, np.float64, np.int64, object), col.dtype
    xs = col.tolist()
    if col.dtype == np.int64:
        assert all(abs(x) <= C.INT_LIMIT for x in xs)
    if col.dtype == object:
        assert all(type(x) is str for x in xs)


def kinds(tree, rows) -> set:
    """The value classes the tree gives on the rows, per case."""
    return {type(tree._eval(env, dict(iv.assignments), None)) for env, iv in rows}


def rows_over(var: VarRef, values, ivs=(InterventionSet.empty(),)):
    return [({var: v}, iv) for v in values for iv in ivs]


INTS = [E.VInt(i) for i in (-3, -1, 0, 1, 2, 7)]
REALS = [E.VReal(r) for r in (-2.5, -0.0, 0.0, 0.5, 3.0)]


# ---------------------------------------------------------------------------
# Models: random ones and the zoo
# ---------------------------------------------------------------------------


def case_rows(scm: Scm, seed: int, limit: int = 400):
    """Every input and intervention set when few, else a seeded sample."""
    space = scm.interventions
    try:
        us = enumerate_exogenous(scm, budget=64)
    except DomainError:
        us = sample_exogenous(scm, seed, 16, strict=False)
    if space.size() <= 256:
        ivs = space.enumerate(256)
    else:
        rng = make_rng(seed)
        ivs = [space.sample(rng) for _ in range(48)]
    return [(u, iv) for u in us for iv in ivs][:limit]


def assert_model_columns(scm: Scm, rows):
    keep = frozenset(scm.endo_vars())
    cases = cases_of(rows)
    try:
        want = [eval_scm(scm, u, iv, check_membership=False) for u, iv in rows]
    except Exception:  # noqa: BLE001
        with pytest.raises(Exception):
            C.plan_columns(scm.plan, cases, keep)
        return
    got = C.plan_columns(scm.plan, cases, keep)
    for v in keep:
        assert column_values(got[v]) == reprs(out[v] for out in want), (scm.name, v)


def assert_consolidated_columns(cons, rows):
    keep = cons.computed_vars()
    cases = cases_of(rows)
    want = [eval_consolidated(cons, u, iv, check_membership=False) for u, iv in rows]
    got = C.plan_columns(cons.plan, cases, frozenset(keep))
    for v in keep:
        assert column_values(got[v]) == reprs(out[v] for out in want), (cons.name, v)


def test_random_models_match_eval_scm_and_eval_consolidated():
    for seed in range(120):
        scm = random_model(seed, max_endo=10, max_domain=4)
        rows = case_rows(scm, seed)
        assert_model_columns(scm, rows)
        cons = consolidate(scm, random_partition(scm, seed + 5), scm.endo_vars()[-3:])
        assert_consolidated_columns(cons, rows)


def test_random_equations_match_eval_and_the_oracle():
    for seed in range(120):
        scm = random_model(seed, max_endo=10, max_domain=4)
        rows = case_rows(scm, seed, limit=120)
        outs = [eval_scm(scm, u, iv, check_membership=False) for u, iv in rows]
        env_rows = [({**u, **out}, iv) for (u, iv), out in zip(rows, outs)]
        for row in scm.endogenous:
            assert_column_matches(row.equation, env_rows)


@pytest.mark.parametrize("name", sorted(zoo.ZOO_BUILDERS))
def test_zoo_models_match(name):
    entry = zoo.ZOO_BUILDERS[name]()
    rows = case_rows(entry.scm, 3)
    assert_model_columns(entry.scm, rows)
    if name == "bernoulli_fork":
        # a draw has no column form: the columns give up, the loop decides
        with pytest.raises(C.Unsupported):
            C.plan_columns(entry.scm.plan, cases_of(rows), frozenset())
        return
    assert_consolidated_columns(entry.consolidated(), rows)
    if entry.reference_ccvs:
        assert_consolidated_columns(entry.reference_consolidated(), rows)


def test_sampled_tool_wear_matches():
    entry = zoo.tool_wear(6, "sampled")
    rows = case_rows(entry.scm, 11)
    assert_model_columns(entry.scm, rows)
    assert_consolidated_columns(entry.consolidated(), rows)


# ---------------------------------------------------------------------------
# The per-case semantics, rule by rule
# ---------------------------------------------------------------------------


def test_and_or_short_circuit_per_case():
    # 1 div X is evaluated only where the left operand leaves it to decide
    risky = Binary("lt", Binary("div", iconst(1), Ref(X)), iconst(5))
    rows = rows_over(X, INTS)
    for tree in (
        Binary("and", Unary("not", Binary("eq", Ref(X), iconst(0))), risky),
        Binary("or", Binary("eq", Ref(X), iconst(0)), risky),
    ):
        assert per_case(tree, rows) is not None
        assert_column_matches(tree, rows)
    # both operands must be booleans
    assert_column_matches(Binary("and", bconst(True), iconst(1)), rows)
    assert_column_matches(Binary("or", iconst(0), bconst(True)), rows)


def test_untaken_branches_are_not_evaluated():
    rows = rows_over(X, INTS)
    inverse = Binary("div", iconst(1), Ref(X))
    nonzero = Unary("not", Binary("eq", Ref(X), iconst(0)))
    trees = [
        IfThenElse(nonzero, inverse, iconst(0)),
        IfThenElse(Unary("not", nonzero), iconst(0), inverse),
        CaseList(
            ((Binary("eq", Ref(X), iconst(0)), iconst(9)), (Binary("lt", inverse, iconst(0)), iconst(-1))),
            inverse,
        ),
    ]
    for tree in trees:
        assert per_case(tree, rows) is not None
        assert_column_matches(tree, rows)
    # a fallback runs only where the variable is not intervened on
    guarded = [
        ({X: E.VInt(0)}, InterventionSet.of({Y: E.VInt(4)})),
        ({X: E.VInt(2)}, InterventionSet.empty()),
        ({X: E.VInt(0)}, InterventionSet.of({Y: E.VInt(-1)})),
    ]
    tree = InterventionValue(Y, inverse)
    assert per_case(tree, guarded) is not None
    assert_column_matches(tree, guarded)
    # ... and a missing one raises only where it is needed
    assert_column_matches(InterventionValue(Y), guarded)
    assert_column_matches(IfThenElse(IsIntervened(Y), InterventionValue(Y), iconst(3)), guarded)


def test_guards_and_conditions_must_be_booleans():
    rows = rows_over(X, INTS)
    for tree in (
        IfThenElse(Ref(X), iconst(1), iconst(2)),
        CaseList(((Ref(X), iconst(1)),), iconst(2)),
        Unary("not", Ref(X)),
    ):
        assert per_case(tree, rows) is None
        assert_column_matches(tree, rows)


def test_int_division_floors_and_mixed_division_is_real():
    ints = rows_over(X, [E.VInt(i) for i in (-7, -1, 1, 2, 7)])
    reals = rows_over(X, REALS[:1] + REALS[3:])
    rows = ints + reals
    for tree in (
        Binary("div", Ref(X), iconst(2)),
        Binary("div", iconst(-7), Ref(X)),
        Binary("div", Ref(X), rconst(2.0)),
        Binary("mod", Ref(X), iconst(3)),
    ):
        assert_column_agrees(tree, rows)
        # ints floor and a real on either side divides; mod of a real raises
        assert assert_column_agrees(tree, ints)
        assert assert_column_agrees(tree, reals) == (tree.op == "div")
        # an input of ints and reals has no column
        with pytest.raises(C.Unsupported):
            column_over(tree, rows)
    floor = column_over(Binary("div", iconst(-7), iconst(2)), rows[:1])
    assert column_values(floor) == ["VInt(i=-4)"]
    # division by a zero of either carrier raises
    for zeros in ([E.VInt(1), E.VReal(-0.0)], [E.VInt(1), E.VInt(0)], [E.VReal(1.0), E.VReal(-0.0)]):
        assert not assert_column_agrees(Binary("div", iconst(1), Ref(X)), rows_over(X, zeros))


def test_min_max_keep_the_operand_and_its_carrier():
    ints, reals = rows_over(X, INTS), rows_over(X, REALS + [E.VReal(1.0), E.VReal(math.nan)])
    rows = ints + reals
    for op in ("min", "max"):
        for left, right in ((Ref(X), iconst(1)), (rconst(1.0), Ref(X)), (Ref(X), rconst(-0.0))):
            tree = Binary(op, left, right)
            assert_column_agrees(tree, rows)
            with pytest.raises(C.Unsupported):
                column_over(tree, rows)
            # operands of one kind compute; an int and a real, whose result
            # may be either, decline
            int_constant = right == iconst(1)
            assert assert_column_agrees(tree, ints) == int_constant
            assert assert_column_agrees(tree, reals) == (not int_constant)
    # the per-case result is the operand of its own kind, which no column holds
    for tree, want in (
        (Binary("min", iconst(1), rconst(1.0)), "VInt(i=1)"),
        (Binary("max", rconst(1.0), iconst(1)), "VReal(r=1.0)"),
    ):
        assert reprs(per_case(tree, rows[:1])) == [want]
        assert not assert_column_agrees(tree, rows[:1])
        with pytest.raises(C.Unsupported):
            column_over(tree, rows[:1])


def test_real_zero_keeps_its_sign():
    rows = rows_over(X, REALS)
    for tree in (
        Unary("neg", Ref(X)),
        Binary("mul", rconst(-1.0), Ref(X)),
        Binary("min", Ref(X), rconst(0.0)),
        Binary("max", rconst(-0.0), Ref(X)),
        Binary("add", Ref(X), rconst(-0.0)),
    ):
        assert_column_matches(tree, rows)
    one = make_cases(rows[:1])
    assert column_values(C.column(Unary("neg", rconst(0.0)), *one)) == ["VReal(r=-0.0)"]


def test_nan_follows_the_per_case_comparisons():
    nan = E.VReal(math.nan)
    reals, ints = rows_over(X, [nan, E.VReal(1.0)]), rows_over(X, [E.VInt(2)])
    rows = reals + ints
    mixed = ("min", "max")  # an int and a real operand
    for tree in (
        Binary("eq", Ref(X), Ref(X)),
        Binary("lt", Ref(X), rconst(1.5)),
        Binary("le", rconst(1.5), Ref(X)),
        Binary("min", Ref(X), iconst(1)),
        Binary("max", iconst(1), Ref(X)),
        Binary("pow", Ref(X), rconst(0.0)),
        IfThenElse(Binary("lt", Ref(X), rconst(5.0)), iconst(1), iconst(0)),
    ):
        assert_column_agrees(tree, rows)
        with pytest.raises(C.Unsupported):
            column_over(tree, rows)
        # NaN compares on float64 columns as it does per case
        assert assert_column_agrees(tree, reals) == (getattr(tree, "op", None) not in mixed)
        # an int base has no power column
        assert assert_column_agrees(tree, ints) == (getattr(tree, "op", None) != "pow")


def test_integers_beyond_64_bits_stay_exact():
    big = [E.VInt(2**64 + 1), E.VInt(-(2**70)), E.VInt(2**53 + 1)]
    rows = rows_over(X, big)
    for tree in (
        Binary("add", Ref(X), Ref(X)),
        Binary("mul", Ref(X), iconst(3)),
        Binary("div", Ref(X), iconst(3)),
        Binary("mod", Ref(X), iconst(7)),
        Binary("eq", Ref(X), rconst(float(2**53))),
        Binary("lt", Ref(X), rconst(1e30)),
        Binary("pow", Ref(X), iconst(2)),
    ):
        # every row computes per case; an int past 2**53 has no column
        assert per_case(tree, rows) is not None
        assert not assert_column_agrees(tree, rows)
        with pytest.raises(C.Unsupported):
            column_over(tree, rows)
        # as one past 2**53 in a constant does
        with pytest.raises(C.Unsupported):
            column_over(E.substitute(tree, {X: E.Const(big[2])}), rows_over(Y, INTS))
    # past the float range the mixed operations raise, per case and by columns
    assert_column_agrees(Binary("add", Ref(X), rconst(1.0)), rows_over(X, [E.VInt(10**400)]))


def test_pow_with_negative_and_fractional_exponents():
    ints = rows_over(X, [E.VInt(i) for i in (-8, -2, 0, 2, 4)])
    reals = rows_over(X, [E.VReal(r) for r in (-8.0, 0.0, 2.25)])
    rows = ints + reals
    for exponent in (iconst(2), iconst(-1), iconst(0), rconst(0.5), rconst(-0.5), rconst(2.0), rconst(-1.0)):
        for tree in (Binary("pow", Ref(X), exponent), Binary("pow", exponent, Ref(X))):
            assert_column_agrees(tree, rows)
            for part in (ints, reals):
                # a real base computes wherever every case does; an int base declines
                computes = per_case(tree, part) is not None and kinds(tree.left, part) == {E.VReal}
                assert assert_column_agrees(tree, part) == computes, (tree, part)
                if per_case(tree, part) is not None and not computes:
                    with pytest.raises(C.Unsupported):
                        column_over(tree, part)
    # each erroring base alone: zero to a negative power, negative to a fraction
    for base, exponent in ((iconst(0), iconst(-1)), (rconst(0.0), rconst(-1.0)), (iconst(-8), rconst(0.5))):
        assert per_case(Binary("pow", base, exponent), rows[:1]) is None
        assert not assert_column_agrees(Binary("pow", base, exponent), rows[:1])


def test_eq_needs_comparable_kinds():
    rows = rows_over(B, [E.VBool(False), E.VBool(True)])
    for tree in (
        Binary("eq", Ref(B), iconst(1)),
        Binary("eq", iconst(0), Ref(B)),
        Binary("eq", Ref(B), rconst(1.0)),
        Binary("eq", Ref(B), sconst("true")),
    ):
        assert per_case(tree, rows) is None  # a bool is not an int here
        assert_column_matches(tree, rows)
    assert_column_matches(Binary("eq", Ref(B), bconst(True)), rows)
    assert_column_matches(Binary("eq", sconst("a"), sconst("a")), rows)
    assert_column_matches(Binary("eq", iconst(1), rconst(1.0)), rows)


def test_booleans_are_not_numbers():
    rows = rows_over(B, [E.VBool(False), E.VBool(True)])
    for tree in (
        Binary("add", Ref(B), iconst(1)),
        Binary("lt", Ref(B), iconst(1)),
        Binary("min", Ref(B), rconst(0.5)),
        Binary("mod", Ref(B), iconst(2)),
        Unary("neg", Ref(B)),
        MaxIntervenedIndex("S", Ref(B), iconst(0)),
    ):
        assert per_case(tree, rows) is None
        assert_column_matches(tree, rows)


def test_every_value_is_checked_against_its_domain():
    def model(domain, equation, atoms=()):
        return Scm(
            name="domains",
            endogenous=(EndoVar(Y, domain, equation),),
            exogenous=(ExoVar(X, IntDomain(0, 2), UniformFinite(tuple(E.VInt(i) for i in range(3)))),),
            interventions=InterventionSpace.power_set(atoms),
        )

    inputs = [{X: E.VInt(i)} for i in range(3)]
    empty = InterventionSet.empty()
    every = [(u, empty) for u in inputs]
    cases = [
        (model(IntDomain(0, 1), Binary("add", Ref(X), iconst(0))), every),
        (model(IntDomain(0, 2), Binary("lt", Ref(X), iconst(1))), every),
        (model(BoolDomain(), Ref(X)), every),
        (model(RealDomain(0.0, 1.5), Ref(X)), every),
        (model(RealDomain(None, 5.0), Binary("mul", Ref(X), rconst(3.0))), every),
        # a forced value is checked too
        (model(IntDomain(0, 2), Ref(X), [(Y, [E.VInt(7)])]), [(inputs[0], InterventionSet.of({Y: E.VInt(7)}))]),
        # and so is every input
        (model(IntDomain(0, 9), Ref(X)), [({X: E.VInt(5)}, empty)]),
        (model(IntDomain(0, 9), Ref(X)), [({X: E.VBool(True)}, empty)]),
    ]
    for scm, rows in cases:
        with pytest.raises(DomainError):
            for u, iv in rows:
                eval_scm(scm, u, iv, check_membership=False)
        with pytest.raises(C.Unsupported):
            C.plan_columns(scm.plan, cases_of(rows), frozenset({Y}))
    # values inside their domains pass, an int carrying a real included
    fine = model(RealDomain(0.0, 2.0), Ref(X))
    assert_model_columns(fine, every)


def test_intervention_queries_see_only_the_visible_atoms():
    S = [VarRef("S", i) for i in range(1, 6)]
    sets = [
        InterventionSet.empty(),
        InterventionSet.of({S[0]: E.VBool(True)}),
        InterventionSet.of({S[1]: E.VBool(False), S[3]: E.VBool(True)}),
        InterventionSet.of({S[2]: E.VBool(True), S[4]: E.VBool(False)}),
        InterventionSet.of({s: E.VBool(True) for s in S}),
    ]
    rows = [({X: E.VInt(i)}, iv) for i in (1, 3, 5) for iv in sets]
    trees = [
        ExistsIntervention("S"),
        ExistsIntervention("S", lo=2, hi=4),
        ExistsIntervention("S", value=E.VBool(True)),
        ExistsIntervention("S", hi=3, value=E.VBool(False)),
        MaxIntervenedIndex("S", Ref(X), iconst(-1)),
        MaxIntervenedIndex("S", iconst(5), Ref(X)),
        IfThenElse(IsIntervened(S[3]), InterventionValue(S[3]), bconst(False)),
        InterventionValue(S[1], Binary("lt", Ref(X), iconst(2))),
    ]
    for visible in (None, frozenset(S[1:4]), frozenset(S) - {S[3]}, frozenset()):
        for tree in trees:
            assert_column_matches(tree, rows, visible)


def test_clusters_see_their_own_atoms_minus_the_dropped_ones():
    # the dominoes closed form asks whether any stone of its cluster is forced
    entry = zoo.dominoes(6)
    cons = entry.reference_consolidated()
    rows = case_rows(entry.scm, 1)
    assert any(iv.has(VarRef("S", 1)) for _, iv in rows)  # an atom outside the cluster
    assert_consolidated_columns(cons, rows)
    for dropped in ({VarRef("S", 3)}, {VarRef("S", 1), VarRef("S", 6)}):
        assert_consolidated_columns(replace(cons, dropped_atom_vars=frozenset(dropped)), rows)
    # and the tool-wear closed form asks for the latest reset of its own stones
    entry = zoo.tool_wear(5)
    cons = entry.reference_consolidated()
    rows = case_rows(entry.scm, 2)
    assert_consolidated_columns(cons, rows)
    assert_consolidated_columns(replace(cons, dropped_atom_vars=frozenset({VarRef("S", 4)})), rows)


# ---------------------------------------------------------------------------
# Comparison, and the verdicts built on it
# ---------------------------------------------------------------------------


def has_column(values) -> bool:
    """Whether values have a column: all of one kind, ints within +-2**53."""
    return len({type(v) for v in values}) == 1 and all(abs(v.i) <= C.INT_LIMIT for v in values if type(v) is E.VInt)


def assert_first_disagreement(targets, base, cons, tolerance) -> bool:
    """`C.first_disagreement` on the target columns of two sides, rows of
    values per case, is the per-case comparison's first mismatch and
    largest deviation before it; or, where some target's values have no
    column, the columns decline.  Returns whether they computed."""
    worst, first = 0.0, None
    for k in range(len(base)):
        bad, dev = Q._first_mismatch(base[k], cons[k], tolerance)
        if bad is not None:
            first = k
            break
        worst = max(worst, dev)
    sides = [[[row[j] for row in side] for j in range(len(targets))] for side in (base, cons)]
    if not all(has_column(values) for side in sides for values in side):
        with pytest.raises(C.Unsupported):
            for side in sides:
                for values in side:
                    C.column_of([C.raw(v) for v in values])
        return False
    want, got = ({t: C.column_of([C.raw(v) for v in values]) for t, values in zip(targets, side)} for side in sides)
    assert C.first_disagreement(targets, want, got, tolerance, 0, len(base)) == (first, worst)
    if tolerance >= 0:  # a column compared with itself never disagrees
        assert C.first_disagreement(targets, want, want, tolerance, 0, len(base)) == (None, 0.0)
    return True


def test_first_disagreement_matches_the_per_case_comparison():
    import random

    pool = [
        E.VInt(0), E.VInt(1), E.VInt(2**70), E.VReal(0.0), E.VReal(-0.0), E.VReal(1.0),
        E.VReal(1.0 + 1e-12), E.VReal(1.5), E.VReal(math.nan), E.VReal(math.inf),
        E.VBool(True), E.VBool(False), E.VSym("a"), E.VSym("b"),
    ]
    rng = random.Random(5)
    targets = [VarRef("T", i) for i in range(3)]
    for _ in range(3000):
        n = rng.randint(1, 6)
        base = [[rng.choice(pool) for _ in targets] for _ in range(n)]
        cons = [[v if rng.random() < 0.7 else rng.choice(pool) for v in row] for row in base]
        tolerance = rng.choice([0.0, 1e-9, 0.7, -1.0])
        assert_first_disagreement(targets, base, cons, tolerance)
    # the same pool, one kind per target column and side: every draw computes
    kinds = [[v for v in pool if type(v) is kind and has_column([v])] for kind in (E.VInt, E.VReal, E.VBool, E.VSym)]
    rng = random.Random(6)
    for _ in range(3000):
        n = rng.randint(1, 6)
        base_columns, cons_columns = [], []
        for _ in targets:
            mine = rng.choice(kinds)
            theirs = mine if rng.random() < 0.7 else rng.choice(kinds)
            column = [rng.choice(mine) for _ in range(n)]
            base_columns.append(column)
            cons_columns.append([v if theirs is mine and rng.random() < 0.7 else rng.choice(theirs) for v in column])
        tolerance = rng.choice([0.0, 1e-9, 0.7, -1.0])
        base, cons = [list(row) for row in zip(*base_columns)], [list(row) for row in zip(*cons_columns)]
        assert assert_first_disagreement(targets, base, cons, tolerance)


W, P, R = VarRef("W"), VarRef("P"), VarRef("R")


def declining_model() -> Scm:
    """A model none of whose equations has a column: `Y` has an int and a
    real branch, `Z` is the `max` of an int and a real, `P` an int power and
    `R` an int past 2**53."""
    big = IntDomain(-(2**80), 2**80)
    return Scm(
        name="declining",
        endogenous=(
            EndoVar(Y, RealDomain(), IfThenElse(Ref(B), Ref(X), rconst(0.5))),
            EndoVar(Z, RealDomain(), Binary("max", Ref(Y), rconst(-1.0))),
            EndoVar(P, IntDomain(0, 9), Binary("pow", Ref(X), iconst(2))),
            EndoVar(R, big, Binary("add", Ref(W), Ref(P))),
        ),
        exogenous=(
            ExoVar(X, IntDomain(-3, 3), UniformFinite((E.VInt(-3), E.VInt(0), E.VInt(2)))),
            ExoVar(B, BoolDomain(), UniformFinite((E.VBool(False), E.VBool(True)))),
            ExoVar(W, big, UniformFinite((E.VInt(2**64 + 1), E.VInt(-(2**70)), E.VInt(5)))),
        ),
        interventions=InterventionSpace.power_set([(Y, [E.VReal(1.5)]), (P, [E.VInt(4)])]),
    )


DECLINING_PARTITION = [[Y, Z], [P, R]]


def declining_checks() -> list:
    """(base, consolidated, targets, strategy) verifier checks of the
    declining model, a wrong closed form among them; asserts first that no
    equation has a column."""
    from scmc.consolidation import Ccv, attach_ccvs
    from scmc.partition import Partition

    scm = declining_model()
    rows = case_rows(scm, 1)
    outs = [eval_scm(scm, u, iv, check_membership=False) for u, iv in rows]
    for row in scm.endogenous:
        reads = E.free_refs(row.equation)
        env_rows = [({v: x for v, x in {**u, **out}.items() if v in reads}, iv) for (u, iv), out in zip(rows, outs)]
        assert not assert_column_agrees(row.equation, env_rows)
        with pytest.raises(C.Unsupported):
            column_over(row.equation, env_rows)
    targets = [Z, R]
    cons = consolidate(scm, Partition.of(DECLINING_PARTITION), targets)
    space = cons.clusters[1].sub.interventions
    wrong = attach_ccvs(cons, {1: Ccv((R,), {R: Binary("add", Ref(W), iconst(4))}, space, 1)})
    exhaustive, sampled = EquivalenceStrategy.exhaustive(), EquivalenceStrategy.sampled(count=64, seed=4)
    return [(scm, c, targets, s) for c in (cons, wrong) for s in (exhaustive, sampled)]


def loop_only(monkeypatch):
    """Make every column walk raise, so verdicts come from the per-case loop alone."""

    def unsupported(*args, **kwargs):
        raise C.Unsupported("disabled")

    monkeypatch.setattr(Q.C, "plan_columns", unsupported)


def test_reports_equal_the_per_case_loop(monkeypatch):
    checks = []
    for seed in range(40):
        scm = random_model(seed, max_endo=8, max_domain=4)
        cons = consolidate(scm, random_partition(scm, seed + 5), scm.endo_vars()[-2:])
        strategy = EquivalenceStrategy.sampled(count=64, seed=seed)
        checks.append((scm, cons, scm.endo_vars()[-2:], strategy))
        checks.append((scm, cons, scm.endo_vars()[-2:], EquivalenceStrategy.exhaustive(intervention_budget=512)))
    for entry in (zoo.dominoes(5), zoo.tool_wear(6), zoo.firing_squad(4)):
        sampled = EquivalenceStrategy.sampled(count=64, seed=2)
        checks.append((entry.scm, entry.consolidated(), entry.targets, sampled))
        checks.append((entry.scm, entry.reference_consolidated(), entry.targets, sampled))
    checks += declining_checks()
    # the broken rewrites of the verifier's mutation suite, in whole models
    from test_verification import BROKEN_REWRITES

    entry = zoo.step_by_step()
    good = entry.consolidated()
    for _, mutate in BROKEN_REWRITES:
        first, *rest = good.clusters  # cluster 0 computes F and G
        broken = replace(first, ccv=replace(first.ccv, rho=mutate(dict(first.ccv.rho))))
        cons = replace(good, clusters=(broken, *rest))
        checks.append((entry.scm, cons, entry.targets, EquivalenceStrategy.exhaustive()))
    by_columns = [verify_equivalence(*check) for check in checks]
    assert sum(r.verdict == "counterexample" for r in by_columns) >= len(BROKEN_REWRITES) + 2
    loop_only(monkeypatch)
    assert [verify_equivalence(*check) for check in checks] == by_columns


def test_equation_reads_are_worked_out_once_per_model(monkeypatch):
    entry = zoo.dominoes(128)
    cons = entry.consolidated()
    scm = replace(entry.scm)  # a copy whose reads are not worked out yet
    calls = []
    real = E.free_refs
    monkeypatch.setattr(E, "free_refs", lambda e: calls.append(e) or real(e))
    first = verify_equivalence(scm, cons, entry.targets)
    assert len(calls) == len(scm.endogenous)
    calls.clear()
    assert verify_equivalence(scm, cons, entry.targets) == first
    assert calls == []
    # every variable read leaves the scope once, after its last reader
    (steps,) = scm.plan.schedule(frozenset(entry.targets))
    dropped = [v for _, _, done in steps for v in done]
    read = set().union(*(real(row.equation) for row in scm.endogenous))
    assert len(dropped) == len(read) and set(dropped) == read


def partial_model(divisor: E.Expr) -> Scm:
    """`Y = 1 div divisor` with `X` in {0, 1}, and `Z = Y + 1`."""
    return Scm(
        name="partial",
        endogenous=(
            EndoVar(Y, IntDomain(-5, 5), Binary("div", iconst(1), divisor)),
            EndoVar(Z, IntDomain(-5, 6), Binary("add", Ref(Y), iconst(1))),
        ),
        exogenous=(ExoVar(X, IntDomain(0, 1), UniformFinite((E.VInt(0), E.VInt(1)))),),
        interventions=InterventionSpace.power_set([(Y, [E.VInt(1)])]),
    )


def test_partial_equations_raise_the_per_case_error(monkeypatch):
    from scmc.partition import Partition

    scm = partial_model(Ref(X))
    partition = Partition.of([[Y, Z]])
    with pytest.raises(DivisionByZeroError, match="^division by zero$"):
        consolidate(scm, partition, [Z])
    plain = consolidate(scm, partition, [Z], clusters_to_consolidate=set())
    with pytest.raises(DivisionByZeroError) as by_columns:
        verify_equivalence(scm, plain, [Z])
    loop_only(monkeypatch)
    with pytest.raises(DivisionByZeroError) as by_loop:
        verify_equivalence(scm, plain, [Z])
    assert str(by_columns.value) == str(by_loop.value) == "division by zero"


def test_a_counterexample_before_an_erroring_case_is_reported():
    from scmc.consolidation import Ccv, attach_ccvs
    from scmc.partition import Partition

    # Y = 1 div (1 - X): the case X = 1 raises, and comes after X = 0
    scm = partial_model(Binary("sub", iconst(1), Ref(X)))
    partition = Partition.of([[Y, Z]])
    plain = consolidate(scm, partition, [Z], clusters_to_consolidate=set())
    with pytest.raises(DivisionByZeroError):
        verify_equivalence(scm, plain, [Z])
    space = plain.clusters[0].sub.interventions
    wrong = attach_ccvs(plain, {0: Ccv((Z,), {Z: iconst(5)}, space, 0)})
    report = verify_equivalence(scm, wrong, [Z])
    assert report.verdict == "counterexample"
    assert report.cases_checked == 1
    assert report.counterexample.u == ((X, E.VInt(0)),)
    assert (report.counterexample.base_value, report.counterexample.ccv_value) == (E.VInt(2), E.VInt(5))
    # the gate keeps the same order: the mismatch on the first case wins
    sub = extract_sub_scm(scm, [Y, Z])
    inverse = Binary("div", iconst(1), Binary("sub", iconst(1), Ref(X)))
    built = Ccv((Z,), {Z: Binary("add", inverse, iconst(1))}, sub.interventions, 0)
    five = Ccv((Z,), {Z: iconst(5)}, sub.interventions, 0)
    gate = verify_pass(built, five, sub, EquivalenceStrategy.exhaustive())
    assert gate.verdict == "counterexample" and gate.cases_checked == 1
    with pytest.raises(DivisionByZeroError):
        verify_pass(built, built, sub, EquivalenceStrategy.exhaustive())


def test_gate_reports_equal_the_per_case_loop(monkeypatch):
    from test_verification import BROKEN_REWRITES
    from scmc.consolidation import Ccv, build_rho, run_passes

    entry = zoo.step_by_step()
    sub = extract_sub_scm(entry.scm, [VarRef("E"), VarRef("F"), VarRef("G")])
    built, _ = build_rho(sub, [VarRef("F"), VarRef("G")])
    good = run_passes(built, sub, PassConfig())
    broken = [Ccv(good.targets, m(dict(good.rho)), good.interventions, 0) for _, m in BROKEN_REWRITES]
    gates = [(sub, good, [good, built] + broken)]
    # the declining model's clusters, each with a wrong candidate
    scm = declining_model()
    for cluster, wrong in zip(DECLINING_PARTITION, ({Z: rconst(-1.0)}, {R: Binary("add", Ref(W), iconst(4))})):
        sub = extract_sub_scm(scm, cluster)
        built, _ = build_rho(sub, cluster[1:])
        good = run_passes(built, sub, PassConfig())
        gates.append((sub, good, [good, built, Ccv(good.targets, wrong, good.interventions, 0)]))
    strategies = [EquivalenceStrategy.exhaustive(), EquivalenceStrategy.sampled(count=40, seed=3)]

    def reports():
        return [verify_pass(good, c, sub, s) for sub, good, candidates in gates for s in strategies for c in candidates]

    by_columns = reports()
    assert sum(r.verdict == "counterexample" for r in by_columns) >= 2 * (len(BROKEN_REWRITES) + 2)
    loop_only(monkeypatch)
    assert reports() == by_columns


def test_gate_columns_match_eval_ccv():
    from scmc.consolidation import build_rho

    entry = zoo.platformer()
    for cluster in entry.partition.clusters:
        sub = extract_sub_scm(entry.scm, cluster)
        cases, _ = Q.GateMemo().cases(sub, Q.gate_strategy_for(sub, PassConfig()))
        ccv, _ = build_rho(sub, sorted(cluster, key=E.ref_sort_key))
        cols = C.plan_columns(ccv_plan(ccv, sub.local_exogenous), cases)
        want = [eval_ccv(ccv, env, iv) for env, iv in cases]
        for t in ccv.targets:
            assert column_values(cols[t]) == reprs(out[t] for out in want)


def bits(cols: dict) -> dict:
    """Each column's dtype and entries, a real zero with its sign."""
    return {v: (col.dtype, column_values(col)) for v, col in cols.items()}


@given(which=st.integers(min_value=0), seed=st.integers(0, 2**32 - 1))
def test_columns_from_before_match_the_per_case_oracle(which, seed):
    """`plan_columns(..., before=...)` gives each target the values that
    `oracle_run_plan` gives it case by case, or raises where some case
    raises, and does what it does without `before`; it hands on `before`'s
    own column for each row that is `before`'s own in a leading run."""
    clusters = reuse_clusters()
    sub, before = clusters[which % len(clusters)]
    after = shared_candidate(before, random.Random(seed))
    strategy = Q.gate_strategy_for(sub, PassConfig(gate_case_budget=256, gate_sample_count=24, seed=seed % 7))
    cases, _ = Q.GateMemo().cases(sub, strategy)
    plan = ccv_plan(after, sub.local_exogenous)
    try:
        want = C.plan_columns(ccv_plan(before, sub.local_exogenous), cases)
    except Exception:  # noqa: BLE001 - no columns to start from
        return
    got = outcome(lambda: bits(C.plan_columns(plan, cases, before=(before.rows, want))))
    assert got == outcome(lambda: bits(C.plan_columns(plan, cases)))
    if got.startswith("raises"):
        return
    cols = C.plan_columns(plan, cases, before=(before.rows, want))
    oracle = [oracle_run_plan(plan, u, iv) for u, iv in oracle_verifier_cases(sub_scm_as_scm(sub), strategy)]
    for t in after.targets:
        assert column_values(cols[t]) == reprs(out[t] for out in oracle)
    for (var, dom, tree), (bvar, bdom, btree) in zip(after.rows, before.rows):
        if (var, dom) != (bvar, bdom) or tree is not btree:
            break
        assert cols[var] is want[var]


def test_columns_from_before_keep_the_sign_of_zero():
    T1, T2 = VarRef("T", 1), VarRef("T", 2)
    scm = Scm(
        name="signed-zero",
        endogenous=(
            EndoVar(T1, RealDomain(), Binary("mul", Ref(X), rconst(0.0))),
            EndoVar(T2, RealDomain(), Binary("div", Ref(T1), rconst(-1.0))),
        ),
        exogenous=(ExoVar(X, RealDomain(), UniformFinite((E.VReal(0.5), E.VReal(1.5)))),),
        interventions=InterventionSpace.power_set([]),
    )
    sub = extract_sub_scm(scm, [T1, T2])
    cases, _ = Q.GateMemo().cases(sub, Q.gate_strategy_for(sub, PassConfig()))
    rho = {row.var: row.equation for row in scm.endogenous}
    before = Ccv((T1, T2), rho, sub.interventions, 0)
    want = C.plan_columns(ccv_plan(before, sub.local_exogenous), cases)
    assert column_values(want[T2]) == [repr(E.VReal(-0.0))] * 2
    # T1 is -0.0 on every case: equal to before's, not the same bits
    after = Ccv((T1, T2), {**rho, T1: rconst(-0.0)}, sub.interventions, 0)
    got = C.plan_columns(ccv_plan(after, sub.local_exogenous), cases, before=(before.rows, want))
    assert column_values(got[T2]) == [repr(E.VReal(0.0))] * 2
    # the same bits from another tree: before's own columns are handed on
    same = Ccv((T1, T2), {**rho, T1: Binary("mul", rconst(0.0), Ref(X))}, sub.interventions, 0)
    got = C.plan_columns(ccv_plan(same, sub.local_exogenous), cases, before=(before.rows, want))
    assert got[T1] is want[T1] and got[T2] is want[T2]

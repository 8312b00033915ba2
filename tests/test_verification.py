"""The equivalence oracle: exhaustive completeness, counterexamples, replay."""

import math
import random
import sys
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    oracle_gate,
    oracle_verifier_cases,
    outcome,
    random_model,
    random_partition,
    reuse_clusters,
    shared_candidate,
)
from scmc import documents as D
from scmc import expr as E
from scmc import verification as Q
from scmc import zoo
from scmc.consolidation import (
    Ccv,
    CcvCluster,
    PassConfig,
    attach_ccvs,
    build_rho,
    consolidate,
    eval_ccv,
    run_passes,
)
from scmc.errors import DivisionByZeroError, DomainError, InvalidParameterError, ModelTooDeepError
from scmc.expr import (
    Binary,
    Const,
    IfThenElse,
    IntDomain,
    IsIntervened,
    RealDomain,
    Ref,
    VarRef,
    bconst,
    bnot,
    iconst,
    rconst,
)
from scmc.partition import Partition, extract_sub_scm, sub_scm_as_scm
from scmc.scm import EndoVar, ExoVar, InterventionSet, InterventionSpace, Scm, UniformFinite, UniformReal
from scmc.verification import (
    EquivalenceStrategy,
    GateMemo,
    gate_strategy_for,
    local_case_count,
    replay_counterexample,
    sample_local_cases,
    verify_equivalence,
    verify_pass,
)


def reference_consolidated(entry):
    return entry.reference_consolidated()


class TestVerifyEquivalence:
    def test_dominoes_exhaustive_case_count(self):
        entry = zoo.dominoes(10)
        cons = reference_consolidated(entry)
        report = verify_equivalence(entry.scm, cons, entry.targets)
        assert report.equal
        # two push values times (twenty singleton interventions plus empty)
        assert report.cases_checked == 2 * 21

    def test_mutated_closed_form_yields_smallest_counterexample(self):
        entry = zoo.dominoes(10)
        # drop the existence branches: the mutant ignores interventions
        mutant = Ccv(
            entry.targets,
            {VarRef("S", 10): Ref(VarRef("S", 1))},
            entry.reference_ccvs[1].interventions,
            1,
        )
        cons = attach_ccvs(
            consolidate(entry.scm, entry.partition, entry.targets, set(), PassConfig(gate=False)),
            {1: mutant},
        )
        report = verify_equivalence(entry.scm, cons, entry.targets)
        assert report.verdict == "counterexample"
        cx = report.counterexample
        # base gives the forced value, the mutant follows the push
        assert cx.var == VarRef("S", 10)
        assert dict(cx.u)[VarRef("push")] == E.VBool(False)
        assert len(cx.interventions) == 1

    def test_identity_consolidation_is_equal(self):
        entry = zoo.step_by_step()
        cons = consolidate(entry.scm, entry.partition, entry.targets, set(), PassConfig(gate=False))
        report = verify_equivalence(entry.scm, cons, entry.targets)
        assert report.equal

    def test_exhaustive_visits_every_pair_once(self):
        entry = zoo.step_by_step()
        cons = entry.consolidated()
        report = verify_equivalence(entry.scm, cons, entry.targets)
        assert report.cases_checked == 21 * 4  # |inputs| x |intervention sets|

    def test_counterexample_replay_reproduces_values(self):
        entry = zoo.dominoes(6)
        mutant = Ccv(
            entry.targets,
            {VarRef("S", 6): Ref(VarRef("S", 1))},
            entry.reference_ccvs[1].interventions,
            1,
        )
        cons = attach_ccvs(
            consolidate(entry.scm, entry.partition, entry.targets, set(), PassConfig(gate=False)),
            {1: mutant},
        )
        report = verify_equivalence(entry.scm, cons, entry.targets)
        base_v, cons_v = replay_counterexample(entry.scm, cons, report.counterexample)
        assert base_v == report.counterexample.base_value
        assert cons_v == report.counterexample.ccv_value

    def test_sampled_mode_is_deterministic(self):
        entry = zoo.tool_wear(6, "sampled")
        cons = entry.consolidated()
        s = EquivalenceStrategy.sampled(count=64, seed=11)
        a = verify_equivalence(entry.scm, cons, entry.targets, s)
        b = verify_equivalence(entry.scm, cons, entry.targets, s)
        assert a.equal and b.equal
        assert a.cases_checked == b.cases_checked == 64
        assert a.max_abs_deviation == b.max_abs_deviation
        assert a.probabilistic

    def test_budget_overrun_is_inconclusive_not_truncated(self):
        entry = zoo.tool_wear(16)
        cons = entry.consolidated()
        report = verify_equivalence(
            entry.scm, cons, entry.targets, EquivalenceStrategy.exhaustive(intervention_budget=8)
        )
        assert report.verdict == "inconclusive"
        assert report.cases_checked == 0

    def test_joint_case_budget_is_inconclusive_before_any_case(self, monkeypatch):
        from scmc import verification as Q

        entry = zoo.dominoes(10)
        cons = reference_consolidated(entry)
        # 2 inputs x 21 sets = 42 cases; each axis alone fits a budget of 40
        strategy = EquivalenceStrategy.exhaustive(intervention_budget=40, exogenous_budget=40)

        def no_case(*args, **kwargs):
            raise AssertionError("a case was evaluated")

        monkeypatch.setattr(Q, "eval_scm", no_case)
        monkeypatch.setattr(Q, "eval_consolidated", no_case)
        report = verify_equivalence(entry.scm, cons, entry.targets, strategy)
        assert report.verdict == "inconclusive"
        assert report.cases_checked == 0
        assert "42 cases" in report.message
        monkeypatch.undo()
        fits = EquivalenceStrategy.exhaustive(intervention_budget=42, exogenous_budget=40)
        assert verify_equivalence(entry.scm, cons, entry.targets, fits).cases_checked == 42

    def test_continuous_inputs_make_exhaustive_inconclusive(self):
        entry = zoo.tool_wear(4, "sampled")
        cons = entry.consolidated()
        report = verify_equivalence(entry.scm, cons, entry.targets, EquivalenceStrategy.exhaustive())
        assert report.verdict == "inconclusive"


def count_evals(monkeypatch) -> tuple[list, list]:
    """What the gate evaluates from now on: one `(Ccv, variable, case)`
    entry per row evaluated, where `case` is the position of the case for a
    row evaluated on one case and None for a row evaluated by columns over
    the whole case list; and the Ccv of each column walk."""
    rows, walks = [], []
    real_plan, real_eval, real_rows = Q.ccv_plan, Q.run_plan, Q.run_rows
    real_walk, real_row, real_before = Q.C.plan_columns, Q.C._row_column, GateMemo.before_values
    #: the Ccv of each plan and of each row the gate made, by the object's id
    ccvs, owners = {}, {}
    case = [None]

    def planning(ccv, inputs):
        plan = real_plan(ccv, inputs)
        ccvs[id(plan)] = ccv
        owners.update((id(row), (row, ccv)) for row in ccv.rows)
        return plan

    def record(row, k):
        rows.append((owners[id(row)][1], row[0], k))

    def before_values(self, k, *args):
        case[0] = k  # the loop asks for `before`'s values first on each case
        return real_before(self, k, *args)

    def evaluating(plan, *args, **kwargs):
        for row in plan.clusters[0][2]:
            record(row, case[0])
        return real_eval(plan, *args, **kwargs)

    def running(some, *args, **kwargs):
        for row in some:
            record(row, case[0])
        return real_rows(some, *args, **kwargs)

    def walking(plan, *args, **kwargs):
        walks.append(ccvs.get(id(plan), plan))
        return real_walk(plan, *args, **kwargs)

    def column(scope, row):
        record(row, None)
        return real_row(scope, row)

    monkeypatch.setattr(Q, "ccv_plan", planning)
    monkeypatch.setattr(GateMemo, "before_values", before_values)
    monkeypatch.setattr(Q, "run_plan", evaluating)
    monkeypatch.setattr(Q, "run_rows", running)
    monkeypatch.setattr(Q.C, "plan_columns", walking)
    monkeypatch.setattr(Q.C, "_row_column", column)
    return rows, walks


def evaluated_once(rows: list) -> bool:
    """Whether `count_evals`'s rows hold no row of a Ccv evaluated twice on
    the same case, or twice by columns."""
    keys = [(id(ccv), var, k) for ccv, var, k in rows]
    return len(keys) == len(set(keys))


def test_sample_local_cases_matches_per_atom_stream():
    entry = zoo.tool_wear(6, "sampled")
    for cluster in entry.partition.clusters:
        sub = extract_sub_scm(entry.scm, cluster)
        for seed in (0, 3, 11):
            strategy = EquivalenceStrategy.sampled(count=50, seed=seed)
            assert sample_local_cases(sub, 50, seed)[:] == oracle_verifier_cases(sub_scm_as_scm(sub), strategy)


def test_half_bounded_real_inputs_are_drawn_inside_their_domain():
    X, Y = VarRef("X"), VarRef("Y")
    bounds = ((RealDomain(5.0, None), 5.0, 7.0), (RealDomain(None, 5.0), 3.0, 5.0), (RealDomain(), -1.0, 1.0))
    for dom, lo, hi in bounds:
        # X is a local input of Y's cluster without a distribution
        scm = Scm(
            "half_bounded",
            endogenous=(EndoVar(X, dom, rconst(lo)), EndoVar(Y, RealDomain(), Ref(X))),
            exogenous=(),
            interventions=InterventionSpace.power_set([]),
        )
        sub = extract_sub_scm(scm, [Y])
        for env, _ in sample_local_cases(sub, 200, 4):
            x = env[X].r
            assert lo <= x < hi and E.value_in_domain(E.VReal(x), dom)


def test_the_sampled_gate_folds_a_branch_a_half_bounded_input_never_takes():
    # X = U + 5 lies in [5, inf), so Y's branch on X < 5 is dead; the sampled
    # gate drew X from (1, 5] once and rejected every fold of it
    U, X, Y = VarRef("U"), VarRef("X"), VarRef("Y")
    scm = Scm(
        "half_bounded",
        endogenous=(
            EndoVar(X, RealDomain(5.0, None), Binary("add", Ref(U), rconst(5.0))),
            EndoVar(Y, RealDomain(), IfThenElse(Binary("lt", Ref(X), rconst(5.0)), rconst(1.0), rconst(2.0))),
        ),
        exogenous=(ExoVar(U, RealDomain(0.0, 1.0), UniformReal(0.0, 1.0)),),
        interventions=InterventionSpace.power_set([]),
    )
    cons = consolidate(scm, Partition.of([[X], [Y]]), [Y])
    assert cons.report.cluster_report(1).nodes_after == 1
    assert not cons.report.rejected
    assert verify_equivalence(scm, cons, [Y], EquivalenceStrategy.sampled(count=200, seed=3)).equal


class TestVerifyPass:
    def setup_method(self):
        self.entry = zoo.step_by_step()
        self.sub = extract_sub_scm(self.entry.scm, [VarRef("B"), VarRef("C")])
        ccv, _ = __import__("scmc.consolidation", fromlist=["build_rho"]).build_rho(
            self.sub, [VarRef("C")]
        )
        self.built = ccv

    def test_branch_prune_is_equal(self):
        # the two-valued chain makes the middle guard of the case list
        # unreachable; its removal is semantics-preserving
        collapsed = Ccv(
            (VarRef("C"),),
            {VarRef("C"): Binary("le", Ref(VarRef("A")), iconst(5))},
            self.built.interventions,
            1,
        )
        report = verify_pass(self.built, collapsed, self.sub, EquivalenceStrategy.exhaustive())
        assert report.equal
        assert report.cases_checked == 21  # inputs x the single local set

    def test_dropping_an_intervention_branch_is_caught(self):
        entry = zoo.step_by_step()
        sub = extract_sub_scm(entry.scm, [VarRef("E"), VarRef("F"), VarRef("G")])
        from scmc.consolidation import build_rho

        built, _ = build_rho(sub, [VarRef("F"), VarRef("G")])
        broken = Ccv(
            built.targets,
            {**built.rho, VarRef("G"): Binary("and", Ref(VarRef("F")), bconst(True))},
            built.interventions,
            0,
        )
        report = verify_pass(built, broken, sub, EquivalenceStrategy.exhaustive())
        assert report.verdict == "counterexample"
        assert report.counterexample.interventions == InterventionSet.of(
            {VarRef("G"): E.VBool(False)}
        )

    def test_noop_pass_is_equal(self):
        report = verify_pass(self.built, self.built, self.sub, EquivalenceStrategy.exhaustive())
        assert report.equal

    def test_gate_budget_is_inconclusive_before_any_case(self, monkeypatch):
        entry = zoo.step_by_step()
        sub = extract_sub_scm(entry.scm, [VarRef("E"), VarRef("F"), VarRef("G")])
        built, _ = build_rho(sub, [VarRef("F"), VarRef("G")])
        n = local_case_count(sub)
        assert n > 8
        rows, walks = count_evals(monkeypatch)
        small = EquivalenceStrategy.exhaustive(intervention_budget=8, exogenous_budget=8)
        report = verify_pass(built, built, sub, small)
        assert report.verdict == "inconclusive"
        assert report.cases_checked == 0
        assert f"{n} cases" in report.message
        assert rows == [] and walks == []
        # the larger of the two budgets applies, as in verify_equivalence
        fits = EquivalenceStrategy.exhaustive(intervention_budget=8, exogenous_budget=n)
        assert verify_pass(built, built, sub, fits).cases_checked == n

    def test_differing_target_sets_are_inconclusive(self):
        other = Ccv((VarRef("B"),), {VarRef("B"): iconst(0)}, self.built.interventions, 1)
        report = verify_pass(self.built, other, self.sub, EquivalenceStrategy.exhaustive())
        assert report.verdict == "inconclusive"


def test_a_negative_gate_sample_count_is_a_typed_error():
    entry = zoo.tool_wear(13)
    with pytest.raises(DomainError, match="count must be non-negative"):
        entry.consolidated(PassConfig(gate_sample_count=-5))


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf, -1.0, -1e-300, "0", True, None])
def test_a_tolerance_that_is_not_a_finite_number_at_least_zero_is_refused(tolerance):
    for build in (EquivalenceStrategy, EquivalenceStrategy.exhaustive, EquivalenceStrategy.sampled):
        with pytest.raises(InvalidParameterError, match="tolerance must be a finite number >= 0"):
            build(tolerance=tolerance)
    # the gate builds its strategy through `gate_strategy_for`, before any case
    entry = zoo.tool_wear(3)
    sub = extract_sub_scm(entry.scm, entry.partition.clusters[0])
    with pytest.raises(InvalidParameterError):
        gate_strategy_for(sub, PassConfig(tolerance=tolerance))
    with pytest.raises(InvalidParameterError):
        entry.consolidated(PassConfig(tolerance=tolerance))


def test_a_wrong_model_is_a_counterexample_at_every_tolerance_allowed():
    """Every target of `tool_wear(3)` replaced by 0.0 differs from the base
    model, in both modes, from a tolerance of 0 up to a large one."""
    entry = zoo.tool_wear(3)
    cons = entry.consolidated()
    zeroed = attach_ccvs(
        cons,
        {
            c.index: Ccv(c.ccv.targets, {v: rconst(0.0) for v in c.ccv.targets}, c.ccv.interventions, c.index)
            for c in cons.clusters
            if isinstance(c, CcvCluster)
        },
    )
    for tolerance in (0, 0.0, E.EPS_VAL, 1e-3):
        for strategy in (
            EquivalenceStrategy.exhaustive(tolerance=tolerance),
            EquivalenceStrategy.sampled(count=64, seed=3, tolerance=tolerance),
        ):
            assert verify_equivalence(entry.scm, zeroed, entry.targets, strategy).verdict == "counterexample"
            if tolerance:
                assert verify_equivalence(entry.scm, cons, entry.targets, strategy).equal


def test_a_check_of_no_case_is_never_equal():
    entry = zoo.tool_wear(6, "sampled")
    cons = entry.consolidated()
    report = verify_equivalence(entry.scm, cons, entry.targets, EquivalenceStrategy.sampled(count=0))
    assert report.verdict == "inconclusive" and report.cases_checked == 0 and report.message
    cluster = entry.partition.clusters[0]
    sub = extract_sub_scm(entry.scm, cluster)
    built, _ = build_rho(sub, sorted(cluster, key=E.ref_sort_key))
    report = verify_pass(built, built, sub, EquivalenceStrategy.sampled(count=0))
    assert report.verdict == "inconclusive" and report.cases_checked == 0 and report.message
    # a gate that checks no case accepts no rewrite
    config = PassConfig(gate_sample_count=0)
    assert gate_strategy_for(sub, config).mode == "sampled"
    report = entry.consolidated(config).report
    assert not report.passes and report.rejected
    assert all(entry.verdict == "inconclusive" for entry in report.rejected)


def test_the_gate_is_exhaustive_up_to_its_case_budget():
    entry = zoo.step_by_step()
    sub = extract_sub_scm(entry.scm, [VarRef("E"), VarRef("F"), VarRef("G")])
    built, _ = build_rho(sub, [VarRef("F"), VarRef("G")])
    n = local_case_count(sub)
    exhaustive = gate_strategy_for(sub, PassConfig(gate_case_budget=n))
    assert exhaustive.mode == "exhaustive"
    assert verify_pass(built, built, sub, exhaustive).cases_checked == n
    sampled = gate_strategy_for(sub, PassConfig(gate_case_budget=n - 1, gate_sample_count=7))
    assert sampled.mode == "sampled"
    report = verify_pass(built, built, sub, sampled)
    assert report.probabilistic and report.cases_checked == 7


def test_an_exhaustive_gate_past_the_default_set_budget_checks_every_case():
    # 2 inputs x 4,501 intervention sets = 9,002 cases: more sets than the
    # default intervention budget of 4,096, fewer cases than the gate's budget
    U, X, Y = VarRef("U"), VarRef("X"), VarRef("Y")
    scm = Scm(
        "many_sets",
        endogenous=(
            EndoVar(X, IntDomain(0, 4499), IfThenElse(Ref(U), iconst(1), iconst(0))),
            EndoVar(Y, IntDomain(0, 4500), Binary("add", Ref(X), Binary("mul", iconst(0), Ref(X)))),
        ),
        exogenous=(ExoVar(U, E.BoolDomain(), UniformFinite((E.VBool(False), E.VBool(True)))),),
        interventions=InterventionSpace.singletons([(X, [E.VInt(i) for i in range(4500)])]),
    )
    sub = extract_sub_scm(scm, [X, Y])
    assert sub.interventions.size() == 4501 and local_case_count(sub) == 9002
    config = PassConfig(gate_case_budget=10_000)
    strategy = gate_strategy_for(sub, config)
    assert strategy.mode == "exhaustive"
    built, _ = build_rho(sub, [Y])
    report = verify_pass(built, built, sub, strategy)
    assert report.equal and report.cases_checked == 9002 and not report.probabilistic
    default_sets = EquivalenceStrategy.exhaustive(exogenous_budget=10_000)
    assert verify_pass(built, built, sub, default_sets).verdict == "inconclusive"
    cons = consolidate(scm, Partition.of([[X, Y]]), [Y], config=config)
    assert cons.report.passes and not cons.report.rejected
    assert all(entry.verdict == "equal" for entry in cons.report.passes)


BROKEN_REWRITES = [
    # (description, mutation of the walkthrough cluster-0 equations)
    ("swap branch arms", lambda rho: {**rho, VarRef("G"): IfThenElse(IsIntervened(VarRef("G")), Ref(VarRef("F")), bconst(False))}),
    ("drop intervention guard", lambda rho: {**rho, VarRef("G"): Ref(VarRef("F"))}),
    ("negate the guard", lambda rho: {**rho, VarRef("G"): IfThenElse(bnot(IsIntervened(VarRef("G"))), bconst(False), Ref(VarRef("F")))}),
    ("wrong modulus", lambda rho: {**rho, VarRef("F"): Binary("eq", Binary("mod", Ref(VarRef("A")), iconst(7)), iconst(0))}),
    ("off-by-one threshold", lambda rho: {**rho, VarRef("F"): Binary("eq", Binary("mod", Ref(VarRef("A")), iconst(10)), iconst(1))}),
    ("strict comparison", lambda rho: {**rho, VarRef("F"): Binary("lt", Binary("mod", Ref(VarRef("A")), iconst(10)), iconst(0))}),
    ("conjunction to disjunction", lambda rho: {**rho, VarRef("G"): IfThenElse(IsIntervened(VarRef("G")), bconst(False), Binary("or", Binary("eq", Binary("mod", Ref(VarRef("A")), iconst(5)), iconst(0)), Ref(VarRef("F"))))}),
    ("constant true", lambda rho: {**rho, VarRef("F"): bconst(True)}),
    ("constant false", lambda rho: {**rho, VarRef("G"): bconst(False)}),
    ("forced value inverted", lambda rho: {**rho, VarRef("G"): IfThenElse(IsIntervened(VarRef("G")), bconst(True), Ref(VarRef("F")))}),
]


class TestMutationSuite:
    def test_ten_broken_rewrites_all_yield_counterexamples(self):
        entry = zoo.step_by_step()
        sub = extract_sub_scm(entry.scm, [VarRef("E"), VarRef("F"), VarRef("G")])
        from scmc.consolidation import build_rho, run_passes

        built, _ = build_rho(sub, [VarRef("F"), VarRef("G")])
        good = run_passes(built, sub, PassConfig())
        assert len(BROKEN_REWRITES) >= 10
        for name, mutate in BROKEN_REWRITES:
            broken = Ccv(good.targets, mutate(dict(good.rho)), good.interventions, 0)
            report = verify_pass(good, broken, sub, EquivalenceStrategy.exhaustive())
            assert report.verdict == "counterexample", name
            replay = verify_pass(good, broken, sub, EquivalenceStrategy.exhaustive())
            assert replay.counterexample == report.counterexample, name


class TestGateMemo:
    def walkthrough_cluster(self):
        entry = zoo.step_by_step()
        sub = extract_sub_scm(entry.scm, [VarRef("E"), VarRef("F"), VarRef("G")])
        built, _ = build_rho(sub, [VarRef("F"), VarRef("G")])
        good = run_passes(built, sub, PassConfig())
        candidates = [good, built] + [
            Ccv(good.targets, mutate(dict(good.rho)), good.interventions, 0) for _, mutate in BROKEN_REWRITES
        ]
        return sub, good, candidates

    def test_shared_memo_matches_fresh_calls(self):
        sub, good, candidates = self.walkthrough_cluster()
        strategies = [EquivalenceStrategy.exhaustive(), EquivalenceStrategy.sampled(count=40, seed=3)]
        for strategy in strategies:
            memo = GateMemo()
            for after in candidates + candidates[::-1]:
                shared = verify_pass(good, after, sub, strategy, memo)
                fresh = verify_pass(good, after, sub, strategy)
                assert shared == fresh
                assert shared.cases_checked > 0
            verdicts = [verify_pass(good, c, sub, strategy, memo).verdict for c in candidates]
            assert verdicts.count("counterexample") == len(BROKEN_REWRITES)

    def test_sampled_gate_over_real_arithmetic(self):
        entry = zoo.tool_wear(6, "sampled")
        cluster = entry.partition.clusters[0]
        sub = extract_sub_scm(entry.scm, cluster)
        built, _ = build_rho(sub, sorted(cluster, key=E.ref_sort_key))
        config = PassConfig(gate_sample_count=32)
        strategy = gate_strategy_for(sub, config)
        assert strategy.mode == "sampled"
        first = built.targets[0]
        nudged = Ccv(
            built.targets,
            {**built.rho, first: Binary("add", built.rho[first], E.rconst(1e-12))},
            built.interventions,
            0,
        )
        memo = GateMemo()
        for after in [built, nudged, run_passes(built, sub, config)]:
            assert verify_pass(built, after, sub, strategy, memo) == verify_pass(built, after, sub, strategy)
        assert verify_pass(built, nudged, sub, strategy, memo).max_abs_deviation > 0

    def test_memo_resets_when_before_changes(self):
        sub, good, candidates = self.walkthrough_cluster()
        strategy = EquivalenceStrategy.exhaustive()
        broken = candidates[-1]
        memo = GateMemo()
        assert verify_pass(good, good, sub, strategy, memo).equal
        # a memo that kept good's values would call this equal
        swapped = verify_pass(broken, good, sub, strategy, memo)
        assert swapped.verdict == "counterexample"
        assert swapped == verify_pass(broken, good, sub, strategy)
        assert verify_pass(good, broken, sub, strategy, memo) == verify_pass(good, broken, sub, strategy)

    def test_earlier_mismatch_wins_over_later_error_in_before(self):
        X, T = VarRef("X"), VarRef("T")
        scm = Scm(
            name="late-error",
            endogenous=(EndoVar(T, IntDomain(-1, 1), Ref(X)),),
            exogenous=(ExoVar(X, IntDomain(0, 3), UniformFinite(tuple(E.VInt(i) for i in range(4)))),),
            interventions=InterventionSpace.power_set([]),
        )
        sub = extract_sub_scm(scm, [T])
        space = sub.interventions
        # raises on the last case only, X = 3
        before = Ccv((T,), {T: Binary("div", iconst(1), Binary("sub", iconst(3), Ref(X)))}, space, 0)
        same_trees = Ccv((T,), {T: Binary("div", iconst(1), Binary("sub", iconst(3), Ref(X)))}, space, 0)
        first_case_differs = Ccv((T,), {T: iconst(5)}, space, 0)
        strategy = EquivalenceStrategy.exhaustive()
        memo = GateMemo()
        with pytest.raises(DivisionByZeroError):
            verify_pass(before, same_trees, sub, strategy, memo)
        for m in (memo, None):
            report = verify_pass(before, first_case_differs, sub, strategy, m)
            assert report.verdict == "counterexample"
            assert report.cases_checked == 1
            assert report.counterexample.u == ((X, E.VInt(0)),)
            assert (report.counterexample.base_value, report.counterexample.ccv_value) == (E.VInt(0), E.VInt(5))
        with pytest.raises(DivisionByZeroError):
            verify_pass(before, same_trees, sub, strategy, memo)


    def test_accepted_candidate_is_not_evaluated_again(self, monkeypatch):
        sub, good, candidates = self.walkthrough_cluster()
        built = candidates[1]
        rows, walks = count_evals(monkeypatch)
        for strategy in (EquivalenceStrategy.exhaustive(), EquivalenceStrategy.sampled(count=40, seed=3)):
            memo = GateMemo()
            assert verify_pass(built, good, sub, strategy, memo).equal
            for after in candidates:
                fresh = verify_pass(good, after, sub, strategy)
                rows.clear()
                walks.clear()
                shared = verify_pass(good, after, sub, strategy, memo)
                # only `after` is evaluated: `good` left its columns behind
                assert all(c is after for c, _, _ in rows) and all(c is after for c in walks)
                assert len(walks) <= 1 and evaluated_once(rows)
                on_their_own = {k for _, _, k in rows if k is not None}
                assert on_their_own <= set(range(shared.cases_checked))
                if shared.equal:
                    # one walk settles every case after the leading ones
                    assert len(walks) == 1 and on_their_own <= set(range(Q._PROBE_CASES))
                    if any(after.rho[t] is not good.rho[t] for t in good.targets):
                        assert on_their_own == set(range(Q._PROBE_CASES))
                    else:
                        # `good` itself: every row is its own, so none is evaluated
                        assert rows == []
                assert shared == fresh

    def test_rejected_candidate_is_not_evaluated_again(self, monkeypatch):
        sub, good, candidates = self.walkthrough_cluster()
        broken = candidates[2:]
        rows, walks = count_evals(monkeypatch)
        for strategy in (EquivalenceStrategy.exhaustive(), EquivalenceStrategy.sampled(count=40, seed=3)):
            fresh = [verify_pass(good, b, sub, strategy) for b in broken]
            memo = GateMemo()
            first = [verify_pass(good, b, sub, strategy, memo, ("mutant", i)) for i, b in enumerate(broken)]
            rows.clear()
            walks.clear()
            again = [verify_pass(good, b, sub, strategy, memo, ("mutant", i)) for i, b in enumerate(broken)]
            assert rows == [] and walks == []
            assert again == first == fresh
            assert all(r.verdict == "counterexample" for r in again)
            # a new `before` forgets the rejections recorded against the old one
            assert verify_pass(candidates[1], good, sub, strategy, memo).equal
            rows.clear()
            walks.clear()
            assert verify_pass(good, broken[0], sub, strategy, memo, ("mutant", 0)) == fresh[0]
            assert rows and all(c is broken[0] for c, _, _ in rows) and all(c is broken[0] for c in walks)
            # the counterexample's own case is evaluated on its own
            assert {k for _, _, k in rows if k is not None} <= set(range(fresh[0].cases_checked))
            assert len(walks) <= 1 and evaluated_once(rows)

    def test_equal_comparing_candidates_keep_their_own_verdicts(self, monkeypatch):
        X, T = VarRef("X"), VarRef("T")
        scm = Scm(
            name="signed-zero",
            endogenous=(EndoVar(T, RealDomain(), Ref(X)),),
            exogenous=(ExoVar(X, IntDomain(0, 1), UniformFinite((E.VInt(0), E.VInt(1)))),),
            interventions=InterventionSpace.power_set([]),
        )
        sub = extract_sub_scm(scm, [T])
        space = sub.interventions
        before = Ccv((T,), {T: rconst(1.0)}, space, 0)
        plus = Ccv((T,), {T: Const(E.VReal(0.0))}, space, 0)
        minus = Ccv((T,), {T: Const(E.VReal(-0.0))}, space, 0)
        assert plus == minus and hash(plus.rho[T]) == hash(minus.rho[T])
        strategy = EquivalenceStrategy.exhaustive()
        memo = GateMemo()
        rows, walks = count_evals(monkeypatch)
        assert verify_pass(before, plus, sub, strategy, memo, ("absorb", T, 0)).verdict == "counterexample"
        rows.clear()
        report = verify_pass(before, minus, sub, strategy, memo, ("absorb", T, 1))
        assert rows == [(minus, T, 0)] and walks == []
        assert math.copysign(1.0, report.counterexample.ccv_value.r) == -1.0
        assert str(report.counterexample) == str(verify_pass(before, minus, sub, strategy).counterexample)

    def test_rows_behind_a_clean_prefix_are_not_evaluated(self, monkeypatch):
        """A row of `after` that is `before`'s own row, behind rows that were
        taken from `before` or evaluated to `before`'s very values, is never
        evaluated, on a case of its own or by columns."""
        sub, good, _ = self.walkthrough_cluster()
        F, G = good.targets
        assert F in E.free_refs(good.rho[G])
        rows, walks = count_evals(monkeypatch)
        # G changed: F, in front of it, is good's own row
        last = Ccv(good.targets, {**good.rho, G: bnot(bnot(good.rho[G]))}, good.interventions, 0)
        # F changed, to a tree with good's values on every case: G comes after
        # a clean row, so it is good's own too
        first = Ccv(good.targets, {**good.rho, F: bnot(bnot(good.rho[F]))}, good.interventions, 0)
        # F changed to other values: G reads them, so it is evaluated
        wrong = Ccv(good.targets, {**good.rho, F: bnot(good.rho[F])}, good.interventions, 0)
        for strategy in (EquivalenceStrategy.exhaustive(), EquivalenceStrategy.sampled(count=40, seed=3)):
            memo = GateMemo()
            assert verify_pass(good, good, sub, strategy, memo).equal
            for after, evaluated in ((last, {G}), (first, {F}), (wrong, {F, G})):
                fresh = verify_pass(good, after, sub, strategy)
                rows.clear()
                walks.clear()
                report = verify_pass(good, after, sub, strategy, memo)
                assert report == fresh
                assert report.equal == (after is not wrong)
                assert {var for _, var, _ in rows} == evaluated
                if report.equal:
                    # evaluated once on the probe case and once by columns
                    assert sorted(rows, key=str) == sorted(
                        [(after, v, k) for v in evaluated for k in range(Q._PROBE_CASES)]
                        + [(after, v, None) for v in evaluated],
                        key=str,
                    )

    def test_carried_values_keep_the_sign_of_zero(self):
        X, T = VarRef("X"), VarRef("T")
        scm = Scm(
            name="signed-zero",
            endogenous=(EndoVar(T, RealDomain(), Ref(X)),),
            exogenous=(ExoVar(X, IntDomain(0, 1), UniformFinite((E.VInt(0), E.VInt(1)))),),
            interventions=InterventionSpace.power_set([]),
        )
        sub = extract_sub_scm(scm, [T])
        space = sub.interventions
        negative = Ccv((T,), {T: Binary("mul", rconst(-1.0), rconst(0.0))}, space, 0)
        positive = Ccv((T,), {T: rconst(0.0)}, space, 0)
        other = Ccv((T,), {T: rconst(5.0)}, space, 0)
        strategy = EquivalenceStrategy.exhaustive()
        memo = GateMemo()
        assert verify_pass(negative, positive, sub, strategy, memo).equal
        shared = verify_pass(positive, other, sub, strategy, memo)
        fresh = verify_pass(positive, other, sub, strategy)
        assert str(shared.counterexample) == str(fresh.counterexample)
        assert math.copysign(1.0, shared.counterexample.base_value.r) == 1.0

    def test_raising_candidate_records_no_verdict(self):
        X, T = VarRef("X"), VarRef("T")
        scm = Scm(
            name="late-error",
            endogenous=(EndoVar(T, IntDomain(-1, 1), Ref(X)),),
            exogenous=(ExoVar(X, IntDomain(0, 3), UniformFinite(tuple(E.VInt(i) for i in range(4)))),),
            interventions=InterventionSpace.power_set([]),
        )
        sub = extract_sub_scm(scm, [T])
        space = sub.interventions
        before = Ccv((T,), {T: iconst(0)}, space, 0)
        # agrees on X = 0..2, raises on the last case only
        late_error = Ccv((T,), {T: Binary("div", iconst(0), Binary("sub", iconst(3), Ref(X)))}, space, 0)
        strategy = EquivalenceStrategy.exhaustive()
        memo = GateMemo()
        for _ in range(2):
            with pytest.raises(DivisionByZeroError):
                verify_pass(before, late_error, sub, strategy, memo, "late")
        # nor does it leave values behind for when it comes back as `before`
        with pytest.raises(DivisionByZeroError):
            verify_pass(late_error, before, sub, strategy, memo)

    def test_run_passes_matches_fresh_gate_calls(self, monkeypatch):
        """Consolidation with the shared memo gives the same trees and logs as
        with a fresh `verify_pass` per candidate, from fewer evaluations."""
        entry = zoo.firing_squad(8)

        def run():
            cons = consolidate(entry.scm, entry.partition, entry.targets, {1})
            return D.to_json(D.consolidated_to_doc(cons)), cons.report.passes, cons.report.rejected

        rows, walks = count_evals(monkeypatch)
        shared = run()
        shared_evals, shared_walks = len(rows), len(walks)
        real = Q.verify_pass
        monkeypatch.setattr(
            Q, "verify_pass", lambda before, after, sub, strategy, memo=None, key=None: real(before, after, sub, strategy)
        )
        rows.clear()
        walks.clear()
        fresh = run()
        assert shared == fresh
        assert [e.pass_name for e in shared[2]].count("absorb") > 0
        assert shared_evals < len(rows) and shared_walks < len(walks)


class TestReuse:
    """The gate takes `before`'s values for `after`'s rows that are
    `before`'s own, behind a clean prefix, and still reports what the
    per-case loop over both Ccvs reports."""

    @given(which=st.integers(min_value=0), seed=st.integers(0, 2**32 - 1))
    def test_gate_matches_the_per_case_oracle(self, which, seed):
        clusters = reuse_clusters()
        sub, before = clusters[which % len(clusters)]
        after = shared_candidate(before, random.Random(seed))
        strategy = gate_strategy_for(sub, PassConfig(gate_case_budget=256, gate_sample_count=24, seed=seed % 7))
        want = outcome(lambda: oracle_gate(before, after, sub, strategy))
        assert outcome(lambda: verify_pass(before, after, sub, strategy)) == want
        memo = GateMemo()
        # with `before`'s values kept from an earlier call, per case or by columns
        outcome(lambda: verify_pass(before, before, sub, strategy, memo))
        assert outcome(lambda: verify_pass(before, after, sub, strategy, memo, "after")) == want
        assert outcome(lambda: verify_pass(before, after, sub, strategy, memo, "after")) == want

    def chain(self, *trees, order=None):
        """A one-cluster model whose targets T1, T2, ... read the real input
        X and the targets before them, with the Ccv of `trees`, and a
        function making Ccvs of that cluster."""
        X = VarRef("X")
        targets = tuple(VarRef("T", i + 1) for i in range(len(trees)))
        scm = Scm(
            name="chain",
            endogenous=tuple(EndoVar(t, RealDomain(), tree) for t, tree in zip(targets, trees)),
            exogenous=(ExoVar(X, RealDomain(), UniformFinite((E.VReal(0.5), E.VReal(1.5)))),),
            interventions=InterventionSpace.power_set([]),
        )
        sub = extract_sub_scm(scm, list(targets))

        def ccv(rho, order=targets):
            return Ccv(tuple(order), dict(zip(targets, rho)), sub.interventions, 0)

        return sub, ccv(trees), ccv

    def check(self, monkeypatch, before, after, sub, evaluated):
        """The gate's report on `after`, after asserting that it is the
        oracle's, with and without a memo, and that exactly the targets in
        `evaluated` are evaluated, on the probe case and by columns."""
        strategy = EquivalenceStrategy.exhaustive()
        want = outcome(lambda: oracle_gate(before, after, sub, strategy))
        rows, _ = count_evals(monkeypatch)
        memo = GateMemo()
        assert verify_pass(before, before, sub, strategy, memo).equal
        rows.clear()
        report = verify_pass(before, after, sub, strategy, memo)
        assert evaluated_once(rows)
        assert repr(report) == want == outcome(lambda: verify_pass(before, after, sub, strategy))
        assert {var for c, var, k in rows if c is after and k is not None} == set(evaluated)
        cases, before_columns = memo.columns()
        rows.clear()
        Q.C.plan_columns(Q.ccv_plan(after, sub.local_exogenous), cases, before=(before.rows, before_columns))
        assert {var for _, var, _ in rows} == set(evaluated) and evaluated_once(rows)
        return report

    def test_an_agreeing_row_scaled_past_tolerance(self, monkeypatch):
        X = Ref(VarRef("X"))
        sub, before, ccv = self.chain(X, Binary("mul", Ref(VarRef("T", 1)), rconst(1e12)))
        T1, T2 = before.targets
        # T1 moves by 1e-12, within tolerance; T2 scales the move to about 1
        after = ccv([Binary("add", X, rconst(1e-12)), before.rho[T2]])
        report = self.check(monkeypatch, before, after, sub, {T1, T2})
        assert report.verdict == "counterexample" and report.counterexample.var == T2

    def test_a_signed_zero_into_a_div(self, monkeypatch):
        X = Ref(VarRef("X"))
        sub, before, ccv = self.chain(Binary("mul", X, rconst(0.0)), Binary("div", Ref(VarRef("T", 1)), rconst(-1.0)))
        T1, T2 = before.targets
        # T1 is -0.0 instead of 0.0: equal, not the same bits, so T2 is evaluated
        after = ccv([rconst(-0.0), before.rho[T2]])
        assert self.check(monkeypatch, before, after, sub, {T1, T2}).equal
        # and a T1 with the same bits as before's leaves T2 alone
        same = ccv([Binary("mul", rconst(0.0), X), before.rho[T2]])
        assert self.check(monkeypatch, before, same, sub, {T1}).equal

    def test_a_nan_row(self, monkeypatch):
        X = Ref(VarRef("X"))
        sub, before, ccv = self.chain(X, Binary("lt", Ref(VarRef("T", 1)), rconst(1.0)))
        T1, T2 = before.targets
        # a NaN deviation never counts, so T1 agrees; T2 reads the NaN
        after = ccv([rconst(float("nan")), before.rho[T2]])
        report = self.check(monkeypatch, before, after, sub, {T1, T2})
        assert report.verdict == "counterexample" and report.counterexample.var == T2
        # a NaN in `before` too: never taken as the same value per case
        nan = ccv([Binary("mul", rconst(float("inf")), rconst(0.0)), before.rho[T2]])
        assert self.check(monkeypatch, nan, after, sub, {T1, T2}).equal

    def test_reordered_targets(self, monkeypatch):
        X = Ref(VarRef("X"))
        T1, T2, T3 = (Ref(VarRef("T", i)) for i in (1, 2, 3))
        amplified = Binary("mul", Binary("sub", T1, X), rconst(1e12))
        sub, before, ccv = self.chain(X, Binary("mul", X, rconst(2.0)), amplified)
        t1, t2, t3 = before.targets
        # T3 is before's own row at its own position, but behind rows that
        # moved: T1 agrees within tolerance, and T3 scales its move
        after = ccv([Binary("add", X, rconst(1e-12)), before.rho[t2], before.rho[t3]], order=(t2, t1, t3))
        report = self.check(monkeypatch, before, after, sub, {t1, t2, t3})
        assert report.verdict == "counterexample" and report.counterexample.var == t3
        # T2 reads T1 ahead of it: the error is the per-case loop's
        sub, before, ccv = self.chain(X, Binary("add", T1, X))
        unbound = ccv(list(before.rho.values()), order=before.targets[::-1])
        want = outcome(lambda: oracle_gate(before, unbound, sub, EquivalenceStrategy.exhaustive()))
        assert want.startswith("raises UnboundRefError")
        assert outcome(lambda: verify_pass(before, unbound, sub, EquivalenceStrategy.exhaustive())) == want


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_too_deep_model_is_a_typed_error():
    """The consolidated dominoes(400) nests 400 levels.  With fewer frames
    left, walking its tree (`eval_ccv`) raises ModelTooDeepError, not
    RecursionError.  The verifier still checks every case: where its columns
    run out of frames, its per-case loop runs the generated code, which does
    not recurse."""
    entry = zoo.dominoes(400)
    old_limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(4000)
        cons = consolidate(entry.scm, entry.partition, entry.targets)
        cluster = next(c for c in cons.clusters if isinstance(c, CcvCluster) and c.ccv.targets == entry.targets)
        local_u = {v: E.VBool(True) for v in cluster.sub.local_exogenous}
        sys.setrecursionlimit(_stack_depth() + 200)
        with pytest.raises(ModelTooDeepError) as info:
            eval_ccv(cluster.ccv, local_u, InterventionSet.empty())
        report = verify_equivalence(entry.scm, cons, entry.targets)
    finally:
        sys.setrecursionlimit(old_limit)
    assert isinstance(info.value.__cause__, RecursionError)
    assert report.equal
    assert report == verify_equivalence(entry.scm, cons, entry.targets)


# ---------------------------------------------------------------------------
# Column blocks: the verifier's report does not depend on how its case list
# is cut into blocks
# ---------------------------------------------------------------------------

K, Y, Z = VarRef("K"), VarRef("Y"), VarRef("Z")
BIG = 2**51


def overflowing_checks() -> list:
    """Verifier checks of `Y = K * 2**51`, `Z = Y div 2**51` over K in 0..7,
    four sets per K: from K = 5 on, `Y` is past 2**53, so the columns of a
    block that holds such a case decline part-way through the list.  The
    right consolidation, then wrong ones that disagree first on K = 2, 5
    and 7, each exhaustive and sampled."""
    scm = Scm(
        name="overflowing",
        endogenous=(
            EndoVar(Y, IntDomain(0, 8 * BIG), Binary("mul", Ref(K), iconst(BIG))),
            EndoVar(Z, IntDomain(0, 9), Binary("div", Ref(Y), iconst(BIG))),
        ),
        exogenous=(ExoVar(K, IntDomain(0, 7), UniformFinite(tuple(E.VInt(k) for k in range(8)))),),
        interventions=InterventionSpace.power_set([(Y, [E.VInt(3 * BIG)]), (Z, [E.VInt(1)])]),
    )
    cons = consolidate(scm, Partition.of([[Y, Z]]), [Z])
    (cluster,) = [c for c in cons.clusters if isinstance(c, CcvCluster)]
    variants = [cons]
    for k in (2, 5, 7):
        wrong = IfThenElse(Binary("eq", Ref(K), iconst(k)), iconst(0), cluster.ccv.rho[Z])
        variants.append(attach_ccvs(cons, {cluster.index: Ccv((Z,), {Z: wrong}, cluster.ccv.interventions, 0)}))
    strategies = [EquivalenceStrategy.exhaustive(), EquivalenceStrategy.sampled(count=40, seed=5)]
    return [(scm, c, [Z], s) for c in variants for s in strategies]


def zero_variant(cons):
    """`cons` with the last target of its first consolidated cluster
    replaced by -0.0: a counterexample whose value keeps its sign."""
    cluster = next(c for c in cons.clusters if isinstance(c, CcvCluster))
    ccv = cluster.ccv
    rho = {**ccv.rho, ccv.targets[-1]: rconst(-0.0)}
    return attach_ccvs(cons, {cluster.index: Ccv(ccv.targets, rho, ccv.interventions, 0)})


def block_checks() -> list:
    """Verifier checks of zoo models, with broken variants, and of random
    models, then of models whose columns decline part-way through the list
    or from its start, and of one whose cases raise."""
    from test_cases import broken_variants
    from test_columns import declining_checks, partial_model

    exhaustive, sampled = EquivalenceStrategy.exhaustive(), EquivalenceStrategy.sampled(count=64, seed=2)
    checks = []
    for entry in (zoo.dominoes(6), zoo.step_by_step(), zoo.firing_squad(4), zoo.tool_wear(6, "sampled")):
        for c in broken_variants(entry.consolidated(PassConfig(gate=False))):
            checks += [(entry.scm, c, entry.targets, exhaustive), (entry.scm, c, entry.targets, sampled)]
    entry = zoo.tool_wear(6, "sampled")
    checks.append((entry.scm, zero_variant(entry.consolidated()), entry.targets, sampled))
    # the broken rewrites of the mutation suite, in whole models
    entry = zoo.step_by_step()
    good = entry.consolidated()
    first, *rest = good.clusters  # cluster 0 computes F and G
    for _, mutate in BROKEN_REWRITES:
        broken = replace(first, ccv=replace(first.ccv, rho=mutate(dict(first.ccv.rho))))
        cons = replace(good, clusters=(broken, *rest))
        checks += [(entry.scm, cons, entry.targets, exhaustive), (entry.scm, cons, entry.targets, sampled)]
    for seed in range(8):
        scm = random_model(seed, max_endo=8, max_domain=4)
        targets = scm.endo_vars()[-2:]
        cons = consolidate(scm, random_partition(scm, seed + 5), targets)
        checks.append((scm, cons, targets, EquivalenceStrategy.exhaustive(intervention_budget=512)))
        checks.append((scm, cons, targets, EquivalenceStrategy.sampled(count=50, seed=seed)))
    checks += overflowing_checks() + declining_checks()
    scm = partial_model(Ref(VarRef("X")))
    plain = consolidate(scm, Partition.of([[Y, Z]]), [Z], clusters_to_consolidate=set())
    checks.append((scm, plain, [Z], exhaustive))
    return checks


def reports(checks) -> list[str]:
    """Each check's report as its repr, which shows the values with their
    classes and the sign of a real zero, or the type and message of the
    error it raised."""
    return [outcome(lambda c=c: verify_equivalence(*c)) for c in checks]


def test_reports_do_not_depend_on_the_block_size(monkeypatch):
    from test_columns import loop_only

    checks = block_checks()
    by_size = {}
    for size in (1, 7, 256, 4096):
        monkeypatch.setattr(Q, "_BLOCK_CASES", size)
        by_size[size] = reports(checks)
    monkeypatch.undo()
    want = reports(checks)
    for size, got in by_size.items():
        assert got == want, size
    assert sum("verdict='counterexample'" in r for r in want) >= 25
    assert sum("verdict='equal'" in r for r in want) >= 25
    assert any("ccv_value=VReal(r=-0.0)" in r for r in want)
    assert want[-1] == "raises DivisionByZeroError: division by zero"
    # the overflowing model: its base has columns up to K = 4, cases 0..19,
    # and none from there on; the right consolidation is equal, and each
    # wrong one fails on the first case with its K
    scm = overflowing_checks()[0][0]
    cases, _ = Q.verifier_cases(scm, EquivalenceStrategy.exhaustive())
    Q.C.plan_columns(scm.plan, cases.block(0, 20), frozenset([Z]))
    for lo in (20, 28):
        with pytest.raises(Q.C.Unsupported):
            Q.C.plan_columns(scm.plan, cases.block(lo, 32), frozenset([Z]))
    overflowing = reports(overflowing_checks())
    assert "verdict='equal'" in overflowing[0] and "verdict='equal'" in overflowing[1]
    for text, k in zip(overflowing[2::2], (2, 5, 7)):
        assert f"verdict='counterexample', cases_checked={4 * k + 1}," in text, text
    # and the per-case loop alone agrees
    loop_only(monkeypatch)
    assert reports(checks) == want

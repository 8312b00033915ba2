"""The equivalence oracle: exhaustive completeness, counterexamples, replay."""

import math
import sys

import pytest

from helpers import oracle_verifier_cases
from scmc import documents as D
from scmc import expr as E
from scmc import verification as Q
from scmc import zoo
from scmc.consolidation import (
    Ccv,
    PassConfig,
    attach_ccvs,
    build_rho,
    consolidate,
    run_passes,
)
from scmc.errors import DivisionByZeroError, DomainError, ModelTooDeepError
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
    """Every Ccv the gate evaluates from now on: one entry per case evaluated
    on its own, and one per column walk over the whole case list."""
    cases, walks = [], []
    real_plan, real_eval, real_walk = Q.ccv_plan, Q.run_plan, Q.C.plan_columns
    #: the Ccv of each plan the gate made, by the plan's id
    ccvs = {}

    def planning(ccv, inputs):
        plan = real_plan(ccv, inputs)
        ccvs[id(plan)] = ccv
        return plan

    def counting(plan, *args, **kwargs):
        cases.append(ccvs.get(id(plan), plan))
        return real_eval(plan, *args, **kwargs)

    def walking(plan, *args, **kwargs):
        walks.append(ccvs.get(id(plan), plan))
        return real_walk(plan, *args, **kwargs)

    monkeypatch.setattr(Q, "ccv_plan", planning)
    monkeypatch.setattr(Q, "run_plan", counting)
    monkeypatch.setattr(Q.C, "plan_columns", walking)
    return cases, walks


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
        seen, walks = count_evals(monkeypatch)
        small = EquivalenceStrategy.exhaustive(intervention_budget=8, exogenous_budget=8)
        report = verify_pass(built, built, sub, small)
        assert report.verdict == "inconclusive"
        assert report.cases_checked == 0
        assert f"{n} cases" in report.message
        assert seen == [] and walks == []
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
        seen, walks = count_evals(monkeypatch)
        for strategy in (EquivalenceStrategy.exhaustive(), EquivalenceStrategy.sampled(count=40, seed=3)):
            memo = GateMemo()
            assert verify_pass(built, good, sub, strategy, memo).equal
            for after in candidates:
                fresh = verify_pass(good, after, sub, strategy)
                seen.clear()
                walks.clear()
                shared = verify_pass(good, after, sub, strategy, memo)
                # only `after` is evaluated: `good` left its columns behind
                assert all(c is after for c in seen + walks)
                assert len(walks) <= 1 and len(seen) <= shared.cases_checked
                if shared.equal:
                    # one walk settles every case after the leading ones
                    assert len(walks) == 1 and len(seen) == Q._PROBE_CASES
                assert shared == fresh

    def test_rejected_candidate_is_not_evaluated_again(self, monkeypatch):
        sub, good, candidates = self.walkthrough_cluster()
        broken = candidates[2:]
        seen, walks = count_evals(monkeypatch)
        for strategy in (EquivalenceStrategy.exhaustive(), EquivalenceStrategy.sampled(count=40, seed=3)):
            fresh = [verify_pass(good, b, sub, strategy) for b in broken]
            memo = GateMemo()
            first = [verify_pass(good, b, sub, strategy, memo, ("mutant", i)) for i, b in enumerate(broken)]
            seen.clear()
            walks.clear()
            again = [verify_pass(good, b, sub, strategy, memo, ("mutant", i)) for i, b in enumerate(broken)]
            assert seen == [] and walks == []
            assert again == first == fresh
            assert all(r.verdict == "counterexample" for r in again)
            # a new `before` forgets the rejections recorded against the old one
            assert verify_pass(candidates[1], good, sub, strategy, memo).equal
            seen.clear()
            walks.clear()
            assert verify_pass(good, broken[0], sub, strategy, memo, ("mutant", 0)) == fresh[0]
            assert seen and all(c is broken[0] for c in seen + walks)
            # the counterexample's own case is evaluated on its own
            assert len(seen) <= fresh[0].cases_checked and len(walks) <= 1

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
        seen, walks = count_evals(monkeypatch)
        assert verify_pass(before, plus, sub, strategy, memo, ("absorb", T, 0)).verdict == "counterexample"
        seen.clear()
        report = verify_pass(before, minus, sub, strategy, memo, ("absorb", T, 1))
        assert seen == [minus] and walks == []
        assert math.copysign(1.0, report.counterexample.ccv_value.r) == -1.0
        assert str(report.counterexample) == str(verify_pass(before, minus, sub, strategy).counterexample)

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

        seen, walks = count_evals(monkeypatch)
        shared = run()
        shared_evals, shared_walks = len(seen), len(walks)
        real = Q.verify_pass
        monkeypatch.setattr(
            Q, "verify_pass", lambda before, after, sub, strategy, memo=None, key=None: real(before, after, sub, strategy)
        )
        seen.clear()
        walks.clear()
        fresh = run()
        assert shared == fresh
        assert [e.pass_name for e in shared[2]].count("absorb") > 0
        assert shared_evals < len(seen) and shared_walks < len(walks)


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_too_deep_model_is_a_typed_error():
    """The consolidated dominoes(400) nests 400 levels; evaluating it with
    fewer frames left raises ModelTooDeepError, not RecursionError."""
    entry = zoo.dominoes(400)
    old_limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(4000)
        cons = consolidate(entry.scm, entry.partition, entry.targets)
        sys.setrecursionlimit(_stack_depth() + 200)
        with pytest.raises(ModelTooDeepError) as info:
            verify_equivalence(entry.scm, cons, entry.targets)
    finally:
        sys.setrecursionlimit(old_limit)
    assert isinstance(info.value.__cause__, RecursionError)
    assert verify_equivalence(entry.scm, cons, entry.targets).equal

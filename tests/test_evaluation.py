"""Base and partitioned evaluation, exogenous sampling."""

import pytest

from helpers import (
    oracle_run_plan,
    outcome,
    random_intervention,
    random_model,
    random_partition,
    random_u,
    three_layer_example,
)
from scmc import expr as E
from scmc import zoo
from scmc.errors import DomainError, InterventionNotAllowedError, UnboundRefError
from scmc.evaluation import (
    enumerate_exogenous,
    eval_partitioned,
    eval_scm,
    make_rng,
    run_plan,
    sample_exogenous,
)
from scmc.expr import Binary, IntDomain, Ref, VarRef, iconst
from scmc.partition import Partition
from scmc.scm import InterventionSet, Plan, validate


class TestEvalScm:
    def test_domino_cascade(self):
        scm = zoo.dominoes(5).scm
        out = eval_scm(scm, {VarRef("push"): E.VBool(True)}, InterventionSet.empty())
        assert out[VarRef("S", 5)] == E.VBool(True)

    def test_tool_wear_reset_arithmetic(self):
        # hand derivation: two steps after the reset at day 12 the sharpness
        # has decayed twice by the expected retention factor
        scm = zoo.tool_wear(16).scm
        u = {VarRef("U", t): E.VReal(0.5) for t in range(1, 17)}
        iv = InterventionSet.of({VarRef("S", 12): E.VReal(1.0)})
        out = eval_scm(scm, u, iv)
        assert out[VarRef("S", 12)].r == 1.0
        assert abs(out[VarRef("S", 13)].r - 0.85) < 1e-12
        assert abs(out[VarRef("S", 14)].r - 0.85**2) < 1e-12
        assert abs(out[VarRef("S", 14)].r - 0.7225) < 1e-12

    def test_firing_squad_blocked(self):
        scm = zoo.firing_squad(3).scm
        u = {VarRef("order"): E.VBool(True)}
        iv = InterventionSet.of({VarRef("R", i): E.VBool(False) for i in (1, 2, 3)})
        assert eval_scm(scm, u, iv)[VarRef("P")] == E.VSym("lives")

    def test_intervention_overwrites_regardless_of_input(self):
        scm = zoo.dominoes(4).scm
        for push in (False, True):
            u = {VarRef("push"): E.VBool(push)}
            iv = InterventionSet.of({VarRef("S", 2): E.VBool(True)})
            out = eval_scm(scm, u, iv)
            assert out[VarRef("S", 2)] == E.VBool(True)
            assert out[VarRef("S", 4)] == E.VBool(True)

    def test_unknown_intervention_rejected(self):
        scm = zoo.step_by_step().scm
        with pytest.raises(InterventionNotAllowedError):
            eval_scm(scm, {VarRef("A"): E.VInt(0)}, InterventionSet.of({VarRef("B"): E.VInt(1)}))

    def test_missing_exogenous_binding(self):
        scm = zoo.dominoes(3).scm
        with pytest.raises(UnboundRefError):
            eval_scm(scm, {}, InterventionSet.empty())

    def test_out_of_domain_input_rejected(self):
        from scmc.errors import DomainError

        scm = zoo.step_by_step().scm
        with pytest.raises(DomainError):
            eval_scm(scm, {VarRef("A"): E.VInt(99)}, InterventionSet.empty())


class TestEvalPartitioned:
    def test_layered_example_agrees(self):
        scm, partition = three_layer_example()
        for u in enumerate_exogenous(scm):
            for iv in scm.interventions.enumerate():
                assert eval_partitioned(scm, partition, u, iv) == eval_scm(scm, u, iv)

    def test_singleton_partition_agrees(self):
        scm = zoo.step_by_step().scm
        singleton = Partition.of([[v] for v in scm.endo_vars()])
        for u in enumerate_exogenous(scm):
            for iv in scm.interventions.enumerate():
                assert eval_partitioned(scm, singleton, u, iv) == eval_scm(scm, u, iv)

    def test_random_trials_agree(self):
        agreed = 0
        for seed in range(200):
            scm = random_model(seed)
            if not validate(scm).ok:
                continue
            partition = random_partition(scm, seed * 7 + 1)
            u = random_u(scm, seed * 13 + 2)
            iv = random_intervention(scm, seed * 17 + 3)
            assert eval_partitioned(scm, partition, u, iv) == eval_scm(scm, u, iv)
            agreed += 1
        assert agreed >= 150

    def test_out_of_domain_input_rejected_as_eval_scm_rejects_it(self):
        entry = zoo.step_by_step()
        u = {VarRef("A"): E.VInt(25)}
        with pytest.raises(DomainError, match=r"input A=VInt\(i=25\) is outside its domain") as by_scm:
            eval_scm(entry.scm, u)
        with pytest.raises(DomainError) as by_clusters:
            eval_partitioned(entry.scm, entry.partition, u)
        assert str(by_clusters.value) == str(by_scm.value)

    def test_cluster_only_sees_its_own_interventions(self):
        # the projection drops the atom on G for the {D, H} cluster, so H
        # still follows its equation while G is forced inside its own cluster
        entry = zoo.step_by_step()
        u = {VarRef("A"): E.VInt(10)}
        iv = InterventionSet.of({VarRef("G"): E.VBool(False)})
        out = eval_partitioned(entry.scm, entry.partition, u, iv)
        assert out[VarRef("G")] == E.VBool(False)
        assert out[VarRef("H")] == E.VBool(False)  # C false, G forced false


class TestSampleExogenous:
    def test_point_mass_is_constant(self):
        scm = zoo.tool_wear(3).scm
        draws = sample_exogenous(scm, seed=1, count=3)
        for u in draws:
            assert u[VarRef("U", 1)] == E.VReal(0.5)

    def test_seeded_determinism(self):
        scm = zoo.tool_wear(3, "sampled").scm
        a = sample_exogenous(scm, seed=42, count=2)
        b = sample_exogenous(scm, seed=42, count=2)
        assert a == b
        c = sample_exogenous(scm, seed=43, count=2)
        assert a != c

    def test_uniform_finite_concentration(self):
        scm = zoo.dominoes(2).scm
        draws = sample_exogenous(scm, seed=5, count=10_000)
        mean = sum(1 for u in draws if u[VarRef("push")].b) / len(draws)
        assert abs(mean - 0.5) < 0.02

    def test_count_zero(self):
        assert sample_exogenous(zoo.dominoes(2).scm, 0, 0) == []

    def test_rng_is_counter_based_and_stable(self):
        rng = make_rng(2024)
        first = [float(rng.random()) for _ in range(3)]
        rng2 = make_rng(2024)
        assert [float(rng2.random()) for _ in range(3)] == first


def test_a_lone_cluster_on_the_plans_inputs_matches_the_oracle():
    """A plan whose only cluster reads exactly the plan's inputs runs it on
    the checked inputs as they stand; it returns and raises what
    `oracle_run_plan` does, with an input missing or outside its domain,
    under every atom or a few, and when the cluster reads fewer inputs."""
    X, Y, T1, T2 = VarRef("X"), VarRef("Y"), VarRef("T", 1), VarRef("T", 2)
    rows = (
        (T1, IntDomain(0, 5), Binary("add", Ref(X), Ref(Y))),
        (T2, None, Binary("mul", Ref(T1), iconst(2))),
    )
    inputs = ((X, IntDomain(0, 3)), (Y, None))
    plans = [
        Plan(inputs, (((Y, X), visible, rows),), (T2, T1)) for visible in (None, frozenset({T1}), frozenset())
    ]
    # a cluster that does not read Y: its tree's ref to Y is unbound
    plans.append(Plan(inputs, (((X,), None, rows),), (T2,)))
    us = [
        {X: E.VInt(1), Y: E.VInt(2)},
        {X: E.VInt(1)},  # Y missing
        {Y: E.VInt(2)},  # X missing
        {X: E.VInt(7), Y: E.VInt(0)},  # X outside its domain
        {X: E.VBool(True), Y: E.VInt(0)},  # X of another kind
        {X: E.VInt(3), Y: E.VInt(3)},  # T1 outside its domain
        {X: E.VInt(1), Y: E.VInt(2), T1: E.VInt(0)},  # an extra entry
    ]
    ivs = [InterventionSet.empty(), InterventionSet.of({T1: E.VInt(4)}), InterventionSet.of({T1: E.VInt(9)})]
    seen = set()
    for plan in plans:
        for u in us:
            for iv in ivs:
                want = outcome(lambda: oracle_run_plan(plan, dict(u), iv))
                given = dict(u)
                assert outcome(lambda: run_plan(plan, given, iv)) == want
                assert given == u
                seen.add(want.split(":")[0])
    assert seen >= {"raises UnboundRefError", "raises DomainError"} and any(not s.startswith("raises") for s in seen)

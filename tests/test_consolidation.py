"""Required sets, inlining, childless pruning, the pass pipeline, and the
end-to-end consolidation contract."""

import dataclasses
from dataclasses import replace

import pytest

from helpers import random_model, subtrees
from scmc import expr as E
from scmc import zoo
from scmc.consolidation import (
    Ccv,
    CcvCluster,
    PassConfig,
    PassthroughCluster,
    build_rho,
    compute_required_set,
    consolidate,
    eval_ccv,
    eval_consolidated,
    prune_childless,
    register_closed_form,
)
from scmc import consolidation as C
from scmc.errors import (
    DomainError,
    EmptySpaceError,
    EquivalenceFailedError,
    InterventionNotAllowedError,
    InvalidParameterError,
    InvalidPartitionError,
    InvalidTargetError,
    ModelTooDeepError,
    ScmcError,
    UnboundRefError,
)
from scmc.evaluation import enumerate_exogenous, eval_scm
from scmc.expr import (
    Binary,
    BoolDomain,
    IfThenElse,
    IntDomain,
    IsIntervened,
    Ref,
    VarRef,
    free_refs,
    iconst,
    node_count,
    rconst,
)
from scmc.partition import Partition, extract_sub_scm
from scmc.scm import (
    EndoVar,
    ExoVar,
    InterventionSet,
    InterventionSpace,
    Scm,
    UniformFinite,
    derive_graph,
    validate,
)
from scmc.verification import EquivalenceStrategy, verify_equivalence, verify_pass

A = VarRef("A")


def ccv_cluster(cons, index=None):
    for c in cons.clusters:
        if isinstance(c, CcvCluster) and (index is None or c.index == index):
            return c
    raise AssertionError("no ccv cluster")


class TestComputeRequiredSet:
    def test_walkthrough_first_cluster(self):
        entry = zoo.step_by_step()
        got = compute_required_set(
            {VarRef("E"), VarRef("F"), VarRef("G")}, entry.targets, entry.scm
        )
        assert got == {VarRef("F"), VarRef("G")}

    def test_last_cluster_keeps_itself(self):
        scm = zoo.dominoes(4).scm
        got = compute_required_set({VarRef("S", 4)}, [VarRef("S", 4)], scm)
        assert got == {VarRef("S", 4)}

    def test_cluster_with_outside_consumers(self):
        # one user-chosen variable plus two read by later variables
        x = [VarRef("x", i) for i in range(1, 8)]
        u = VarRef("u")
        endo = [
            EndoVar(x[0], BoolDomain(), Ref(u)),
            EndoVar(x[1], BoolDomain(), Ref(x[0])),   # chosen target
            EndoVar(x[2], BoolDomain(), Ref(x[0])),
            EndoVar(x[3], BoolDomain(), Ref(x[2])),   # read outside
            EndoVar(x[4], BoolDomain(), Ref(x[2])),   # read outside
            EndoVar(x[5], BoolDomain(), Ref(x[3])),
            EndoVar(x[6], BoolDomain(), Ref(x[4])),
        ]
        scm = Scm(
            "fan-out",
            tuple(endo),
            (ExoVar(u, BoolDomain(), UniformFinite((E.VBool(False), E.VBool(True)))),),
            InterventionSpace.power_set([]),
        )
        cluster = {x[0], x[1], x[2], x[3], x[4]}
        got = compute_required_set(cluster, [x[1]], scm)
        assert got == {x[1], x[3], x[4]}


class TestBuildRho:
    def test_walkthrough_inlining_matches_base_eval(self):
        entry = zoo.step_by_step()
        cluster = [VarRef("E"), VarRef("F"), VarRef("G")]
        sub = extract_sub_scm(entry.scm, cluster)
        ccv, _ = build_rho(sub, [VarRef("F"), VarRef("G")])
        for a in range(21):
            for iv in sub.interventions.enumerate():
                local = eval_ccv(ccv, {A: E.VInt(a)}, iv)
                base = eval_scm(entry.scm, {A: E.VInt(a)}, iv)
                assert local[VarRef("F")] == base[VarRef("F")]
                assert local[VarRef("G")] == base[VarRef("G")]

    def test_non_intervenable_single_variable_is_verbatim(self):
        entry = zoo.step_by_step()
        sub = extract_sub_scm(entry.scm, [VarRef("H")])
        ccv, _ = build_rho(sub, [VarRef("H")])
        assert ccv.rho[VarRef("H")] == entry.scm.equation_of(VarRef("H"))

    def test_domino_chain_nests_one_branch_per_stone(self):
        entry = zoo.dominoes(6)
        stones = [VarRef("S", i) for i in range(2, 7)]
        sub = extract_sub_scm(entry.scm, stones)
        ccv, _ = build_rho(sub, [VarRef("S", 6)])
        tree = ccv.rho[VarRef("S", 6)]
        branches = 0
        node = tree
        while isinstance(node, IfThenElse):
            assert isinstance(node.cond, IsIntervened)
            branches += 1
            node = node.orelse
        assert branches == 5
        assert node == Ref(VarRef("S", 1))
        # exhaustive equivalence over both pushes and every singleton set
        for push in (False, True):
            u = {VarRef("push"): E.VBool(push)}
            for iv in entry.scm.interventions.enumerate():
                base = eval_scm(entry.scm, u, iv)
                local = eval_ccv(ccv, {VarRef("S", 1): base[VarRef("S", 1)]}, iv.restrict(stones))
                assert local[VarRef("S", 6)] == base[VarRef("S", 6)]

    def test_rho_reads_only_local_inputs_and_targets(self):
        for build in (zoo.step_by_step, zoo.platformer, lambda: zoo.tool_wear(6)):
            entry = build()
            cons = entry.consolidated()
            for c in cons.clusters:
                if not isinstance(c, CcvCluster):
                    continue
                allowed = set(c.sub.local_exogenous) | set(c.ccv.targets)
                for tree in c.ccv.rho.values():
                    assert free_refs(tree) <= allowed

    def test_invalid_target(self):
        entry = zoo.step_by_step()
        sub = extract_sub_scm(entry.scm, [VarRef("H")])
        with pytest.raises(InvalidTargetError):
            build_rho(sub, [VarRef("C")])


class TestPruneChildless:
    def test_tool_wear_drops_length_and_accuracy(self):
        entry = zoo.tool_wear(6)
        pruned, removed, atom_vars = prune_childless(entry.scm, entry.targets)
        names = {v.name for v in removed}
        assert names == {"L", "A"}
        assert {v.name for v in atom_vars} == {"L"}
        assert {v.name for v in pruned.endo_vars()} == {"S"}
        assert all(v.name == "S" for v, _ in pruned.interventions.atoms)

    def test_walkthrough_drops_only_the_sink(self):
        entry = zoo.step_by_step()
        pruned, removed, atom_vars = prune_childless(entry.scm, entry.targets)
        assert removed == [VarRef("D")]
        assert atom_vars == [VarRef("D")]
        sets = pruned.interventions.enumerate()
        assert set(sets) == {
            InterventionSet.empty(),
            InterventionSet.of({VarRef("G"): E.VBool(False)}),
        }

    def test_all_ancestors_fixpoint(self):
        scm = zoo.dominoes(5).scm
        pruned, removed, _ = prune_childless(scm, [VarRef("S", 5)])
        assert removed == []
        assert pruned.endo_vars() == scm.endo_vars()

    def test_tool_wear_derives_the_graph_once(self, monkeypatch):
        from scmc import scm as S

        calls = []
        inner = S.derive_graph_unchecked

        def counting(scm):
            calls.append(1)
            return inner(scm)

        monkeypatch.setattr(S, "derive_graph_unchecked", counting)
        entry = zoo.tool_wear(36)
        prune_childless(entry.scm, entry.targets)
        assert len(calls) == 1

    def test_removal_order_is_layer_by_layer_in_model_order(self):
        """`removed` is persisted as `variables_marginalized`: its order is
        the one of dropping every current sink, round after round."""

        def by_rounds(scm, targets):
            alive = list(scm.endo_vars())
            removed = []
            while True:
                rows = tuple(r for r in scm.endogenous if r.var in alive)
                graph = derive_graph(replace(scm, endogenous=rows))
                sinks = [v for v in alive if v not in targets and not graph.children[v]]
                if not sinks:
                    return removed
                alive = [v for v in alive if v not in sinks]
                removed += sinks

        entry = zoo.tool_wear(6)
        cases = [(entry.scm, list(entry.targets))]
        for seed in range(60):
            scm = random_model(seed, max_endo=10)
            cases.append((scm, scm.endo_vars()[:1]))
        for scm, targets in cases:
            _, removed, _ = prune_childless(scm, targets)
            assert removed == by_rounds(scm, targets)

    def test_prune_preserves_surviving_values(self):
        for seed in range(40):
            scm = random_model(seed, max_endo=8)
            if not validate(scm).ok:
                continue
            targets = scm.endo_vars()[: max(1, len(scm.endo_vars()) // 3)]
            pruned, removed, _ = prune_childless(scm, targets)
            for u in enumerate_exogenous(scm, budget=256):
                for iv in pruned.interventions.enumerate(budget=64):
                    base = eval_scm(scm, u, iv)
                    after = eval_scm(pruned, u, iv)
                    for v in pruned.endo_vars():
                        assert base[v] == after[v]


class TestRunPasses:
    def test_inverse_pair_collapses_to_identity(self):
        X, Av, Bv = VarRef("X"), VarRef("a"), VarRef("b")
        scm = Scm(
            "inv-chain",
            endogenous=(
                EndoVar(Av, IntDomain(-99, 99), Binary("add", Ref(X), iconst(3))),
                EndoVar(Bv, IntDomain(-99, 99), Binary("sub", Ref(Av), iconst(3))),
            ),
            exogenous=(ExoVar(X, IntDomain(0, 5), UniformFinite(tuple(E.VInt(i) for i in range(6)))),),
            interventions=InterventionSpace.power_set([]),
            inverse_pairs=((Av, Bv),),
        )
        cons = consolidate(scm, Partition.of([[Av, Bv]]), [Bv])
        assert ccv_cluster(cons).ccv.rho[Bv] == Ref(X)

    def test_inverse_pair_keeps_intervention_branches(self):
        X, Av, Bv = VarRef("X"), VarRef("a"), VarRef("b")
        scm = Scm(
            "inv-chain-do",
            endogenous=(
                EndoVar(Av, IntDomain(-99, 99), Binary("add", Ref(X), iconst(3))),
                EndoVar(Bv, IntDomain(-99, 99), Binary("sub", Ref(Av), iconst(3))),
            ),
            exogenous=(ExoVar(X, IntDomain(0, 5), UniformFinite(tuple(E.VInt(i) for i in range(6)))),),
            interventions=InterventionSpace.singletons([(Av, [E.VInt(7)]), (Bv, [E.VInt(9)])]),
            inverse_pairs=((Av, Bv),),
        )
        cons = consolidate(scm, Partition.of([[Av, Bv]]), [Bv])
        tree = ccv_cluster(cons).ccv.rho[Bv]
        assert verify_equivalence(scm, cons, [Bv]).equal
        # identity with two guards: far below the inlined original
        assert node_count(tree) <= 9
        assert Ref(X) in subtrees(tree)

    def test_every_accepted_rewrite_was_gated_equal(self):
        entry = zoo.step_by_step()
        cons = entry.consolidated()
        assert cons.report.passes  # something fired
        assert all(p.verdict == "equal" for p in cons.report.passes)

    def test_pass_log_never_increases_node_count(self):
        for build in (zoo.step_by_step, zoo.platformer, lambda: zoo.tool_wear(8)):
            cons = build().consolidated()
            assert all(p.nodes_removed >= 0 for p in cons.report.passes)
            for c in cons.report.clusters:
                assert c.nodes_after <= c.nodes_before

    def test_disabled_passes_leave_trees_alone(self):
        entry = zoo.step_by_step()
        cons = entry.consolidated(PassConfig(passes=()))
        cluster = ccv_cluster(cons, 1)
        assert node_count(cluster.ccv.rho[VarRef("C")]) == 29
        assert verify_equivalence(entry.scm, cons, entry.targets).equal


class TestConsolidate:
    def test_walkthrough_final_forms(self):
        entry = zoo.step_by_step()
        cons = entry.consolidated()
        assert cons.report.variables_marginalized == [VarRef("D")]
        assert cons.report.atoms_dropped == [VarRef("D")]
        hand = {
            VarRef("F"): 5,
            VarRef("G"): 5,
            VarRef("C"): 3,
            VarRef("H"): 3,
        }
        for c in cons.clusters:
            assert isinstance(c, CcvCluster)
            for t in c.ccv.targets:
                assert node_count(c.ccv.rho[t]) <= hand[t]
        assert verify_equivalence(entry.scm, cons, entry.targets).equal

    def test_pipeline_matches_hand_forms_per_cluster(self):
        entry = zoo.step_by_step()
        cons = entry.consolidated()
        for c in cons.clusters:
            reference = entry.reference_ccvs[c.index]
            report = verify_pass(c.ccv, reference, c.sub, EquivalenceStrategy.exhaustive())
            assert report.equal

    def test_no_clusters_selected_gives_partitioned_model(self):
        entry = zoo.step_by_step()
        cons = consolidate(entry.scm, entry.partition, entry.targets, clusters_to_consolidate=set())
        assert all(isinstance(c, PassthroughCluster) for c in cons.clusters)
        for u in enumerate_exogenous(entry.scm):
            for iv in entry.scm.interventions.enumerate():
                out = eval_consolidated(cons, u, iv)
                base = eval_scm(entry.scm, u, iv)
                for v in cons.computed_vars():
                    assert out[v] == base[v]

    def test_platformer_oracle_equality_all_sets(self):
        entry = zoo.platformer()
        cons = entry.consolidated()
        report = verify_equivalence(entry.scm, cons, entry.targets)
        assert report.equal
        assert report.cases_checked == 8

    def test_partial_consolidation(self):
        entry = zoo.step_by_step()
        cons = consolidate(entry.scm, entry.partition, entry.targets, clusters_to_consolidate={0})
        kinds = {c.index: isinstance(c, CcvCluster) for c in cons.clusters}
        assert kinds[0] and not kinds[1] and not kinds[2]
        assert verify_equivalence(entry.scm, cons, entry.targets).equal

    def test_rejects_non_endogenous_target(self):
        entry = zoo.step_by_step()
        with pytest.raises(InvalidTargetError):
            consolidate(entry.scm, entry.partition, [VarRef("A")])

    def test_unknown_passes_and_cluster_indices_raise(self):
        entry = zoo.step_by_step()
        assert len(entry.partition.clusters) < 7
        with pytest.raises(InvalidParameterError, match="unknown pass 'fold_by_imge'"):
            consolidate(entry.scm, entry.partition, entry.targets, config=PassConfig(passes=("fold_by_imge",)))
        with pytest.raises(InvalidPartitionError, match=r"^no cluster with index \[7\]$"):
            consolidate(entry.scm, entry.partition, entry.targets, {1, 7})

    def test_dropped_atoms_are_projected_not_rejected(self):
        entry = zoo.step_by_step()
        cons = entry.consolidated()
        iv = InterventionSet.of({VarRef("D"): E.VBool(True)})
        out = eval_consolidated(cons, {A: E.VInt(10)}, iv)
        base = eval_scm(entry.scm, {A: E.VInt(10)}, iv)
        for v in cons.targets:
            assert out[v] == base[v]

    def test_foreign_intervention_rejected(self):
        entry = zoo.step_by_step()
        cons = entry.consolidated()
        with pytest.raises(InterventionNotAllowedError):
            eval_consolidated(cons, {A: E.VInt(0)}, InterventionSet.of({VarRef("B"): E.VInt(1)}))

    def test_query_checks_keep_their_messages(self):
        entry = zoo.step_by_step()
        cons = entry.consolidated()
        foreign = InterventionSet.of({VarRef("B"): E.VInt(1), VarRef("D"): E.VBool(True)})
        # the set is reported without the atoms on marginalized variables
        with pytest.raises(InterventionNotAllowedError, match=r"^\{do\(B=1\)\} is not in the allowed"):
            eval_consolidated(cons, {A: E.VInt(0)}, foreign)
        with pytest.raises(UnboundRefError, match="unbound reference: A"):
            eval_consolidated(cons, {}, InterventionSet.empty())
        with pytest.raises(DomainError, match="input A=VBool"):
            eval_consolidated(cons, {A: E.VBool(True)}, InterventionSet.empty())

    def test_membership_drops_marginalized_atoms_only_when_there_are_some(self, monkeypatch):
        entry = zoo.step_by_step()
        cons = consolidate(entry.scm, entry.partition, entry.targets, clusters_to_consolidate={0})
        D_, B_ = VarRef("D"), VarRef("B")
        assert cons.dropped_atom_vars == {D_}
        drops = []
        real = InterventionSet.drop
        monkeypatch.setattr(InterventionSet, "drop", lambda iv, gone: drops.append(iv) or real(iv, gone))
        for iv in entry.scm.interventions.enumerate():
            base = eval_scm(entry.scm, {A: E.VInt(2)}, iv)
            out = eval_consolidated(cons, {A: E.VInt(2)}, iv)
            assert all(out[v] == base[v] for v in cons.targets)
            assert drops == ([iv] if iv.has(D_) else [])
            drops.clear()
        for iv, kept in [
            (InterventionSet.of({B_: E.VInt(1)}), "{do(B=1)}"),
            (InterventionSet.of({B_: E.VInt(1), D_: E.VBool(True)}), "{do(B=1)}"),
        ]:
            with pytest.raises(InterventionNotAllowedError) as info:
                eval_consolidated(cons, {A: E.VInt(0)}, iv)
            assert str(info.value) == f"{kept} is not in the allowed intervention space"
            assert drops == ([iv] if iv.has(D_) else [])
            drops.clear()
        # a model that marginalizes nothing never drops
        entry = zoo.dominoes(6)
        cons = entry.consolidated()
        assert not cons.dropped_atom_vars
        for iv in entry.scm.interventions.enumerate():
            eval_consolidated(cons, {VarRef("push"): E.VBool(True)}, iv)
        assert drops == []

    def test_an_explicit_space_with_no_set_is_refused_before_any_cluster(self, monkeypatch):
        entry = zoo.platformer()
        scm = replace(entry.scm, interventions=InterventionSpace.explicit([]))
        assert validate(scm).kinds() == {"EmptySpace"}
        monkeypatch.setattr(C, "extract_sub_scm", lambda *a: pytest.fail("a cluster was built"))
        with pytest.raises(EmptySpaceError) as info:
            consolidate(scm, entry.partition, entry.targets)
        assert str(info.value) == str(validate(scm).findings[0].message)
        assert isinstance(info.value, ScmcError)

    def test_mixed_clusters_answer_as_the_base_under_every_set(self):
        # one consolidated cluster, two passthrough ones, dropped atoms
        entry = zoo.step_by_step()
        cons = consolidate(entry.scm, entry.partition, entry.targets, clusters_to_consolidate={0})
        assert cons.dropped_atom_vars
        for u in enumerate_exogenous(entry.scm):
            for iv in entry.scm.interventions.enumerate():
                out = eval_consolidated(cons, u, iv)
                base = eval_scm(entry.scm, u, iv)
                assert list(out) == cons.computed_vars()
                assert all(out[v] == base[v] for v in cons.targets)
        # the per-model plan is not a field: equality, repr and copies ignore it
        assert "plan" in vars(cons) and "plan" not in {f.name for f in dataclasses.fields(cons)}
        assert replace(cons) == cons and repr(replace(cons)) == repr(cons)


class TestRegisterClosedForm:
    def test_dominoes_accepted_exhaustively(self):
        entry = zoo.dominoes(10)
        verified = register_closed_form(
            entry.scm, entry.partition, entry.targets, 1, entry.reference_ccvs[1]
        )
        assert verified.report.equal
        assert verified.report.cases_checked == 42

    def test_tool_wear_accepted_within_tolerance(self):
        entry = zoo.tool_wear(36)
        verified = register_closed_form(
            entry.scm, entry.partition, entry.targets, 0, entry.reference_ccvs[0], entry.reference_strategy
        )
        assert verified.report.equal
        assert verified.report.max_abs_deviation <= 1e-9

    def test_wrong_decay_factor_rejected_at_day_one(self):
        entry = zoo.tool_wear(36)
        wrong_rho = {
            VarRef("S", t): Binary(
                "pow",
                rconst(0.8),
                Binary("sub", iconst(t), E.MaxIntervenedIndex("S", iconst(t), iconst(0))),
            )
            for t in range(1, 37)
        }
        bad = Ccv(entry.targets, wrong_rho, entry.reference_ccvs[0].interventions, 0)
        with pytest.raises(EquivalenceFailedError) as exc:
            register_closed_form(
                entry.scm, entry.partition, entry.targets, 0, bad, entry.reference_strategy
            )
        assert exc.value.report.counterexample.var == VarRef("S", 1)

    def test_missing_required_target_rejected(self):
        entry = zoo.step_by_step()
        partial = Ccv(
            (VarRef("F"),),
            {VarRef("F"): entry.reference_ccvs[0].rho[VarRef("F")]},
            entry.reference_ccvs[0].interventions,
            0,
        )
        with pytest.raises(InvalidTargetError):
            register_closed_form(entry.scm, entry.partition, entry.targets, 0, partial)


class TestImageBound:
    def test_chain_composition_images_shrink(self):
        # x1 := u mod 4, x2 := min(x1, 2), x3 := x2 mod 2: image sizes 4, 3, 2
        u = VarRef("u")
        x1, x2, x3 = VarRef("x", 1), VarRef("x", 2), VarRef("x", 3)
        scm = Scm(
            "chain-images",
            endogenous=(
                EndoVar(x1, IntDomain(0, 3), Binary("mod", Ref(u), iconst(4))),
                EndoVar(x2, IntDomain(0, 3), Binary("min", Ref(x1), iconst(2))),
                EndoVar(x3, IntDomain(0, 1), Binary("mod", Ref(x2), iconst(2))),
            ),
            exogenous=(ExoVar(u, IntDomain(0, 9), UniformFinite(tuple(E.VInt(i) for i in range(10)))),),
            interventions=InterventionSpace.power_set([]),
        )
        cons = consolidate(scm, Partition.of([[x1, x2, x3]]), [x3])
        images = cons.report.clusters[0].inlined_images

        def true_image(var):
            return len({eval_scm(scm, {u: E.VInt(k)}, InterventionSet.empty())[var] for k in range(10)})

        per_step = {}
        for v in (x1, x2):
            per_step[v] = true_image(v)
            assert images[v] == per_step[v]
        # each composition step is bounded by the smallest image upstream
        assert images[x2] <= min(per_step[x1], 10)

    def test_walkthrough_chain_effective_image(self):
        entry = zoo.step_by_step()
        cons = entry.consolidated()
        report = cons.report.cluster_report(1)
        b_image = report.inlined_images[VarRef("B")]
        # oracle: enumerate the first map over its whole input domain
        f_b_values = {
            eval_scm(entry.scm, {A: E.VInt(a)}, InterventionSet.empty())[VarRef("B")]
            for a in range(21)
        }
        assert b_image == 2
        assert b_image <= min(len(f_b_values), 21)


class TestRandomModelSoundness:
    def test_pipeline_equals_base_on_random_models(self):
        """End-to-end: random model, random partition, tail targets, full
        pipeline, exhaustive equivalence over inputs and interventions."""
        from helpers import random_partition

        verified = 0
        for seed in range(60):
            scm = random_model(seed, max_endo=8, max_domain=4)
            partition = random_partition(scm, seed + 999)
            targets = scm.endo_vars()[-2:]
            cons = consolidate(scm, partition, targets)
            if scm.interventions.size() > 512:
                continue
            report = verify_equivalence(
                scm, cons, targets, EquivalenceStrategy.exhaustive(intervention_budget=512)
            )
            assert report.equal, (seed, report.counterexample)
            verified += 1
        assert verified >= 40


class TestAnalysedOnce:
    """Work that `consolidate` does once per model, node or tree."""

    def test_each_model_graph_is_derived_once(self, monkeypatch):
        from scmc import scm as S

        derived = []  # the models themselves, so their ids stay distinct
        inner = S.derive_graph_unchecked

        def counting(scm):
            derived.append(scm)
            return inner(scm)

        monkeypatch.setattr(S, "derive_graph_unchecked", counting)
        for name in sorted(zoo.ZOO_BUILDERS):
            entry = zoo.ZOO_BUILDERS[name]()
            entry.consolidated()
            # the model and its pruned copy, once each
            assert len(derived) == 2 and derived[0] is entry.scm and derived[1] is not entry.scm, name
            derived.clear()
            entry.consolidated()
            assert len(derived) == 1 and derived[0] is not entry.scm, name  # a new pruned copy
            derived.clear()

    def test_each_node_is_imaged_once_per_context_on_a_chain(self, monkeypatch):
        from scmc import images as I

        seen = []  # the nodes and contexts themselves, so their ids stay distinct
        inner = I._image_of

        def counting(e, ctx):
            seen.append((e, ctx))
            return inner(e, ctx)

        monkeypatch.setattr(I, "_image_of", counting)
        zoo.dominoes(128).consolidated()
        assert len({(id(e), id(ctx)) for e, ctx in seen}) == len(seen) == 382

    def test_no_pure_pass_runs_again_on_a_tree_it_left_unchanged(self, monkeypatch):
        """On `tool_wear(36)`, two rounds of 36 targets.  Only the passes
        before the last rewrite of the first round see new trees in the
        second.  `dedupe_targets` also reads the earlier targets' trees."""
        import operator
        from collections import Counter

        from scmc import passes as P

        calls = Counter()
        left: dict[str, list] = {}

        def counted(name, fn):
            def run(e, ctx):
                calls[name] += 1
                read = (e, *ctx.earlier_targets.values()) if name == "dedupe_targets" else (e,)
                for old in left.get(name, ()):
                    assert not (len(old) == len(read) and all(map(operator.is_, old, read))), name
                out = fn(e, ctx)
                if out == e:
                    left.setdefault(name, []).append(read)
                return out

            return run

        for name, fn in list(P.PURE_PASSES.items()):
            monkeypatch.setitem(P.PURE_PASSES, name, counted(name, fn))
        zoo.tool_wear(36).consolidated()
        assert dict(calls) == {
            "cancel_inverses": 72,
            "fold_constants": 72,
            "prune_branches": 72,
            "fold_by_image": 72,
            "simplify_algebra": 36,
            "prune_interventions": 36,
            "dedupe_targets": 36,
        }

    def test_memory_grows_linearly_along_a_chain(self):
        """The tracemalloc peak of `consolidate` from 128 to 256 stones grows
        at most 2.3x.  A set of queried variables per node, each naming every
        guard below it, grew it 2.85x."""
        import tracemalloc

        zoo.dominoes(8).consolidated()  # modules and their caches are warm
        peaks = []
        for n in (128, 256):
            entry = zoo.dominoes(n)
            tracemalloc.start()
            try:
                entry.consolidated()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2.3 * peaks[0], peaks


class TestForkDeterminism:
    def test_reparameterized_fork_children_always_agree(self):
        from scmc.evaluation import sample_exogenous
        from scmc.scm import reparameterize

        entry = zoo.bernoulli_fork()
        fixed = reparameterize(entry.scm)
        cons = consolidate(fixed, entry.partition, entry.targets)
        for u in sample_exogenous(fixed, 7, 500):
            out = eval_consolidated(cons, u, InterventionSet.empty())
            assert out[VarRef("C")] == out[VarRef("D")]


def test_too_deep_model_is_a_typed_error():
    # the recursive walkers spend 2-3 frames per level of the chain
    entry = zoo.dominoes(400)
    with pytest.raises(ModelTooDeepError) as info:
        consolidate(entry.scm, entry.partition, entry.targets)
    assert isinstance(info.value.__cause__, RecursionError)

"""Partition checking, cluster ordering, projection of interventions."""

import itertools

import pytest
from hypothesis import given, strategies as st

from helpers import exit_reenter_example, random_model, random_partition, three_layer_example
from scmc import expr as E
from scmc import zoo
from scmc.errors import InvalidPartitionError, UnknownVariableError
from scmc.expr import VarRef
from scmc.partition import (
    Partition,
    check_partition,
    extract_sub_scm,
    order_clusters,
    psi_restrict,
    sub_scm_as_scm,
)
from scmc.scm import EndoVar, ExoVar, InterventionSet, InterventionSpace, Scm, UniformFinite, UniformReal, validate


class TestCheckPartition:
    def test_layered_partition_is_valid(self):
        scm, partition = three_layer_example()
        assert check_partition(scm, partition).valid

    def test_exit_and_reenter_is_a_cycle(self):
        scm, partition = exit_reenter_example()
        report = check_partition(scm, partition)
        assert not report.valid
        witness = report.cycle_witness
        assert witness is not None
        assert witness == [0, 1, 0]
        assert report.findings == ["cluster quotient has a cycle: {A,C} -> {B} -> {A,C}"]

    def test_singleton_partition_always_valid(self):
        for build in (zoo.dominoes, zoo.step_by_step, zoo.firing_squad):
            scm = build().scm
            singleton = Partition.of([[v] for v in scm.endo_vars()])
            assert check_partition(scm, singleton).valid

    def test_non_exhaustive_partition(self):
        scm, _ = three_layer_example()
        report = check_partition(scm, Partition.of([[VarRef("A")]]))
        assert not report.valid
        assert any("missing" in f for f in report.findings)

    def test_overlapping_clusters(self):
        scm, _ = three_layer_example()
        partition = Partition.of(
            [[VarRef("A"), VarRef("B")], [VarRef("B"), VarRef("C"), VarRef("D"), VarRef("E")]]
        )
        report = check_partition(scm, partition)
        assert any("more than one" in f for f in report.findings)


class TestOrderClusters:
    def test_layered_order(self):
        scm, partition = three_layer_example()
        assert order_clusters(scm, partition) == [0, 1, 2]

    def test_independent_clusters_keep_input_order(self):
        scm = zoo.dominoes(4).scm
        # reverse the declared cluster listing; quotient edges still force
        # the chain order but the two independent leading stones tie-break
        partition = Partition.of([[VarRef("S", 3), VarRef("S", 4)], [VarRef("S", 1), VarRef("S", 2)]])
        assert order_clusters(scm, partition) == [1, 0]

    def test_invalid_partition_raises(self):
        scm, partition = exit_reenter_example()
        with pytest.raises(InvalidPartitionError):
            order_clusters(scm, partition)

    def test_every_order_is_a_linear_extension(self):
        from scmc.scm import derive_graph_unchecked

        for seed in range(30):
            scm = random_model(seed, max_endo=10)
            partition = random_partition(scm, seed + 1000)
            order = order_clusters(scm, partition)
            position = {c: i for i, c in enumerate(order)}
            graph = derive_graph_unchecked(scm)
            owner = {}
            for ci, cluster in enumerate(partition.clusters):
                for v in cluster:
                    owner[v] = ci
            for child in scm.endo_vars():
                for parent in graph.parents[child]:
                    if parent in owner and owner[parent] != owner[child]:
                        assert position[owner[parent]] < position[owner[child]]


class TestPsiRestrict:
    def test_outside_atom_becomes_empty(self):
        cluster = {VarRef("E"), VarRef("F"), VarRef("G")}
        iv = InterventionSet.of({VarRef("D"): E.VBool(True)})
        assert psi_restrict(iv, cluster) == InterventionSet.empty()

    def test_inside_atom_is_kept(self):
        cluster = {VarRef("E"), VarRef("F"), VarRef("G")}
        iv = InterventionSet.of({VarRef("G"): E.VBool(False)})
        assert psi_restrict(iv, cluster) == iv

    def test_empty_set_stays_empty(self):
        assert psi_restrict(InterventionSet.empty(), {VarRef("A")}) == InterventionSet.empty()

    @given(st.sets(st.sampled_from("ABCDEFG")), st.sets(st.sampled_from("ABCDEFG")))
    def test_monotone_idempotent_shrinking(self, picked, cluster_names):
        iv = InterventionSet.of({VarRef(n): E.VInt(1) for n in picked})
        cluster = {VarRef(n) for n in cluster_names}
        out = psi_restrict(iv, cluster)
        assert set(out.assignments) <= set(iv.assignments)
        assert psi_restrict(out, cluster) == out
        for sub in itertools.combinations(iv.assignments, max(0, len(iv) - 1)):
            smaller = InterventionSet(tuple(sub))
            assert set(psi_restrict(smaller, cluster).assignments) <= set(out.assignments)


class TestExtractSubScm:
    def test_walkthrough_cluster_sets(self):
        entry = zoo.step_by_step()
        sub = extract_sub_scm(entry.scm, [VarRef("E"), VarRef("F"), VarRef("G")])
        assert sub.local_exogenous == (VarRef("A"),)
        assert set(sub.interventions.enumerate()) == {
            InterventionSet.empty(),
            InterventionSet.of({VarRef("G"): E.VBool(False)}),
        }

    def test_full_cluster_equals_base(self):
        entry = zoo.step_by_step()
        sub = extract_sub_scm(entry.scm, entry.scm.endo_vars())
        assert set(sub.order) == set(entry.scm.endo_vars())
        assert sub.local_exogenous == (VarRef("A"),)
        assert sub.equations == {r.var: r.equation for r in entry.scm.endogenous}

    def test_layered_sink_cluster_inputs(self):
        scm, _ = three_layer_example()
        sub = extract_sub_scm(scm, [VarRef("C"), VarRef("E")])
        assert set(sub.local_exogenous) == {VarRef("B"), VarRef("D")}

    def test_sub_scm_validates(self):
        entry = zoo.step_by_step()
        for cluster in entry.partition.clusters:
            sub = extract_sub_scm(entry.scm, cluster)
            assert validate(sub_scm_as_scm(sub)).ok

    def test_local_inputs_without_a_distribution_are_uniform_over_their_domain(self):
        # Y's local inputs are upstream variables with finite, bounded-real,
        # half-bounded and unbounded real domains
        U, Y = VarRef("U"), VarRef("Y")
        domains = {
            VarRef("A"): (E.BoolDomain(), UniformFinite((E.VBool(False), E.VBool(True)))),
            VarRef("B"): (E.RealDomain(0.0, 1.0), UniformReal(0.0, 1.0)),
            VarRef("C"): (E.RealDomain(0.0, None), UniformReal(0.0, 2.0)),
            VarRef("D"): (E.RealDomain(None, 1.0), UniformReal(-1.0, 1.0)),
            VarRef("F"): (E.RealDomain(), UniformReal(-1.0, 1.0)),
        }
        upstream = tuple(
            EndoVar(v, dom, E.Binary("lt", E.Ref(U), E.rconst(0.5)) if v.name == "A" else E.Ref(U))
            for v, (dom, _) in domains.items()
        )
        reads = E.Binary("add", E.Ref(VarRef("B")), E.Ref(VarRef("C")))
        for v in (VarRef("D"), VarRef("F")):
            reads = E.Binary("add", reads, E.Ref(v))
        scm = Scm(
            "local_domains",
            endogenous=upstream + (EndoVar(Y, E.RealDomain(), E.IfThenElse(E.Ref(VarRef("A")), reads, E.rconst(0.0))),),
            exogenous=(ExoVar(U, E.RealDomain(0.0, 1.0), UniformReal(0.0, 1.0)),),
            interventions=InterventionSpace.power_set([]),
        )
        assert validate(scm).ok
        view = sub_scm_as_scm(extract_sub_scm(scm, [Y]))
        assert validate(view).ok
        assert {row.var: row.dist for row in view.exogenous} == {v: dist for v, (_, dist) in domains.items()}

    def test_unknown_cluster_member(self):
        entry = zoo.step_by_step()
        with pytest.raises(UnknownVariableError):
            extract_sub_scm(entry.scm, [VarRef("nope")])

    def test_equations_partition_exactly(self):
        for seed in range(20):
            scm = random_model(seed)
            partition = random_partition(scm, seed)
            seen = []
            for cluster in partition.clusters:
                sub = extract_sub_scm(scm, cluster)
                seen.extend(sub.equations.keys())
            assert sorted(seen, key=str) == sorted(scm.endo_vars(), key=str)

    def test_restricted_space_remains_closed_under_subsets(self):
        for seed in range(20):
            scm = random_model(seed, max_endo=6)
            partition = random_partition(scm, seed)
            for cluster in partition.clusters:
                sub = extract_sub_scm(scm, cluster)
                try:
                    sets = sub.interventions.enumerate(budget=2048)
                except Exception:
                    continue
                listed = set(sets)
                for s in sets:
                    for r in range(len(s)):
                        for combo in itertools.combinations(s.assignments, r):
                            assert InterventionSet(tuple(combo)) in listed

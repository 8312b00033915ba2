"""Model validation, graph derivation, kin queries, reparameterization."""

import dataclasses
import graphlib
import itertools
import json
import struct

import pytest
from hypothesis import given, strategies as st

from helpers import _scan_atom_values, oracle_sample_power_set, random_model
from scmc import expr as E
from scmc import zoo
from scmc.errors import DomainError, EnumerationTooLargeError, UnknownVariableError
from scmc.evaluation import sample_exogenous
from scmc.expr import Binary, BoolDomain, IntDomain, RealDomain, Ref, VarRef, iconst
from scmc.scm import (
    EXPLICIT,
    POWER_SET,
    SINGLETON,
    EndoVar,
    ExoVar,
    InterventionSet,
    InterventionSpace,
    Scm,
    UniformFinite,
    UniformReal,
    derive_graph,
    find_cycle,
    relatives,
    reparameterize,
    validate,
)

A, B, C, D = VarRef("A"), VarRef("B"), VarRef("C"), VarRef("D")
U = VarRef("U")


class TestValidate:
    def test_tool_wear_is_clean(self):
        assert validate(zoo.tool_wear(8).scm).ok

    def test_all_zoo_models_are_clean(self):
        for build in (zoo.dominoes, zoo.firing_squad, zoo.step_by_step, zoo.platformer):
            assert validate(build().scm).ok

    def test_self_loop_reports_cycle(self):
        scm = Scm(
            "loop",
            endogenous=(EndoVar(A, IntDomain(0, 3), Ref(A)),),
            exogenous=(),
            interventions=InterventionSpace.power_set([]),
        )
        report = validate(scm)
        assert "Cycle" in report.kinds()

    def test_a_longer_cycle_is_reported_as_a_closed_path(self):
        scm = Scm(
            "three",
            endogenous=tuple(EndoVar(v, BoolDomain(), Ref(r)) for v, r in ((A, C), (B, A), (C, B))),
            exogenous=(),
            interventions=InterventionSpace.power_set([]),
        )
        cycles = [f for f in validate(scm).findings if f.kind == "Cycle"]
        assert [(str(f), f.subject) for f in cycles] == [("[Cycle] cycle: A -> B -> C -> A", (A, B, C, A))]

    def test_explicit_space_closure_violation(self):
        pair = InterventionSet.of({D: E.VBool(True), VarRef("G"): E.VBool(False)})
        scm = Scm(
            "closure",
            endogenous=(
                EndoVar(D, BoolDomain(), Ref(U)),
                EndoVar(VarRef("G"), BoolDomain(), Ref(U)),
            ),
            exogenous=(ExoVar(U, BoolDomain(), UniformFinite((E.VBool(False), E.VBool(True)))),),
            interventions=InterventionSpace(mode="explicit", atoms=(), sets=(pair,)),
        )
        report = validate(scm)
        violations = [f for f in report.findings if f.kind == "ClosureViolation"]
        # subset-enumeration oracle: every proper subset of the pair is missing
        missing = {str(f.subject[1]) for f in violations}
        assert missing == {"{}", "{do(D=true)}", "{do(G=false)}"}

    def test_explicit_space_with_no_set(self):
        # not even the empty set: every check of the model would have no case
        scm = dataclasses.replace(zoo.step_by_step().scm, interventions=InterventionSpace.explicit([]))
        report = validate(scm)
        assert not report.ok
        assert [f.kind for f in report.findings] == ["EmptySpace"]
        # listing the empty set alone is fine
        scm = dataclasses.replace(scm, interventions=InterventionSpace.explicit([InterventionSet.empty()]))
        assert validate(scm).ok

    def test_atom_on_exogenous(self):
        scm = Scm(
            "exo-atom",
            endogenous=(EndoVar(A, BoolDomain(), Ref(U)),),
            exogenous=(ExoVar(U, BoolDomain(), UniformFinite((E.VBool(False), E.VBool(True)))),),
            interventions=InterventionSpace.singletons([(U, [E.VBool(True)])]),
        )
        assert "AtomOnExogenous" in validate(scm).kinds()

    def test_order_violation(self):
        scm = Scm(
            "order",
            endogenous=(
                EndoVar(A, BoolDomain(), Ref(B)),
                EndoVar(B, BoolDomain(), Ref(U)),
            ),
            exogenous=(ExoVar(U, BoolDomain(), UniformFinite((E.VBool(False), E.VBool(True)))),),
            interventions=InterventionSpace.power_set([]),
        )
        assert "OrderViolation" in validate(scm).kinds()

    def test_valid_model_has_topological_declared_order(self):
        for seed in range(20):
            scm = random_model(seed)
            if not validate(scm).ok:
                continue
            graph = derive_graph(scm)
            position = {v: i for i, v in enumerate(scm.endo_vars())}
            for child in scm.endo_vars():
                for parent in graph.parents[child]:
                    if parent in position:
                        assert position[parent] < position[child]


class TestDeriveGraph:
    def test_or_gate_edges_in_both_modes(self):
        scm = Scm(
            "or-gate",
            endogenous=(
                EndoVar(C, BoolDomain(), Ref(U)),
                EndoVar(VarRef("G"), BoolDomain(), Ref(U)),
                EndoVar(VarRef("H"), BoolDomain(), Binary("or", Ref(C), Ref(VarRef("G")))),
            ),
            exogenous=(ExoVar(U, BoolDomain(), UniformFinite((E.VBool(False), E.VBool(True)))),),
            interventions=InterventionSpace.power_set([]),
        )
        H = VarRef("H")
        for mode in ("syntactic", "semantic"):
            g = derive_graph(scm, mode)
            assert g.parents[H] == frozenset({C, VarRef("G")})

    def test_multiply_by_zero_loses_semantic_edge(self):
        scm = Scm(
            "dead-edge",
            endogenous=(EndoVar(B, IntDomain(0, 9), Binary("mul", Ref(A), iconst(0))),),
            exogenous=(ExoVar(A, IntDomain(0, 3), UniformFinite(tuple(E.VInt(i) for i in range(4)))),),
            interventions=InterventionSpace.power_set([]),
        )
        assert derive_graph(scm, "syntactic").parents[B] == frozenset({A})
        assert derive_graph(scm, "semantic").parents[B] == frozenset()

    def test_dominoes_chain(self):
        scm = zoo.dominoes(5).scm
        g = derive_graph(scm)
        for i in range(2, 6):
            assert g.parents[VarRef("S", i)] == frozenset({VarRef("S", i - 1)})

    def test_semantic_requires_finite_domains(self):
        scm = Scm(
            "cont",
            endogenous=(EndoVar(B, RealDomain(), Ref(A)),),
            exogenous=(ExoVar(A, RealDomain(), UniformReal(0, 1)),),
            interventions=InterventionSpace.power_set([]),
        )
        with pytest.raises(EnumerationTooLargeError):
            derive_graph(scm, "semantic")

    def test_semantic_subset_of_syntactic_on_random_models(self):
        checked = 0
        for seed in range(40):
            scm = random_model(seed, max_endo=8, max_domain=4)
            if not validate(scm).ok:
                continue
            syn = derive_graph(scm, "syntactic")
            try:
                sem = derive_graph(scm, "semantic")
            except EnumerationTooLargeError:
                continue
            for v in scm.endo_vars():
                assert sem.parents[v] <= syn.parents[v]
            checked += 1
        assert checked >= 20


class TestRelatives:
    def setup_method(self):
        self.scm = zoo.step_by_step().scm
        self.graph = derive_graph(self.scm)

    def test_parents_union_convention(self):
        Ev, F, G = VarRef("E"), VarRef("F"), VarRef("G")
        got = relatives(self.graph, {Ev, F, G}, "parents")
        assert got == {VarRef("A"), Ev, F}
        assert got - {Ev, F, G} == {VarRef("A")}

    def test_children_of_sink(self):
        assert relatives(self.graph, {VarRef("H")}, "children") == set()

    def test_ancestors(self):
        got = relatives(self.graph, {VarRef("H")}, "ancestors")
        assert got == {VarRef(n) for n in "ABCEFG"}

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            relatives(self.graph, {VarRef("nope")}, "parents")

    def test_ancestors_against_reversed_reachability_oracle(self):
        for seed in range(10):
            scm = random_model(seed)
            graph = derive_graph(scm)
            for v in scm.endo_vars():
                # oracle: fixpoint of the parent relation
                reach = set()
                frontier = set(graph.parents[v])
                while frontier:
                    reach |= frontier
                    frontier = {p for x in frontier for p in graph.parents.get(x, ())} - reach
                assert relatives(graph, {v}, "ancestors") == reach


class TestReparameterize:
    def test_forms_match_the_reparameterized_model(self):
        scm = zoo.bernoulli_fork().scm
        fixed = reparameterize(scm)
        R = VarRef("R")
        assert R in fixed.exo_vars()
        assert fixed.equation_of(B) == Binary("lt", Ref(A), Ref(R))
        assert fixed.dist_of(R) == UniformReal(0.0, 1.0)
        assert fixed.equation_of(C) == Ref(B)

    def test_deterministic_model_is_fixed_point(self):
        scm = zoo.dominoes(4).scm
        assert reparameterize(scm) is scm

    def test_idempotent(self):
        fixed = reparameterize(zoo.bernoulli_fork().scm)
        assert reparameterize(fixed) is fixed

    def test_strict_sampling_rejects_raw_draws(self):
        from scmc.errors import NonDeterministicModelError

        scm = zoo.bernoulli_fork().scm
        with pytest.raises(NonDeterministicModelError):
            sample_exogenous(scm, 0, 1)
        assert sample_exogenous(scm, 0, 1, strict=False)


class TestInterventionSpace:
    def test_atom_index_is_invisible(self):
        """Spaces compare, hash and serialize alike whether or not their
        atom index has been built."""
        from scmc import documents as D

        used, fresh = zoo.tool_wear(8).scm, zoo.tool_wear(8).scm
        for v, vals in used.interventions.atoms:
            assert used.interventions.atom_values(v) == vals
        assert used.interventions.atom_values(VarRef("nope")) == ()
        assert "_atom_index" in vars(used.interventions)
        assert "_atom_index" not in vars(fresh.interventions)
        assert used.interventions == fresh.interventions
        assert hash(used.interventions) == hash(fresh.interventions)
        assert repr(used.interventions) == repr(fresh.interventions)
        text = D.to_json(D.model_to_doc(used))
        assert text == D.to_json(D.model_to_doc(fresh))
        back = D.model_from_doc(json.loads(text))
        assert back.interventions == used.interventions
        assert D.to_json(D.model_to_doc(back)) == text
        back.interventions.atom_values(VarRef("S", 1))
        assert D.to_json(D.model_to_doc(back)) == text

    def test_singleton_enumeration(self):
        space = zoo.dominoes(5).scm.interventions
        sets = space.enumerate()
        assert len(sets) == 11  # empty plus two values per stone
        assert sets[0] == InterventionSet.empty()
        assert all(len(s) <= 1 for s in sets)

    def test_power_set_enumeration_counts(self):
        space = zoo.firing_squad(5).scm.interventions
        assert space.size() == 32
        assert len(space.enumerate()) == 32

    def test_membership(self):
        space = zoo.step_by_step().scm.interventions
        assert space.contains(InterventionSet.empty())
        assert space.contains(InterventionSet.of({VarRef("G"): E.VBool(False)}))
        assert not space.contains(InterventionSet.of({VarRef("G"): E.VBool(True)}))
        assert not space.contains(
            InterventionSet.of({VarRef("D"): E.VBool(True), VarRef("G"): E.VBool(False)})
        )

    def test_restriction_of_explicit_space_stays_closed(self):
        space = zoo.step_by_step().scm.interventions
        restricted = space.restrict([VarRef("E"), VarRef("F"), VarRef("G")])
        sets = restricted.enumerate()
        assert InterventionSet.empty() in sets
        for s in sets:
            for r in range(len(s)):
                import itertools as it

                for combo in it.combinations(s.assignments, r):
                    assert InterventionSet(tuple(combo)) in sets

    @staticmethod
    def power_set_spaces() -> list[InterventionSpace]:
        X, Y = VarRef("X"), VarRef("Y")
        return [
            InterventionSpace.power_set([]),
            InterventionSpace.power_set([(X, [])]),
            InterventionSpace.power_set([(X, [E.VBool(True)])]),
            InterventionSpace.power_set([(X, [E.VInt(0), E.VInt(1)])]),
            InterventionSpace.power_set([(X, []), (Y, [E.VInt(i) for i in range(300)]), (A, [E.VInt(2)])]),
            zoo.firing_squad(4).scm.interventions,
            zoo.tool_wear(36).scm.interventions,
        ]

    def test_power_set_sample_matches_per_atom_stream(self):
        """One bounds-array draw per set consumes the generator exactly like
        one scalar draw per atom, interleaved with other draws too."""
        from scmc.evaluation import make_rng

        spaces = self.power_set_spaces()
        for space in spaces:
            assert space.mode == "power_set"
            for seed in (0, 1, 7, 13):
                ours, theirs = make_rng(seed), make_rng(seed)
                for _ in range(20):
                    assert space.sample(ours) == oracle_sample_power_set(space, theirs)
                    assert ours.random() == theirs.random()
                    assert ours.standard_normal() == theirs.standard_normal()
                    assert ours.integers(2**40) == theirs.integers(2**40)

    def test_power_set_members_are_built_without_sorting(self):
        """Spaces whose atoms are canonical build drawn and enumerated sets
        from shared pairs; the sets equal `InterventionSet.of` of the same
        pairs, and the stream moves exactly as one scalar draw per atom."""
        from scmc.evaluation import make_rng

        for space in self.power_set_spaces():
            assert space._atom_pairs[1] is InterventionSet
            for seed in (0, 7):
                ours, theirs = make_rng(seed), make_rng(seed)
                for _ in range(20):
                    drawn = space.sample(ours)
                    assert drawn == InterventionSet.of(list(drawn.assignments))
                    assert drawn == oracle_sample_power_set(space, theirs)
                    assert ours.integers(2**40) == theirs.integers(2**40)
            if space.size() <= 4096:
                options = [[None] + [(v, val) for val in vals] for v, vals in space.atoms]
                want = [InterventionSet.of([p for p in combo if p]) for combo in itertools.product(*options)]
                assert space.enumerate(4096) == want
        # the constructor takes atoms in any order: those spaces sort and check
        X, Y = VarRef("X"), VarRef("Y")
        unsorted = InterventionSpace("power_set", ((Y, (E.VInt(1),)), (X, (E.VInt(0),))))
        repeated = InterventionSpace("power_set", ((X, (E.VInt(0),)), (X, (E.VInt(1),))))
        assert unsorted._atom_pairs[1] == repeated._atom_pairs[1] == InterventionSet.of
        rng, oracle = make_rng(3), make_rng(3)
        for _ in range(20):
            assert unsorted.sample(rng) == oracle_sample_power_set(unsorted, oracle)
        assert unsorted.enumerate()[-1].assignments == ((X, E.VInt(0)), (Y, E.VInt(1)))
        with pytest.raises(DomainError):
            repeated.enumerate()

    def test_sampling_is_deterministic(self):
        from scmc.evaluation import make_rng

        space = zoo.firing_squad(4).scm.interventions
        a = [space.sample(make_rng(7)) for _ in range(5)]
        b = [space.sample(make_rng(7)) for _ in range(5)]
        assert a == b


@given(
    st.integers(1, 7).flatmap(
        lambda n: st.tuples(st.just(n), st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    )
)
def test_find_cycle_gives_a_closed_path_exactly_when_no_topological_order_exists(graph):
    n, edges = graph
    path = find_cycle({i: sorted(b for a, b in edges if a == i) for i in range(n)})
    try:
        list(graphlib.TopologicalSorter({i: [a for a, b in edges if b == i] for i in range(n)}).static_order())
        assert path is None
    except graphlib.CycleError:
        assert path is not None and len(path) >= 2 and path[0] == path[-1]
        assert all(step in edges for step in zip(path, path[1:]))


_NAN = float("nan")
#: values that compare equal without being the same (0.0 and -0.0), NaNs
#: that are and are not the same object, one with another payload, and the
#: numbers 1 of three classes
_MEMBER_VALUES = (
    E.VReal(0.0),
    E.VReal(-0.0),
    E.VReal(_NAN),
    E.VReal(_NAN),
    E.VReal(float("nan")),
    E.VReal(struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000123))[0]),
    E.VInt(1),
    E.VReal(1.0),
    E.VBool(True),
    E.VInt(0),
    E.VBool(False),
    E.VSym("a"),
)
_MEMBER_VARS = (VarRef("P"), VarRef("Q"), VarRef("R", 1), VarRef("R", 2))

_values = st.sampled_from(_MEMBER_VALUES)
_isets = st.dictionaries(st.sampled_from(_MEMBER_VARS), _values, max_size=3).map(InterventionSet.of)


def _old_contains(space: InterventionSpace, iset: InterventionSet) -> bool:
    """Membership as a scan: a set of an explicit space is one of its
    members; else each atom's value is one of its variable's values in the
    first atom row on it, and a singleton space allows at most one atom.
    Found means the same object or equal, as `in` on a tuple finds."""
    if space.mode == EXPLICIT:
        return any(s is iset or s == iset for s in space.sets)
    for var, val in iset.assignments:
        if not any(v is val or v == val for v in _scan_atom_values(space, var)):
            return False
    return space.mode != SINGLETON or len(iset) <= 1


@given(
    mode=st.sampled_from([POWER_SET, SINGLETON, EXPLICIT]),
    atoms=st.lists(st.tuples(st.sampled_from(_MEMBER_VARS), st.lists(_values, max_size=4)), max_size=5),
    members=st.lists(_isets, max_size=5),
    queries=st.lists(_isets, min_size=1, max_size=6),
)
def test_contains_matches_a_scan(mode, atoms, members, queries):
    if mode == EXPLICIT:
        spaces = [InterventionSpace.explicit(members)]
        queries = queries + list(members)
    else:
        # normalized, and as given: rows out of order, one variable twice
        spaces = [InterventionSpace(mode, tuple((v, tuple(vals)) for v, vals in atoms))]
        spaces.append(InterventionSpace.power_set(atoms) if mode == POWER_SET else InterventionSpace.singletons(atoms))
        queries = queries + [InterventionSet.of({v: x}) for v, vals in atoms for x in vals[:1]]
    for space in spaces:
        for iset in queries:
            assert space.contains(iset) == _old_contains(space, iset)


def test_contains_tells_equal_values_of_other_classes_apart():
    P = VarRef("P")
    space = InterventionSpace.power_set([(P, [E.VInt(1), E.VReal(0.0)])])
    assert space.contains(InterventionSet.of({P: E.VInt(1)}))
    assert space.contains(InterventionSet.of({P: E.VReal(-0.0)}))
    assert not space.contains(InterventionSet.of({P: E.VReal(1.0)}))
    assert not space.contains(InterventionSet.of({P: E.VBool(True)}))
    assert not space.contains(InterventionSet.of({P: E.VReal(float("nan"))}))

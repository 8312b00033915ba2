"""Case lists in column form against the per-case lists they replaced.

The verifier and the rewrite gate draw and enumerate their cases straight
into columns (`columns.Cases`, `columns.Tiling`).  The tests here hold them
to the per-case list builders kept in `helpers`: the same random streams,
the same cases in the same order (values compared by `repr`, so a real zero
keeps its sign and an int stays an int), the same columns, and the same
reports, counterexamples and errors from the verifier and the gate.
"""

import numpy as np
import pytest

from helpers import (
    cases_of,
    oracle_forced,
    oracle_sample,
    oracle_verifier_cases,
    random_model,
    random_partition,
)
from scmc import columns as C
from scmc import expr as E
from scmc import verification as Q
from scmc import zoo
from scmc.consolidation import Ccv, CcvCluster, PassConfig, attach_ccvs, build_rho, consolidate, run_passes
from scmc.errors import DomainError
from scmc.evaluation import make_rng
from scmc.expr import Binary, BoolDomain, IfThenElse, IntDomain, RealDomain, Ref, VarRef, iconst, rconst
from scmc.partition import Partition, extract_sub_scm, sub_scm_as_scm
from scmc.scm import (
    POWER_SET,
    BernoulliDist,
    EndoVar,
    ExoVar,
    InterventionSet,
    InterventionSpace,
    NormalDist,
    PointMass,
    Scm,
    UniformFinite,
    UniformReal,
)
from scmc.verification import EquivalenceStrategy, local_case_count, verify_equivalence, verify_pass

# ---------------------------------------------------------------------------
# Batched draws
# ---------------------------------------------------------------------------

#: numpy bounds of both integer paths: 32-bit and 64-bit
BOUNDS = [1, 3, 7, 2**32 + 1, 2**33, 2**40]


@pytest.mark.parametrize("seed", [0, 5, 31])
def test_batched_integers_consume_the_stream_like_scalar_calls(seed):
    one, per_set, per_atom = make_rng(seed), make_rng(seed), make_rng(seed)
    batched = one.integers(BOUNDS, size=(40, len(BOUNDS))).tolist()
    assert batched == [per_set.integers(BOUNDS).tolist() for _ in range(40)]
    assert batched == [[int(per_atom.integers(b)) for b in BOUNDS] for _ in range(40)]
    assert one.random() == per_set.random() == per_atom.random()
    for bound in BOUNDS:
        one, scalar = make_rng(seed), make_rng(seed)
        assert one.integers(bound, size=40).tolist() == [int(scalar.integers(bound)) for _ in range(40)]
        assert one.random() == scalar.random()


X = [VarRef("x", i) for i in range(1, 9)]
U = [VarRef("u", i) for i in range(1, 8)]


def _atoms():
    return [
        (X[0], [E.VReal(-0.0), E.VReal(1.0)]),
        (X[2], [E.VInt(0), E.VInt(2), E.VInt(3)]),
        (X[3], []),  # a row without values: a bound of 1
        (X[4], [E.VBool(True)]),
        (X[5], [E.VInt(1)]),
    ]


def spaces() -> list:
    canonical = InterventionSpace.power_set(_atoms())
    return [
        canonical,
        InterventionSpace(POWER_SET, tuple(reversed(canonical.atoms))),
        InterventionSpace.power_set([]),
        InterventionSpace.singletons(_atoms()),
        InterventionSpace.explicit(InterventionSpace.singletons(_atoms()).enumerate()),
        zoo.tool_wear(6).scm.interventions,
        zoo.dominoes(8).scm.interventions,
        zoo.step_by_step().scm.interventions,
    ]


@pytest.mark.parametrize("space", spaces(), ids=lambda s: f"{s.mode}-{len(s.atoms)}")
def test_picks_draw_what_sample_draws(space):
    for seed in (0, 9):
        batched, one_by_one, oracle = make_rng(seed), make_rng(seed), make_rng(seed)
        got = [space.member(p) for p in space.picks(batched, 30)]
        assert got == [space.sample(one_by_one) for _ in range(30)]
        want = [oracle_sample(space, oracle) for _ in range(30)]
        assert got == want and [repr(x) for x in got] == [repr(x) for x in want]
        assert batched.random() == one_by_one.random() == oracle.random()
    assert len(space.picks(make_rng(0), 0)) == 0


class CountingRng:
    """A generator that records the number of dimensions of what each
    `integers` call returns."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def integers(self, *args, **kwargs):
        out = self.rng.integers(*args, **kwargs)
        self.calls.append(np.ndim(out))
        return out


def sample_spaces() -> list:
    # spaces() holds a power set of no atom
    return spaces() + [
        InterventionSpace.singletons([]),
        InterventionSpace.explicit([InterventionSet.empty()]),
        InterventionSpace.power_set([(X[1], [])]),
    ]


@pytest.mark.parametrize("space", sample_spaces(), ids=lambda s: f"{s.mode}-{len(s.atoms)}-{s.size()}")
def test_sample_is_one_draw_of_picks(space):
    # one `integers` call of at most one dimension per draw, which moves the
    # stream as a draw of one row of `picks` does
    for seed in (0, 3, 11):
        ours, twin = CountingRng(make_rng(seed)), make_rng(seed)
        for _ in range(25):
            got, want = space.sample(ours), space.member(space.picks(twin, 1)[0].tolist())
            assert got == want and repr(got) == repr(want)
            assert ours.rng.random() == twin.random()
        if space.mode != POWER_SET:
            assert ours.calls == [0] * 25
        else:
            assert ours.calls == ([1] * 25 if space.atoms else [])


@pytest.mark.parametrize("space", spaces(), ids=lambda s: f"{s.mode}-{len(s.atoms)}")
def test_member_at_is_the_enumerated_member(space):
    listed = space.enumerate()
    made = [space.member_at(k) for k in range(len(listed))]
    assert made == listed and [repr(x) for x in made] == [repr(x) for x in listed]


# ---------------------------------------------------------------------------
# Case lists
# ---------------------------------------------------------------------------


def mixed_model(space: InterventionSpace = None) -> Scm:
    """Every distribution kind, a real zero of either sign, an input with
    no column form, and endogenous reals, ints and booleans that later
    clusters read as local inputs without a distribution."""
    exo = (
        ExoVar(U[0], RealDomain(), PointMass(E.VReal(-0.0))),
        ExoVar(U[1], RealDomain(-1.0, 3.0), UniformFinite((E.VReal(-0.0), E.VReal(0.0), E.VReal(2.5)))),
        ExoVar(U[2], RealDomain(), NormalDist(0.5, 2.0)),
        ExoVar(U[3], RealDomain(0.0, 1.0), UniformReal(0.0, 1.0)),
        ExoVar(U[4], BoolDomain(), BernoulliDist(0.3)),
        # an int carrying a bool has no column form
        ExoVar(U[5], IntDomain(0, 3), UniformFinite((E.VInt(True), E.VInt(2)))),
        ExoVar(U[6], IntDomain(0, 3), PointMass(E.VInt(2))),
    )
    endo = (
        EndoVar(X[0], RealDomain(), Binary("add", Ref(U[0]), Ref(U[1]))),
        EndoVar(X[1], BoolDomain(), Binary("lt", Ref(U[2]), Ref(U[3]))),
        EndoVar(X[2], IntDomain(0, 3), IfThenElse(Ref(U[4]), iconst(1), Ref(U[6]))),
        EndoVar(X[3], RealDomain(), Binary("mul", Ref(X[0]), rconst(2.0))),
        EndoVar(X[4], BoolDomain(), Binary("and", Ref(X[1]), Binary("eq", Ref(X[2]), iconst(1)))),
        EndoVar(X[5], IntDomain(0, 3), Binary("min", Ref(X[2]), iconst(3))),
        EndoVar(X[6], RealDomain(), Binary("mul", Ref(U[0]), Ref(U[6]))),
        EndoVar(X[7], IntDomain(0, 3), Ref(U[5])),
    )
    return Scm("mixed", endo, exo, space if space is not None else InterventionSpace.power_set(_atoms()))


#: clusters whose local inputs are drawn reals and finite upstream values,
#: finite upstream values only, point masses only, and no column form
MIXED_CLUSTERS = [[X[0], X[1], X[2]], [X[3], X[4]], [X[5]], [X[6]], [X[7]]]


def mixed_models() -> list[Scm]:
    canonical = InterventionSpace.power_set(_atoms())
    return [
        mixed_model(),
        mixed_model(InterventionSpace(POWER_SET, tuple(reversed(canonical.atoms)))),
        mixed_model(InterventionSpace.singletons(_atoms())),
        mixed_model(InterventionSpace.explicit(InterventionSpace.singletons(_atoms()).enumerate())),
    ]


def reprs(env) -> dict:
    return {v: repr(x) for v, x in env.items()}


def forced_reprs(forced) -> dict:
    """The forced table; a column that forces nothing reads as no column."""
    return {v: [repr(x) for x in col] for v, col in forced.items() if any(x is not None for x in col)}


def forced_lists(forced) -> dict:
    """A column forced table as per-case lists of raw values or None, after
    checking that each case's atom is the value its entry holds."""
    out = {}
    for v, (mask, values, codes, atoms) in forced.items():
        col = [x if m else None for m, x in zip(mask.tolist(), values.tolist())]
        assert [c != 0 for c in codes.tolist()] == mask.tolist()
        assert [repr(C.raw(atoms[c])) if c else "None" for c in codes.tolist()] == [repr(x) for x in col]
        out[v] = col
    return out


def assert_same_cases(cases, rows, names) -> None:
    """The same cases in order, and the columns of their transposition."""
    assert len(cases) == len(rows)
    for k, (env, iv) in enumerate(rows):
        got_env, got_iv = cases.case(k)
        assert reprs(got_env) == reprs(env), k
        assert got_iv == iv and repr(got_iv) == repr(iv), k
    n = len(rows)
    splits = [(0, n)] + ([(0, n // 2), (n // 2, n), (1, n - 1)] if n > 2 else [])
    for lo, hi in splits:
        block = cases.block(lo, hi)
        assert list(block.every) == list(range(hi - lo))
        part = rows[lo:hi]
        for v in names:
            try:
                want = [repr(C.raw(env[v])) for env, _ in part]
            except C.Unsupported:
                with pytest.raises(C.Unsupported):
                    block.input(v)
            else:
                assert [repr(x) for x in block.input(v).tolist()] == want, v
        try:
            want_forced = oracle_forced([iv for _, iv in part])
        except C.Unsupported:
            with pytest.raises(C.Unsupported):
                block.forced
        else:
            assert forced_reprs(forced_lists(block.forced)) == forced_reprs(want_forced)
        for k in range(hi - lo):
            env, iv = block.case(k)
            assert reprs(env) == reprs(part[k][0]) and repr(iv) == repr(part[k][1])


def strategies(seed: int) -> list:
    return [EquivalenceStrategy.exhaustive(), EquivalenceStrategy.sampled(count=24, seed=seed)]


def assert_same_tables(got, want) -> None:
    """Two forced tables alike row for row, codes, dtypes and atom objects
    included, or both the `Unsupported` they raised."""
    if isinstance(want, C.Unsupported):
        assert isinstance(got, C.Unsupported)
        return
    assert not isinstance(got, C.Unsupported), got
    assert set(got.rows) == set(want.rows)
    for v, (mask, values, codes, atoms) in want.rows.items():
        g_mask, g_values, g_codes, g_atoms = got.rows[v]
        assert g_codes.dtype == codes.dtype and g_codes.tolist() == codes.tolist(), v
        assert g_mask.tolist() == mask.tolist(), v
        assert g_values.dtype == values.dtype, v
        assert [repr(x) for x in g_values.tolist()] == [repr(x) for x in values.tolist()], v
        assert len(g_atoms) == len(atoms) and all(a is b for a, b in zip(g_atoms, atoms)), v


def assert_exhaustive_list(cases, rows, names) -> None:
    """`assert_same_cases`, and the forced table of the whole list as
    `_forced_of` makes it from the listed sets."""
    assert_same_cases(cases, rows, names)
    assert_same_tables(cases.block(0, len(cases))._forced, C._table(C._forced_of, [iv for _, iv in rows]))


def assert_verifier_cases(scm: Scm, seed: int) -> None:
    names = [row.var for row in scm.exogenous]
    for strategy in strategies(seed):
        cases, message = Q.verifier_cases(scm, strategy)
        if cases is None:
            assert strategy.mode == Q.EXHAUSTIVE and message
            continue
        check = assert_exhaustive_list if strategy.mode == Q.EXHAUSTIVE else assert_same_cases
        check(cases, oracle_verifier_cases(scm, strategy), names)


def assert_gate_cases(scm: Scm, partition: Partition, seed: int) -> None:
    for cluster in partition.clusters:
        sub = extract_sub_scm(scm, cluster)
        view = sub_scm_as_scm(sub)
        names = list(sub.local_exogenous)
        n = local_case_count(sub)
        if n is not None and n <= 4096:
            want = oracle_verifier_cases(view, EquivalenceStrategy.exhaustive())
            assert_exhaustive_list(Q.enumerate_local_cases(sub), want, names)
        sampled = Q.sample_local_cases(sub, 24, seed)
        want = oracle_verifier_cases(view, EquivalenceStrategy.sampled(count=24, seed=seed))
        assert_same_cases(sampled, want, names)
        assert sampled[:] == want


@pytest.mark.parametrize("name", sorted(zoo.ZOO_BUILDERS))
def test_zoo_case_lists_match_the_list_builders(name):
    entry = zoo.ZOO_BUILDERS[name]()
    for seed in (1, 7):
        assert_verifier_cases(entry.scm, seed)
        assert_gate_cases(entry.scm, entry.partition, seed)


def test_sampled_zoo_variants_match_the_list_builders():
    for entry in (zoo.tool_wear(6, "sampled"), zoo.tool_wear(36)):
        assert_verifier_cases(entry.scm, 3)
        assert_gate_cases(entry.scm, entry.partition, 3)


@pytest.mark.parametrize("block", range(4))
def test_random_case_lists_match_the_list_builders(block):
    for seed in range(block * 30, block * 30 + 30):
        scm = random_model(seed, max_endo=8)
        assert_verifier_cases(scm, seed)
        assert_gate_cases(scm, random_partition(scm, seed + 3), seed)


@pytest.mark.parametrize("index", range(4))
def test_every_distribution_kind_matches_the_list_builders(index):
    scm = mixed_models()[index]
    for seed in (0, 4):
        assert_verifier_cases(scm, seed)
        assert_gate_cases(scm, Partition.of(MIXED_CLUSTERS), seed)


def test_a_set_with_two_atoms_on_one_variable_raises_as_sample_does():
    atoms = tuple(InterventionSpace.power_set(_atoms()).atoms)
    space = InterventionSpace(POWER_SET, atoms + ((X[0], (E.VReal(5.0),)),))
    scm = mixed_model(space)
    strategy = EquivalenceStrategy.sampled(count=24, seed=0)
    with pytest.raises(DomainError) as want:
        oracle_verifier_cases(scm, strategy)
    with pytest.raises(DomainError) as got:
        Q.verifier_cases(scm, strategy)
    assert str(got.value) == str(want.value)
    sub = extract_sub_scm(scm, MIXED_CLUSTERS[0])
    with pytest.raises(DomainError) as want:
        oracle_verifier_cases(sub_scm_as_scm(sub), strategy)
    with pytest.raises(DomainError) as got:
        Q.sample_local_cases(sub, 24, 0)
    assert str(got.value) == str(want.value)


def test_exhaustive_inputs_keep_the_canonical_order():
    # the first input is outermost and its values are sorted by repr
    scm = zoo.step_by_step().scm
    cases, _ = Q.verifier_cases(scm, EquivalenceStrategy.exhaustive())
    per = scm.interventions.size()
    firsts = [repr(cases.case(k)[0][scm.exogenous[0].var]) for k in range(0, len(cases), per)]
    assert firsts == sorted(firsts)


# ---------------------------------------------------------------------------
# Exhaustive lists by position
# ---------------------------------------------------------------------------


def finite_model(space: InterventionSpace) -> Scm:
    """`mixed_model` with finite inputs only, so that it has an exhaustive
    list: a real zero of either sign, an input with no column form, a
    Bernoulli input and point masses."""
    base = mixed_model(space)
    exo = (
        base.exogenous[0],
        base.exogenous[1],
        ExoVar(U[2], RealDomain(), UniformFinite((E.VReal(0.5), E.VReal(-1.0)))),
        ExoVar(U[3], RealDomain(0.0, 1.0), PointMass(E.VReal(0.25))),
        base.exogenous[4],
        base.exogenous[5],
        base.exogenous[6],
    )
    return Scm("finite", base.endogenous, exo, space)


def finite_spaces() -> list:
    canonical = InterventionSpace.power_set(_atoms())
    return [
        canonical,
        InterventionSpace(POWER_SET, tuple(reversed(canonical.atoms))),
        InterventionSpace.power_set([]),
        InterventionSpace.singletons(_atoms()),
        InterventionSpace.singletons([]),
        InterventionSpace.explicit(InterventionSpace.singletons(_atoms()).enumerate()),
    ]


def tied_model() -> Scm:
    """Supports holding two values with one repr: two ints 1 and two NaNs,
    so that the repr order puts a later input's value before an earlier
    input's tie."""
    one, other_one = E.VInt(1), E.VInt(1)
    nan, other_nan = E.VReal(float("nan")), E.VReal(float("nan"))
    exo = (
        ExoVar(U[0], IntDomain(0, 3), UniformFinite((one, E.VInt(0), other_one))),
        ExoVar(U[1], IntDomain(0, 3), UniformFinite((E.VInt(3), E.VInt(2)))),
        ExoVar(U[2], RealDomain(), UniformFinite((nan, E.VReal(1.0), other_nan))),
        ExoVar(U[3], BoolDomain(), BernoulliDist(0.5)),
    )
    endo = (
        EndoVar(X[0], IntDomain(0, 6), Binary("add", Ref(U[0]), Ref(U[1]))),
        EndoVar(X[1], BoolDomain(), Binary("lt", Ref(U[2]), rconst(2.0))),
        EndoVar(X[2], BoolDomain(), Binary("or", Ref(X[1]), Ref(U[3]))),
    )
    return Scm("tied", endo, exo, InterventionSpace.power_set([(X[0], [E.VInt(2)]), (X[1], [E.VBool(True)])]))


def exhaustive_rows(scm: Scm, strategy=None):
    strategy = strategy or EquivalenceStrategy.exhaustive()
    cases, message = Q.verifier_cases(scm, strategy)
    assert cases is not None, message
    return cases, oracle_verifier_cases(scm, strategy), [row.var for row in scm.exogenous]


@pytest.mark.parametrize("name", ["platformer", "firing_squad_8", "step_by_step", "dominoes_128"])
def test_bench_model_lists_match_the_list_builder(name):
    entry = {
        "platformer": zoo.platformer,
        "firing_squad_8": lambda: zoo.firing_squad(8),
        "step_by_step": zoo.step_by_step,
        "dominoes_128": lambda: zoo.dominoes(128),
    }[name]()
    assert_exhaustive_list(*exhaustive_rows(entry.scm))
    assert_gate_cases(entry.scm, entry.partition, 0)


@pytest.mark.parametrize("index", range(len(finite_spaces())))
def test_every_space_mode_lists_what_the_list_builder_lists(index):
    assert_exhaustive_list(*exhaustive_rows(finite_model(finite_spaces()[index])))


def test_tied_reprs_keep_the_sorted_order_of_the_assignments():
    scm = tied_model()
    cases, rows, names = exhaustive_rows(scm)
    assert_exhaustive_list(cases, rows, names)
    # the tied values are told apart by identity, which a repr cannot do; a
    # Bernoulli input makes new values each time
    listed = names[:3]
    for k, (env, _) in enumerate(rows):
        got, _ = cases.case(k)
        assert all(got[v] is env[v] for v in listed), k
    # rows that tie on every repr alternate between the two ints 1, where
    # the digits alone would take the first 1 for 12 rows
    one, _, other_one = scm.exogenous[0].dist.values
    per = scm.interventions.size()
    firsts = [cases.case(k)[0][U[0]] for k in range(0, len(cases), per)]
    assert [repr(x) for x in firsts[:12]] == ["VInt(i=0)"] * 12
    assert firsts[12] is one and firsts[13] is other_one and firsts[14] is one


def test_no_input_is_one_empty_row():
    scm = Scm("no-input", (EndoVar(X[0], IntDomain(0, 3), iconst(2)),), (), InterventionSpace.power_set(_atoms()))
    cases, rows, names = exhaustive_rows(scm)
    assert len(cases) == scm.interventions.size() and names == []
    assert_exhaustive_list(cases, rows, names)
    assert all(cases.case(k)[0] == {} for k in range(len(cases)))


def test_given_sets_are_listed_as_given():
    space = InterventionSpace.power_set(_atoms())
    given = tuple(reversed(space.enumerate()[5:40:3]))
    assert_exhaustive_list(*exhaustive_rows(finite_model(space), EquivalenceStrategy.exhaustive(intervention_sets=given)))


def test_a_power_set_with_two_rows_on_one_variable_raises_before_any_case():
    atoms = tuple(InterventionSpace.power_set(_atoms()).atoms)
    scm = finite_model(InterventionSpace(POWER_SET, atoms + ((X[0], (E.VReal(5.0),)),)))
    strategy = EquivalenceStrategy.exhaustive()
    with pytest.raises(DomainError) as want:
        oracle_verifier_cases(scm, strategy)
    with pytest.raises(DomainError) as got:
        Q.verifier_cases(scm, strategy)
    assert str(got.value) == str(want.value)


def test_a_list_of_several_blocks_matches_at_every_block():
    scm = zoo.firing_squad(12).scm
    cases, rows, names = exhaustive_rows(scm)
    assert len(cases) == 2 * Q._BLOCK_CASES
    assert_exhaustive_list(cases, rows, names)
    for lo, hi in [(0, Q._BLOCK_CASES), (Q._BLOCK_CASES, len(cases)), (4000, 4200)]:
        block = cases.block(lo, hi)
        assert forced_reprs(forced_lists(block.forced)) == forced_reprs(oracle_forced([iv for _, iv in rows[lo:hi]]))
        assert block.input(names[0]).tolist() == [C.raw(env[names[0]]) for env, _ in rows[lo:hi]]


def test_a_canonical_space_is_verified_without_listing_its_sets(monkeypatch):
    calls = []
    enumerate_sets, forced_of = InterventionSpace.enumerate, C._forced_of
    monkeypatch.setattr(InterventionSpace, "enumerate", lambda *a, **k: calls.append("enumerate") or enumerate_sets(*a, **k))
    monkeypatch.setattr(C, "_forced_of", lambda *a: calls.append("_forced_of") or forced_of(*a))
    entries = [zoo.firing_squad(8), zoo.dominoes(16), zoo.platformer()]
    models = [(e.scm, e.consolidated(PassConfig(gate=False)), e.targets) for e in entries]
    scm = finite_model(InterventionSpace.singletons(_atoms()))
    models.append((scm, consolidate(scm, Partition.of(MIXED_CLUSTERS), [X[3], X[4], X[5]]), [X[3], X[4], X[5]]))
    calls.clear()
    for base, cons, targets in models:
        assert base.interventions.mode != "explicit" and base.interventions.atoms_canonical
        assert verify_equivalence(base, cons, targets).equal
    assert calls == []


def test_reports_over_every_space_equal_the_list_builders(monkeypatch):
    models = [tied_model()] + [finite_model(space) for space in finite_spaces()]
    checked = 0
    for scm in models:
        targets = [row.var for row in scm.endogenous][-2:]
        cons = consolidate(scm, Partition.of([[row.var] for row in scm.endogenous]), targets)
        got, want = verify_outcomes(scm, broken_variants(cons), targets, EquivalenceStrategy.exhaustive(), monkeypatch)
        assert [g[0] for g in got] == [w[0] for w in want], scm.name
        checked += len(got)
    assert checked >= 4 * len(models)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def outcome(call):
    """A report, or the type and text of the error raised."""
    try:
        report = call()
    except Exception as exc:  # noqa: BLE001 - errors must match too
        return ("raised", type(exc).__name__, str(exc))
    return (repr(report), report)


REAL_VERIFIER_CASES = Q.verifier_cases


def listed_verifier_cases(scm, strategy):
    """The verifier's case list made the old way: one dict and set per case,
    then transposed."""
    if strategy.mode == Q.EXHAUSTIVE:
        cases, message = REAL_VERIFIER_CASES(scm, strategy)
        if cases is None:
            return None, message
    return cases_of(oracle_verifier_cases(scm, strategy)), ""


def broken_ccvs(ccv: Ccv) -> list[Ccv]:
    """Copies of `ccv` with its last target rewritten: the same values by
    another tree, off by a little, and dividing by zero."""
    last = ccv.targets[-1]
    tree = ccv.rho[last]
    wrongs = (
        IfThenElse(Binary("eq", iconst(0), iconst(0)), tree, tree),
        Binary("add", tree, rconst(1e-3)),
        Binary("div", iconst(1), iconst(0)),
    )
    return [Ccv(ccv.targets, {**ccv.rho, last: wrong}, ccv.interventions, ccv.provenance) for wrong in wrongs]


def broken_variants(cons):
    """`cons`, and copies with the first consolidated cluster broken."""
    for cluster in cons.clusters:
        if isinstance(cluster, CcvCluster):
            return [cons] + [attach_ccvs(cons, {cluster.index: c}) for c in broken_ccvs(cluster.ccv)]
    return [cons]


def verify_outcomes(scm, cons_list, targets, strategy, monkeypatch):
    got = [outcome(lambda c=c: verify_equivalence(scm, c, targets, strategy)) for c in cons_list]
    monkeypatch.setattr(Q, "verifier_cases", listed_verifier_cases)
    want = [outcome(lambda c=c: verify_equivalence(scm, c, targets, strategy)) for c in cons_list]
    monkeypatch.undo()
    return got, want


def test_verifier_reports_equal_the_list_builders(monkeypatch):
    checked = 0
    models = [(e.scm, e.consolidated(PassConfig(gate=False)), e.targets) for e in (
        zoo.dominoes(6), zoo.step_by_step(), zoo.firing_squad(4), zoo.tool_wear(6, "sampled"), zoo.tool_wear(36)
    )]
    for seed in range(12):
        scm = random_model(seed, max_endo=8)
        targets = scm.endo_vars()[-2:]
        models.append((scm, consolidate(scm, random_partition(scm, seed + 5), targets), targets))
    # lists of 512 and 600 cases, exhaustive and sampled
    squad = zoo.firing_squad(8)
    models.append((squad.scm, squad.consolidated(PassConfig(gate=False)), squad.targets))
    for scm, cons, targets in models:
        for strategy in strategies(1) + [EquivalenceStrategy.sampled(count=600, seed=2)]:
            got, want = verify_outcomes(scm, broken_variants(cons), targets, strategy, monkeypatch)
            assert [g[0] for g in got] == [w[0] for w in want], scm.name
            checked += len(got)
    assert checked > 40


def test_tool_wear_counterexamples_equal_the_list_builders(monkeypatch):
    entry = zoo.tool_wear(36)
    cons = entry.consolidated()
    variants = broken_variants(cons)
    for seed in range(1, 11):
        strategy = EquivalenceStrategy.sampled(count=256, seed=seed)
        got, want = verify_outcomes(entry.scm, variants, entry.targets, strategy, monkeypatch)
        assert [g[0] for g in got] == [w[0] for w in want]
        assert got[0][1].equal and got[2][1].verdict == "counterexample"


def test_gate_reports_equal_the_list_builders(monkeypatch):
    checked = 0
    entries = [(e.scm, e.partition) for e in (zoo.step_by_step(), zoo.tool_wear(6, "sampled"), zoo.platformer())]
    entries += [(mixed_model(), Partition.of(MIXED_CLUSTERS))]
    for seed in range(8):
        scm = random_model(seed, max_endo=8)
        entries.append((scm, random_partition(scm, seed + 3)))
    for scm, partition in entries:
        for cluster in partition.clusters:
            sub = extract_sub_scm(scm, cluster)
            built, _ = build_rho(sub, list(sub.order))
            candidates = [run_passes(built, sub, PassConfig()), built] + broken_ccvs(built)
            for strategy in strategies(2):
                got = [outcome(lambda c=c: verify_pass(built, c, sub, strategy)) for c in candidates]
                # the gate's case lists are the verifier's on the cluster viewed as a model
                monkeypatch.setattr(Q, "verifier_cases", listed_verifier_cases)
                want = [outcome(lambda c=c: verify_pass(built, c, sub, strategy)) for c in candidates]
                monkeypatch.undo()
                assert [g[0] for g in got] == [w[0] for w in want], (scm.name, cluster)
                checked += len(got)
    assert checked > 100

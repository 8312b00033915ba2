"""Case lists in column form against the per-case lists they replaced.

The verifier and the rewrite gate draw and enumerate their cases straight
into columns (`columns.Cases`, `columns.Tiling`).  The tests here hold them
to the per-case list builders kept in `helpers`: the same random streams,
the same cases in the same order (values compared by `repr`, so a real zero
keeps its sign and an int stays an int), the same columns, and the same
reports, counterexamples and errors from the verifier and the gate.
"""

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


def assert_verifier_cases(scm: Scm, seed: int) -> None:
    names = [row.var for row in scm.exogenous]
    for strategy in strategies(seed):
        cases, message = Q.verifier_cases(scm, strategy)
        if cases is None:
            assert strategy.mode == Q.EXHAUSTIVE and message
            continue
        assert_same_cases(cases, oracle_verifier_cases(scm, strategy), names)


def assert_gate_cases(scm: Scm, partition: Partition, seed: int) -> None:
    for cluster in partition.clusters:
        sub = extract_sub_scm(scm, cluster)
        view = sub_scm_as_scm(sub)
        names = list(sub.local_exogenous)
        n = local_case_count(sub)
        if n is not None and n <= 4096:
            want = oracle_verifier_cases(view, EquivalenceStrategy.exhaustive())
            assert_same_cases(Q.enumerate_local_cases(sub), want, names)
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

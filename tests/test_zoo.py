"""The bundled example models: validity, reference equations, quirks."""

import json

import pytest

from scmc import expr as E
from scmc import zoo
from scmc.consolidation import register_closed_form
from scmc.documents import expr_to_json
from scmc.errors import EquivalenceFailedError, InvalidParameterError
from scmc.evaluation import eval_scm, sample_exogenous
from scmc.expr import VarRef, node_count
from scmc.partition import check_partition
from scmc.scm import InterventionSet, validate
from scmc.verification import EquivalenceStrategy, verify_equivalence


def all_entries():
    return [
        zoo.dominoes(5),
        zoo.tool_wear(8),
        zoo.firing_squad(5),
        zoo.step_by_step(),
        zoo.platformer(),
    ]


class TestEveryEntry:
    def test_models_validate(self):
        for entry in all_entries():
            assert validate(entry.scm).ok, entry.name

    def test_partitions_check_valid(self):
        for entry in all_entries():
            assert check_partition(entry.scm, entry.partition).valid, entry.name

    def test_references_verify_unless_flagged(self):
        for entry in all_entries():
            if not entry.reference_ccvs:
                continue
            if entry.expect_reference_discrepancy:
                cons = entry.reference_consolidated()
                report = verify_equivalence(entry.scm, cons, entry.targets, entry.reference_strategy)
                assert report.verdict == "counterexample", entry.name
            else:
                for cid, ccv in entry.reference_ccvs.items():
                    verified = register_closed_form(
                        entry.scm, entry.partition, entry.targets, cid, ccv, entry.reference_strategy
                    )
                    assert verified.report.equal, (entry.name, cid)

    def test_pipeline_equals_base(self):
        for entry in all_entries():
            cons = entry.consolidated()
            strategy = (
                EquivalenceStrategy.sampled(count=200, seed=3)
                if entry.name == "tool_wear"
                else EquivalenceStrategy.exhaustive()
            )
            assert verify_equivalence(entry.scm, cons, entry.targets, strategy).equal, entry.name


class TestDominoes:
    def test_rejects_degenerate_length(self):
        with pytest.raises(InvalidParameterError):
            zoo.dominoes(1)

    def test_cascade_examples(self):
        scm = zoo.dominoes(5).scm
        S5, push = VarRef("S", 5), VarRef("push")
        assert eval_scm(scm, {push: E.VBool(True)}, InterventionSet.empty())[S5] == E.VBool(True)
        held = InterventionSet.of({VarRef("S", 3): E.VBool(False)})
        assert eval_scm(scm, {push: E.VBool(True)}, held)[S5] == E.VBool(False)
        tipped = InterventionSet.of({VarRef("S", 4): E.VBool(True)})
        assert eval_scm(scm, {push: E.VBool(False)}, tipped)[S5] == E.VBool(True)

    def test_closed_form_is_independent_of_length(self):
        trees = set()
        payloads = set()
        for n in (2, 5, 10, 16):
            entry = zoo.dominoes(n)
            (target,) = entry.reference_ccvs[1].targets
            tree = entry.reference_ccvs[1].rho[target]
            trees.add(tree)
            payloads.add(json.dumps(expr_to_json(tree), sort_keys=True))
        assert len(trees) == 1
        assert len(payloads) == 1

    def test_only_the_intervention_space_differs(self):
        small, big = zoo.dominoes(3), zoo.dominoes(4)
        assert small.scm.interventions.size() == 7
        assert big.scm.interventions.size() == 9


class TestToolWear:
    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            zoo.tool_wear(0)
        with pytest.raises(InvalidParameterError):
            zoo.tool_wear(5, "off")

    def test_accuracy_tracks_squared_sharpness(self):
        scm = zoo.tool_wear(5).scm
        u = {VarRef("U", t): E.VReal(0.5) for t in range(1, 6)}
        out = eval_scm(scm, u, InterventionSet.empty())
        for t in range(1, 6):
            assert abs(out[VarRef("A", t)].r - 0.8 * out[VarRef("S", t)].r ** 2) < 1e-12

    def test_forced_sharpness_is_exact(self):
        scm = zoo.tool_wear(14).scm
        u = {VarRef("U", t): E.VReal(0.5) for t in range(1, 15)}
        iv = InterventionSet.of({VarRef("S", 12): E.VReal(1.0)})
        assert eval_scm(scm, u, iv)[VarRef("S", 12)] == E.VReal(1.0)

    def test_sampled_mode_pipeline_verifies_probabilistically(self):
        entry = zoo.tool_wear(6, "sampled")
        cons = entry.consolidated()
        report = verify_equivalence(entry.scm, cons, entry.targets, entry.reference_strategy)
        assert report.equal
        assert report.probabilistic

    def test_expected_mode_inputs_are_pinned(self):
        entry = zoo.tool_wear(4)
        for u in sample_exogenous(entry.scm, 9, 3):
            assert all(v == E.VReal(0.5) for v in u.values())


class TestFiringSquad:
    def test_rejects_zero_riflemen(self):
        with pytest.raises(InvalidParameterError):
            zoo.firing_squad(0)

    def test_outcomes(self):
        scm = zoo.firing_squad(5).scm
        u = {VarRef("order"): E.VBool(True)}
        assert eval_scm(scm, u, InterventionSet.empty())[VarRef("P")] == E.VSym("dies")
        all_blocked = InterventionSet.of({VarRef("R", i): E.VBool(False) for i in range(1, 6)})
        assert eval_scm(scm, u, all_blocked)[VarRef("P")] == E.VSym("lives")
        four = InterventionSet.of({VarRef("R", i): E.VBool(False) for i in range(1, 5)})
        assert eval_scm(scm, u, four)[VarRef("P")] == E.VSym("dies")
        quiet = {VarRef("order"): E.VBool(False)}
        assert eval_scm(scm, quiet, InterventionSet.empty())[VarRef("P")] == E.VSym("lives")


class TestStepByStep:
    def test_hand_evaluations(self):
        scm = zoo.step_by_step().scm
        A = VarRef("A")
        out = eval_scm(scm, {A: E.VInt(10)}, InterventionSet.empty())
        assert out[VarRef("F")] == E.VBool(True)
        assert out[VarRef("G")] == E.VBool(True)
        assert out[VarRef("C")] == E.VBool(False)
        assert out[VarRef("H")] == E.VBool(True)
        out = eval_scm(scm, {A: E.VInt(4)}, InterventionSet.empty())
        assert out[VarRef("C")] == E.VBool(True)
        forced = InterventionSet.of({VarRef("G"): E.VBool(False)})
        out = eval_scm(scm, {A: E.VInt(10)}, forced)
        assert out[VarRef("H")] == E.VBool(False)

    def test_reference_trees_sizes(self):
        entry = zoo.step_by_step()
        sizes = {
            str(t): node_count(ccv.rho[t])
            for ccv in entry.reference_ccvs.values()
            for t in ccv.targets
        }
        assert sizes == {"F": 5, "G": 5, "C": 3, "H": 3}


class TestPlatformer:
    def test_unintervened_plan_collects_coin_then_idles(self):
        entry = zoo.platformer()
        u = {r.var: r.dist.value for r in entry.scm.exogenous}
        out = eval_scm(entry.scm, u, InterventionSet.empty())
        plan = [out[VarRef("planning_sequence", i)].name for i in range(1, 5)]
        assert plan == ["coin", "finished", "finished", "finished"]
        assert out[VarRef("target_powerup")] == E.VBool(False)
        assert out[VarRef("target_enemy")] == E.VBool(False)

    def test_forbidding_the_coin_redirects_to_the_flag(self):
        entry = zoo.platformer()
        u = {r.var: r.dist.value for r in entry.scm.exogenous}
        iv = InterventionSet.of({VarRef("target_coin"): E.VBool(False)})
        out = eval_scm(entry.scm, u, iv)
        assert out[VarRef("planning_sequence", 1)] == E.VSym("flag")

    def test_score_under_every_intervention_set(self):
        entry = zoo.platformer()
        u = {r.var: r.dist.value for r in entry.scm.exogenous}
        for iv in entry.scm.interventions.enumerate():
            out = eval_scm(entry.scm, u, iv)
            plan = {out[VarRef("planning_sequence", i)].name for i in range(1, 5)}
            expected = 20.0 - 10.0
            if "coin" in plan:
                expected += 3.0
            if "powerup" in plan:
                expected += 1.0
            if "enemy" in plan and "powerup" in plan:
                expected += 9.0
            if "flag" in plan:
                expected += 2.0
            assert abs(out[VarRef("score")].r - expected) < 1e-12

    def test_claimed_plan_equations_disagree_at_slot_two(self):
        entry = zoo.platformer()
        with pytest.raises(EquivalenceFailedError) as exc:
            register_closed_form(
                entry.scm, entry.partition, entry.targets, 0, entry.reference_ccvs[0]
            )
        cx = exc.value.report.counterexample
        assert cx.var == VarRef("planning_sequence", 2)
        assert cx.base_value == E.VSym("finished")
        assert cx.ccv_value == E.VSym("flag")
        assert cx.interventions.has(VarRef("target_coin"))


def _script(name: str):
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _compression_table():
    return _script("compression_table")


def test_compression_table_exit_status(monkeypatch, capsys):
    table = _compression_table()
    assert table.main() == 0
    assert "not equal" not in capsys.readouterr().err

    real = table.verify_equivalence

    def platformer_fails(scm, cons, targets, strategy):
        report = real(scm, cons, targets, strategy)
        if scm.name == zoo.platformer().scm.name:
            report.verdict = "counterexample"
        return report

    monkeypatch.setattr(table, "verify_equivalence", platformer_fails)
    assert table.main() == 1
    assert "not equal: platformer" in capsys.readouterr().err


def test_output_fingerprint_is_stable(capsys):
    script = _script("output_fingerprint")
    assert script.main() == 0
    first = capsys.readouterr().out
    assert script.main() == 0
    assert capsys.readouterr().out == first
    lines = first.splitlines()
    # five bench models at three seeds, then the total
    assert len(lines) == 16 and lines[-1].startswith("total ")

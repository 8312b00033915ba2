"""The command-line surface: exit codes, CSV shape, deterministic exports."""

import json

import pytest

from scmc.cli import main
from scmc.documents import load_json, save


@pytest.fixture()
def demo_dir(tmp_path):
    assert main(["demo", "step_by_step", "--out-dir", str(tmp_path)]) == 0
    assert main(["demo", "dominoes", "n=10", "--out-dir", str(tmp_path)]) == 0
    assert main(["demo", "matrices", "--out-dir", str(tmp_path)]) == 0
    return tmp_path


class TestValidate:
    def test_clean_model_exits_zero(self, demo_dir, capsys):
        assert main(["validate", str(demo_dir / "dominoes.model.json")]) == 0
        assert "ok" in capsys.readouterr().out

    def test_cyclic_model_exits_one(self, tmp_path, capsys):
        bad = {
            "name": "loop",
            "exogenous": [],
            "endogenous": [
                {"name": "A", "domain": {"kind": "bool"}, "eq": {"op": "not", "args": [{"ref": "A"}]}}
            ],
            "interventions": {"mode": "power_set", "atoms": []},
        }
        path = tmp_path / "loop.json"
        save(str(path), bad)
        assert main(["validate", str(path)]) == 1
        assert "Cycle" in capsys.readouterr().out

    def test_closure_violation_exits_one(self, tmp_path, capsys):
        bad = {
            "name": "closure",
            "exogenous": [
                {"name": "U", "domain": {"kind": "bool"}, "dist": {"kind": "uniform_finite", "values": [False, True]}}
            ],
            "endogenous": [
                {"name": "D", "domain": {"kind": "bool"}, "eq": {"ref": "U"}},
                {"name": "G", "domain": {"kind": "bool"}, "eq": {"ref": "U"}},
            ],
            "interventions": {
                "mode": "explicit",
                "sets": [[{"var": "D", "value": True}, {"var": "G", "value": False}]],
            },
        }
        path = tmp_path / "closure.json"
        save(str(path), bad)
        assert main(["validate", str(path)]) == 1
        assert "ClosureViolation" in capsys.readouterr().out

    def test_explicit_space_with_no_set_exits_one(self, tmp_path, capsys):
        doc = {
            "name": "no-set",
            "exogenous": [
                {"name": "U", "domain": {"kind": "bool"}, "dist": {"kind": "uniform_finite", "values": [False, True]}}
            ],
            "endogenous": [{"name": "D", "domain": {"kind": "bool"}, "eq": {"ref": "U"}}],
            "interventions": {"mode": "explicit", "sets": []},
        }
        path = tmp_path / "no-set.json"
        save(str(path), doc)
        assert main(["validate", str(path)]) == 1
        assert "EmptySpace" in capsys.readouterr().out
        assert main(["--json", "validate", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert not payload["ok"] and [f["kind"] for f in payload["findings"]] == ["EmptySpace"]

    def test_parse_error_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{\n  \"name\": oops\n}\n")
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err


class TestEval:
    def test_csv_shape_and_values(self, demo_dir, capsys):
        assert main(["eval", str(demo_dir / "dominoes.model.json"), "--exo", "push=1"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "draw_index,variable,value"
        assert lines[1] == "0,S_1,true"
        assert lines[-1] == "0,S_10,true"
        assert out.endswith("\n") and "\r" not in out

    def test_interventions_override(self, demo_dir, capsys):
        assert (
            main(["eval", str(demo_dir / "dominoes.model.json"), "--exo", "push=1", "--do", "S_3=0"])
            == 0
        )
        rows = dict(
            line.split(",")[1:] for line in capsys.readouterr().out.splitlines()[1:]
        )
        assert rows["S_3"] == "false"
        assert rows["S_10"] == "false"

    def test_do_without_atom_is_rejected(self, demo_dir, capsys):
        code = main(
            ["eval", str(demo_dir / "step-by-step.model.json"), "--exo", "A=3", "--do", "B=1"]
        )
        assert code == 1
        assert "not in the allowed intervention space" in capsys.readouterr().err

    def test_sampled_mode_writes_per_draw_rows(self, demo_dir, tmp_path):
        out = tmp_path / "draws.csv"
        assert (
            main(
                [
                    "eval",
                    str(demo_dir / "dominoes.model.json"),
                    "--samples",
                    "3",
                    "--seed",
                    "7",
                    "-o",
                    str(out),
                ]
            )
            == 0
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "draw_index,variable,value"
        assert {line.split(",")[0] for line in lines[1:]} == {"0", "1", "2"}

    def test_consolidated_documents_evaluate(self, demo_dir, capsys, tmp_path):
        model = demo_dir / "step-by-step.model.json"
        part = demo_dir / "step-by-step.partition.json"
        out = tmp_path / "sb.consolidated.json"
        assert main(
            ["consolidate", str(model), str(part), "--targets", "C,F,H", "-o", str(out)]
        ) == 0
        capsys.readouterr()
        assert main(["eval", str(out), "--exo", "A=10"]) == 0
        rows = dict(line.split(",")[1:] for line in capsys.readouterr().out.splitlines()[1:])
        assert rows["F"] == "true" and rows["C"] == "false" and rows["H"] == "true"

    def test_pow_overflow_is_a_typed_error(self, tmp_path, capsys):
        # Y = X ** 2 leaves the float range at X = 1e200, where mul gives inf
        doc = {
            "name": "square",
            "exogenous": [{"name": "X", "domain": {"kind": "real"}, "dist": {"kind": "point", "value": 1.0}}],
            "endogenous": [
                {
                    "name": "Y",
                    "domain": {"kind": "real"},
                    "eq": {"op": "pow", "args": [{"ref": "X"}, {"op": "const", "value": 2}]},
                }
            ],
            "interventions": {"mode": "power_set", "atoms": []},
        }
        path = tmp_path / "square.model.json"
        save(str(path), doc)
        assert main(["eval", str(path), "--exo", "X=1e100"]) == 0
        capsys.readouterr()
        assert main(["--json", "eval", str(path), "--exo", "X=1e200"]) == 1
        out, err = capsys.readouterr()
        assert json.loads(out)["error"] == {"kind": "DomainError", "message": "pow result is out of the float range"}
        assert "Traceback" not in err


class TestDeepModels:
    def deep_model(self, tmp_path, depth=5000):
        # written by hand: json.dumps itself cannot nest this deep
        eq = '{"op": "not", "args": [' * depth + '{"ref": "U"}' + "]}" * depth
        text = (
            '{"name": "deep", "exogenous": [{"name": "U", "domain": {"kind": "bool"}, '
            '"dist": {"kind": "uniform_finite", "values": [false, true]}}], '
            '"endogenous": [{"name": "A", "domain": {"kind": "bool"}, "eq": ' + eq + "}], "
            '"interventions": {"mode": "power_set", "atoms": []}}'
        )
        path = tmp_path / "deep.model.json"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_deep_nesting_is_a_typed_error(self, tmp_path, capsys):
        # the document itself nests past the JSON decoder's limit
        path = self.deep_model(tmp_path)
        assert main(["--json", "eval", path, "--exo", "U=true"]) == 1
        out, err = capsys.readouterr()
        assert json.loads(out)["error"] == {"kind": "parse", "message": "document nests too deeply"}
        assert "Traceback" not in err
        assert main(["eval", path, "--exo", "U=true"]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and "Traceback" not in err

    def test_too_deep_document_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        assert main(["--json", "validate", str(path)]) == 1
        out, err = capsys.readouterr()
        assert json.loads(out)["error"] == {"kind": "parse", "message": "document nests too deeply"}
        assert main(["metrics", str(path)]) == 1
        out, err = capsys.readouterr()
        assert err == "error: document nests too deeply\n"

    def test_too_deep_model_is_a_typed_error(self, tmp_path, capsys):
        # the document loads; inlining the 400-stone chain is what nests too deep
        assert main(["demo", "dominoes", "n=400", "--out-dir", str(tmp_path)]) == 0
        model, part = tmp_path / "dominoes.model.json", tmp_path / "dominoes.partition.json"
        capsys.readouterr()
        args = ["--json", "consolidate", str(model), str(part), "--targets", "S_400", "--clusters", "1"]
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert json.loads(out)["error"]["kind"] == "ModelTooDeepError"
        assert "Traceback" not in err


class TestConsolidateVerify:
    def test_end_to_end_with_report(self, demo_dir, tmp_path, capsys):
        model = demo_dir / "step-by-step.model.json"
        part = demo_dir / "step-by-step.partition.json"
        out = tmp_path / "sb.consolidated.json"
        assert main(
            ["consolidate", str(model), str(part), "--targets", "C,F,H", "-o", str(out)]
        ) == 0
        text = capsys.readouterr().out
        assert "marginalized: D" in text
        assert "interventions dropped on: D" in text
        assert out.exists()
        assert main(["verify", str(model), str(out), "--exhaustive"]) == 0

    def test_family_shorthand_targets(self, tmp_path, capsys):
        assert main(["demo", "tool_wear", "T=6", "--out-dir", str(tmp_path)]) == 0
        model = tmp_path / "tool-wear.model.json"
        part = tmp_path / "tool-wear.partition.json"
        assert main(["consolidate", str(model), str(part), "--targets", "S"]) == 0
        out = capsys.readouterr().out
        assert "marginalized:" in out
        assert (tmp_path / "tool-wear.model.consolidated.json").exists()

    def test_no_clusters_writes_a_purely_partitioned_document(self, demo_dir, tmp_path, capsys):
        model = demo_dir / "step-by-step.model.json"
        part = demo_dir / "step-by-step.partition.json"
        out = tmp_path / "partitioned.json"
        assert main(
            [
                "consolidate",
                str(model),
                str(part),
                "--targets",
                "C,F,H",
                "--clusters",
                "none",
                "-o",
                str(out),
            ]
        ) == 0
        doc = load_json(str(out))
        assert all(c["kind"] == "passthrough" for c in doc["ccvs"])
        capsys.readouterr()
        assert main(["verify", str(model), str(out), "--exhaustive"]) == 0

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--clusters", "1,x", "--clusters takes all, none or comma-separated indices, not '1,x'"),
            ("--clusters", "7", "no cluster with index [7]"),
            ("--passes", "fold_by_imge", "unknown pass 'fold_by_imge'"),
        ],
        ids=["clusters-not-a-number", "clusters-out-of-range", "unknown-pass"],
    )
    def test_bad_clusters_and_passes_are_errors(self, demo_dir, tmp_path, capsys, option, value, message):
        model = demo_dir / "step-by-step.model.json"
        part = demo_dir / "step-by-step.partition.json"
        out = tmp_path / "never.json"
        args = ["consolidate", str(model), str(part), "--targets", "C,F,H", option, value, "-o", str(out)]
        assert main(args) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert main(["--json"] + args) == 1
        assert message in json.loads(capsys.readouterr().out)["error"]["message"]
        assert not out.exists()

    def test_sharpness_trajectory_rows(self, tmp_path, capsys):
        assert main(["demo", "tool_wear", "T=6", "--out-dir", str(tmp_path)]) == 0
        model = tmp_path / "tool-wear.model.json"
        part = tmp_path / "tool-wear.partition.json"
        out = tmp_path / "tw.consolidated.json"
        main(["consolidate", str(model), str(part), "--targets", "S", "-o", str(out)])
        capsys.readouterr()
        assert main(["eval", str(out), "--samples", "1", "--do", "S_3=1.0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # only the sharpness family survives: one row per day plus the header
        assert len(lines) == 7
        values = [float(line.split(",")[2]) for line in lines[1:]]
        assert abs(values[2] - 1.0) < 1e-12  # the forced reset
        assert abs(values[3] - 0.85) < 1e-12

    def test_claimed_platformer_forms_fail_verification(self, tmp_path, capsys):
        assert main(["demo", "platformer", "--out-dir", str(tmp_path)]) == 0
        model = tmp_path / "platformer.model.json"
        ref = tmp_path / "platformer.reference.json"
        assert main(["verify", str(model), str(ref), "--exhaustive"]) == 1
        out = capsys.readouterr().out
        assert "planning_sequence_2" in out

    def test_tampered_document_yields_counterexample_exit(self, demo_dir, tmp_path, capsys):
        model = demo_dir / "dominoes.model.json"
        ref = demo_dir / "dominoes.reference.json"
        assert main(["verify", str(model), str(ref), "--exhaustive"]) == 0
        doc = load_json(str(ref))
        for cluster in doc["ccvs"]:
            if cluster["kind"] == "ccv":
                # flip the fallback stone reference to a constant
                cluster["rho"]["S_10"]["args"][2] = {"op": "const", "value": True}
        bad = tmp_path / "tampered.json"
        save(str(bad), doc)
        capsys.readouterr()
        assert main(["verify", str(model), str(bad), "--exhaustive"]) == 1
        out = capsys.readouterr().out
        assert "counterexample" in out

    def test_zero_samples_is_inconclusive(self, demo_dir, capsys):
        model = demo_dir / "dominoes.model.json"
        ref = demo_dir / "dominoes.reference.json"
        assert main(["verify", str(model), str(ref), "--samples", "0"]) == 2
        assert "inconclusive" in capsys.readouterr().out

    def test_json_report(self, demo_dir, capsys):
        model = demo_dir / "dominoes.model.json"
        ref = demo_dir / "dominoes.reference.json"
        assert main(["--json", "verify", str(model), str(ref), "--exhaustive"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "equal"
        assert payload["cases_checked"] == 42


class TestMetrics:
    def test_matrix_nonzeros(self, demo_dir, capsys):
        assert main(["metrics", str(demo_dir / "matrices.json")]) == 0
        out = capsys.readouterr().out
        assert "nnz(A) = 3" in out
        assert "nnz(B) = 2" in out
        assert "nnz(AxB) = 6" in out

    def test_consolidation_shrinks_totals(self, demo_dir, tmp_path, capsys):
        model = demo_dir / "step-by-step.model.json"
        part = demo_dir / "step-by-step.partition.json"
        out = tmp_path / "sb.consolidated.json"
        main(["consolidate", str(model), str(part), "--targets", "C,F,H", "-o", str(out)])
        capsys.readouterr()
        assert main(["metrics", str(model)]) == 0
        before = int(capsys.readouterr().out.splitlines()[-1].split(":")[1])
        assert main(["metrics", str(out)]) == 0
        after = int(capsys.readouterr().out.splitlines()[-1].split(":")[1])
        assert after < before

    def test_single_constant_model(self, tmp_path, capsys):
        doc = {
            "name": "one",
            "exogenous": [],
            "endogenous": [
                {"name": "k", "domain": {"kind": "int", "lo": 0, "hi": 9}, "eq": {"op": "const", "value": 5}}
            ],
            "interventions": {"mode": "power_set", "atoms": []},
        }
        path = tmp_path / "one.json"
        save(str(path), doc)
        assert main(["metrics", str(path)]) == 0
        assert "total: 1" in capsys.readouterr().out


class TestExportDot:
    def test_dominoes_shape(self, demo_dir, capsys):
        assert main(["export-dot", str(demo_dir / "dominoes.model.json")]) == 0
        out = capsys.readouterr().out
        assert '"push" [style=dashed];' in out
        assert '"S_1" -> "S_2";' in out

    def test_byte_identical_across_runs(self, demo_dir, tmp_path):
        a, b = tmp_path / "a.dot", tmp_path / "b.dot"
        assert main(["export-dot", str(demo_dir / "step-by-step.model.json"), "-o", str(a)]) == 0
        assert main(["export-dot", str(demo_dir / "step-by-step.model.json"), "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestDemoRoundTrip:
    def test_export_load_export_is_byte_identical(self, demo_dir):
        from scmc.documents import (
            consolidated_from_doc,
            consolidated_to_doc,
            model_from_doc,
            model_to_doc,
            partition_from_doc,
            partition_to_doc,
            to_json,
        )

        for name in ("dominoes.model.json", "step-by-step.model.json"):
            raw = (demo_dir / name).read_text()
            assert to_json(model_to_doc(model_from_doc(json.loads(raw)))) == raw
        raw = (demo_dir / "step-by-step.partition.json").read_text()
        assert to_json(partition_to_doc(partition_from_doc(json.loads(raw)))) == raw
        raw = (demo_dir / "dominoes.reference.json").read_text()
        assert to_json(consolidated_to_doc(consolidated_from_doc(json.loads(raw)))) == raw

    def test_unknown_demo_name(self, tmp_path, capsys):
        assert main(["demo", "nonesuch", "--out-dir", str(tmp_path)]) == 1

    def test_json_error_payload(self, tmp_path, capsys):
        assert main(["--json", "validate", str(tmp_path / "missing.json")]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["kind"] == "parse"

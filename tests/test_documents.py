"""Document formats: strict loading, canonical export, family expansion."""

import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import oracle_to_json, random_model, random_partition
from scmc import expr as E
from scmc import zoo
from scmc.documents import (
    consolidated_from_doc,
    consolidated_to_doc,
    doc_kind,
    expr_from_json,
    expr_to_json,
    load_json,
    load_model,
    model_from_doc,
    model_to_doc,
    parse_value_for_domain,
    partition_from_doc,
    partition_to_doc,
    save,
    to_json,
)
from scmc.errors import ModelTooDeepError, ParseError
from scmc.evaluation import enumerate_exogenous
from scmc.consolidation import CcvCluster, consolidate, eval_consolidated
from scmc.expr import BoolDomain, IntDomain, RealDomain, SymDomain, VarRef
from scmc.scm import EndoVar, InterventionSet, Scm, validate


def entries():
    return [
        zoo.dominoes(4),
        zoo.tool_wear(5),
        zoo.firing_squad(3),
        zoo.step_by_step(),
        zoo.platformer(),
    ]


class TestRoundTrips:
    def test_model_documents_are_byte_stable(self):
        for entry in entries():
            text = to_json(model_to_doc(entry.scm))
            reloaded = model_from_doc(json.loads(text))
            assert to_json(model_to_doc(reloaded)) == text
            assert validate(reloaded).ok

    def test_partition_documents_are_byte_stable(self):
        for entry in entries():
            text = to_json(partition_to_doc(entry.partition))
            reloaded = partition_from_doc(json.loads(text))
            assert to_json(partition_to_doc(reloaded)) == text

    def test_consolidated_documents_are_byte_stable_and_evaluable(self):
        for entry in entries():
            cons = entry.consolidated()
            text = to_json(consolidated_to_doc(cons))
            reloaded = consolidated_from_doc(json.loads(text))
            assert to_json(consolidated_to_doc(reloaded)) == text
            u = enumerate_exogenous(entry.scm, budget=64)[0]
            assert eval_consolidated(reloaded, u, InterventionSet.empty()) == eval_consolidated(
                cons, u, InterventionSet.empty()
            )

    def test_expression_codec_covers_every_node(self):
        entry = zoo.platformer()
        for row in entry.scm.endogenous:
            raw = expr_to_json(row.equation)
            assert expr_from_json(raw) == row.equation
        closed = zoo.dominoes_closed_form()
        assert expr_from_json(expr_to_json(closed)) == closed
        tw = zoo.tool_wear_closed_form(7)
        assert expr_from_json(expr_to_json(tw)) == tw

    def test_remaining_node_kinds_round_trip(self):
        v = VarRef("S", 3)
        nodes = [
            E.InterventionValue(v, E.Ref(VarRef("S", 1))),
            E.InterventionValue(v),
            E.Unary("neg", E.Ref(VarRef("A"))),
            E.ExistsIntervention("S", lo=1, hi=9, value=E.VInt(0)),
        ]
        for node in nodes:
            assert expr_from_json(expr_to_json(node)) == node

    def test_draw_nodes_round_trip(self):
        scm = zoo.bernoulli_fork().scm
        text = to_json(model_to_doc(scm))
        reloaded = model_from_doc(json.loads(text))
        assert to_json(model_to_doc(reloaded)) == text
        assert reloaded.equation_of(VarRef("B")) == scm.equation_of(VarRef("B"))


class TestStrictness:
    def test_unknown_top_level_field_rejected(self):
        doc = model_to_doc(zoo.dominoes(3).scm)
        doc["extra"] = 1
        with pytest.raises(ParseError):
            model_from_doc(doc)

    def test_unknown_entry_field_rejected(self):
        doc = model_to_doc(zoo.dominoes(3).scm)
        doc["endogenous"][0]["comment"] = "nope"
        with pytest.raises(ParseError):
            model_from_doc(doc)

    def test_missing_field_rejected(self):
        doc = model_to_doc(zoo.dominoes(3).scm)
        del doc["interventions"]
        with pytest.raises(ParseError):
            model_from_doc(doc)

    def test_unknown_expression_op(self):
        with pytest.raises(ParseError):
            expr_from_json({"op": "xor", "args": []})

    def test_doc_kind_detection(self):
        entry = zoo.step_by_step()
        assert doc_kind(model_to_doc(entry.scm)) == "model"
        assert doc_kind(partition_to_doc(entry.partition)) == "partition"
        assert doc_kind(consolidated_to_doc(entry.consolidated())) == "consolidated"
        assert doc_kind({"matrices": zoo.MATRIX_DEMO}) == "matrices"


class TestFamilies:
    def make_doc(self):
        return {
            "name": "fam",
            "exogenous": [
                {
                    "name": "push",
                    "domain": {"kind": "bool"},
                    "dist": {"kind": "uniform_finite", "values": [False, True]},
                }
            ],
            "endogenous": [
                {"name": "S_1", "domain": {"kind": "bool"}, "eq": {"ref": "push"}},
                {
                    "name": "S",
                    "range": {"lo": 2, "hi": 5},
                    "domain": {"kind": "bool"},
                    "eq": {"ref": "S", "index": "i-1"},
                },
            ],
            "interventions": {"mode": "singleton", "atoms": [{"var": "S_2", "values": [True]}]},
        }

    def test_range_expansion(self):
        scm = model_from_doc(self.make_doc())
        assert [str(v) for v in scm.endo_vars()] == ["S_1", "S_2", "S_3", "S_4", "S_5"]
        assert validate(scm).ok
        assert scm.equation_of(VarRef("S", 3)) == E.Ref(VarRef("S", 2))

    def test_relative_index_outside_family_rejected(self):
        doc = self.make_doc()
        doc["endogenous"][0]["eq"] = {"ref": "S", "index": "i-1"}
        with pytest.raises(ParseError):
            model_from_doc(doc)

    def test_indexed_names_parse_everywhere(self):
        part = partition_from_doc({"clusters": [["S_1"], ["S_2", "S_3"]]})
        assert part.clusters[1] == frozenset({VarRef("S", 2), VarRef("S", 3)})


class TestValueParsing:
    def test_against_domains(self):
        assert parse_value_for_domain("true", BoolDomain()) == E.VBool(True)
        assert parse_value_for_domain("0", BoolDomain()) == E.VBool(False)
        assert parse_value_for_domain("12", IntDomain(0, 20)) == E.VInt(12)
        assert parse_value_for_domain("0.85", RealDomain()) == E.VReal(0.85)
        assert parse_value_for_domain("lives", SymDomain(("lives", "dies"))) == E.VSym("lives")

    def test_rejections(self):
        with pytest.raises(ParseError):
            parse_value_for_domain("maybe", BoolDomain())
        with pytest.raises(ParseError):
            parse_value_for_domain("x", IntDomain(0, 3))
        with pytest.raises(ParseError):
            parse_value_for_domain("sleeps", SymDomain(("lives", "dies")))


# ---------------------------------------------------------------------------
# Canonical text: byte parity with json.dumps(indent=2)
# ---------------------------------------------------------------------------

_NAN, _INF = float("nan"), float("inf")


class _Count(int):
    """json.dumps writes int and float subclasses as their base type."""

    __repr__ = __str__ = lambda self: "count"


class _Ratio(float):
    __repr__ = __str__ = lambda self: "ratio"


_CHARS = st.one_of(
    st.characters(),
    st.sampled_from(["\x00", "\x1f", "\x7f", '"', "\\", "\u2028", "\ud800", "\udfff", "\U0001f600"]),
)
_FLOATS = st.one_of(st.floats(), st.sampled_from([-0.0, 5e-324, 1e16, _NAN, _INF, -_INF]))
_INTS = st.one_of(
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**64)),
)
_KEYS = st.one_of(st.text(_CHARS), _INTS, _FLOATS, st.booleans(), st.none())
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), _INTS, _FLOATS, st.text(_CHARS)),
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.dictionaries(_KEYS, inner),
    ),
    max_leaves=25,
)


def _zoo_documents():
    yield {"matrices": zoo.MATRIX_DEMO}
    for build in zoo.ZOO_BUILDERS.values():
        entry = build()
        yield model_to_doc(entry.scm)
        yield partition_to_doc(entry.partition)
        yield consolidated_to_doc(entry.consolidated())
        if entry.reference_ccvs:
            yield consolidated_to_doc(entry.reference_consolidated())


class TestCanonicalText:
    @given(_JSON)
    @example([[], {}, [[]], {"a": {}}, ([], ()), [{"b": [[{}]]}]])
    @example({1: 0, 1.5: 1, False: 2, None: 3, -0.0: 4, _NAN: 5, -_INF: 6, 2**70: 7, "\n\ud800": 8})
    @example([True, 1, False, 0, 1.0, -0.0, 5e-324, 1e16, _NAN, _INF, -_INF, 2**64 + 1, -(2**70)])
    @example({_Count(2): [_Count(3), _Ratio(0.5)], _Ratio(1.5): {"v": _Count(4)}})
    def test_matches_the_standard_library(self, doc):
        assert to_json(doc) == oracle_to_json(doc)

    def test_zoo_documents_match_the_standard_library(self):
        count = 0
        for doc in _zoo_documents():
            assert to_json(doc) == oracle_to_json(doc)
            count += 1
        assert count >= 3 * len(zoo.ZOO_BUILDERS) + 1

    def test_random_consolidations_match_the_standard_library(self):
        for seed in range(50):
            scm = random_model(seed, max_endo=8, max_domain=4)
            partition = random_partition(scm, seed + 999)
            cons = consolidate(scm, partition, scm.endo_vars()[-2:])
            for doc in (model_to_doc(scm), partition_to_doc(partition), consolidated_to_doc(cons)):
                assert to_json(doc) == oracle_to_json(doc), seed

    def test_circular_containers_raise_value_error(self):
        loop = [1]
        loop.append(loop)
        mapping = {"a": 1}
        mapping["self"] = mapping
        mixed = [{"x": None}]
        mixed[0]["x"] = mixed
        for doc in (loop, mapping, mixed, {"outer": [loop]}):
            for write in (to_json, oracle_to_json):
                with pytest.raises(ValueError, match="Circular reference detected"):
                    write(doc)

    def test_unsupported_values_and_keys_raise_type_error(self):
        docs = [set(), b"x", object(), [1, {2}], {"k": b"x"}, {"k": [object()]}]
        docs += [{b"x": 1}, {object(): 1}, {frozenset(): 1}, {(1, 2): 1}]
        for doc in docs:
            for write in (to_json, oracle_to_json):
                with pytest.raises(TypeError):
                    write(doc)

    def test_no_depth_ceiling(self):
        depth = 5000
        doc = []
        for _ in range(depth - 1):
            doc = [doc]
        # written by hand: json.dumps raises RecursionError at this depth
        lines = ["  " * d + "[" for d in range(depth - 1)]
        lines.append("  " * (depth - 1) + "[]")
        lines += ["  " * d + "]" for d in reversed(range(depth - 1))]
        assert to_json(doc) == "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Documents that nest too deeply
# ---------------------------------------------------------------------------


def _deep_not(depth: int) -> E.Expr:
    e = E.Ref(VarRef("push"))
    for _ in range(depth):
        e = E.Unary("not", e)
    return e


def _deep_not_doc(depth: int) -> dict:
    raw = {"ref": "push"}
    for _ in range(depth):
        raw = {"op": "not", "args": [raw]}
    return raw


class TestTooDeep:
    def test_too_deep_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        with pytest.raises(ParseError, match="document nests too deeply") as info:
            load_json(str(path))
        assert isinstance(info.value.__cause__, RecursionError)

    def test_too_deep_models_are_typed_errors(self):
        entry = zoo.dominoes(3)
        first = entry.scm.endogenous[0]
        deep = Scm(
            name="deep",
            endogenous=(EndoVar(first.var, first.domain, _deep_not(5000)),) + entry.scm.endogenous[1:],
            exogenous=entry.scm.exogenous,
            interventions=entry.scm.interventions,
        )
        with pytest.raises(ModelTooDeepError) as info:
            model_to_doc(deep)
        assert isinstance(info.value.__cause__, RecursionError)
        doc = model_to_doc(entry.scm)
        doc["endogenous"][0]["eq"] = _deep_not_doc(5000)
        with pytest.raises(ModelTooDeepError):
            model_from_doc(doc)

    def test_too_deep_consolidated_models_are_typed_errors(self):
        cons = zoo.dominoes(3).consolidated()
        doc = consolidated_to_doc(cons)
        entry = next(c for c in doc["ccvs"] if c["kind"] == "ccv")
        target = next(iter(entry["rho"]))
        entry["rho"][target] = _deep_not_doc(5000)
        with pytest.raises(ModelTooDeepError):
            consolidated_from_doc(doc)
        cluster = next(c for c in cons.clusters if isinstance(c, CcvCluster))
        cluster.ccv.rho[cluster.ccv.targets[0]] = _deep_not(5000)
        with pytest.raises(ModelTooDeepError):
            consolidated_to_doc(cons)

    def _nested_model_doc(self, depth: int) -> dict:
        entry = zoo.dominoes(2)
        doc = model_to_doc(entry.scm)
        doc["endogenous"][0]["eq"] = _deep_not_doc(depth)
        return doc

    def test_save_refuses_what_load_cannot_read_back(self, tmp_path):
        doc = self._nested_model_doc(500)
        # the model itself is fine: it parses and validates
        assert validate(model_from_doc(doc)).ok
        path = tmp_path / "deep.model.json"
        with pytest.raises(ModelTooDeepError) as info:
            save(str(path), doc)
        assert isinstance(info.value.__cause__, RecursionError)
        assert not path.exists()
        # nor is an existing file truncated
        path.write_text("kept", encoding="utf-8")
        with pytest.raises(ModelTooDeepError):
            save(str(path), doc)
        assert path.read_text(encoding="utf-8") == "kept"

    def test_save_writes_what_load_reads_back(self, tmp_path):
        doc = self._nested_model_doc(400)
        path = tmp_path / "nested.model.json"
        save(str(path), doc)
        assert path.read_text(encoding="utf-8") == to_json(doc)
        assert load_json(str(path)) == doc
        assert model_to_doc(load_model(str(path))) == doc


# ---------------------------------------------------------------------------
# Damaged documents
# ---------------------------------------------------------------------------

#: values of every JSON type, and names whose index `int` cannot read, put in
#: place of a field or an entry
WRONG_VALUES = [None, True, 7, -1, 2.5, "x", "i-", "S_\u00b2", "S_--1", [], {}, [1, 2], {"x": 1}]
#: in place of a wrong value: the entry deleted
_DELETE = object()


def _paths(doc, at=()):
    """The path of every entry of `doc`, containers included, outermost first."""
    yield at
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, at + (key,))
    elif isinstance(doc, list):
        for k, value in enumerate(doc):
            yield from _paths(value, at + (k,))


def _damaged(doc):
    """Copies of `doc`, each with one entry deleted or swapped for a value
    of another type."""
    for path in _paths(doc):
        if not path:
            continue
        for wrong in [_DELETE] + WRONG_VALUES:
            copy = json.loads(json.dumps(doc))
            *head, last = path
            parent = copy
            for key in head:
                parent = parent[key]
            if wrong is _DELETE:
                del parent[last]
            else:
                parent[last] = wrong
            yield path, copy


def _damage_cases():
    entries = [zoo.step_by_step(), zoo.dominoes(3), zoo.tool_wear(2), zoo.firing_squad(3)]
    cases = [
        pytest.param(model_from_doc, TestFamilies().make_doc(), id="family-model"),
        pytest.param(model_from_doc, model_to_doc(zoo.bernoulli_fork().scm), id="bernoulli_fork-model"),
    ]
    for entry in entries:
        name = entry.scm.name
        cases.append(pytest.param(model_from_doc, model_to_doc(entry.scm), id=f"{name}-model"))
        cases.append(pytest.param(partition_from_doc, partition_to_doc(entry.partition), id=f"{name}-partition"))
        cases.append(pytest.param(consolidated_from_doc, consolidated_to_doc(entry.consolidated()), id=f"{name}-consolidated"))
    return cases


@pytest.mark.parametrize("load, doc", _damage_cases())
def test_a_damaged_document_raises_only_parse_errors(load, doc):
    """Every key deleted and every entry swapped for a value of each JSON
    type, one at a time: the loader returns or raises `ParseError`."""
    load(json.loads(json.dumps(doc)))
    checked = 0
    for path, copy in _damaged(doc):
        try:
            load(copy)
        except ParseError:
            pass
        except Exception as exc:  # noqa: BLE001 - reported with the path
            pytest.fail(f"damaged at {path}: {type(exc).__name__}: {exc}")
        checked += 1
    assert checked >= len(WRONG_VALUES)

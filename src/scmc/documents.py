"""JSON document formats: models, partitions, consolidated models, reports.

Documents are strict (unknown fields are rejected) and exports are
canonical, so export -> load -> export is byte-identical.  Indexed variable
families may be declared once with a range; the loader expands them into
scalar variables, resolving the relative indices "i", "i-1", ... that a
family equation may use.  A variable name with a trailing ``_<int>`` always
denotes the indexed member of a family.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Any, Optional

from . import expr as E
from . import scm as S
from .consolidation import (
    Ccv,
    CcvCluster,
    ClusterReport,
    CompressionReport,
    ConsolidatedScm,
    PassLogEntry,
    PassthroughCluster,
)
from .errors import DomainError, ModelTooDeepError, ParseError, recursion_as_too_deep
from .expr import Domain, Expr, Value, VarRef, parse_var_name, ref_sort_key
from .partition import Partition, SubScm
from .scm import EndoVar, ExoVar, InterventionSet, InterventionSpace, Scm

# ---------------------------------------------------------------------------
# Scalar pieces
# ---------------------------------------------------------------------------


def value_to_json(v: Value):
    match v:
        case E.VBool(b):
            return b
        case E.VInt(i):
            return i
        case E.VReal(r):
            return r
        case E.VSym(name):
            return name
    raise ParseError(f"not a value: {v!r}")


def value_from_json(raw) -> Value:
    if isinstance(raw, bool):
        return E.VBool(raw)
    if isinstance(raw, int):
        return E.VInt(raw)
    if isinstance(raw, float):
        return E.VReal(raw)
    if isinstance(raw, str):
        return E.VSym(raw)
    raise ParseError(f"cannot read value {raw!r}")


def format_value(v: Value) -> str:
    match v:
        case E.VBool(b):
            return "true" if b else "false"
        case E.VInt(i):
            return str(i)
        case E.VReal(r):
            return repr(r)
        case E.VSym(name):
            return name
    raise ParseError(f"not a value: {v!r}")


def parse_value_for_domain(text: str, dom: Domain) -> Value:
    """Parse a command-line value against a declared domain."""
    match dom:
        case E.BoolDomain():
            low = text.strip().lower()
            if low in ("true", "1", "yes"):
                return E.VBool(True)
            if low in ("false", "0", "no"):
                return E.VBool(False)
            raise ParseError(f"{text!r} is not a boolean")
        case E.IntDomain():
            try:
                return E.VInt(int(text))
            except ValueError as exc:
                raise ParseError(f"{text!r} is not an integer") from exc
        case E.RealDomain():
            try:
                return E.VReal(float(text))
            except ValueError as exc:
                raise ParseError(f"{text!r} is not a number") from exc
        case E.SymDomain(symbols):
            if text in symbols:
                return E.VSym(text)
            raise ParseError(f"{text!r} is not one of {', '.join(symbols)}")
    raise ParseError(f"unknown domain {dom!r}")


def domain_to_json(d: Domain) -> dict:
    match d:
        case E.BoolDomain():
            return {"kind": "bool"}
        case E.IntDomain(lo, hi):
            return {"kind": "int", "lo": lo, "hi": hi}
        case E.SymDomain(symbols):
            return {"kind": "sym", "symbols": list(symbols)}
        case E.RealDomain(lo, hi):
            out = {"kind": "real"}
            if lo is not None:
                out["lo"] = lo
            if hi is not None:
                out["hi"] = hi
            return out
    raise ParseError(f"not a domain: {d!r}")


def domain_from_json(raw) -> Domain:
    try:
        return _domain_from_json(raw)
    except DomainError as exc:  # an empty domain
        raise ParseError(str(exc)) from exc


def _domain_from_json(raw) -> Domain:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ParseError(f"bad domain {raw!r}")
    kind = raw["kind"]
    if kind == "bool":
        _expect_keys(raw, {"kind"}, "domain")
        return E.BoolDomain()
    if kind == "int":
        _expect_keys(raw, {"kind", "lo", "hi"}, "domain")
        return E.IntDomain(_of(raw["lo"], int, "domain bound"), _of(raw["hi"], int, "domain bound"))
    if kind == "sym":
        _expect_keys(raw, {"kind", "symbols"}, "domain")
        return E.SymDomain(tuple(_of(x, str, "symbol") for x in _of(raw["symbols"], list, "symbols")))
    if kind == "real":
        _expect_keys(raw, {"kind", "lo", "hi"}, "domain", optional={"lo", "hi"})
        return E.RealDomain(
            _number(raw["lo"], "domain bound") if "lo" in raw else None,
            _number(raw["hi"], "domain bound") if "hi" in raw else None,
        )
    raise ParseError(f"unknown domain kind {kind!r}")


def dist_to_json(dist: S.ExoDistribution) -> dict:
    match dist:
        case S.PointMass(v):
            return {"kind": "point", "value": value_to_json(v)}
        case S.UniformFinite(values):
            return {"kind": "uniform_finite", "values": [value_to_json(v) for v in values]}
        case S.NormalDist(mean, variance):
            return {"kind": "normal", "mean": mean, "variance": variance}
        case S.UniformReal(lo, hi):
            return {"kind": "uniform_real", "lo": lo, "hi": hi}
        case S.BernoulliDist(p):
            return {"kind": "bernoulli", "p": p}
    raise ParseError(f"not a distribution: {dist!r}")


def dist_from_json(raw) -> S.ExoDistribution:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ParseError(f"bad distribution {raw!r}")
    kind = raw["kind"]
    if kind == "point":
        _expect_keys(raw, {"kind", "value"}, "distribution")
        return S.PointMass(value_from_json(raw["value"]))
    if kind == "uniform_finite":
        _expect_keys(raw, {"kind", "values"}, "distribution")
        return S.UniformFinite(tuple(value_from_json(v) for v in _of(raw["values"], list, "support")))
    if kind == "normal":
        _expect_keys(raw, {"kind", "mean", "variance"}, "distribution")
        return S.NormalDist(_number(raw["mean"], "mean"), _number(raw["variance"], "variance"))
    if kind == "uniform_real":
        _expect_keys(raw, {"kind", "lo", "hi"}, "distribution")
        return S.UniformReal(_number(raw["lo"], "distribution bound"), _number(raw["hi"], "distribution bound"))
    if kind == "bernoulli":
        _expect_keys(raw, {"kind", "p"}, "distribution")
        return S.BernoulliDist(_number(raw["p"], "p"))
    raise ParseError(f"unknown distribution kind {kind!r}")


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer", float: "a number"}
_JSON_TYPES.update({bool: "a boolean", type(None): "null"})


def _of(raw, kind, what: str):
    """`raw` where it is a `kind`, a type or a tuple of types, and a bool
    only where `kind` is `bool`; else a `ParseError`."""
    if type(raw) is not kind and (not isinstance(raw, kind) or isinstance(raw, bool)):
        want = " or ".join(_JSON_TYPES[t] for t in (kind if isinstance(kind, tuple) else (kind,)))
        raise ParseError(f"{what} must be {want}, not {_JSON_TYPES.get(type(raw), type(raw).__name__)}")
    return raw


def _number(raw, what: str) -> float:
    try:
        return float(_of(raw, (int, float), what))
    except OverflowError as exc:
        raise ParseError(f"{what} is out of the float range") from exc


def _names(raw, what: str) -> list[VarRef]:
    return [parse_var_name(n) for n in _of(raw, list, what)]


def _args(raw, count: int, what: str) -> list:
    """`raw`, a list of `count` entries."""
    if type(raw) is not list or len(raw) != count:
        got = f"{len(raw)} of them" if type(raw) is list else _JSON_TYPES.get(type(raw), type(raw).__name__)
        raise ParseError(f"{what} takes {count} argument(s) in an array, not {got}")
    return raw


def _expect_keys(raw: dict, allowed: set, what: str, optional: set = frozenset()):
    keys = set(_of(raw, dict, what))
    if not keys <= allowed:
        extra = ", ".join(sorted(keys - allowed))
        raise ParseError(f"unknown field(s) in {what}: {extra}")
    required = allowed - set(optional)
    if not required <= keys:
        missing = ", ".join(sorted(required - keys))
        raise ParseError(f"missing field(s) in {what}: {missing}")


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

_BIN_NAMES = sorted(E.BINARY_OPS)


def expr_to_json(e: Expr):
    match e:
        case E.Const(v):
            return {"op": "const", "value": value_to_json(v)}
        case E.Ref(var):
            out = {"ref": var.name}
            if var.index is not None:
                out["index"] = var.index
            return out
        case E.Unary(op, a):
            return {"op": op, "args": [expr_to_json(a)]}
        case E.Binary(op, l, r):
            return {"op": op, "args": [expr_to_json(l), expr_to_json(r)]}
        case E.IfThenElse(c, t, o):
            return {"op": "if", "args": [expr_to_json(c), expr_to_json(t), expr_to_json(o)]}
        case E.CaseList(cases, default):
            return {
                "op": "cases",
                "cases": [[expr_to_json(g), expr_to_json(b)] for g, b in cases],
                "default": expr_to_json(default),
            }
        case E.IsIntervened(var):
            return {"op": "is_intervened", "var": str(var)}
        case E.InterventionValue(var, fb):
            out = {"op": "intervention_value", "var": str(var)}
            if fb is not None:
                out["args"] = [expr_to_json(fb)]
            return out
        case E.ExistsIntervention(family, lo, hi, value):
            out = {"op": "exists_intervention", "family": family}
            if lo is not None:
                out["lo"] = lo
            if hi is not None:
                out["hi"] = hi
            if value is not None:
                out["value"] = value_to_json(value)
            return out
        case E.MaxIntervenedIndex(family, upper, default):
            return {
                "op": "max_intervened_index",
                "family": family,
                "args": [expr_to_json(upper), expr_to_json(default)],
            }
        case E.RandomBernoulli(p):
            return {"op": "bernoulli", "args": [expr_to_json(p)]}
    raise ParseError(f"not an expression: {e!r}")


def expr_from_json(raw, index: Optional[int] = None) -> Expr:
    """Read an expression; `index` resolves relative family indices."""
    if not isinstance(raw, dict):
        raise ParseError(f"bad expression {raw!r}")
    if "ref" in raw:
        _expect_keys(raw, {"ref", "index"}, "ref", optional={"index"})
        name = _of(raw["ref"], str, "ref")
        if "index" not in raw:
            return E.Ref(parse_var_name(name))
        idx = raw["index"]
        return E.Ref(VarRef(name, _resolve_relative(idx, index) if isinstance(idx, str) else _of(idx, int, "index")))
    if "op" not in raw:
        raise ParseError(f"expression without op: {raw!r}")
    op = _of(raw["op"], str, "op")
    if op == "const":
        _expect_keys(raw, {"op", "value"}, "const")
        return E.Const(value_from_json(raw["value"]))
    if op in ("not", "neg"):
        _expect_keys(raw, {"op", "args"}, op)
        (a,) = _args(raw["args"], 1, op)
        return E.Unary(op, expr_from_json(a, index))
    if op in E.BINARY_OPS:
        _expect_keys(raw, {"op", "args"}, op)
        l, r = _args(raw["args"], 2, op)
        return E.Binary(op, expr_from_json(l, index), expr_from_json(r, index))
    if op == "if":
        _expect_keys(raw, {"op", "args"}, "if")
        c, t, o = _args(raw["args"], 3, op)
        return E.IfThenElse(expr_from_json(c, index), expr_from_json(t, index), expr_from_json(o, index))
    if op == "cases":
        _expect_keys(raw, {"op", "cases", "default"}, "cases")
        pairs = [_args(case, 2, "case") for case in _of(raw["cases"], list, "cases")]
        cases = tuple((expr_from_json(g, index), expr_from_json(b, index)) for g, b in pairs)
        return E.CaseList(cases, expr_from_json(raw["default"], index))
    if op == "is_intervened":
        _expect_keys(raw, {"op", "var"}, op)
        return E.IsIntervened(parse_var_name(raw["var"]))
    if op == "intervention_value":
        _expect_keys(raw, {"op", "var", "args"}, op, optional={"args"})
        fb = None
        if "args" in raw:
            (fb_raw,) = _args(raw["args"], 1, op)
            fb = expr_from_json(fb_raw, index)
        return E.InterventionValue(parse_var_name(raw["var"]), fb)
    if op == "exists_intervention":
        _expect_keys(raw, {"op", "family", "lo", "hi", "value"}, op, optional={"lo", "hi", "value"})
        return E.ExistsIntervention(
            _of(raw["family"], str, "family"),
            _of(raw["lo"], int, "lo") if "lo" in raw else None,
            _of(raw["hi"], int, "hi") if "hi" in raw else None,
            value_from_json(raw["value"]) if "value" in raw else None,
        )
    if op == "max_intervened_index":
        _expect_keys(raw, {"op", "family", "args"}, op)
        u, d = _args(raw["args"], 2, op)
        family = _of(raw["family"], str, "family")
        return E.MaxIntervenedIndex(family, expr_from_json(u, index), expr_from_json(d, index))
    if op == "bernoulli":
        _expect_keys(raw, {"op", "args"}, op)
        (p,) = _args(raw["args"], 1, op)
        return E.RandomBernoulli(expr_from_json(p, index))
    raise ParseError(f"unknown expression op {op!r}")


def _resolve_relative(text: str, index: Optional[int]) -> int:
    if index is None:
        raise ParseError(f"relative index {text!r} outside a family declaration")
    t = text.replace(" ", "")
    if t == "i":
        return index
    try:
        if t.startswith("i+"):
            return index + int(t[2:])
        if t.startswith("i-"):
            return index - int(t[2:])
    except ValueError:
        pass
    raise ParseError(f"bad relative index {text!r}")


# ---------------------------------------------------------------------------
# Intervention spaces and sets
# ---------------------------------------------------------------------------


def _atom_to_json(var: VarRef, values) -> dict:
    return {"var": str(var), "values": [value_to_json(v) for v in values]}


def space_to_json(space: InterventionSpace) -> dict:
    if space.mode == S.EXPLICIT:
        return {
            "mode": "explicit",
            "sets": [
                [{"var": str(v), "value": value_to_json(val)} for v, val in s.assignments]
                for s in space.sets
            ],
        }
    return {
        "mode": space.mode,
        "atoms": [_atom_to_json(v, vals) for v, vals in space.atoms],
    }


def space_from_json(raw) -> InterventionSpace:
    if not isinstance(raw, dict) or "mode" not in raw:
        raise ParseError(f"bad interventions section {raw!r}")
    mode = raw["mode"]
    if mode == "explicit":
        _expect_keys(raw, {"mode", "sets"}, "interventions")
        sets = []
        for entry in _of(raw["sets"], list, "sets"):
            pairs = []
            for a in _of(entry, list, "intervention set"):
                _expect_keys(a, {"var", "value"}, "intervention atom")
                pairs.append((parse_var_name(a["var"]), value_from_json(a["value"])))
            try:
                sets.append(InterventionSet.of(pairs))
            except DomainError as exc:
                raise ParseError(str(exc)) from exc
        return InterventionSpace.explicit(sets)
    if mode in (S.POWER_SET, S.SINGLETON):
        _expect_keys(raw, {"mode", "atoms"}, "interventions")
        atoms = []
        for a in _of(raw["atoms"], list, "atoms"):
            _expect_keys(a, {"var", "values"}, "intervention atom")
            atoms.append((parse_var_name(a["var"]), [value_from_json(v) for v in _of(a["values"], list, "atom values")]))
        return InterventionSpace(mode, atoms)
    raise ParseError(f"unknown interventions mode {mode!r}")


def iset_to_json(s: InterventionSet) -> list:
    return [{"var": str(v), "value": value_to_json(val)} for v, val in s.assignments]


# ---------------------------------------------------------------------------
# Model documents
# ---------------------------------------------------------------------------

_MODEL_KEYS = {"name", "exogenous", "endogenous", "interventions", "inverse_pairs"}


@recursion_as_too_deep
def model_to_doc(scm: Scm) -> dict:
    doc = {
        "name": scm.name,
        "exogenous": [
            {"name": str(r.var), "domain": domain_to_json(r.domain), "dist": dist_to_json(r.dist)}
            for r in scm.exogenous
        ],
        "endogenous": [
            {"name": str(r.var), "domain": domain_to_json(r.domain), "eq": expr_to_json(r.equation)}
            for r in scm.endogenous
        ],
        "interventions": space_to_json(scm.interventions),
    }
    if scm.inverse_pairs:
        doc["inverse_pairs"] = [[str(a), str(b)] for a, b in scm.inverse_pairs]
    return doc


@recursion_as_too_deep
def model_from_doc(doc) -> Scm:
    _expect_keys(doc, _MODEL_KEYS, "model document", optional={"inverse_pairs"})
    exo_rows: list[ExoVar] = []
    for raw in _of(doc["exogenous"], list, "exogenous"):
        _expect_keys(raw, {"name", "domain", "dist", "range"}, "exogenous entry", optional={"range"})
        dom = domain_from_json(raw["domain"])
        dist = dist_from_json(raw["dist"])
        for var in _expand_names(raw):
            exo_rows.append(ExoVar(var, dom, dist))
    endo_rows: list[EndoVar] = []
    for raw in _of(doc["endogenous"], list, "endogenous"):
        _expect_keys(raw, {"name", "domain", "eq", "range"}, "endogenous entry", optional={"range"})
        dom = domain_from_json(raw["domain"])
        if "range" in raw:
            for var in _expand_names(raw):
                endo_rows.append(EndoVar(var, dom, expr_from_json(raw["eq"], var.index)))
        else:
            endo_rows.append(EndoVar(parse_var_name(raw["name"]), dom, expr_from_json(raw["eq"])))
    pairs = tuple(
        tuple(_names(_args(p, 2, "inverse pair"), "inverse pair"))
        for p in _of(doc.get("inverse_pairs", []), list, "inverse_pairs")
    )
    return Scm(
        name=_of(doc["name"], str, "name"),
        endogenous=tuple(endo_rows),
        exogenous=tuple(exo_rows),
        interventions=space_from_json(doc["interventions"]),
        inverse_pairs=pairs,
    )


def _expand_names(raw: dict) -> list[VarRef]:
    if "range" in raw:
        name = _of(raw["name"], str, "family name")
        lo, hi = _range_bounds(raw["range"])
        return [VarRef(name, i) for i in range(lo, hi + 1)]
    return [parse_var_name(raw["name"])]


def _range_bounds(raw) -> tuple[int, int]:
    _expect_keys(raw, {"lo", "hi"}, "range")
    lo, hi = _of(raw["lo"], int, "range bound"), _of(raw["hi"], int, "range bound")
    if lo > hi:
        raise ParseError(f"empty range {lo}..{hi}")
    return lo, hi


# ---------------------------------------------------------------------------
# Partition documents
# ---------------------------------------------------------------------------


def partition_to_doc(partition: Partition) -> dict:
    return {
        "clusters": [
            [str(v) for v in sorted(c, key=ref_sort_key)] for c in partition.clusters
        ]
    }


def partition_from_doc(doc) -> Partition:
    _expect_keys(doc, {"clusters"}, "partition document")
    return Partition.of([_names(cluster, "cluster") for cluster in _of(doc["clusters"], list, "clusters")])


# ---------------------------------------------------------------------------
# Compression reports
# ---------------------------------------------------------------------------


def report_to_doc(report: CompressionReport) -> dict:
    return {
        "variables_marginalized": [str(v) for v in report.variables_marginalized],
        "atoms_dropped": [str(v) for v in report.atoms_dropped],
        "clusters": [
            {
                "cluster": c.cluster,
                "members": [str(v) for v in c.members],
                "consolidated": c.consolidated,
                "nodes_before": c.nodes_before,
                "nodes_after": c.nodes_after,
                "source_equation_nodes": c.source_equation_nodes,
                "inlined_images": {str(k): v for k, v in sorted(c.inlined_images.items(), key=lambda p: ref_sort_key(p[0]))},
            }
            for c in report.clusters
        ],
        "passes": [_pass_to_doc(p) for p in report.passes],
        "rejected": [_pass_to_doc(p) for p in report.rejected],
    }


def _pass_to_doc(p: PassLogEntry) -> dict:
    return {
        "cluster": p.cluster,
        "target": str(p.target) if p.target is not None else None,
        "pass": p.pass_name,
        "nodes_removed": p.nodes_removed,
        "verdict": p.verdict,
        "guards_dropped": p.guards_dropped,
    }


def _pass_from_doc(raw) -> PassLogEntry:
    _expect_keys(raw, {"cluster", "target", "pass", "nodes_removed", "verdict", "guards_dropped"}, "pass entry")
    return PassLogEntry(
        cluster=_of(raw["cluster"], int, "cluster"),
        target=parse_var_name(raw["target"]) if raw["target"] is not None else None,
        pass_name=_of(raw["pass"], str, "pass"),
        nodes_removed=_of(raw["nodes_removed"], int, "nodes_removed"),
        verdict=_of(raw["verdict"], str, "verdict"),
        guards_dropped=_of(raw["guards_dropped"], int, "guards_dropped"),
    )


def report_from_doc(raw) -> CompressionReport:
    _expect_keys(
        raw,
        {"variables_marginalized", "atoms_dropped", "clusters", "passes", "rejected"},
        "report",
    )
    report = CompressionReport(
        variables_marginalized=_names(raw["variables_marginalized"], "variables_marginalized"),
        atoms_dropped=_names(raw["atoms_dropped"], "atoms_dropped"),
    )
    for c in _of(raw["clusters"], list, "cluster reports"):
        _expect_keys(
            c,
            {"cluster", "members", "consolidated", "nodes_before", "nodes_after", "source_equation_nodes", "inlined_images"},
            "cluster report",
        )
        report.clusters.append(
            ClusterReport(
                cluster=_of(c["cluster"], int, "cluster"),
                members=tuple(_names(c["members"], "members")),
                consolidated=_of(c["consolidated"], bool, "consolidated"),
                nodes_before=_of(c["nodes_before"], int, "nodes_before"),
                nodes_after=_of(c["nodes_after"], int, "nodes_after"),
                source_equation_nodes=_of(c["source_equation_nodes"], int, "source_equation_nodes"),
                inlined_images={
                    parse_var_name(k): _of(v, int, "inlined image")
                    for k, v in _of(c["inlined_images"], dict, "inlined_images").items()
                },
            )
        )
    report.passes = [_pass_from_doc(p) for p in _of(raw["passes"], list, "passes")]
    report.rejected = [_pass_from_doc(p) for p in _of(raw["rejected"], list, "rejected")]
    return report


# ---------------------------------------------------------------------------
# Consolidated-model documents
# ---------------------------------------------------------------------------

_CONS_KEYS = {
    "name",
    "base",
    "exogenous",
    "variables",
    "interventions",
    "targets",
    "dropped_atoms",
    "ccvs",
    "report",
}


@recursion_as_too_deep
def consolidated_to_doc(cons: ConsolidatedScm) -> dict:
    clusters = []
    for c in cons.clusters:
        entry = {
            "index": c.index,
            "kind": "ccv" if isinstance(c, CcvCluster) else "passthrough",
            "members": [str(v) for v in c.sub.order],
            "local_exogenous": [str(v) for v in c.sub.local_exogenous],
        }
        if isinstance(c, CcvCluster):
            entry["targets"] = [str(t) for t in c.ccv.targets]
            entry["rho"] = {str(t): expr_to_json(c.ccv.rho[t]) for t in c.ccv.targets}
        else:
            entry["equations"] = {str(v): expr_to_json(c.sub.equations[v]) for v in c.sub.order}
        clusters.append(entry)
    return {
        "name": cons.name,
        "base": cons.base_name,
        "exogenous": [
            {"name": str(r.var), "domain": domain_to_json(r.domain), "dist": dist_to_json(r.dist)}
            for r in cons.exogenous
        ],
        "variables": [
            {"name": str(v), "domain": domain_to_json(cons.domains[v])}
            for c in cons.clusters
            for v in c.sub.order
        ],
        "interventions": space_to_json(cons.interventions),
        "targets": [str(t) for t in cons.targets],
        "dropped_atoms": sorted(str(v) for v in cons.dropped_atom_vars),
        "ccvs": clusters,
        "report": report_to_doc(cons.report),
    }


def _equations(raw, names, what: str) -> dict:
    """The `what`, an object of one equation per variable of `names`."""
    out = {parse_var_name(k): expr_from_json(v) for k, v in _of(raw, dict, what).items()}
    if set(out) != set(names):
        raise ParseError(f"the {what} must give one equation for each of {', '.join(map(str, names))}")
    return out


@recursion_as_too_deep
def consolidated_from_doc(doc) -> ConsolidatedScm:
    _expect_keys(doc, _CONS_KEYS, "consolidated document")
    exo_rows = []
    for r in _of(doc["exogenous"], list, "exogenous"):
        _expect_keys(r, {"name", "domain", "dist"}, "exogenous entry")
        exo_rows.append(ExoVar(parse_var_name(r["name"]), domain_from_json(r["domain"]), dist_from_json(r["dist"])))
    domains: dict[VarRef, Domain] = {}
    for r in _of(doc["variables"], list, "variables"):
        _expect_keys(r, {"name", "domain"}, "variable entry")
        domains[parse_var_name(r["name"])] = domain_from_json(r["domain"])
    space = space_from_json(doc["interventions"])
    exo_doms = {r.var: r.domain for r in exo_rows}
    exo_dists = {r.var: r.dist for r in exo_rows}

    clusters: list[CcvCluster | PassthroughCluster] = []
    for raw in _of(doc["ccvs"], list, "ccvs"):
        kind = _of(raw, dict, "cluster").get("kind")
        if kind == "ccv":
            _expect_keys(raw, {"index", "kind", "members", "local_exogenous", "targets", "rho"}, "ccv cluster")
        elif kind == "passthrough":
            _expect_keys(raw, {"index", "kind", "members", "local_exogenous", "equations"}, "passthrough cluster")
        else:
            raise ParseError(f"unknown cluster kind {kind!r}")
        index = _of(raw["index"], int, "cluster index")
        members = tuple(_names(raw["members"], "members"))
        local_exo = tuple(_names(raw["local_exogenous"], "local_exogenous"))
        sub_domains = {v: domains.get(v) for v in members}
        sub_domains.update((v, exo_doms.get(v, domains.get(v))) for v in local_exo)
        missing = [v for v, dom in sub_domains.items() if dom is None]
        if missing:
            raise ParseError(f"{missing[0]} of cluster {index} has no domain in the document")
        local_dists = {v: exo_dists[v] for v in local_exo if v in exo_dists}
        if kind == "ccv":
            targets = tuple(_names(raw["targets"], "targets"))
            rho, equations = _equations(raw["rho"], targets, f"rho of cluster {index}"), {}
        else:
            equations = _equations(raw["equations"], members, f"equations of cluster {index}")
        sub = SubScm(
            cluster=frozenset(members),
            local_exogenous=local_exo,
            order=members,
            equations=equations,
            domains=sub_domains,
            local_dists=local_dists,
            interventions=space.restrict(members),
        )
        if kind == "ccv":
            clusters.append(CcvCluster(index, sub, Ccv(targets, rho, sub.interventions, index)))
        else:
            clusters.append(PassthroughCluster(index, sub))
    return ConsolidatedScm(
        name=_of(doc["name"], str, "name"),
        base_name=_of(doc["base"], str, "base"),
        exogenous=tuple(exo_rows),
        clusters=tuple(clusters),
        targets=tuple(_names(doc["targets"], "targets")),
        interventions=space,
        dropped_atom_vars=frozenset(_names(doc["dropped_atoms"], "dropped_atoms")),
        domains=domains,
        report=report_from_doc(doc["report"]),
    )


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------


_INF = float("inf")
_END = object()


def _float_text(x: float) -> str:
    """A float as `json.dumps` spells it, NaN and the infinities included."""
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _key_text(key) -> str:
    """A dict key that is not a string, quoted as `json.dumps` converts it."""
    if isinstance(key, float):
        return encode_basestring_ascii(_float_text(key))
    if key is True:
        return '"true"'
    if key is False:
        return '"false"'
    if key is None:
        return '"null"'
    if isinstance(key, int):
        return '"' + int.__repr__(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def to_json(doc) -> str:
    """The canonical text of a document: exactly `json.dumps(doc, indent=2)
    + "\\n"`, with the same `ValueError` for a container that contains itself
    and `TypeError` for a value or key JSON cannot hold.

    With `indent`, `json.dumps` runs a pure-Python encoder that nests one
    generator per open container, so every chunk climbs through all of them
    and the nesting depth is capped by the recursion limit.  This walk keeps
    the open containers on an explicit stack instead and appends each chunk
    to one list, so its cost is linear in the output and its depth is
    unbounded."""
    parts = []
    push = parts.append
    breaks = ["\n"]  # breaks[d] == "\n" + "  " * d
    commas = [",\n"]  # commas[d] == "," + breaks[d]
    open_ids = set()
    stack = []  # (entries, in_dict, container) of every enclosing container
    entries = in_dict = container = None
    sep = comma = None  # written before the current container's next entry
    value = doc
    while True:
        if isinstance(value, str):
            push(encode_basestring_ascii(value))
        elif value is None:
            push("null")
        elif value is True:
            push("true")
        elif value is False:
            push("false")
        elif isinstance(value, int):
            push(int.__repr__(value))
        elif isinstance(value, float):
            push(_float_text(value))
        elif not isinstance(value, (list, tuple, dict)):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        elif not value:
            push("{}" if isinstance(value, dict) else "[]")
        elif id(value) in open_ids:
            raise ValueError("Circular reference detected")
        else:
            open_ids.add(id(value))
            stack.append((entries, in_dict, container))
            container = value
            in_dict = isinstance(value, dict)
            entries = iter(value.items()) if in_dict else iter(value)
            depth = len(stack)
            if depth == len(breaks):
                breaks.append(breaks[-1] + "  ")
                commas.append(commas[-1] + "  ")
            push("{" if in_dict else "[")
            sep, comma = breaks[depth], commas[depth]
        # Take the next entry, closing every container that has none left.
        while True:
            if container is None:
                return "".join(parts) + "\n"
            entry = next(entries, _END)
            if entry is not _END:
                break
            open_ids.remove(id(container))
            depth = len(stack) - 1
            push(breaks[depth])
            push("}" if in_dict else "]")
            entries, in_dict, container = stack.pop()
            sep = comma = commas[depth]
        push(sep)
        sep = comma
        if in_dict:
            key, value = entry
            push(encode_basestring_ascii(key) if isinstance(key, str) else _key_text(key))
            push(": ")
        else:
            value = entry


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except ValueError as exc:  # an int literal past `sys.get_int_max_str_digits()` digits
        raise ParseError(str(exc)) from exc
    except RecursionError as exc:
        raise ParseError("document nests too deeply") from exc
    except OSError as exc:
        raise ParseError(str(exc)) from exc


def doc_kind(doc) -> str:
    """model | consolidated | partition | matrices"""
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    if "matrices" in doc:
        return "matrices"
    if "ccvs" in doc:
        return "consolidated"
    if "clusters" in doc and "endogenous" not in doc:
        return "partition"
    if "endogenous" in doc:
        return "model"
    raise ParseError("unrecognized document shape")


def load_model(path: str) -> Scm:
    return model_from_doc(load_json(path))


def load_partition(path: str) -> Partition:
    return partition_from_doc(load_json(path))


def load_consolidated(path: str) -> ConsolidatedScm:
    return consolidated_from_doc(load_json(path))


def save(path: str, doc: dict):
    """Write `to_json(doc)` to `path`.

    Raises `ModelTooDeepError`, before the file is opened, when the text
    nests too deeply for `load_json` to read it back: the C decoder stops at
    the recursion limit, while `to_json` has no depth limit."""
    text = to_json(doc)
    try:
        json.loads(text)
    except RecursionError as exc:
        raise ModelTooDeepError("document nests too deeply to be read back") from exc
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)

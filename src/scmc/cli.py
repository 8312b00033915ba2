"""Command-line front end.

Subcommands: validate, eval, consolidate, verify, metrics, export-dot,
demo.  Exit codes follow the verification convention: 0 equal/success,
1 counterexample/error, 2 inconclusive/usage.  `SCMC_SEED` supplies the
default seed; `--json` switches error output to a machine-readable object.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import documents as D
from . import expr as E
from . import scm as S
from . import zoo as Z
from .consolidation import CcvCluster, ConsolidatedScm, PassConfig, consolidate, eval_consolidated
from .errors import ParseError, ScmcError, recursion_as_too_deep
from .evaluation import eval_scm, sample_exogenous
from .expr import VarRef, node_count, parse_var_name
from .scm import InterventionSet, Scm, derive_graph, validate
from .verification import EquivalenceStrategy, verify_equivalence


def _default_seed() -> int:
    raw = os.environ.get("SCMC_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="scmc", description=__doc__)
    top.add_argument("--json", action="store_true", help="machine-readable errors and reports")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="structural validation of a model document")
    p.add_argument("model")

    p = sub.add_parser("eval", help="evaluate a model under interventions, CSV output")
    p.add_argument("model")
    p.add_argument("--do", action="append", default=[], metavar="VAR=VALUE")
    p.add_argument("--exo", action="append", default=[], metavar="VAR=VALUE")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("-o", "--out", default=None)

    p = sub.add_parser("consolidate", help="run the consolidation pipeline")
    p.add_argument("model")
    p.add_argument("partition")
    p.add_argument("--targets", required=True, help="comma-separated target variables")
    p.add_argument("--clusters", default="all", help="all | none | comma-separated indices")
    p.add_argument("--passes", default="all", help="all | none | comma-separated pass names")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("-o", "--out", default=None)

    p = sub.add_parser("verify", help="equivalence of base vs consolidated")
    p.add_argument("base")
    p.add_argument("consolidated")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--eps", type=float, default=E.EPS_VAL)

    p = sub.add_parser("metrics", help="node counts (and nonzeros for matrix demos)")
    p.add_argument("path")

    p = sub.add_parser("export-dot", help="graph in DOT form, exogenous dashed")
    p.add_argument("model")
    p.add_argument("-o", "--out", default=None)

    p = sub.add_parser("demo", help="materialize a built-in example to disk")
    p.add_argument("name", help="|".join(list(Z.ZOO_BUILDERS) + ["matrices"]))
    p.add_argument("params", nargs="*", metavar="key=value")
    p.add_argument("--out-dir", default=".")
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ParseError as exc:
        _emit_error(args, "parse", str(exc))
        return 1
    except ScmcError as exc:
        _emit_error(args, type(exc).__name__, str(exc))
        return 1


def _emit_error(args, kind: str, message: str):
    if getattr(args, "json", False):
        print(json.dumps({"error": {"kind": kind, "message": message}}))
    else:
        print(f"error: {message}", file=sys.stderr)


@recursion_as_too_deep
def _dispatch(args) -> int:
    return {
        "validate": cmd_validate,
        "eval": cmd_eval,
        "consolidate": cmd_consolidate,
        "verify": cmd_verify,
        "metrics": cmd_metrics,
        "export-dot": cmd_export_dot,
        "demo": cmd_demo,
    }[args.command](args)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    scm = D.load_model(args.model)
    report = validate(scm)
    if args.json:
        print(
            json.dumps(
                {"ok": report.ok, "findings": [{"kind": f.kind, "message": f.message} for f in report.findings]}
            )
        )
    else:
        print(str(report))
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _parse_bindings(pairs: list[str], domain_of) -> dict:
    out = {}
    for item in pairs:
        if "=" not in item:
            raise ParseError(f"expected VAR=VALUE, got {item!r}")
        name, _, text = item.partition("=")
        var = parse_var_name(name.strip())
        out[var] = D.parse_value_for_domain(text.strip(), domain_of(var))
    return out


def _load_evaluable(path: str):
    doc = D.load_json(path)
    kind = D.doc_kind(doc)
    if kind == "model":
        return D.model_from_doc(doc)
    if kind == "consolidated":
        return D.consolidated_from_doc(doc)
    raise ParseError(f"{path} is a {kind} document, not evaluable")


def cmd_eval(args) -> int:
    model = _load_evaluable(args.model)
    is_cons = isinstance(model, ConsolidatedScm)
    exo_rows = model.exogenous

    def domain_of(var):
        for row in exo_rows:
            if row.var == var:
                return row.domain
        if is_cons:
            if var in model.domains:
                return model.domains[var]
        else:
            for row in model.endogenous:
                if row.var == var:
                    return row.domain
        raise ParseError(f"unknown variable {var}")

    iv = InterventionSet.of(_parse_bindings(args.do, domain_of))
    space = model.interventions
    if not space.contains(iv.drop(model.dropped_atom_vars) if is_cons else iv):
        raise ScmcError(f"{iv} is not in the allowed intervention space")

    if args.exo and args.samples is not None:
        raise ParseError("--exo and --samples are mutually exclusive")
    if args.exo:
        u = _parse_bindings(args.exo, domain_of)
        draws = [u]
    else:
        seed = args.seed if args.seed is not None else _default_seed()
        count = args.samples if args.samples is not None else 1
        sampler = _sampling_view(model) if is_cons else model
        draws = sample_exogenous(sampler, seed, count)

    lines = ["draw_index,variable,value"]
    for i, u in enumerate(draws):
        if is_cons:
            out = eval_consolidated(model, u, iv)
            var_order = model.computed_vars()
        else:
            out = eval_scm(model, u, iv)
            var_order = model.endo_vars()
        for var in var_order:
            lines.append(f"{i},{var},{D.format_value(out[var])}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(text)
    return 0


def _sampling_view(cons: ConsolidatedScm) -> Scm:
    return Scm(
        name=cons.name,
        endogenous=(),
        exogenous=cons.exogenous,
        interventions=S.InterventionSpace.power_set([]),
    )


# ---------------------------------------------------------------------------
# consolidate
# ---------------------------------------------------------------------------


def _parse_targets(text: str, scm: Scm) -> list[VarRef]:
    out = []
    endo = scm.endo_vars()
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        var = parse_var_name(chunk)
        if var in endo:
            out.append(var)
            continue
        family = [v for v in endo if v.name == chunk and v.index is not None]
        if family:
            out.extend(family)
        else:
            out.append(var)  # let consolidate() report the unknown target
    return out


def cmd_consolidate(args) -> int:
    scm = D.load_model(args.model)
    partition = D.load_partition(args.partition)
    targets = _parse_targets(args.targets, scm)
    if args.clusters == "all":
        selected = None
    elif args.clusters == "none":
        selected = set()
    else:
        try:
            selected = {int(c) for c in args.clusters.split(",") if c.strip()}
        except ValueError:
            raise ParseError(f"--clusters takes all, none or comma-separated indices, not {args.clusters!r}") from None
    if args.passes == "all":
        passes = tuple(PassConfig().passes)
    elif args.passes == "none":
        passes = ()
    else:
        passes = tuple(p.strip() for p in args.passes.split(",") if p.strip())
    seed = args.seed if args.seed is not None else _default_seed()
    cons = consolidate(scm, partition, targets, selected, PassConfig(passes=passes, seed=seed))
    out_path = args.out or str(Path(args.model).with_suffix("")) + ".consolidated.json"
    D.save(out_path, D.consolidated_to_doc(cons))
    rep = cons.report
    if args.json:
        print(json.dumps(D.report_to_doc(rep)))
    else:
        print(f"wrote {out_path}")
        for c in rep.clusters:
            tag = "ccv" if c.consolidated else "passthrough"
            print(f"cluster {c.cluster} [{tag}] nodes {c.nodes_before} -> {c.nodes_after}")
        if rep.variables_marginalized:
            names = ", ".join(str(v) for v in rep.variables_marginalized)
            print(f"marginalized: {names}")
        if rep.atoms_dropped:
            names = ", ".join(str(v) for v in rep.atoms_dropped)
            print(f"interventions dropped on: {names}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    base = D.load_model(args.base)
    cons = D.load_consolidated(args.consolidated)
    seed = args.seed if args.seed is not None else _default_seed()
    if args.samples is not None:
        strategy = EquivalenceStrategy.sampled(count=args.samples, seed=seed, tolerance=args.eps)
    else:
        strategy = EquivalenceStrategy.exhaustive(tolerance=args.eps)
    report = verify_equivalence(base, cons, cons.targets, strategy)
    payload = {
        "verdict": report.verdict,
        "cases_checked": report.cases_checked,
        "max_abs_deviation": report.max_abs_deviation,
        "probabilistic": report.probabilistic,
    }
    if report.counterexample is not None:
        cx = report.counterexample
        payload["counterexample"] = {
            "u": {str(v): D.value_to_json(val) for v, val in cx.u},
            "interventions": D.iset_to_json(cx.interventions),
            "variable": str(cx.var),
            "base_value": D.value_to_json(cx.base_value),
            "consolidated_value": D.value_to_json(cx.ccv_value),
        }
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"verdict: {report.verdict} ({report.cases_checked} cases)")
        if report.counterexample is not None:
            print("counterexample:", report.counterexample)
        if report.message:
            print(report.message)
    return {"equal": 0, "counterexample": 1, "inconclusive": 2}[report.verdict]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _nnz(matrix) -> int:
    return sum(1 for row in matrix for x in row if x != 0)


def _matmul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def cmd_metrics(args) -> int:
    doc = D.load_json(args.path)
    kind = D.doc_kind(doc)
    lines = []
    payload = {}
    if kind == "matrices":
        mats = doc["matrices"]
        names = sorted(mats)
        for name in names:
            lines.append(f"nnz({name}) = {_nnz(mats[name])}")
            payload[f"nnz({name})"] = _nnz(mats[name])
        if len(names) == 2:
            a, b = (mats[n] for n in names)
            prod = _matmul(a, b)
            label = f"nnz({names[0]}x{names[1]})"
            lines.append(f"{label} = {_nnz(prod)}")
            payload[label] = _nnz(prod)
    elif kind == "model":
        scm = D.model_from_doc(doc)
        total = 0
        for row in scm.endogenous:
            n = node_count(row.equation)
            total += n
            lines.append(f"{row.var}: {n}")
        lines.append(f"total: {total}")
        payload = {"total": total}
    elif kind == "consolidated":
        cons = D.consolidated_from_doc(doc)
        total = 0
        for c in cons.clusters:
            if isinstance(c, CcvCluster):
                for t in c.ccv.targets:
                    n = node_count(c.ccv.rho[t])
                    total += n
                    lines.append(f"rho {t}: {n}")
            else:
                for v in c.sub.order:
                    n = node_count(c.sub.equations[v])
                    total += n
                    lines.append(f"{v}: {n}")
        lines.append(f"total: {total}")
        payload = {"total": total}
    else:
        raise ParseError(f"metrics does not apply to a {kind} document")
    if args.json:
        print(json.dumps(payload))
    else:
        print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# export-dot
# ---------------------------------------------------------------------------


def cmd_export_dot(args) -> int:
    scm = D.load_model(args.model)
    graph = derive_graph(scm)
    lines = [f'digraph "{scm.name}" {{']
    for row in scm.exogenous:
        lines.append(f'  "{row.var}" [style=dashed];')
    for row in scm.endogenous:
        lines.append(f'  "{row.var}";')
    edges = []
    for child in scm.endo_vars():
        for parent in graph.parents[child]:
            edges.append(f'  "{parent}" -> "{child}";')
    lines.extend(sorted(edges))
    lines.append("}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# demo
# ---------------------------------------------------------------------------


def _parse_params(pairs: list[str]) -> dict:
    out = {}
    for item in pairs:
        if "=" not in item:
            raise ParseError(f"expected key=value, got {item!r}")
        key, _, val = item.partition("=")
        try:
            out[key] = int(val)
        except ValueError:
            out[key] = val
    return out


def cmd_demo(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.name == "matrices":
        path = out_dir / "matrices.json"
        D.save(str(path), {"matrices": Z.MATRIX_DEMO})
        print(f"wrote {path}")
        return 0
    builder = Z.ZOO_BUILDERS.get(args.name)
    if builder is None:
        raise ParseError(f"unknown demo {args.name!r}")
    entry = builder(**_parse_params(args.params))
    stem = entry.name.replace("_", "-")
    model_path = out_dir / f"{stem}.model.json"
    D.save(str(model_path), D.model_to_doc(entry.scm))
    part_path = out_dir / f"{stem}.partition.json"
    D.save(str(part_path), D.partition_to_doc(entry.partition))
    written = [model_path, part_path]
    if entry.reference_ccvs:
        ref_path = out_dir / f"{stem}.reference.json"
        D.save(str(ref_path), D.consolidated_to_doc(entry.reference_consolidated()))
        written.append(ref_path)
    for p in written:
        print(f"wrote {p}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

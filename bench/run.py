#!/usr/bin/env python3
"""The scmc benchmark: compile time, verdict time, query speed and code size.

Runs one workload in this process, one caller in a closed loop, on inputs
frozen under bench/inputs.  Every round consolidates each of the workload's
models, verifies the result against the base model, exports and reloads the
consolidated document, and evaluates a seeded batch of queries; each output
is checked.  Rounds repeat until the time budget is spent.  Each timed call
is divided by the passes of a fixed reference loop run just before and after
it, and an end-to-end timing is each model's median ratio, summed over the
models: on a shared host the machine's speed moves by up to 1.8x for
minutes at a time, and the ratio does not (see bench/README.md, "Noise").

    python3 bench/run.py --workload compress --seed 1 --seconds 40 --trace 0

`--trace 0` prints the end-to-end metrics; `--trace 1` instead runs half the
budget untraced and half with the layer trace installed, then the per-layer
micro loops, and prints the per-layer metrics.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See bench/README.md for the metrics and why each workload was chosen.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field
from typing import Optional

import reference
import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
INPUTS = os.path.join(BENCH_DIR, "inputs")
OUT_DIR = os.path.join(BENCH_DIR, "out")

WORKLOADS = ("compress", "chain", "timeseries")
#: query draws per model per round
QUERY_DRAWS = 256
#: draws timed together as one sample
QUERY_BATCH = 32
#: export round trips per model per round
EXPORT_REPS = 2
#: load + validate repetitions before the first round and after each round;
#: setup_s is their median
SETUP_REPS = 3
MIN_ROUNDS = 3
#: the rule of scripts/compression_table.py: sample past this many sets
EXHAUSTIVE_SET_LIMIT = 4096
SAMPLED_CASES = 256
#: absolute tolerance for real-valued query results
TOLERANCE = 1e-9
#: the rewrite passes that BENCHMARK.json names per-layer metrics for
PASS_NAMES = (
    "cancel_inverses",
    "fold_constants",
    "prune_branches",
    "fold_by_image",
    "simplify_algebra",
    "prune_interventions",
    "dedupe_targets",
    "absorb",
)


def import_scmc():
    """Import the package from this checkout's src/, or return None."""
    sys.path.insert(0, SRC)
    try:
        import scmc
    except ModuleNotFoundError as exc:
        if exc.name != "scmc":
            raise
        return None
    import scmc.documents  # not imported by the package itself
    if not os.path.abspath(scmc.__file__).startswith(SRC + os.sep):
        return None
    return scmc


@dataclass
class Model:
    name: str
    scm: object
    partition: object
    targets: list
    clusters: Optional[set]


@dataclass
class Case:
    """One model with everything a round needs beyond the model itself."""

    model: Model
    strategy: object
    draws: list
    expected: list
    fingerprint: Optional[tuple] = None
    #: the latest consolidated model and its sizes
    last: object = None
    sizes: dict = field(default_factory=dict)
    #: seconds per call, by operation
    samples: dict = field(default_factory=dict)
    #: each call's seconds divided by the reference loop's, by operation
    ratios: dict = field(default_factory=dict)

    def add(self, op: str, seconds: float, reference_s: float) -> None:
        self.samples.setdefault(op, []).append(seconds)
        self.ratios.setdefault(op, []).append(seconds / reference_s)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def fail(self, n: int, what: str) -> None:
        self.failed += n
        if len(self.notes) < 20:
            self.notes.append(what)


def load_workload(scmc, name: str) -> tuple[list[Model], float]:
    """Read, parse and validate a workload's frozen documents.

    Returns the models and the seconds spent inside the document parsers.
    """
    D, S, E = scmc.documents, scmc.scm, scmc.expr
    with open(os.path.join(INPUTS, "manifest.json"), encoding="utf-8") as fh:
        rows = json.load(fh)[name]
    models = []
    parse_s = 0.0
    for row in rows:
        stem = os.path.join(INPUTS, row["model"])
        with open(stem + ".model.json", encoding="utf-8") as fh:
            model_doc = json.load(fh)
        with open(stem + ".partition.json", encoding="utf-8") as fh:
            partition_doc = json.load(fh)
        t0 = time.perf_counter()
        scm = D.model_from_doc(model_doc)
        partition = D.partition_from_doc(partition_doc)
        parse_s += time.perf_counter() - t0
        report = S.validate(scm)
        if not report.ok:
            raise ValueError(f"{row['model']}: {report}")
        clusters = None if row["clusters"] is None else set(row["clusters"])
        targets = [E.parse_var_name(t) for t in row["targets"]]
        models.append(Model(row["model"], scm, partition, targets, clusters))
    return models, parse_s


class Loader:
    """Times loads of the workload's frozen documents.

    The loads are spread over the run, a few after every round, so that
    setup_s samples the same stretch of time as the rounds do.
    """

    def __init__(self, scmc, workload: str):
        self.scmc = scmc
        self.workload = workload
        self.setups: list[float] = []
        self.parses: list[float] = []

    def load(self) -> list[Model]:
        t0 = time.perf_counter()
        models, parse_s = load_workload(self.scmc, self.workload)
        self.setups.append(time.perf_counter() - t0)
        self.parses.append(parse_s)
        return models

    def between(self) -> None:
        for _ in range(SETUP_REPS):
            self.load()


def prepare(scmc, models: list[Model], seed: int) -> list[Case]:
    """Verifier strategy, seeded query draws and their reference values.

    The reference for every query is the base model's own `eval_scm` on the
    same draw, never the consolidated model under test.
    """
    V, Q = scmc.evaluation, scmc.verification
    cases = []
    for m in models:
        if m.scm.interventions.size() > EXHAUSTIVE_SET_LIMIT:
            strategy = Q.EquivalenceStrategy.sampled(count=SAMPLED_CASES, seed=seed)
        else:
            strategy = Q.EquivalenceStrategy.exhaustive()
        rng = V.make_rng(seed + 1)
        us = V.sample_exogenous(m.scm, seed, QUERY_DRAWS, strict=False)
        draws = [(u, m.scm.interventions.sample(rng)) for u in us]
        expected = [V.eval_scm(m.scm, u, iv) for u, iv in draws]
        cases.append(Case(m, strategy, draws, expected))
    return cases


def run_round(scmc, cases: list[Case], config, tracer, tally: Tally) -> None:
    """Consolidate, verify, export and query every model once.

    Adds one timing sample per call to each case; every check that fails is
    counted in `tally`.
    """
    C, Q, D, E = scmc.consolidation, scmc.verification, scmc.documents, scmc.expr
    now = time.perf_counter
    for case in cases:
        m = case.model
        ops = 1 + 1 + EXPORT_REPS + len(case.draws)
        tally.attempted += ops
        answers, texts, exports, roundtrips, queries = [], [], [], [], []
        try:
            ref0 = reference.loop_s()
            with tracer.region("consolidate", m.name):
                t0 = now()
                cons = C.consolidate(m.scm, m.partition, m.targets, m.clusters, config)
                consolidate_s = now() - t0
            ref1 = reference.loop_s()
            with tracer.region("verify", m.name):
                t0 = now()
                report = Q.verify_equivalence(m.scm, cons, m.targets, case.strategy)
                verify_s = now() - t0
            ref2 = reference.loop_s()
            for _ in range(EXPORT_REPS):
                with tracer.region("export", m.name):
                    t0 = now()
                    text = D.to_json(D.consolidated_to_doc(cons))
                    t1 = now()
                    back = D.to_json(D.consolidated_to_doc(D.consolidated_from_doc(json.loads(text))))
                    t2 = now()
                exports.append(t2 - t0)
                roundtrips.append(t2 - t1)
                texts.append((text, back))
            for i in range(0, len(case.draws), QUERY_BATCH):
                batch = case.draws[i : i + QUERY_BATCH]
                with tracer.region("query", m.name):
                    t0 = now()
                    answers += [C.eval_consolidated(cons, u, iv) for u, iv in batch]
                    queries.append(now() - t0)
            ref3 = reference.loop_s()
        except Exception:  # noqa: BLE001 - one failing model must not end the run
            traceback.print_exc(file=sys.stderr)
            tally.fail(ops, f"{m.name}: exception")
            continue
        # each call is divided by the reference passes just before and after it
        case.add("consolidate", consolidate_s, (ref0 + ref1) / 2)
        case.add("verify", verify_s, (ref1 + ref2) / 2)
        for seconds in exports:
            case.add("export", seconds, (ref2 + ref3) / 2)
        for seconds in roundtrips:
            case.add("roundtrip", seconds, (ref2 + ref3) / 2)
        for seconds in queries:
            case.add("query", seconds, (ref2 + ref3) / 2)
        case.samples.setdefault("reference", []).extend((ref0, ref1, ref2, ref3))
        case.last = cons
        case.sizes = {
            "cases": report.cases_checked,
            "bytes": len(text),
            "nodes_before": sum(c.nodes_before for c in cons.report.clusters),
            "nodes_after": sum(c.nodes_after for c in cons.report.clusters),
        }

        sampled = case.strategy.mode == Q.SAMPLED
        if report.verdict != "equal" or report.probabilistic != sampled:
            tally.fail(1, f"{m.name}: verdict {report.verdict}, probabilistic={report.probabilistic}")
        for text, back in texts:
            if back != text:
                tally.fail(1, f"{m.name}: document round trip is not byte-identical")
        for got, want in zip(answers, case.expected):
            if not all(E.values_close(got[t], want[t], TOLERANCE) for t in m.targets):
                tally.fail(1, f"{m.name}: query differs from the base model")
        fingerprint = (
            hashlib.sha256(text.encode()).hexdigest(),
            tuple((c.cluster, c.nodes_before, c.nodes_after) for c in cons.report.clusters),
            report.verdict,
            report.probabilistic,
            report.cases_checked,
        )
        if case.fingerprint is None:
            case.fingerprint = fingerprint
        elif fingerprint != case.fingerprint:
            tally.fail(1, f"{m.name}: output differs from the first round")


def run_rounds(scmc, cases, config, tracer, tally, deadline, min_rounds, between=None) -> int:
    """At least `min_rounds` rounds, then more until the next one would end
    past the deadline.  `between` runs after each round.  Returns the number
    of rounds."""
    walls = []
    while True:
        t0 = time.perf_counter()
        run_round(scmc, cases, config, tracer, tally)
        walls.append(time.perf_counter() - t0)
        if between is not None:
            between()
        if len(walls) >= min_rounds and time.perf_counter() + statistics.median(walls) > deadline:
            return len(walls)


def take_samples(cases: list[Case]) -> tuple[list[dict], list[dict]]:
    """Hand over each case's samples and ratios and start new lists."""
    out = [c.samples for c in cases], [c.ratios for c in cases]
    for c in cases:
        c.samples, c.ratios = {}, {}
    return out


def typical(samples: list[dict], op: str) -> float:
    """Sum over models of each model's median call of `op`."""
    return sum(statistics.median(s[op]) for s in samples)


def reference_s(samples: list[dict]) -> float:
    """Median reference-loop pass over every model's rounds."""
    return statistics.median(x for s in samples for x in s["reference"])


def peak_alloc_mb(scmc, cases, config, tally: Tally) -> float:
    """tracemalloc peak over consolidate + verify of every model, untimed."""
    C, Q = scmc.consolidation, scmc.verification
    tracemalloc.start()
    try:
        for case in cases:
            m = case.model
            tally.attempted += 1
            cons = None
            try:
                cons = C.consolidate(m.scm, m.partition, m.targets, m.clusters, config)
                Q.verify_equivalence(m.scm, cons, m.targets, case.strategy)
            except Exception:  # noqa: BLE001
                traceback.print_exc(file=sys.stderr)
                tally.fail(1, f"{m.name}: exception under tracemalloc")
            del cons
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def tail(samples: list[float]) -> str:
    """The sample count, fastest, median and the highest percentile with at
    least ten samples beyond it."""
    n = len(samples)
    ordered = sorted(samples)
    text = f"n={n} min={ordered[0]:.4g} median={statistics.median(ordered):.4g}"
    if n < 11:
        return text + ", no percentile has 10 samples beyond it"
    k = n - 11
    return text + f" p{100 * (k + 1) / n:.0f}={ordered[k]:.4g}"


def complete(samples: list[dict]) -> bool:
    ops = ("consolidate", "verify", "export", "roundtrip", "query")
    return all(op in s for s in samples for op in ops)


def describe(cases: list[Case], samples: list[dict], ratios: list[dict], tally: Tally) -> None:
    for case, s, r in zip(cases, samples, ratios):
        if case.fingerprint is None:
            print(f"  {case.model.name}: no complete round")
            continue
        _, clusters, verdict, probabilistic, checked = case.fingerprint
        mode = "sampled, probabilistic" if probabilistic else "exhaustive"
        sizes = ", ".join(f"cluster {i}: {b}->{a}" for i, b, a in clusters)
        print(f"  {case.model.name}: {sizes}; verdict {verdict} ({mode}, {checked} cases)")
        for op in ("consolidate", "verify", "export", "query"):
            if op in s:
                print(f"    {op:<11} ref per call: median={statistics.median(r[op]):.4g}; s per call: {tail(s[op])}")
    for note in tally.notes:
        print(f"  FAILED {note}")


def end_to_end(scmc, cases, config, args, loader: Loader, tally: Tally) -> dict:
    deadline = time.perf_counter() + args.seconds
    t0 = time.perf_counter()
    peak = peak_alloc_mb(scmc, cases, config, tally)
    print(f"peak-allocation pass: {time.perf_counter() - t0:.1f} s")
    rounds = run_rounds(
        scmc, cases, config, tracing.NullTracer(), tally, deadline, MIN_ROUNDS, loader.between
    )
    print(f"{rounds} rounds; setup s per load: {tail(loader.setups)}")
    samples, ratios = take_samples(cases)
    describe(cases, samples, ratios, tally)
    if not complete(samples):
        return {}
    print(f"  reference loop s per pass: {tail([x for s in samples for x in s['reference']])}")

    def in_ref(op):
        """Sum over models of each model's median call in reference units."""
        return sum(statistics.median(r[op]) for r in ratios)

    batches = len(range(0, QUERY_DRAWS, QUERY_BATCH))
    verify_ref = in_ref("verify")
    return {
        "setup_s": (statistics.median(loader.setups), "s"),
        "consolidate_ref": (in_ref("consolidate"), "ref"),
        "verify_ref": (verify_ref, "ref"),
        "verify_cases_per_ref": (sum(c.sizes["cases"] for c in cases) / verify_ref, "1/ref"),
        "query_draws_per_ref": (QUERY_DRAWS * len(cases) / (batches * in_ref("query")), "1/ref"),
        "export_ref": (in_ref("export"), "ref"),
        "nodes_after": (sum(c.sizes["nodes_after"] for c in cases), "nodes"),
        "peak_alloc_mb": (peak, "MB"),
        "ok_share": (1 - tally.failed / tally.attempted, "ratio"),
    }


def per_layer(scmc, cases, config, args, loader: Loader, tally: Tally) -> dict:
    import micro  # imports scmc, so only after import_scmc has set the path

    start = time.perf_counter()
    plain_rounds = run_rounds(
        scmc, cases, config, tracing.NullTracer(), tally, start + args.seconds / 2, 2
    )
    plain, plain_ratios = take_samples(cases)
    tracer = tracing.Tracer()
    tracer.install(scmc)
    try:
        n = run_rounds(scmc, cases, config, tracer, tally, start + args.seconds, 1)
    finally:
        tracer.restore()
    traced, traced_ratios = take_samples(cases)
    # run_round compares every round's fingerprint with the first (untraced)
    # round's, so a traced round that changed any output is counted as failed
    print(f"{plain_rounds} untraced and {n} traced rounds")
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(trace_path)
    print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
    describe(cases, plain, plain_ratios, tally)
    if not complete(plain) or not complete(traced):
        return {}

    figures, mismatches = micro.measure([(c.model.scm, c.strategy, c.last) for c in cases], args.seed)
    tally.attempted += 1
    if mismatches:
        tally.fail(1, f"visit counter disagreed with eval_expr on {mismatches} trees")

    # totals over the traced rounds; counts repeat exactly from round to
    # round, so dividing by the round count gives one round's worth
    work = ("consolidate", "verify")

    def calls(name, phases=work):
        return tracer.total(name, phases).calls / n

    def busy(name, phases=work):
        return tracer.total(name, phases).incl_ns / 1e9 / n

    def self_s(name):
        return tracer.total(name, work).self_ns / 1e9 / n

    gate = tracer.total("gate", ("consolidate",))
    gate_cases = gate.items / n
    gate_busy = gate.incl_ns / 1e9 / n
    verify_cases = sum(c.sizes["cases"] for c in cases)
    log = [p for c in cases for p in c.last.report.passes]
    rejected = [p for c in cases for p in c.last.report.rejected]
    # (metric, unit, traced stats it needs, value)
    rows = [
        ("consolidation.prune_s", "s", ["consolidation.prune"], busy("consolidation.prune")),
        ("consolidation.build_rho_s", "s", ["consolidation.build_rho"], busy("consolidation.build_rho")),
        ("consolidation.run_passes_s", "s", ["consolidation.run_passes"], busy("consolidation.run_passes")),
        ("consolidation.nodes_before", "nodes", [], sum(c.sizes["nodes_before"] for c in cases)),
        ("gate.calls", "count", ["gate"], gate.calls / n),
        ("gate.rejected", "count", ["gate"], gate.rejected / n),
        ("gate.accept_ratio", "ratio", ["gate"], 1 - gate.rejected / gate.calls if gate.calls else 0.0),
        ("gate.cases", "count", ["gate"], gate_cases),
        ("gate.busy_s", "s", ["gate"], gate_busy),
        ("gate.us_per_case", "us", ["gate"], 1e6 * gate_busy / gate_cases if gate_cases else 0.0),
        ("gate.case_gen_s", "s", ["gate.case_gen"], busy("gate.case_gen", ("consolidate",))),
        ("verify.cases", "count", [], verify_cases),
        ("verify.us_per_case", "us", [], 1e6 * typical(plain, "verify") / verify_cases),
        (
            "verify.case_gen_s",
            "s",
            ["verify.case_gen", "sample_exogenous", "space_cases"],
            sum(busy(k, ("verify",)) for k in ("verify.case_gen", "sample_exogenous", "space_cases")),
        ),
    ]
    present = set(getattr(scmc.passes, "ALL_PASSES", ()))
    for name in PASS_NAMES:
        stat = f"passes.{name}"
        gone = name not in present
        rows += [
            (f"{stat}.busy_s", "s", [stat], None if gone else busy(stat)),
            (f"{stat}.accepted", "count", [], None if gone else sum(p.pass_name == name for p in log)),
            (f"{stat}.rejected", "count", [], None if gone else sum(p.pass_name == name for p in rejected)),
            (
                f"{stat}.nodes_saved",
                "nodes",
                [],
                None if gone else sum(p.nodes_removed for p in log if p.pass_name == name),
            ),
        ]
    rows += [
        ("passes.absorb.candidates", "count", ["passes.absorb"], tracer.total("passes.absorb", work).items / n),
        ("images.image_of_calls", "count", ["image_of"], calls("image_of")),
        ("images.self_s", "s", ["image_of"], self_s("image_of")),
        ("expr.eval_calls", "count", ["eval_expr"], calls("eval_expr")),
        ("scm.iset_lookups", "count", ["iset_lookup"], calls("iset_lookup")),
        ("scm.atom_values_calls", "count", ["atom_values"], calls("atom_values")),
        ("scm.atom_values_self_s", "s", ["atom_values"], self_s("atom_values")),
        ("scm.derive_graph_calls", "count", ["derive_graph"], calls("derive_graph")),
        ("evaluation.sample_exogenous_s", "s", ["sample_exogenous"], busy("sample_exogenous", ("verify",))),
        ("partition.busy_s", "s", ["partition"], busy("partition")),
        ("documents.model_load_s", "s", [], statistics.median(loader.parses)),
        ("documents.consolidated_bytes", "bytes", [], sum(c.sizes["bytes"] for c in cases)),
        ("documents.roundtrip_s", "s", [], typical(plain, "roundtrip")),
        (
            "trace.overhead_s",
            "s",
            [],
            (typical(traced_ratios, "consolidate") - typical(plain_ratios, "consolidate")) * reference_s(plain),
        ),
        ("reference.loop_s", "s", [], reference_s(plain)),
    ]
    micro_units = {
        "consolidation.eval_ccv_us_per_case": "us",
        "expr.eval_ns_per_node": "ns",
        "images.top_call_us": "us",
        "scm.iset_lookup_ns": "ns",
        "evaluation.eval_scm_us_per_case": "us",
    }
    rows += [(name, unit, [], figures.get(name)) for name, unit in micro_units.items()]

    values, missing = {}, []
    for name, unit, needs, value in rows:
        if value is None or any(stat in tracer.missing_stats for stat in needs):
            missing.append(name)
        else:
            values[name] = (value, unit)
    if missing:
        print("  missing layer metrics: " + ", ".join(missing))
        print("  functions not found: " + ", ".join(tracer.missing))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    scmc = import_scmc()
    if scmc is None:
        print(f"error: the scmc package was not found under {SRC}", file=sys.stderr)
        return 2
    loader = Loader(scmc, args.workload)
    try:
        for _ in range(SETUP_REPS):
            models = loader.load()
    except (OSError, KeyError, ValueError, scmc.errors.ScmcError) as exc:
        print(f"error: cannot load workload {args.workload!r}: {exc}", file=sys.stderr)
        return 2

    tally = Tally()
    cases = prepare(scmc, models, args.seed)
    config = scmc.consolidation.PassConfig(seed=args.seed)
    print(f"workload {args.workload}, seed {args.seed}, {len(models)} models")
    if args.trace:
        values = per_layer(scmc, cases, config, args, loader, tally)
    else:
        values = end_to_end(scmc, cases, config, args, loader, tally)
    for name, (value, unit) in values.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    print(f"  failed_share {tally.failed}/{tally.attempted}")
    result = {
        "correct": tally.failed == 0 and bool(values),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

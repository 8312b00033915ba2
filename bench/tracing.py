"""Outside-in layer trace for the benchmark.

The benchmark never edits `src/`.  Instead it replaces public functions of
the scmc modules, at the name where each caller looks them up, with timing
wrappers, and puts the originals back afterwards.  Boundary functions record
one span per call (name, start, end, parent); hot leaf functions, called up
to millions of times per run, only add to a count and a summed duration.

Every figure is attributed to the benchmark phase that was running when the
call happened (`consolidate`, `verify`, `export` or `query`), so for example
the intervention-set enumeration inside the rewrite gate is kept apart from
the one inside the verifier.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass

SPAN = "span"
LEAF = "leaf"
GEN = "gen"


@dataclass
class Stat:
    calls: int = 0
    #: generator items yielded, or gate cases checked
    items: int = 0
    #: gate verdicts other than "equal"
    rejected: int = 0
    #: outermost calls only, so recursion is not counted twice
    incl_ns: int = 0
    #: minus the time spent in other wrapped calls made from inside
    self_ns: int = 0


def _gate_observer(stat: Stat, report) -> None:
    stat.items += report.cases_checked
    if report.verdict != "equal":
        stat.rejected += 1


# (owner path, attribute, stat name, kind, observer).  The owner path is
# resolved from the scmc package; a dotted tail walks into a class.
# Callers that import a function by name hold their own reference, so each
# such name is patched where that caller looks it up:
#   - `consolidate` calls check_partition/order_clusters/extract_sub_scm and
#     prune_childless/build_rho/run_passes through `consolidation`'s globals;
#   - `run_passes` imports `verification.verify_pass` on every call and
#     indexes `passes.PURE_PASSES` for every pass;
#   - every module reaches `eval_expr`, `image_of` and `derive_graph_unchecked`
#     through the module object (`E.`, `I.`, `S.`), and `image_of` recurses
#     through its own module globals;
#   - `InterventionSet.has/get` and `InterventionSpace.*` are class attributes.
LAYERS = [
    ("consolidation", "check_partition", "partition", SPAN, None),
    ("consolidation", "order_clusters", "partition", SPAN, None),
    ("consolidation", "extract_sub_scm", "partition", SPAN, None),
    ("consolidation", "prune_childless", "consolidation.prune", SPAN, None),
    ("consolidation", "build_rho", "consolidation.build_rho", SPAN, None),
    ("consolidation", "run_passes", "consolidation.run_passes", SPAN, None),
    ("verification", "verify_pass", "gate", SPAN, _gate_observer),
    ("verification", "enumerate_local_cases", "gate.case_gen", SPAN, None),
    ("verification", "sample_local_cases", "gate.case_gen", SPAN, None),
    ("verification", "enumerate_exogenous", "verify.case_gen", SPAN, None),
    ("verification", "sample_exogenous", "sample_exogenous", SPAN, None),
    ("passes", "absorb_candidates", "passes.absorb", GEN, None),
    ("images", "image_of", "image_of", LEAF, None),
    ("expr", "eval_expr", "eval_expr", LEAF, None),
    ("scm.InterventionSet", "has", "iset_lookup", LEAF, None),
    ("scm.InterventionSet", "get", "iset_lookup", LEAF, None),
    ("scm.InterventionSpace", "atom_values", "atom_values", LEAF, None),
    ("scm.InterventionSpace", "enumerate", "space_cases", LEAF, None),
    ("scm.InterventionSpace", "sample", "space_cases", LEAF, None),
    ("scm", "derive_graph_unchecked", "derive_graph", LEAF, None),
    ("scm", "derive_graph", "derive_graph", LEAF, None),
]


def _resolve(package, path: str):
    owner = package
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def _assign(owner, attr: str, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """Collects spans and per-phase call statistics from wrapped functions."""

    def __init__(self):
        self.phase = "setup"
        self.stats: dict[tuple[str, str], Stat] = {}
        #: [id, parent, phase, name, detail, start_ns, end_ns]
        self.spans: list[list] = []
        #: functions that were not found, and the stats they would feed
        self.missing: list[str] = []
        self.missing_stats: set[str] = set()
        self._frames: list[list[int]] = []
        self._open: list[int] = []
        self._depth: dict[str, int] = {}
        self._patched: list[tuple] = []

    def stat(self, name: str) -> Stat:
        """The statistic of `name` in the current phase."""
        key = (self.phase, name)
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = Stat()
        return st

    def total(self, name: str, phases) -> Stat:
        """Sum of one stat over the given phases."""
        out = Stat()
        for (phase, n), st in self.stats.items():
            if n == name and phase in phases:
                out.calls += st.calls
                out.items += st.items
                out.rejected += st.rejected
                out.incl_ns += st.incl_ns
                out.self_ns += st.self_ns
        return out

    # -- installing -----------------------------------------------------

    def install(self, package) -> None:
        """Wrap every layer function that exists; record the ones that do not."""
        for path, attr, name, kind, observe in LAYERS:
            label = f"{path}.{attr}"
            try:
                owner = _resolve(package, path)
                original = getattr(owner, attr)
            except AttributeError:
                self.missing.append(label)
                self.missing_stats.add(name)
                continue
            if kind == GEN:
                wrapper = self._wrap_gen(original, name)
            else:
                wrapper = self._wrap(original, name, kind == SPAN, observe)
            _assign(owner, attr, wrapper)
            self._patched.append((owner, attr, original))
        pure_passes = getattr(getattr(package, "passes", None), "PURE_PASSES", None)
        if not isinstance(pure_passes, dict):
            self.missing.append("passes.PURE_PASSES")
            names = getattr(getattr(package, "passes", None), "ALL_PASSES", [])
            self.missing_stats.update(f"passes.{name}" for name in names)
            return
        for name, original in list(pure_passes.items()):
            pure_passes[name] = self._wrap(original, f"passes.{name}", True, None)
            self._patched.append((pure_passes, name, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            _assign(owner, attr, original)

    # -- wrappers -------------------------------------------------------

    def _wrap(self, fn, name: str, span: bool, observe, count_calls: bool = True):
        frames, depth, spans, open_ids = self._frames, self._depth, self.spans, self._open
        now = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            st = self.stat(name)
            level = depth.get(name, 0)
            depth[name] = level + 1
            frame = [0]
            frames.append(frame)
            if span:
                record = [len(spans), open_ids[-1] if open_ids else None, self.phase, name, None, 0, 0]
                spans.append(record)
                open_ids.append(record[0])
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = now()
                dur = t1 - t0
                frames.pop()
                depth[name] = level
                if frames:
                    frames[-1][0] += dur
                if count_calls:
                    st.calls += 1
                st.self_ns += dur - frame[0]
                if level == 0:
                    st.incl_ns += dur
                if span:
                    open_ids.pop()
                    record[5], record[6] = t0, t1
            if observe is not None:
                try:
                    observe(st, result)
                except AttributeError:  # the result no longer has that shape
                    self.missing_stats.add(name)
            return result

        return wrapper

    def _wrap_gen(self, fn, name: str):
        """Time each step of a generator; items counts what it yielded."""
        timed_next = self._wrap(next, name, False, None, count_calls=False)

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            self.stat(name).calls += 1
            while True:
                try:
                    item = timed_next(inner)
                except StopIteration:
                    return
                self.stat(name).items += 1
                yield item

        return wrapper

    # -- regions opened by the benchmark itself ---------------------------

    @contextlib.contextmanager
    def region(self, phase: str, detail: str):
        """A top-level span around one public call made by the benchmark."""
        previous = self.phase
        self.phase = phase
        record = [len(self.spans), self._open[-1] if self._open else None, phase, phase, detail, 0, 0]
        self.spans.append(record)
        self._open.append(record[0])
        record[5] = time.perf_counter_ns()
        try:
            yield
        finally:
            record[6] = time.perf_counter_ns()
            self._open.pop()
            self.phase = previous

    def write(self, path: str) -> None:
        """Spans as JSON lines, then one line per (phase, name) statistic."""
        keys = ("id", "parent", "phase", "name", "detail", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")
            for (phase, name), st in sorted(self.stats.items()):
                row = {"stat": name, "phase": phase, **st.__dict__}
                fh.write(json.dumps(row) + "\n")
            if self.missing:
                fh.write(json.dumps({"missing": self.missing}) + "\n")


class NullTracer:
    """Stands in for a Tracer in untraced runs: regions cost one call each."""

    def region(self, phase: str, detail: str):
        return contextlib.nullcontext()

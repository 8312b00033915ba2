"""Equivalence checking between a base model and a consolidated one.

All checks share exogenous draws between the two sides and compare target
values pointwise: with deterministic equations this implies the equality of
the intervened distributions, and it is far cheaper than comparing
distributions.  Exhaustive mode enumerates both the joint exogenous support
and the intervention family and therefore certifies; sampled mode is an
explicitly probabilistic verdict for continuous inputs or huge spaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Optional, Sequence

import numpy as np

from . import columns as C
from . import expr as E
from . import scm as S
from .consolidation import Ccv, ConsolidatedScm, PassConfig, ccv_plan, eval_consolidated
from .errors import DomainError, recursion_as_too_deep
from .evaluation import Assignment, _draw, eval_scm, make_rng, run_plan, run_rows
from .evaluation import enumerate_exogenous, sample_exogenous  # noqa: F401 - bench/tracing.py looks them up here
from .expr import Value, VarRef, ref_sort_key
from .partition import SubScm, sub_scm_as_scm
from .scm import InterventionSet, Scm

EXHAUSTIVE = "exhaustive"
SAMPLED = "sampled"


@dataclass(frozen=True)
class EquivalenceStrategy:
    mode: str = EXHAUSTIVE
    sample_count: int = 1000
    seed: int = 0
    tolerance: float = E.EPS_VAL
    intervention_budget: int = 4096
    exogenous_budget: int = 10**6
    #: explicit intervention sets override enumeration when given
    intervention_sets: Optional[tuple[InterventionSet, ...]] = None

    @staticmethod
    def exhaustive(**kw) -> "EquivalenceStrategy":
        return EquivalenceStrategy(mode=EXHAUSTIVE, **kw)

    @staticmethod
    def sampled(count: int = 1000, seed: int = 0, **kw) -> "EquivalenceStrategy":
        return EquivalenceStrategy(mode=SAMPLED, sample_count=count, seed=seed, **kw)


@dataclass(frozen=True)
class CounterExample:
    u: tuple[tuple[VarRef, Value], ...]
    interventions: InterventionSet
    var: VarRef
    base_value: Value
    ccv_value: Value

    def env(self) -> Assignment:
        return dict(self.u)

    def __str__(self):
        us = ", ".join(f"{v}={val}" for v, val in self.u)
        return (
            f"u=({us}), I={self.interventions}: {self.var} "
            f"base={self.base_value} consolidated={self.ccv_value}"
        )


@dataclass
class EquivalenceReport:
    verdict: str  # "equal" | "counterexample" | "inconclusive"
    cases_checked: int = 0
    max_abs_deviation: float = 0.0
    counterexample: Optional[CounterExample] = None
    probabilistic: bool = False
    message: str = ""

    @property
    def equal(self) -> bool:
        return self.verdict == "equal"


def _first_mismatch(
    base_vals: Sequence[Value], cons_vals: Sequence[Value], tolerance: float
) -> tuple[Optional[int], float]:
    """Position of the first disagreeing target, and the largest real deviation."""
    worst = 0.0
    bad: Optional[int] = None
    for i, (a, b) in enumerate(zip(base_vals, cons_vals)):
        if isinstance(a, E.VReal) or isinstance(b, E.VReal):
            try:
                av = a.r if isinstance(a, E.VReal) else float(a.i)
                bv = b.r if isinstance(b, E.VReal) else float(b.i)
            except AttributeError:
                if bad is None:
                    bad = i
                continue
            dev = abs(av - bv)
            worst = max(worst, dev)
            if dev > tolerance and bad is None:
                bad = i
        elif a != b:
            if bad is None:
                bad = i
    return bad, worst


def _intervention_cases(
    space: S.InterventionSpace, strategy: EquivalenceStrategy
) -> list[InterventionSet] | S.InterventionSpace:
    """The sets an exhaustive check pairs with each input row: the
    strategy's own; or a canonical singleton or power-set space itself, read
    by position; or else the space's members, listed now, so that a power
    set with two rows on one variable raises before any case."""
    if strategy.intervention_sets is not None:
        return list(strategy.intervention_sets)
    if space.mode != S.EXPLICIT and space.atoms_canonical:
        return space
    return space.enumerate(strategy.intervention_budget)


@recursion_as_too_deep
def verify_equivalence(
    base: Scm,
    cons: ConsolidatedScm,
    targets: Optional[Iterable[VarRef]] = None,
    strategy: EquivalenceStrategy = None,
) -> EquivalenceReport:
    """Compare target values of the base and consolidated models pointwise.

    Exhaustive mode visits every (input, intervention) pair exactly once, in
    canonical order, so the reported counterexample is the smallest failing
    case.  Budget overruns surface as an inconclusive verdict, never as a
    silently truncated pass.  Where the columns run out of frames on a
    deeply nested model, the per-case loop, which runs each model's
    generated code (`Plan.compiled`), takes over.
    """
    strategy = strategy or EquivalenceStrategy.exhaustive()
    tlist = sorted(set(targets) if targets is not None else set(cons.targets), key=ref_sort_key)
    computable = set(cons.computed_vars())
    for t in tlist:
        if t not in computable:
            return EquivalenceReport(
                "inconclusive", message=f"{t} is not computed by the consolidated model"
            )

    cases, message = verifier_cases(base, strategy)
    if cases is None:
        return EquivalenceReport("inconclusive", message=message)
    n = len(cases)
    probabilistic = strategy.mode != EXHAUSTIVE

    def values(k: int, u: Assignment, iv: InterventionSet) -> tuple[list[Value], list[Value]]:
        base_out = eval_scm(base, u, iv, check_membership=False)
        cons_out = eval_consolidated(cons, u, iv, check_membership=False)
        return [base_out[t] for t in tlist], [cons_out[t] for t in tlist]

    keep = frozenset(tlist)

    def blocks():
        # the base drops each column after its last reader; the consolidated
        # model keeps its few columns, since its schedule would walk every
        # Ccv tree once per model (about 1 ms on `dominoes(128)`'s, a tenth
        # of the verify)
        for lo in range(0, n, _BLOCK_CASES):
            hi = min(lo + _BLOCK_CASES, n)
            block = cases.block(lo, hi)
            yield lo, hi, C.plan_columns(base.plan, block, keep), C.plan_columns(cons.plan, block)

    return _check_cases(tlist, n, strategy.tolerance, probabilistic, cases.case, values, blocks)


def verifier_cases(base: Scm, strategy: EquivalenceStrategy) -> tuple[Optional[C.Cases | C.Tiling], str]:
    """The verifier's case list, or None and why an exhaustive one cannot be made.

    Exhaustive mode pairs every input assignment, in canonical order, with
    every allowed set, within the strategy's budgets.  Sampled mode draws the
    inputs of each case in declared order from one stream, and the sets from
    a second stream with the same seed; a point mass draws nothing and makes
    one constant column.
    """
    if strategy.mode == EXHAUSTIVE:
        message = _over_budget(base, strategy)
        if message:
            return None, message
        supports = [(row.var, S.dist_support(row.dist)) for row in base.exogenous]
        return C.Tiling(supports, _intervention_cases(base.interventions, strategy)), ""
    count = strategy.sample_count
    if count < 0:
        raise DomainError("count must be non-negative")
    rng = make_rng(strategy.seed)
    drawing = [row for row in base.exogenous if type(row.dist) is not S.PointMass]
    drawn: dict[VarRef, list[Value]] = {row.var: [] for row in drawing}
    for _ in range(count):
        for row in drawing:
            drawn[row.var].append(_draw(row.dist, rng))
    inputs = {}
    for row in base.exogenous:
        if row.var in drawn:
            inputs[row.var] = C.entries(drawn[row.var])
        else:
            col, exact = C.entries([row.dist.value])
            inputs[row.var] = (col * count, True) if exact else (np.repeat(col, count), False)
    space = base.interventions
    return C.Cases.drawn(inputs, space, space.picks(make_rng(strategy.seed), count)), ""


def _input_count(base: Scm) -> int:
    """How many input assignments an exhaustive check of `base` visits;
    raises `DomainError` for an input without finite support."""
    total = 1
    for row in base.exogenous:
        support = S.dist_support(row.dist)
        if support is None:
            raise DomainError(f"{row.var} has continuous support")
        total *= len(support)
    return total


def _over_budget(base: Scm, strategy: EquivalenceStrategy) -> str:
    """Why an exhaustive check of `base` does not fit the strategy, or "".

    It does not when an input has no finite support, or the inputs outnumber
    `exogenous_budget`, or the enumerated sets `intervention_budget`, or the
    cases the larger of the two budgets.
    """
    try:
        inputs = _input_count(base)
    except DomainError as exc:
        return str(exc)
    given = strategy.intervention_sets
    sets = base.interventions.size() if given is None else len(given)
    n, budget = inputs * sets, max(strategy.intervention_budget, strategy.exogenous_budget)
    if n > budget or inputs > strategy.exogenous_budget or (given is None and sets > strategy.intervention_budget):
        return (
            f"{inputs} inputs x {sets} intervention sets = {n} cases, budget is "
            f"{strategy.exogenous_budget} inputs, {strategy.intervention_budget} sets, {budget} cases"
        )
    return ""


#: cases of a verifier column block, which bounds the columns held at once:
#: as many as the default `intervention_budget` and `gate_case_budget`, so
#: that a list of up to that many cases is one walk of each model
_BLOCK_CASES = 4096
#: leading cases the gate checks one by one before the columns take over:
#: a rejected rewrite usually disagrees on the very first case
_PROBE_CASES = 1


def _case_loop(tlist, tolerance, probabilistic, case, values, lo, hi, worst):
    """The per-case loop over cases lo..hi-1: the first disagreeing case as a
    counterexample report, or None; and the largest real deviation seen."""
    for k in range(lo, hi):
        u, iv = case(k)
        want, got = values(k, u, iv)
        bad, dev = _first_mismatch(want, got, tolerance)
        worst = max(worst, dev)
        if bad is not None:
            report = EquivalenceReport(
                "counterexample",
                cases_checked=k + 1,
                max_abs_deviation=worst,
                probabilistic=probabilistic,
                counterexample=CounterExample(
                    u=tuple(sorted(u.items(), key=lambda p: ref_sort_key(p[0]))),
                    interventions=iv,
                    var=tlist[bad],
                    base_value=want[bad],
                    ccv_value=got[bad],
                ),
            )
            return report, worst
    return None, worst


def _check_cases(tlist, n, tolerance, probabilistic, case, values, blocks, probe=0) -> EquivalenceReport:
    """The report of the per-case loop over cases 0..n-1, computed by columns
    where they agree.

    `case(k)` is the k-th (inputs, intervention set) pair, and
    `values(k, u, iv)` gives the two target-value sequences the loop
    compares.  The loop checks the first `probe` cases.  Then `blocks()`
    yields `(lo, hi, want, got)`: the target columns of both sides over cases
    lo..hi-1.  They stand in for the loop up to the first case on which they
    disagree; from there, or from wherever a block raised, the loop takes
    over again.  Columns compute every value the loop would and raise
    wherever it would, so the report, or the error raised, is the loop's own.
    No case checked shows nothing, so an empty list is inconclusive.
    """
    if not n:
        return EquivalenceReport("inconclusive", probabilistic=probabilistic, message="no case to check")
    report, worst = _case_loop(tlist, tolerance, probabilistic, case, values, 0, min(probe, n), 0.0)
    if report is not None:
        return report
    k = min(probe, n)
    if k < n:
        try:
            for lo, hi, want, got in blocks():
                stop, dev = C.first_disagreement(tlist, want, got, tolerance, k - lo, hi - lo)
                worst = max(worst, dev)
                if stop is not None:
                    k = lo + stop
                    break
                k = hi
        except Exception:  # noqa: BLE001 - the loop from `k` meets the same error, or none
            pass
    report, worst = _case_loop(tlist, tolerance, probabilistic, case, values, k, n, worst)
    if report is not None:
        return report
    return EquivalenceReport("equal", cases_checked=n, max_abs_deviation=worst, probabilistic=probabilistic)


def replay_counterexample(
    base: Scm, cons: ConsolidatedScm, cx: CounterExample
) -> tuple[Value, Value]:
    """Re-run both models on a counterexample's case; reproduces the report."""
    base_out = eval_scm(base, cx.env(), cx.interventions, check_membership=False)
    cons_out = eval_consolidated(cons, cx.env(), cx.interventions, check_membership=False)
    return base_out[cx.var], cons_out[cx.var]


# ---------------------------------------------------------------------------
# Cluster-local checking (the rewrite gate)
# ---------------------------------------------------------------------------


def local_case_count(sub: SubScm) -> Optional[int]:
    """Exhaustive case count for a cluster, or None when not enumerable."""
    try:
        return _input_count(sub_scm_as_scm(sub)) * sub.interventions.size()
    except DomainError:
        return None


#: an exhaustive strategy that every enumerable cluster fits
_EVERY_CASE = EquivalenceStrategy.exhaustive(intervention_budget=10**9, exogenous_budget=10**9)


def enumerate_local_cases(sub: SubScm) -> Optional[C.Tiling]:
    """Every case of a cluster, or None when it is not enumerable: the
    verifier's exhaustive case list of the cluster viewed as a model."""
    return verifier_cases(sub_scm_as_scm(sub), _EVERY_CASE)[0]


def sample_local_cases(sub: SubScm, count: int, seed: int) -> C.Cases:
    """`count` seeded cases of a cluster: the verifier's sampled case list of
    the cluster viewed as a model."""
    return verifier_cases(sub_scm_as_scm(sub), EquivalenceStrategy.sampled(count, seed))[0]


def gate_strategy_for(sub: SubScm, config: PassConfig) -> EquivalenceStrategy:
    """Exhaustive, with `gate_case_budget` as both budgets, when the
    cluster's local space fits that budget; else sampled."""
    n = local_case_count(sub)
    budget = config.gate_case_budget
    if n is not None and n <= budget:
        return EquivalenceStrategy.exhaustive(
            tolerance=config.tolerance, intervention_budget=budget, exogenous_budget=budget
        )
    return EquivalenceStrategy.sampled(
        count=config.gate_sample_count, seed=config.seed, tolerance=config.tolerance
    )


class GateMemo:
    """What the gate calls of one `run_passes` share.

    The cluster's case list is built on the first call.  The target values
    of `before`, per case in case order and as columns, are kept for as long
    as the same `before` object comes back, that is, until a candidate is
    accepted; each candidate is evaluated only from the rows it changed, on
    top of them.  The columns are computed once, except after an acceptance:
    the candidate that passed left its own columns behind, so the new
    `before` is not evaluated again.  Rejections are kept by key against the
    same `before`, so a candidate proposed again gets its report back
    unevaluated.
    """

    def __init__(self):
        self._sub: Optional[SubScm] = None
        self._strategy: Optional[EquivalenceStrategy] = None
        self._cases: tuple[Optional[C.Cases], str] = (None, "")
        self._before: Optional[Ccv] = None
        self._before_plan: Optional[S.Plan] = None
        #: `before`'s target columns; None until computed, or when they cannot be
        self._before_columns: Optional[dict] = None
        self._walked = False
        #: `before`'s target values per case in case order, while it has no columns
        self._known: list[tuple[Value, ...]] = []
        #: the last candidate that passed against `_before`, with its columns
        self.passed: Optional[tuple[Ccv, dict]] = None
        #: reports of the candidates rejected against `_before`, by key
        self.rejected: dict[Hashable, EquivalenceReport] = {}

    def cases(self, sub: SubScm, strategy: EquivalenceStrategy) -> tuple[Optional[C.Cases], str]:
        """The verifier's case list of the cluster viewed as a model, or None
        and why an exhaustive one cannot be made."""
        if self._sub is not sub or self._strategy is not strategy:
            self._sub, self._strategy = sub, strategy
            self._before = self.passed = None
            message = ""
            if strategy.mode != EXHAUSTIVE:
                cases = sample_local_cases(sub, strategy.sample_count, strategy.seed)
            else:
                message = _over_budget(sub_scm_as_scm(sub), strategy)
                cases = None if message else enumerate_local_cases(sub)
            self._cases = (None if cases is None else cases.block(0, len(cases)), message)
        return self._cases

    def track(self, before: Ccv) -> None:
        """Start keeping values for `before`, unless they are kept already."""
        if self._before is not before:
            passed, self.passed = self.passed, None
            self._before, self._known = before, []
            self._before_plan = ccv_plan(before, self._sub.local_exogenous)
            self._before_columns, self._walked = None, False
            if passed is not None and passed[0] is before:
                self._before_columns, self._walked = passed[1], True
            self.rejected = {}

    def before_values(self, k: int, env: Assignment, iv: InterventionSet, tlist) -> tuple[Value, ...]:
        """`before`'s target values on case k, in its rows' order; the loop
        asks for cases in order."""
        cols = self._before_columns
        if cols is not None:
            return tuple([C.value(cols[t].item(k)) for t in tlist])
        if k == len(self._known):
            out = run_plan(self._before_plan, env, iv)
            self._known.append(tuple([out[t] for t in tlist]))
        return self._known[k]

    def columns(self) -> tuple[C.Cases, dict]:
        """The case list, and `before`'s target columns over it.

        Raises when they cannot be computed; `before` is walked at most once.
        """
        cases = self._cases[0]
        if not self._walked:
            self._walked = True
            self._before_columns = C.plan_columns(self._before_plan, cases)
        if self._before_columns is None:
            raise C.Unsupported("before has no columns")
        return cases, self._before_columns


def verify_pass(
    before: Ccv,
    after: Ccv,
    sub: SubScm,
    strategy: EquivalenceStrategy,
    memo: Optional[GateMemo] = None,
    key: Optional[Hashable] = None,
) -> EquivalenceReport:
    """Same contract as `verify_equivalence`, restricted to one cluster.

    Both compositional variables are evaluated over the cluster's local
    exogenous space and its projected intervention family; all targets are
    compared, so a rewrite that corrupts a value any later target consumes is
    caught even when the edited tree itself still agrees.

    The cases are the verifier's, on the cluster viewed as a model
    (`partition.sub_scm_as_scm`), and each Ccv runs as a one-cluster plan
    (`consolidation.ccv_plan`), per case and by columns.  The first case is
    checked on its own, since a rejected rewrite usually disagrees there;
    then `after` is walked once over all cases by columns, and the per-case
    loop resumes only where the columns disagree or cannot be evaluated.

    `after` is evaluated only from the rows a candidate changed, per case
    and by columns (`columns.plan_columns`): a row takes `before`'s value,
    or column, unevaluated when `before`'s row at its position has the same
    variable and is the same tree object, and every earlier row is clean.
    A row is clean when it was taken so, or when it evaluates to `before`'s
    value of the same class with the same payload bits (`columns.same_value`
    and `columns._same_bits`, so 0.0 is not -0.0, and per case a NaN never
    is); `before`'s object then takes its place.
    On a clean prefix the tree reads what it read in `before`, where it was
    evaluated on this case without raising, so it gives the same value.

    `memo` carries the case list, `before`'s columns and the rejections from
    one call to the next.  When `after` passes, its columns stay in the memo,
    so a later call with `after` as `before` evaluates `before` on no case.
    `key` names `after` among the candidates proposed against `before`: with
    a memo, a candidate rejected under the same key against the same `before`
    gets the recorded report back without any evaluation, so a key must
    always name the same candidate.  Keys are never compared trees, since
    trees that differ only in the sign of a real zero compare equal.

    With or without a memo, the report, or the error raised, is that of the
    per-case loop, which visits cases in order and evaluates all of `before`
    and then all of `after` on each.
    """
    if set(before.targets) != set(after.targets):
        return EquivalenceReport("inconclusive", message="target sets differ")
    memo = memo if memo is not None else GateMemo()
    cases, message = memo.cases(sub, strategy)
    if cases is None:
        return EquivalenceReport("inconclusive", message=message)
    probabilistic = strategy.mode != EXHAUSTIVE

    memo.track(before)
    if key is not None and key in memo.rejected:
        return memo.rejected[key]
    tlist = list(before.targets)
    plan = ccv_plan(after, sub.local_exogenous)
    walked: list[dict] = []
    rows = after.rows
    # per row of `after`: whether `before`'s row at its position has the same
    # variable and domain, and whether it is moreover the same tree object
    aligned = [a[:2] == b[:2] for a, b in zip(rows, before.rows)]
    same = [ok and a[2] is b[2] for ok, a, b in zip(aligned, rows, before.rows)]

    def values(k: int, env: Assignment, iv: InterventionSet) -> tuple[tuple[Value, ...], tuple[Value, ...]]:
        # `before`'s values stand in for `after`'s rows while every earlier
        # row is clean: the same tree on the same inputs gives the same value
        want = memo.before_values(k, env, iv, tlist)
        scope = dict(env)
        forced = dict(iv.assignments)
        for i, row in enumerate(rows):
            if not same[i]:
                run_rows(rows[i : i + 1], scope, forced)
                if not (aligned[i] and C.same_value(scope[row[0]], want[i])):
                    run_rows(rows[i + 1 :], scope, forced)
                    break
            scope[row[0]] = want[i]
        return want, tuple([scope[t] for t in tlist])

    def blocks():
        columns, want = memo.columns()
        got = C.plan_columns(plan, columns, before=(before.rows, want))
        walked.append(got)
        yield 0, len(cases), want, got

    report = _check_cases(
        tlist, len(cases), strategy.tolerance, probabilistic, cases.case, values, blocks, _PROBE_CASES
    )
    if report.verdict == "equal":
        if walked:
            memo.passed = (after, walked[0])
    elif key is not None:
        memo.rejected[key] = report
    return report

"""Fault-injection and budget tests: the resilience layer end to end.

These tests drive the recovery paths of :mod:`repro.evaluation.session`
with *real* faults — SIGKILLed pool workers, stalled result queues,
tampered cache deltas, swallowed terminal events — installed through the
test-only ``Session(faults=FaultPlan(...))`` hook, plus the wall-clock /
step budgets of :mod:`repro.evaluation.budget` on every entry point.

The invariant under test everywhere: **answers are bitwise identical to a
serial run**, no matter what the pool does underneath.
"""

import multiprocessing
import pickle
import time

import pytest

from repro.evaluation import (
    Budget,
    DeadlineExceeded,
    Engine,
    EvaluationStatistics,
    FaultInjected,
    FaultPlan,
    Session,
    TimeoutReport,
    WorkerCrashError,
)
from repro.exceptions import EvaluationError
from repro.rdf import RDFGraph, Triple
from repro.sparql import Mapping, parse_pattern

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fault-injection suite needs a POSIX multiprocessing platform",
)

#: Short grace so degradation tests settle quickly; long enough that a
#: healthy-but-slow worker is never cut off on a loaded CI box.
GRACE = 0.8


def line_graph(n=20):
    """Two-hop chains a{i} -> b{i} -> c{i}: every test pattern has answers."""
    return RDFGraph(
        [Triple.of(f"a{i}", "p", f"b{i}") for i in range(n)]
        + [Triple.of(f"b{i}", "p", f"c{i}") for i in range(n)]
    )


def dense_graph(n=12):
    """Every node points at every node: k-chains explode combinatorially."""
    return RDFGraph(
        [Triple.of(f"n{i}", "p", f"n{j}") for i in range(n) for j in range(n)]
    )


def three_patterns():
    """Three structurally distinct patterns (three distinct cells)."""
    return [
        parse_pattern("(?x p ?y)"),
        parse_pattern("((?x p ?y) OPT (?y p ?z))"),
        parse_pattern("((?x p ?y) AND (?y p ?z))"),
    ]


def chain_pattern(k=5):
    """A k-variable AND-chain — pathological over a dense graph."""
    text = "(?v0 p ?v1)"
    for i in range(1, k):
        text = f"({text} AND (?v{i} p ?v{i + 1}))"
    return parse_pattern(text)


def serial_reference(patterns, graph):
    return Session().solutions_many(patterns, graph)


def collect_iter(session, patterns, graph, **kwargs):
    """Consume solutions_iter into {cell: set}; returns (cells, report|None)."""
    got, report = {}, None
    for item in session.solutions_iter(patterns, graph, **kwargs):
        if isinstance(item, TimeoutReport):
            report = item
            break
        cell, mu = item
        got.setdefault(cell, set()).add(mu)
    return got, report


# --- Budget unit behaviour --------------------------------------------------


class TestBudget:
    def test_unbounded_never_trips(self):
        budget = Budget()
        budget.tick(10_000)
        budget.check()
        assert not budget.expired()

    def test_step_budget_trips(self):
        budget = Budget(steps=10, check_interval=1)
        with pytest.raises(DeadlineExceeded):
            for _ in range(100):
                budget.tick()
        assert budget.expired()

    def test_deadline_trips(self):
        budget = Budget(deadline=0.0)
        assert budget.expired()
        with pytest.raises(DeadlineExceeded):
            budget.check()

    def test_cancel_trips(self):
        budget = Budget()
        budget.cancel()
        assert budget.cancelled and budget.expired()
        with pytest.raises(DeadlineExceeded):
            budget.check()

    def test_elapsed_and_remaining(self):
        budget = Budget(deadline=60.0)
        assert budget.elapsed() >= 0.0
        assert 0.0 < budget.remaining() <= 60.0
        assert Budget().remaining() is None

    def test_amortized_interval(self):
        budget = Budget(steps=0, check_interval=256)
        budget.tick(10)  # under the interval: no real check yet
        with pytest.raises(DeadlineExceeded):
            budget.tick(300)

    def test_pickling_preserves_absolute_expiry(self):
        budget = Budget(deadline=60.0, steps=5)
        budget.tick(3)
        clone = pickle.loads(pickle.dumps(budget))
        assert clone.expires_at == budget.expires_at
        assert clone.steps_used == 3 and clone.steps_limit == 5

    def test_validation(self):
        with pytest.raises(EvaluationError):
            Budget(deadline=-1)
        with pytest.raises(EvaluationError):
            Budget(steps=-1)
        with pytest.raises(EvaluationError):
            Budget(check_interval=0)

    def test_exception_hierarchy(self):
        assert issubclass(DeadlineExceeded, EvaluationError)
        assert issubclass(WorkerCrashError, EvaluationError)
        assert issubclass(FaultInjected, EvaluationError)


class TestFaultPlanUnit:
    def test_kill_guard_fires_once_locally(self):
        plan = FaultPlan(kill_at=3)
        assert plan._kill_guard.take()
        assert not plan._kill_guard.take()

    def test_kill_once_false_always_takes(self):
        plan = FaultPlan(kill_at=3, kill_once=False)
        assert plan._kill_guard.take() and plan._kill_guard.take()

    def test_raise_at(self):
        plan = FaultPlan(raise_at=2)
        plan.fire(0)
        with pytest.raises(FaultInjected):
            plan.fire(2)

    def test_plan_survives_pickling(self):
        # An *armed* plan only crosses process boundaries through the pool
        # machinery (mp.Value is inheritance-only); unarmed plans pickle.
        plan = FaultPlan(kill_at=1, stale_delta=True)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.kill_at == 1 and clone.stale_delta
        assert clone._kill_guard.take() and not clone._kill_guard.take()


# --- deadline behaviour through the entry points ----------------------------


class TestDeadlines:
    def test_engine_contains_zero_deadline(self):
        graph = line_graph(5)
        engine = Engine(parse_pattern("(?x p ?y)"))
        stats = EvaluationStatistics()
        with pytest.raises(DeadlineExceeded) as info:
            engine.contains(
                graph, Mapping.of(x="a0", y="b0"), statistics=stats, deadline=0.0
            )
        assert stats.deadline_trips == 1
        assert info.value.statistics is stats

    def test_session_check_many_step_budget(self):
        graph = line_graph()
        pattern = parse_pattern("((?x p ?y) OPT ((?y p ?z) OPT (?z p ?w)))")
        session = Session()
        mus = [Mapping.of(x=f"a{i}", y=f"b{i}") for i in range(20)]
        with pytest.raises(DeadlineExceeded):
            session.check_many(
                pattern, graph, mus, budget=Budget(steps=3, check_interval=1)
            )
        assert session.statistics.deadline_trips == 1

    def test_solutions_attaches_partial(self):
        session = Session()
        with pytest.raises(DeadlineExceeded) as info:
            session.solutions(
                chain_pattern(4), dense_graph(8), budget=Budget(steps=500, check_interval=1)
            )
        # whatever was found before the trip rides on the exception
        assert isinstance(info.value.partial, tuple)

    def test_solutions_iter_serial_yields_report_within_bound(self):
        """Acceptance: partial results + terminal report by deadline + 250ms."""
        deadline = 0.3
        session = Session()
        started = time.monotonic()
        got, report = collect_iter(
            session, [chain_pattern(5)], dense_graph(12), deadline=deadline
        )
        elapsed = time.monotonic() - started
        assert report is not None, "pathological cell must time out"
        assert elapsed < deadline + 0.25
        assert report.cells_pending >= 1
        assert report.solutions_yielded == sum(len(s) for s in got.values())
        assert session.statistics.deadline_trips == 1

    def test_solutions_iter_parallel_yields_report(self):
        deadline = 0.3
        session = Session()
        started = time.monotonic()
        got, report = collect_iter(
            session,
            [chain_pattern(5), parse_pattern("(?x p ?y)")],
            dense_graph(12),
            processes=2,
            deadline=deadline,
        )
        elapsed = time.monotonic() - started
        assert report is not None
        assert elapsed < deadline + 1.0  # pool teardown adds slack serially absent
        assert report.cells_pending >= 1

    def test_solutions_many_parallel_deadline_raises(self):
        session = Session()
        with pytest.raises(DeadlineExceeded):
            session.solutions_many(
                [chain_pattern(5), parse_pattern("(?x p ?y)")],
                dense_graph(12),
                processes=2,
                deadline=0.3,
            )
        assert session.statistics.deadline_trips == 1

    def test_timeout_report_is_terminal(self):
        session = Session()
        items = list(
            session.solutions_iter(
                [chain_pattern(5)], dense_graph(12), deadline=0.3
            )
        )
        reports = [i for i in items if isinstance(i, TimeoutReport)]
        assert len(reports) == 1 and items[-1] is reports[0]


# --- worker crashes ----------------------------------------------------------


class TestWorkerCrashRecovery:
    def test_check_many_recovers_from_sigkill(self):
        graph, pattern = line_graph(), parse_pattern("((?x p ?y) OPT (?y p ?z))")
        mus = [Mapping.of(x=f"a{i}", y=f"b{i}") for i in range(20)]
        reference = Session().check_many(pattern, graph, mus)
        session = Session(stream_grace_seconds=GRACE, faults=FaultPlan(kill_at=0))
        stats = EvaluationStatistics()
        assert session.check_many(
            pattern, graph, mus, processes=2, statistics=stats
        ) == reference
        assert session.statistics.worker_crashes >= 1
        assert stats.worker_crashes >= 1

    def test_check_iter_recovers_from_sigkill(self):
        graph, pattern = line_graph(), parse_pattern("((?x p ?y) OPT (?y p ?z))")
        mus = [Mapping.of(x=f"a{i}", y=f"b{i}") for i in range(8)]
        reference = Session().check_many(pattern, graph, mus)
        session = Session(stream_grace_seconds=GRACE, faults=FaultPlan(kill_at=0))
        assert list(
            session.check_iter(pattern, graph, mus, processes=2)
        ) == reference
        assert session.statistics.worker_crashes >= 1

    def test_solutions_many_recovers_from_sigkill(self):
        graph, patterns = line_graph(), three_patterns()
        reference = serial_reference(patterns, graph)
        session = Session(stream_grace_seconds=GRACE, faults=FaultPlan(kill_at=0))
        assert session.solutions_many(patterns, graph, processes=2) == reference
        assert session.statistics.worker_crashes >= 1

    def test_streaming_solutions_iter_recovers_from_sigkill(self):
        graph, patterns = line_graph(), three_patterns()
        reference = serial_reference(patterns, graph)
        session = Session(stream_grace_seconds=GRACE, faults=FaultPlan(kill_at=0))
        got, report = collect_iter(session, patterns, graph, processes=2)
        assert report is None
        assert got == {(i, 0): reference[i] for i in range(len(patterns))}
        assert session.statistics.worker_crashes >= 1

    def test_repeated_kills_degrade_serially(self):
        graph, pattern = line_graph(), parse_pattern("((?x p ?y) OPT (?y p ?z))")
        mus = [Mapping.of(x=f"a{i}", y=f"b{i}") for i in range(20)]
        reference = Session().check_many(pattern, graph, mus)
        session = Session(
            stream_grace_seconds=GRACE, faults=FaultPlan(kill_at=0, kill_once=False)
        )
        assert session.check_many(pattern, graph, mus, processes=2) == reference
        assert session.statistics.cells_degraded_serial >= 1
        # check_iter streams through the same ledger: after the degradation
        # every verdict is yielded exactly once, in input order.
        streaming = Session(
            stream_grace_seconds=GRACE, faults=FaultPlan(kill_at=0, kill_once=False)
        )
        assert list(streaming.check_iter(pattern, graph, mus, processes=2)) == reference
        assert streaming.statistics.cells_degraded_serial >= 1

    def test_streaming_repeated_kills_degrade_serially(self):
        graph, patterns = line_graph(), three_patterns()
        reference = serial_reference(patterns, graph)
        session = Session(
            stream_grace_seconds=GRACE, faults=FaultPlan(kill_at=1, kill_once=False)
        )
        got, report = collect_iter(session, patterns, graph, processes=2)
        assert report is None
        assert got == {(i, 0): reference[i] for i in range(len(patterns))}
        assert session.statistics.cells_degraded_serial >= 1

    def test_worker_mode_carries_resilience_summary(self):
        graph, patterns = line_graph(), three_patterns()
        session = Session(stream_grace_seconds=GRACE, faults=FaultPlan(kill_at=0))
        session.solutions_many(patterns, graph, processes=2)
        mode = session.worker_mode(2)
        assert "worker crash" in mode
        # a pristine session keeps the plain mode string
        assert "worker crash" not in Session().worker_mode(2)

    def test_injected_raise_surfaces_as_fault(self):
        graph, pattern = line_graph(), parse_pattern("((?x p ?y) OPT (?y p ?z))")
        mus = [Mapping.of(x=f"a{i}", y=f"b{i}") for i in range(8)]
        session = Session(stream_grace_seconds=GRACE, faults=FaultPlan(raise_at=0))
        with pytest.raises(EvaluationError):
            session.check_many(pattern, graph, mus, processes=2)


# --- delta tampering and queue behaviour -------------------------------------


class TestDeltaTampering:
    def test_stale_delta_never_poisons_parent_cache(self):
        graph, patterns = line_graph(), three_patterns()
        reference = serial_reference(patterns, graph)
        session = Session(
            stream_grace_seconds=GRACE, faults=FaultPlan(stale_delta=True)
        )
        assert session.solutions_many(patterns, graph, processes=2) == reference
        # every shipped entry was version-perturbed, so absorb dropped them
        assert session.cache.statistics.delta_entries_stale >= 1
        # and a second (serial) run over the same session is still correct
        assert session.solutions_many(patterns, graph) == reference

    def test_corrupt_delta_never_poisons_parent_cache(self):
        graph, patterns = line_graph(), three_patterns()
        reference = serial_reference(patterns, graph)
        session = Session(
            stream_grace_seconds=GRACE, faults=FaultPlan(corrupt_delta=True)
        )
        assert session.solutions_many(patterns, graph, processes=2) == reference
        assert session.solutions_many(patterns, graph) == reference

    def test_mutated_worker_graph_withholds_stamp(self):
        graph, patterns = line_graph(), three_patterns()
        reference = serial_reference(patterns, graph)
        session = Session(
            stream_grace_seconds=GRACE, faults=FaultPlan(mutate_graph_at=0)
        )
        assert session.solutions_many(patterns, graph, processes=2) == reference
        assert session.solutions_many(patterns, graph) == reference


class TestStreamingLiveness:
    def test_queue_stall_does_not_false_degrade(self):
        graph, patterns = line_graph(), three_patterns()
        reference = serial_reference(patterns, graph)
        session = Session(
            stream_grace_seconds=2.5,
            faults=FaultPlan(stall_at=0, stall_seconds=0.4),
        )
        got, report = collect_iter(session, patterns, graph, processes=2)
        assert report is None
        assert got == {(i, 0): reference[i] for i in range(len(patterns))}
        assert session.statistics.cells_degraded_serial == 0
        assert session.statistics.worker_crashes == 0

    def test_dropped_terminal_event_is_counted_not_silent(self):
        graph, patterns = line_graph(), three_patterns()
        session = Session(
            stream_grace_seconds=GRACE, faults=FaultPlan(drop_done_at=0)
        )
        with pytest.raises(EvaluationError, match="lost 1 cell"):
            collect_iter(session, patterns, graph, processes=2)
        assert session.statistics.cells_lost == 1

    def test_invalid_grace_rejected(self):
        with pytest.raises(EvaluationError):
            Session(stream_grace_seconds=0)
        with pytest.raises(EvaluationError):
            Session(stream_grace_seconds=-1.0)

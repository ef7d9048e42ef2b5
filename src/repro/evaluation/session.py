"""A multi-pattern, multi-graph evaluation workspace.

Serving realistic wdEVAL traffic means answering *sets* of instances — many
candidate mappings, many patterns, many graphs — behind one shared cache.
:class:`Session` is that workspace:

* engines are created (and memoized) per pattern through one shared
  :class:`~repro.evaluation.cache.EvaluationCache`, so structurally
  overlapping patterns reuse each other's homomorphism tests, kernels and
  target indexes;
* every entry point resolves its ``method=`` through the pattern's
  :class:`~repro.evaluation.plan.Planner` — exactly once per batch — and
  :meth:`plan` / :meth:`explain` expose the decision;
* :meth:`check_many` answers many mappings (deduplicated, optionally over a
  ``multiprocessing`` pool) with answers guaranteed identical to a loop of
  :meth:`Engine.contains <repro.evaluation.engine.Engine.contains>` calls,
  and :meth:`check_iter` streams the same verdicts in input order;
* :meth:`solutions_stream` enumerates lazily (a deduplicated generator);
  :meth:`solutions_many` batches enumeration over many patterns × many
  graphs — duplicate cells are evaluated once and fanned back out — and
  :meth:`solutions_iter` streams those batched results **incrementally**,
  ``(cell, solution)`` pairs in submission or completion order.

**One cell runner.**  Every batched entry point cuts its work into *cells*
— a pattern, a graph, and either a chunk of mappings (membership) or none
(enumeration) — and consumes the event stream of one parent-side drain.
One cell function computes a cell's items: ``(offset, verdict)`` pairs
for membership, solution mappings for enumeration.  Serial batches run it
in-process; with a pool every worker runs it on its tasks and streams the
items back as ``chunk``/``done`` messages over one bounded IPC queue, so
consumers see the first items of a cell while the worker is still
computing it.  Around that single function the drain provides:

* **warm forks**: on the ``fork`` start method the parent warms the
  µ-independent cache state and workers inherit the live session
  (indexes, homomorphism lists, memoized child tests) instead of
  rebuilding caches from scratch;
* a **return channel**: workers journal what they learn and ship it back
  as a picklable, version-stamped
  :class:`~repro.evaluation.cache.CacheDelta` the parent merges through
  :meth:`EvaluationCache.absorb
  <repro.evaluation.cache.EvaluationCache.absorb>` — so a repeated batch
  over the same cells replays from the parent cache instead of
  recomputing (enumeration cells the parent can already answer completely
  never reach the pool);
* **crash recovery**: worker deaths are detected (not waited out), the
  unfinished cells are resubmitted once on the surviving workers, and a
  second failure degrades them to serial re-execution of the same cell
  function in the parent.  An emitted-item ledger makes answers never
  lost and never duplicated, and the recovery is accounted in
  :class:`~repro.evaluation.wdeval.EvaluationStatistics`
  (``worker_crashes`` / ``cells_degraded_serial`` / ``cells_lost``);
* **budgets**: wall-clock / step budgets
  (:class:`~repro.evaluation.budget.Budget`) travel with the cells into
  the workers; a deadline-bounded :meth:`solutions_iter` yields its
  partial results and then a terminal
  :class:`~repro.evaluation.budget.TimeoutReport` instead of hanging.

A deterministic fault-injection harness (:mod:`repro.evaluation.faults`)
drives all of these paths in tests with real SIGKILLs and real queue
stalls.
"""

from __future__ import annotations

import multiprocessing
import threading
import warnings
from queue import Empty
from time import monotonic, sleep
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypedDict,
    Union,
)

from .budget import Budget, TimeoutReport, budget_from
from .cache import CacheDelta, EvaluationCache
from .context import EvalContext
from .engine import Engine
from .faults import FaultPlan
from .plan import Plan
from .wdeval import EvaluationStatistics
from ..patterns.forest import WDPatternForest
from ..patterns.tree import WDPatternTree
from ..rdf.graph import RDFGraph
from ..sparql.algebra import GraphPattern
from ..sparql.mappings import Mapping
from ..exceptions import (
    DeadlineExceeded,
    EvaluationError,
    ReproError,
    WorkerCrashError,
)

__all__ = ["Session", "PatternLike"]

#: Anything a session entry point accepts as "a pattern".
PatternLike = Union[Engine, GraphPattern, WDPatternForest]

#: How many times one cell may be attempted on the pool before the parent
#: re-runs it serially (1 original + 1 retry after a worker crash).
_MAX_TASK_ATTEMPTS = 2

#: Backoff after a detected worker crash, giving the pool a beat to reap
#: the corpse and respawn a replacement before cells are resubmitted.
_CRASH_BACKOFF_SECONDS = 0.05

#: How long one read of the result queue blocks before the drain re-checks
#: the budget, the worker processes and the grace clock.
_POLL_SECONDS = 0.05

#: Solutions a pooled :meth:`Session.solutions_iter` worker bundles per IPC
#: message unless the call passes ``chunk_size=``.  Smaller chunks lower the
#: latency to the first solution of a cell; larger chunks lower the queue
#: overhead.
_STREAM_CHUNK_SIZE = 16


class _Cell(NamedTuple):
    """One unit of batched work: a pattern's engine, a graph, the resolved
    plan, and the deduplicated mappings to decide — or ``None`` to
    enumerate the cell's answer set."""

    engine: Engine
    graph: RDFGraph
    plan: Plan
    mappings: Optional[Tuple[Mapping, ...]]


#: A drain event ``(tag, position, items)``: ``"chunk"`` carries newly
#: computed items of cell *position*, ``"done"`` closes the cell with its
#: remaining items, and ``"timeout"`` (position ``-1``) carries the one
#: terminal :class:`~repro.evaluation.budget.TimeoutReport`.
_Event = Tuple[str, int, List[Any]]

#: What crosses the pool boundary per cell: ``(position, engine slot,
#: graph slot, plan, mappings)``.  Only forests and graphs are shipped (once
#: per worker, in the initializer arguments); tasks index into them.
_Task = Tuple[int, int, int, Plan, Optional[Tuple[Mapping, ...]]]


def _cell_items(
    engine: Engine,
    graph: RDFGraph,
    plan: Plan,
    mappings: Optional[Tuple[Mapping, ...]],
    context: EvalContext,
) -> Iterator[Any]:
    """The one cell function: the items of one cell, computed lazily.

    ``(offset, verdict)`` pairs for a membership cell — one lazy
    :meth:`~repro.evaluation.plan.Strategy.contains_many` pass over its
    mappings, so the naive strategy materialises ``⟦P⟧G`` once per cell —
    and solution mappings for an enumeration cell.  The parent runs it
    in-process (serial batches and serial degradation); pool workers run
    it on every task they pick up.
    """
    context.check_budget()  # pre-expired budgets trip before any work
    strategy = plan.strategy_obj
    if mappings is None:
        return strategy.solutions_stream(engine.pattern, engine.forest, graph, context)
    return enumerate(
        strategy.contains_many(engine.pattern, engine.forest, graph, mappings, plan, context)
    )


# --- multiprocessing plumbing -------------------------------------------------
#
# Workers are initialised once per pool with every forest and graph the
# batch touches (pickled once per worker under non-fork start methods) and
# then receive cells as small index tuples.  Each worker evaluates through a
# Session of its own, so the per-graph index, memo tables and consistency
# kernels are built once per worker, not per cell.  With the ``fork`` start
# method the parent warms its cache first and hands its **live session** to
# the initializer — fork does not pickle initargs, so every worker starts
# with the parent's target indexes, kernels, memoized homomorphism lists and
# child-test verdicts already in (copy-on-write shared) memory.
#
# Either way the learning is two-directional: every worker journals what it
# memoizes (EvaluationCache.collect_deltas) and ships the journal back as a
# version-stamped CacheDelta with each finished cell; the parent absorbs the
# deltas, so the pool's work outlives the pool.  Version stamps are the
# *parent's* graph versions at pool creation — a worker's own (pickled or
# forked) version counter is meaningless parent-side — and a worker whose
# graph copy mutated withholds the stamp, so stale state is never shipped.
#
# Tasks carry their cell *position* so that (a) the parent can match
# retried / degraded work without trusting pool ordering and (b) the
# fault-injection harness can target "the worker that picks up cell N"
# deterministically.  An optional Budget travels in the initargs (absolute
# monotonic deadlines stay meaningful across processes on Linux), as does
# the test-only FaultPlan.


class _WorkerState(TypedDict, total=False):
    session: "Session"
    engines: List[Engine]
    graphs: List[RDFGraph]
    trees: List[WDPatternTree]
    parent_versions: List[int]
    base_versions: List[int]
    queue: Any
    chunk_size: Optional[int]
    context: EvalContext
    faults: Optional[FaultPlan]


# fork-safe: rebound wholesale by _init_worker in every worker process
# before any task runs, and never read in the parent — fork-inherited
# contents are inert, so worker writes cannot leak across the boundary.
_WORKER_STATE: _WorkerState = {}


def _init_worker(
    warm_session: Optional["Session"],
    forests: List[WDPatternForest],
    graphs: List[RDFGraph],
    parent_versions: List[int],
    queue: Any,
    chunk_size: Optional[int],
    budget: Optional[Budget],
    faults: Optional[FaultPlan],
) -> None:
    global _WORKER_STATE
    # Fork path: the parent's session (engines + warmed cache) arrives by
    # address, not by pickle; other start methods build a cold one.
    session = warm_session if warm_session is not None else Session()
    session.cache.collect_deltas()
    _WORKER_STATE = {
        "session": session,
        "engines": [session.engine(forest) for forest in forests],
        "graphs": graphs,
        "trees": [tree for forest in forests for tree in forest],
        "parent_versions": parent_versions,
        "base_versions": [graph.version for graph in graphs],
        "queue": queue,
        "chunk_size": chunk_size,
        "context": EvalContext(cache=session.cache, budget=budget),
        "faults": faults,
    }


def _export_delta() -> Optional[CacheDelta]:
    """The worker's learned-state delta since the last export (or ``None``)."""
    state = _WORKER_STATE
    # Stamp each graph with the parent's version only while our copy is
    # unmutated.
    stamps = [
        parent if graph.version == base else None
        for graph, base, parent in zip(
            state["graphs"], state["base_versions"], state["parent_versions"]
        )
    ]
    delta = state["session"].cache.export_delta(state["graphs"], state["trees"], stamps)
    faults = state["faults"]
    return faults.tamper_delta(delta) if faults is not None else delta


def _worker_run_cell(
    # Spelled out (not the _Task alias) so RP-PICKLE sees the payload classes.
    task: Tuple[int, int, int, Plan, Optional[Tuple[Mapping, ...]]],
) -> int:
    """Run one cell in a worker and stream its items back over the queue.

    Messages are ``(tag, position, payload, delta)``: ``"chunk"`` with a
    list of items every ``chunk_size`` items (streaming consumers only),
    ``"done"`` with the remaining items and the worker's
    :class:`~repro.evaluation.cache.CacheDelta` on completion,
    ``"deadline"`` when the cell's budget trips, and ``"error"`` on any
    other failure (both with a description).  The queue is bounded, so a
    slow parent backpressures the workers instead of buffering whole cells
    in the pipe.  Every task ends with exactly one terminal message (or a
    dead worker, which the parent detects) — the parent counts terminals,
    so a cell can never go missing silently.
    """
    position, engine_slot, graph_slot, plan, mappings = task
    state = _WORKER_STATE
    queue, chunk_size, faults = state["queue"], state["chunk_size"], state["faults"]
    graph = state["graphs"][graph_slot]
    try:
        if faults is not None:
            faults.fire(position, graph)
        buffer: List[Any] = []
        for item in _cell_items(
            state["engines"][engine_slot], graph, plan, mappings, state["context"]
        ):
            buffer.append(item)
            if chunk_size is not None and len(buffer) >= chunk_size:
                queue.put(("chunk", position, buffer, None))
                buffer = []
        delta = _export_delta()
        if faults is not None and faults.drop_done(position):
            return position  # injected silent loss: swallow the terminal event
        queue.put(("done", position, buffer, delta))
    except DeadlineExceeded as error:
        queue.put(("deadline", position, str(error), None))
    except Exception as error:  # surfaced parent-side as an EvaluationError
        queue.put(("error", position, f"{type(error).__name__}: {error}", None))
    return position


# --- crash detection ----------------------------------------------------------


class _PoolWatch:
    """Observe a pool's worker processes and report deaths.

    ``multiprocessing.Pool`` never surfaces a SIGKILLed worker: the task it
    was running simply never completes.  This watch keeps its own handle on
    every worker ``Process`` the pool spawns (including respawned
    replacements) and reports each nonzero exit exactly once.  It reads the
    pool's private ``_pool`` list behind ``getattr`` guards — if a future
    stdlib drops the attribute, detection degrades to "no crashes observed"
    rather than breaking.
    """

    def __init__(self, pool) -> None:
        self._pool = pool
        self._seen: Dict[int, object] = {}
        self._accounted: Set[int] = set()
        #: Total nonzero worker exits observed so far.
        self.crashes = 0
        self.poll()

    def poll(self) -> int:
        """Newly observed worker deaths since the previous poll."""
        for proc in getattr(self._pool, "_pool", None) or ():
            pid = getattr(proc, "pid", None)
            if pid is not None and pid not in self._seen:
                self._seen[pid] = proc
        fresh = 0
        for pid, proc in self._seen.items():
            if pid in self._accounted:
                continue
            exitcode = getattr(proc, "exitcode", None)
            if exitcode is None:
                continue  # still running
            self._accounted.add(pid)
            if exitcode != 0:  # clean exits (pool shutdown) are not crashes
                fresh += 1
        self.crashes += fresh
        return fresh


# --- worker-mode introspection ------------------------------------------------

_warned_cold_pool = False


def _start_method() -> str:
    """The effective multiprocessing start method (monkeypatchable seam).

    Uses ``allow_none`` so that pure introspection (``worker_mode()``,
    ``repr``) never fixes the default context as a side effect — a later
    ``multiprocessing.set_start_method()`` in application code must still
    work.  While unfixed, the platform default (the first entry of
    ``get_all_start_methods()``) is what a pool would use.
    """
    method = multiprocessing.get_start_method(allow_none=True)
    if method is None:
        method = multiprocessing.get_all_start_methods()[0]
    return method


def _warn_cold_pool(start_method: str) -> None:
    """One-time warning: ``warm_on_fork=True`` cannot engage without fork."""
    global _warned_cold_pool
    if _warned_cold_pool:
        return
    _warned_cold_pool = True
    warnings.warn(
        f"warm_on_fork=True has no effect under the {start_method!r} start "
        "method: worker pools start cold (workers rebuild the µ-independent "
        "state in their initializer; learned state still returns through the "
        "CacheDelta channel).  Check Session.worker_mode() for the effective "
        "mode.",
        RuntimeWarning,
        stacklevel=4,
    )


class Session:
    """Evaluate many patterns against many graphs through one shared cache.

    The service-layer front door: engines are memoized per pattern
    (structurally for :class:`~repro.sparql.algebra.GraphPattern` inputs),
    every ``method=`` resolves through the pattern's cost-based
    :class:`~repro.evaluation.plan.Planner` (:meth:`plan` / :meth:`explain`
    expose the decision per graph), :meth:`check_many` batches membership,
    :meth:`solutions_many` batches enumeration, and :meth:`solutions_iter`
    streams batched enumeration results as cells complete.  Parallel entry
    points warm the µ-independent cache state before forking so workers
    inherit hot indexes, kernels, homomorphism lists and recorded answer
    lists.  Every cache/pool/warm feature is answer-preserving, and every
    pool run recovers from worker crashes (retry once, then serial re-run
    in the parent) without losing or duplicating answers.

    **Thread safety.**  One session may be driven from multiple threads —
    the :class:`~repro.service.QueryService` evaluates requests on a
    thread pool over one shared session.  The engine memo and the
    session-lifetime resilience counters are lock-guarded here, and the
    shared :class:`~repro.evaluation.cache.EvaluationCache` serializes its
    own structural operations (see its module docs).  The contract is
    *safe for concurrent readers of unmutated graphs*: callers that mutate
    a served graph must serialize the mutation against in-flight calls
    themselves (the service does this with its reader/writer gate).

    Parameters
    ----------
    cache:
        The shared :class:`~repro.evaluation.cache.EvaluationCache`; a fresh
        one is created when omitted (bounded by *max_entries_per_graph*).
    processes:
        Default worker-pool size for the batched entry points; ``None`` (or
        1) keeps everything serial.  Per-call ``processes=`` overrides it.
    max_entries_per_graph:
        Budget for the implicitly created cache (ignored when *cache* is
        given); see :class:`~repro.evaluation.cache.EvaluationCache`.
    max_engines:
        Bound on the engine memo; the least recently used engines (and the
        pins on their source patterns) are evicted first.  ``None`` (the
        default) means unbounded — like the cache, prefer a bound for
        long-lived sessions serving a stream of distinct ad-hoc patterns.
    warm_on_fork:
        Whether batched parallel runs warm the µ-independent cache state in
        the parent before forking workers (default ``True``; see
        :meth:`warm`).  On start methods other than ``fork`` warming cannot
        engage — the session then emits a one-time :class:`RuntimeWarning`
        and runs the pool cold (see :meth:`worker_mode`).
    stream_grace_seconds:
        How long a pool run waits on a **silent** result channel before
        acting (default 5.0).  After a worker crash, silence this long
        triggers serial degradation of the unfinished cells (a killed
        worker can poison the shared task queue, wedging the survivors);
        without a crash, it is how long the drain keeps waiting after every
        worker returned before declaring missing terminal events an error.
        Liveness-based: any message or crash observation resets the clock,
        so slow cells are never cut off — only genuinely dead channels.
    faults:
        Test-only :class:`~repro.evaluation.faults.FaultPlan` injecting
        deterministic worker faults into pool runs; ``None`` (always, in
        production) disables injection entirely.

    >>> from repro.sparql import parse_pattern
    >>> from repro.rdf import RDFGraph, Triple
    >>> from repro.sparql.mappings import Mapping
    >>> session = Session()
    >>> g = RDFGraph([Triple.of("a", "knows", "b")])
    >>> p = parse_pattern("((?x knows ?y) OPT (?y email ?e))")
    >>> session.check_many(p, g, [Mapping.of(x="a", y="b")])
    [True]
    """

    def __init__(
        self,
        cache: Optional[EvaluationCache] = None,
        processes: Optional[int] = None,
        max_entries_per_graph: Optional[int] = None,
        max_engines: Optional[int] = None,
        warm_on_fork: bool = True,
        stream_grace_seconds: float = 5.0,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if processes is not None and processes < 1:
            raise EvaluationError("processes must be a positive integer")
        if max_engines is not None and max_engines < 1:
            raise EvaluationError("max_engines must be a positive integer")
        if stream_grace_seconds <= 0:
            raise EvaluationError("stream_grace_seconds must be positive")
        self._cache = (
            cache if cache is not None else EvaluationCache(max_entries_per_graph)
        )
        self._context = EvalContext(cache=self._cache)
        self._processes = processes
        self._warm_on_fork = warm_on_fork
        self._max_engines = max_engines
        self._stream_grace_seconds = float(stream_grace_seconds)
        self._faults = faults
        # Session-lifetime resilience counters; per-call `statistics=`
        # arguments additionally receive the events of their own call.
        self._statistics = EvaluationStatistics()
        # Engine memo: key -> (source object, engine), insertion-ordered by
        # recency (hits re-insert).  The source reference keeps id()-based
        # keys valid while the entry lives; eviction drops both.
        self._engines: Dict[object, Tuple[object, Engine]] = {}
        # Guards the engine memo (the LRU hit pops and re-inserts) and the
        # session-lifetime resilience counters: the query service drives one
        # session from many threads, and the shared EvaluationCache already
        # carries its own lock.  See the class docstring's thread-safety
        # paragraph.
        self._memo_lock = threading.Lock()

    # --- introspection -----------------------------------------------------
    @property
    def cache(self) -> EvaluationCache:
        """The evaluation cache shared by every engine of this session."""
        return self._cache

    @property
    def engine_count(self) -> int:
        """How many engines the session currently memoizes."""
        with self._memo_lock:
            return len(self._engines)

    @property
    def statistics(self) -> EvaluationStatistics:
        """Session-lifetime counters (resilience events accumulate here
        across calls; see
        :meth:`EvaluationStatistics.resilience_summary
        <repro.evaluation.wdeval.EvaluationStatistics.resilience_summary>`)."""
        # Documented live-counter publication: the object reference is fixed
        # for the session's lifetime (only the counters inside mutate, under
        # _memo_lock via _note/_trip), so handing it out unlocked is safe.
        return self._statistics  # repro: ignore[RP-GUARD]

    def __repr__(self) -> str:
        return (
            f"Session(<{self.engine_count} engines, "
            f"processes={self._processes}, "
            f"workers={self.worker_mode()}>)"
        )

    def worker_mode(self, processes: Optional[int] = None) -> str:
        """The effective worker mode of this session's parallel entry points.

        One of ``"serial"`` (no pool would be used), ``"fork-warm"`` (fork
        start method, workers inherit the warmed parent state),
        ``"fork-cold"`` (fork, but ``warm_on_fork=False``), or the start
        method name (``"spawn"`` / ``"forkserver"``) when forking is
        unavailable — in which case ``warm_on_fork=True`` cannot engage and
        pools run cold.  This is what the one-time cold-pool warning points
        at, and what ``batch --stats`` prints.  Once the session has seen
        resilience events (worker crashes, serial degradations, deadline
        trips, lost cells) the mode string carries a bracketed summary.
        """
        processes = processes if processes is not None else self._processes
        if processes is None or processes <= 1:
            mode = "serial"
        else:
            start_method = _start_method()
            if start_method == "fork":
                mode = "fork-warm" if self._warm_on_fork else "fork-cold"
            else:
                mode = start_method
        with self._memo_lock:
            s = self._statistics
            eventful = bool(
                s.worker_crashes
                or s.cells_degraded_serial
                or s.deadline_trips
                or s.cells_lost
            )
            summary = s.resilience_summary() if eventful else ""
        if eventful:
            return f"{mode} [{summary}]"
        return mode

    # --- resilience plumbing ------------------------------------------------
    def _note(
        self,
        attr: str,
        n: int = 1,
        statistics: Optional[EvaluationStatistics] = None,
    ) -> None:
        """Bump a resilience counter on the session (and per-call) stats."""
        with self._memo_lock:
            setattr(self._statistics, attr, getattr(self._statistics, attr) + n)
        if statistics is not None:
            setattr(statistics, attr, getattr(statistics, attr) + n)

    def _trip(
        self, statistics: Optional[EvaluationStatistics], exc: DeadlineExceeded
    ) -> None:
        """Account a deadline trip once, wherever it was first raised."""
        with self._memo_lock:
            self._statistics.deadline_trips += 1
        if statistics is not None and exc.statistics is not statistics:
            # Not yet accounted on this object by a lower layer (Engine
            # attaches the statistics it bumped to the exception).
            statistics.deadline_trips += 1
            if exc.statistics is None:
                exc.statistics = statistics

    @staticmethod
    def _harvest(result) -> None:
        """Surface a failure hidden in one async task result.

        Library exceptions pass through unchanged; transport-layer failures
        (broken pipes, EOF on a dead connection) become
        :class:`WorkerCrashError`; anything else a worker raised becomes
        :class:`EvaluationError` — no raw ``multiprocessing`` exception ever
        escapes a session entry point.
        """
        try:
            result.get()
        except ReproError:
            raise
        except (OSError, EOFError, multiprocessing.ProcessError) as error:
            raise WorkerCrashError(
                f"worker result lost to a transport failure: "
                f"{type(error).__name__}: {error}"
            ) from None
        except Exception as error:
            raise EvaluationError(
                f"evaluation worker failed: {type(error).__name__}: {error}"
            ) from error

    # --- engines -----------------------------------------------------------
    def engine(self, pattern: PatternLike, width_bound: Optional[int] = None) -> Engine:
        """The session engine for *pattern*, created once and memoized.

        Accepts a :class:`~repro.sparql.algebra.GraphPattern` (memoized
        structurally, so equal patterns share one engine), a
        :class:`~repro.patterns.forest.WDPatternForest`, or an existing
        :class:`Engine` (re-wired onto the session cache when necessary).
        """
        if isinstance(pattern, Engine):
            if pattern.cache is self._cache and width_bound is None:
                # Already wired to this session (typically one of our own
                # memoized engines routed back in): use it as-is.  No memo
                # entry — the caller holds the reference, and re-memoizing
                # under a second id-based key would defeat the LRU bound.
                return pattern
            key = ("engine", id(pattern), width_bound)
        elif isinstance(pattern, GraphPattern):
            key = ("pattern", pattern, width_bound)
        elif isinstance(pattern, WDPatternForest):
            key = ("forest", id(pattern), width_bound)
        else:
            raise EvaluationError(
                f"expected an Engine, GraphPattern or WDPatternForest, "
                f"got {type(pattern).__name__}"
            )
        with self._memo_lock:
            hit = self._engines.pop(key, None)
            if hit is not None:
                self._engines[key] = hit  # re-insert at the recent end (LRU)
                return hit[1]
        if isinstance(pattern, Engine):
            engine = Engine(
                pattern.pattern,
                pattern.forest,
                width_bound if width_bound is not None else pattern.width_bound,
                cache=self._cache,
            )
        elif isinstance(pattern, WDPatternForest):
            engine = Engine(forest=pattern, width_bound=width_bound, cache=self._cache)
        else:
            engine = Engine(pattern, width_bound=width_bound, cache=self._cache)
        with self._memo_lock:
            # A concurrent builder may have memoized the same structural key
            # while this engine was constructed; keep the first one so every
            # thread converges on a single shared engine.
            hit = self._engines.pop(key, None)
            if hit is not None:
                self._engines[key] = hit
                return hit[1]
            if self._max_engines is not None:
                while len(self._engines) >= self._max_engines:
                    self._engines.pop(next(iter(self._engines)))
            self._engines[key] = (pattern, engine)
        return engine

    # --- planning ----------------------------------------------------------
    def plan(
        self,
        pattern: PatternLike,
        method: str = "auto",
        width: Optional[int] = None,
        graph: Optional[RDFGraph] = None,
    ) -> Plan:
        """The plan :meth:`check` would execute for this pattern/method.

        With a *graph* the plan is resolved per ``(pattern, graph)`` cell
        through the cost model and carries the
        :class:`~repro.evaluation.plan.CostEstimate` — exactly what
        :meth:`check` / :meth:`check_many` run against that graph.
        """
        return self.engine(pattern).plan(method, width, graph=graph)

    def explain(
        self,
        pattern: PatternLike,
        method: str = "auto",
        width: Optional[int] = None,
        graph: Optional[RDFGraph] = None,
    ) -> str:
        """Human-readable account of the strategy choice (see :meth:`plan`)."""
        return self.plan(pattern, method, width, graph=graph).explain()

    # --- membership --------------------------------------------------------
    def check(
        self,
        pattern: PatternLike,
        graph: RDFGraph,
        mu: Mapping,
        method: str = "auto",
        width: Optional[int] = None,
        statistics: Optional[EvaluationStatistics] = None,
        deadline: Optional[float] = None,
        budget: Optional[Budget] = None,
    ) -> bool:
        """Decide ``µ ∈ ⟦P⟧G`` through the session cache.

        ``deadline`` (seconds) or an explicit ``budget`` bounds the check;
        a violation raises :class:`~repro.exceptions.DeadlineExceeded`.
        """
        try:
            return self.engine(pattern).contains(
                graph,
                mu,
                method=method,
                width=width,
                statistics=statistics,
                deadline=deadline,
                budget=budget,
            )
        except DeadlineExceeded as exc:
            self._trip(statistics, exc)
            raise

    def check_many(
        self,
        pattern: PatternLike,
        graph: RDFGraph,
        mappings: Iterable[Mapping],
        method: str = "auto",
        width: Optional[int] = None,
        statistics: Optional[EvaluationStatistics] = None,
        processes: Optional[int] = None,
        deadline: Optional[float] = None,
        budget: Optional[Budget] = None,
    ) -> List[bool]:
        """Decide ``µ ∈ ⟦P⟧G`` for every mapping, in input order.

        Guaranteed to return exactly the booleans a loop of
        :meth:`Engine.contains` calls would, but sharing the cache across
        instances, deduplicating repeated mappings, resolving the method
        once per batch, and — when *processes* (or the session default) asks
        for it — fanning the instances out over a worker pool.  The pool is
        crash-tolerant: cells of a killed worker are retried once and then
        re-run serially in the parent (events are counted on *statistics*
        and on :attr:`statistics`).  ``deadline``/``budget`` bound the whole
        batch, parent and workers alike; a violation raises
        :class:`~repro.exceptions.DeadlineExceeded`.

        The algorithmic counters of *statistics* (trees visited, child
        checks, ...) are only accumulated on the serial path; worker-side
        counters are not collected.
        """
        engine = self.engine(pattern)
        mappings = list(mappings)
        if not mappings:
            return []
        cells, processes = self._membership_cells(engine, graph, mappings, method, width, processes)
        answers: Dict[Mapping, bool] = {}
        for _tag, position, items in self._drain(
            cells, processes, None, budget_from(deadline, budget), statistics
        ):
            chunk = cells[position].mappings or ()
            for offset, verdict in items:
                answers[chunk[offset]] = verdict
        return [answers[mu] for mu in mappings]

    def check_iter(
        self,
        pattern: PatternLike,
        graph: RDFGraph,
        mappings: Iterable[Mapping],
        method: str = "auto",
        width: Optional[int] = None,
        statistics: Optional[EvaluationStatistics] = None,
        processes: Optional[int] = None,
        deadline: Optional[float] = None,
        budget: Optional[Budget] = None,
    ) -> Iterator[bool]:
        """Stream the verdicts of :meth:`check_many`, in input order.

        Yields exactly the booleans :meth:`check_many` would return over the
        same arguments, but incrementally — each verdict as soon as it is
        decided, instead of blocking until the whole batch is done (what
        ``batch --stream`` prints).  Repeated mappings replay their first
        verdict.  With *processes* (or the session default) the distinct
        mappings fan out over the same crash-tolerant worker pool as
        :meth:`check_many` and the workers' learned state is absorbed back
        into the session cache; the algorithmic *statistics* counters are
        only accumulated on the serial path.  ``deadline``/``budget`` bound
        the whole stream and raise
        :class:`~repro.exceptions.DeadlineExceeded` mid-iteration.
        """
        engine = self.engine(pattern)
        mappings = list(mappings)
        if not mappings:
            return
        cells, processes = self._membership_cells(engine, graph, mappings, method, width, processes)
        events = self._drain(cells, processes, 1, budget_from(deadline, budget), statistics)
        known: Dict[Mapping, bool] = {}
        for mu in mappings:
            while mu not in known:
                _tag, position, items = next(events)
                chunk = cells[position].mappings or ()
                for offset, verdict in items:
                    known[chunk[offset]] = verdict
            yield known[mu]
        for _event in events:
            pass  # close the remaining cells so their deltas are absorbed

    def _membership_cells(
        self,
        engine: Engine,
        graph: RDFGraph,
        mappings: Sequence[Mapping],
        method: str,
        width: Optional[int],
        processes: Optional[int],
    ) -> Tuple[List[_Cell], Optional[int]]:
        """Cut a membership batch into cells; returns ``(cells, pool size)``.

        The plan is resolved once per batch.  A serial batch is one cell —
        one ``contains_many`` pass over the deduplicated mappings; a pooled
        one is cut into about four chunks per worker.
        """
        plan = engine.plan(method, width, graph=graph)
        unique = tuple(dict.fromkeys(mappings))
        parallel_safe = plan.strategy_obj.parallel_safe
        processes = self._pool_size(processes, len(unique)) if parallel_safe else None
        if processes is None:
            return [_Cell(engine, graph, plan, unique)], None
        size = max(1, len(unique) // (processes * 4))
        cells = [
            _Cell(engine, graph, plan, unique[start : start + size])
            for start in range(0, len(unique), size)
        ]
        return cells, processes

    def warm(
        self,
        pattern: PatternLike,
        graph: RDFGraph,
        mappings: Optional[Iterable[Mapping]] = None,
        method: str = "auto",
        width: Optional[int] = None,
    ) -> int:
        """Precompute the µ-independent evaluation state for *graph*.

        For the pebble strategy this builds the shared target index, the
        graph domain, and the consistency kernels of every ``(witness
        subtree, child)`` instance the given *mappings* reach (the
        root-subtree instances when no mappings are given); for the natural
        strategy it builds the target index.  Returns the number of kernels
        ensured.  Warming is a pure performance feature — answers are
        identical with and without it — and is what :meth:`check_many` does
        before forking a worker pool.
        """
        engine = self.engine(pattern)
        plan = engine.plan(method, width, graph=graph)
        return plan.strategy_obj.warm(engine.forest, graph, plan, self._cache, mappings)

    # --- enumeration -------------------------------------------------------
    def solutions_stream(
        self,
        pattern: PatternLike,
        graph: RDFGraph,
        method: str = "auto",
        deadline: Optional[float] = None,
        budget: Optional[Budget] = None,
    ) -> Iterator[Mapping]:
        """Stream ``⟦P⟧G`` lazily as a deduplicated generator.

        ``method="auto"`` resolves to the natural strategy (the planner
        rejects the pebble strategy, which decides membership only).  A
        violated ``deadline``/``budget`` raises
        :class:`~repro.exceptions.DeadlineExceeded` mid-stream.
        """
        return self.engine(pattern).solutions_stream(graph, method, deadline, budget)

    def solutions(
        self,
        pattern: PatternLike,
        graph: RDFGraph,
        method: str = "auto",
        deadline: Optional[float] = None,
        budget: Optional[Budget] = None,
    ) -> Set[Mapping]:
        """Enumerate the full answer set ``⟦P⟧G`` through the session cache.

        A violated ``deadline``/``budget`` raises
        :class:`~repro.exceptions.DeadlineExceeded` whose ``partial``
        attribute carries the solutions found before the trip.
        """
        try:
            return self.engine(pattern).solutions(graph, method, deadline, budget)
        except DeadlineExceeded as exc:
            self._trip(None, exc)
            raise

    def _enumeration_cells(
        self,
        patterns: Sequence[PatternLike],
        graphs: Union[RDFGraph, Sequence[RDFGraph]],
        method: str,
    ) -> Tuple[List[_Cell], List[List[int]]]:
        """The distinct ``(engine, graph)`` cells in first-occurrence order,
        with one planned enumeration each, and the grid of cell positions
        (one row per pattern, one column per graph)."""
        graph_list = [graphs] if isinstance(graphs, RDFGraph) else list(graphs)
        engines = [self.engine(pattern) for pattern in patterns]
        cells: List[_Cell] = []
        index: Dict[Tuple[int, int], int] = {}
        grid: List[List[int]] = []
        for engine in engines:
            row: List[int] = []
            for graph in graph_list:
                key = (id(engine), id(graph))
                if key not in index:
                    index[key] = len(cells)
                    plan = engine.planner.plan_enumeration(method, graph=graph)
                    cells.append(_Cell(engine, graph, plan, None))
                row.append(index[key])
            grid.append(row)
        return cells, grid

    def solutions_many(
        self,
        patterns: Sequence[PatternLike],
        graphs: Union[RDFGraph, Sequence[RDFGraph]],
        method: str = "auto",
        processes: Optional[int] = None,
        deadline: Optional[float] = None,
        budget: Optional[Budget] = None,
        statistics: Optional[EvaluationStatistics] = None,
    ) -> Union[List[Set[Mapping]], List[List[Set[Mapping]]]]:
        """Batched enumeration over many patterns × many graphs.

        Returns one answer set per ``(pattern, graph)`` cell: a flat list
        (one set per pattern) when *graphs* is a single graph, else a matrix
        with one row per pattern and one column per graph.  Duplicate cells
        — repeated patterns (structurally, for
        :class:`~repro.sparql.algebra.GraphPattern` inputs) or repeated
        graphs — are enumerated **once** and fanned back out, all cells
        share the session cache, and *processes* (or the session default)
        enumerates distinct cells in parallel (with warm worker forks and
        the crash-recovery ladder of the cell runner).  Answer sets are
        guaranteed identical to per-pattern :meth:`Engine.solutions
        <repro.evaluation.engine.Engine.solutions>` calls — including
        across worker crashes, which cost a retry or a serial re-run, never
        an answer.  ``deadline``/``budget`` bound the whole batch and raise
        :class:`~repro.exceptions.DeadlineExceeded`; resilience events are
        counted on *statistics* and on :attr:`statistics`.  For results as
        they complete, use :meth:`solutions_iter`.
        """
        cells, grid = self._enumeration_cells(patterns, graphs, method)
        answers: List[Set[Mapping]] = [set() for _ in cells]
        for _tag, position, items in self._drain(
            cells,
            self._pool_size(processes, len(cells)),
            None,
            budget_from(deadline, budget),
            statistics,
        ):
            answers[position].update(items)

        # Duplicate cells fan out as *independent copies*, exactly like the
        # equivalent loop of per-pattern Engine.solutions calls; a cell used
        # once hands out the computed set itself (no copy).
        uses = [0] * len(cells)
        for row in grid:
            for position in row:
                uses[position] += 1

        def hand_out(position: int) -> Set[Mapping]:
            uses[position] -= 1
            return set(answers[position]) if uses[position] else answers[position]

        matrix = [[hand_out(position) for position in row] for row in grid]
        if isinstance(graphs, RDFGraph):
            return [row[0] for row in matrix]
        return matrix

    def solutions_iter(
        self,
        patterns: Sequence[PatternLike],
        graphs: Union[RDFGraph, Sequence[RDFGraph]],
        method: str = "auto",
        order: str = "submitted",
        processes: Optional[int] = None,
        chunk_size: Optional[int] = None,
        deadline: Optional[float] = None,
        budget: Optional[Budget] = None,
        statistics: Optional[EvaluationStatistics] = None,
    ) -> Iterator[Union[Tuple[Tuple[int, int], Mapping], TimeoutReport]]:
        """Stream batched enumeration results as they are discovered.

        Yields ``((pattern_index, graph_index), mapping)`` pairs covering
        exactly the same answer sets as :meth:`solutions_many` over the same
        inputs, but incrementally — consumers see the first solutions while
        later cells are still being evaluated, instead of waiting for the
        whole batch.  *graphs* may be a single graph (all cells then have
        ``graph_index == 0``) or a sequence.

        ``order="submitted"`` (the default) yields cells in input order —
        row by row, every solution of a cell before the next cell.  The
        cell at the front streams truly incrementally: serially its
        solutions are consumed lazily from the cell's enumeration; with a
        pool they arrive in fixed-size chunks (*chunk_size* solutions per
        message, 16 by default) over a bounded IPC queue **while the worker
        is still enumerating the cell**.  Repeated cells replay the
        solutions of their first occurrence.  ``order="completed"`` relaxes
        cell ordering entirely: chunks are yielded in arrival order,
        interleaving cells, which keeps the consumer busy while slow cells
        are still running (duplicate positions of a cell are emitted
        together per chunk, in submission order).  Parallel runs use the
        same warm-fork worker path and
        :class:`~repro.evaluation.cache.CacheDelta` return channel as
        :meth:`solutions_many`, so repeated batches replay from the parent
        cache — and the same crash-recovery ladder, so a killed worker
        costs a retry or a serial re-run, never a hung consumer or a
        missing solution.

        With a ``deadline``/``budget``, the stream yields whatever it
        discovered in time and then **exactly one terminal**
        :class:`~repro.evaluation.budget.TimeoutReport` (instead of raising
        mid-iteration), then stops; check ``isinstance(item,
        TimeoutReport)`` when consuming bounded streams.
        """
        if order not in ("submitted", "completed"):
            raise EvaluationError(
                f"order must be 'submitted' or 'completed', got {order!r}"
            )
        if chunk_size is not None and chunk_size < 1:
            raise EvaluationError("chunk_size must be a positive integer")
        cells, grid = self._enumeration_cells(patterns, graphs, method)
        order_of = [
            ((i, j), position) for i, row in enumerate(grid) for j, position in enumerate(row)
        ]
        events = self._drain(
            cells,
            self._pool_size(processes, len(cells)),
            chunk_size if chunk_size is not None else _STREAM_CHUNK_SIZE,
            budget_from(deadline, budget),
            statistics,
            report_timeouts=True,
        )

        if order == "completed":
            positions: Dict[int, List[Tuple[int, int]]] = {}
            for cell, position in order_of:
                positions.setdefault(position, []).append(cell)
            for tag, position, items in events:
                if tag == "timeout":
                    yield items[0]  # the terminal TimeoutReport
                    return
                for cell in positions[position]:
                    for mu in items:
                        yield cell, mu
            return

        # order == "submitted": stream the front cell's items as they
        # arrive; keep items of later cells until their turn, and a cell's
        # items while a later position still repeats it.
        received: Dict[int, List[Mapping]] = {}
        finished: Set[int] = set()
        uses: Dict[int, int] = {}
        for _cell, position in order_of:
            uses[position] = uses.get(position, 0) + 1
        for cell, position in order_of:
            uses[position] -= 1
            keep = uses[position] > 0
            backlog = received.get(position, []) if keep else received.pop(position, [])
            for mu in backlog:
                yield cell, mu
            while position not in finished:
                tag, event_position, items = next(events)
                if tag == "timeout":
                    yield items[0]  # the terminal TimeoutReport
                    return
                if tag == "done":
                    finished.add(event_position)
                if event_position != position or keep:
                    received.setdefault(event_position, []).extend(items)
                if event_position == position:
                    for mu in items:
                        yield cell, mu
        # Drain cells that finished after the last position needing them so
        # their workers' deltas are still absorbed into the session cache.
        for _event in events:
            pass

    # --- the cell runner ----------------------------------------------------
    def _pool_size(self, processes: Optional[int], cells: int) -> Optional[int]:
        """The pool size for *cells* cells, or ``None`` to run serially."""
        processes = processes if processes is not None else self._processes
        if processes is None or processes <= 1 or cells <= 1:
            return None
        return processes

    def _cached_cell_answers(
        self, engine: Engine, graph: RDFGraph
    ) -> Optional[Set[Mapping]]:
        """The cell's full answer set if the parent cache can replay it.

        A cell replays when every tree of the forest has a recorded complete
        answer list (``⟦T⟧G``) for the current graph version — recorded by an
        earlier serial run or absorbed from a worker's
        :class:`~repro.evaluation.cache.CacheDelta`.  Returns ``None`` when
        any tree is missing; the recorded lists are answer-identical to a
        fresh enumeration by construction, so replaying is method-independent.
        """
        answers: Set[Mapping] = set()
        for tree in engine.forest:
            replay = self._cache.tree_solution_list(tree, graph)
            if replay is None:
                return None
            answers.update(replay)
        return answers

    def _warm_or_warn(self, cells: Sequence[_Cell], pending: Sequence[int]) -> Optional["Session"]:
        """Warm the parent before forking a pool; returns the session the
        workers inherit by address (``None``: they start cold)."""
        if not self._warm_on_fork:
            return None
        start_method = _start_method()
        if start_method != "fork":
            _warn_cold_pool(start_method)
            return None
        # Build the µ-independent state (target indexes, kernels) once in the
        # parent so the workers fork with it — and with everything this
        # session already memoized — in copy-on-write memory.  No mappings
        # on purpose: per-mapping witness-subtree lookups would serialise in
        # the parent (Amdahl); workers do those in parallel against the
        # shared kernels.
        distinct = {(id(cells[p].engine), id(cells[p].graph)): cells[p] for p in pending}
        for cell in distinct.values():
            cell.plan.strategy_obj.warm(cell.engine.forest, cell.graph, cell.plan, self._cache)
        return self

    @staticmethod
    def _ship(
        cells: Sequence[_Cell], pending: Sequence[int]
    ) -> Tuple[List[WDPatternForest], List[RDFGraph], Dict[int, _Task]]:
        """The forests and graphs a pool needs (each once) and one task per
        pending cell, indexing into them."""
        forests: List[WDPatternForest] = []
        graphs: List[RDFGraph] = []
        engine_slots: Dict[int, int] = {}
        graph_slots: Dict[int, int] = {}
        tasks: Dict[int, _Task] = {}
        for position in pending:
            cell = cells[position]
            if id(cell.engine) not in engine_slots:
                engine_slots[id(cell.engine)] = len(forests)
                forests.append(cell.engine.forest)
            if id(cell.graph) not in graph_slots:
                graph_slots[id(cell.graph)] = len(graphs)
                graphs.append(cell.graph)
            tasks[position] = (
                position,
                engine_slots[id(cell.engine)],
                graph_slots[id(cell.graph)],
                cell.plan,
                cell.mappings,
            )
        return forests, graphs, tasks

    def _drain(
        self,
        cells: Sequence[_Cell],
        processes: Optional[int],
        chunk_size: Optional[int],
        budget: Optional[Budget],
        statistics: Optional[EvaluationStatistics],
        report_timeouts: bool = False,
    ) -> Iterator[_Event]:
        """Run every cell and yield its items as :data:`_Event` triples.

        With *chunk_size* ``None`` (blocking consumers) each cell's items
        arrive in its one ``done`` event; otherwise items stream as
        ``chunk`` events (one per item in-process, *chunk_size* per message
        from a worker) and ``done`` closes the cell.  Serial runs
        (*processes* ``None``) run the cell function in-process, cell by
        cell.  A pool run first replays every enumeration cell the parent
        cache can answer completely, then fans the rest out to workers.
        **Every cell produces exactly one** ``done`` **event.**  The drain
        is liveness-based (any message or crash observation resets a
        ``stream_grace_seconds`` clock; there is no fixed overall grace):

        1. healthy pool — messages are absorbed as they arrive (worker
           deltas merge into the session cache before the cell closes);
        2. after a crash, every unfinished cell is resubmitted once on the
           surviving/respawned workers (the first ``done`` wins);
        3. a cell whose retry is also lost — or every unfinished cell once
           post-crash silence outlasts the grace (a killed worker can die
           holding the shared task-queue lock and wedge the survivors) —
           is re-run serially in the parent.

        The emitted-item ledger filters what a retried or degraded cell
        re-produces, so each item is delivered exactly once.  Workers that
        all returned while cells still lack their terminal event — the
        silent-loss case — raise an :class:`EvaluationError` with the
        shortfall counted in ``cells_lost``, never swallowed.  A tripped
        *budget* is accounted once and re-raised as
        :class:`DeadlineExceeded`, or, with *report_timeouts*, ends the
        stream with one ``("timeout", -1, [TimeoutReport])`` event.
        """
        outstanding = set(range(len(cells)))
        #: Items of a cell already handed out from its pool chunks — the
        #: ledger that makes retries and degradation emit each item once.
        emitted: Dict[int, Set[Any]] = {}
        yielded = 0

        def event(tag: str, position: int, items: List[Any]) -> _Event:
            nonlocal yielded
            seen = emitted.get(position)
            if seen:
                items = [item for item in items if item not in seen]
            if tag == "done":
                outstanding.discard(position)
            yielded += len(items)
            return tag, position, items

        context = self._context.with_statistics(statistics).with_budget(budget)

        def in_process(position: int) -> Iterator[_Event]:
            cell = cells[position]
            items = _cell_items(cell.engine, cell.graph, cell.plan, cell.mappings, context)
            if chunk_size is None:
                yield event("done", position, list(items))
                return
            for item in items:
                yield event("chunk", position, [item])
            yield event("done", position, [])

        try:
            if budget is not None:
                budget.check()  # pre-expired budgets trip up front
            if processes is None:
                for position in range(len(cells)):
                    yield from in_process(position)
                return
            for position, cell in enumerate(cells):
                if cell.mappings is None:
                    cached = self._cached_cell_answers(cell.engine, cell.graph)
                    if cached is not None:
                        yield event("done", position, list(cached))
            pending = sorted(outstanding)
            if not pending:
                return
            ctx = multiprocessing.get_context()
            warm_session = self._warm_or_warn(cells, pending)
            forests, graphs, tasks = self._ship(cells, pending)
            trees = [tree for forest in forests for tree in forest]
            workers = min(processes, len(pending))
            faults = self._faults.arm(ctx) if self._faults is not None else None
            # Bounded: workers block once the parent falls this many messages
            # behind, instead of buffering whole cells in the pipe.
            queue = ctx.Queue(maxsize=max(4, 2 * workers))
            grace = self._stream_grace_seconds
            initargs = (
                warm_session,
                forests,
                graphs,
                [graph.version for graph in graphs],
                queue,
                chunk_size,
                budget,
                faults,
            )
            with ctx.Pool(workers, initializer=_init_worker, initargs=initargs) as pool:
                watch = _PoolWatch(pool)
                results: List[Any] = []
                attempts = dict.fromkeys(pending, 0)

                def submit(position: int) -> bool:
                    attempts[position] += 1
                    if attempts[position] > _MAX_TASK_ATTEMPTS:
                        return False
                    try:
                        results.append(pool.apply_async(_worker_run_cell, (tasks[position],)))
                        return True
                    except Exception:  # pool already broken/closed: degrade
                        return False

                def degrade(position: int) -> Iterator[_Event]:
                    self._note("cells_degraded_serial", statistics=statistics)
                    yield from in_process(position)

                for position in pending:
                    if not submit(position):
                        yield from degrade(position)
                last_event = monotonic()
                while outstanding:
                    if budget is not None:
                        budget.check()  # raises DeadlineExceeded; the pool exits with us
                    crashed = watch.poll()
                    if crashed:
                        self._note("worker_crashes", crashed, statistics)
                        sleep(_CRASH_BACKOFF_SECONDS)
                        last_event = monotonic()  # grace counts from the crash
                        # The dying worker's cell is unknowable from the
                        # outside, so every unfinished cell is resubmitted;
                        # duplicates are harmless (the ledger drops repeated
                        # items and the first done wins).
                        for position in sorted(outstanding):
                            if not submit(position):
                                yield from degrade(position)
                        continue
                    try:
                        message = queue.get(timeout=_POLL_SECONDS)
                    except Empty:
                        if monotonic() - last_event < grace:
                            continue
                        if watch.crashes:
                            # A worker died and the queue has gone silent: the
                            # missing terminal events will never arrive (a
                            # killed worker can even poison the shared task
                            # queue and wedge the survivors).  Degrade.
                            for position in sorted(outstanding):
                                yield from degrade(position)
                        elif all(result.ready() for result in results):
                            # Every worker returned cleanly, nothing in
                            # flight, yet cells lack their terminal event.
                            for result in results:
                                self._harvest(result)  # surface hidden failures
                            self._note("cells_lost", len(outstanding), statistics)
                            raise EvaluationError(
                                f"pooled evaluation lost {len(outstanding)} cell(s): "
                                f"all workers exited but no terminal event arrived "
                                f"for position(s) {sorted(outstanding)} within "
                                f"{grace:.1f}s of queue silence"
                            )
                        continue
                    except (OSError, ValueError, EOFError) as error:
                        raise WorkerCrashError(
                            f"result queue failed mid-batch: {type(error).__name__}: {error}"
                        ) from None
                    last_event = monotonic()
                    tag, position, payload, delta = message
                    if tag == "deadline":
                        raise DeadlineExceeded(payload, budget=budget)
                    if tag == "error":
                        raise EvaluationError(f"evaluation worker failed: {payload}")
                    if position not in outstanding:
                        continue  # a late duplicate of a closed cell
                    if delta is not None:
                        self._cache.absorb(delta, graphs, trees)
                    if tag == "chunk":
                        chunk = event("chunk", position, payload)
                        emitted.setdefault(position, set()).update(chunk[2])
                        yield chunk
                    else:
                        yield event("done", position, payload)
        except DeadlineExceeded as exc:
            self._trip(statistics, exc)
            if not report_timeouts:
                raise
            elapsed, allowance = 0.0, None
            if budget is not None:
                elapsed = budget.elapsed()
                if budget.expires_at is not None:
                    allowance = budget.expires_at - budget.started_at
            report = TimeoutReport(
                elapsed=elapsed,
                deadline=allowance,
                cells_done=len(cells) - len(outstanding),
                cells_pending=len(outstanding),
                solutions_yielded=yielded,
                statistics=statistics,
                pending=tuple(f"cell #{position}" for position in sorted(outstanding)),
            )
            yield "timeout", -1, [report]

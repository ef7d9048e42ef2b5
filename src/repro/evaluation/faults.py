"""Deterministic fault injection for the evaluation worker pool.

A :class:`FaultPlan` describes, by **task position**, real faults to inject
into a parallel evaluation: SIGKILL the worker that picks up a given task,
stall the result queue, raise inside a strategy hook, ship a stale or
corrupted :class:`~repro.evaluation.cache.CacheDelta`, mutate the worker's
graph copy mid-run, or swallow a cell's terminal event.
The faults are *real* — an injected kill is ``os.kill(os.getpid(),
SIGKILL)`` inside the worker, a stall is a real ``time.sleep`` holding the
bounded IPC queue open — so the recovery paths in
:mod:`~repro.evaluation.session` are exercised exactly as a production
crash would exercise them, not through mocks.

A plan is installed through the test-only ``Session(faults=...)`` hook and
travels to the workers inside the pool initializer arguments.  Positions
make plans deterministic: task ``position`` is the index of the cell (a
chunk of mappings, or one pattern × graph enumeration), fixed by the
caller's input order.

Once-guards (``kill_once=True`` et al.) are shared
:class:`multiprocessing.Value` flags **armed in the parent before the pool
is created**, so "kill the first worker that picks up cell 2, let the
retry succeed" is expressible — and with ``kill_once=False`` every retry
dies too, which is how the serial-degradation ladder is tested.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Optional

from .cache import CacheDelta
from ..exceptions import EvaluationError

__all__ = ["FaultPlan", "FaultInjected"]


class FaultInjected(EvaluationError):
    """The exception a ``raise_at`` fault plan raises inside a worker."""


class _OnceGuard:
    """A fire-at-most-once latch, optionally shared across processes.

    Before :meth:`arm` it is process-local (serial paths, direct tests);
    after arming with a multiprocessing context it is a shared ``Value``
    that forked/spawned workers inherit through the pool initargs, so the
    *first* worker reaching the fault point fires and every later one —
    including the retry of the killed task — passes through.
    """

    def __init__(self, enabled: bool) -> None:
        self._enabled = enabled
        self._local_fired = False
        self._shared = None

    def arm(self, ctx) -> None:
        if self._enabled and self._shared is None:
            self._shared = ctx.Value("i", 0)

    def take(self) -> bool:
        """True exactly once when enabled; always True when disabled."""
        if not self._enabled:
            return True
        if self._shared is not None:
            with self._shared.get_lock():
                if self._shared.value:
                    return False
                self._shared.value = 1
                return True
        if self._local_fired:
            return False
        self._local_fired = True
        return True

    def __getstate__(self):
        return {"enabled": self._enabled, "fired": self._local_fired, "shared": self._shared}

    def __setstate__(self, state) -> None:
        self._enabled = state["enabled"]
        self._local_fired = state["fired"]
        self._shared = state["shared"]


class FaultPlan:
    """A deterministic, picklable schedule of injected faults.

    Parameters
    ----------
    kill_at:
        SIGKILL the worker the moment it picks up the task at this
        position.  With ``kill_once=True`` (default) only the first pickup
        dies — the retried task succeeds on a fresh worker; with ``False``
        every retry dies too, forcing the serial-degradation path.
    stall_at / stall_seconds:
        The worker picking up this task sleeps *stall_seconds* before
        evaluating — a real result-queue stall (``stall_once`` bounds it
        to the first pickup).
    raise_at:
        The worker picking up this task raises :class:`FaultInjected`
        (inside the strategy hook, after any kill/stall checks).
    stale_delta:
        Every exported :class:`~repro.evaluation.cache.CacheDelta` has its
        version stamps perturbed, so the parent's
        :meth:`~repro.evaluation.cache.EvaluationCache.absorb` must drop
        every entry as stale.
    corrupt_delta:
        Every exported delta gets structurally mangled entries (unknown
        kinds, wrong shapes); ``absorb`` must skip them without raising.
    mutate_graph_at:
        The worker picking up this task mutates its graph copy (an add
        immediately undone by a discard — answers unchanged, but the
        version counter moves), so the export path must withhold the
        version stamp and the parent must drop the delta.
    drop_done_at:
        A worker runs this cell normally but swallows its terminal
        ``done`` event — the silent-loss case the drain's terminal-event
        accounting must catch.
    """

    def __init__(
        self,
        kill_at: Optional[int] = None,
        kill_once: bool = True,
        stall_at: Optional[int] = None,
        stall_seconds: float = 1.0,
        stall_once: bool = True,
        raise_at: Optional[int] = None,
        stale_delta: bool = False,
        corrupt_delta: bool = False,
        mutate_graph_at: Optional[int] = None,
        drop_done_at: Optional[int] = None,
    ) -> None:
        self.kill_at = kill_at
        self.stall_at = stall_at
        self.stall_seconds = stall_seconds
        self.raise_at = raise_at
        self.stale_delta = stale_delta
        self.corrupt_delta = corrupt_delta
        self.mutate_graph_at = mutate_graph_at
        self.drop_done_at = drop_done_at
        self._kill_guard = _OnceGuard(kill_once)
        self._stall_guard = _OnceGuard(stall_once)
        self._mutate_guard = _OnceGuard(True)
        self._drop_guard = _OnceGuard(True)

    # --- parent side -------------------------------------------------------
    def arm(self, ctx) -> "FaultPlan":
        """Create the cross-process once-guards (call before pool creation).

        Idempotent; *ctx* is the multiprocessing context the pool will use.
        The shared flags ride to the workers inside the plan itself (pool
        initargs), so fork and spawn start methods both see them.
        """
        self._kill_guard.arm(ctx)
        self._stall_guard.arm(ctx)
        self._mutate_guard.arm(ctx)
        self._drop_guard.arm(ctx)
        return self

    # --- worker side -------------------------------------------------------
    def fire(self, position: int, graph=None) -> None:
        """Trigger whatever faults this plan schedules at *position*.

        Called by the worker task functions the moment they pick up a task.
        Ordering: stall, then graph mutation, then raise, then kill — so a
        plan can combine a stall with a later kill at another position.
        """
        if self.stall_at is not None and position == self.stall_at:
            if self._stall_guard.take():
                time.sleep(self.stall_seconds)
        if self.mutate_graph_at is not None and position == self.mutate_graph_at:
            if graph is not None and self._mutate_guard.take():
                self._mutate(graph)
        if self.raise_at is not None and position == self.raise_at:
            raise FaultInjected(f"injected worker fault at position {position}")
        if self.kill_at is not None and position == self.kill_at:
            if self._kill_guard.take():
                os.kill(os.getpid(), signal.SIGKILL)

    def __getstate__(self) -> dict:
        # Crosses the pool boundary in the initializer arguments: plain
        # attributes plus the once-guards, which carry their own hooks.
        return dict(self.__dict__)

    @staticmethod
    def _mutate(graph) -> None:
        """Bump the graph's version without changing its triples."""
        from ..rdf.triples import Triple

        probe = Triple.of(
            "urn:repro:fault-probe", "urn:repro:fault-probe", "urn:repro:fault-probe"
        )
        present = probe in graph
        if present:  # pragma: no cover - probe IRI never occurs in real data
            graph.discard(probe)
            graph.add(probe)
        else:
            graph.add(probe)
            graph.discard(probe)

    def drop_done(self, position: int) -> bool:
        """Whether the worker should swallow this cell's ``done``."""
        return (
            self.drop_done_at is not None
            and position == self.drop_done_at
            and self._drop_guard.take()
        )

    def tamper_delta(self, delta: Optional[CacheDelta]) -> Optional[CacheDelta]:
        """Apply the delta corruptions this plan schedules (export path)."""
        if delta is None:
            return None
        if self.stale_delta:
            delta = CacheDelta(
                versions={
                    slot: (None if version is None else version + 1)
                    for slot, version in delta.versions.items()
                },
                entries=delta.entries,
            )
        if self.corrupt_delta:
            mangled = []
            for index, entry in enumerate(delta.entries):
                if index % 2 == 0:
                    mangled.append((entry[0], "no-such-kind", entry[2], entry[3], entry[4]))
                else:
                    mangled.append(("garbage",))  # wrong arity and slot type
            delta = CacheDelta(versions=delta.versions, entries=mangled)
        return delta

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = []
        for name in (
            "kill_at",
            "stall_at",
            "raise_at",
            "mutate_graph_at",
            "drop_done_at",
        ):
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}={value}")
        for name in ("stale_delta", "corrupt_delta"):
            if getattr(self, name):
                parts.append(name)
        return f"FaultPlan({', '.join(parts)})"

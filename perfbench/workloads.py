"""The four workloads: set-up, timed loop, answer checks and metrics.

Each runner returns an :class:`Outcome`.  With ``trace=False`` it measures
the end-to-end metrics with no instrumentation installed anywhere.  With
``trace=True`` it first runs an untraced phase, then the same work traced
(:func:`perfbench.spans.instrument`), and reports the per-layer metrics of
:mod:`perfbench.layers`; the ratio of the two phases is ``trace.overhead``.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.evaluation.session import Session
from repro.evaluation.wdeval import EvaluationStatistics
from repro.exceptions import ReproError
from repro.rdf.io import save_graph
from repro.service import ServiceClient
from repro.service.protocol import mapping_to_wire

from perfbench import inputs as data
from perfbench import layers
from perfbench.server import peak_rss_kb
from perfbench.spans import Recorder, instrument, load, totals_between

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space inside the checkout (graph files, span dumps).
OUT = ROOT / ".perfbench"
#: Server set-ups of a serve-* run; ``setup_s`` is their median.
SERVE_SETUPS = 3
#: Completed requests per piece of a serve-* run whose rate is one sample
#: of the median: about four periods of the schedule, so four full scans.
RATE_CHUNK = 280


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0  # wrong answers, errors and refusals
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def _median_rate(work: List[float], seconds: List[float]) -> float:
    """The median over pieces of a run of their work per second.

    A median, unlike total work over total time, is not moved by a few
    seconds in which another tenant of the machine took the CPU.
    """
    return statistics.median(done / spent for done, spent in zip(work, seconds))


def _timed(function: Callable[[], object]) -> Tuple[float, object]:
    began = perf_counter()
    result = function()
    return perf_counter() - began, result


# --- serve-read / serve-write ------------------------------------------------
class ServerProcess:
    """A ``perfbench.server`` child; always stopped and waited for."""

    def __init__(self, graph_path: Path, trace_out: Optional[Path] = None) -> None:
        command = [sys.executable, "-m", "perfbench.server", "--graph", str(graph_path)]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
        self._process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        line = self._process.stdout.readline()
        if not line:
            self.kill()
            raise RuntimeError("the benchmark server exited before listening")
        self.port = json.loads(line)["port"]

    def stop(self) -> dict:
        """Close the server's stdin, wait for it, return its exit report."""
        out, _ = self._process.communicate(timeout=60)  # closes stdin first
        if self._process.returncode != 0:
            raise RuntimeError(f"benchmark server exited with {self._process.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        if self._process.poll() is None:
            self._process.kill()
        self._process.wait(timeout=30)

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.kill()


@dataclass
class Sample:
    op: str
    latency: float  # seconds, at the client
    server_ms: float  # the server's elapsed_ms (admission to completion)
    results: int  # verdicts or answers delivered
    end: float


class ServeClientLoop:
    """Closed-loop clients over the socket, checking every answer."""

    def __init__(self, inputs: data.ServeInputs) -> None:
        self.inputs = inputs
        self.bindings = [[mapping_to_wire(mu) for mu in keys] for keys in inputs.keys]
        self.expected_answers = [
            data.wire_multiset(mapping_to_wire(mu) for mu in answers)
            for answers in inputs.expected_solutions
        ]

    def message(self, item: tuple) -> dict:
        if item[0] == "check":
            _, query, keys = item
            return {
                "op": "check",
                "query": self.inputs.check_queries[query],
                "bindings": [self.bindings[query][key] for key in keys],
            }
        if item[0] == "solutions":
            return {"op": "solutions", "query": self.inputs.solutions_queries[item[1]]}
        _, action, triple = item
        return {"op": "update", action: [triple]}

    def verify(self, item: tuple, line: dict) -> Tuple[bool, int]:
        """Whether the response is the oracle's answer; and its result count."""
        if item[0] == "check":
            _, query, keys = item
            expected = [self.inputs.verdicts[query][key] for key in keys]
            return line.get("result") == expected, len(keys)
        if item[0] == "solutions":
            got = line.get("solutions", [])
            return data.wire_multiset(got) == self.expected_answers[item[1]], len(got)
        result = line.get("result") or {}
        key = "added" if item[1] == "add" else "removed"
        return result.get(key) == 1, 1

    def warm_up(self, port: int, outcome: Outcome) -> None:
        """Run every distinct request once, so the caches hold them."""
        items: List[tuple] = [("solutions", i) for i in range(len(self.inputs.solutions_queries))]
        for query, keys in enumerate(self.inputs.keys):
            for start in range(0, len(keys), data.CANDIDATES_PER_CHECK):
                items.append(("check", query, list(range(start, start + data.CANDIDATES_PER_CHECK))))
        with ServiceClient("127.0.0.1", port, timeout=60) as client:
            for item in items:
                outcome.attempted += 1
                try:
                    ok, _ = self.verify(item, client.request(self.message(item)))
                except ReproError:  # an error or a refusal
                    ok = False
                if not ok:
                    outcome.failed += 1

    def run(self, port: int, seconds: float, writes: bool, outcome: Outcome) -> Tuple[List[Sample], float]:
        """Drive ``data.CLIENTS`` closed loops for *seconds*; returns samples and wall time."""
        samples: List[Sample] = []
        lock = threading.Lock()
        errors: List[BaseException] = []
        began = perf_counter()
        deadline = began + seconds

        def client_loop(client_index: int) -> None:
            local: List[Sample] = []
            attempted = failed = 0
            try:
                with ServiceClient("127.0.0.1", port, timeout=60) as client:
                    for item in data.serve_schedule(self.inputs.seed, client_index, writes):
                        if perf_counter() >= deadline:
                            break
                        message = self.message(item)
                        attempted += 1
                        start = perf_counter()
                        try:
                            line = client.request(message)
                        except ReproError:  # an error or a refusal
                            failed += 1
                            continue
                        end = perf_counter()
                        ok, results = self.verify(item, line)
                        if not ok:
                            failed += 1
                        local.append(
                            Sample(item[0], end - start, line.get("elapsed_ms", 0.0), results, end)
                        )
            except BaseException as error:  # reported by the caller after join
                errors.append(error)
            with lock:
                samples.extend(local)
                outcome.failed += failed
                outcome.attempted += attempted

        threads = [
            threading.Thread(target=client_loop, args=(i,), name=f"perfbench-client-{i}")
            for i in range(data.CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        wall = max((sample.end for sample in samples), default=perf_counter()) - began
        return samples, wall


def _serve_setup(
    seed: int,
    graph_path: Path,
    loop: ServeClientLoop,
    outcome: Outcome,
    trace_out: Optional[Path] = None,
) -> Tuple[float, ServerProcess]:
    """Graph build and save, server start and graph load, and warm-up.

    Returns the time it took and the running server.
    """
    began = perf_counter()
    save_graph(data.serve_graph(seed), graph_path)
    server = ServerProcess(graph_path, trace_out)
    try:
        loop.warm_up(server.port, outcome)
    except BaseException:
        server.kill()
        raise
    return perf_counter() - began, server


def trace_file(workload: str, seed: int) -> Path:
    """Where a traced run leaves its spans (one JSON document per run)."""
    OUT.mkdir(exist_ok=True)
    return OUT / f"trace-{workload}-{seed}.json"


def _serve_inputs(seed: int) -> Tuple[data.ServeInputs, Path, ServeClientLoop]:
    inputs = data.ServeInputs(seed)
    OUT.mkdir(exist_ok=True)
    graph_path = OUT / f"serve-{seed}-{os.getpid()}.nt"
    return inputs, graph_path, ServeClientLoop(inputs)


def run_serve(seed: int, seconds: float, trace: bool, writes: bool) -> Outcome:
    outcome = Outcome()
    inputs, graph_path, loop = _serve_inputs(seed)
    try:
        if trace:
            return _trace_serve(inputs, graph_path, loop, seconds, writes, outcome)
        setups: List[float] = []
        for repeat in range(SERVE_SETUPS):
            elapsed, server = _serve_setup(seed, graph_path, loop, outcome)
            setups.append(elapsed)
            if repeat < SERVE_SETUPS - 1:
                with server:
                    server.stop()
        with server:
            wall_start = perf_counter()
            samples, _ = loop.run(server.port, seconds, writes, outcome)
            report = server.stop()
        outcome.metrics = {
            "setup_s": statistics.median(setups),
            **_serve_rates(samples, wall_start),
            "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
        }
        return outcome
    finally:
        graph_path.unlink(missing_ok=True)


def _serve_rates(samples: List[Sample], began: float) -> Dict[str, float]:
    """Median rates over consecutive pieces of :data:`RATE_CHUNK` requests."""
    ordered = sorted(samples, key=lambda sample: sample.end)
    size = max(1, min(RATE_CHUNK, len(ordered)))  # a very slow run is one piece
    pieces = [ordered[start : start + size] for start in range(0, len(ordered) - size + 1, size)]
    durations, previous = [], began
    for piece in pieces:
        durations.append(piece[-1].end - previous)
        previous = piece[-1].end
    queries = [[s for s in piece if s.op != "update"] for piece in pieces]
    return {
        "requests_per_s": _median_rate([len(piece) for piece in pieces], durations),
        "mappings_per_s": _median_rate([sum(s.results for s in q) for q in queries], durations),
        "patterns_per_s": _median_rate([len(q) for q in queries], durations),
    }


def _trace_serve(
    inputs: data.ServeInputs,
    graph_path: Path,
    loop: ServeClientLoop,
    seconds: float,
    writes: bool,
    outcome: Outcome,
) -> Outcome:
    half = seconds / 2.0
    _, server = _serve_setup(inputs.seed, graph_path, loop, outcome)
    with server:
        plain, plain_wall = loop.run(server.port, half, writes, outcome)
        server.stop()
    trace_path = trace_file("serve-write" if writes else "serve-read", inputs.seed)
    _, server = _serve_setup(inputs.seed, graph_path, loop, outcome, trace_out=trace_path)
    with server:
        with ServiceClient("127.0.0.1", server.port, timeout=60) as client:
            before = client.stats()
        phase_start = perf_counter()
        traced, traced_wall = loop.run(server.port, half, writes, outcome)
        phase_end = perf_counter()
        with ServiceClient("127.0.0.1", server.port, timeout=60) as client:
            after = client.stats()
        server.stop()
    spans, _, marks = load(str(trace_path))
    (_, at_start), (_, at_end) = marks[-2], marks[-1]
    context = layers.Context(
        ops=len(traced),
        phase_start=phase_start,
        phase_end=phase_end,
        cache=layers.counter_delta(before["cache"], after["cache"]),
        rejected=after["rejected_overload"] - before["rejected_overload"],
        trace_overhead=(traced_wall / max(1, len(traced))) / (plain_wall / max(1, len(plain))),
        client_samples=plain,
    )
    outcome.metrics = layers.per_layer(spans, totals_between(at_start, at_end), context)
    return outcome


# --- in-process workloads ---------------------------------------------------
#: Calls after which an in-process workload's peak memory is read.  Each
#: ``check_many`` on a fresh Session leaves about 1.3 MB resident behind, so
#: a peak read at the end of the run would grow with the calls a run fits.
PEAK_AFTER_CALLS = 3


def _vm_peak_mb() -> float:
    """Peak resident memory of this process plus its largest waited-for child."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (peak_rss_kb() + children) / 1024.0


class Answers:
    """Every result of a repeated call, stored once per distinct value.

    Repetitions normally return equal answers; keeping one copy keeps the
    answers out of the measured peak memory, and the oracle, computed after
    the timed loop, grades each distinct value once for all its repeats.
    """

    def __init__(self) -> None:
        self.distinct: List[list] = []  # [result, repeats]

    def add(self, result: list) -> None:
        for entry in self.distinct:
            if entry[0] == result:
                entry[1] += 1
                return
        self.distinct.append([result, 1])

    def grade(self, outcome: Outcome, oracle: list) -> None:
        """Count every answer of every repetition against the oracle."""
        for result, repeats in self.distinct:
            wrong = sum(1 for got, expected in zip(result, oracle) if got != expected)
            wrong += abs(len(result) - len(oracle))
            outcome.attempted += repeats * max(len(result), len(oracle))
            outcome.failed += repeats * wrong


#: Timed set-ups before each call of an in-process workload.
SETUPS_PER_CALL = 3


def _loop(
    seconds: float, step: Callable[[], object], setup: Optional[Callable[[], object]] = None
) -> Tuple[List[float], List[object], float, List[float]]:
    """Run *step* until *seconds* passed (at least once).

    With *setup*, each call is preceded by :data:`SETUPS_PER_CALL` timed
    set-ups whose results are dropped, each after a full collection so that
    no set-up pays for another's garbage: the set-ups spread over the whole
    run, like the calls, so their median is not decided by a few seconds in
    which the machine was slow.
    Returns each call's time, each call's (small) result, the peak memory
    after :data:`PEAK_AFTER_CALLS` calls (or all of them) and each set-up's
    time.
    """
    times: List[float] = []
    results: List[object] = []
    setups: List[float] = []
    peak_mb = 0.0
    began = perf_counter()
    while not times or perf_counter() - began < seconds:
        for _ in range(SETUPS_PER_CALL if setup is not None else 0):
            gc.collect()
            setups.append(_timed(setup)[0])
        elapsed, result = _timed(step)
        times.append(elapsed)
        results.append(result)
        if len(times) == PEAK_AFTER_CALLS:
            peak_mb = _vm_peak_mb()
    return times, results, peak_mb or _vm_peak_mb(), setups


def run_fk_check(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    inputs = data.FkInputs(seed)
    answers = Answers()

    def batch(method: str = "auto", stats: Optional[EvaluationStatistics] = None, sessions=None):
        session = Session()
        verdicts = session.check_many(
            inputs.forest, inputs.graph, inputs.mappings, method=method, statistics=stats
        )
        answers.add(verdicts)
        if sessions is not None:
            sessions.append(session)

    if not trace:
        times, _, peak_mb, setups = _loop(seconds, batch, setup=lambda: data.FkInputs(seed))
        answers.grade(outcome, inputs.oracle())
        ones = [1] * len(times)
        outcome.metrics = {
            "setup_s": statistics.median(setups),
            "requests_per_s": _median_rate(ones, times),
            "mappings_per_s": _median_rate([len(inputs.mappings)] * len(times), times),
            "patterns_per_s": _median_rate(ones, times),
            "peak_rss_mb": peak_mb,
        }
        return outcome

    plain_times, *_ = _loop(seconds / 2.0, batch)
    natural_s, _ = _timed(lambda: batch("natural"))
    pebble_s, _ = _timed(lambda: batch("pebble"))
    recorder = Recorder()
    eval_stats = EvaluationStatistics()
    sessions: List[Session] = []
    restore = instrument(recorder)
    try:
        data.FkInputs(seed)  # one traced set-up, for rdf.load_ms
        phase_start = perf_counter()
        traced_times, *_ = _loop(
            seconds / 2.0, lambda: batch(stats=eval_stats, sessions=sessions)
        )
    finally:
        restore()
    recorder.dump(str(trace_file("fk-check", seed)))
    answers.grade(outcome, inputs.oracle())
    context = layers.Context(
        ops=len(traced_times),
        phase_start=phase_start,
        cache=layers.cache_sum(sessions),
        evaluation=eval_stats,
        regret=statistics.median(plain_times) / min(natural_s, pebble_s),
        trace_overhead=statistics.fmean(traced_times) / statistics.fmean(plain_times),
        resilience=layers.resilience_sum(sessions),
    )
    outcome.metrics = layers.per_layer(recorder.spans, recorder.totals, context)
    return outcome


def run_enum_pool(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    inputs = data.EnumInputs(seed)
    processes = max(1, min(2, os.cpu_count() or 1))
    answers = Answers()

    def call(workers: int, sessions=None) -> int:
        session = Session(processes=workers)
        result = session.solutions_many(inputs.log, inputs.graph)
        answers.add(result)
        if sessions is not None:
            sessions.append(session)
        return data.answer_count(result)

    if not trace:
        times, produced, peak_mb, setups = _loop(
            seconds,
            lambda: call(processes),
            setup=lambda: data.relabeled(data.enum_structure(), seed),
        )
        answers.grade(outcome, inputs.oracle())
        outcome.metrics = {
            "setup_s": statistics.median(setups),
            "requests_per_s": _median_rate([1] * len(times), times),
            "mappings_per_s": _median_rate(produced, times),
            "patterns_per_s": _median_rate([len(inputs.log)] * len(times), times),
            "peak_rss_mb": peak_mb,
        }
        return outcome

    third = seconds / 3.0
    pool_sessions: List[Session] = []
    pooled_times, *_ = _loop(third, lambda: call(processes, pool_sessions))
    serial_times, *_ = _loop(third, lambda: call(1))
    recorder = Recorder()
    sessions: List[Session] = []
    restore = instrument(recorder)
    try:
        data.relabeled(data.enum_structure(), seed)  # one traced set-up, for rdf.load_ms
        phase_start = perf_counter()
        traced_times, *_ = _loop(third, lambda: call(1, sessions))
    finally:
        restore()
    recorder.dump(str(trace_file("enum-pool", seed)))
    answers.grade(outcome, inputs.oracle())
    context = layers.Context(
        ops=len(traced_times),
        phase_start=phase_start,
        cache=layers.cache_sum(sessions),
        pool_gain=statistics.fmean(serial_times) / statistics.fmean(pooled_times),
        trace_overhead=statistics.fmean(traced_times) / statistics.fmean(serial_times),
        resilience=layers.resilience_sum(pool_sessions),
    )
    outcome.metrics = layers.per_layer(recorder.spans, recorder.totals, context)
    return outcome


RUNNERS: Dict[str, Callable[[int, float, bool], Outcome]] = {
    "serve-read": lambda seed, seconds, trace: run_serve(seed, seconds, trace, writes=False),
    "serve-write": lambda seed, seconds, trace: run_serve(seed, seconds, trace, writes=True),
    "fk-check": run_fk_check,
    "enum-pool": run_enum_pool,
}

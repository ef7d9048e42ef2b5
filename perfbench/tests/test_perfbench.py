"""Tests of the benchmark's own arithmetic and input generation.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.evaluation.naive import evaluate_pattern
from repro.exceptions import ServiceOverloadedError
from repro.patterns.build import pattern_of_tree
from repro.rdf.generators import random_graph
from repro.sparql.mappings import Mapping
from repro.workloads.random_patterns import random_wd_tree

from perfbench import inputs, layers, spans, workloads
from perfbench.inputs import serve_schedule
from perfbench.layers import percentile
from perfbench.spans import Recorder, Span, covered_length, self_times

ROOT = Path(__file__).resolve().parents[2]


def schedule_bytes(seed, client, writes, length):
    """The first *length* requests of a client's schedule, serialised."""
    items = [item for item, _ in zip(serve_schedule(seed, client, writes), range(length))]
    return json.dumps(items).encode("utf-8")


def _span(sid, start, end, parent=None, name="x"):
    return Span(sid, name, start, end, parent=parent)


# --- self time ------------------------------------------------------------
def test_covered_length_merges_overlaps_and_skips_empty():
    assert covered_length([]) == 0.0
    assert covered_length([(0.0, 1.0), (2.0, 3.0)]) == pytest.approx(2.0)
    assert covered_length([(0.0, 2.0), (1.0, 3.0), (1.5, 1.8)]) == pytest.approx(3.0)
    assert covered_length([(1.0, 1.0), (2.0, 1.0)]) == 0.0


def test_self_time_of_nested_spans():
    # root [0, 10] > child [1, 4] > grandchild [2, 3]; child [6, 8]
    tree = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),
        _span(3, 2.0, 3.0, parent=2),
        _span(4, 6.0, 8.0, parent=1),
    ]
    own = self_times(tree)
    assert own[1] == pytest.approx(10.0 - 3.0 - 2.0)
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(2.0)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    # Two children from other threads overlap each other; a third outlives
    # its parent (a generator finished after the parent closed).
    tree = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 5.0, parent=1),
        _span(3, 3.0, 7.0, parent=1),
        _span(4, 9.0, 12.0, parent=1),
    ]
    assert self_times(tree)[1] == pytest.approx(10.0 - 6.0 - 1.0)


def test_generator_self_time_is_busy_time_minus_children():
    # A generator alive over [0, 10] but running only 2 s of it, with a
    # child inside one next(); its consumer's sibling span is not its own.
    tree = [
        Span(1, "gen", 0.0, 10.0, busy=2.0),
        _span(2, 1.0, 1.5, parent=1),
        _span(3, 3.0, 8.0),
    ]
    assert self_times(tree)[1] == pytest.approx(1.5)


def test_consumer_spans_between_items_are_not_a_generators_own_time():
    recorder = Recorder()

    def produce():
        yield 1
        yield 2

    traced = spans._gen_wrapper(recorder, "gen", produce)
    for _ in traced():
        sibling = recorder.open("sibling")
        time.sleep(0.02)
        recorder.close(sibling)
    generator = next(s for s in recorder.spans if s.name == "gen")
    siblings = [s for s in recorder.spans if s.name == "sibling"]
    assert all(s.parent != generator.sid for s in siblings)
    assert self_times(recorder.spans)[generator.sid] < 0.02


def test_recorder_links_parents_and_request_ids_per_thread():
    recorder = Recorder()
    recorder.request_id = 7
    outer = recorder.open("outer")
    inner = recorder.open("inner")
    recorder.close(inner)
    recorder.close(outer)
    assert inner.parent == outer.sid and outer.parent is None
    assert inner.rid == outer.rid == 7
    assert recorder.current() is None


def test_generator_spans_time_only_the_generator(tmp_path):
    recorder = Recorder()

    def produce():
        yield 1
        yield 2

    traced = spans._gen_wrapper(recorder, "gen", produce)
    assert list(traced()) == [1, 2]
    (span,) = recorder.spans
    assert 0.0 <= span.busy <= span.duration
    recorder.add("bytes", 0.0, 5)
    recorder.mark()
    path = tmp_path / "spans.json"
    recorder.dump(str(path))
    loaded, totals, marks = spans.load(str(path))
    assert [s.name for s in loaded] == ["gen"] and totals["bytes"][0] == 5
    assert spans.totals_between(marks[0][1], {"bytes": [8, 0.0]}) == {"bytes": [3, 0.0]}


def test_instrument_restores_every_patched_attribute():
    import repro.hom.homomorphism as hom
    import repro.service.core as core

    before = (hom.find_homomorphism, core.QueryService.submit, core.parse_pattern)
    restore = spans.instrument(Recorder())
    assert hom.find_homomorphism is not before[0]
    restore()
    assert (hom.find_homomorphism, core.QueryService.submit, core.parse_pattern) == before


# --- percentiles ------------------------------------------------------------
def test_percentile_uses_the_ceiling_rank_not_the_maximum():
    values = list(range(1, 1001))
    assert percentile(values, 0.99) == (990, 1000)
    assert percentile(values, 0.5) == (500, 1000)


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(list(range(100)), 0.99) is None  # one sample beyond
    assert percentile(list(range(200)), 0.95) == (189, 200)  # ten beyond
    assert percentile(list(range(199)), 0.95) is None
    assert percentile([], 0.5) is None


# --- schedules ----------------------------------------------------------------
@pytest.mark.parametrize("writes", [False, True])
def test_schedule_is_byte_identical_for_a_seed(writes):
    assert schedule_bytes(5, 0, writes, 400) == schedule_bytes(5, 0, writes, 400)


@pytest.mark.parametrize("writes", [False, True])
def test_schedule_differs_across_seeds_and_clients(writes):
    first = schedule_bytes(5, 0, writes, 400)
    assert first != schedule_bytes(6, 0, writes, 400)
    assert first != schedule_bytes(5, 1, writes, 400)


def test_write_schedule_pairs_every_add_with_a_remove():
    items = json.loads(schedule_bytes(3, 0, True, 2000))
    updates = [item for item in items if item[0] == "update"]
    assert len(updates) == 100  # 5% of the mix
    for add, remove in zip(updates[::2], updates[1::2]):
        assert (add[1], remove[1]) == ("add", "remove") and add[2] == remove[2]


# --- answer checks ------------------------------------------------------------
def _fake_serve_inputs():
    keys = [Mapping.of(x=f"http://example.org/n{i}") for i in range(inputs.KEYS_PER_QUERY)]
    queries = inputs.ANCHORED_QUERIES + 1
    return SimpleNamespace(
        seed=1,
        keys=[keys] * len(inputs.CHECK_QUERIES),
        verdicts=[[True] * len(keys)] * len(inputs.CHECK_QUERIES),
        check_queries=["(?x <http://example.org/p> ?y)"] * len(inputs.CHECK_QUERIES),
        solutions_queries=["(?x <http://example.org/p> ?y)"] * queries,
        expected_solutions=[{keys[0], keys[1]}] * queries,
    )


def test_solutions_are_compared_as_multisets():
    loop = workloads.ServeClientLoop(_fake_serve_inputs())
    a, b = {"x": "http://example.org/n0"}, {"x": "http://example.org/n1"}
    assert loop.verify(("solutions", 0), {"solutions": [b, a]}) == (True, 2)
    assert loop.verify(("solutions", 0), {"solutions": [a, b, b]})[0] is False
    assert loop.verify(("solutions", 0), {"solutions": [a]})[0] is False


def test_a_refused_request_fails_the_run(monkeypatch):
    class RefusingClient:
        def __init__(self, *args, **kwargs):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def request(self, message):
            raise ServiceOverloadedError("backlog full")

    monkeypatch.setattr(workloads, "ServiceClient", RefusingClient)
    outcome = workloads.Outcome()
    samples, _ = workloads.ServeClientLoop(_fake_serve_inputs()).run(0, 0.05, False, outcome)
    assert samples == [] and outcome.attempted > 0
    assert outcome.failed == outcome.attempted and not outcome.correct


# --- enum-pool's query log ----------------------------------------------------
def test_capped_answers_are_the_algebra_semantics():
    graph = random_graph(25, 120, seed=3)
    rng = random.Random(4)
    for _ in range(12):
        pattern = pattern_of_tree(random_wd_tree(num_nodes=4, rng=rng))
        answers, pairs = inputs._capped_answers(pattern, graph, 10**9)
        expected = evaluate_pattern(pattern, graph)
        assert answers == {frozenset(mu.items()) for mu in expected}
        if pairs:
            assert inputs._capped_answers(pattern, graph, pairs - 1) is None


def test_query_log_does_not_run_the_engine(monkeypatch):
    import repro.evaluation.session as session_mod
    import repro.hom.homomorphism as hom_mod

    def refuse(*args, **kwargs):
        raise AssertionError("the query log must not depend on the engine under test")

    monkeypatch.setattr(session_mod.Session, "__init__", refuse)
    for name in ("all_homomorphisms", "find_homomorphism"):
        monkeypatch.setattr(hom_mod, name, refuse)
    log = inputs.query_log()
    assert len(log) == inputs.ENUM_DISTINCT == len(set(log))


# --- the metric catalogue -----------------------------------------------------
def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    produced = layers.per_layer([], {}, layers.Context(ops=0, phase_start=0.0))
    assert [m["name"] for m in spec["per_layer"]] == list(produced)

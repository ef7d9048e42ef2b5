"""Unit tests for the Session workspace (multi-pattern, multi-graph)."""

import pytest

from repro.evaluation import Engine, Session
from repro.exceptions import EvaluationError
from repro.patterns import WDPatternForest
from repro.rdf import Triple
from repro.rdf.generators import random_graph
from repro.rdf.namespace import EX
from repro.rdf.terms import IRI
from repro.sparql import Mapping, parse_pattern
from repro.workloads.families import fk_data_graph, fk_forest, tprime_data_graph, tprime_tree
from repro.workloads.random_patterns import random_wd_tree


@pytest.fixture
def setting():
    forest = fk_forest(2)
    graph = fk_data_graph(6, 30, clique_size=2, seed=2)
    engine = Engine(forest=forest, width_bound=1)
    solutions = sorted(engine.solutions(graph, method="natural"), key=repr)[:5]
    queries = list(solutions)
    for mu in solutions[:2]:
        bindings = mu.as_dict()
        first = sorted(bindings, key=lambda v: v.name)[0]
        bindings[first] = IRI("http://example.org/__nowhere__")
        queries.append(Mapping(bindings))
    return forest, graph, engine, queries


class TestEngines:
    def test_engines_memoized_structurally_for_patterns(self):
        session = Session()
        p1 = parse_pattern("((?x p ?y) OPT (?y q ?z))")
        p2 = parse_pattern("((?x p ?y) OPT (?y q ?z))")
        assert p1 is not p2
        assert session.engine(p1) is session.engine(p2)

    def test_engines_memoized_by_identity_for_forests(self):
        session = Session()
        forest = fk_forest(2)
        assert session.engine(forest) is session.engine(forest)
        assert session.engine(forest) is not session.engine(fk_forest(2))

    def test_engines_share_session_cache(self):
        session = Session()
        engine = session.engine(parse_pattern("(?x p ?y)"))
        assert engine.cache is session.cache

    def test_foreign_engine_rewired_onto_session_cache(self):
        session = Session()
        foreign = Engine(parse_pattern("(?x p ?y)"), width_bound=1)
        adopted = session.engine(foreign)
        assert adopted is not foreign
        assert adopted.cache is session.cache
        assert adopted.width_bound == 1
        assert session.engine(foreign) is adopted

    def test_rejects_non_pattern(self):
        with pytest.raises(EvaluationError):
            Session().engine(42)

    def test_invalid_processes(self):
        with pytest.raises(EvaluationError):
            Session(processes=0)

    def test_invalid_max_engines(self):
        with pytest.raises(EvaluationError):
            Session(max_engines=0)

    def test_session_wired_engine_is_not_rememoized(self):
        session = Session(max_engines=2)
        p1 = parse_pattern("(?x p ?y)")
        p2 = parse_pattern("(?x q ?y)")
        e1, e2 = session.engine(p1), session.engine(p2)
        # Routing the handles back in (as check_many / solutions_many do)
        # must neither rebuild them nor burn LRU slots on duplicate keys.
        assert session.engine(e1) is e1
        assert session.engine(e2) is e2
        assert session.engine_count == 2
        assert session.engine(p1) is e1
        assert session.engine(p2) is e2

    def test_max_engines_evicts_least_recently_used(self):
        session = Session(max_engines=2)
        p1 = parse_pattern("(?x p ?y)")
        p2 = parse_pattern("(?x q ?y)")
        p3 = parse_pattern("(?x r ?y)")
        e1 = session.engine(p1)
        e2 = session.engine(p2)
        session.engine(p1)  # refresh p1's recency
        session.engine(p3)  # evicts p2, the least recently used
        assert session.engine_count == 2
        assert session.engine(p1) is e1  # p1 survived the eviction
        assert session.engine(p2) is not e2  # p2 was rebuilt


class TestCheckMany:
    @pytest.mark.parametrize("method", ["naive", "natural", "pebble", "auto"])
    def test_identical_to_single_shot(self, setting, method):
        forest, graph, engine, queries = setting
        expected = [engine.contains(graph, mu, method=method) for mu in queries]
        session = Session()
        handle = session.engine(forest, width_bound=1)
        assert session.check_many(handle, graph, queries, method=method) == expected

    def test_order_duplicates_and_empty(self, setting):
        forest, graph, engine, queries = setting
        session = Session()
        handle = session.engine(forest, width_bound=1)
        doubled = queries + list(reversed(queries))
        answers = session.check_many(handle, graph, doubled)
        assert answers == [engine.contains(graph, mu) for mu in doubled]
        assert session.check_many(handle, graph, []) == []

    def test_parallel_identical(self, setting):
        forest, graph, engine, queries = setting
        expected = [engine.contains(graph, mu, method="pebble") for mu in queries]
        session = Session(processes=2)
        handle = session.engine(forest, width_bound=1)
        assert session.check_many(handle, graph, queries, method="pebble") == expected

    def test_check_single(self, setting):
        forest, graph, engine, queries = setting
        session = Session()
        handle = session.engine(forest, width_bound=1)
        for mu in queries:
            assert session.check(handle, graph, mu) == engine.contains(graph, mu)

    def test_plan_and_explain(self, setting):
        forest, _graph, _engine, _queries = setting
        session = Session()
        handle = session.engine(forest, width_bound=1)
        plan = session.plan(handle)
        assert (plan.strategy, plan.width) == ("pebble", 1)
        assert "chosen strategy" in session.explain(handle)


class TestStreaming:
    def test_stream_matches_solutions(self):
        session = Session()
        forest = WDPatternForest([tprime_tree(2)])
        graph = tprime_data_graph(6, 20, seed=4)
        stream = session.solutions_stream(forest, graph)
        first = next(stream, None)  # the stream is lazy and resumable
        rest = set(stream)
        expected = Engine(forest=forest).solutions(graph, method="natural")
        assert ({first} | rest if first is not None else rest) == expected

    def test_stream_deduplicates(self):
        session = Session()
        forest = fk_forest(2)
        graph = fk_data_graph(5, 25, clique_size=2, seed=1)
        streamed = list(session.solutions_stream(forest, graph))
        assert len(streamed) == len(set(streamed))
        assert set(streamed) == Engine(forest=forest).solutions(graph, method="natural")

    def test_auto_enumeration_resolves_to_natural(self):
        session = Session()
        pattern = parse_pattern(
            "((?x <http://example.org/p> ?y) OPT (?y <http://example.org/q> ?z))"
        )
        graph = random_graph(5, 20, seed=9)
        auto = session.solutions(pattern, graph, method="auto")
        assert auto  # the workload has real solutions
        assert auto == session.solutions(pattern, graph, method="natural")

    def test_pebble_enumeration_rejected(self):
        session = Session()
        with pytest.raises(EvaluationError):
            session.solutions(parse_pattern("(?x p ?y)"), random_graph(3, 5, seed=0), "pebble")


class TestSolutionsMany:
    def test_randomized_parity_with_naive_enumeration(self):
        """Session.solutions_many must be identical to per-pattern naive
        enumeration on randomized patterns × graphs."""
        for seed in range(6):
            patterns = [
                WDPatternForest([random_wd_tree(num_nodes=3, seed=seed * 7 + i)])
                for i in range(3)
            ]
            graphs = [random_graph(5, 22, seed=seed * 11 + j) for j in range(2)]
            session = Session()
            matrix = session.solutions_many(patterns, graphs)
            expected = [
                [Engine(forest=forest).solutions(graph, method="naive") for graph in graphs]
                for forest in patterns
            ]
            assert matrix == expected, f"parity failure for seed {seed}"

    def test_single_graph_returns_flat_list(self):
        session = Session()
        graph = tprime_data_graph(6, 20, seed=3)
        patterns = [WDPatternForest([tprime_tree(2)]), WDPatternForest([tprime_tree(3)])]
        answers = session.solutions_many(patterns, graph)
        assert len(answers) == 2
        for forest, answer in zip(patterns, answers):
            assert answer == Engine(forest=forest).solutions(graph, method="naive")

    def test_duplicate_cells_share_one_engine_but_stay_independent(self):
        session = Session()
        graph = random_graph(6, 30, seed=5)
        text = "((?x <http://example.org/p> ?y) OPT (?y <http://example.org/q> ?z))"
        pattern = parse_pattern(text)
        duplicate = parse_pattern(text)
        answers = session.solutions_many([pattern, duplicate, pattern], graph)
        assert answers[0] and answers[0] == answers[1] == answers[2]
        # Structurally equal patterns share one engine (one enumeration)...
        assert session.engine(pattern) is session.engine(duplicate)
        # ...but the returned sets are independent copies, like a loop of
        # per-pattern Engine.solutions calls would produce.
        assert answers[0] is not answers[1]
        answers[0].clear()
        assert answers[1] == answers[2]

    def test_parallel_matches_serial(self):
        graph = tprime_data_graph(6, 20, seed=6)
        patterns = [WDPatternForest([tprime_tree(2)]), WDPatternForest([tprime_tree(3)])]
        serial = Session().solutions_many(patterns, graph)
        parallel = Session().solutions_many(patterns, graph, processes=2)
        assert serial == parallel

    def test_parallel_matrix_matches_serial(self):
        graphs = [tprime_data_graph(6, 20, seed=7), tprime_data_graph(5, 15, seed=8)]
        patterns = [
            WDPatternForest([tprime_tree(2)]),
            WDPatternForest([tprime_tree(3)]),
            WDPatternForest([tprime_tree(2)]),
        ]
        serial = Session().solutions_many(patterns, graphs)
        parallel = Session().solutions_many(patterns, graphs, processes=2)
        assert serial == parallel

    def test_shared_cache_is_exercised(self):
        session = Session()
        graph = tprime_data_graph(6, 20, seed=1)
        forest = WDPatternForest([tprime_tree(2)])
        session.solutions_many([forest, forest], graph)
        stats = session.cache.statistics
        assert stats.hits + stats.misses > 0

    def test_warm_fork_parallel_matches_cold_and_serial(self):
        """The warm-fork path (workers inherit a hot parent session) and the
        cold-worker path (warm_on_fork=False) must produce identical answer
        sets — warming is a pure performance feature."""
        graph = tprime_data_graph(6, 20, seed=9)
        patterns = [
            WDPatternForest([tprime_tree(2)]),
            WDPatternForest([tprime_tree(3)]),
            WDPatternForest([tprime_tree(2)]),
        ]
        serial = Session().solutions_many(patterns, graph)
        warm_session = Session()
        warm_session.solutions_many(patterns, graph)  # steady state: hot cache
        warm = warm_session.solutions_many(patterns, graph, processes=2)
        cold = Session(warm_on_fork=False).solutions_many(patterns, graph, processes=2)
        assert warm == serial == cold

    def test_replayed_enumeration_matches_first_run(self):
        """A second enumeration replays the recorded answer lists (cache
        hits) and must return equal but independent sets."""
        session = Session()
        graph = tprime_data_graph(6, 20, seed=4)
        forest = WDPatternForest([tprime_tree(2)])
        first = session.solutions(forest, graph)
        before = session.cache.statistics.enum_hits
        second = session.solutions(forest, graph)
        assert second == first and second is not first
        assert session.cache.statistics.enum_hits > before


class TestSolutionsIter:
    def _workload(self):
        graphs = [tprime_data_graph(6, 20, seed=11), tprime_data_graph(5, 15, seed=12)]
        repeated = WDPatternForest([tprime_tree(2)])
        patterns = [
            repeated,
            WDPatternForest([tprime_tree(3)]),
            WDPatternForest([tprime_tree(2)]),  # structurally equal, distinct object
            repeated,  # duplicate cell: same forest object twice
        ]
        return patterns, graphs

    def _collect(self, iterator):
        got = {}
        for cell, mu in iterator:
            got.setdefault(cell, set()).add(mu)
        return got

    @pytest.mark.parametrize("processes", [None, 2])
    @pytest.mark.parametrize("order", ["submitted", "completed"])
    def test_parity_with_solutions_many(self, order, processes):
        patterns, graphs = self._workload()
        session = Session()
        matrix = session.solutions_many(patterns, graphs)
        got = self._collect(
            Session().solutions_iter(patterns, graphs, order=order, processes=processes)
        )
        for i in range(len(patterns)):
            for j in range(len(graphs)):
                assert got.get((i, j), set()) == matrix[i][j], (order, processes, i, j)

    def test_single_graph_cells_use_graph_index_zero(self):
        patterns, graphs = self._workload()
        session = Session()
        flat = session.solutions_many(patterns, graphs[0])
        got = self._collect(session.solutions_iter(patterns, graphs[0]))
        assert all(cell[1] == 0 for cell in got)
        for i in range(len(patterns)):
            assert got.get((i, 0), set()) == flat[i]

    def test_submitted_order_is_submission_order(self):
        patterns, graphs = self._workload()
        cells_seen = []
        for cell, _mu in Session().solutions_iter(patterns, graphs, order="submitted"):
            if not cells_seen or cells_seen[-1] != cell:
                cells_seen.append(cell)
        assert cells_seen == sorted(cells_seen)

    def test_serial_first_occurrence_streams_lazily(self):
        """The first solutions arrive before later cells are evaluated."""
        session = Session()
        graph = tprime_data_graph(6, 20, seed=11)
        full = WDPatternForest([tprime_tree(2)])
        iterator = session.solutions_iter([full, WDPatternForest([tprime_tree(3)])], graph)
        cell, mu = next(iterator)
        assert cell == (0, 0)
        assert mu in Engine(forest=full).solutions(graph, method="naive")

    def test_invalid_order_rejected(self):
        session = Session()
        with pytest.raises(EvaluationError):
            next(session.solutions_iter([WDPatternForest([tprime_tree(2)])],
                                        tprime_data_graph(5, 15, seed=1), order="random"))


class TestSolutionsAutoBugfix:
    """`Engine.solutions(method="auto")` used to raise; it must resolve to
    the natural strategy everywhere the method argument is accepted."""

    def test_engine_solutions_auto(self):
        graph = tprime_data_graph(6, 20, seed=2)
        engine = Engine(forest=WDPatternForest([tprime_tree(2)]), width_bound=1)
        assert engine.solutions(graph, method="auto") == engine.solutions(
            graph, method="natural"
        )


class TestWarm:
    def test_warm_returns_kernel_count(self, setting):
        forest, graph, _engine, _queries = setting
        session = Session()
        handle = session.engine(forest, width_bound=1)
        # No mappings: warming covers the root-subtree child instances.
        count = session.warm(handle, graph, method="pebble", width=1)
        assert count > 0
        assert session.cache.statistics.kernel_misses > 0


class TestPicklability:
    def test_graph_pattern_round_trips(self):
        import pickle

        pattern = parse_pattern("(((?x p ?y) AND (?y q ?z)) OPT ((?z r ?w) UNION (?z p ?w)))")
        clone = pickle.loads(pickle.dumps(pattern))
        assert clone == pattern

    def test_engine_round_trips(self):
        import pickle

        graph = tprime_data_graph(6, 20, seed=4)
        engine = Engine(forest=WDPatternForest([tprime_tree(2)]), width_bound=1)
        engine.domination_width()
        clone = pickle.loads(pickle.dumps(engine))
        assert clone.width_bound == engine.width_bound
        assert clone.resolve_method("auto") == engine.resolve_method("auto")
        assert clone.solutions(graph, method="natural") == engine.solutions(
            graph, method="natural"
        )

    def test_warmed_session_engine_still_pickles(self):
        import pickle

        graph = tprime_data_graph(6, 20, seed=4)
        session = Session()
        engine = session.engine(WDPatternForest([tprime_tree(2)]), width_bound=1)
        mu = sorted(session.solutions(engine, graph), key=repr)[0]
        # A pebble check caches a ConsistencyKernel (which holds a graph
        # weakref); pickling must still work — the cache is process-local
        # state and is dropped from the pickle.
        session.check(engine, graph, mu, method="pebble", width=1)
        clone = pickle.loads(pickle.dumps(engine))
        assert clone.cache is None
        assert clone.contains(graph, mu, method="pebble", width=1) == engine.contains(
            graph, mu, method="pebble", width=1
        )


class TestWorkerMode:
    """The effective parallel mode is introspectable, and a warm_on_fork
    request that cannot engage (non-fork start methods) warns once instead
    of silently running cold."""

    def test_serial_when_no_pool_would_run(self):
        assert Session().worker_mode() == "serial"
        assert Session(processes=2).worker_mode(processes=1) == "serial"
        assert Session().worker_mode(processes=1) == "serial"

    def test_fork_modes(self):
        import multiprocessing

        if multiprocessing.get_context().get_start_method() != "fork":
            pytest.skip("needs the fork start method")
        assert Session(processes=2).worker_mode() == "fork-warm"
        assert Session(processes=2, warm_on_fork=False).worker_mode() == "fork-cold"
        assert Session().worker_mode(processes=4) == "fork-warm"

    def test_non_fork_reports_start_method(self, monkeypatch):
        from repro.evaluation import session as session_module

        monkeypatch.setattr(session_module, "_start_method", lambda: "spawn")
        assert Session(processes=2).worker_mode() == "spawn"
        assert Session(processes=2, warm_on_fork=False).worker_mode() == "spawn"
        assert Session().worker_mode() == "serial"  # still no pool

    def test_repr_shows_worker_mode(self):
        assert "workers=serial" in repr(Session())

    def _spawn_platform(self, monkeypatch):
        """Pretend the start method is spawn (pools still fork underneath —
        only the warm/warn decision is driven by the monkeypatched seam)."""
        from repro.evaluation import session as session_module

        monkeypatch.setattr(session_module, "_start_method", lambda: "spawn")
        monkeypatch.setattr(session_module, "_warned_cold_pool", False)
        return session_module

    def test_warm_on_fork_noop_warns_once(self, monkeypatch):
        import warnings as warnings_module

        self._spawn_platform(monkeypatch)
        graph = tprime_data_graph(6, 20, seed=9)
        patterns = [WDPatternForest([tprime_tree(2)]), WDPatternForest([tprime_tree(3)])]
        session = Session(processes=2)
        with pytest.warns(RuntimeWarning, match="warm_on_fork=True has no effect"):
            first = session.solutions_many(patterns, graph)
        # One-time: the second cold pool (even on a fresh session) is silent.
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            second = Session(processes=2).solutions_many(patterns, graph)
        assert first == second == Session().solutions_many(patterns, graph)

    def test_membership_pool_also_warns(self, monkeypatch, setting):
        self._spawn_platform(monkeypatch)
        forest, graph, engine, queries = setting
        session = Session()
        with pytest.warns(RuntimeWarning, match="worker pools start cold"):
            answers = session.check_many(forest, graph, queries, processes=2)
        assert answers == [engine.contains(graph, mu) for mu in queries]

    def test_cold_by_choice_does_not_warn(self, monkeypatch):
        import warnings as warnings_module

        self._spawn_platform(monkeypatch)
        graph = tprime_data_graph(6, 20, seed=9)
        patterns = [WDPatternForest([tprime_tree(2)]), WDPatternForest([tprime_tree(3)])]
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            Session(processes=2, warm_on_fork=False).solutions_many(patterns, graph)


class TestCheckIter:
    def test_serial_parity_with_check_many(self, setting):
        forest, graph, engine, queries = setting
        queries = queries + queries[:2]  # repeated mappings replay
        session = Session()
        expected = session.check_many(forest, graph, queries)
        assert list(Session().check_iter(forest, graph, queries)) == expected

    def test_parallel_parity_with_check_many(self, setting):
        forest, graph, engine, queries = setting
        expected = Session().check_many(forest, graph, queries)
        assert list(Session().check_iter(forest, graph, queries, processes=2)) == expected

    def test_empty_batch(self, setting):
        forest, graph, _engine, _queries = setting
        assert list(Session().check_iter(forest, graph, [])) == []

    def test_verdicts_stream_before_exhaustion(self, setting):
        forest, graph, engine, queries = setting
        iterator = Session().check_iter(forest, graph, queries)
        assert next(iterator) == engine.contains(graph, queries[0])

    def test_parallel_absorbs_membership_deltas(self, setting):
        forest, graph, _engine, queries = setting
        session = Session()
        session.check_many(forest, graph, queries, processes=2)
        assert session.cache.statistics.delta_entries > 0
        # The absorbed verdicts replay without re-deriving them: a serial
        # re-check of the same batch is answered from the parent cache.
        hits_before = session.cache.statistics.hits
        session.check_many(forest, graph, queries)
        assert session.cache.statistics.hits > hits_before


class TestReturnChannel:
    """Workers ship their learned state back as CacheDeltas; the parent
    absorbs them, so repeated parallel batches replay from the parent cache
    instead of recomputing (the PR 5 acceptance criterion)."""

    def _workload(self):
        graph = tprime_data_graph(6, 20, seed=21)
        patterns = [
            WDPatternForest([tprime_tree(2)]),
            WDPatternForest([tprime_tree(3)]),
            WDPatternForest([tprime_tree(4)]),
        ]
        return patterns, graph

    def test_second_parallel_solutions_many_hits_parent_cache(self):
        patterns, graph = self._workload()
        session = Session()
        first = session.solutions_many(patterns, graph, processes=2)
        assert session.cache.statistics.delta_entries > 0
        hits_before = session.cache.statistics.enum_hits
        second = session.solutions_many(patterns, graph, processes=2)
        assert session.cache.statistics.enum_hits > hits_before
        assert second == first == Session().solutions_many(patterns, graph)

    def test_parallel_worker_answer_lists_absorbed(self):
        patterns, graph = self._workload()
        session = Session(warm_on_fork=False)  # cold workers: all learning
        session.solutions_many(patterns, graph, processes=2)  # returns via deltas
        for forest in patterns:
            for tree in forest:
                assert session.cache.tree_solution_list(tree, graph) is not None

    def test_second_parallel_solutions_iter_replays(self):
        patterns, graph = self._workload()
        session = Session()
        first = {}
        for cell, mu in session.solutions_iter(patterns, graph, processes=2):
            first.setdefault(cell, set()).add(mu)
        assert session.cache.statistics.delta_entries > 0
        hits_before = session.cache.statistics.enum_hits
        second = {}
        for cell, mu in session.solutions_iter(patterns, graph, processes=2):
            second.setdefault(cell, set()).add(mu)
        assert session.cache.statistics.enum_hits > hits_before
        assert second == first

    def test_warm_replay_still_rejects_invalid_methods(self):
        """A warm session (every cell replayable) must reject bad methods
        exactly like a cold one — validation happens before the replay
        short-circuit, not only when a pool is actually created."""
        patterns, graph = self._workload()
        session = Session()
        session.solutions_many(patterns, graph, processes=2)  # warm the parent
        with pytest.raises(EvaluationError):
            session.solutions_many(patterns, graph, method="pebble", processes=2)
        with pytest.raises(EvaluationError):
            list(session.solutions_iter(patterns, graph, method="bogus", processes=2))

    def test_serial_warmup_then_parallel_batch_replays_without_pool(self):
        """A serially warmed parent answers every cell from its own cache:
        the pool is never created (replay is pool-free by construction)."""
        patterns, graph = self._workload()
        session = Session()
        serial = session.solutions_many(patterns, graph)
        hits_before = session.cache.statistics.enum_hits
        parallel = session.solutions_many(patterns, graph, processes=2)
        assert parallel == serial
        assert session.cache.statistics.enum_hits > hits_before
        # No deltas were shipped because no worker ever ran.
        assert session.cache.statistics.deltas_absorbed == 0


class TestCrossProcessStreaming:
    """Parallel solutions_iter streams *within* a cell: fixed-size chunks
    cross the process boundary while the worker is still enumerating."""

    def _single_cell(self):
        graph = tprime_data_graph(7, 30, seed=23)
        forest = WDPatternForest([tprime_tree(2)])
        return forest, graph

    def test_chunks_arrive_before_the_cell_finishes(self):
        forest, graph = self._single_cell()
        session = Session()
        engine = session.engine(forest)
        expected = Engine(forest=forest).solutions(graph, method="natural")
        assert len(expected) > 3  # multi-solution workload, else vacuous
        cells, _grid = session._enumeration_cells([engine], graph, "natural")
        # A pool of two for the one cell, one solution per chunk message.
        events = list(session._drain(cells, 2, 1, None, None))
        tags = [event[0] for event in events]
        # More than one chunk per cell, every chunk before the done event:
        # the consumer sees solutions while the worker is still enumerating.
        assert tags.count("chunk") == len(expected)
        assert tags[-1] == "done" and "done" not in tags[:-1]
        streamed = [mu for tag, _position, mappings in events if tag == "chunk" for mu in mappings]
        assert len(streamed) == len(expected)
        assert set(streamed) == expected

    def test_first_solution_yields_before_exhaustion(self):
        """Two distinct cells engage the pool; the first solution of the
        front cell surfaces while both workers are still enumerating."""
        forest, graph = self._single_cell()
        other = WDPatternForest([tprime_tree(3)])
        expected = Engine(forest=forest).solutions(graph, method="natural")
        iterator = Session().solutions_iter(
            [forest, other], graph, processes=2, chunk_size=1
        )
        cell, mu = next(iterator)
        assert cell == (0, 0) and mu in expected
        rest = {}
        for later_cell, later_mu in iterator:
            rest.setdefault(later_cell, set()).add(later_mu)
        assert rest[(0, 0)] == expected - {mu}
        assert rest[(1, 0)] == Engine(forest=other).solutions(graph, method="natural")

    @pytest.mark.parametrize("chunk_size", [1, 3, 1000])
    @pytest.mark.parametrize("order", ["submitted", "completed"])
    def test_parity_across_chunk_sizes(self, order, chunk_size):
        graphs = [tprime_data_graph(6, 20, seed=11), tprime_data_graph(5, 15, seed=12)]
        repeated = WDPatternForest([tprime_tree(2)])
        patterns = [repeated, WDPatternForest([tprime_tree(3)]), repeated]
        matrix = Session().solutions_many(patterns, graphs)
        got = {}
        for cell, mu in Session().solutions_iter(
            patterns, graphs, order=order, processes=2, chunk_size=chunk_size
        ):
            got.setdefault(cell, set()).add(mu)
        for i in range(len(patterns)):
            for j in range(len(graphs)):
                assert got.get((i, j), set()) == matrix[i][j], (order, chunk_size, i, j)

    def test_session_default_chunk_size(self):
        forest, graph = self._single_cell()
        other = WDPatternForest([tprime_tree(3)])
        session = Session()
        expected = Session().solutions_many([forest, other], graph)
        got = {}
        for cell, mu in session.solutions_iter([forest, other], graph, processes=2, chunk_size=2):
            got.setdefault(cell, set()).add(mu)
        assert [got.get((i, 0), set()) for i in range(2)] == expected

    def test_invalid_chunk_sizes_rejected(self):
        forest, graph = self._single_cell()
        with pytest.raises(EvaluationError):
            next(Session().solutions_iter([forest], graph, processes=2, chunk_size=0))


class TestMutationSafety:
    """Version-snapshot regressions: a graph mutated mid-iteration (serial
    or parallel) must never leave stale entries in the parent cache."""

    def _mutate(self, graph):
        graph.add(Triple.of(str(EX["fresh"]), str(EX["fresh"]), str(EX["fresh"])))

    def _fresh_answers(self, forest, graph):
        return Engine(forest=forest).solutions(graph, method="natural")

    def test_serial_solutions_iter_mutation_between_cells(self):
        graph = tprime_data_graph(6, 20, seed=25)
        patterns = [WDPatternForest([tprime_tree(2)]), WDPatternForest([tprime_tree(3)])]
        session = Session()
        iterator = session.solutions_iter(patterns, graph)
        seen = {}
        mutated = False
        for cell, mu in iterator:
            if cell[0] == 1 and not mutated:
                # First solution of the second cell: mutate before draining.
                self._mutate(graph)
                mutated = True
            seen.setdefault(cell, set()).add(mu)
        # The cache must answer for the graph as it is *now*: fresh
        # enumerations replay nothing stale.
        for i, forest in enumerate(patterns):
            assert session.solutions(forest, graph) == self._fresh_answers(forest, graph)

    def test_serial_solutions_iter_mutation_mid_cell_does_not_poison(self):
        graph = tprime_data_graph(6, 20, seed=25)
        forest = WDPatternForest([tprime_tree(2)])
        session = Session()
        iterator = session.solutions_iter([forest], graph)
        next(iterator)
        self._mutate(graph)  # mid-cell: the stream's recording must be aborted
        for _ in iterator:
            pass
        (tree,) = list(forest)
        assert session.cache.tree_solution_list(tree, graph) is None
        assert session.solutions(forest, graph) == self._fresh_answers(forest, graph)

    def test_parallel_solutions_iter_mutation_drops_stale_deltas(self):
        graph = tprime_data_graph(7, 30, seed=27)
        forest = WDPatternForest([tprime_tree(2)])
        other = WDPatternForest([tprime_tree(3)])  # second distinct cell: pool engages
        session = Session()
        assert len(self._fresh_answers(forest, graph)) > 1
        iterator = session.solutions_iter(
            [forest, other], graph, processes=2, chunk_size=1
        )
        next(iterator)  # the front cell's first chunk is out; workers are mid-cell
        self._mutate(graph)  # parent-side mutation; the workers' copies are stale
        for _ in iterator:
            pass
        # The front cell's delta arrives after its last chunk — post-mutation
        # by construction — stamped with the pre-mutation version: dropped
        # whole, never merged.
        assert session.cache.statistics.delta_entries_stale > 0
        for tree in list(forest) + list(other):
            assert session.cache.tree_solution_list(tree, graph) is None
        assert session.solutions(forest, graph) == self._fresh_answers(forest, graph)
        assert session.solutions(other, graph) == self._fresh_answers(other, graph)

    def test_parallel_solutions_many_after_mutation_recomputes(self):
        graph = tprime_data_graph(6, 20, seed=29)
        patterns = [WDPatternForest([tprime_tree(2)]), WDPatternForest([tprime_tree(3)])]
        session = Session()
        session.solutions_many(patterns, graph, processes=2)  # absorb deltas
        self._mutate(graph)
        answers = session.solutions_many(patterns, graph, processes=2)
        assert answers == [self._fresh_answers(forest, graph) for forest in patterns]

    def _mutate_bulk(self, graph):
        """One add_all batch: a single version bump for several new triples."""
        graph.add_all(
            Triple.of(str(EX[f"bulk{i}"]), str(EX["bulk"]), str(EX[f"bulk{i + 1}"]))
            for i in range(3)
        )

    def test_serial_solutions_iter_bulk_mutation_mid_cell_does_not_poison(self):
        """Incremental index maintenance must not weaken the version fence:
        an add_all mid-cell aborts the stream's recording exactly like a
        chain of single adds used to."""
        graph = tprime_data_graph(6, 20, seed=25)
        forest = WDPatternForest([tprime_tree(2)])
        session = Session()
        iterator = session.solutions_iter([forest], graph)
        next(iterator)
        version = graph.version
        self._mutate_bulk(graph)
        assert graph.version == version + 1  # the batch bumps exactly once
        for _ in iterator:
            pass
        (tree,) = list(forest)
        assert session.cache.tree_solution_list(tree, graph) is None
        assert session.solutions(forest, graph) == self._fresh_answers(forest, graph)

    def test_parallel_solutions_iter_bulk_mutation_drops_stale_deltas(self):
        graph = tprime_data_graph(7, 30, seed=27)
        forest = WDPatternForest([tprime_tree(2)])
        other = WDPatternForest([tprime_tree(3)])
        session = Session()
        iterator = session.solutions_iter(
            [forest, other], graph, processes=2, chunk_size=1
        )
        next(iterator)
        self._mutate_bulk(graph)  # one bump; the in-flight stamps predate it
        for _ in iterator:
            pass
        assert session.cache.statistics.delta_entries_stale > 0
        for tree in list(forest) + list(other):
            assert session.cache.tree_solution_list(tree, graph) is None
        assert session.solutions(forest, graph) == self._fresh_answers(forest, graph)

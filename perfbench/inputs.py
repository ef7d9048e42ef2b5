"""Seeded inputs of the four workloads, and their oracle answers.

Every input is a pure function of the seed.  The oracle is the algebra
semantics, :func:`repro.evaluation.naive.evaluate_pattern`; it is computed
outside the timed region and every answer the program gives is checked
against it.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.evaluation.naive import evaluate_pattern
from repro.patterns.build import pattern_of_tree
from repro.rdf.generators import random_graph, social_network_graph
from repro.rdf.graph import RDFGraph
from repro.rdf.namespace import EX, FOAF
from repro.rdf.terms import Variable
from repro.rdf.triples import Triple
from repro.sparql.algebra import And, GraphPattern, Opt, TriplePatternNode
from repro.sparql.mappings import Mapping
from repro.sparql.parser import parse_pattern
from repro.workloads.families import fk_data_graph, fk_forest, fk_pattern
from repro.workloads.random_patterns import random_wd_tree

# --- serve-read / serve-write ------------------------------------------------
#: FOAF people in the served graph (about 7 triples each).
SERVE_PEOPLE = 1000
#: Candidate mappings per check query; the whole keyspace (2 queries) stays
#: far below the session cache, so after warm-up every check is a cache hit.
KEYS_PER_QUERY = 64
#: Candidate mappings per ``check`` request.
CANDIDATES_PER_CHECK = 4
#: Constant-anchored ``solutions`` queries (plus one full scan).
ANCHORED_QUERIES = 6
SOLUTIONS_SHARE = 0.10
UPDATE_SHARE = 0.05
#: Requests per stratum of the schedule (see :func:`serve_schedule`).
BLOCK = 20
#: Closed-loop socket clients.
CLIENTS = 2
#: The predicate updates write; no catalogue query reads it, so answers do
#: not depend on the graph version.
TOUCHED = EX.term("bench_touched").value


def _iri(term) -> str:
    return f"<{term.value}>"


KNOWS, MBOX, PHONE, BASED_NEAR = (
    _iri(FOAF.knows),
    _iri(FOAF.mbox),
    _iri(FOAF.phone),
    _iri(FOAF.basedNear),
)

#: Membership queries, each with the variable only its OPT part binds.
CHECK_QUERIES = (
    (f"((?x {KNOWS} ?y) OPT (?y {MBOX} ?e))", "e"),
    (f"((?x {BASED_NEAR} ?c) OPT (?x {PHONE} ?t))", "t"),
)
FULL_SCAN_QUERY = f"((?x {KNOWS} ?y) OPT (?y {PHONE} ?t))"


def serve_graph(seed: int) -> RDFGraph:
    return social_network_graph(SERVE_PEOPLE, seed=seed)


class ServeInputs:
    """Graph, query catalogue, candidate keyspace and oracle of serve-*."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.graph = serve_graph(seed)
        rng = random.Random(f"serve-catalogue-{seed}")
        anchors = rng.sample(range(SERVE_PEOPLE), ANCHORED_QUERIES)
        self.solutions_queries: List[str] = [
            f"((<{EX.term(f'person{i}').value}> {KNOWS} ?y) OPT (?y {MBOX} ?e))"
            for i in anchors
        ] + [FULL_SCAN_QUERY]
        self.check_queries: List[str] = [text for text, _ in CHECK_QUERIES]
        # Oracle answers, then the candidate keyspace drawn from them.
        self.expected_solutions: List[Set[Mapping]] = [
            evaluate_pattern(parse_pattern(text), self.graph) for text in self.solutions_queries
        ]
        self.keys: List[List[Mapping]] = []
        self.verdicts: List[List[bool]] = []
        for text, optional in CHECK_QUERIES:
            answers = evaluate_pattern(parse_pattern(text), self.graph)
            keys = _candidate_keys(answers, Variable(optional), rng)
            self.keys.append(keys)
            self.verdicts.append([mu in answers for mu in keys])


def _candidate_keys(answers: Set[Mapping], optional: Variable, rng: random.Random) -> List[Mapping]:
    """Half oracle answers, half near misses: an answer without its OPT binding.

    Such a mapping matches the mandatory part but is not maximal, so it is
    not an answer, and deciding that needs the OPT extension test.
    """
    ordered = sorted(answers, key=repr)
    positives = rng.sample(ordered, KEYS_PER_QUERY // 2)
    negatives: List[Mapping] = []
    for mu in rng.sample(ordered, len(ordered)):
        if len(negatives) == KEYS_PER_QUERY - len(positives):
            break
        if optional not in mu.domain():
            continue
        reduced = Mapping({var: term for var, term in mu.items() if var != optional})
        if reduced not in negatives:
            negatives.append(reduced)
    keys = positives + negatives
    rng.shuffle(keys)
    return keys


def serve_schedule(seed: int, client: int, writes: bool) -> Iterator[tuple]:
    """The endless, deterministic request sequence of one closed-loop client.

    Items are ``("check", query, key indices)``, ``("solutions", query)`` or
    ``("update", "add" | "remove", triple)``.  The mix is periodic: every
    block of :data:`BLOCK` requests has its updates and ``solutions`` at the
    same, evenly spread positions, and ``solutions`` cycles through the
    catalogue, the clients half a cycle apart.  A run's cost then does not
    hinge on how the dice placed the few expensive requests; the seed picks
    the graph, the anchors, the keys and the update triples.  Updates come in
    add/remove pairs on a predicate no query reads.
    """
    rng = random.Random(f"serve-schedule-{seed}-{client}-{int(writes)}")
    kinds = ["check"] * BLOCK
    solutions = round(BLOCK * SOLUTIONS_SHARE)
    for slot in range(solutions):
        kinds[(2 * slot + 1) * BLOCK // (2 * solutions)] = "solutions"
    updates = round(BLOCK * UPDATE_SHARE) if writes else 0
    for slot in range(updates):
        kinds[slot * BLOCK // updates] = "update"
    queries = ANCHORED_QUERIES + 1
    served = client * queries // CLIENTS  # clients start the cycle apart
    pending_remove: Optional[List[str]] = None
    pair = 0
    while True:
        for kind in kinds:
            if kind == "update":
                if pending_remove is None:
                    subject = EX.term(f"person{rng.randrange(SERVE_PEOPLE)}").value
                    pending_remove = [subject, TOUCHED, EX.term(f"token_{client}_{pair}").value]
                    pair += 1
                    yield ("update", "add", pending_remove)
                else:
                    yield ("update", "remove", pending_remove)
                    pending_remove = None
            elif kind == "solutions":
                yield ("solutions", served % queries)
                served += 1
            else:
                query = rng.randrange(len(CHECK_QUERIES))
                yield ("check", query, rng.sample(range(KEYS_PER_QUERY), CANDIDATES_PER_CHECK))


# --- fk-check and enum-pool: one structure per workload, relabelled by seed ---
#: Generator seed of the data-graph structure of fk-check and enum-pool.
#: Different random structures move fk-check's throughput by about 8% per
#: graph, and enum-pool's answer counts by 5x, more than any bound can
#: absorb; so the structure is fixed and the seed renames its nodes.
STRUCTURE_SEED = 0


def relabeled(graph: RDFGraph, seed: int) -> RDFGraph:
    """An isomorphic copy of *graph* with its nodes shuffled and renamed by *seed*.

    Predicates keep their names, so constant-free queries have the same
    number of answers on every copy; the IRIs, their interning order and
    so every index order differ.
    """
    predicates = graph.predicates()
    nodes = sorted((term for term in graph.domain() if term not in predicates), key=str)
    names = list(range(len(nodes)))
    random.Random(f"relabel-{seed}").shuffle(names)
    rename = {node: EX.term(f"n{seed}_{name}") for node, name in zip(nodes, names)}
    return RDFGraph.from_triples(
        [Triple(rename[t.subject], t.predicate, rename[t.object]) for t in graph]
    )


FK_K = 3
FK_NODES = 200
FK_TRIPLES = 1600


class FkInputs:
    """F_3 (Figure 2) against a random p/q/r graph, every p-edge as a mapping."""

    def __init__(self, seed: int) -> None:
        self.forest = fk_forest(FK_K)
        self.graph = relabeled(fk_data_graph(FK_NODES, FK_TRIPLES, seed=STRUCTURE_SEED), seed)
        p = EX.term("p")
        x, y = Variable("x"), Variable("y")
        self.mappings: List[Mapping] = sorted(
            (Mapping({x: t.subject, y: t.object}) for t in self.graph if t.predicate == p),
            key=repr,
        )

    def oracle(self) -> List[bool]:
        answers = evaluate_pattern(fk_pattern(FK_K), self.graph)
        return [mu in answers for mu in self.mappings]


# --- enum-pool ----------------------------------------------------------------
ENUM_NODES = 120
ENUM_TRIPLES = 900
ENUM_DISTINCT = 24
ENUM_REPEATS = 3
#: Answers a query-log pattern may have; a few huge answer sets would
#: otherwise decide a run's figures.
ENUM_MAX_ANSWERS = 400
#: Mapping pairs the algebra oracle may compare in all; random trees whose
#: oracle would exceed it are redrawn (its joins are nested loops, and an
#: unlucky tree takes minutes).
ORACLE_PAIR_CAP = 150_000

#: A mapping while the query log is drawn: a frozenset of (variable, term).
Answer = FrozenSet[Tuple[Variable, object]]


def _capped_answers(pattern: GraphPattern, graph: RDFGraph, allowance: int) -> Optional[Tuple[Set[Answer], int]]:
    """``⟦pattern⟧G`` by the algebra, and the mapping pairs its oracle compares.

    :func:`evaluate_pattern` compares every pair of its operands' answers at
    each binary node, so its cost on *pattern* is the sum of the products of
    the operand sizes: a property of the pattern and the graph, not of the
    engine the benchmark measures.  The sizes come from the same bottom-up
    evaluation, joined by hashing rather than pairwise so that drawing the
    log stays cheap.  ``None`` once the pairs would pass *allowance*.
    """
    if isinstance(pattern, TriplePatternNode):
        return {frozenset(binding.items()) for binding in graph.solutions(pattern.triple_pattern)}, 0
    outer = {And: False, Opt: True}[type(pattern)]
    left = _capped_answers(pattern.left, graph, allowance)
    if left is None:
        return None
    right = _capped_answers(pattern.right, graph, allowance - left[1])
    if right is None:
        return None
    pairs = left[1] + right[1] + len(left[0]) * len(right[0])
    if pairs > allowance:
        return None
    return _hash_join(left[0], right[0], outer), pairs


def _hash_join(left: Set[Answer], right: Set[Answer], outer: bool) -> Set[Answer]:
    """``Ω1 ⋈ Ω2``, or ``Ω1 ⟕ Ω2`` when *outer*.

    Right mappings are grouped by domain; each group is indexed on the
    variables it shares with a left mapping, so compatible pairs are looked
    up instead of compared.
    """
    groups: Dict[FrozenSet[Variable], List[Answer]] = {}
    for nu in right:
        groups.setdefault(frozenset(var for var, _ in nu), []).append(nu)
    indexes: Dict[tuple, Dict[tuple, List[Answer]]] = {}
    result: Set[Answer] = set()
    for mu in left:
        values = dict(mu)
        extended = False
        for domain, members in groups.items():
            shared = tuple(sorted(domain & values.keys(), key=str))
            index = indexes.get((domain, shared))
            if index is None:
                index = indexes[(domain, shared)] = {}
                for nu in members:
                    bound = dict(nu)
                    index.setdefault(tuple(bound[var] for var in shared), []).append(nu)
            for nu in index.get(tuple(values[var] for var in shared), ()):
                result.add(mu | nu)
                extended = True
        if outer and not extended:
            result.add(mu)
    return result


def enum_structure() -> RDFGraph:
    return random_graph(ENUM_NODES, ENUM_TRIPLES, seed=STRUCTURE_SEED)


def query_log() -> List[GraphPattern]:
    """The distinct patterns of enum-pool's query log (the same for every seed).

    Random wdPTs drawn from a fixed stream, kept when they have between 1
    and :data:`ENUM_MAX_ANSWERS` answers and an oracle within
    :data:`ORACLE_PAIR_CAP` on the workload's graph structure.  Both tests
    are sizes under the algebra semantics (:func:`_capped_answers`), so the
    log does not depend on the engine under test.  With a per-seed log, a few heavy trees moved a run's
    throughput by 20%.
    """
    reference = enum_structure()
    rng = random.Random("enum-patterns")
    distinct: List[GraphPattern] = []
    while len(distinct) < ENUM_DISTINCT:
        pattern = pattern_of_tree(random_wd_tree(num_nodes=4, rng=rng))
        if pattern in distinct:
            continue
        sized = _capped_answers(pattern, reference, ORACLE_PAIR_CAP)
        if sized is not None and 0 < len(sized[0]) <= ENUM_MAX_ANSWERS:
            distinct.append(pattern)
    return distinct


class EnumInputs:
    """The query log, each pattern repeated, over one random graph per seed."""

    def __init__(self, seed: int) -> None:
        self.graph = relabeled(enum_structure(), seed)
        self.distinct = query_log()
        self.log: List[GraphPattern] = [
            self.distinct[i % ENUM_DISTINCT] for i in range(ENUM_DISTINCT * ENUM_REPEATS)
        ]

    def oracle(self) -> List[Set[Mapping]]:
        by_pattern = {pattern: evaluate_pattern(pattern, self.graph) for pattern in self.distinct}
        return [by_pattern[pattern] for pattern in self.log]


def answer_count(answer_sets: Sequence[Set[Mapping]]) -> int:
    return sum(len(answers) for answers in answer_sets)


def wire_multiset(answers: Iterable[Dict[str, str]]) -> Counter:
    """An order-free form of a wire answer list that still counts duplicates."""
    return Counter(tuple(sorted(binding.items())) for binding in answers)

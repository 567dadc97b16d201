"""Admissibility tests for repro.search.bounds (Lemma 1).

The property at stake: for every candidate ``C`` and every answer ``T``
expandable from ``C`` (``T ⊇ C`` attaching only through C's root),
``ub(C) >= score(T)``.  We enumerate answers exhaustively on random small
graphs and check the bound against every (C, T) pair where C is a rooted
subtree of T whose non-root nodes keep their full T-neighborhood — the
exact invariant grow/merge maintains.  Bounds come from
``UpperBoundEstimator.tree_bound``, which runs the same ``bound``
arithmetic as the search engine's head tightening.
"""

import itertools

import pytest

from repro import (
    DampeningModel,
    InvertedIndex,
    JoinedTupleTree,
    KeywordMatcher,
    PairsIndex,
    RWMPParams,
    RWMPScorer,
    SearchParams,
    enumerate_answers,
    pagerank,
)
from repro.search.arena import NO_ID
from repro.search.bounds import UpperBoundEstimator
from repro.search.branch_and_bound import BranchAndBoundSearch
from .conftest import make_query_env, random_test_graph


def rooted_subtrees(tree: JoinedTupleTree, match):
    """All candidate-shaped ``(subtree, root)`` pairs of an answer tree.

    A valid candidate inside ``T`` is a connected subtree ``C`` with a
    root ``r`` such that every edge of ``T`` leaving ``C`` is incident to
    ``r`` (the grow/merge invariant), and ``C`` covers >= 1 keyword.
    """
    nodes = sorted(tree.nodes)
    for size in range(1, len(nodes) + 1):
        for subset in itertools.combinations(nodes, size):
            sub_set = set(subset)
            sub_edges = [
                e for e in tree.edges if e[0] in sub_set and e[1] in sub_set
            ]
            if len(sub_edges) != size - 1:
                continue
            try:
                sub = JoinedTupleTree(sub_set, sub_edges)
            except Exception:
                continue
            boundary = {
                (a if b in sub_set else b)
                for a, b in tree.edges
                if (a in sub_set) != (b in sub_set)
            }
            covered = match.covered_by(sub_set)
            if not covered:
                continue
            roots = boundary if boundary else sub_set
            if len(boundary) > 1:
                continue  # expansion through two nodes: not candidate-shaped
            for root in roots:
                if root in sub_set:
                    yield sub, root


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("use_index", [False, True])
def test_upper_bound_admissible(seed, use_index):
    g = random_test_graph(seed, n=9, extra_edges=5)
    index = InvertedIndex.build(g)
    matcher = KeywordMatcher(index)
    query = ["apple berry", "cedar", "apple delta"][seed % 3]
    try:
        match = matcher.match(query)
    except Exception:
        pytest.skip("query tokens absent in this random graph")
    if not match.matchable:
        pytest.skip("unmatchable query")
    importance = pagerank(g)
    dampening = DampeningModel(importance, RWMPParams())
    scorer = RWMPScorer(g, index, match, dampening)
    graph_index = PairsIndex(g, dampening) if use_index else None
    estimator = UpperBoundEstimator(g, scorer, graph_index)

    answers = list(enumerate_answers(g, match, max_diameter=4, max_nodes=6))
    checked = 0
    for answer in answers[:40]:
        score = scorer.score(answer)
        for sub, root in rooted_subtrees(answer, match):
            ub = estimator.tree_bound(sub, root)
            assert ub + 1e-9 + 1e-9 * abs(ub) >= score, (
                f"inadmissible bound: ub({sorted(sub.nodes)}, "
                f"root={root}) = {ub} < score({sorted(answer.nodes)}) "
                f"= {score}"
            )
            checked += 1
    if checked == 0:
        pytest.skip("no (candidate, answer) pairs in this instance")


def _search(graph, query, diameter, index=None, doctor=None):
    """Run one arena search; returns (search, answers, initial roots).

    ``initial roots`` are the single-node rows that survived admission —
    the completion-impossible prune reclaims the others.
    """
    _, match, scorer = make_query_env(graph, query)
    if doctor is not None:
        doctor(match)
    search = BranchAndBoundSearch(
        graph, scorer, match,
        SearchParams(k=5, diameter=diameter, strict_merge=False),
        index=index,
    )
    answers = search.run()
    arena = search.last_arena
    initial = sorted(
        arena.root[cid] for cid in range(len(arena))
        if arena.parent[cid] == NO_ID
    )
    return search, answers, initial


class TestCompletionImpossible:
    """The engine's admit-time prune: a candidate is dropped when some
    missing keyword cannot be supplied within the diameter cap."""

    def test_missing_keyword_with_no_nodes(self, chain_graph):
        def no_berry(match):
            # doctor the match sets: pretend 'berry' matches nothing
            match.per_keyword["berry"] = set()

        search, _, initial = _search(
            chain_graph, "apple berry", 4, doctor=no_berry
        )
        assert 0 not in initial  # apple's node can never be completed
        assert search.stats.pruned_distance >= 1

    def test_distance_pruning_with_index(self, chain_graph):
        _, _, scorer = make_query_env(chain_graph, "apple berry")
        pairs = PairsIndex(chain_graph, scorer.dampening)
        # berry node (3) is 3 hops from apple (0): diameter 2 cannot be met
        search, answers, initial = _search(
            chain_graph, "apple berry", 2, index=pairs
        )
        assert initial == [] and answers == []
        assert search.stats.pruned_distance == 2
        search, answers, initial = _search(
            chain_graph, "apple berry", 3, index=pairs
        )
        assert initial == [0, 3]
        assert [sorted(a.tree.nodes) for a in answers] == [[0, 1, 2, 3]]

    def test_without_index_no_distance_pruning(self, chain_graph):
        search, answers, initial = _search(chain_graph, "apple berry", 2)
        assert initial == [0, 3]
        assert search.stats.pruned_distance == 0
        assert answers == []

    def test_complete_candidate_never_pruned(self, chain_graph):
        search, answers, initial = _search(chain_graph, "apple", 0)
        assert initial == [0]
        assert search.stats.pruned_distance == 0
        assert [sorted(a.tree.nodes) for a in answers] == [[0]]


class TestBoundTightness:
    def test_complete_candidate_bound_at_least_score(self, chain_graph):
        _, match, scorer = make_query_env(chain_graph, "apple berry")
        estimator = UpperBoundEstimator(chain_graph, scorer, None)
        chain = JoinedTupleTree([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3)])
        assert match.covered_by(chain.nodes) == frozenset(match.keywords)
        ub = estimator.tree_bound(chain, 3)
        assert ub >= scorer.score(chain)

    def test_index_tightens_bound(self, chain_graph):
        """The pairs index can only lower (tighten) the upper bound."""
        _, match, scorer = make_query_env(chain_graph, "apple berry")
        loose = UpperBoundEstimator(chain_graph, scorer, None)
        tight = UpperBoundEstimator(
            chain_graph, scorer, PairsIndex(chain_graph, scorer.dampening)
        )
        single = JoinedTupleTree.single(0)
        assert (
            tight.tree_bound(single, 0)
            <= loose.tree_bound(single, 0) + 1e-12
        )

    def test_sourceless_candidate_zero(self, chain_graph):
        _, match, scorer = make_query_env(chain_graph, "apple")
        estimator = UpperBoundEstimator(chain_graph, scorer, None)
        # a tree over free nodes only
        free = JoinedTupleTree([1, 2], [(1, 2)])
        assert estimator.tree_bound(free, 1) == 0.0

"""Candidate generation in the arena engine (grow/merge bookkeeping).

Every candidate the search admits is a row of the run's
:class:`~repro.search.arena.CandidateArena`.  These tests run real
searches on hand-built graphs — with ``k`` large enough that the top-k
list never fills, so no bound prune reclaims anything — and read the
surviving rows back: initial rows, grows (``parent`` set, no
``partner``) and merges (both set).  The grow/merge operators and the
answer test must keep the invariants the bounds and Theorem 1 rely on.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import DataGraph, JoinedTupleTree, SearchParams
from repro.exceptions import EvaluationError
from repro.graph.traversal import tree_diameter
from repro.search.arena import NO_ID, pack_edge, unpack_edge
from repro.search.branch_and_bound import BranchAndBoundSearch
from .conftest import make_query_env, random_test_graph

#: Larger than any answer space here: the list never fills, so every
#: non-duplicate candidate within the diameter cap stays in the arena.
ALL_K = 500


def _run(graph, query, diameter=4, strict=False, k=ALL_K):
    """Run one arena search; returns (search, answers)."""
    _, match, scorer = make_query_env(graph, query)
    search = BranchAndBoundSearch(
        graph, scorer, match,
        SearchParams(k=k, diameter=diameter, strict_merge=strict),
    )
    return search, search.run()


def _covered(match, mask):
    return frozenset(
        k for i, k in enumerate(match.keywords) if mask >> i & 1
    )


def _rows(search):
    """Every surviving row as a dict of its columns (plus node set)."""
    arena = search.last_arena
    rows = []
    for cid in range(len(arena)):
        rows.append({
            "cid": cid,
            "root": arena.root[cid],
            "depth": arena.depth[cid],
            "diameter": arena.diameter[cid],
            "nodes": list(arena.nodes_of(cid)),
            "edges": list(arena.edges_of(cid)),
            "srcs": list(arena.sources_of(cid)),
            "covered": _covered(search.match, arena.cover[cid]),
            "parent": arena.parent[cid],
            "partner": arena.partner[cid],
        })
    return rows


def _find(rows, root, nodes):
    hits = [r for r in rows if r["root"] == root and r["nodes"] == nodes]
    assert len(hits) == 1, f"expected one row rooted {root} over {nodes}"
    return hits[0]


def _grows(rows):
    return [r for r in rows if r["parent"] != NO_ID and r["partner"] == NO_ID]


def _merges(rows):
    return [r for r in rows if r["partner"] != NO_ID]


@pytest.fixture()
def star_search(star_graph):
    search, answers = _run(star_graph, "apple berry cedar")
    return search, _rows(search), answers


class TestInitial:
    def test_single_node(self, star_search):
        _, rows, _ = star_search
        row = _find(rows, 1, [1])
        assert row["parent"] == NO_ID
        assert row["depth"] == 0 and row["diameter"] == 0
        assert row["edges"] == [] and row["srcs"] == [1]
        assert row["covered"] == frozenset({"apple"})

    def test_free_node_rejected(self, star_search):
        """Initial rows are exactly the non-free nodes: the free hub 0
        never seeds a candidate."""
        search, rows, _ = star_search
        initial = sorted(r["root"] for r in rows if r["parent"] == NO_ID)
        assert initial == sorted(search.match.all_nodes)
        assert 0 not in initial


class TestGrow:
    def test_grow_updates_bookkeeping(self, star_search):
        _, rows, _ = star_search
        row = _find(rows, 0, [0, 1])
        assert rows[row["parent"]]["nodes"] == [1]
        assert row["depth"] == 1 and row["diameter"] == 1
        assert row["edges"] == [pack_edge(0, 1)]
        assert row["srcs"] == [1]
        assert row["covered"] == frozenset({"apple"})

    def test_grow_collects_keywords(self, star_search):
        _, rows, _ = star_search
        row = _find(rows, 2, [0, 1, 2])
        assert rows[row["parent"]]["nodes"] == [0, 1]
        assert row["covered"] == frozenset({"apple", "berry"})
        assert row["srcs"] == [1, 2]

    def test_grow_into_tree_rejected(self, star_search):
        """A grow attaches a new leaf root by a graph edge to the old
        root — never a node already in the tree."""
        search, rows, _ = star_search
        grows = _grows(rows)
        assert grows
        for row in grows:
            parent = rows[row["parent"]]
            assert row["root"] not in parent["nodes"]
            assert sorted(parent["nodes"] + [row["root"]]) == row["nodes"]
            edge = pack_edge(parent["root"], row["root"])
            assert sorted(parent["edges"] + [edge]) == row["edges"]
            assert search.graph.has_edge(parent["root"], row["root"])
            assert row["depth"] == parent["depth"] + 1


class TestMerge:
    def test_merge_at_common_root(self, star_search):
        _, rows, _ = star_search
        merged = [
            r for r in _merges(rows)
            if r["root"] == 0 and r["nodes"] == [0, 1, 2]
        ]
        assert len(merged) == 1
        row = merged[0]
        assert row["covered"] == frozenset({"apple", "berry"})
        assert row["depth"] == 1 and row["diameter"] == 2
        assert row["edges"] == [pack_edge(0, 1), pack_edge(0, 2)]

    def test_merge_requires_same_root(self, star_search):
        _, rows, _ = star_search
        merges = _merges(rows)
        assert merges
        for row in merges:
            assert rows[row["parent"]]["root"] == row["root"]
            assert rows[row["partner"]]["root"] == row["root"]

    def test_merge_rejects_node_overlap(self, star_search):
        """The paper's cycle 'sanity check': operands share only the
        root node, so the union keeps every edge and stays a tree."""
        _, rows, _ = star_search
        for row in _merges(rows):
            a = set(rows[row["parent"]]["nodes"])
            b = set(rows[row["partner"]]["nodes"])
            assert a & b == {row["root"]}
            assert set(row["nodes"]) == a | b
            assert len(row["edges"]) == len(row["nodes"]) - 1

    def test_strict_merge_requires_new_keywords(self):
        """The paper's merge precondition: the union must cover strictly
        more keywords than either operand.  Two apple leaves on one hub
        give the permissive mode a merge that adds nothing."""
        g = DataGraph()
        g.add_node("hub", "center")       # 0
        g.add_node("t", "apple")          # 1
        g.add_node("t", "berry")          # 2
        g.add_node("t", "apple")          # 3
        for leaf in (1, 2, 3):
            g.add_link(0, leaf, 1.0, 1.0)

        def no_gain(rows, row):
            covered = row["covered"]
            return (
                covered == rows[row["parent"]]["covered"]
                or covered == rows[row["partner"]]["covered"]
            )

        search, _ = _run(g, "apple berry", strict=True)
        rows = _rows(search)
        assert _merges(rows)
        assert not any(no_gain(rows, r) for r in _merges(rows))
        search, _ = _run(g, "apple berry", strict=False)
        rows = _rows(search)
        assert any(
            no_gain(rows, r) and r["nodes"] == [0, 1, 3]
            for r in _merges(rows)
        )


class TestCompleteness:
    def test_is_complete_and_answer(self, star_graph):
        """The three-leaf star is the only answer: found at D = 2,
        beyond the cap at D = 1."""
        _, answers = _run(star_graph, "apple berry cedar", diameter=2)
        assert [sorted(a.tree.nodes) for a in answers] == [[0, 1, 2, 3]]
        _, answers = _run(star_graph, "apple berry cedar", diameter=1)
        assert answers == []

    def test_incomplete_candidate(self, star_search):
        """Only rows covering every keyword are offered as answers."""
        search, rows, answers = star_search
        everything = frozenset(search.match.keywords)
        assert _find(rows, 1, [1])["covered"] != everything
        complete = {
            frozenset(r["nodes"]) for r in rows if r["covered"] == everything
        }
        assert answers
        assert all(a.tree.nodes in complete for a in answers)

    def test_free_root_single_child_not_answer(self, star_graph):
        """A candidate whose free root has one child is complete but not
        a valid answer (Definition 3's root clause)."""
        search, answers = _run(star_graph, "apple")
        row = _find(_rows(search), 0, [0, 1])
        assert row["covered"] == frozenset({"apple"})
        assert [sorted(a.tree.nodes) for a in answers] == [[1]]

    def test_signature_identity(self, star_search):
        """Duplicate (root, tree) candidates are rolled back: surviving
        rows are pairwise distinct, and duplicates did occur."""
        search, rows, _ = star_search
        signatures = {
            (r["root"], tuple(r["nodes"]), tuple(r["edges"])) for r in rows
        }
        assert len(signatures) == len(rows)
        assert search.last_arena.rollbacks > 0


class TestDiameterBookkeeping:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=4),
    )
    def test_incremental_diameter_matches_recomputation(self, seed, cap):
        """Every row's incrementally maintained depth/diameter equals a
        recomputation from its materialized tree."""
        g = random_test_graph(seed, n=8, extra_edges=4)
        try:
            search, _ = _run(g, "apple berry", diameter=cap, k=3)
        except EvaluationError:
            return  # query tokens absent in this random graph
        arena = search.last_arena
        for cid in range(len(arena)):
            edges = [unpack_edge(c) for c in arena.edges_of(cid)]
            tree = JoinedTupleTree(list(arena.nodes_of(cid)), edges)
            root = arena.root[cid]
            assert arena.diameter[cid] == (
                tree_diameter(tree.edges) if edges else 0
            )
            assert arena.diameter[cid] <= cap
            assert arena.depth[cid] == max(
                len(tree.path(root, node)) - 1 for node in tree.nodes
            )

"""Property-based tests for the search phase's incremental state.

Three layers of the lazy search get their own falsifiable contracts here,
on top of the oracle legs already wired into
:func:`repro.testing.differential_check` (which also runs a warm
answer-cache lookup on every case):

* **structural sharing** — the arena's incrementally maintained
  per-row state (factor lists built from the parent's at tighten time,
  sorted node/edge/source slices, cover masks, depth/diameter) is
  *exactly* equal to a from-scratch recomputation from the row's tree,
  for every row an actual search tightens;
* **bound parity** — the engine's tightened bound equals
  ``UpperBoundEstimator.tree_bound`` (transfer factors rebuilt from the
  graph) bitwise: both run the one ``bound`` computation;
* **mutation sensitivity** — an inadmissible (deflated) cheap bound is
  caught by the differential oracle within a bounded seed sweep, while
  an inflated (loose but admissible) one stays sound.  This is what
  makes the lazy-bound machinery falsifiable: soundness must come from
  admissibility, never from the cheap bound's tightness.
"""

from __future__ import annotations

import dataclasses

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import CIRankSystem, JoinedTupleTree
from repro.search.arena import NO_ID, pack_edge, unpack_edge
from repro.search.branch_and_bound import BranchAndBoundSearch
from repro.testing import DifferentialFailure, check_case, random_case

#: Seeds to try before concluding a mutation went unnoticed (mirrors
#: ``TestMutationsAreCaught`` in test_properties_differential.py).
SWEEP = 80

#: Per-search cap on rows re-checked against the from-scratch
#: recomputations (the heavy ones are O(|C|^2) per row).
RECHECK_CAP = 150


def _search_for_seed(seed: int):
    """Build the arena search for one generated case.

    Returns None when the case is trivial (unanalyzable or unmatchable
    query) — there is nothing to check.
    """
    case = random_case(seed)
    params = dataclasses.replace(case.params, strict_merge=False)
    system = CIRankSystem.from_database(
        case.db, weights=case.weights, search_params=params
    )
    try:
        match = system.matcher.match(case.query)
    except Exception:
        return None
    if params.semantics == "or":
        if not any(match.per_keyword.values()):
            return None
    elif not match.matchable:
        return None
    scorer = system.scorer_for(match)
    return BranchAndBoundSearch(system.graph, scorer, match, params)


def _tightened_rows(search: BranchAndBoundSearch):
    """Run the search; yield (cid, validated tree) per tightened row."""
    search.run()
    arena = search.last_arena
    rows = [cid for cid in range(len(arena)) if arena.fmap_start[cid] != NO_ID]
    for cid in rows[:RECHECK_CAP]:
        edges = [unpack_edge(code) for code in arena.edges_of(cid)]
        yield cid, JoinedTupleTree(list(arena.nodes_of(cid)), edges)


# ------------------------------------------------- incremental invariants


@given(seed=st.integers(min_value=0, max_value=10**9))
@settings(max_examples=20, suppress_health_check=[HealthCheck.too_slow])
def test_incremental_state_matches_recomputation(seed):
    """Every tightened row's cached state equals a fresh rebuild.

    Covers the structurally shared factor lists (against
    ``UpperBoundEstimator._tree_transfer``, exact float equality — both
    sides sum the split denominator over sorted neighbors), the sorted
    node/edge/source slices, the cover mask, and depth/diameter.
    """
    search = _search_for_seed(seed)
    if search is None:
        return
    bounds = search.bounds
    match = search.match
    keywords = list(match.keywords)
    for cid, tree in _tightened_rows(search):
        arena = search.last_arena
        root = arena.root[cid]
        assert list(arena.nodes_of(cid)) == sorted(tree.nodes)
        assert list(arena.edges_of(cid)) == sorted(
            pack_edge(a, b) for a, b in tree.edges
        )
        assert list(arena.sources_of(cid)) == tree.non_free_nodes(match)
        covered = match.covered_by(tree.nodes)
        assert arena.cover[cid] == sum(
            1 << i for i, k in enumerate(keywords) if k in covered
        )
        assert arena.diameter[cid] == tree.diameter
        assert arena.depth[cid] == max(
            len(tree.path(root, n)) - 1 for n in tree.nodes
        )
        rebuilt = bounds._tree_transfer(tree, root)
        for node, fid in arena.fmap_of(cid).items():
            start = arena.flist_start[fid]
            stop = start + arena.flist_len[fid]
            incremental = dict(zip(
                arena.flist_nbr[start:stop], arena.flist_tau[start:stop]
            ))
            assert incremental == dict(rebuilt[node]), (
                f"factor lists diverge at node {node} "
                f"(seed={seed}, cid={cid})"
            )


@given(seed=st.integers(min_value=0, max_value=10**9))
@settings(max_examples=20, suppress_health_check=[HealthCheck.too_slow])
def test_fast_bound_matches_reference_bitwise(seed):
    """The engine's tightened ``ub`` == ``tree_bound`` with no tolerance.

    The engine reads the row's incremental factor lists; ``tree_bound``
    rebuilds them from the graph.  Both feed the one
    ``UpperBoundEstimator.bound``, so the results are bitwise identical
    — any drift means the incremental state changed the math.
    """
    search = _search_for_seed(seed)
    if search is None:
        return
    for cid, tree in _tightened_rows(search):
        arena = search.last_arena
        fast = arena.ub[cid]
        reference = search.bounds.tree_bound(tree, arena.root[cid])
        assert fast == reference, (
            f"engine bound {fast!r} != tree_bound {reference!r} "
            f"(seed={seed}, cid={cid})"
        )


# ------------------------------------------------------ mutation testing


class TestCheapBoundMutations:
    """The differential oracle must notice an inadmissible cheap bound."""

    def test_deflated_cheap_bound_is_caught(self, monkeypatch):
        """A cheap bound far below the inherited value is inadmissible:
        the search stops (or prunes) while better answers remain, and
        the oracle comparison notices within the sweep."""
        real = BranchAndBoundSearch._cheap_bound
        monkeypatch.setattr(
            BranchAndBoundSearch,
            "_cheap_bound",
            lambda self, inherited: 0.01 * real(self, inherited),
        )
        with pytest.raises(DifferentialFailure):
            for seed in range(SWEEP):
                check_case(
                    random_case(seed),
                    check_indexes=False,
                    check_naive=False,
                    check_strict=False,
                )

    def test_inflated_cheap_bound_stays_sound(self):
        """A looser-but-admissible cheap bound must not change results.

        Inflating the inherited bound only delays pruning; the tight
        bound still gates expansion and the stop rule still certifies
        the top-k.  This pins down that correctness rests on
        admissibility alone, never on the cheap bound's tightness.
        """
        real = BranchAndBoundSearch._cheap_bound
        BranchAndBoundSearch._cheap_bound = (
            lambda self, inherited: 4.0 * real(self, inherited) + 1e-6
        )
        try:
            for seed in range(30):
                check_case(
                    random_case(seed),
                    check_indexes=False,
                    check_naive=False,
                    check_strict=False,
                )
        finally:
            BranchAndBoundSearch._cheap_bound = real

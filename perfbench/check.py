"""Output check, run after the timed phase.

Every returned answer list is held to four rules:

* at most k answers, in non-increasing score order;
* every score equals the score re-derived from the answer's tree by
  ``repro.testing.oracles.oracle_tree_score`` (pure-Python RWMP) under
  the ranking that was live when the answer was served;
* its tie classes equal the ones ``expected.json`` recorded for the
  query (when the answer was served under the recorded ranking);
* an HTTP answer's tie classes equal the direct answer's for the same
  query.

A list that breaks any rule counts as a wrong answer in ``error_rate``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.model.jtt import JoinedTupleTree
from repro.obs.replay import tie_classes_direct, tie_classes_wire
from repro.testing.oracles import oracle_tree_score

EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"

#: Kernel and oracle sum in different orders; the repository's own
#: kernel-vs-oracle tests hold them to 1e-12, this leaves headroom.
SCORE_RTOL = 1e-9


def encode_tie_classes(classes) -> List[Any]:
    """JSON form of ``tie_classes_*`` output (trees sorted per class)."""
    return [
        [score, sorted([list(nodes), [list(e) for e in edges]]
                       for nodes, edges in trees)]
        for score, trees in classes
    ]


def decode_tie_classes(encoded) -> List[Tuple]:
    return [
        (score, frozenset(
            (tuple(nodes), tuple(tuple(e) for e in edges))
            for nodes, edges in trees
        ))
        for score, trees in encoded
    ]


def load_expected() -> Dict[str, Dict[str, List[Tuple]]]:
    """``{"<stack>|<index>": {query: tie classes}}``."""
    with open(EXPECTED_FILE, encoding="utf-8") as handle:
        raw = json.load(handle)
    return {
        key: {query: decode_tie_classes(c) for query, c in per.items()}
        for key, per in raw.items()
    }


def check_direct(
    system,
    query: str,
    answers: Sequence[Any],
    k: int,
    dampening=None,
    expected: Optional[List[Tuple]] = None,
) -> List[str]:
    """Problems with one direct answer list (empty when correct).

    ``dampening`` is the ranking the answers were served under (defaults
    to the system's current one).
    """
    problems = _shape(query, [a.score for a in answers], k)
    match = system.matcher.match(query)
    dampening = dampening if dampening is not None else system.dampening
    for rank, answer in enumerate(answers):
        oracle = oracle_tree_score(
            system.graph, answer.tree, match, system.index, dampening
        )
        if not math.isclose(answer.score, oracle, rel_tol=SCORE_RTOL,
                            abs_tol=1e-15):
            problems.append(
                f"{query!r} rank {rank}: score {answer.score!r} != "
                f"oracle {oracle!r}"
            )
    if expected is not None and tie_classes_direct(answers) != expected:
        problems.append(f"{query!r}: tie classes differ from expected.json")
    return problems


def check_wire(
    system,
    query: str,
    wire_answers: Sequence[Dict[str, Any]],
    k: int,
    direct_classes: List[Tuple],
) -> List[str]:
    """Problems with one HTTP answer list, against the direct answers."""
    problems = _shape(query, [a["score"] for a in wire_answers], k)
    if tie_classes_wire(wire_answers) != direct_classes:
        problems.append(f"{query!r}: HTTP tie classes differ from direct")
    for answer in wire_answers[:1]:
        # Scores already match the direct (oracle-checked) answers when
        # the tie classes do; re-derive the first one from the wire tree
        # as well, so a mismatch in the wire encoding of trees shows.
        tree = JoinedTupleTree(answer["nodes"], answer["edges"])
        oracle = oracle_tree_score(
            system.graph, tree, system.matcher.match(query), system.index,
            system.dampening,
        )
        if not math.isclose(answer["score"], oracle, rel_tol=SCORE_RTOL,
                            abs_tol=1e-15):
            problems.append(f"{query!r}: HTTP score != oracle")
    return problems


def _shape(query: str, scores: Sequence[float], k: int) -> List[str]:
    problems = []
    if len(scores) > k:
        problems.append(f"{query!r}: {len(scores)} answers > k={k}")
    if any(a < b for a, b in zip(scores, scores[1:])):
        problems.append(f"{query!r}: scores not in non-increasing order")
    return problems

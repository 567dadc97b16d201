"""Top-k answer generation: naive, exhaustive, and branch-and-bound."""

from .naive import NaiveSearch
from .enumerate import enumerate_answers
from .bounds import UpperBoundEstimator
from .arena import CandidateArena
from .branch_and_bound import (
    AnytimeSnapshot,
    BranchAndBoundSearch,
    SearchStats,
)
from .sharded import ShardedExecutor, ShardedSearch, ShardWorkerPool

__all__ = [
    "CandidateArena",
    "NaiveSearch",
    "enumerate_answers",
    "UpperBoundEstimator",
    "AnytimeSnapshot",
    "BranchAndBoundSearch",
    "SearchStats",
    "ShardedExecutor",
    "ShardedSearch",
    "ShardWorkerPool",
]

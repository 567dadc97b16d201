"""CI-Rank: ranking keyword search results by collective importance.

A from-scratch reproduction of Yu & Shi, "CI-Rank: Ranking Keyword Search
Results Based on Collective Importance" (ICDE 2012): the RWMP scoring
model, the branch-and-bound top-k search with admissible bounds, the
naive baseline search, star/pairs indexing, the SPARK / BANKS / DISCOVER2
baselines, synthetic IMDB/DBLP datasets with the paper's query mixes, and
the full evaluation harness.

Quickstart::

    from repro import CIRankSystem, generate_imdb

    db = generate_imdb()
    system = CIRankSystem.from_database(
        db, merge_tables=("actor", "actress", "director", "producer"))
    for answer in system.search("halloran dunefort", k=5):
        print(system.describe(answer))
"""

from .config import (
    EdgeWeights,
    RWMPParams,
    SearchParams,
    DEFAULT_ALPHA,
    DEFAULT_GROUP_SIZE,
    DEFAULT_TELEPORT,
)
from .exceptions import (
    DatasetError,
    EvaluationError,
    GraphError,
    IndexingError,
    IntegrityError,
    InvalidTreeError,
    NotReducedError,
    ReproError,
    SchemaError,
    SearchError,
)
from .db import Column, Database, ForeignKey, Schema, Table, load_records
from .db.schema import ManyToMany, dblp_schema, imdb_schema
from .graph import DataGraph, GraphBuilder, build_graph, sample_subgraph
from .text import Analyzer, InvertedIndex, KeywordMatcher, MatchSets
from .importance import (
    FeedbackModel,
    ImportanceVector,
    monte_carlo_pagerank,
    pagerank,
)
from .model import JoinedTupleTree, Query, RankedAnswer, RankedList
from .rwmp import (
    DampeningModel,
    RWMPScorer,
    explain_tree,
    pass_messages,
    render_explanation,
)
from .search import (
    AnytimeSnapshot,
    BranchAndBoundSearch,
    NaiveSearch,
    UpperBoundEstimator,
    enumerate_answers,
)
from .indexing import PairsIndex, StarIndex, find_star_relations
from .baselines import (
    BackwardExpandingSearch,
    ObjectRankScorer,
    BanksScorer,
    Discover2Scorer,
    SparkScorer,
)
from .datasets import (
    DblpConfig,
    EvalQuery,
    ImdbConfig,
    WorkloadConfig,
    generate_dblp,
    generate_imdb,
    generate_workload,
    simulate_query_log,
)
from .eval import (
    EffectivenessHarness,
    EfficiencyHarness,
    RelevanceOracle,
    build_pool,
    graded_precision,
    mean_reciprocal_rank,
    reciprocal_rank,
)
from .system import CIRankSystem
from .db.csv_loader import dump_csv_directory, load_csv_directory
from .importance.weight_learning import EdgeWeightLearner, PreferencePair
from .importance.incremental import ImportanceMaintainer, refresh_importance
from .eval.stats import bootstrap_ci, paired_permutation_test
from .storage import load_system, save_system
from .xmlgraph import XmlGraphConfig, XmlSearchSystem, xml_to_graph
from .export import (
    answer_to_dot,
    answer_to_json,
    graph_to_graphml,
    ranking_to_json,
)

__version__ = "1.0.0"

__all__ = [
    # configuration
    "EdgeWeights", "RWMPParams", "SearchParams",
    "DEFAULT_ALPHA", "DEFAULT_GROUP_SIZE", "DEFAULT_TELEPORT",
    # errors
    "ReproError", "SchemaError", "IntegrityError", "GraphError",
    "InvalidTreeError", "NotReducedError", "SearchError", "IndexingError",
    "DatasetError", "EvaluationError",
    # relational substrate
    "Column", "ForeignKey", "ManyToMany", "Table", "Schema", "Database",
    "load_records", "imdb_schema", "dblp_schema",
    # graph
    "DataGraph", "GraphBuilder", "build_graph", "sample_subgraph",
    # text
    "Analyzer", "InvertedIndex", "KeywordMatcher", "MatchSets",
    # importance
    "ImportanceVector", "pagerank", "monte_carlo_pagerank", "FeedbackModel",
    # model
    "Query", "JoinedTupleTree", "RankedAnswer", "RankedList",
    # rwmp
    "DampeningModel", "RWMPScorer", "pass_messages",
    "explain_tree", "render_explanation",
    # search
    "NaiveSearch", "BranchAndBoundSearch",
    "AnytimeSnapshot",
    "UpperBoundEstimator", "enumerate_answers",
    # indexing
    "PairsIndex", "StarIndex", "find_star_relations",
    # baselines
    "Discover2Scorer", "SparkScorer", "BanksScorer",
    "BackwardExpandingSearch", "ObjectRankScorer",
    # datasets
    "ImdbConfig", "generate_imdb", "DblpConfig", "generate_dblp",
    "WorkloadConfig", "EvalQuery", "generate_workload",
    "simulate_query_log",
    # evaluation
    "EffectivenessHarness", "EfficiencyHarness", "RelevanceOracle",
    "build_pool", "reciprocal_rank", "mean_reciprocal_rank",
    "graded_precision",
    # facade
    "CIRankSystem",
    # extensions
    "load_csv_directory", "dump_csv_directory",
    "EdgeWeightLearner", "PreferencePair",
    "ImportanceMaintainer", "refresh_importance",
    "bootstrap_ci", "paired_permutation_test",
    "save_system", "load_system",
    "XmlGraphConfig", "XmlSearchSystem", "xml_to_graph",
    "answer_to_dot", "answer_to_json", "graph_to_graphml",
    "ranking_to_json",
]

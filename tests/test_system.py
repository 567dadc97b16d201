"""Tests for the CIRankSystem facade and the CLI."""

import pytest

from repro import (
    CIRankSystem,
    FeedbackModel,
    ReproError,
    SearchParams,
    WorkloadConfig,
    generate_workload,
)
from repro.cli import build_parser, main


class TestFacade:
    def test_search_returns_ranked_answers(self, tiny_imdb_system):
        system = tiny_imdb_system
        workload = generate_workload(
            system.graph, system.index, WorkloadConfig.synthetic(queries=2),
        )
        answers = system.search(workload[0].text, k=3)
        assert answers
        scores = [a.score for a in answers]
        assert scores == sorted(scores, reverse=True)

    def test_describe(self, tiny_imdb_system):
        system = tiny_imdb_system
        workload = generate_workload(
            system.graph, system.index, WorkloadConfig.synthetic(queries=2),
        )
        answers = system.search(workload[0].text, k=1)
        text = system.describe(answers[0])
        assert "score=" in text

    def test_unmatchable_query_returns_empty(self, tiny_imdb_system):
        assert tiny_imdb_system.search("zzzzqqqq") == []

    def test_unknown_algorithm(self, tiny_imdb_system):
        with pytest.raises(ReproError):
            tiny_imdb_system.search("anything", algorithm="magic")

    def test_naive_algorithm_runs(self, tiny_imdb_system):
        system = tiny_imdb_system
        workload = generate_workload(
            system.graph, system.index, WorkloadConfig.synthetic(queries=2),
        )
        answers = system.search(
            workload[0].text, k=3, diameter=4, algorithm="naive"
        )
        assert answers

    def test_apply_feedback_changes_importance(self, tiny_dblp_system):
        system = tiny_dblp_system
        fresh = CIRankSystem(
            system.graph, system.index,
            system.importance, system.params, system.search_params,
        )
        feedback = FeedbackModel(fresh.graph, bias_strength=0.9)
        target = fresh.graph.nodes_of_relation("author")[0]
        feedback.record_click(target, weight=50.0)
        before = fresh.importance[target]
        fresh.apply_feedback(feedback)
        assert fresh.importance[target] > before

    def test_apply_feedback_with_stale_index_rejected(self, tiny_dblp_system):
        system = tiny_dblp_system
        fresh = CIRankSystem(
            system.graph, system.index,
            system.importance, system.params, system.search_params,
        )
        fresh.build_star_index()
        feedback = FeedbackModel(fresh.graph)
        feedback.record_click(0)
        importance, dampening = fresh.importance, fresh.dampening
        epoch = fresh._ranking_epoch
        with pytest.raises(ReproError):
            fresh.apply_feedback(feedback)
        # The rejection is atomic: the ranking the index was built under
        # is still the one in force.
        assert fresh.importance is importance
        assert fresh.dampening is dampening
        assert fresh._ranking_epoch == epoch
        fresh.graph_index = None


class TestMatchMemoization:
    def test_repeat_query_hits_cache(self, tiny_dblp_system):
        system = tiny_dblp_system
        workload = generate_workload(
            system.graph, system.index, WorkloadConfig.dblp(queries=2),
        )
        query = workload[0].text
        first = system.search(query, k=2)
        hits_before = system.last_cache_stats["match"].hits
        second = system.search(query, k=2)
        stats = system.last_cache_stats["match"]
        assert stats.hits == hits_before + 1
        assert [a.score for a in first] == [a.score for a in second]

    def test_cache_keyed_on_graph_version(self):
        from repro import DblpConfig, generate_dblp
        db = generate_dblp(DblpConfig(
            conferences=2, papers=10, authors=8, seed=9,
        ))
        system = CIRankSystem.from_database(db)
        word = next(iter(system.index.vocabulary()))
        match1 = system._match_for(word)
        match2 = system._match_for(word)
        assert match2 is match1  # same version: served from cache
        assert system._match_cache.hits == 1
        system.graph.add_node("paper", f"fresh {word} mention")
        match3 = system._match_for(word)  # new version: recomputed
        assert match3 is not match1
        assert system._match_cache.hits == 1  # no extra hit


class TestAttachIndex:
    def _fresh(self, system):
        return CIRankSystem(
            system.graph, system.index,
            system.importance, system.params, system.search_params,
        )

    def test_plain_attach_builds(self, tiny_dblp_system):
        fresh = self._fresh(tiny_dblp_system)
        index = fresh.attach_index("star", horizon=4)
        assert fresh.graph_index is index
        assert not fresh.index_warm_started
        assert fresh.last_index_build is not None
        assert fresh.last_index_build.method == "kernel"

    def test_cold_then_warm_start(self, tiny_dblp_system, tmp_path):
        path = tmp_path / "idx"
        cold = self._fresh(tiny_dblp_system)
        cold.attach_index("star", path=path, horizon=4)
        assert not cold.index_warm_started
        assert (path / "index_manifest.json").exists()

        warm = self._fresh(tiny_dblp_system)
        warm.attach_index("star", path=path, horizon=4)
        assert warm.index_warm_started
        assert warm.last_index_build is None  # no rebuild happened
        assert warm.graph_index._entries == cold.graph_index._entries

    def test_unknown_kind_rejected(self, tiny_dblp_system):
        with pytest.raises(ReproError):
            self._fresh(tiny_dblp_system).attach_index("magic")

    def test_index_path_without_kind_rejected(self, tiny_dblp_system):
        from repro import DblpConfig, generate_dblp
        db = generate_dblp(DblpConfig(conferences=2, papers=6, authors=5))
        with pytest.raises(ReproError, match="index_kind"):
            CIRankSystem.from_database(db, index_path="/tmp/nowhere")

    def test_from_database_attaches_index(self, tmp_path):
        from repro import DblpConfig, generate_dblp
        db = generate_dblp(DblpConfig(
            conferences=3, papers=20, authors=15, seed=5,
        ))
        path = tmp_path / "idx"
        cold = CIRankSystem.from_database(
            db, index_kind="star", index_path=path,
        )
        assert cold.graph_index is not None
        assert not cold.index_warm_started
        warm = CIRankSystem.from_database(
            db, index_kind="star", index_path=path,
        )
        assert warm.index_warm_started
        assert warm.graph_index._entries == cold.graph_index._entries


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(
            ["search", "--dataset", "imdb", "--query", "foo", "--k", "3"]
        )
        assert args.command == "search"
        assert args.k == 3

    def test_inspect_runs(self, capsys):
        code = main(["inspect", "--dataset", "dblp", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "paper" in out
        assert "total nodes" in out

    def test_search_no_answers(self, capsys):
        code = main([
            "search", "--dataset", "dblp", "--seed", "3",
            "--query", "zzzznothing",
        ])
        assert code == 1
        assert "no answers" in capsys.readouterr().out

    def test_search_finds_something(self, capsys):
        # use a token guaranteed to exist: take it from the generator
        from repro.datasets.dblp import DblpConfig, generate_dblp
        from repro import build_graph, InvertedIndex
        db = generate_dblp(DblpConfig(seed=3))
        graph = build_graph(db)
        index = InvertedIndex.build(graph)
        token = next(
            t for t in index.vocabulary() if len(index.matching_nodes(t)) == 1
        )
        code = main([
            "search", "--dataset", "dblp", "--seed", "3", "--query", token,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "1." in out


class TestFacadeSemantics:
    def test_or_semantics_flows_through_search(self, tiny_dblp_system):
        """The facade must forward the semantics setting to the search."""
        from repro import CIRankSystem, SearchParams
        base = tiny_dblp_system
        or_system = CIRankSystem(
            base.graph, base.index, base.importance, base.params,
            SearchParams(k=5, semantics="or"),
        )
        # a query whose second keyword matches nothing: AND yields no
        # answers, OR still answers via the first keyword
        token = next(
            t for t in base.index.vocabulary()
            if len(base.index.matching_nodes(t)) == 1
        )
        query = f"{token} zzznothing"
        assert base.search(query) == []
        assert or_system.search(query)


class TestExplain:
    def test_explain_renders_breakdown(self, tiny_imdb_system):
        system = tiny_imdb_system
        workload = generate_workload(
            system.graph, system.index, WorkloadConfig.synthetic(queries=2),
        )
        query = workload[0].text
        answers = system.search(query, k=1)
        text = system.explain(query, answers[0])
        assert "tree score" in text
        assert f"{answers[0].score:.6g}"[:6] in text

"""Smoke test of the benchmark at tiny size.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs once untraced and once traced on its cheapest
queries, for a fraction of a second, with one set-up.  The test checks
that every metric ``BENCHMARK.json`` names comes out with its unit,
that the output check rejects a planted wrong answer, and that the
host-speed probe takes its own time out of a sample.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.load_definition()["workloads"])


def declared(section: str):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_benchmark_json_matches_the_runner():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(NAMES)
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == run.PER_LAYER


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_reported_with_its_unit(name, trace):
    result, report = run.run(
        name, seed=0, seconds=0.2, trace=trace, tiny=True
    )
    assert result["correct"], report["problems"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    got = {key: m["unit"] for key, m in result["metrics"].items()}
    assert got == declared(section)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(report["inputs_sha256"]) == 64
    json.dumps(result)


def test_same_seed_same_inputs():
    definition = workloads.load_definition()
    spec = definition["workloads"]["hot-serve"]
    hot = [h["text"] for h in spec["hot"]]
    one = workloads.hot_schedule(hot, spec["zipf_s"], 5)
    two = workloads.hot_schedule(hot, spec["zipf_s"], 5)
    other = workloads.hot_schedule(hot, spec["zipf_s"], 6)
    digest = workloads.schedule_digest
    assert digest("hot-serve", definition, one) == digest(
        "hot-serve", definition, two
    )
    assert digest("hot-serve", definition, one) != digest(
        "hot-serve", definition, other
    )


def test_probe_samples_inside_and_takes_its_own_time_out():
    speed = probe.HostSpeed()
    before = len(speed.readings)
    mark = speed.start()
    deadline = time.perf_counter() + 0.3
    while time.perf_counter() < deadline:
        pass
    elapsed, scale = speed.stop(mark)
    inside = len(speed.readings) - before - probe.ENDPOINT_RUNS
    assert inside >= 4
    # The busy loop ran until its wall deadline, so the sample is the
    # 0.3 s less the in-sample kernel runs (each well under 10 ms).
    assert 0.3 - 0.01 * inside < elapsed < 0.3
    assert scale > 0


@pytest.fixture(scope="module")
def answered():
    definition = workloads.load_definition()
    system = workloads.build_system(definition["stacks"]["imdb_bench"])
    query = definition["workloads"]["hot-serve"]["hot"][0]["text"]
    expected = check.load_expected()["imdb_bench|none"][query]
    return system, query, system.search(query), expected


def test_check_accepts_real_answers(answered):
    system, query, answers, expected = answered
    found = check.check_direct(system, query, answers, 5, expected=expected)
    assert found == []


def test_check_rejects_planted_wrong_score(answered):
    system, query, answers, expected = answered
    planted = list(answers)
    planted[-1] = dataclasses.replace(
        planted[-1], score=planted[-1].score * (1 - 1e-6)
    )
    problems = check.check_direct(system, query, planted, 5)
    assert any("oracle" in p for p in problems)
    problems = check.check_direct(system, query, planted, 5, expected=expected)
    assert any("expected.json" in p for p in problems)


def test_check_rejects_planted_wrong_wire_score(answered):
    system, query, answers, _ = answered
    daemon_like = [
        {
            "score": a.score,
            "nodes": sorted(a.tree.nodes),
            "edges": sorted(tuple(e) for e in a.tree.edges),
        }
        for a in answers
    ]
    classes = check.tie_classes_direct(answers)
    assert check.check_wire(system, query, daemon_like, 5, classes) == []
    daemon_like[0] = dict(daemon_like[0], score=daemon_like[0]["score"] * 1.5)
    assert check.check_wire(system, query, daemon_like, 5, classes)


def test_check_rejects_too_many_and_misordered(answered):
    system, query, answers, _ = answered
    assert check.check_direct(system, query, answers, len(answers) - 1)
    if len({a.score for a in answers}) > 1:
        assert check.check_direct(system, query, answers[::-1], 5)

"""Write ``workloads.json`` and ``expected.json`` (defines the benchmark).

Run once, from the repository root::

    python3 perfbench/record.py

It builds the four SCALE-1 stacks of ``benchmarks/common.py``, generates
their query mixes with the same generator seeds, searches every query
once at the defaults (k=5, D=4, default engine, answer cache cleared
before each query) and records two things:

* ``workloads.json`` — the versioned inputs: stack configs and, per
  workload, its query list with the admission count each query had when
  the list was chosen;
* ``expected.json`` — the top-k tie classes of every listed query, the
  reference the output check compares each run's answers with.

Rerunning it redefines the benchmark: it belongs in a change that edits
the benchmark, never in one that claims a gain.

How the lists are chosen (the definition-time admission count is the
selection key because latency follows admissions):

* ``cold-search`` — the pool is the IMDB synthetic (20), IMDB AOL-like
  (20) and DBLP synthetic (20) mixes, interleaved round-robin in
  generator order.  A full pass over all 60 takes ~110 s (one thread,
  2-vCPU Xeon), several times one run's budget, so the list takes, in
  pool order, the first ``COLD_QUOTAS[band]`` queries of each admission
  band.  The explosive band (>= 50,000 admissions) stays in with one
  query — the 84,687-admission worst case; the large band
  (20,000-50,000, 2.7-7 s per query on that host) is left out to keep
  one pass near 10 s; 13 small plus 7 medium queries make 21, and a
  run's two passes at least leave 10 samples beyond p76.2.
* ``indexed-search`` — all 32 queries of the two efficiency stacks.
* ``hot-serve`` / ``rerank-mixed`` — the IMDB AOL-like queries under
  ``HOT_MAX_ADMISSIONS``: their searches are paid in ``setup_s`` (cache
  warm-up) and, on ``rerank-mixed``, again after every write.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro import WorkloadConfig, generate_workload  # noqa: E402
from repro.obs.replay import tie_classes_direct  # noqa: E402

import workloads  # noqa: E402
from check import encode_tie_classes  # noqa: E402

VERSION = 1

IMDB_MERGE = ["actor", "actress", "director", "producer"]

STACKS = {
    "imdb_bench": {
        "dataset": "imdb",
        "merge_tables": IMDB_MERGE,
        "config": {
            "movies": 120, "actors": 140, "actresses": 80,
            "directors": 40, "producers": 24, "companies": 20, "seed": 7,
        },
    },
    "dblp_bench": {
        "dataset": "dblp",
        "config": {
            "conferences": 12, "papers": 220, "authors": 160, "seed": 11,
        },
    },
    "imdb_efficiency_bench": {
        "dataset": "imdb",
        "merge_tables": IMDB_MERGE,
        "config": {
            "movies": 400, "actors": 520, "actresses": 280,
            "directors": 130, "producers": 70, "companies": 50,
            "actors_per_movie": [1, 3], "actresses_per_movie": [1, 2],
            "repeat_cast_prob": 0.25, "communities": 10,
            "cross_community_prob": 0.02, "seed": 19,
        },
    },
    "dblp_efficiency_bench": {
        "dataset": "dblp",
        "config": {
            "conferences": 20, "papers": 450, "authors": 380,
            "authors_per_paper": [1, 3], "citations_per_paper": [0, 4],
            "repeat_coauthors_prob": 0.3, "communities": 10,
            "cross_community_prob": 0.02, "seed": 23,
        },
    },
}

#: (stack, mix label, generator config) in the order common.py uses.
MIXES = {
    "cold": [
        ("imdb_bench", "synthetic", WorkloadConfig.synthetic(queries=20)),
        ("imdb_bench", "aol_like", WorkloadConfig.aol_like(queries=20)),
        ("dblp_bench", "synthetic", WorkloadConfig.dblp(queries=20)),
    ],
    "indexed": [
        ("imdb_efficiency_bench", "synthetic",
         WorkloadConfig.synthetic(queries=16, seed=41)),
        ("dblp_efficiency_bench", "synthetic",
         WorkloadConfig.dblp(queries=16, seed=43)),
    ],
}

#: Admission bands (lower edges) and how many queries each contributes
#: to the cold-search list.
BANDS = ((50_000, "explosive"), (20_000, "large"), (5_000, "medium"),
         (0, "small"))
COLD_QUOTAS = {"explosive": 1, "large": 0, "medium": 7, "small": 13}

HOT_MAX_ADMISSIONS = 10_000

#: hot-serve's thousands of samples would allow p99.8, but beyond ~p97
#: its latency is GIL hand-off and collector pauses whose share swings
#: with host speed: over 5-10 runs on a 2-vCPU Xeon the run-to-run
#: spread (IQR / median) was 0.12-0.51 at p99 against ~0.05 at p95.
HOT_SERVE_TAIL_PCT = 95.0

#: Whole passes a search workload's run makes at least; its tail
#: percentile is the highest one these leave 10 samples beyond.
SEARCH_MIN_PASSES = 2

ZIPF_S = 1.0
READS_PER_WRITE = 50
CONNECTIONS = 2


def band(admissions: int) -> str:
    for floor, name in BANDS:
        if admissions >= floor:
            return name
    raise AssertionError(admissions)


def measure(system, stack, mix, queries, expected, key):
    rows = []
    for query in queries:
        system.answer_cache.clear()
        start = time.perf_counter()
        answers = system.search(query.text)
        wall = time.perf_counter() - start
        stats = system.last_search_stats
        admissions = stats.enqueued if stats is not None else 0
        expected.setdefault(key, {})[query.text] = encode_tie_classes(
            tie_classes_direct(answers)
        )
        rows.append({
            "stack": stack, "mix": mix, "text": query.text,
            "kind": query.kind, "admissions": admissions,
        })
        print(f"{stack:24s} {mix:9s} {admissions:7d} {wall:7.2f}s "
              f"{query.text}", flush=True)
    return rows


def main() -> None:
    expected = {}
    systems = {}
    pools = {"cold": [], "indexed": []}
    for group, mixes in MIXES.items():
        for stack, mix, config in mixes:
            if stack not in systems:
                systems[stack] = workloads.build_system(STACKS[stack])
                if group == "indexed":
                    systems[stack].attach_index("star")
            system = systems[stack]
            queries = generate_workload(system.graph, system.index, config)
            key = f"{stack}|{'star' if group == 'indexed' else 'none'}"
            pools[group].append(
                measure(system, stack, mix, queries, expected, key)
            )

    interleaved = [
        row for group in zip(*pools["cold"]) for row in group
    ]
    taken = {name: 0 for name in COLD_QUOTAS}
    cold = []
    for row in interleaved:
        name = band(row["admissions"])
        if taken[name] < COLD_QUOTAS[name]:
            taken[name] += 1
            cold.append(row)
    indexed = [row for rows in pools["indexed"] for row in rows]
    aol = next(rows for rows in pools["cold"] if rows[0]["mix"] == "aol_like")
    hot = [
        {"text": row["text"], "admissions": row["admissions"]}
        for row in aol if row["admissions"] < HOT_MAX_ADMISSIONS
    ]
    used = {
        f"{row['stack']}|none" for row in cold
    } | {f"{row['stack']}|star" for row in indexed} | {"imdb_bench|none"}
    keep = {row["text"] for row in cold + indexed} | {h["text"] for h in hot}
    expected = {
        key: {q: classes for q, classes in per.items() if q in keep}
        for key, per in expected.items() if key in used
    }

    definition = {
        "version": VERSION,
        "stacks": STACKS,
        "workloads": {
            "cold-search": {
                "kind": "search", "index": None, "queries": cold,
                "tail_pct": workloads.tail_pct(
                    SEARCH_MIN_PASSES * len(cold)
                ),
            },
            "indexed-search": {
                "kind": "search", "index": "star", "queries": indexed,
                "tail_pct": workloads.tail_pct(
                    SEARCH_MIN_PASSES * len(indexed)
                ),
            },
            "hot-serve": {
                "kind": "serve", "stack": "imdb_bench", "hot": hot,
                "zipf_s": ZIPF_S, "connections": CONNECTIONS,
                "tail_pct": HOT_SERVE_TAIL_PCT,
            },
            "rerank-mixed": {
                "kind": "rerank", "stack": "imdb_bench", "hot": hot,
                "zipf_s": ZIPF_S, "reads_per_write": READS_PER_WRITE,
                "tail_pct": 97.0,
            },
        },
    }
    with open(workloads.WORKLOADS_FILE, "w", encoding="utf-8") as handle:
        json.dump(definition, handle, indent=1)
        handle.write("\n")
    with open(HERE / "expected.json", "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()

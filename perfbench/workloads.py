"""Versioned workload inputs: stacks, query lists and seeded schedules.

``workloads.json`` is the fixed, versioned description of what the
benchmark runs (in the manner of BRAD's ``Workload``: a list of queries
plus how often each arrives).  It names four stacks — the synthetic
IMDB/DBLP deployments of ``benchmarks/common.py`` at SCALE 1, copied
here so a later edit there cannot silently change the benchmark — and,
per workload, the queries it sends.  ``record.py`` wrote the file; the
query lists are data, not regenerated per run.

The ``--seed`` argument only turns that description into a request
schedule: the order of each pass over a search list, or the Zipf rank of
each hot query and the sequence of draws.  The program sees nothing but
the scheduled query strings, and :func:`schedule_digest` hashes the
whole schedule, so two runs can be shown to have used identical inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Any, Dict, List

from repro import (
    CIRankSystem,
    DblpConfig,
    ImdbConfig,
    generate_dblp,
    generate_imdb,
)

HERE = Path(__file__).resolve().parent
WORKLOADS_FILE = HERE / "workloads.json"

#: Passes over a search list that one schedule holds; a run stops long
#: before using them all.
SEARCH_PASSES = 32

#: Requests in a hot-set schedule: hot-serve completes ~360/s on a
#: 2-vCPU Xeon, so a run uses a small prefix (and wraps if it ever ends).
HOT_REQUESTS = 50_000


def load_definition() -> Dict[str, Any]:
    """The parsed ``workloads.json``."""
    with open(WORKLOADS_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def _config(cls, fields: Dict[str, Any]):
    # JSON has no tuples; the dataset configs take (min, max) pairs.
    return cls(**{
        key: tuple(value) if isinstance(value, list) else value
        for key, value in fields.items()
    })


def generate_database(spec: Dict[str, Any]):
    """The synthetic database of one stack description."""
    if spec["dataset"] == "imdb":
        return generate_imdb(_config(ImdbConfig, spec["config"]))
    if spec["dataset"] == "dblp":
        return generate_dblp(_config(DblpConfig, spec["config"]))
    raise ValueError(f"unknown dataset {spec['dataset']!r}")


def build_system(spec: Dict[str, Any], db=None) -> CIRankSystem:
    """A default-configured system over one stack (k=5, D=4, arena)."""
    if db is None:
        db = generate_database(spec)
    return CIRankSystem.from_database(
        db, merge_tables=tuple(spec.get("merge_tables", ()))
    )


def search_schedule(queries: List[Dict[str, Any]], seed: int) -> List[int]:
    """Indices into ``queries``: ``SEARCH_PASSES`` seeded permutations."""
    rng = random.Random(f"search:{seed}")
    order: List[int] = []
    for _ in range(SEARCH_PASSES):
        one_pass = list(range(len(queries)))
        rng.shuffle(one_pass)
        order.extend(one_pass)
    return order


def hot_schedule(hot: List[str], zipf_s: float, seed: int) -> List[str]:
    """A Zipf-skewed request sequence over the hot set.

    The seed picks which hot query holds which popularity rank, then
    draws ``HOT_REQUESTS`` requests independently.
    """
    rng = random.Random(f"hot:{seed}")
    ranked = list(hot)
    rng.shuffle(ranked)
    weights = [1.0 / (rank + 1) ** zipf_s for rank in range(len(ranked))]
    return rng.choices(ranked, weights=weights, k=HOT_REQUESTS)


def tail_pct(samples: int) -> float:
    """Highest percentile with at least 10 of ``samples`` beyond it."""
    return max(0.0, 100.0 * (samples - 10) / samples)


def schedule_digest(name: str, definition: Dict[str, Any], schedule) -> str:
    """SHA-256 of the workload description plus the generated schedule."""
    document = {
        "workload": name,
        "version": definition["version"],
        "stacks": definition["stacks"],
        "spec": definition["workloads"][name],
        "schedule": schedule,
    }
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()

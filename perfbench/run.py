#!/usr/bin/env python3
"""CI-Rank end-to-end benchmark: four workloads through the public API.

Run from the repository root::

    python3 perfbench/run.py --workload cold-search --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``perfbench/README.md`` for both lists and why each workload
exists).  The second-to-last stdout line is a JSON report (inputs hash,
host, CPU time, tail percentile, measured workload shares, error rate);
the last line is the result::

    {"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}

Search workloads run whole passes over their query list until at least
``--seconds`` have been measured, so every run sees every query equally
often; hot-serve runs 1-s slices for ``--seconds``, rerank-mixed whole
write cycles until at least ``--seconds``.  Every workload also runs
until at least 10 samples lie beyond its tail percentile.  Timed samples
are scaled to a reference host speed (``probe.py``), except hot-serve's.
The output check runs after the timed phase.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy  # noqa: E402
from repro.config import ServingParams  # noqa: E402
from repro.importance.feedback import FeedbackModel  # noqa: E402
from repro.obs.replay import tie_classes_direct  # noqa: E402
from repro.serving.client import ServingClient  # noqa: E402
from repro.serving.loadgen import InProcessServer  # noqa: E402

import check  # noqa: E402
import layers  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402

#: Full set-ups per run: at least ``SETUP_REPS`` and until they add up
#: to ``SETUP_MIN_S`` (cold-search's set-up takes ~0.05 s, the others
#: 1-2 s), at most ``SETUP_MAX_REPS``; ``setup_s`` is their median.
SETUP_REPS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPS = 30

#: Length of one hot-serve slice (the unit both runs alternate in a
#: traced run).
SLICE_S = 1.0

#: Admissions at or above which a query counts as explosive-leaning
#: (the cold-search share the README reports).
MANY_ADMISSIONS = 10_000

END_TO_END = {
    "setup_s": "s",
    "qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "serving.handle_ms": "ms",
    "serving.execute_ms": "ms",
    "serving.wait_ms": "ms",
    "serving.transport_ms": "ms",
    "serving.coalesced_ratio": "ratio",
    "serving.batch_size_mean": "count",
    "storage.cache_lookup_ms": "ms",
    "storage.cache_hit_ratio": "ratio",
    "storage.invalidations": "count",
    "text.match_ms": "ms",
    "rwmp.scorer_build_ms": "ms",
    "search.score_s": "s",
    "search.run_ms": "ms",
    "search.admissions": "count",
    "search.expanded": "count",
    "search.useful_ratio": "ratio",
    "search.tightened": "count",
    "search.repushed": "count",
    "search.cheap_bound_s": "s",
    "search.tighten_s": "s",
    "search.expand_s": "s",
    "search.unattributed_s": "s",
    "search.arena_peak_bytes": "bytes",
    "indexing.build_s": "s",
    "indexing.pruned_distance": "count",
    "indexing.admit_capped": "count",
    "importance.pagerank_ms": "ms",
    "importance.apply_feedback_ms": "ms",
    "setup.graph_s": "s",
    "setup.inverted_index_s": "s",
    "setup.workload_s": "s",
    "setup.warmup_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.coverage_ratio": "ratio",
}


def percentile(values: List[float], pct: float) -> float:
    """Linear-interpolated percentile (the benchmark's own, so the
    measurement cannot change with the program under test)."""
    ordered = sorted(values)
    rank = pct / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class Phase:
    """What one side (untraced or traced) of the timed phase saw.

    Every time is kept raw and scaled to the reference host speed (see
    ``probe.py``); the end-to-end metrics use the scaled ones.
    """

    def __init__(self) -> None:
        self.wall = 0.0
        self.scaled_wall = 0.0
        self.units = 0
        self.reads: List[float] = []
        self.writes: List[float] = []
        self.scaled_reads: List[float] = []
        self.scaled_writes: List[float] = []
        #: hot-serve only: (qps, p50, tail) of every 1-s slice.
        self.slices: List[Tuple[float, float, float]] = []
        self.errors = 0

    def timed(self, wall: float, scale: float) -> None:
        self.wall += wall
        self.scaled_wall += wall * scale

    def read(self, latency: float, scale: float) -> None:
        self.reads.append(latency)
        self.scaled_reads.append(latency * scale)

    def write(self, latency: float, scale: float) -> None:
        self.writes.append(latency)
        self.scaled_writes.append(latency * scale)

    @property
    def requests(self) -> int:
        return len(self.reads) + len(self.writes) + self.errors

    @property
    def qps(self) -> float:
        return self.requests / self.wall if self.wall > 0 else 0.0

    @property
    def scaled_qps(self) -> float:
        return (
            self.requests / self.scaled_wall if self.scaled_wall > 0 else 0.0
        )


class Env:
    """One set-up: the systems, schedule position and check material."""

    def __init__(self, speed: probe.HostSpeed) -> None:
        self.speed = speed
        self.systems: Dict[str, Any] = {}
        #: Raw set-up seconds per part label.
        self.timings: Dict[str, float] = {}
        self.setup_raw = 0.0
        self.setup_scaled = 0.0
        self.pos = 0
        self.server: Optional[InProcessServer] = None
        self.clients: List[ServingClient] = []
        self.records: List[Any] = []

    @contextlib.contextmanager
    def part(self, label: str):
        """Time one step of set-up as one sample (see ``probe.py``).

        Every set-up step runs in a part, so ``setup_raw`` is the whole
        set-up without the probes, and each step is scaled by the host
        speed around and during it.
        """
        mark = self.speed.start()
        try:
            yield
        finally:
            raw, scale = self.speed.stop(mark)
        self.timings[label] = self.timings.get(label, 0.0) + raw
        self.setup_raw += raw
        self.setup_scaled += raw * scale

    def measure(self, fn, *args):
        """``fn(*args)`` as one timed sample: ``(result, seconds, scale)``
        (see ``probe.py``)."""
        mark = self.speed.start()
        try:
            result = fn(*args)
        finally:
            elapsed, scale = self.speed.stop(mark)
        return result, elapsed, scale


# --------------------------------------------------------------- workloads


class Workload:
    """Set-up, one timed unit, and the output check of one workload."""

    #: Run on one vCPU (``main`` pins the process): the probe's readings
    #: then always come from the vCPU the work runs on (see probe.py).
    one_vcpu = True

    def __init__(self, name: str, definition: Dict[str, Any], seed: int,
                 tiny: bool = False) -> None:
        self.name = name
        self.definition = definition
        self.spec = definition["workloads"][name]
        self.seed = seed
        self.tiny = tiny
        self.expected = check.load_expected()

    def stack(self, env: Env, key: str):
        """Build one stack, timing dataset generation separately."""
        spec = self.definition["stacks"][key]
        with env.part("dataset"):
            db = workloads.generate_database(spec)
        with env.part("system"):
            env.systems[key] = workloads.build_system(spec, db)
        return env.systems[key]

    def teardown(self, env: Env) -> None:
        for client in env.clients:
            client.close()
        if env.server is not None:
            env.server.stop()
            env.server = None

    def shares(self, env: Env, phases: List[Phase]) -> Dict[str, Any]:
        return {}

    def counters(self, env: Env) -> Dict[str, int]:
        """Answer-cache counters summed over the workload's systems."""
        totals = {"hits": 0, "misses": 0, "invalidations": 0}
        for system in env.systems.values():
            stats = system.answer_cache.stats()
            for key in totals:
                totals[key] += getattr(stats, key)
        return totals


class SearchWorkload(Workload):
    """cold-search / indexed-search: direct ``CIRankSystem.search``, one
    client, the answer cache cleared before every query."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.queries = self.spec["queries"]
        if self.tiny:
            self.queries = sorted(
                self.queries, key=lambda q: q["admissions"]
            )[:3]
        self.index = self.spec["index"]

    def setup(self, env: Env) -> None:
        with env.part("workload"):
            self.schedule = workloads.search_schedule(
                self.queries, self.seed
            )
            self.digest = workloads.schedule_digest(
                self.name, self.definition, self.schedule
            )
        for key in sorted({q["stack"] for q in self.queries}):
            system = self.stack(env, key)
            if self.index is not None:
                with env.part("index"):
                    system.attach_index(self.index)
        env.admissions = []

    def step(self, env: Env, phase: Phase, budget: float) -> None:
        """One whole pass over the query list, in schedule order."""
        for _ in range(len(self.queries)):
            entry = self.queries[self.schedule[env.pos]]
            env.pos += 1
            system = env.systems[entry["stack"]]
            system.answer_cache.clear()
            answers, elapsed, scale = env.measure(
                system.search, entry["text"]
            )
            phase.timed(elapsed, scale)
            phase.read(elapsed, scale)
            stats = system.last_search_stats
            env.admissions.append(stats.enqueued if stats else 0)
            env.records.append((entry, answers))
        phase.units += 1

    def verify(self, env: Env):
        key_suffix = self.index or "none"
        failed, problems = 0, []
        for entry, answers in env.records:
            system = env.systems[entry["stack"]]
            found = check.check_direct(
                system, entry["text"], answers, system.search_params.k,
                expected=self.expected[f"{entry['stack']}|{key_suffix}"][
                    entry["text"]
                ],
            )
            failed += bool(found)
            problems.extend(found)
        return failed, problems

    def shares(self, env: Env, phases: List[Phase]) -> Dict[str, Any]:
        adm = env.admissions
        return {
            "searches": len(adm),
            "share_admissions_ge_10000": (
                sum(a >= MANY_ADMISSIONS for a in adm) / len(adm)
            ),
            "admissions_min": min(adm),
            "admissions_p50": percentile(adm, 50),
            "admissions_max": max(adm),
            "admissions_mean": sum(adm) / len(adm),
        }


class HotWorkload(Workload):
    """Shared by hot-serve and rerank-mixed: a Zipf hot set, warmed."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.hot = [h["text"] for h in self.spec["hot"]]
        if self.tiny:
            self.hot = [
                h["text"] for h in sorted(
                    self.spec["hot"], key=lambda h: h["admissions"]
                )[:2]
            ]

    def prepare(self, env: Env):
        with env.part("workload"):
            self.schedule = workloads.hot_schedule(
                self.hot, self.spec["zipf_s"], self.seed
            )
            self.digest = workloads.schedule_digest(
                self.name, self.definition, self.schedule
            )
        return self.stack(env, self.spec["stack"])

    def warm(self, env: Env, system) -> None:
        """Fill the answer cache with direct searches (kept for checks)."""
        env.direct = {}
        for query in self.hot:
            with env.part("warmup"):
                env.direct[query] = system.search(query)


class ServeWorkload(HotWorkload):
    """hot-serve: HTTP through ``InProcessServer``, 2 keep-alive
    connections, default ``ServingParams`` on an ephemeral port."""

    # Its threads keep both vCPUs, as a 2-vCPU server's would; it is
    # not scaled, so nothing ties it to the probe's vCPU.
    one_vcpu = False

    def setup(self, env: Env) -> None:
        system = self.prepare(env)
        with env.part("warmup"):
            env.server = InProcessServer(system, ServingParams(port=0))
            env.server.start()
        self.warm(env, system)
        with env.part("warmup"):
            env.clients = [
                ServingClient(env.server.host, env.server.port)
                for _ in range(self.spec["connections"])
            ]
            for client in env.clients:
                for query in self.hot:
                    client.search(query)
        env.lock = threading.Lock()
        env.responses = {}

    def step(self, env: Env, phase: Phase, budget: float) -> None:
        """Both connections, closed loop, for one slice of at most
        ``SLICE_S`` seconds.

        Responses are folded into a count per distinct (query, answers,
        cache flag, coalesced flag) after the slice, outside its timing,
        so the client threads do no extra work while timed and the
        process's peak RSS does not grow with run length.
        """
        start = time.perf_counter()
        deadline = start + min(budget, SLICE_S)
        results: List[List[Any]] = [[] for _ in env.clients]

        def drive(client: ServingClient, out: List[Any]) -> None:
            while time.perf_counter() < deadline:
                with env.lock:
                    query = self.schedule[env.pos % len(self.schedule)]
                    env.pos += 1
                sent = time.perf_counter()
                try:
                    response = client.search(query)
                except Exception:  # counted as failed, the run goes on
                    out.append((query, None, None))
                    continue
                out.append((query, time.perf_counter() - sent, response))

        threads = [
            threading.Thread(target=drive, args=(client, out))
            for client, out in zip(env.clients, results)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        # Not scaled: serving latency is bound by GIL hand-offs (p50
        # ~5 ms, the interpreter's switch interval) and does not follow
        # the probe; see probe.py and README.md.
        phase.timed(wall, 1.0)
        latencies = []
        for out in results:
            for query, latency, response in out:
                if latency is None:
                    phase.errors += 1
                    continue
                phase.read(latency, 1.0)
                latencies.append(latency)
                key = (
                    query, json.dumps(response["answers"]),
                    response["served_from_cache"], response["coalesced"],
                )
                env.responses[key] = env.responses.get(key, 0) + 1
        if latencies:
            phase.slices.append((
                len(latencies) / wall,
                percentile(latencies, 50),
                percentile(latencies, self.spec["tail_pct"]),
            ))
        phase.units += 1

    def verify(self, env: Env):
        system = env.systems[self.spec["stack"]]
        k = system.search_params.k
        expected = self.expected[f"{self.spec['stack']}|none"]
        failed, problems = 0, []
        direct_classes = {}
        for query, answers in env.direct.items():
            found = check.check_direct(
                system, query, answers, k, expected=expected[query]
            )
            problems.extend(found)
            direct_classes[query] = tie_classes_direct(answers)
        for (query, text, _, _), count in env.responses.items():
            found = check.check_wire(
                system, query, json.loads(text), k, direct_classes[query]
            )
            problems.extend(found)
            failed += count if found else 0
        return failed, problems

    def shares(self, env: Env, phases: List[Phase]) -> Dict[str, Any]:
        total = sum(env.responses.values())
        return {
            "responses": total,
            "served_from_cache_share": sum(
                n for key, n in env.responses.items() if key[2]
            ) / total,
            "coalesced_share": sum(
                n for key, n in env.responses.items() if key[3]
            ) / total,
        }

    def counters(self, env: Env) -> Dict[str, int]:
        """Cache counters plus the daemon's ``/stats`` counters."""
        totals = super().counters(env)
        stats = env.clients[0].stats()
        for key in ("received", "coalesced", "batches", "batched_queries"):
            totals[key] = stats[key]
        return totals


class RerankWorkload(HotWorkload):
    """rerank-mixed: direct reads on the hot set with the answer cache on,
    plus one feedback write after every ``reads_per_write`` reads."""

    def setup(self, env: Env) -> None:
        system = self.prepare(env)
        self.warm(env, system)
        with env.part("system"):
            env.feedback = FeedbackModel(system.graph)
        # The ranking each epoch served under, for the output check.
        env.dampenings = [system.dampening]
        env.hits = 0
        env.miss_admissions = []

    def step(self, env: Env, phase: Phase, budget: float) -> None:
        """One write cycle: ``reads_per_write`` reads, then one write."""
        system = env.systems[self.spec["stack"]]
        epoch = len(env.dampenings) - 1
        query, answers = None, []
        for _ in range(self.spec["reads_per_write"]):
            query = self.schedule[env.pos % len(self.schedule)]
            env.pos += 1
            answers, elapsed, scale = env.measure(system.search, query)
            phase.timed(elapsed, scale)
            phase.read(elapsed, scale)
            stats = system.last_search_stats
            if stats is not None and stats.served_from_cache:
                env.hits += 1
            elif stats is not None:
                env.miss_admissions.append(stats.enqueued)
            env.records.append((query, answers, epoch))
        def write() -> None:
            if answers:
                env.feedback.record_labeled_query(
                    system.matcher, query, answers[0].tree.nodes
                )
            system.apply_feedback(env.feedback)

        _, elapsed, scale = env.measure(write)
        phase.timed(elapsed, scale)
        phase.write(elapsed, scale)
        env.dampenings.append(system.dampening)
        phase.units += 1

    def verify(self, env: Env):
        system = env.systems[self.spec["stack"]]
        k = system.search_params.k
        expected = self.expected[f"{self.spec['stack']}|none"]
        failed, problems = 0, []
        verdicts: Dict[int, List[str]] = {}
        for query, answers, epoch in env.records:
            # A cache hit hands back the stored list object itself, so
            # identity groups every read of one computed answer list.
            if id(answers) not in verdicts:
                verdicts[id(answers)] = check.check_direct(
                    system, query, answers, k,
                    dampening=env.dampenings[epoch],
                    expected=expected[query] if epoch == 0 else None,
                )
                problems.extend(verdicts[id(answers)])
            failed += bool(verdicts[id(answers)])
        return failed, problems

    def shares(self, env: Env, phases: List[Phase]) -> Dict[str, Any]:
        reads = sum(len(p.reads) for p in phases)
        writes = sum(len(p.writes) for p in phases)
        return {
            "reads": reads,
            "writes": writes,
            "hit_share": env.hits / reads,
            "writes_per_read": writes / reads,
            "miss_admissions_mean": (
                statistics.fmean(env.miss_admissions)
                if env.miss_admissions else 0.0
            ),
        }


KINDS = {
    "search": SearchWorkload,
    "serve": ServeWorkload,
    "rerank": RerankWorkload,
}


# ------------------------------------------------------------------ driver


def host_record() -> Dict[str, Any]:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "loadavg": os.getloadavg(),
    }


def run(name: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False):
    """Run one workload; return ``(result, report)``.

    ``tiny`` (the smoke test) keeps each workload's cheapest queries and
    sets up once.
    """
    definition = workloads.load_definition()
    spec = definition["workloads"][name]
    bench = KINDS[spec["kind"]](name, definition, seed, tiny=tiny)
    tracer = layers.LayerTrace() if trace else None
    speed = probe.HostSpeed(inside=not trace)

    def more_setups() -> bool:
        if trace or tiny:
            return not setup_times
        return len(setup_times) < SETUP_MAX_REPS and (
            len(setup_times) < SETUP_REPS or sum(setup_times) < SETUP_MIN_S
        )

    setup_times, scaled_setup_times = [], []
    env = None
    while more_setups():
        if env is not None:
            bench.teardown(env)
        env = Env(speed)
        if tracer is not None:
            tracer.install()
        bench.setup(env)
        setup_times.append(env.setup_raw)
        scaled_setup_times.append(env.setup_scaled)
        if tracer is not None:
            tracer.uninstall()

    tail_pct = spec["tail_pct"]
    # Enough reads that at least 10 lie beyond the tail percentile.
    min_reads = 1 if tiny else math.ceil(
        round(10.0 / (1.0 - tail_pct / 100.0), 6)
    )
    untraced, traced = Phase(), Phase()
    wall_start, cpu_start = time.perf_counter(), time.process_time()
    try:
        if tracer is None:
            while untraced.wall < seconds or len(untraced.reads) < min_reads:
                bench.step(
                    env, untraced, max(seconds - untraced.wall, SLICE_S)
                )
        else:
            tracer.phase = "timed"
            # Counter deltas summed over the traced slices only.
            traced_counts: Dict[str, int] = {}
            pairs = 0
            while untraced.wall + traced.wall < seconds or not traced.units:
                # Alternate which side goes first, so neither always runs
                # on the state (match memo, warm caches) the other left.
                if pairs % 2:
                    bench.step(env, untraced, SLICE_S)
                before = bench.counters(env)
                tracer.install()
                try:
                    bench.step(env, traced, SLICE_S)
                finally:
                    tracer.uninstall()
                for key, value in bench.counters(env).items():
                    traced_counts[key] = (
                        traced_counts.get(key, 0) + value - before[key]
                    )
                if not pairs % 2:
                    bench.step(env, untraced, SLICE_S)
                pairs += 1
    finally:
        wall = time.perf_counter() - wall_start
        cpu = time.process_time() - cpu_start
        bench.teardown(env)

    probe_seconds = speed.readings
    failed, problems = bench.verify(env)
    phases = [untraced, traced]
    attempted = untraced.requests + traced.requests
    failed += untraced.errors + traced.errors
    report = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "inputs_sha256": bench.digest,
        "definition_version": definition["version"],
        "host": host_record(),
        "timed_wall_s": wall,
        "timed_cpu_s": cpu,
        "setup_s_samples": setup_times,
        "host_speed": {
            "reference_probe_s": probe.REFERENCE_S,
            "probes": len(probe_seconds),
            "probe_p10_s": percentile(probe_seconds, 10),
            "probe_p50_s": percentile(probe_seconds, 50),
            "probe_p90_s": percentile(probe_seconds, 90),
        },
        "error_rate": failed / attempted,
        "problems": problems[:20],
        "shares": bench.shares(env, phases),
    }

    if tracer is None:
        reads = untraced.scaled_reads
        tail = percentile(reads, tail_pct)
        report.update({
            "latency_samples": len(reads),
            "tail_pct": tail_pct,
            "tail_samples_beyond": sum(r > tail for r in reads),
            # This run's own highest percentile with 10 samples beyond
            # (the gated tail is fixed per workload, see README.md).
            "run_tail_pct": workloads.tail_pct(len(reads)),
            "run_tail_ms": 1000.0 * percentile(
                reads, workloads.tail_pct(len(reads))
            ),
            "latency_max_ms": 1000.0 * max(reads),
            # The same metrics from raw (unscaled) times.
            "raw": {
                "setup_s": statistics.median(setup_times),
                "qps": untraced.qps,
                "latency_p50_ms": 1000.0 * percentile(untraced.reads, 50),
                "latency_tail_ms": 1000.0 * percentile(
                    untraced.reads, tail_pct
                ),
            },
        })
        if untraced.writes:
            report["write_p50_ms"] = 1000.0 * percentile(
                untraced.scaled_writes, 50
            )
            report["write_samples"] = len(untraced.writes)
        values = {
            "setup_s": statistics.median(scaled_setup_times),
            "qps": untraced.scaled_qps,
            "latency_p50_ms": 1000.0 * percentile(reads, 50),
            "latency_tail_ms": 1000.0 * tail,
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            ),
        }
        if untraced.slices:
            # hot-serve: the median over 1-s slices of each slice's own
            # figure, so a few slices hit by a host stall do not move it.
            qps, p50, slice_tail = zip(*untraced.slices)
            report["slice_qps"] = list(qps)
            values["qps"] = statistics.median(qps)
            values["latency_p50_ms"] = 1000.0 * statistics.median(p50)
            values["latency_tail_ms"] = 1000.0 * statistics.median(
                slice_tail
            )
        units = END_TO_END
    else:
        values = layer_metrics(tracer, env, untraced, traced, traced_counts)
        units = PER_LAYER
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": float(values[key]), "unit": unit}
            for key, unit in units.items()
        },
    }
    return result, report


def layer_metrics(tracer, env, untraced, traced,
                  counts) -> Dict[str, float]:
    """Every per-layer metric (0 where the layer did not run)."""

    def per_call_ms(span: str) -> float:
        agg = tracer.merged(span)
        return 1000.0 * agg.total / agg.calls if agg.calls else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: Dict[str, float] = {}
    handle = tracer.get("timed", "serving.handle")
    execute = tracer.get("timed", "serving.execute")
    out["serving.handle_ms"] = ratio(1000.0 * handle.total, handle.calls)
    out["serving.execute_ms"] = ratio(1000.0 * execute.total, execute.calls)
    out["serving.wait_ms"] = ratio(
        1000.0 * (handle.total - execute.total), handle.calls
    )
    out["serving.transport_ms"] = (
        1000.0 * statistics.fmean(traced.reads) - out["serving.handle_ms"]
        if handle.calls else 0.0
    )
    out["serving.coalesced_ratio"] = ratio(
        counts.get("coalesced", 0), counts.get("received", 0)
    )
    out["serving.batch_size_mean"] = ratio(
        counts.get("batched_queries", 0), counts.get("batches", 0)
    )
    out["storage.cache_lookup_ms"] = per_call_ms("storage.cache_key") + (
        per_call_ms("storage.cache_lookup")
    )
    out["storage.cache_hit_ratio"] = ratio(
        counts["hits"], counts["hits"] + counts["misses"]
        + counts["invalidations"],
    )
    out["storage.invalidations"] = counts["invalidations"]
    out["text.match_ms"] = per_call_ms("text.match")
    out["rwmp.scorer_build_ms"] = per_call_ms("rwmp.scorer_build")

    runs = [run for phase_runs in tracer.searches.values()
            for run in phase_runs]
    count = len(runs)

    def mean(field: str) -> float:
        return ratio(sum(getattr(s, field) for s, _ in runs), count)

    out["search.score_s"] = mean("score_seconds")
    out["search.run_ms"] = ratio(1000.0 * sum(w for _, w in runs), count)
    out["search.admissions"] = mean("enqueued")
    out["search.expanded"] = mean("expanded")
    out["search.useful_ratio"] = ratio(
        sum(s.expanded for s, _ in runs), sum(s.enqueued for s, _ in runs)
    )
    out["search.tightened"] = mean("tightened")
    out["search.repushed"] = mean("repushed")
    out["search.cheap_bound_s"] = mean("cheap_bound_seconds")
    out["search.tighten_s"] = mean("tighten_seconds")
    out["search.expand_s"] = mean("expand_seconds")
    # The loop's top-level timed phases are head tightening and
    # expansion; expansion encloses the admit-time bounds and scoring.
    out["search.unattributed_s"] = ratio(sum(
        wall - s.tighten_seconds - s.expand_seconds for s, wall in runs
    ), count)
    out["search.arena_peak_bytes"] = max(
        (s.arena_peak_bytes for s, _ in runs), default=0
    )
    out["indexing.build_s"] = tracer.get("setup", "indexing.build").total
    out["indexing.pruned_distance"] = mean("pruned_distance")
    out["indexing.admit_capped"] = mean("admit_capped")
    out["importance.pagerank_ms"] = per_call_ms("importance.pagerank")
    out["importance.apply_feedback_ms"] = per_call_ms(
        "importance.apply_feedback"
    )
    out["setup.graph_s"] = env.timings.get("dataset", 0.0) + tracer.get(
        "setup", "setup.graph_build"
    ).total
    out["setup.inverted_index_s"] = tracer.get(
        "setup", "setup.inverted_index"
    ).total
    out["setup.workload_s"] = env.timings.get("workload", 0.0)
    out["setup.warmup_s"] = env.timings.get("warmup", 0.0)
    out["trace.overhead_ratio"] = ratio(
        traced.scaled_qps, untraced.scaled_qps
    )
    request_wall = sum(traced.reads) + sum(traced.writes)
    out["trace.coverage_ratio"] = ratio(
        tracer.covered_seconds("timed"), request_wall
    )
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=sorted(workloads.load_definition()["workloads"]),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    kind = workloads.load_definition()["workloads"][args.workload]["kind"]
    if KINDS[kind].one_vcpu:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    result, report = run(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

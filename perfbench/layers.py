"""Outside-in per-layer spans for the traced run.

The traced run wraps each layer's public entry point in place — the
real call path, nothing re-implemented — records one span per call and
restores the originals afterwards.  Nothing inside ``src/`` changes.

A span's self time is its duration minus the spans it encloses on the
same thread.  ``CIRankDaemon.handle_search`` is a coroutine interleaved
with others on the event loop, so it keeps its own accumulator (a
context variable, which asyncio keeps per task) for the synchronous
spans that run inside it on the loop; the execution it awaits runs on a
worker thread and is subtracted in aggregate (every execution is awaited
by exactly one leading request).
"""

from __future__ import annotations

import contextvars
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

import repro.serving.daemon as daemon_module
import repro.storage.answer_cache as answer_cache_module
import repro.system as system_module
from repro.graph.builder import GraphBuilder
from repro.search.branch_and_bound import BranchAndBoundSearch
from repro.serving.daemon import CIRankDaemon
from repro.storage.answer_cache import AnswerCache
from repro.system import CIRankSystem
from repro.text.inverted_index import InvertedIndex
from repro.text.matcher import KeywordMatcher

#: (owner, attribute, span name) of every synchronous entry point.
SYNC_TARGETS = (
    (daemon_module, "run_with_deadline", "serving.execute"),
    (answer_cache_module, "answer_cache_key", "storage.cache_key"),
    (AnswerCache, "lookup", "storage.cache_lookup"),
    (KeywordMatcher, "match", "text.match"),
    (CIRankSystem, "scorer_for", "rwmp.scorer_build"),
    (BranchAndBoundSearch, "run", "search.run"),
    (system_module, "pagerank", "importance.pagerank"),
    (CIRankSystem, "apply_feedback", "importance.apply_feedback"),
    (CIRankSystem, "attach_index", "indexing.build"),
    (GraphBuilder, "build", "setup.graph_build"),
    (InvertedIndex, "build", "setup.inverted_index"),
)

ASYNC_TARGETS = ((CIRankDaemon, "handle_search", "serving.handle"),)

_request_children: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_request_children", default=None
)


class Aggregate:
    """Calls, total and self seconds of one span name in one phase."""

    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class LayerTrace:
    """Installs span wrappers; aggregates per (phase, span name).

    Set :attr:`phase` to label what runs next (``"setup"`` or
    ``"timed"``).  ``search.run`` spans also keep the run's
    ``SearchStats`` so the search counters come from the same calls.
    """

    def __init__(self) -> None:
        self.phase = "setup"
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: List[Tuple[Any, str, Any]] = []
        self.spans: Dict[Tuple[str, str], Aggregate] = defaultdict(Aggregate)
        self.searches: Dict[str, List[Tuple[Any, float]]] = defaultdict(list)

    # ----------------------------------------------------------- install

    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, name in SYNC_TARGETS:
            self._patch(owner, attr, self._sync_wrapper(name))
        for owner, attr, name in ASYNC_TARGETS:
            self._patch(owner, attr, self._async_wrapper(name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _patch(self, owner, attr: str, make: Callable) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else (
            getattr(owner, attr)
        )
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    # ----------------------------------------------------------- spans

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, elapsed: float, self_time: float) -> None:
        with self._lock:
            agg = self.spans[(self.phase, name)]
            agg.calls += 1
            agg.total += elapsed
            agg.self_time += self_time

    def _sync_wrapper(self, name: str):
        def make(fn):
            def span(*args, **kwargs):
                stack = self._stack()
                stack.append(0.0)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    children = stack.pop()
                    if stack:
                        stack[-1] += elapsed
                    else:
                        enclosing = _request_children.get()
                        if enclosing is not None:
                            enclosing[0] += elapsed
                    self._record(name, elapsed, elapsed - children)
                if name == "search.run":
                    with self._lock:
                        self.searches[self.phase].append(
                            (args[0].stats, elapsed)
                        )
                return result
            span.__wrapped__ = fn
            return span
        return make

    def _async_wrapper(self, name: str):
        def make(fn):
            async def span(*args, **kwargs):
                children = [0.0]
                token = _request_children.set(children)
                start = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    _request_children.reset(token)
                    self._record(name, elapsed, elapsed - children[0])
            span.__wrapped__ = fn
            return span
        return make

    # ---------------------------------------------------------- results

    def get(self, phase: str, name: str) -> Aggregate:
        with self._lock:
            return self.spans.get((phase, name), Aggregate())

    def merged(self, name: str) -> Aggregate:
        """One span name's aggregate over every phase."""
        out = Aggregate()
        with self._lock:
            for (_, span_name), agg in self.spans.items():
                if span_name == name:
                    out.calls += agg.calls
                    out.total += agg.total
                    out.self_time += agg.self_time
        return out

    def covered_seconds(self, phase: str) -> float:
        """Summed self time of every layer span in ``phase``.

        The awaited executions are subtracted from the request spans
        here, where both totals are known.
        """
        with self._lock:
            spans = {n: a for (p, n), a in self.spans.items() if p == phase}
        covered = sum(a.self_time for a in spans.values())
        execute = spans.get("serving.execute")
        if execute is not None and "serving.handle" in spans:
            covered -= execute.total
        return covered

"""The traced run: spans around the program's public layer entry points.

Nothing here edits the program.  :func:`install` replaces public methods of
the program's classes, in the running process only, with wrappers that
record a span (layer, start, end, parent, job id, extra) in memory; the
spans are written out when the run ends and reduced by :func:`per_layer`.

Parents are tracked per thread.  Two hand-offs cross threads: a job's
controller thread is identified by the service's own ``started`` event, and
an execution submitted to the shared scheduler is linked to its worker-side
half through the instance object both sides hold.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time

import steal

LAYERS = (
    "service.submit",
    "core.solver",
    "core.evaluate",
    "core.engine",
    "concurrency.hop",
    "service.cache",
    "pipeline.run",
    "exec.dispatch",
    "exec.remote.dispatch",
    "provenance.write",
    "provenance.read",
    "service.queue",
    "service.http.submit",
    "obs.flush",
)

_ENGINE_SKIP = {"stats", "for_session"}
_PROVENANCE = {
    "upsert": "provenance.write",
    "append_job_events": "provenance.write",
    "begin_job": "provenance.write",
    "finish_job": "provenance.write",
    "lookup": "provenance.read",
    "job_row": "provenance.read",
    "job_event_rows": "provenance.read",
    "queue_row": "provenance.read",
    "enqueue_job": "service.queue",
    "claim_job": "service.queue",
    "finish_queued_job": "service.queue",
    "persist_event_batch": "obs.flush",
}
#: Store methods whose first argument names the job they work for.
_JOB_ARG = {
    "begin_job": 0,
    "finish_job": 0,
    "job_row": 0,
    "job_event_rows": 0,
    "queue_row": 0,
    "enqueue_job": 0,
    "claim_job": 0,
    "finish_queued_job": 0,
}


class Tracer:
    """In-memory span recorder shared by every wrapper in one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._handoff: dict[int, list] = {}

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.job = None
        return local

    def begin(self, layer: str, job: str | None = None) -> list:
        state = self._state()
        parent = state.stack[-1] if state.stack else None
        if job is None:
            job = parent[4] if parent is not None else state.job
        span = [layer, time.monotonic(), 0.0, parent, job, None]
        self.spans.append(span)
        state.stack.append(span)
        return span

    def end(self, span: list, extra=None) -> None:
        span[2] = time.monotonic()
        span[5] = extra
        stack = self._state().stack
        if stack and stack[-1] is span:
            stack.pop()

    def set_job(self, job: str | None) -> None:
        self._state().job = job

    def hand_off(self, key: int, span: list | None) -> None:
        if span is None:
            self._handoff.pop(key, None)
        else:
            self._handoff[key] = span

    def adopt(self, key: int) -> list | None:
        """Parent a worker-thread call on the span that handed it off."""
        state = self._state()
        if state.stack:
            return None
        parent = self._handoff.get(key)
        if parent is not None:
            state.stack.append(parent)
        return parent

    def release(self, parent: list | None) -> None:
        if parent is not None:
            stack = self._state().stack
            if stack and stack[-1] is parent:
                stack.pop()

    def export(self) -> list[list]:
        """Spans as JSON-ready rows with parents as row indices."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = []
        for layer, start, end, parent, job, extra in self.spans:
            rows.append(
                [layer, start, end, index.get(id(parent), -1), job, extra]
            )
        return rows


def _wrap(tracer: Tracer, owner, name: str, layer: str, job_arg=None, result_extra=None):
    original = owner.__dict__[name]

    @functools.wraps(original)
    def wrapper(self, *args, **kwargs):
        job = None
        if job_arg is not None and len(args) > job_arg:
            job = str(args[job_arg])
        span = tracer.begin(layer, job)
        extra = None
        try:
            result = original(self, *args, **kwargs)
            if result_extra is not None:
                extra = result_extra(result)
            return result
        finally:
            tracer.end(span, extra)

    setattr(owner, name, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer in this process."""
    from repro.concurrency.scheduler import ScheduledExecutor
    from repro.core.bugdoc import BugDoc
    from repro.core.engine import ColumnarEngine
    from repro.core.session import DebugSession
    from repro.exec.events import EventBus
    from repro.exec.pool import ProcessPool
    from repro.exec.remote.pool import RemoteWorkerPool
    from repro.provenance.store import SQLiteProvenanceStore
    from repro.service.cache import CachedExecutor
    from repro.service.http import DebugServiceHTTP
    from repro.service.service import DebugService

    def submit(original):
        @functools.wraps(original)
        def wrapper(self, spec):
            span = tracer.begin("service.submit", spec.job_id)
            try:
                return original(self, spec)
            finally:
                tracer.end(span)

        return wrapper

    DebugService.submit = submit(DebugService.__dict__["submit"])

    def http_submit(original):
        @functools.wraps(original)
        def wrapper(self, payload):
            span = tracer.begin("service.http.submit", str(payload.get("job_id")))
            try:
                return original(self, payload)
            finally:
                tracer.end(span)

        return wrapper

    DebugServiceHTTP.submit_payload = http_submit(
        DebugServiceHTTP.__dict__["submit_payload"]
    )

    publish = EventBus.__dict__["publish"]

    @functools.wraps(publish)
    def traced_publish(self, job_id, kind, payload=None, **kwargs):
        # The controller thread announces the job it is about to run.
        if kind == "started":
            tracer.set_job(job_id)
        event = publish(self, job_id, kind, payload, **kwargs)
        if kind == "finished":
            tracer.set_job(None)
        return event

    EventBus.publish = traced_publish

    _wrap(tracer, BugDoc, "find_one", "core.solver")
    _wrap(tracer, BugDoc, "find_all", "core.solver")
    _wrap(tracer, DebugSession, "evaluate", "core.evaluate")
    for name, member in list(ColumnarEngine.__dict__.items()):
        if callable(member) and not name.startswith("_") and name not in _ENGINE_SKIP:
            _wrap(tracer, ColumnarEngine, name, "core.engine")

    hop = ScheduledExecutor.__dict__["__call__"]

    @functools.wraps(hop)
    def traced_hop(self, instance):
        span = tracer.begin("concurrency.hop")
        tracer.hand_off(id(instance), span)
        try:
            return hop(self, instance)
        finally:
            tracer.hand_off(id(instance), None)
            tracer.end(span)

    ScheduledExecutor.__call__ = traced_hop

    cached = CachedExecutor.__dict__["__call__"]

    @functools.wraps(cached)
    def traced_cache(self, instance):
        parent = tracer.adopt(id(instance))
        span = tracer.begin("service.cache")
        try:
            return cached(self, instance)
        finally:
            tracer.end(span)
            tracer.release(parent)

    CachedExecutor.__call__ = traced_cache

    _wrap(tracer, ProcessPool, "run_traced", "exec.dispatch", result_extra=lambda r: r[1])
    _wrap(
        tracer,
        RemoteWorkerPool,
        "run_traced",
        "exec.remote.dispatch",
        result_extra=lambda r: r[1],
    )
    for name, layer in _PROVENANCE.items():
        _wrap(tracer, SQLiteProvenanceStore, name, layer, job_arg=_JOB_ARG.get(name))


def pipeline_executor(tracer: Tracer, executor):
    """Wrap an in-process pipeline so each run records a span."""

    def run(instance):
        span = tracer.begin("pipeline.run")
        try:
            return executor(instance)
        finally:
            tracer.end(span)

    return run


# -- Reduction ---------------------------------------------------------------
def within(spans: list[list], start: float, end: float) -> list[list]:
    """The spans that began inside ``[start, end]``, parents re-indexed."""
    keep = [i for i, span in enumerate(spans) if start <= span[1] <= end]
    index = {old: new for new, old in enumerate(keep)}
    return [
        [*spans[i][:3], index.get(spans[i][3], -1), *spans[i][4:]] for i in keep
    ]


def _union_length(intervals: list[tuple[float, float]]) -> float:
    covered = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        covered += current_end - current_start
    return covered


def per_layer(spans: list[list], jobs: list[dict]) -> dict[str, tuple[float, str]]:
    """Reduce spans and per-job records to ``{metric: (value, base)}``.

    ``jobs`` holds one record per traced job: its client-side window
    (``start``/``end``), intervals derived from its events and from the
    client (``intervals``), and the event counts the ratios need.
    """
    n = max(1, len(jobs))
    by_layer: dict[str, list[int]] = {layer: [] for layer in LAYERS}
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        by_layer.setdefault(span[0], []).append(i)
        if span[3] >= 0:
            children.setdefault(span[3], []).append(i)

    def duration(i: int) -> float:
        return spans[i][2] - spans[i][1]

    def self_time(i: int) -> float:
        return duration(i) - sum(duration(c) for c in children.get(i, ()))

    def total(layer: str) -> float:
        return sum(duration(i) for i in by_layer[layer])

    metrics: dict[str, tuple[float, str]] = {}
    solver = total("core.solver") - total("core.evaluate")
    metrics["core.solver_ms_per_job"] = (1000 * solver / n, f"jobs {len(jobs)}")
    top_engine = [
        i
        for i in by_layer["core.engine"]
        if spans[i][3] < 0 or spans[spans[i][3]][0] != "core.engine"
    ]
    metrics["core.engine_ms_per_job"] = (
        1000 * sum(duration(i) for i in top_engine) / n,
        f"jobs {len(jobs)}",
    )
    metrics["core.engine_calls_per_job"] = (len(top_engine) / n, f"jobs {len(jobs)}")
    evaluations = by_layer["core.evaluate"]
    executed = sum(1 for i in evaluations if children.get(i))
    metrics["core.session_us"] = (
        1e6 * sum(self_time(i) for i in evaluations) / max(1, executed),
        f"executions {executed}",
    )
    hops = by_layer["concurrency.hop"]
    metrics["concurrency.hop_us"] = (
        1e6 * sum(self_time(i) for i in hops) / max(1, len(hops)),
        f"executions {len(hops)}",
    )
    cache = by_layer["service.cache"]
    metrics["service.cache_us"] = (
        1e6 * sum(self_time(i) for i in cache) / max(1, len(cache)),
        f"requests {len(cache)}",
    )
    runs = [duration(i) for i in by_layer["pipeline.run"]]
    for layer in ("exec.dispatch", "exec.remote.dispatch"):
        runs.extend(spans[i][5] for i in by_layer[layer] if spans[i][5] is not None)
    metrics["pipeline.run_us"] = (
        1e6 * statistics.fmean(runs) if runs else 0.0,
        f"runs {len(runs)}",
    )
    for layer in ("exec.dispatch", "exec.remote.dispatch"):
        gaps = sorted(duration(i) - (spans[i][5] or 0.0) for i in by_layer[layer])
        for percentile in (50, 90):
            metrics[f"{layer}_p{percentile}_us"] = (
                1e6 * steal.nearest_rank(gaps, percentile) if gaps else 0.0,
                f"runs {len(gaps)}",
            )
    for prefix, layer in (("write", "provenance.write"), ("read", "provenance.read")):
        calls = by_layer[layer]
        metrics[f"provenance.{prefix}_ms_per_job"] = (
            1000 * total(layer) / n,
            f"jobs {len(jobs)}",
        )
        metrics[f"provenance.{prefix}s_per_job"] = (len(calls) / n, f"jobs {len(jobs)}")
    metrics["service.queue.ms_per_job"] = (
        1000 * total("service.queue") / n,
        f"jobs {len(jobs)}",
    )
    metrics["obs.flush_ms_per_job"] = (1000 * total("obs.flush") / n, f"jobs {len(jobs)}")

    # The ledger: how much of each job's wall is covered by any span.
    by_job: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span[4] is not None:
            by_job.setdefault(span[4], []).append((span[1], span[2]))
    wall = covered = 0.0
    for job in jobs:
        start, end = job["start"], job["end"]
        intervals = [
            (max(a, start), min(b, end))
            for a, b in by_job.get(job["id"], []) + job["intervals"]
            if b > start and a < end
        ]
        wall += end - start
        covered += _union_length(intervals)
    metrics["ledger.unattributed_share"] = (
        (wall - covered) / wall if wall > 0 else 0.0,
        f"job wall {wall:.3f}s",
    )
    confirmed = sum(job["confirmed"] for job in jobs)
    refuted = sum(job["refuted"] for job in jobs)
    metrics["core.confirmed_ratio"] = (
        confirmed / (confirmed + refuted) if confirmed + refuted else 0.0,
        f"suspects tested {confirmed + refuted}",
    )
    metrics["exec.events_per_job"] = (
        sum(job["events"] for job in jobs) / n,
        f"jobs {len(jobs)}",
    )
    for key, metric in (
        ("admission", "service.admission_wait_ms"),
        ("build", "service.session_build_ms"),
        ("submit", "service.http.submit_ms"),
        ("lag", "service.http.stream_lag_ms"),
    ):
        values = [job[key] for job in jobs if job.get(key) is not None]
        metrics[metric] = (
            1000 * statistics.fmean(values) if values else 0.0,
            f"jobs {len(values)}",
        )
    return metrics

"""One cycle of one workload: start the stack, drive it, stop it, check it.

``run.py`` starts this script in a fresh interpreter for every cycle::

    python3 perfbench/loadgen.py --workload W --seed N --seconds S \\
        --mode main|lifecycle --trace 0|1 --t0 T --work DIR

``--t0`` is the parent's ``time.monotonic()`` just before it started this
interpreter (the clock is shared by every process on the host), so set-up
time includes interpreter start.  The load is a closed loop: two client
threads each submit a job, wait for its report, and submit the next.  A
``main`` cycle runs one warm-up round and then measured rounds; a
``lifecycle`` cycle runs a few jobs only, to time start-up and shutdown.
The last stdout line is one JSON object with everything ``run.py`` needs.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import sys
import threading
import time

import steal
import tracing

CLIENTS = 2
WORKERS = 2
LIFECYCLE_JOBS = 4
#: Jobs run before timing starts (interpreter, pool and import warm-up).
WARMUP_JOBS = 8
JOB_TIMEOUT = 120.0
SHUTDOWN_CAP = 5.0
#: Keep starting rounds past ``--seconds`` (up to this multiple) while the
#: rounds so far cannot support a zero-steal fit.
EXTEND = 3.0
HERE = os.path.dirname(os.path.abspath(__file__))


class LibraryStack:
    """``DebugService`` in this process: what a library caller runs."""

    def __init__(self, workload: str, bound: int):
        from repro.service import DebugService

        self.t_import = time.monotonic()
        self.pool = None
        self.workers_ready_s = 0.0
        if workload == "dispatch-process":
            from repro.exec import ProcessPool

            started = time.monotonic()
            self.pool = ProcessPool(max_workers=WORKERS, prewarm=WORKERS)
            self.workers_ready_s = time.monotonic() - started
        # A long-lived service bounds its cache; every round uses a fresh
        # workflow namespace, so the bound holds about one round of entries.
        self.service = DebugService(workers=WORKERS, pool=self.pool, cache_max_entries=bound)
        self.root = os.getpid()

    def run_job(self, job, job_id: str, workflow: str, tracer) -> dict:
        from repro.service.service import report_fingerprint

        executor = None
        if tracer is not None and job.builder is None:
            executor = tracing.pipeline_executor(tracer, job.executor)
        spec = job.spec(job_id, workflow, executor=executor)
        start = time.monotonic()
        handle = self.service.submit(spec)
        result = handle.result(timeout=JOB_TIMEOUT)
        end = time.monotonic()
        out = {
            "ok": result.status.value == "succeeded",
            "fp": report_fingerprint(result),
            "spent": result.budget_spent,
            "runs": (result.cache_stats or {}).get("executions", 0),
            "requests": (result.cache_stats or {}).get("requests", 0),
            "hits": (result.cache_stats or {}).get("hits", 0),
            "causes": [str(c) for c in result.report.causes] if result.report else [],
            "engine": result.engine_stats or {},
            "latency": end - start,
            "error": repr(result.error) if result.error is not None else None,
        }
        if result.report is not None:
            out["report_causes"] = result.report.causes
        if tracer is not None:
            events = [
                {"kind": e.kind, "t": e.monotonic, "data": e.payload}
                for e in self.service.events.log(job_id)
            ]
            out["trace"] = trace_record(job_id, start, end, events)
        self.service.discard_job(job_id)
        return out

    def counters(self) -> dict:
        counters = {}
        if self.pool is not None:
            stats = self.pool.stats()
            counters["exec.faults"] = stats["crashes"] + stats["timeouts"] + stats["retries"]
        return counters

    def shutdown(self) -> dict:
        started = time.monotonic()
        self.service.shutdown()
        if self.pool is not None:
            self.pool.shutdown()
        lingering = [
            t.name for t in threading.enumerate() if t is not threading.main_thread()
        ]
        capped = True
        while time.monotonic() - started < SHUTDOWN_CAP:
            if threading.active_count() == 1 and not self._children():
                capped = False
                break
            time.sleep(0.002)
        return {
            "shutdown_s": time.monotonic() - started,
            "threads_left": lingering,
            "shutdown_capped": capped,
        }


    def _children(self) -> list[int]:
        """Live child processes, except multiprocessing's resource tracker:
        the interpreter starts it on first use and it exits with the
        interpreter, whatever the stack does."""
        found = []
        for pid in steal.descendants(self.root):
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as handle:
                    command = handle.read()
            except OSError:
                continue
            if b"resource_tracker" not in command and steal.alive(pid):
                found.append(pid)
        return found


class HttpStack:
    """``repro serve --http`` as its own process, driven over HTTP."""

    def __init__(self, work: str, trace: bool):
        import subprocess

        os.makedirs(work, exist_ok=True)
        self.db = os.path.join(work, "prov.db")
        self.spans_path = os.path.join(work, "server-spans.json") if trace else None
        args = [
            "serve", "gan", "data_polygamy", "--http", "0", "--store", self.db,
            "--backend", "remote", "--fleet", str(WORKERS), "--workers", str(WORKERS),
        ]
        if trace:
            command = [sys.executable, os.path.join(HERE, "serve_traced.py"), self.spans_path, *args]
        else:
            command = [sys.executable, "-m", "repro", *args]
        self.trace = trace
        self.log_path = os.path.join(work, "server.log")
        log = open(self.log_path, "w")
        try:
            self.proc = subprocess.Popen(command, stdout=log, stderr=subprocess.STDOUT)
        finally:
            log.close()
        self.root = self.proc.pid
        self.port = self._banner_port()
        self.t_import = None
        self.workers_ready_s = 0.0
        deadline = time.monotonic() + 60.0
        while True:
            stats = self.get("/stats")
            if stats.get("pool", {}).get("active_workers", 0) >= WORKERS:
                break
            if time.monotonic() > deadline:
                raise RuntimeError("fleet workers did not join within 60s")
            time.sleep(0.005)

    def _banner_port(self) -> int:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early; see {self.log_path}")
            with open(self.log_path) as handle:
                for line in handle:
                    if line.startswith('{"serving"'):
                        return int(json.loads(line)["serving"]["port"])
            time.sleep(0.002)
        raise RuntimeError("server printed no banner within 60s")

    def _connection(self):
        import http.client

        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=JOB_TIMEOUT)

    def get(self, path: str) -> dict:
        connection = self._connection()
        try:
            connection.request("GET", path)
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def run_job(self, job, job_id: str, workflow: str, tracer) -> dict:
        body = json.dumps(job.payload(job_id, workflow)).encode()
        start = time.monotonic()
        connection = self._connection()
        try:
            connection.request(
                "POST", "/jobs", body=body, headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            answer = response.read()
        finally:
            connection.close()
        posted = time.monotonic()
        if response.status != 201:
            raise RuntimeError(f"POST /jobs answered {response.status}: {answer[:200]!r}")
        events = []
        connection = self._connection()
        try:
            connection.request("GET", f"/jobs/{job_id}/events?timeout={JOB_TIMEOUT:g}")
            stream = connection.getresponse()
            while True:
                line = stream.readline()
                if not line:
                    break
                event = json.loads(line)
                events.append(event)
                if event["terminal"]:
                    break
        finally:
            connection.close()
        end = time.monotonic()
        received_wall = time.time()
        finished = events[-1]["data"] if events and events[-1]["terminal"] else {}
        snapshot = next(
            (e["data"] for e in reversed(events) if e["kind"] == "metrics_snapshot"), {}
        )
        cache = snapshot.get("cache") or {}
        out = {
            "ok": finished.get("status") == "succeeded",
            "fp": finished.get("report_fingerprint"),
            "spent": finished.get("budget_spent", 0),
            "runs": cache.get("executions", 0),
            "requests": cache.get("requests", 0),
            "hits": cache.get("hits", 0),
            "causes": finished.get("causes") or [],
            "engine": snapshot.get("engine") or {},
            "latency": end - start,
            "error": finished.get("error") if finished else "stream ended early",
        }
        if self.trace:
            # Event stamps are wall-clock here; map them onto the shared
            # monotonic clock with one offset taken now.
            offset = time.monotonic() - time.time()
            mapped = [
                {"kind": e["kind"], "t": e["timestamp"] + offset, "data": e["data"]}
                for e in events
            ]
            record = trace_record(job_id, start, end, mapped)
            record["submit"] = posted - start
            record["intervals"].append((start, posted))
            if events and events[-1]["terminal"]:
                record["lag"] = max(0.0, received_wall - events[-1]["timestamp"])
                record["intervals"].append((events[-1]["timestamp"] + offset, end))
            out["trace"] = record
        return out

    def counters(self) -> dict:
        stats = self.get("/stats")
        pool = stats.get("pool") or {}
        events = stats.get("events") or {}
        return {
            "exec.faults": pool.get("retries", 0) + pool.get("timeouts", 0),
            "exec.remote.local_runs": pool.get("local_runs", 0),
            "obs.events_dropped": events.get("dropped", 0) + events.get("errors", 0),
            "obs.events_persisted": events.get("flushed", 0),
        }

    def db_bytes(self) -> int:
        total = 0
        for suffix in ("", "-wal", "-shm"):
            try:
                total += os.path.getsize(self.db + suffix)
            except OSError:
                pass
        return total

    def shutdown(self) -> dict:
        fleet = steal.descendants(self.root)
        started = time.monotonic()
        self.proc.send_signal(signal.SIGTERM)
        capped = True
        while time.monotonic() - started < SHUTDOWN_CAP:
            if (
                self.proc.poll() is not None
                and not [pid for pid in fleet if steal.alive(pid)]
                and not self._port_open()
            ):
                capped = False
                break
            time.sleep(0.002)
        elapsed = time.monotonic() - started
        if capped:
            for pid in [self.root, *fleet]:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        self.proc.wait()
        result = {"shutdown_s": elapsed, "threads_left": [], "shutdown_capped": capped}
        if self.spans_path is not None and os.path.exists(self.spans_path):
            with open(self.spans_path) as handle:
                server = json.load(handle)
            result["threads_left"] = server["threads_left"]
            result["server"] = server
        return result

    def _port_open(self) -> bool:
        import socket

        try:
            with socket.create_connection(("127.0.0.1", self.port), timeout=0.05):
                return True
        except OSError:
            return False


def trace_record(job_id: str, start: float, end: float, events: list[dict]) -> dict:
    """Per-job inputs of the ledger and of the event-derived layer metrics."""
    stamps = {}
    record = {
        "id": job_id,
        "start": start,
        "end": end,
        "intervals": [],
        "confirmed": 0,
        "refuted": 0,
        "events": len(events),
        "admission": None,
        "build": None,
    }
    for event in events:
        kind = event["kind"]
        stamps.setdefault(kind, event["t"])
        if kind == "suspect_confirmed":
            record["confirmed"] += 1
        elif kind == "suspect_refuted":
            record["refuted"] += 1
        elif kind == "span" and event["data"].get("name") == "persistence":
            seconds = float(event["data"].get("seconds", 0.0))
            record["build"] = seconds
            record["intervals"].append((event["t"] - seconds, event["t"]))
    if "submitted" in stamps and "started" in stamps:
        record["admission"] = stamps["started"] - stamps["submitted"]
        record["intervals"].append((stamps["submitted"], stamps["started"]))
    return record


def peak_rss(stack) -> float:
    """Peak RSS of the stack's process and every process under it, in MB."""
    return sum(
        steal.peak_rss_mb(pid) for pid in [stack.root, *steal.descendants(stack.root)]
    )


def run_round(stack, jobs, order, label: str, tracer) -> dict:
    """Run every job of ``order`` once under a closed loop of clients."""
    queue = list(order)
    outputs: dict[int, dict] = {}
    lock = threading.Lock()

    def client() -> None:
        while True:
            with lock:
                if not queue:
                    return
                k = queue.pop(0)
            job = jobs[k]
            workflow = f"{job.share or f'{job.family}-{k}'}-{label}"
            try:
                outputs[k] = stack.run_job(job, f"{label}-j{k}", workflow, tracer)
            except Exception as error:  # a failed job is counted, not fatal
                outputs[k] = {"ok": False, "error": repr(error), "latency": 0.0}

    threads = [threading.Thread(target=client, name=f"client-{i}") for i in range(CLIENTS)]
    steal_before = steal.cpu_times()
    cpu_before = steal.tree_cpu(stack.root)
    started = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    seconds = time.monotonic() - started
    cpu = steal.cpu_delta(cpu_before, steal.tree_cpu(stack.root))
    return {
        "seconds": seconds,
        "steal": steal.steal_share(steal_before, steal.cpu_times()),
        "cpu": sum(cpu.values()),
        "worker_cpu": sum(v for pid, v in cpu.items() if pid != stack.root),
        "outputs": [outputs[k] for k in range(len(jobs)) if k in outputs],
        "indices": [k for k in range(len(jobs)) if k in outputs],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("main", "lifecycle"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--cache-bound", type=int, default=0)
    args = parser.parse_args()

    if args.workload == "http-fleet":
        stack = HttpStack(args.work, bool(args.trace))
    else:
        stack = LibraryStack(args.workload, args.cache_bound or None)
    t_ready = time.monotonic()

    # The job sets load only now: they import parts of the program, and
    # set-up time should cover the stack, not the benchmark's inputs.
    import workloads

    tracer = None
    if args.trace and args.workload != "http-fleet":
        tracer = tracing.Tracer()
        tracing.install(tracer)
    limit = LIFECYCLE_JOBS if args.mode == "lifecycle" else None
    jobs, diagnostics = workloads.job_set(args.workload, args.seed, limit)
    # Replicas of one spec stay next to each other, so the two clients run
    # them side by side; otherwise the order is shuffled by the seed, with
    # the jobs of largest prior provenance first, so a round never ends
    # with one client running a heavy job alone.
    groups: dict[tuple, list[int]] = {}
    for job in jobs:
        groups.setdefault((job.family, job.seed), []).append(job.index)
    shuffled = list(groups.values())
    random.Random(f"order:{args.seed}").shuffle(shuffled)
    shuffled.sort(key=lambda group: -len(jobs[group[0]].history or ()))
    order = [k for group in shuffled for k in group]

    warmup = run_round(stack, jobs, order[:WARMUP_JOBS], "w", tracer)
    rounds = []
    db_before = stack.db_bytes() if isinstance(stack, HttpStack) else 0
    started = time.monotonic()
    rss = None
    if args.mode == "main":
        while True:
            rounds.append(run_round(stack, jobs, order, f"r{len(rounds)}", tracer))
            if len(rounds) == steal.MIN_ROUNDS:
                # Memory is read after a fixed amount of work: the server
                # keeps every HTTP job's record, so it grows with rounds.
                rss = peak_rss(stack)
            elapsed = time.monotonic() - started
            typical = sorted(r["seconds"] for r in rounds)[len(rounds) // 2]
            if elapsed + typical <= args.seconds:
                continue
            unfit = steal.problem([r["steal"] for r in rounds])
            if unfit is not None and elapsed < args.seconds * EXTEND:
                continue
            break
    window = (started, time.monotonic())
    measured_jobs = sum(len(r["outputs"]) for r in rounds)
    db_after = stack.db_bytes() if isinstance(stack, HttpStack) else 0
    if rss is None:
        rss = peak_rss(stack)
    counters = stack.counters()
    lifecycle = stack.shutdown()
    ready = {
        "setup_s": t_ready - args.t0,
        "import_s": (stack.t_import - args.t0) if stack.t_import is not None else None,
        "workers_ready_s": stack.workers_ready_s,
    }
    server = lifecycle.pop("server", None)
    if server is not None:
        ready["import_s"] = server["t_import"] - args.t0
        if server.get("t_pool") is not None:
            ready["workers_ready_s"] = t_ready - server["t_pool"]

    # Reference digests, after the stack is gone: a bare DebugSession +
    # BugDoc per distinct job, bypassing every service layer.
    references = [workloads.reference(job) for job in jobs]
    scorer = workloads.Scorer(jobs)
    for job, (report, __) in zip(jobs, references):
        scorer.learn(job.index, report.causes)
    for round_record in [warmup, *rounds]:
        for k, out in zip(round_record["indices"], round_record["outputs"]):
            scorer.learn(k, out.pop("report_causes", ()))
    failures = []
    attempted = failed = 0
    for round_record in [warmup, *rounds]:
        for k, out in zip(round_record["indices"], round_record["outputs"]):
            attempted += 1
            expected = references[k][1]
            if not out.get("ok") or out.get("fp") != expected:
                failed += 1
                if len(failures) < 5:
                    failures.append(
                        f"job {k} ({jobs[k].algorithm.value}/{jobs[k].goal.value}): "
                        f"ok={out.get('ok')} fingerprint {out.get('fp')} vs "
                        f"reference {expected}; error {out.get('error')}"
                    )

    def per_round(record: dict) -> dict:
        outs = record["outputs"]
        n = max(1, len(outs))
        return {
            "instances_per_job": sum(o.get("spent", 0) for o in outs) / n,
            "pipeline_runs_per_job": sum(o.get("runs", 0) for o in outs) / n,
            "root_cause_f1": scorer.f1(
                [(k, o.get("causes", [])) for k, o in zip(record["indices"], outs)]
            ),
        }

    # Counts must repeat exactly from round to round (the warm-up runs only
    # a prefix of the jobs, so it is checked by fingerprint alone).
    counts = [per_round(r) for r in rounds or [warmup]]
    every = [o for r in [warmup, *rounds] for o in r["outputs"]]
    measured = [o for r in rounds for o in r["outputs"]] or warmup["outputs"]
    engine = {}
    for key in ("fallbacks", "parallel_queries", "match_hits", "match_misses",
                "compile_hits", "compile_misses"):
        engine[key] = sum(int(o.get("engine", {}).get(key, 0) or 0) for o in measured)
    counters["core.fallbacks"] = sum(
        int(o.get("engine", {}).get("fallbacks", 0) or 0) for o in every
    )
    result = {
        "workload": args.workload,
        "mode": args.mode,
        "trace": args.trace,
        "seed": args.seed,
        "jobs_per_round": len(jobs),
        "diagnostics": diagnostics,
        **ready,
        **lifecycle,
        "warmup_seconds": warmup["seconds"],
        "rounds": [
            {
                "seconds": r["seconds"],
                "steal": r["steal"],
                "cpu": r["cpu"],
                "worker_cpu": r["worker_cpu"],
                "latencies": [o["latency"] for o in r["outputs"]],
            }
            for r in rounds
        ],
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "counts": counts,
        "counters": counters,
        "engine": engine,
        "cache": {
            "requests": sum(o.get("requests", 0) for o in measured),
            "hits": sum(o.get("hits", 0) for o in measured),
        },
        "measured_jobs": measured_jobs,
        "served_jobs": len(every),
        "peak_rss_mb": rss,
        "db_kb_per_job": (db_after - db_before) / 1024 / max(1, measured_jobs),
    }
    if args.trace and rounds:
        records = [o["trace"] for o in measured if "trace" in o]
        spans = tracer.export() if tracer is not None else []
        if server is not None:
            spans = server["spans"]
        spans = tracing.within(spans, *window)
        path = os.path.join(args.work, "spans.json")
        with open(path, "w") as handle:
            json.dump({"spans": spans, "jobs": records}, handle)
        result["per_layer"] = tracing.per_layer(spans, records)
        result["spans_file"] = path
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

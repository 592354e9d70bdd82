"""Steal-aware end-to-end and per-layer benchmark of the BugDoc service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload provenance-synth --seed 1 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``provenance-synth``: Section 5.1 synthetic pipelines with 1k-17k rows of
  prior provenance, all four strategies, on in-process oracle executors
  under ``DebugService(workers=2)``.  The solver and the columnar engine do
  the work.
* ``dispatch-process``: the Section 5.3 GAN pipeline on
  ``ProcessPool(max_workers=2, prewarm=2)`` behind ``DebugService``; every
  job has its own workflow, so every execution is dispatched to a worker.
* ``http-fleet``: ``repro serve gan data_polygamy --http 0 --store ...
  --backend remote --fleet 2 --workers 2`` as its own process; the client
  posts jobs and streams their events, replicas share a workflow per round.

Each run is a fresh interpreter.  Every cycle starts the stack in a fresh
interpreter too (``loadgen.py``), runs a warm-up round and then measured
rounds, each round repeating the same jobs under fresh job ids and a fresh
workflow namespace, from a closed loop of two clients.  Host steal is
sampled around every round, and every timing metric is the zero-steal
intercept of a fit across the rounds (see ``steal.py``); the run's
``host_steal_share`` is printed beside the metrics.  ``--trace 0`` prints the end-to-end
metrics (plus two start/stop cycles for set-up and shutdown time);
``--trace 1`` runs the same load untraced and then traced, and prints the
per-layer metrics.  Every job's report fingerprint is checked against a bare
``DebugSession`` + ``BugDoc`` run of its spec.  The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import steal

HERE = os.path.dirname(os.path.abspath(__file__))

END_TO_END = {
    "jobs_per_s": "jobs/s",
    "job_latency_p50_s": "s",
    "job_latency_tail_s": "s",
    "cpu_ms_per_job": "ms",
    "instances_per_job": "count",
    "pipeline_runs_per_job": "count",
    "root_cause_f1": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "shutdown_s": "s",
}

PER_LAYER = {
    "core.solver_ms_per_job": "ms",
    "core.engine_ms_per_job": "ms",
    "core.engine_calls_per_job": "count",
    "core.shard_fanouts_per_job": "count",
    "core.match_hit_ratio": "ratio",
    "core.compile_hit_ratio": "ratio",
    "core.confirmed_ratio": "ratio",
    "core.session_us": "us",
    "core.fallbacks": "count",
    "concurrency.hop_us": "us",
    "service.admission_wait_ms": "ms",
    "service.session_build_ms": "ms",
    "service.cache_hit_ratio": "ratio",
    "service.cache_us": "us",
    "service.http.submit_ms": "ms",
    "service.http.stream_lag_ms": "ms",
    "service.queue.ms_per_job": "ms",
    "pipeline.run_us": "us",
    "exec.dispatch_p50_us": "us",
    "exec.dispatch_p90_us": "us",
    "exec.worker_cpu_ms_per_job": "ms",
    "exec.events_per_job": "count",
    "exec.faults": "count",
    "exec.remote.dispatch_p50_us": "us",
    "exec.remote.dispatch_p90_us": "us",
    "exec.remote.worker_cpu_ms_per_job": "ms",
    "exec.remote.local_runs": "count",
    "provenance.write_ms_per_job": "ms",
    "provenance.writes_per_job": "count",
    "provenance.read_ms_per_job": "ms",
    "provenance.reads_per_job": "count",
    "provenance.db_kb_per_job": "kB",
    "obs.events_persisted_per_job": "count",
    "obs.flush_ms_per_job": "ms",
    "obs.events_dropped": "count",
    "setup.import_s": "s",
    "setup.workers_ready_s": "s",
    "lifecycle.threads_left": "count",
    "ledger.unattributed_share": "ratio",
    "ledger.trace_overhead_share": "ratio",
}

#: Counters that must stay zero; a nonzero value fails the run.
MUST_BE_ZERO = ("core.fallbacks", "exec.faults", "exec.remote.local_runs", "obs.events_dropped")
#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
LIFECYCLE_CYCLES = 2
#: The whole run must end within this many seconds.
RUN_DEADLINE = 170.0


class RunFailed(Exception):
    """The run cannot report numbers; the message says why."""


def run_cycle(args, mode: str, trace: int, index: int, env: dict, deadline: float) -> dict:
    """Start one ``loadgen.py`` cycle and return its JSON result."""
    work = os.path.join(args.work, f"cycle{index}")
    os.makedirs(work, exist_ok=True)
    command = [
        sys.executable, os.path.join(HERE, "loadgen.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--trace", str(trace),
        "--work", work, "--cache-bound", str(args.cache_bound or 0),
    ]
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [*command, "--t0", repr(t0)],
        stdout=subprocess.PIPE,
        env=env,
        start_new_session=True,
    )
    try:
        stdout, __ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RunFailed(f"{mode} cycle {index} did not finish before the run deadline")
    finally:
        # Whatever the cycle started (pool workers, the server, its fleet)
        # shares its process group; make sure none of it outlives the cycle.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
    lines = stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"{mode} cycle {index} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def estimate(result: dict, per_round) -> float:
    """Zero-steal estimate of ``per_round(round)`` over the measured rounds."""
    rounds = result["rounds"]
    try:
        value, __ = steal.zero_steal(
            [r["steal"] for r in rounds], [per_round(r) for r in rounds]
        )
    except steal.NotEstimable as error:
        raise RunFailed(f"{result['workload']}: {error}; not reporting timing metrics")
    if value < 0:
        raise RunFailed(f"{result['workload']}: the zero-steal fit gave {value:.4g}")
    return value


def host_steal_share(result: dict) -> float:
    rounds = result["rounds"]
    seconds = sum(r["seconds"] for r in rounds)
    return sum(r["steal"] * r["seconds"] for r in rounds) / seconds if seconds else 0.0


def jobs_per_s(result: dict) -> float:
    return estimate(result, lambda r: result["jobs_per_round"] / r["seconds"])


def latencies(result: dict, rate: float) -> list[float]:
    """Every measured latency, scaled to zero steal.

    A round that completed its jobs at ``r`` jobs/s ran ``r / rate`` as
    fast as the zero-steal fit, so each of its latencies is multiplied by
    that ratio.  (Fitting latency percentiles against steal directly
    extrapolates badly: under 26-28% steal it gave negative medians.)
    """
    jobs = result["jobs_per_round"]
    return sorted(
        x * (jobs / r["seconds"]) / rate for r in result["rounds"] for x in r["latencies"]
    )


def tail_percentile(result: dict) -> float:
    """The highest ladder percentile that leaves at least ten samples beyond
    it in the smallest pool of rounds a run may report on; fixed per
    workload, so every run reports the same percentile."""
    floor = result["jobs_per_round"] * steal.MIN_ROUNDS
    return next(p for p in TAIL_LADDER if math.floor(floor * (1 - p / 100)) >= 10)


def check(results: list[dict]) -> list[str]:
    """Every reason the outputs are wrong (empty when they are right)."""
    problems = []
    for result in results:
        problems.extend(result["failures"])
        for key in ("instances_per_job", "pipeline_runs_per_job", "root_cause_f1"):
            values = {round(c[key], 9) for c in result["counts"]}
            if len(values) > 1:
                problems.append(f"{key} differs between rounds: {sorted(values)}")
        for key in MUST_BE_ZERO:
            if result["counters"].get(key, 0):
                problems.append(f"{key} = {result['counters'][key]} (must be 0)")
    return problems


def end_to_end(results: list[dict]) -> tuple[dict, dict]:
    main, cycles = results[0], results
    rounds = main["rounds"]
    jobs = main["jobs_per_round"]
    throughput = jobs_per_s(main)
    pooled = latencies(main, throughput)
    samples = len(pooled)
    percentile = tail_percentile(main)
    counts = main["counts"][-1]
    metrics = {
        "jobs_per_s": throughput,
        "job_latency_p50_s": statistics.median(pooled),
        "job_latency_tail_s": steal.nearest_rank(pooled, percentile),
        "cpu_ms_per_job": estimate(main, lambda r: 1000 * r["cpu"] / jobs),
        "instances_per_job": counts["instances_per_job"],
        "pipeline_runs_per_job": counts["pipeline_runs_per_job"],
        "root_cause_f1": counts["root_cause_f1"],
        "peak_rss_mb": main["peak_rss_mb"],
        "setup_s": statistics.median(c["setup_s"] for c in cycles),
        "shutdown_s": statistics.median(c["shutdown_s"] for c in cycles),
    }
    fitted = f"zero-steal fit over {len(rounds)} rounds of {jobs} jobs"
    scaled = "each round scaled by its jobs/s over the zero-steal jobs/s"
    notes = {
        "jobs_per_s": fitted,
        "job_latency_p50_s": f"{samples} samples, {scaled}",
        "job_latency_tail_s": f"p{percentile:g} of {samples} samples "
        f"({samples - math.ceil(percentile / 100 * samples)} beyond), {scaled}",
        "cpu_ms_per_job": f"{fitted}; service + workers",
        "instances_per_job": f"jobs {jobs}",
        "pipeline_runs_per_job": f"jobs {jobs}",
        "root_cause_f1": f"jobs {jobs}",
        "peak_rss_mb": "service + workers",
        "setup_s": f"cycles {len(cycles)}: "
        + ", ".join(f"{c['setup_s']:.3f}" for c in cycles),
        "shutdown_s": f"cycles {len(cycles)}: "
        + ", ".join(f"{c['shutdown_s']:.3f}" for c in cycles),
    }
    return metrics, notes


def per_layer(untraced: dict, traced: dict) -> tuple[dict, dict]:
    layers = dict(traced["per_layer"])
    jobs = max(1, traced["measured_jobs"])
    engine = traced["engine"]
    counters = traced["counters"]

    def ratio(hits: float, misses: float) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    layers["core.shard_fanouts_per_job"] = (engine["parallel_queries"] / jobs, f"jobs {jobs}")
    layers["core.match_hit_ratio"] = (
        ratio(engine["match_hits"], engine["match_misses"]),
        f"lookups {engine['match_hits'] + engine['match_misses']}",
    )
    layers["core.compile_hit_ratio"] = (
        ratio(engine["compile_hits"], engine["compile_misses"]),
        f"lookups {engine['compile_hits'] + engine['compile_misses']}",
    )
    layers["core.fallbacks"] = (counters.get("core.fallbacks", 0), "all jobs")
    cache = traced["cache"]
    layers["service.cache_hit_ratio"] = (
        cache["hits"] / cache["requests"] if cache["requests"] else 0.0,
        f"requests {cache['requests']}",
    )
    # Worker CPU and storage growth come from the untraced cycle.
    worker_cpu = estimate(
        untraced, lambda r: 1000 * r["worker_cpu"] / untraced["jobs_per_round"]
    )
    remote = untraced["workload"] == "http-fleet"
    fitted = f"jobs {untraced['jobs_per_round']} a round, zero-steal fit"
    layers["exec.worker_cpu_ms_per_job"] = (0.0 if remote else worker_cpu, fitted)
    layers["exec.remote.worker_cpu_ms_per_job"] = (worker_cpu if remote else 0.0, fitted)
    layers["exec.faults"] = (counters.get("exec.faults", 0), "all jobs")
    layers["exec.remote.local_runs"] = (counters.get("exec.remote.local_runs", 0), "all jobs")
    layers["provenance.db_kb_per_job"] = (untraced["db_kb_per_job"], f"jobs {untraced['measured_jobs']}")
    layers["obs.events_persisted_per_job"] = (
        counters.get("obs.events_persisted", 0) / max(1, traced["served_jobs"]),
        f"jobs {traced['served_jobs']}",
    )
    layers["obs.events_dropped"] = (counters.get("obs.events_dropped", 0), "all jobs")
    layers["setup.import_s"] = (traced["import_s"] or 0.0, "traced cycle")
    layers["setup.workers_ready_s"] = (traced["workers_ready_s"], "traced cycle")
    names = ", ".join(traced["threads_left"]) or "none"
    layers["lifecycle.threads_left"] = (len(traced["threads_left"]), f"threads: {names}")
    plain, with_spans = jobs_per_s(untraced), jobs_per_s(traced)
    layers["ledger.trace_overhead_share"] = (
        1.0 - with_spans / plain,
        f"untraced jobs_per_s {plain:.3f}, traced {with_spans:.3f}",
    )
    metrics = {name: float(layers[name][0]) for name in PER_LAYER}
    return metrics, {name: f"base {layers[name][1]}" for name in PER_LAYER}


def main() -> int:
    parser = argparse.ArgumentParser(description="Steal-aware BugDoc service benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    deadline = started + RUN_DEADLINE

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no program to benchmark under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    ok, message = steal.self_check()
    print(message)
    if not ok:
        return 3

    args.cache_bound = workloads.cache_bound(args.workload)
    args.work = os.path.join(os.getcwd(), ".perfbench-work", f"{args.workload}-seed{args.seed}")
    shutil.rmtree(args.work, ignore_errors=True)
    os.makedirs(args.work)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["TMPDIR"] = args.work

    try:
        if args.trace:
            results = [
                run_cycle(args, "main", 0, 0, env, deadline),
                run_cycle(args, "main", 1, 1, env, deadline),
            ]
            metrics, notes = per_layer(*results)
            names = PER_LAYER
        else:
            results = [run_cycle(args, "main", 0, 0, env, deadline)]
            for index in range(1, LIFECYCLE_CYCLES + 1):
                results.append(run_cycle(args, "lifecycle", 0, index, env, deadline))
            metrics, notes = end_to_end(results)
            names = END_TO_END
    except RunFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        for pattern in ("prov.db", "prov.db-wal", "prov.db-shm"):
            for cycle in os.listdir(args.work):
                path = os.path.join(args.work, cycle, pattern)
                if os.path.exists(path):
                    os.remove(path)

    problems = check(results)
    measured = [r for r in results if r["rounds"]]
    print(
        f"{args.workload} seed {args.seed}: host_steal_share "
        + " / ".join(f"{host_steal_share(r):.2%}" for r in measured)
        + ", measured rounds (quiet under "
        + f"{steal.QUIET_STEAL_SHARE:.0%}) "
        + " / ".join(f"{len(r['rounds'])} ({len(steal.quiet_rounds(r['rounds']))})" for r in measured)
        + f" of {results[0]['jobs_per_round']} jobs, wall {time.monotonic() - started:.1f}s"
    )
    for name, unit in names.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}  ({notes[name]})")
    for problem in problems:
        print(f"  FAILED CHECK: {problem}")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": names[name]} for name in names
                },
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

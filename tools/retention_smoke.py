"""CI smoke for retention-scale telemetry: trace end to end, compact
online, query byte-identically.

Drives the full PR-10 loop against a real ``repro serve --http``
subprocess running the remote-fleet backend:

1. start ``repro serve --http 0 --store <db> --backend remote --fleet 1``;
2. submit three jobs over HTTP (two ``ml``-family, one control) and
   wait for all to finish;
3. assert each submission's minted ``trace_id`` reconstructs as ONE
   causal tree via ``/query?op=trace``: root span (service events),
   one dispatch child span per run the job executed (its
   ``metrics_snapshot`` cache count; ``ml-2`` replicates ``ml-1``, so
   the shared cache may serve all of its runs), and worker grandchild
   spans carrying the executing process's pid -- a *different* pid
   than the server's, proving the trace crossed the process boundary
   over the fleet wire protocol;
4. capture ``jobs`` + ``agg`` query bytes, then run ``repro compact
   --all`` for the ``ml`` workflow *while the service is still
   serving* (online compaction against a live writer);
5. re-query: ``jobs`` and ``agg`` must be byte-identical, the control
   workflow's raw events must be untouched, and the compacted job's
   detail must still serve its terminal record;
6. check ``GET /dashboard`` covers both families.

Exit code 0 on success; any failed step raises and exits non-zero.
Used as a *blocking* CI step (see .github/workflows/ci.yml).

Usage:
    PYTHONPATH=src python tools/retention_smoke.py
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time
import urllib.request

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

WORKLOAD = '''\
from repro.core import Instance, Outcome


def make_executor():
    def executor(instance: Instance) -> Outcome:
        return Outcome.FAIL if instance["a"] == 0 else Outcome.SUCCEED

    return executor
'''


def launch(db: pathlib.Path, env: dict):
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--http", "0", "--store", str(db),
            "--backend", "remote", "--fleet", "1", "--workers", "2",
        ],
        stdout=subprocess.PIPE,
        cwd=REPO_ROOT,
        env=env,
        text=True,
    )
    banner_line = process.stdout.readline()
    if not banner_line:
        raise SystemExit("server died before printing its banner")
    banner = json.loads(banner_line)["serving"]
    print(f"serving on port {banner['port']} (backend: remote fleet)")
    return process, banner


def get(port: int, path: str) -> bytes:
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=120
    ) as response:
        return response.read()


def post(port: int, path: str, payload: dict) -> dict:
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        assert response.status == 201, response.status
        return json.loads(response.read())


def payload(job_id: str, workflow: str) -> dict:
    domain = [json.dumps({"t": "int", "v": value}) for value in range(4)]
    return {
        "job_id": job_id,
        "workflow": workflow,
        "algorithm": "decision_trees",
        "goal": "find_all",
        "budget": 16,
        "executor_spec": {
            "builder": "retention_workload:make_executor",
            "kwargs": [],
        },
        "space": [["a", "ordinal", domain], ["b", "ordinal", domain]],
    }


def wait_terminal(port: int, job_id: str, deadline_seconds: float) -> str:
    deadline = time.monotonic() + deadline_seconds
    while time.monotonic() < deadline:
        status = json.loads(get(port, f"/jobs/{job_id}"))["status"]
        if status in ("succeeded", "failed", "cancelled"):
            return status
        time.sleep(0.2)
    raise SystemExit(f"{job_id} never reached a terminal state")


def executed_runs(port: int) -> dict[str, int]:
    """Runs each job executed itself (not served by the shared cache),
    from its ``metrics_snapshot`` event."""
    rows = json.loads(get(port, "/query?op=events&kind=metrics_snapshot"))
    return {
        row["job_id"]: row["payload"]["cache"]["executions"]
        for row in rows["events"]
    }


def check_trace_tree(
    port: int, job_id: str, trace_id: str, server_pid: int, executed: int
) -> set:
    tree = json.loads(get(port, f"/query?op=trace&trace_id={trace_id}"))
    assert tree["trace_id"] == trace_id, tree
    roots = tree["tree"]
    assert len(roots) == 1, f"{job_id}: expected one root span, got {roots}"
    root = roots[0]
    kinds = {event["kind"] for event in root["events"]}
    assert "submitted" in kinds and "finished" in kinds, kinds
    assert all(e["job_id"] == job_id for e in root["events"]), root
    dispatches = root["children"]
    assert len(dispatches) == executed, (
        f"{job_id}: {len(dispatches)} dispatch spans under the root for "
        f"{executed} executed runs"
    )
    worker_pids = set()
    for dispatch in dispatches:
        assert {e["kind"] for e in dispatch["events"]} == {"run_dispatched"}
        assert len(dispatch["children"]) == 1, dispatch
        for worker in dispatch["children"]:
            assert {e["kind"] for e in worker["events"]} == {"run_completed"}
            worker_pids.add(worker["pid"])
    assert server_pid not in worker_pids, (
        f"{job_id}: worker spans claim the server pid -- the trace never "
        "crossed the process boundary"
    )
    print(
        f"trace {trace_id[:8]}…: 1 root, {len(dispatches)} dispatch span(s) "
        f"for {executed} executed run(s), worker pid(s) {sorted(worker_pids)} "
        f"!= server pid {server_pid}"
    )
    return worker_pids


def main() -> int:
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="retention-smoke-"))
    (scratch / "retention_workload.py").write_text(WORKLOAD)
    db = scratch / "smoke.db"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(scratch)]
    )

    process, banner = launch(db, env)
    port = banner["port"]
    try:
        traces = {}
        for job_id, workflow in (
            ("ml-1", "ml"), ("ml-2", "ml"), ("ctl-1", "control")
        ):
            accepted = post(port, "/jobs", payload(job_id, workflow))
            traces[job_id] = accepted["trace_id"]
            assert isinstance(traces[job_id], str), accepted
        for job_id in traces:
            status = wait_terminal(port, job_id, 180)
            assert status == "succeeded", (job_id, status)
        print(f"three jobs finished; trace ids: {traces}")

        executed = executed_runs(port)
        worker_pids = set()
        for job_id, trace_id in traces.items():
            worker_pids |= check_trace_tree(
                port, job_id, trace_id, process.pid, executed[job_id]
            )
        assert worker_pids, "no worker spans under any dispatch"

        jobs_before = get(port, "/query?op=jobs")
        agg_before = get(
            port,
            "/query?op=agg&metric=count:run_completed&stat=sum"
            "&group_by=workflow",
        )
        control_events_before = get(
            port, "/query?op=events&workflow=control&kind=run_completed"
        )
        ml1_detail_before = get(port, "/jobs/ml-1")

        # Online compaction: the service keeps serving while a separate
        # process sweeps the ml family's raw events into summaries.
        swept = subprocess.run(
            [
                sys.executable, "-m", "repro", "compact",
                "--store", str(db), "--workflow", "ml", "--all",
            ],
            env=env, cwd=REPO_ROOT, capture_output=True, text=True,
        )
        assert swept.returncode == 0, swept.stderr
        report = json.loads(swept.stdout)
        assert report["compacted"] == 2, report
        print(f"online compaction: {report}")

        assert get(port, "/query?op=jobs") == jobs_before, (
            "jobs query changed across compaction"
        )
        after = get(
            port,
            "/query?op=agg&metric=count:run_completed&stat=sum"
            "&group_by=workflow",
        )
        assert after == agg_before, (
            "agg query changed across compaction:\n"
            f"  before: {agg_before!r}\n  after:  {after!r}"
        )
        assert get(
            port, "/query?op=events&workflow=control&kind=run_completed"
        ) == control_events_before, "control workflow raw events changed"
        ml_events = json.loads(
            get(port, "/query?op=events&workflow=ml&kind=run_completed")
        )
        assert ml_events["count"] == 0, "ml raw events survived compaction"
        detail = json.loads(get(port, "/jobs/ml-1"))
        before = json.loads(ml1_detail_before)
        assert detail["status"] == before["status"] == "succeeded"
        assert detail["causes"] == before["causes"], (
            "compacted job detail lost its terminal record"
        )
        assert detail.get("compacted") is True, detail
        print("jobs/agg byte-identical across online compaction; "
              "compacted detail served from the summary")

        dashboard = json.loads(get(port, "/dashboard"))
        assert set(dashboard["families"]) == {"ml", "control"}, dashboard
        ml_series = dashboard["families"]["ml"]
        assert sum(bucket["jobs"] for bucket in ml_series) == 2, ml_series
        print(f"dashboard families: {sorted(dashboard['families'])}")
    finally:
        process.terminate()
        try:
            process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=60)
    print("retention smoke OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

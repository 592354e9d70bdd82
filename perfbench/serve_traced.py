"""Run the ``repro`` CLI with the benchmark's span wrappers installed.

    python3 perfbench/serve_traced.py SPANS_OUT serve ...

Installs :mod:`tracing` in this process, calls ``repro.cli.main`` with the
remaining arguments, and when it returns writes SPANS_OUT: the spans, the
threads still alive at that moment, when ``import repro.cli`` finished and
when the fleet coordinator was built.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time


def main() -> int:
    out = sys.argv[1]
    import repro.cli

    t_import = time.monotonic()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracing
    from repro.exec.remote.pool import RemoteWorkerPool

    tracer = tracing.Tracer()
    tracing.install(tracer)
    marks: dict[str, float] = {}
    build = RemoteWorkerPool.__init__

    def traced_build(self, *args, **kwargs):
        build(self, *args, **kwargs)
        marks.setdefault("t_pool", time.monotonic())

    RemoteWorkerPool.__init__ = traced_build
    code = repro.cli.main(sys.argv[2:])
    lingering = [t.name for t in threading.enumerate() if t is not threading.main_thread()]
    with open(out, "w") as handle:
        json.dump(
            {
                "spans": tracer.export(),
                "threads_left": lingering,
                "t_import": t_import,
                "t_pool": marks.get("t_pool"),
            },
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())

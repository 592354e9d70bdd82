"""Host-steal and process-tree sampling, and the zero-steal estimator.

On a virtual machine whose vCPUs are time-shared with other guests, time
the hypervisor gives to someone else shows up as *steal* in ``/proc/stat``.
A workload that hands work between threads and processes wakes sleeping
vCPUs thousands of times a second and pays the host's scheduling delay on
each wake-up, so on a 2-vCPU VM its steal share swung from under 1% to over
30% within one run as the host's load changed, and throughput, CPU per job
and latency moved with it.  Rounds with steal under 3% were often too few or
absent altogether, but the relation between a round's steal share and its
figures was close to linear and stable (on ``dispatch-process`` the jobs/s
slope came out at -77, -77 and -76 per unit of steal share in three runs).
So every timing metric is estimated as the zero-steal intercept of a
Theil-Sen fit of the per-round value against the per-round steal share:
those three runs, with 0-4 quiet rounds each, gave 37.3-38.8 jobs/s this
way, where raw medians read 17.7-27.3.

Everything here reads ``/proc`` only; nothing imports the program under test.
"""

from __future__ import annotations

import math
import os
import random
import statistics

#: A round is *quiet* when the machine's steal share over it is below this
#: (a diagnostic: the estimator uses every round).
QUIET_STEAL_SHARE = 0.03
#: A run needs at least this many measured rounds to report timing metrics.
MIN_ROUNDS = 6
#: Pairs of rounds closer than this in steal share do not vote on the slope.
MIN_STEAL_GAP = 0.02
#: The self-check must recover the steal-free value within this share.
SELF_CHECK_TOLERANCE = 0.03

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_times() -> tuple[int, int]:
    """(steal, total) jiffies summed over all CPUs, from ``/proc/stat``.

    ``total`` counts user through steal; guest time is already inside user.
    """
    with open("/proc/stat") as handle:
        fields = handle.readline().split()[1:9]
    values = [int(field) for field in fields]
    return values[7], sum(values)


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Steal as a share of all CPU time between two :func:`cpu_times`."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def children(pid: int) -> list[int]:
    """Direct children of ``pid`` (every thread's ``children`` list)."""
    found: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                found.extend(int(child) for child in handle.read().split())
        except OSError:
            continue
    return found


def descendants(pid: int) -> list[int]:
    """Every live descendant of ``pid``, depth first."""
    found: list[int] = []
    stack = children(pid)
    while stack:
        child = stack.pop()
        found.append(child)
        stack.extend(children(child))
    return found


def alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


def process_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of one process (all its threads)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of one process, in MB."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def tree_cpu(root: int) -> dict[int, float]:
    """CPU seconds of ``root`` and each live descendant, keyed by pid."""
    return {pid: process_cpu_seconds(pid) for pid in [root, *descendants(root)]}


def cpu_delta(before: dict[int, float], after: dict[int, float]) -> dict[int, float]:
    """Per-pid CPU spent between two :func:`tree_cpu` samples.

    A process that started in between counts from zero.
    """
    return {pid: after[pid] - before.get(pid, 0.0) for pid in after}


def nearest_rank(ordered: list[float], percentile: float) -> float:
    """The nearest-rank ``percentile`` (0-100) of an ascending list."""
    return ordered[max(1, math.ceil(percentile / 100 * len(ordered))) - 1]


# -- Estimator ---------------------------------------------------------------
class NotEstimable(Exception):
    """The rounds cannot support a zero-steal estimate."""


def quiet_rounds(rounds: list[dict]) -> list[dict]:
    """The rounds whose ``steal`` share is below the quiet threshold."""
    return [r for r in rounds if r["steal"] < QUIET_STEAL_SHARE]


def theil_sen(xs: list[float], ys: list[float]) -> tuple[float, float]:
    """``(intercept, slope)`` of the Theil-Sen line through the points.

    The slope is the median of the pairwise slopes of points at least
    :data:`MIN_STEAL_GAP` apart in x; with no such pair it is 0.
    """
    slopes = [
        (ys[j] - ys[i]) / (xs[j] - xs[i])
        for i in range(len(xs))
        for j in range(i + 1, len(xs))
        if abs(xs[j] - xs[i]) >= MIN_STEAL_GAP
    ]
    slope = statistics.median(slopes) if slopes else 0.0
    return statistics.median(y - slope * x for x, y in zip(xs, ys)), slope


def problem(steals: list[float]) -> str | None:
    """Why rounds with these steal shares cannot be fitted, or None."""
    if len(steals) < MIN_ROUNDS:
        return f"{len(steals)} measured rounds (need {MIN_ROUNDS})"
    if (
        max(steals) - min(steals) < MIN_STEAL_GAP
        and statistics.median(steals) >= QUIET_STEAL_SHARE
    ):
        return (
            f"every round was stolen ({min(steals):.1%}-{max(steals):.1%}) and "
            "their steal shares are too close to fit a slope"
        )
    return None


def zero_steal(steals: list[float], values: list[float]) -> tuple[float, float]:
    """``(intercept, slope)``: the value a round would show at zero steal.

    Raises :class:`NotEstimable` when :func:`problem` finds one.
    """
    reason = problem(steals)
    if reason is not None:
        raise NotEstimable(reason)
    return theil_sen(steals, values)


def self_check(seed: int = 12345) -> tuple[bool, str]:
    """Recover a known steal-free rate from synthetic stolen rounds.

    Two synthetic runs of 10 rounds each: one with steal anywhere in
    0-35%, one with every round stolen 15-35% (no quiet round at all).  A
    round's rate falls by twice its steal share, as measured on a 2-vCPU
    VM, plus up to 2% jitter.  The zero-steal estimate must land
    within :data:`SELF_CHECK_TOLERANCE` of the true rate in both; the raw
    median lands far off.
    """
    true_rate = 40.0
    rng = random.Random(seed)
    lines = []
    ok = True
    for low, high in ((0.0, 0.35), (0.15, 0.35)):
        steals = [rng.uniform(low, high) for __ in range(10)]
        rates = [
            true_rate * (1.0 - 2.0 * s) * (1.0 + rng.uniform(-0.02, 0.02))
            for s in steals
        ]
        estimate, __ = zero_steal(steals, rates)
        error = abs(estimate - true_rate) / true_rate
        ok = ok and error <= SELF_CHECK_TOLERANCE
        lines.append(
            f"steal {low:.0%}-{high:.0%}: estimate {estimate:.2f} "
            f"(error {error:.2%}), raw median {statistics.median(rates):.2f}"
        )
    message = (
        f"estimator self-check (true rate {true_rate:g}, tolerance "
        f"{SELF_CHECK_TOLERANCE:.0%}): " + "; ".join(lines)
    )
    return ok, message

"""The three workloads: job sets generated from a seed, reference digests,
and root-cause scoring.

A *job set* is the list of distinct debugging requests one run repeats in
every round.  It depends only on the workload name and the seed; the program
under test receives the generated inputs and nothing else.

* ``provenance-synth``: Section 5.1 synthetic pipelines (about 10
  parameters, 6-8 values each, two planted conjunctions), each seeded with
  prior provenance of 1k-17k rows, on in-process oracle executors.
* ``dispatch-process``: the Section 5.3 GAN pipeline, shipped to worker
  processes by its builder path; each job has its own workflow.
* ``http-fleet``: replicas of the two bundled serve workloads (GAN and
  Data Polygamy), submitted over HTTP with the server's templates.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

from repro.core.budget import InstanceBudget
from repro.core.bugdoc import Algorithm, BugDoc
from repro.core.history import ExecutionHistory
from repro.core.session import DebugSession
from repro.core.types import Instance
from repro.eval.ground_truth import match_synthetic
from repro.eval.metrics import score_find_all, score_find_one
from repro.exec.spec import ExecutorSpec
from repro.service import JobGoal, JobResult, JobSpec, JobStatus
from repro.service.service import report_fingerprint
from repro.synth.generator import SyntheticConfig, generate_pipeline
from repro.workloads import data_polygamy, gan_training

WORKLOADS = ("provenance-synth", "dispatch-process", "http-fleet")

#: The (algorithm, goal) pairs the library job sets cycle through: all four
#: strategies on FindOne, and the two tree-based ones on FindAll too.  Job
#: lengths then spread over six groups whose middle two (the tree-based
#: FindOne jobs) overlap, so the median latency falls inside a group rather
#: than in the gap between short and long jobs.
STRATEGIES = (
    (Algorithm.SHORTCUT, JobGoal.FIND_ONE),
    (Algorithm.STACKED_SHORTCUT, JobGoal.FIND_ONE),
    (Algorithm.DECISION_TREES, JobGoal.FIND_ONE),
    (Algorithm.COMBINED, JobGoal.FIND_ONE),
    (Algorithm.DECISION_TREES, JobGoal.FIND_ALL),
    (Algorithm.COMBINED, JobGoal.FIND_ALL),
)

SYNTH_CONFIG = SyntheticConfig(
    min_parameters=9,
    max_parameters=11,
    min_values=6,
    max_values=8,
    cause_arities=(2, 2),
)
#: Prior-provenance rows: every job gets 1,024 rows except the last two jobs
#: of each tree-based pair, which get 16,896, just past the 16,384-row shard
#: floor (two shards).  Those eight are 2 in 9 jobs, so the tail latency
#: percentile lands among them rather than at the edge of the small jobs,
#: and averages over eight pipelines (with four, its seed-to-seed spread
#: was 0.15-0.20).
SYNTH_JOBS_PER_STRATEGY = 6
SYNTH_ROWS = 1024
SYNTH_SHARDED_ROWS = 16896
SYNTH_BUDGET = 40

GAN_JOBS = 72
GAN_PRIOR_ROWS = 100
GAN_BUDGET = 48
GAN_BUILDER = "repro.workloads.gan_training:make_executor"

#: http-fleet: distinct specs per bundled workload, each sent twice a round,
#: alternating between the two tree-based strategies (FindAll is what the
#: server's templates default to).  Their jobs run for about the same number
#: of executions, so the latency distribution has no gap at its median.
FLEET_STRATEGIES = (
    (Algorithm.DECISION_TREES, JobGoal.FIND_ONE),
    (Algorithm.COMBINED, JobGoal.FIND_ALL),
)
FLEET_SPECS = 8
FLEET_REPLICAS = 2
FLEET_BUDGET = 32
FLEET_FAMILIES = {"gan": gan_training, "data_polygamy": data_polygamy}


@dataclass
class Job:
    """One distinct debugging request of a job set."""

    index: int
    family: str
    algorithm: Algorithm
    goal: JobGoal
    seed: int
    budget: int
    space: object
    executor: object
    oracle: object
    true_causes: list
    history: ExecutionHistory | None = None
    builder: str | None = None
    #: Jobs with the same share key use one workflow per round.
    share: str | None = None

    def spec(self, job_id: str, workflow: str, executor=None) -> JobSpec:
        """The in-process :class:`JobSpec` for one submission."""
        return JobSpec(
            job_id=job_id,
            executor=executor if executor is not None else self.executor,
            executor_spec=(
                ExecutorSpec.from_builder(self.builder) if self.builder is not None else None
            ),
            space=self.space,
            workflow=workflow,
            algorithm=self.algorithm,
            goal=self.goal,
            budget=self.budget,
            history=self.history,
            seed=self.seed,
        )

    def payload(self, job_id: str, workflow: str) -> dict:
        """The ``POST /jobs`` body for one submission (server templates fill
        in the executor and the space)."""
        return {
            "workload": self.family,
            "job_id": job_id,
            "workflow": workflow,
            "algorithm": self.algorithm.value,
            "goal": self.goal.value,
            "budget": self.budget,
            "seed": self.seed,
        }


def cache_bound(workload: str) -> int | None:
    """Cache entries one round of a library workload inserts, plus 10%.

    Every round uses a fresh workflow namespace, so an unbounded cache
    would grow by this much per round.
    """
    if workload == "provenance-synth":
        jobs = SYNTH_JOBS_PER_STRATEGY * len(STRATEGIES)
        entries = jobs * (SYNTH_ROWS + SYNTH_BUDGET) + 8 * SYNTH_SHARDED_ROWS
    elif workload == "dispatch-process":
        entries = GAN_JOBS * (GAN_PRIOR_ROWS + GAN_BUDGET)
    else:
        return None
    return entries + entries // 10


def sample_history(space, oracle, rows: int, rng: random.Random) -> ExecutionHistory:
    """``rows`` distinct uniformly drawn instances with their outcomes."""
    names = list(space.names)
    columns = [rng.choices(space[name].domain, k=rows + rows // 4 + 8) for name in names]
    history = ExecutionHistory()
    for values in dict.fromkeys(zip(*columns)):
        if len(history) == rows:
            break
        instance = Instance(dict(zip(names, values)))
        history.record(instance, oracle(instance))
    return history


def job_set(workload: str, seed: int, limit: int | None = None) -> tuple[list[Job], dict]:
    """The distinct jobs of one run, and generation diagnostics.

    ``limit`` stops after that many jobs (the short lifecycle cycles use
    the first few); generation is sequential, so a prefix is the same
    whatever the limit.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "provenance-synth":
        return _synth_jobs(rng, limit)
    if workload == "dispatch-process":
        return _gan_jobs(rng, limit), {}
    if workload == "http-fleet":
        return _fleet_jobs(rng, limit), {}
    raise ValueError(f"unknown workload {workload!r}")


def _synth_jobs(rng: random.Random, limit: int | None) -> tuple[list[Job], dict]:
    total = SYNTH_JOBS_PER_STRATEGY * len(STRATEGIES)
    count = total if limit is None else min(limit, total)
    jobs: list[Job] = []
    skipped = 0
    for index in range(count):
        algorithm, goal = STRATEGIES[index % len(STRATEGIES)]
        last = index // len(STRATEGIES) >= SYNTH_JOBS_PER_STRATEGY - 2
        tree = algorithm in (Algorithm.DECISION_TREES, Algorithm.COMBINED)
        rows = SYNTH_SHARDED_ROWS if last and tree else SYNTH_ROWS
        while True:
            pipeline = generate_pipeline(
                f"synth-{index}", SYNTH_CONFIG, seed=rng.getrandbits(32)
            )
            history = sample_history(pipeline.space, pipeline.oracle, rows, rng)
            # A prior history without both outcomes is degenerate: BugDoc
            # has no failure to debug or no success to contrast with.  Draws
            # that fail on most of the space are skipped too: a planted
            # disjunction of inequalities can fail almost everywhere, and
            # how often the FindOne strategies then assert nothing decided
            # most of the seed-to-seed spread of root_cause_f1 (0.29 with
            # them, 0.06 without, over ten seeds).
            if history.failures and len(history.failures) <= len(history.successes):
                break
            skipped += 1
        jobs.append(
            Job(
                index=index,
                family="synth",
                algorithm=algorithm,
                goal=goal,
                seed=rng.getrandbits(32),
                budget=SYNTH_BUDGET,
                space=pipeline.space,
                executor=pipeline.oracle,
                oracle=pipeline.oracle,
                true_causes=pipeline.true_causes,
                history=history,
            )
        )
    return jobs, {"degenerate_draws_skipped": skipped}


def _gan_jobs(rng: random.Random, limit: int | None) -> list[Job]:
    count = GAN_JOBS if limit is None else min(limit, GAN_JOBS)
    executor = gan_training.make_executor()
    space = gan_training.make_space()
    truth = gan_training.true_causes()
    jobs = []
    for index in range(count):
        algorithm, goal = STRATEGIES[index % len(STRATEGIES)]
        history = sample_history(space, gan_training.oracle, GAN_PRIOR_ROWS, rng)
        jobs.append(
            Job(
                index=index,
                family="gan",
                algorithm=algorithm,
                goal=goal,
                seed=rng.getrandbits(32),
                budget=GAN_BUDGET,
                space=space,
                executor=executor,
                oracle=gan_training.oracle,
                true_causes=truth,
                history=history,
                builder=GAN_BUILDER,
            )
        )
    return jobs


def _fleet_jobs(rng: random.Random, limit: int | None) -> list[Job]:
    jobs = []
    for family, module in FLEET_FAMILIES.items():
        executor = module.make_executor()
        space = module.make_space()
        truth = module.true_causes()
        for spec_index in range(FLEET_SPECS):
            seed = rng.getrandbits(32)
            algorithm, goal = FLEET_STRATEGIES[spec_index % len(FLEET_STRATEGIES)]
            for __ in range(FLEET_REPLICAS):
                jobs.append(
                    Job(
                        index=len(jobs),
                        family=family,
                        algorithm=algorithm,
                        goal=goal,
                        seed=seed,
                        budget=FLEET_BUDGET,
                        space=space,
                        executor=executor,
                        oracle=module.oracle,
                        true_causes=truth,
                        share=family,
                    )
                )
    return jobs if limit is None else jobs[:limit]


# -- Reference digests -------------------------------------------------------
def reference(job: Job):
    """Run ``job`` on a bare :class:`DebugSession` + :class:`BugDoc`.

    Bypasses every service layer (scheduler, cache, pools, HTTP).  Returns
    ``(report, fingerprint)``; the fingerprint uses the service's own
    report digest so service results compare byte for byte.
    """
    session = DebugSession(
        job.executor,
        job.space,
        history=job.history.copy() if job.history is not None else None,
        budget=InstanceBudget(job.budget),
    )
    bugdoc = BugDoc(session=session, seed=job.seed)
    if job.goal is JobGoal.FIND_ALL:
        report = bugdoc.find_all(job.algorithm)
    else:
        report = bugdoc.find_one(job.algorithm)
    result = JobResult(
        job_id="reference",
        status=JobStatus.SUCCEEDED,
        report=report,
        budget_spent=session.budget.spent,
        new_executions=session.new_executions,
    )
    return report, report_fingerprint(result)


class Scorer:
    """Section 5 F-measure of asserted vs planted causes, memoized.

    Causes are identified by their string form (that is all an HTTP client
    sees); :meth:`learn` maps strings back to conjunctions.
    """

    def __init__(self, jobs: list[Job]):
        self._jobs = jobs
        self._known: dict[tuple[int, str], object] = {}
        self._matches: dict[tuple[int, tuple[str, ...]], object] = {}

    def learn(self, index: int, causes) -> None:
        for cause in causes:
            self._known.setdefault((index, str(cause)), cause)

    def _match(self, index: int, causes: tuple[str, ...]):
        key = (index, causes)
        match = self._matches.get(key)
        if match is None:
            job = self._jobs[index]
            known = [self._known[(index, c)] for c in causes if (index, c) in self._known]
            match = match_synthetic(known, job.true_causes, job.space, job.oracle)
            if len(known) < len(causes):
                # A cause never seen in any report object cannot be parsed
                # back; count it as an incorrect assertion.
                match = dataclasses.replace(
                    match,
                    incorrect_asserted=match.incorrect_asserted
                    + tuple(c for c in causes if (index, c) not in self._known),
                )
            self._matches[key] = match
        return match

    def f1(self, outputs: list[tuple[int, list[str]]]) -> float:
        """Suite F-measure: the FindOne formula over the FindOne jobs and
        the FindAll formula over the FindAll jobs, weighted by job count."""
        one, every = [], []
        for index, causes in outputs:
            match = self._match(index, tuple(sorted(causes)))
            if self._jobs[index].goal is JobGoal.FIND_ALL:
                every.append(match)
            else:
                one.append(match)
        total = len(one) + len(every)
        if total == 0:
            return 0.0
        score = 0.0
        if one:
            score += len(one) * score_find_one(one).f_measure
        if every:
            score += len(every) * score_find_all(every).f_measure
        return score / total

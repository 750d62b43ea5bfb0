"""The benchmark's four workloads: fixed jobs, fixtures, repetitions, checks.

Every input here is a constant.  Seed-dependent work (a different NSGA-II
trajectory per run) made earlier run-to-run figures differ by more than
the bounds, so the explored designs, seeds, budgets and the serve arrival
schedule are fixed and a run's ``--seed`` changes none of them.

A workload provides:

- ``setup(tmp)``: what a user does before the first evaluation can be
  issued (design generation, session or server construction, store
  open).  The run times it in fresh interpreters.
- ``fixture(tmp)``: untimed references built in the run's temporary
  directory (the replay store, serial reference runs).
- ``rep(tmp, index)``: one timed unit of work, returning a :class:`Rep`.
- ``serial``: true when a repetition runs on one core, so the run may move
  it between cores.
- ``check(rep)``: correctness of the program's outputs, as a list of
  problems (empty when correct).
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from hv import dominated_pairs, hypervolume_ratio

from repro.cache import open_store
from repro.core import DseSession, MetricSpec
from repro.designs import get_design
from repro.serve import DseServer, JobSpec

__all__ = ["WORKLOADS", "Rep", "cpu_now", "nproc"]

SEED = 2021
PART = "XC7K70T"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_now() -> float:
    """User + system CPU seconds of this process and its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def three_metrics() -> list[MetricSpec]:
    return [
        MetricSpec.minimize("LUT"),
        MetricSpec.minimize("FF"),
        MetricSpec.maximize("frequency"),
    ]


def minimised(metrics: dict[str, float], names: tuple[str, ...]) -> tuple:
    """Metric row with frequency negated, so every column is minimised."""
    return tuple(-metrics[n] if n == "frequency" else metrics[n] for n in names)


@dataclass
class Rep:
    """One timed repetition, as the program reported it."""

    time_to_front_s: float
    evals_per_s: float
    cpu_s: float
    sim_tool_s: float
    front_hv: float
    evaluations: int
    tool_runs: int
    # Must repeat exactly across the run's repetitions (and the fixture).
    signature: dict[str, Any]
    # Per-operation times to front; the run reports their pooled median.
    latencies: list[float] = field(default_factory=list)
    attempted: int = 1
    failed: int = 0
    # Program-reported layer figures (memo hits, serve queue times, ...).
    layer: dict[str, float] = field(default_factory=dict)
    # Printed, never compared (per-tenant bills, coalesced hits).
    diagnostics: dict[str, Any] = field(default_factory=dict)
    # What ``check`` inspects.
    outputs: Any = None


def front_rows(points, names: tuple[str, ...]) -> list[tuple]:
    """A front as sorted (parameters, metrics) rows, for exact comparison."""
    return sorted(
        (
            tuple(sorted(p.parameters.items())),
            tuple(float(p.metrics[n]) for n in names),
        )
        for p in points
    )


def fresh_mismatches(
    design: str, metrics, seed: int, rows, estimates=frozenset()
) -> list[str]:
    """Front rows whose metrics differ from a cache-free evaluation.

    Rows in ``estimates`` (parameters, metrics) were answered by an NWM
    estimate in the run that produced them and are exempt.
    """
    session = DseSession(
        design=get_design(design), part=PART, metrics=metrics,
        use_model=False, seed=seed,
    )
    try:
        names = session.evaluator.metric_names()
        fresh = session.evaluate_points([dict(params) for params, _ in rows])
    finally:
        session.close()
    problems = []
    for (params, values), point in zip(rows, fresh):
        got = tuple(float(point.metrics[n]) for n in names)
        if got != values and (params, values) not in estimates:
            problems.append(
                f"{design} front point {dict(params)} reports {values}, "
                f"a cache-free evaluation gives {got}"
            )
    return problems


def front_problems(rows, names) -> list[str]:
    points = [minimised(dict(zip(names, values)), names) for _, values in rows]
    return [
        f"front point {rows[i][0]} dominates front point {rows[j][0]}"
        for i, j in dominated_pairs(points)
    ]


# -- exploration workloads ---------------------------------------------------


@dataclass(frozen=True)
class ExploreJob:
    design: str
    generations: int
    population: int
    use_model: bool = False
    pretrain: int = 0
    # Fixed hypervolume reference box, minimised (LUT, FF, -Fmax).
    box_lower: tuple[float, ...] = ()
    box_upper: tuple[float, ...] = ()

    def session(self, workers: int = 0, store=None) -> DseSession:
        return DseSession(
            design=get_design(self.design), part=PART, metrics=three_metrics(),
            use_model=self.use_model, pretrain_size=self.pretrain, seed=SEED,
            workers=workers, result_store=store,
        )


class ExploreWorkload:
    """One NSGA-II job per repetition, each in a fresh session."""

    def __init__(self, job: ExploreJob, workers: int = 0) -> None:
        self.job = job
        self.workers = workers
        self.serial = workers <= 1
        self.reference: Rep | None = None

    def store_path(self, tmp: Path) -> Path | None:
        return None

    def setup(self, tmp: Path) -> None:
        path = self.store_path(tmp)
        store = open_store(path) if path is not None else None
        self.job.session(self.workers, store).close()

    def fixture(self, tmp: Path) -> None:
        pass

    def rep(self, tmp: Path, index: int) -> Rep:
        path = self.store_path(tmp)
        session = self.job.session(self.workers, path)
        cpu0 = cpu_now()
        try:
            start = time.perf_counter()
            result = session.explore(
                generations=self.job.generations, population=self.job.population
            )
            wall = time.perf_counter() - start
        finally:
            session.close()
        cpu = cpu_now() - cpu0
        names = session.evaluator.metric_names()
        rows = front_rows(result.pareto, names)
        hv = hypervolume_ratio(
            [minimised(dict(zip(names, v)), names) for _, v in rows],
            self.job.box_lower, self.job.box_upper,
        )
        sources = [p.source for p in session.fitness.history]
        return Rep(
            time_to_front_s=wall,
            latencies=[wall],
            evals_per_s=result.evaluations / wall,
            cpu_s=cpu,
            sim_tool_s=result.simulated_seconds,
            front_hv=hv,
            evaluations=result.evaluations,
            tool_runs=result.tool_runs,
            signature={
                "evaluations": result.evaluations,
                "tool_runs": result.tool_runs,
                "sim_tool_s": result.simulated_seconds,
                "front": rows,
            },
            layer={"cache.cache_priced": float(sources.count("cache"))},
            outputs=(names, rows, {
                (tuple(sorted(p.parameters.items())),
                 tuple(float(p.metrics[n]) for n in names))
                for p in session.fitness.history if p.source == "estimate"
            }),
        )

    def check(self, rep: Rep) -> list[str]:
        names, rows, estimates = rep.outputs
        problems = front_problems(rows, names)
        problems += fresh_mismatches(
            self.job.design, three_metrics(), SEED, rows, frozenset(estimates)
        )
        return problems


class ExploreCold(ExploreWorkload):
    """Serial, no model, no store: every answer is a fresh tool run."""

    def check(self, rep: Rep) -> list[str]:
        problems = super().check(rep)
        if rep.layer["cache.cache_priced"]:
            problems.append(
                f"cold run answered {rep.layer['cache.cache_priced']:.0f} "
                "evaluations from a cache"
            )
        return problems


class ReplayModel(ExploreWorkload):
    """Re-run a model-mode job against the store the same job filled."""

    def store_path(self, tmp: Path) -> Path:
        return tmp / "replay-store"

    def fixture(self, tmp: Path) -> None:
        self.reference = self.rep(tmp, 0)
        if self.reference.tool_runs == 0:
            raise RuntimeError("replay fixture ran no tool: nothing to replay")

    def check(self, rep: Rep) -> list[str]:
        problems = super().check(rep)
        if rep.tool_runs != 0:
            problems.append(f"replay ran the tool {rep.tool_runs} times, expected 0")
        ref = self.reference.signature
        for key in ("front", "evaluations"):
            if rep.signature[key] != ref[key]:
                problems.append(
                    f"replay {key} {rep.signature[key]!r} differs from the "
                    f"fixture's {ref[key]!r}"
                )
        return problems


class ExplorePool(ExploreWorkload):
    """``explore-cold``'s job over the process pool, checked against serial."""

    def fixture(self, tmp: Path) -> None:
        self.reference = ExploreWorkload(self.job).rep(tmp, 0)

    def check(self, rep: Rep) -> list[str]:
        problems = super().check(rep)
        if rep.signature != self.reference.signature:
            problems.append(
                f"pooled run {summary(rep.signature)} differs from the serial "
                f"run {summary(self.reference.signature)}"
            )
        return problems


def summary(signature: dict[str, Any]) -> dict[str, Any]:
    """A repetition signature without its fronts, for messages."""
    return {k: v for k, v in signature.items() if k not in ("front", "fronts")}


# -- the service workload ----------------------------------------------------


@dataclass(frozen=True)
class Arrival:
    due_s: float
    spec: JobSpec


class ServeTenants:
    """Two open-loop waves of jobs against one in-process ``DseServer``.

    Wave one submits distinct specs (fresh tool runs, store writes); wave
    two repeats each spec while its first copy still runs (coalesced and
    memo answers).  Each repetition starts a fresh server root, so every
    repetition does the same work.
    """

    serial = False
    design = "cv32e40p-fifo"
    shards = 8
    box_lower = (0.0, -1000.0)
    box_upper = (400.0, 0.0)

    def __init__(
        self, seeds: tuple[int, ...], generations: int, population: int,
        period_s: float, trail_s: float,
    ) -> None:
        self.specs = [
            JobSpec(design=self.design, seed=s, generations=generations,
                    population=population)
            for s in seeds
        ]
        # Wave one: spec k due at k * period_s.  Wave two: the same spec
        # again, trail_s later, while the first copy is still running.
        self.schedule = sorted(
            (
                Arrival(k * period_s + wave * trail_s, spec)
                for k, spec in enumerate(self.specs)
                for wave in (0, 1)
            ),
            key=lambda a: a.due_s,
        )
        self.references: dict[JobSpec, dict[str, Any]] = {}

    def server(self, root: Path) -> DseServer:
        return DseServer(root, capacity=nproc(), shards=self.shards)

    def setup(self, tmp: Path) -> None:
        root = Path(tempfile.mkdtemp(prefix="setup-", dir=tmp))
        server = self.server(root)
        try:
            open_store(server.store_root, shards=self.shards)
        finally:
            server.scheduler.close()
            server.fleet.close()
            shutil.rmtree(root)

    def fixture(self, tmp: Path) -> None:
        for spec in self.specs:
            session = DseSession(
                get_design(spec.design), part=spec.part,
                target_period_ns=spec.target_period_ns, use_model=spec.use_model,
                pretrain_size=spec.pretrain, seed=spec.seed,
            )
            try:
                result = session.explore(
                    generations=spec.generations, population=spec.population
                )
            finally:
                session.close()
            names = session.evaluator.metric_names()
            self.references[spec] = {
                "front": sorted(
                    tuple(sorted(p.as_row().items())) for p in result.pareto
                ),
                "rows": front_rows(result.pareto, names),
                "evaluations": result.evaluations,
                "tool_runs": result.tool_runs,
                "sim_tool_s": result.simulated_seconds,
                "names": names,
            }

    def rep(self, tmp: Path, index: int) -> Rep:
        root = tmp / f"serve-{index}"
        try:
            return self._serve(root)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def _serve(self, root: Path) -> Rep:
        server = self.server(root)
        records: list[Any] = [None] * len(self.schedule)
        cpu0 = cpu_now()
        start = time.time() + 0.05
        due = [start + a.due_s for a in self.schedule]

        def submit() -> None:
            for k, arrival in enumerate(self.schedule):
                delay = due[k] - time.time()
                if delay > 0:
                    time.sleep(delay)
                records[k] = server.queue.submit(arrival.spec)

        submitter = threading.Thread(target=submit, name="dsebench-submitter")
        submitter.start()
        try:
            stats = server.serve_forever(stop_after=len(self.schedule))
        finally:
            submitter.join()
        cpu = cpu_now() - cpu0
        done = [server.queue.get(r.job_id) for r in records]
        attempted = len(done)
        ok = [
            (k, d) for k, d in enumerate(done)
            if d is not None and d.state.value == "done"
        ]
        latencies = [d.finished_at - due[k] for k, d in ok]
        span = max(d.finished_at for _, d in ok) - due[0] if ok else float("nan")
        evaluations = sum(d.stats["evaluations"] for _, d in ok)
        tool_runs = sum(d.stats["tool_runs"] for _, d in ok)
        sim = sum(d.stats["simulated_seconds"] for _, d in ok)
        fronts = []
        hvs = []
        for k, d in ok:
            payload = json.loads(Path(d.result_path).read_text(encoding="utf-8"))
            rows = sorted(tuple(sorted(r.items())) for r in payload["pareto"])
            fronts.append((k, rows))
            names = self.references[self.schedule[k].spec]["names"]
            hvs.append(hypervolume_ratio(
                [minimised(r, names) for r in payload["pareto"]],
                self.box_lower, self.box_upper,
            ))
        fleet = stats["fleet"]
        return Rep(
            time_to_front_s=statistics.median(latencies) if ok else float("nan"),
            latencies=latencies,
            evals_per_s=evaluations / span,
            cpu_s=cpu,
            sim_tool_s=sim,
            front_hv=min(hvs) if hvs else float("nan"),
            evaluations=evaluations,
            tool_runs=tool_runs,
            signature={
                "evaluations": evaluations,
                "tool_runs": tool_runs,
                "sim_tool_s": round(sim, 6),
                "fronts": fronts,
            },
            attempted=attempted,
            failed=attempted - len(ok),
            layer={
                "serve.queue_wait_s": statistics.median(
                    d.started_at - d.submitted_at for _, d in ok
                ),
                "serve.service_s": statistics.median(
                    d.finished_at - d.started_at for _, d in ok
                ),
                "serve.submit_late_s": max(
                    d.submitted_at - due[k] for k, d in ok
                ),
                "serve.coalesced_hits": float(stats["coalesced_hits"]),
                "cache.memo_hits": float(fleet["memo_hits"]),
            },
            diagnostics={
                "tenant_tool_runs": [d.stats["tool_runs"] for _, d in ok],
                "coalesced_hits": stats["coalesced_hits"],
                "fleet": fleet,
            },
            outputs=fronts,
        )

    def check(self, rep: Rep) -> list[str]:
        problems = []
        for k, rows in rep.outputs:
            ref = self.references[self.schedule[k].spec]
            if rows != ref["front"]:
                problems.append(
                    f"served job {k} (seed {self.schedule[k].spec.seed}) front "
                    "differs from its standalone serial session"
                )
        bill = sum(ref["tool_runs"] for ref in self.references.values())
        if rep.tool_runs != bill:
            problems.append(
                f"tenants paid {rep.tool_runs} tool runs combined; the distinct "
                f"specs' serial bills sum to {bill}"
            )
        for spec, ref in self.references.items():
            problems += front_problems(ref["rows"], ref["names"])
            problems += fresh_mismatches(spec.design, None, spec.seed, ref["rows"])
        return problems


WORKLOADS = {
    "explore-cold": lambda: ExploreCold(ExploreJob(
        "corundum-cqm", generations=4, population=8,
        box_lower=(0.0, 0.0, -1000.0), box_upper=(4000.0, 4000.0, 0.0),
    )),
    "replay-model": lambda: ReplayModel(ExploreJob(
        "tirex", generations=30, population=32, use_model=True, pretrain=100,
        box_lower=(0.0, 0.0, -1000.0), box_upper=(20000.0, 20000.0, 0.0),
    )),
    "serve-tenants": lambda: ServeTenants(
        seeds=(11, 12, 13), generations=2, population=4,
        period_s=1.2, trail_s=0.05,
    ),
    "explore-pool": lambda: ExplorePool(ExploreJob(
        "corundum-cqm", generations=4, population=8,
        box_lower=(0.0, 0.0, -1000.0), box_upper=(4000.0, 4000.0, 0.0),
    ), workers=nproc()),
}

#!/usr/bin/env python3
"""Dovado DSE benchmark: one workload per run, metrics as one JSON line.

Usage, from the repository root::

    python3 dsebench/run.py --workload explore-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see README.md).  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
diagnostics go to standard error.  The program is imported from ``src/``
next to this directory and nowhere else; without it the run exits 2
before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_PARENT = ROOT / ".dsebench_tmp"

MIN_REPS = 3  # untraced repetitions per run, at least
MIN_TRACED = 2  # traced/untraced pairs per traced run, at least
SETUP_PROBES = 3  # fresh interpreters timed for setup_s
PROBE_TIMEOUT_S = 60.0

# name -> (unit, better) of every metric the run prints.
END_TO_END = {
    "time_to_front_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "evals_per_s": ("1/s", "higher"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "sim_tool_s": ("sim_s", "lower"),
    "front_hv": ("ratio", "higher"),
}
PER_LAYER = {
    "hdl.parse_calls": ("count", "lower"),
    "hdl.parse_s": ("s", "lower"),
    "boxing.install_calls": ("count", "lower"),
    "boxing.install_s": ("s", "lower"),
    "tcl.eval_s": ("s", "lower"),
    "synth.synthesize_s": ("s", "lower"),
    "pnr.place_calls": ("count", "lower"),
    "pnr.place_s": ("s", "lower"),
    "pnr.route_s": ("s", "lower"),
    "pnr.sta_s": ("s", "lower"),
    "flow.run_s": ("s", "lower"),
    "flow.tool_runs": ("count", "lower"),
    "analysis.gate_checks": ("count", "lower"),
    "analysis.gate_s": ("s", "lower"),
    "estimation.refits": ("count", "lower"),
    "estimation.refit_s": ("s", "lower"),
    "estimation.estimates": ("count", "higher"),
    "estimation.estimate_s": ("s", "lower"),
    "moo.sort_s": ("s", "lower"),
    "cache.store_open_s": ("s", "lower"),
    "cache.store_gets": ("count", "lower"),
    "cache.store_hit_ratio": ("ratio", "higher"),
    "cache.store_get_s": ("s", "lower"),
    "cache.store_puts": ("count", "lower"),
    "cache.store_put_s": ("s", "lower"),
    "cache.memo_hits": ("count", "higher"),
    "core.evaluations": ("count", "higher"),
    "core.pool_batches": ("count", "lower"),
    "core.pool_points": ("count", "lower"),
    "core.pool_submit_s": ("s", "lower"),
    "core.pool_wait_s": ("s", "lower"),
    "serve.queue_wait_s": ("s", "lower"),
    "serve.service_s": ("s", "lower"),
    "serve.submit_late_s": ("s", "lower"),
    "serve.claim_calls": ("count", "lower"),
    "serve.claim_s": ("s", "lower"),
    "serve.coalesced_hits": ("count", "higher"),
    "trace.overhead_s": ("s", "lower"),
}


def import_program() -> None:
    """Put this checkout's ``src/`` first on the path, or exit 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"dsebench: program source not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"dsebench: imported repro from {repro.__file__}", file=sys.stderr)
        sys.exit(2)


def child_pids() -> list[int]:
    pids: list[int] = []
    for task in Path(f"/proc/{os.getpid()}/task").iterdir():
        try:
            pids += [int(p) for p in (task / "children").read_text().split()]
        except FileNotFoundError:  # the thread ended while we listed
            continue
    return pids


def probe_setup(workload: str, tmp: Path) -> float:
    """Seconds from launching a fresh interpreter until setup is ready."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", workload,
         "--tmp", str(tmp)],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed (exit {code}, said {line!r})")
    return ready


def run_probe(workload: str, tmp: Path) -> int:
    from workloads import WORKLOADS

    WORKLOADS[workload]().setup(tmp)
    print("ready", flush=True)
    return 0


# Per-layer names that differ from the tracer's ``<layer>_calls`` counts.
RENAMED = {
    "analysis.gate_checks": "analysis.gate_calls",
    "estimation.estimates": "estimation.estimate_calls",
    "cache.store_gets": "cache.store_get_calls",
    "cache.store_puts": "cache.store_put_calls",
    "core.pool_batches": "core.pool_submit_calls",
}


def layer_metrics(rep, snap: dict[str, float]) -> dict[str, float]:
    """Per-layer figures of one traced repetition."""
    out = {name: snap.get(RENAMED.get(name, name), 0.0) for name in PER_LAYER}
    gets = out["cache.store_gets"]
    hits = snap.get("cache.store_get_hits", 0.0)
    out["cache.store_hit_ratio"] = hits / gets if gets else 0.0
    out["flow.tool_runs"] = float(rep.tool_runs)
    out["core.evaluations"] = float(rep.evaluations)
    # Answers the program priced as cache hits that no store get served
    # came from an in-process memo; the service reports its memo directly.
    if "cache.cache_priced" in rep.layer:
        out["cache.memo_hits"] = max(0.0, rep.layer["cache.cache_priced"] - hits)
    out.update((k, v) for k, v in rep.layer.items() if k in PER_LAYER)
    return out


def signature_problems(reps) -> list[str]:
    first = reps[0].signature
    problems = []
    for i, rep in enumerate(reps[1:], start=1):
        for key, value in rep.signature.items():
            if value != first[key]:
                problems.append(
                    f"repetition {i} {key} = {value!r} but repetition 0 "
                    f"{key} = {first[key]!r}"
                )
    return problems


def measure(workload, tmp: Path, seconds: float, traced: bool):
    """Timed repetitions for about ``seconds``.

    A new round starts only while it is expected to end within the
    budget (rounds take about as long as the median round so far), and
    at least the minimum number of rounds runs.  Traced runs alternate
    one untraced and one traced repetition per round.
    """
    from layers import LayerTracer

    plain, with_trace, layers, rounds = [], [], [], []
    attempted = failed = 0
    cores = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    index = 0
    while True:
        done = len(with_trace) if traced else len(plain)
        elapsed = time.perf_counter() - start
        if done >= (MIN_TRACED if traced else MIN_REPS) and (
            elapsed + statistics.median(rounds) > seconds
        ):
            break
        if attempted and failed == attempted:
            break
        round_start = time.perf_counter()
        if workload.serial:
            # Each core's speed drifts on its own on a shared host; moving
            # the serial job to the next core every round makes each run
            # sample all of them.
            os.sched_setaffinity(0, {cores[len(rounds) % len(cores)]})
        for trace_this in (False, True) if traced else (False,):
            tracer = LayerTracer() if trace_this else None
            if tracer is not None:
                tracer.install()
            try:
                rep = workload.rep(tmp, index)
            except Exception:  # noqa: BLE001 - a failed operation is counted
                traceback.print_exc()
                attempted += 1
                failed += 1
                continue
            finally:
                index += 1
                if tracer is not None:
                    tracer.remove()
            attempted += rep.attempted
            failed += rep.failed
            if rep.failed:
                continue
            if tracer is not None:
                with_trace.append(rep)
                layers.append(layer_metrics(rep, tracer.snapshot()))
            else:
                plain.append(rep)
        rounds.append(time.perf_counter() - round_start)
    os.sched_setaffinity(0, cores)
    return plain, with_trace, layers, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    parser.add_argument("--tmp", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    if args.setup_probe:
        return run_probe(args.setup_probe, args.tmp)

    from workloads import WORKLOADS, nproc, summary

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    host = {
        "cpu_count": os.cpu_count(),
        "nproc": nproc(),
        "loadavg_1m_start": os.getloadavg()[0],
        "seed": args.seed,
    }
    threads_before = set(threading.enumerate())
    TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_PARENT))
    # Anything the program puts in the default temporary directory lands
    # inside the run's root, where the hygiene check below finds it.
    default_tmp = tmp / "tmp"
    default_tmp.mkdir()
    os.environ["TMPDIR"] = str(default_tmp)
    tempfile.tempdir = str(default_tmp)
    problems: list[str] = []
    try:
        workload = WORKLOADS[args.workload]()
        workload.fixture(tmp)
        setups = [probe_setup(args.workload, tmp) for _ in range(SETUP_PROBES)]
        plain, traced, layers, attempted, failed = measure(
            workload, tmp, args.seconds, bool(args.trace)
        )
        if not plain:
            print("dsebench: no repetition completed", file=sys.stderr)
            return 1
        reps = plain + traced
        problems += signature_problems(reps)
        problems += workload.check(reps[0])
        leftovers = sorted(p.name for p in default_tmp.iterdir())
        if leftovers:
            problems.append(f"the program left temporary files: {leftovers}")
    finally:
        tempfile.tempdir = None
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:  # another run is using it
            pass
    if tmp.exists():
        problems.append(f"temporary root {tmp} remains")
    if child_pids():
        problems.append(f"child processes remain: {child_pids()}")
    extra = [t.name for t in set(threading.enumerate()) - threads_before]
    if extra:
        problems.append(f"threads remain: {extra}")
    host["loadavg_1m_end"] = os.getloadavg()[0]

    first = plain[0]
    if args.trace:
        values = {
            name: statistics.median(layer[name] for layer in layers)
            for name in PER_LAYER
        }
        values["trace.overhead_s"] = statistics.median(
            r.time_to_front_s for r in traced
        ) - statistics.median(r.time_to_front_s for r in plain)
        units = PER_LAYER
    else:
        me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kid = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        values = {
            "time_to_front_s": statistics.median(
                t for r in plain for t in r.latencies
            ),
            "setup_s": statistics.median(setups),
            "evals_per_s": statistics.median(r.evals_per_s for r in plain),
            "cpu_s": statistics.median(r.cpu_s for r in plain),
            "peak_rss_mb": (me + kid) / 1024.0,
            "sim_tool_s": first.sim_tool_s,
            "front_hv": first.front_hv,
        }
        units = END_TO_END
    diagnostics = {
        "workload": args.workload,
        "host": host,
        "repetitions": len(plain),
        "traced_repetitions": len(traced),
        "time_to_front_s": [round(r.time_to_front_s, 4) for r in plain],
        "setup_s": [round(s, 4) for s in setups],
        "signature": summary(first.signature),
        "diagnostics": first.diagnostics,
    }
    print(json.dumps(diagnostics, default=str), file=sys.stderr)
    for problem in problems:
        print(f"dsebench: FAILED CHECK: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, (unit, _) in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

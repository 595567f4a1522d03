"""One measured job of the benchmark, run in a fresh interpreter.

    python3 perfbench/child.py '<job as JSON>'

The parent (``run.py``) starts one of these per sample so every sample
pays, and reports, a fresh process's set-up and peak memory.  The last
line of standard output is one JSON object describing the job.  Job
kinds:

``warm``   import everything and build or load the compiled engine
           (untimed; fills the bytecode and ``.so`` caches).
``cell``   one paper cell (``workload``, ``seed``, ``engine``).
``grid``   the whole scale-grid study through ``SweepRunner``.
``setup``  fresh interpreter up to the first simulated event of the
           scale grid's 100K-flow cell, then stop.

``trace: true`` runs ``cell`` or ``grid`` under the layer tracer.
"""

import time

_T_START = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

#: The paper cells: ROADMAP's reference cell (bulk receive, full
#: affinity) and its opposite on every axis that moves host cost
#: (small sends, no affinity).  Everything else is the
#: ``ExperimentConfig`` default: 2 CPUs, 8 connections, 20+30 ms.
PAPER = {
    "paper-rx64k": dict(direction="rx", message_size=65536,
                        affinity="full"),
    "paper-tx1k": dict(direction="tx", message_size=1024, affinity="none"),
}

#: The scale study: 12 short multi-queue cells covering the exact path
#: (16 flows) and both flow-class paths (1K and 100K flows).
GRID = dict(direction="rx", cpus=(2, 4), sizes=(16384,),
            modes=("rss", "flow-director"), n_queues=4,
            connections=(16, 1000, 100000), aggregation="auto",
            warmup_ms=2, measure_ms=3)

#: The grid cell whose set-up is heaviest (100K-flow population); the
#: scale-grid set-up probe builds it.
GRID_SETUP_CELL = dict(direction="rx", message_size=16384, affinity="rss",
                       n_cpus=4, n_queues=4, n_connections=100000,
                       aggregation="auto", warmup_ms=2, measure_ms=3)


def paper_config(workload, seed):
    from repro.core.experiment import ExperimentConfig

    return ExperimentConfig(seed=seed, **PAPER[workload])


def run_grid(seed, runner):
    from repro.core.scale import run_scale_sweep

    return run_scale_sweep(seed=seed, runner=runner, **GRID)


def digest(result):
    """SHA-256 of the result payload: the output the checks compare."""
    payload = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def cell_record(key, result):
    """What the parent checks about one simulated cell."""
    return {
        "key": key,
        "digest": digest(result),
        "gbps": result.throughput_gbps,
        "ghz_per_gbps": result.cost_ghz_per_gbps,
        "engine": getattr(result, "charge_engine", None),
        "wall_s": getattr(result, "wall_s", None),
    }


def _peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def _children_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class _FirstEvent(Exception):
    """Raised by the set-up probe at the first simulated event."""


def _mark_first_run(marks, stop):
    """Record the monotonic time of the first ``Machine.run_for`` (the
    first simulated event); with ``stop``, end the job there."""
    from repro.kernel.machine import Machine

    original = Machine.run_for

    def run_for(machine, cycles):
        if "first_event" not in marks:
            marks["first_event"] = time.monotonic()
            if stop:
                raise _FirstEvent()
        return original(machine, cycles)

    Machine.run_for = run_for


def _measure(job, body, out):
    """Run ``body()``, under the layer tracer when the job asks for it,
    and record its CPU and wall seconds (and the trace) in ``out``.

    The trace's ``traced_s`` is the root span's wall time measured
    outside the tracer; the span tree is analysed after the timing."""
    tracer = None
    c0, w0 = time.process_time(), time.perf_counter()
    if job.get("trace"):
        from layertrace import LayerTracer

        tracer = LayerTracer()
        with tracer.installed():
            t0 = time.perf_counter_ns()
            with tracer.span("core.cell"):
                value = body()
            traced_ns = time.perf_counter_ns() - t0
    else:
        value = body()
    out["cpu_s"] = time.process_time() - c0
    out["wall_s"] = time.perf_counter() - w0
    if tracer is not None:
        out["trace"] = dict(tracer.report(), traced_s=traced_ns / 1e9)
    return value


def job_cell(job, out):
    from repro.core.experiment import ResultCache, run_experiment

    config = paper_config(job["workload"], job["seed"])
    cache = ResultCache(job["cache_dir"]) if job.get("cache_dir") else None
    result = _measure(job, lambda: run_experiment(config, cache=cache), out)
    out["rss_mb"] = _peak_rss_mb(resource.RUSAGE_SELF)
    out["cells"] = [cell_record(job["workload"], result)]


def job_grid(job, out):
    from repro.core.experiment import ResultCache
    from repro.core.parallel import SweepRunner

    cache_hits = []

    def progress(msg):
        if msg.startswith(("cached", "replayed")):
            cache_hits.append(msg)

    runner = SweepRunner(jobs=job["jobs"], cache=ResultCache(job["cache_dir"]),
                         progress=progress, retries=0)

    children0 = _children_cpu_s()
    results = _measure(job, lambda: run_grid(job["seed"], runner), out)
    # Workers are reaped when the pool shuts down, so their CPU time
    # is in RUSAGE_CHILDREN by now.
    out["cpu_s"] += _children_cpu_s() - children0
    out["rss_mb"] = max(_peak_rss_mb(resource.RUSAGE_SELF),
                        _peak_rss_mb(resource.RUSAGE_CHILDREN))
    out["cache_hits"] = len(cache_hits)
    quarantined = "; ".join(f.describe() for f in runner.report.failures)
    out["cells"] = [
        cell_record("-".join(map(str, key)), result)
        if result is not None else {"key": "-".join(map(str, key)),
                                    "error": "no result: " + quarantined}
        for key, result in sorted(results.items())
    ]


def job_setup(job, out):
    from repro.core.experiment import ExperimentConfig, run_experiment

    try:
        run_experiment(ExperimentConfig(seed=job["seed"], **GRID_SETUP_CELL))
    except _FirstEvent:
        return
    raise RuntimeError("the cell finished without a first event")


def job_warm(job, out):
    import repro.core.parallel  # noqa: F401
    import repro.core.scale  # noqa: F401
    import layertrace  # noqa: F401


JOBS = {"cell": job_cell, "grid": job_grid, "setup": job_setup,
        "warm": job_warm}


def main(argv):
    job = json.loads(argv[1])
    # The engine is pinned by the job, whatever the caller exported.
    os.environ["REPRO_ENGINE"] = job.get("engine", "pure")
    out = {"kind": job["kind"], "ok": True, "cells": []}
    import repro.core.experiment  # noqa: F401

    t_imported = time.monotonic()
    out["import_s"] = t_imported - _T_START
    if job.get("engine") == "compiled":
        from repro.cpu.engine import load_core

        if load_core() is None:
            raise RuntimeError("compiled engine unavailable")
    out["engine_load_s"] = time.monotonic() - t_imported
    marks = {}
    if job["kind"] in ("cell", "setup") and not job.get("trace"):
        _mark_first_run(marks, stop=job["kind"] == "setup")
    JOBS[job["kind"]](job, out)
    if "first_event" in marks:
        out["setup_s"] = marks["first_event"] - job["t0"]
    return out


if __name__ == "__main__":
    try:
        result = main(sys.argv)
    except Exception as exc:
        import traceback

        traceback.print_exc()
        result = {"ok": False, "error": "%s: %s" % (type(exc).__name__, exc)}
    print(json.dumps(result))

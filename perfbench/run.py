"""The repository benchmark: host seconds of the simulator, end to end
and layer by layer.

    python3 perfbench/run.py --workload paper-rx64k --seed 3 --seconds 55 --trace 0
    python3 perfbench/run.py --workload scale-grid --seed 7 --seconds 55 --trace 1

Every sample runs in a fresh interpreter (``child.py``).  With
``--trace 0`` the run times the workload on both charging engines and
prints the end-to-end metrics; with ``--trace 1`` it runs the workload
once untraced and once under the layer tracer (``layertrace.py``) and
prints the per-layer metrics.  Either way every simulated cell's
payload digest is checked across repetitions, engines and traced and
untraced runs.  A human-readable report comes first; the last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
BUILD = os.path.join(ROOT, ".bench_build")

WORKLOADS = ("paper-rx64k", "paper-tx1k", "scale-grid")

#: End-to-end metrics (``--trace 0``): name -> unit.  All lower-is-better.
END_TO_END = {
    "cell_s": "s",
    "cell_pure_s": "s",
    "setup_s": "s",
    "grid_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "cpu.self_s": "s",
    "cpu.charge_calls": "count",
    "cpu.us_per_charge": "us",
    "enginecore.self_s": "s",
    "enginecore.calls": "count",
    "prof.self_s": "s",
    "prof.record_calls": "count",
    "mem.self_s": "s",
    "mem.field_calls": "count",
    "mem.dma_calls": "count",
    "kernel.self_s": "s",
    "kernel.charge_calls": "count",
    "kernel.hardirq_deliveries": "count",
    "kernel.wakeups": "count",
    "net.self_s": "s",
    "net.rx_segments": "count",
    "net.sendmsg_calls": "count",
    "net.acks_sent": "count",
    "net.skb_allocs": "count",
    "net.base_instructions_calls": "count",
    "sim.self_s": "s",
    "sim.events": "count",
    "sim.scheduled": "count",
    "sim.cancelled_frac": "frac",
    "sim.epoch_mean": "events",
    "core.self_s": "s",
    "core.import_s": "s",
    "core.engine_load_s": "s",
    "core.build_s": "s",
    "core.flowpop_s": "s",
    "core.run_s": "s",
    "core.report_s": "s",
    "core.cache_put_s": "s",
    "core.pool_overhead_s": "s",
    "core.worker_busy_frac": "frac",
    "faults.check_s": "s",
    "trace.overhead_frac": "frac",
}

#: Largest allowed gap between the summed layer self times and the
#: traced cell's wall time, as a share of the latter.  Self times are
#: conserved by construction; a gap means an unclosed or mis-parented
#: span.
SUM_TOLERANCE = 0.02

#: Hard ceiling on one run, under the 180 s the run may take.
RUN_LIMIT_S = 170.0

#: The order samples are taken in, repeated while time is left: the
#: pure sample sits between compiled ones so drift in machine load hits
#: both engines.  ``setup`` entries are scale-grid set-up probes.
PAPER_PLAN = ("compiled", "pure", "compiled")
GRID_PLAN = ("compiled", "setup", "setup", "pure", "setup", "setup",
             "compiled")


class ChildFailed(Exception):
    """A job crashed, timed out or printed no result."""


class Bench:
    """Starts fresh-interpreter jobs with a pinned environment."""

    def __init__(self, seed):
        self.seed = seed
        self.jobs = len(os.sched_getaffinity(0))
        self.t_start = time.monotonic()
        self.scratch = os.path.join(BUILD, "run-%d" % os.getpid())
        os.makedirs(self.scratch, exist_ok=True)
        self._dirs = 0
        # Temporary files (the C compiler's included) stay in the run's
        # scratch directory, inside the checkout.
        tmp = os.path.join(self.scratch, "tmp")
        os.makedirs(tmp, exist_ok=True)
        env = dict(os.environ)
        env.update({
            "TMPDIR": tmp,
            "PYTHONPATH": os.path.join(ROOT, "src"),
            "REPRO_JOBS": str(self.jobs),
            "REPRO_RESULTS_DIR": os.path.join(self.scratch, "results"),
            "REPRO_ENGINE_CACHE": os.path.join(BUILD, "engine"),
        })
        env.pop("REPRO_ENGINE", None)
        self.env = env

    def fresh_dir(self):
        """A new empty directory (a result cache no cell has seen)."""
        self._dirs += 1
        path = os.path.join(self.scratch, "cache-%d" % self._dirs)
        os.makedirs(path)
        return path

    def remaining(self):
        return RUN_LIMIT_S - (time.monotonic() - self.t_start)

    def run(self, kind, **job):
        """Run one job in a fresh interpreter; returns its JSON record."""
        job.update(kind=kind, seed=self.seed)
        timeout = self.remaining()
        if timeout <= 1:
            raise ChildFailed("run time limit reached before %s" % kind)
        job["t0"] = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, CHILD, json.dumps(job)], env=self.env,
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=timeout)
        except BaseException as exc:
            # The job may own a worker pool: end its whole group.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise ChildFailed("%s job timed out" % kind) from exc
            raise
        lines = out.decode(errors="replace").strip().splitlines()
        try:
            record = json.loads(lines[-1])
        except (IndexError, ValueError):
            record = None
        if proc.returncode != 0 or not isinstance(record, dict):
            tail = err.decode(errors="replace").strip()[-400:]
            raise ChildFailed("%s job exited %d: %s"
                              % (kind, proc.returncode, tail))
        return record

    def close(self):
        shutil.rmtree(self.scratch, ignore_errors=True)


class Ledger:
    """Failure accounting and output checks over every simulated cell.

    A cell fails on an exception, an invariant error or quarantine (no
    result), a fallback to another engine than requested, a cache hit,
    a non-positive simulated throughput, or a payload digest that
    differs from the first one seen for the same cell -- across
    repetitions, engines, and traced and untraced runs alike.  Checks
    that concern no single cell (a set-up probe, the trace sums) land
    in :attr:`problems`.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = []
        self.problems = []
        self.reference = {}
        self.outputs = {}

    def add(self, record, engine, label, n_cells):
        """Check one job's cells; returns whether all of them passed."""
        if not record.get("ok"):
            what = "%s: %s" % (label, record.get("error"))
            self.attempted += n_cells
            self.failed.extend([what] * n_cells)
            if not n_cells:
                self.problems.append(what)
            return False
        before = len(self.failed)
        if record.get("cache_hits"):
            self.failed.extend(["%s: cache hit" % label]
                               * record["cache_hits"])
        for cell in record["cells"]:
            self.attempted += 1
            problem = self._problem(cell, engine)
            if problem:
                self.failed.append("%s %s: %s" % (label, cell["key"],
                                                  problem))
        return len(self.failed) == before

    def _problem(self, cell, engine):
        if "error" in cell:
            return cell["error"]
        if cell["engine"] != engine:
            return "ran on %s, %s requested" % (cell["engine"], engine)
        if not cell["gbps"] > 0:
            return "simulated throughput %r" % cell["gbps"]
        key = cell["key"]
        ref = self.reference.setdefault(key, cell["digest"])
        self.outputs.setdefault(key, cell)
        if cell["digest"] != ref:
            return "digest %s differs from %s" % (cell["digest"][:16],
                                                  ref[:16])
        return None

    @property
    def fail_frac(self):
        return len(self.failed) / self.attempted if self.attempted else 1.0


def _run_checked(bench, ledger, kind, engine, label, n_cells=1, **job):
    """Run a job and check it; ``None`` if it failed."""
    try:
        record = bench.run(kind, engine=engine, **job)
    except ChildFailed as exc:
        record = {"ok": False, "error": str(exc)}
    return record if ledger.add(record, engine, label, n_cells) else None


def _schedule(bench, seconds, plan, run_one):
    """Cycle through ``plan`` for about ``seconds`` seconds.

    The first pass always runs.  After it, a step starts only if its
    last duration still fits in ``seconds``; a step that no longer
    fits is skipped so shorter ones keep filling the time."""
    start = time.monotonic()
    took = {}

    def timed_step(step):
        t0 = time.monotonic()
        run_one(step)
        took[step] = time.monotonic() - t0

    for step in plan:
        timed_step(step)
    ran = True
    while ran:
        ran = False
        for step in plan:
            left = seconds - (time.monotonic() - start)
            if took[step] <= left and 1.5 * took[step] < bench.remaining():
                timed_step(step)
                ran = True


#: Share of a run's samples dropped from each end before averaging.
TRIM = 0.1


def _trimmed_mean(values):
    """Mean of the samples without the fastest and slowest tenth.

    A shared host flips between a fast and a slow state every few
    seconds, so one run's samples fall into two clusters.  The median
    jumps from one cluster to the other between runs; the mean moves
    with their mix, and the trim drops a lone outlier."""
    if not values:
        return None
    ordered = sorted(values)
    k = int(len(ordered) * TRIM)
    return statistics.fmean(ordered[k:len(ordered) - k])


def _summary(spec):
    """Trimmed mean of one field over a list of job records, per
    metric, with a note giving the sample count and every sample."""
    metrics, notes = {}, {}
    for name, (records, field, what) in spec.items():
        values = [r[field] for r in records]
        metrics[name] = _trimmed_mean(values)
        notes[name] = "trimmed mean of %d %s: %s" % (
            len(values), what, " ".join("%.4g" % v for v in values))
    return metrics, notes


def timed(bench, ledger, workload, seconds):
    """The end-to-end metrics of one workload (``--trace 0``)."""
    grid = workload == "scale-grid"
    samples = {"compiled": [], "pure": [], "setup": []}

    def run_one(step):
        if step == "setup":
            record = _run_checked(bench, ledger, "setup", "compiled",
                                  "%s/setup" % workload, n_cells=0)
        elif grid:
            record = _run_checked(bench, ledger, "grid", step,
                                  "%s/%s" % (workload, step), n_cells=12,
                                  jobs=bench.jobs,
                                  cache_dir=bench.fresh_dir())
        else:
            record = _run_checked(bench, ledger, "cell", step,
                                  "%s/%s" % (workload, step),
                                  workload=workload)
        if record is not None:
            samples[step].append(record)

    plan = GRID_PLAN if grid else PAPER_PLAN
    # One untimed sample first (its cells are still checked): the first
    # sample after an idle spell was often the slowest or fastest of
    # its run.
    run_one(plan[0])
    samples[plan[0]].clear()
    _schedule(bench, seconds, plan, run_one)
    compiled, pure = samples["compiled"], samples["pure"]
    if grid:
        return _summary({
            "cell_s": (compiled, "cpu_s",
                       "compiled grids, CPU s of parent + workers"),
            "cell_pure_s": (pure, "cpu_s", "pure grids, CPU s"),
            "setup_s": (samples["setup"], "setup_s",
                        "100K-flow set-up probes"),
            "grid_s": (compiled, "wall_s",
                       "compiled grids, wall s, jobs=%d" % bench.jobs),
            "peak_rss_mb": (compiled, "rss_mb",
                            "compiled grids, max(parent, workers)"),
        })
    return _summary({
        "cell_s": (compiled, "cpu_s", "compiled cells, CPU s"),
        "cell_pure_s": (pure, "cpu_s", "pure cells, CPU s"),
        "setup_s": (compiled, "setup_s", "fresh compiled processes"),
        "grid_s": (compiled, "wall_s", "one-cell studies, wall s"),
        "peak_rss_mb": (compiled, "rss_mb", "fresh compiled processes"),
    })


def layer_metrics(compiled, pure, control, pool):
    """Per-layer metrics from the traced compiled job, the traced pure
    job (``prof.*``), the untraced control job and the pool figures."""
    t, tp = compiled["trace"], pure["trace"]
    selfs, calls, incl = t["layer_self_s"], t["calls"], t["incl_s"]
    charges = calls.get("cpu.charge", 0)
    scheduled = calls.get("sim.schedule", 0)
    events = sum(n for name, n in calls.items()
                 if name.endswith(".callback"))
    m = {
        "cpu.self_s": selfs.get("cpu", 0.0),
        "cpu.charge_calls": charges,
        "cpu.us_per_charge": (1e6 * selfs.get("cpu", 0.0) / charges
                              if charges else 0.0),
        "enginecore.self_s": selfs.get("enginecore", 0.0),
        "enginecore.calls": calls.get("enginecore.charge", 0),
        "prof.self_s": tp["layer_self_s"].get("prof", 0.0),
        "prof.record_calls": tp["calls"].get("prof.record", 0),
        "mem.self_s": selfs.get("mem", 0.0),
        "mem.field_calls": calls.get("mem.field", 0),
        "mem.dma_calls": calls.get("mem.dma", 0),
        "kernel.self_s": selfs.get("kernel", 0.0),
        "kernel.charge_calls": calls.get("kernel.charge", 0),
        "kernel.hardirq_deliveries": calls.get("kernel.hardirq", 0),
        "kernel.wakeups": calls.get("kernel.wake_up", 0),
        "net.self_s": selfs.get("net", 0.0),
        "net.rx_segments": calls.get("net.tcp_rcv_established", 0),
        "net.sendmsg_calls": calls.get("net.tcp_sendmsg", 0),
        "net.acks_sent": calls.get("net.tcp_send_ack", 0),
        "net.skb_allocs": calls.get("net.skb_alloc", 0),
        "net.base_instructions_calls": calls.get("net.base_instructions", 0),
        "sim.self_s": selfs.get("sim", 0.0),
        "sim.events": events,
        "sim.scheduled": scheduled,
        "sim.cancelled_frac": (t["cancels"] / scheduled
                               if scheduled else 0.0),
        "sim.epoch_mean": (t["epoch_events"] / t["epochs"]
                           if t["epochs"] else 0.0),
        "core.self_s": selfs.get("core", 0.0),
        "core.import_s": compiled["import_s"],
        "core.engine_load_s": compiled["engine_load_s"],
        "core.build_s": incl.get("core.build", 0.0),
        "core.flowpop_s": incl.get("core.flowpop", 0.0),
        "core.run_s": incl.get("core.run", 0.0),
        "core.report_s": incl.get("core.report", 0.0),
        "core.cache_put_s": incl.get("core.cache_put", 0.0),
        "core.pool_overhead_s": pool["overhead_s"],
        "core.worker_busy_frac": pool["busy_frac"],
        "faults.check_s": incl.get("faults.check", 0.0),
        "trace.overhead_frac": (compiled["cpu_s"] - control["cpu_s"])
                               / control["cpu_s"],
    }
    return m


def _trace_sums(ledger, record, label):
    """Check that layer self times add up to the traced wall time."""
    t = record["trace"]
    total = sum(t["layer_self_s"].values())
    gap = abs(total - t["traced_s"]) / t["traced_s"]
    if gap > SUM_TOLERANCE:
        ledger.problems.append(
            "%s: layer self times sum to %.4f s, traced %.4f s (gap %.2f%%)"
            % (label, total, t["traced_s"], 100 * gap))
    return gap


def traced(bench, ledger, workload):
    """The per-layer metrics of one workload (``--trace 1``) and the
    self-time sum gap of each traced job."""
    grid = workload == "scale-grid"

    def job(engine, trace, jobs=1):
        label = "%s/%s%s" % (workload, engine, "/traced" if trace else "")
        if grid:
            return _run_checked(bench, ledger, "grid", engine,
                                "%s/jobs=%d" % (label, jobs), n_cells=12,
                                jobs=jobs, trace=trace,
                                cache_dir=bench.fresh_dir())
        return _run_checked(bench, ledger, "cell", engine, label,
                            workload=workload, trace=trace,
                            cache_dir=bench.fresh_dir())

    control = job("compiled", False)
    compiled = job("compiled", True)
    pure = job("pure", True)
    # The pool figures come from the study as users run it: the grid
    # through a pool of nproc workers, a paper cell in-process.
    study = job("compiled", False, jobs=bench.jobs) if grid else control
    if None in (study, control, compiled, pure):
        return None, {}
    busy = sum(c["wall_s"] for c in study["cells"])
    workers = min(bench.jobs if grid else 1, len(study["cells"]))
    pool = {"overhead_s": study["wall_s"] - busy / workers,
            "busy_frac": busy / (workers * study["wall_s"])}
    gaps = {"compiled": _trace_sums(ledger, compiled, "compiled/traced"),
            "pure": _trace_sums(ledger, pure, "pure/traced")}
    return layer_metrics(compiled, pure, control, pool), gaps


def _print_report(workload, seed, trace, metrics, notes, ledger, units):
    print("perfbench %s seed=%d trace=%d" % (workload, seed, trace))
    for name, value in metrics.items():
        shown = "n/a" if value is None else "%.6g" % value
        print("  %-28s %12s %-6s %s" % (name, shown, units[name],
                                          notes.get(name, "")))
    print("  %-28s %12.6g %-6s %d failed of %d cells attempted"
          % ("fail_frac", ledger.fail_frac, "frac", len(ledger.failed),
             ledger.attempted))
    for key, cell in sorted(ledger.outputs.items()):
        print("  cell %-28s sha256=%s  %.4f Gb/s  %.4f GHz/Gbps"
              % (key, cell["digest"], cell["gbps"], cell["ghz_per_gbps"]))
    for failure in ledger.failed + ledger.problems:
        print("  FAILED %s" % failure)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no simulator sources under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    bench = Bench(args.seed)
    ledger = Ledger()
    try:
        try:
            warm = bench.run("warm", engine="compiled")
        except ChildFailed as exc:
            print("perfbench: warm-up failed: %s" % exc, file=sys.stderr)
            return 3
        if not warm.get("ok"):
            print("perfbench: warm-up failed: %s" % warm.get("error"),
                  file=sys.stderr)
            return 3
        if args.trace:
            metrics, gaps = traced(bench, ledger, args.workload)
            units = PER_LAYER
            notes = {"trace.overhead_frac": "layer self-time sum gap: %s" % (
                ", ".join("%s %.3f%%" % (engine, 100 * gap)
                          for engine, gap in gaps.items()))}
        else:
            metrics, notes = timed(bench, ledger, args.workload,
                                   args.seconds)
            units = END_TO_END
    finally:
        bench.close()
    metrics = metrics or {}
    missing = [name for name in units if metrics.get(name) is None]
    for name in missing:
        ledger.problems.append("metric %s not measured" % name)
    _print_report(args.workload, args.seed, args.trace,
                  {n: metrics.get(n) for n in units}, notes, ledger, units)
    correct = not ledger.failed and not ledger.problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, ledger.attempted),
        "failed": len(ledger.failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name not in missing},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

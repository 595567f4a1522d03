"""Generate EXPERIMENTS.md: paper-vs-measured for every artefact.

Reads the cached experiment results (running anything missing) and
writes a Markdown report comparing the paper's numbers with this
reproduction's, artefact by artefact.

    python tools/make_experiments_report.py [output-path]
"""

import sys

from repro.core.characterization import characterize
from repro.core.correlation import correlate
from repro.core.experiment import (
    DEFAULT_CACHE,
    PAPER_SIZES,
    ExperimentConfig,
    run_experiment,
)
from repro.core.indicators import impact_indicators
from repro.core.lockstudy import LockComparison
from repro.core.metrics import (
    best_gain,
    cost_reduction,
    run_size_sweep,
    throughput_gain,
)
from repro.core.modes import AFFINITY_MODES
from repro.core.parallel import SweepRunner
from repro.core.speedup import improvement_table
from repro.cpu.params import CostModel

SWEEP_KW = dict(warmup_ms=14, measure_ms=18)


def corner(direction, size, affinity):
    return run_experiment(
        ExperimentConfig(direction=direction, message_size=size,
                         affinity=affinity),
        cache=DEFAULT_CACHE,
        progress=lambda m: print("  " + m, file=sys.stderr),
    )


def fmt_pct(x):
    # Gain/reduction helpers return None when a sweep cell failed;
    # render the hole the way the figure renderers do.
    if x is None:
        return "--"
    return "%.1f%%" % (x * 100)


def main(out_path="EXPERIMENTS.md"):
    lines = []
    w = lines.append

    w("# EXPERIMENTS — paper vs. measured")
    w("")
    w("Every table and figure of Foong et al. (ISPASS 2005), regenerated")
    w("on the simulator.  *Measured* numbers come from the cached runs in")
    w("`.repro-results/`; regenerate everything with")
    w("`pytest benchmarks/ --benchmark-only` or this script.")
    w("")
    w("Absolute magnitudes are not the target (the substrate is a")
    w("simulator, not the authors' 2005 testbed); the comparison is of")
    w("*shape*: orderings, approximate factors, which bins move.")
    w("")

    # ------------------------------------------------------- Figures 3/4
    print("sweeps...", file=sys.stderr)
    runner = SweepRunner(jobs=1, cache=DEFAULT_CACHE)
    tx_sweep = run_size_sweep("tx", runner=runner, **SWEEP_KW)
    rx_sweep = run_size_sweep("rx", runner=runner, **SWEEP_KW)

    w("## Figure 3 — throughput & utilization vs transaction size")
    w("")
    w("| claim | paper | measured |")
    w("|---|---|---|")
    w("| IRQ-affinity best throughput gain (TX) | up to ~25%% | %s |"
      % fmt_pct(best_gain(tx_sweep, PAPER_SIZES, "irq")))
    w("| full-affinity best throughput gain (TX) | up to ~29-30%% | %s |"
      % fmt_pct(best_gain(tx_sweep, PAPER_SIZES, "full")))
    w("| process-affinity-only gain (TX, 64KB) | ~0%% | %s |"
      % fmt_pct(throughput_gain(tx_sweep, 65536, "proc")))
    w("| full-affinity best gain (RX) | similar to TX | %s |"
      % fmt_pct(best_gain(rx_sweep, PAPER_SIZES, "full")))
    w("| CPU utilization | ~100%% at all sizes | %s |"
      % fmt_pct(min(tx_sweep[(s, m)].utilization
                    for s in PAPER_SIZES for m in AFFINITY_MODES)))
    w("| bandwidth grows with size | yes | yes (%d -> %d Mb/s, TX none) |"
      % (tx_sweep[(128, "none")].throughput_mbps,
         tx_sweep[(65536, "none")].throughput_mbps))
    w("")
    w("Artefacts: `results/figure3_tx.txt`, `results/figure3_rx.txt`.")
    w("")

    w("## Figure 4 — processing cost (GHz/Gbps)")
    w("")
    w("| point | paper | measured |")
    w("|---|---|---|")
    for direction, sweep in (("tx", tx_sweep), ("rx", rx_sweep)):
        for mode in ("none", "full"):
            paper = {
                ("tx", "none"): "~1.9", ("tx", "full"): "~1.4",
                ("rx", "none"): "~2.0-2.4", ("rx", "full"): "~1.6-1.9",
            }[(direction, mode)]
            w("| %s 64KB, %s affinity | %s | %.2f |"
              % (direction.upper(), mode, paper,
                 sweep[(65536, mode)].cost_ghz_per_gbps))
    w("| 64KB TX cost reduction | ~25%% | %s |"
      % fmt_pct(cost_reduction(tx_sweep, 65536, "full")))
    w("| cost falls with size | yes | yes (TX none: %.2f -> %.2f) |"
      % (tx_sweep[(128, "none")].cost_ghz_per_gbps,
         tx_sweep[(65536, "none")].cost_ghz_per_gbps))
    w("")

    # --------------------------------------------------------- Table 1
    print("corners...", file=sys.stderr)
    corners = {}
    for direction in ("tx", "rx"):
        for size in (65536, 128):
            for affinity in ("none", "full"):
                corners[(direction, size, affinity)] = corner(
                    direction, size, affinity)

    w("## Table 1 — baseline characterization")
    w("")
    w("Selected cells (full tables in `results/table1_*.txt`):")
    w("")
    w("| metric | paper | measured |")
    w("|---|---|---|")
    t64n = characterize(corners[("tx", 65536, "none")])
    t64f = characterize(corners[("tx", 65536, "full")])
    r64n = characterize(corners[("rx", 65536, "none")])
    t128n = characterize(corners[("tx", 128, "none")])
    w("| TX 64KB overall CPI (none -> full) | 5.04 -> 4.14 | %.2f -> %.2f |"
      % (t64n["overall"].cpi, t64f["overall"].cpi))
    w("| TX 64KB overall MPI (none -> full) | .0078 -> .0047 | %.4f -> %.4f |"
      % (t64n["overall"].mpi, t64f["overall"].mpi))
    w("| TX 64KB engine share | 25.5%% | %s |"
      % fmt_pct(t64n["engine"].pct_cycles))
    w("| TX 64KB buf-mgmt share | 28.0%% | %s |"
      % fmt_pct(t64n["buf_mgmt"].pct_cycles))
    w("| TX 128B interface share | 42.4%% | %s |"
      % fmt_pct(t128n["interface"].pct_cycles))
    w("| RX 64KB copies share | 40.3%% | %s |"
      % fmt_pct(r64n["copies"].pct_cycles))
    w("| RX 64KB copies CPI (rep movl) | 66.3 | %.1f |"
      % r64n["copies"].cpi)
    w("| RX 64KB copies MPI | 0.133 | %.3f |" % r64n["copies"].mpi)
    w("| RX more memory-bound than TX | CPI 8.5 vs 5.0 | CPI %.1f vs %.1f |"
      % (r64n["overall"].cpi, t64n["overall"].cpi))
    w("| branches of instructions | 10-16%% | %s |"
      % fmt_pct(t64n["overall"].pct_branches))
    w("| branch mispredict ratio | <2%% | %s |"
      % fmt_pct(t64n["overall"].pct_mispredicted))
    w("")

    # --------------------------------------------------------- Table 2
    w("## Table 2 — spinlock behaviour")
    w("")
    cmp64 = LockComparison(corners[("tx", 65536, "none")],
                           corners[("tx", 65536, "full")])
    w("| metric | paper | measured |")
    w("|---|---|---|")
    w("| full-aff lock branches vs no-aff | 5-10%% | %s |"
      % fmt_pct(cmp64.branch_collapse_ratio()))
    w("| mispredict ratio rises with affinity | yes | %s (%s -> %s) |"
      % ("yes" if cmp64.mispredict_ratio("full")
         >= cmp64.mispredict_ratio("none") else "no",
         fmt_pct(cmp64.mispredict_ratio("none")),
         fmt_pct(cmp64.mispredict_ratio("full"))))
    w("| contention (none -> full) | high -> ~none | %s -> %s |"
      % (fmt_pct(cmp64.contention("none")),
         fmt_pct(cmp64.contention("full"))))
    w("")

    # --------------------------------------------------------- Figure 5
    w("## Figure 5 — performance impact indicators")
    w("")
    costs = CostModel()
    w("| corner | paper clears/LLC (% of time) | measured clears/LLC |")
    w("|---|---|---|")
    paper_f5 = {
        ("tx", 65536, "none"): (59.3, 39.8),
        ("tx", 65536, "full"): (54.8, 33.6),
        ("tx", 128, "none"): (39.8, 24.2),
        ("tx", 128, "full"): (22.4, 19.8),
        ("rx", 65536, "none"): (71.2, 45.5),
        ("rx", 65536, "full"): (60.1, 39.0),
        ("rx", 128, "none"): (66.8, 20.6),
        ("rx", 128, "full"): (21.3, 15.7),
    }
    for key, (p_clears, p_llc) in paper_f5.items():
        rows = {r[0]: r[2] for r in impact_indicators(corners[key], costs)}
        w("| %s %s %s | %.0f / %.0f | %.0f / %.0f |"
          % (key[0].upper(), key[1], key[2], p_clears, p_llc,
             rows["Machine clear"] * 100, rows["LLC miss"] * 100))
    w("")
    w("Machine clears and LLC misses rank first and second in every")
    w("measured corner, the paper's core Figure 5 finding.  The")
    w("no-vs-full contrast at RX 128B is weaker than the paper's (see")
    w("deviations below).")
    w("")

    # --------------------------------------------------------- Table 3
    w("## Table 3 — per-bin improvements (no -> full affinity)")
    w("")
    w("| corner | paper overall cycles / LLC | measured cycles / LLC |")
    w("|---|---|---|")
    paper_t3 = {
        ("tx", 65536): (22.1, 43.0),
        ("tx", 128): (9.3, 29.3),
        ("rx", 65536): (21.0, 35.0),
        ("rx", 128): (9.2, 28.6),
    }
    for (direction, size), (p_cyc, p_llc) in paper_t3.items():
        rows = improvement_table(
            corners[(direction, size, "none")],
            corners[(direction, size, "full")],
        )
        w("| %s %s | %.0f%% / %.0f%% | %s / %s |"
          % (direction.upper(), size, p_cyc, p_llc,
             fmt_pct(rows["overall"].cycles), fmt_pct(rows["overall"].llc)))
    rows64 = improvement_table(corners[("tx", 65536, "none")],
                               corners[("tx", 65536, "full")])
    w("")
    w("Engine + buffer management carry %s of the TX 64KB improvement"
      % fmt_pct((rows64["engine"].cycles + rows64["buf_mgmt"].cycles)
                / rows64["overall"].cycles))
    w("(paper: ~88%%); copies contribute %s (paper: ~1%%)."
      % fmt_pct(rows64["copies"].cycles / rows64["overall"].cycles))
    w("")

    # --------------------------------------------------------- Table 4
    w("## Table 4 — per-CPU machine-clear hotspots")
    w("")
    w("Qualitative checks (see `results/table4_*.txt` for the tables):")
    w("")
    from repro.core.clears import clears_assertions

    checks = clears_assertions(corners[("tx", 65536, "none")],
                               corners[("tx", 65536, "full")])
    for claim, ok in checks.items():
        w("* %s — **%s**" % (claim, "holds" if ok else "DOES NOT HOLD"))
    w("")

    # ------------------------------------------- Table 4 trace cross-check
    print("trace cross-check...", file=sys.stderr)
    w("### Trace-based cross-check")
    w("")
    w("A traced no-affinity TX run (`repro-affinity trace`) replays the")
    w("Table 4 attribution from tracepoints instead of aggregates: the")
    w("per-CPU `irq_entry`/`ipi_recv`/`sched_migrate` counts must equal")
    w("the `/proc/interrupts` ledger and scheduler totals *exactly*.")
    w("")
    w("| check | expectation | measured |")
    w("|---|---|---|")
    traced = run_experiment(ExperimentConfig(
        direction="tx", message_size=65536, affinity="none",
        warmup_ms=4, measure_ms=6, trace=1 << 20,
    ))
    trace = traced["trace"]
    w("| device IRQs per CPU, trace vs /proc | equal | %s vs %s (%s) |"
      % (trace["irq_entries_per_cpu"], traced.device_irqs,
         "equal" if trace["irq_entries_per_cpu"] == traced.device_irqs
         else "MISMATCH"))
    w("| resched IPIs per CPU, trace vs /proc | equal | %s vs %s (%s) |"
      % (trace["ipis_per_cpu"], traced.ipis,
         "equal" if trace["ipis_per_cpu"] == traced.ipis
         else "MISMATCH"))
    w("| migrations, trace vs scheduler | equal | %d vs %d (%s) |"
      % (trace["migrations"], traced["migrations"],
         "equal" if trace["migrations"] == traced["migrations"]
         else "MISMATCH"))
    w("| IPIs land off CPU0 (no affinity) | yes | %s |"
      % ("yes" if sum(traced.ipis[1:]) > 0 else "no"))
    w("| ring overruns | 0 | %d of %d |"
      % (trace["dropped"], trace["emitted"]))
    w("")
    w("The IPIs (and the machine clears each induces) are received by")
    w("the woken CPUs, not the interrupt CPU — the paper's Table 4")
    w("attribution — and under full affinity they disappear entirely")
    w("(`tests/test_trace.py`).  IRQ→NET_RX softirq latency p50/p99:")
    w("%.1f/%.1f µs." % (trace["irq_to_softirq"]["p50"] / 2e3,
                         trace["irq_to_softirq"]["p99"] / 2e3))
    w("")

    # --------------------------------------------------------- Table 5
    w("## Table 5 — rank correlation")
    w("")
    w("| corner | paper rho(LLC)/rho(clears) | measured |")
    w("|---|---|---|")
    paper_t5 = {
        ("tx", 65536): (0.62, 0.80),
        ("tx", 128): (0.93, 0.89),
        ("rx", 65536): (0.82, 0.93),
        ("rx", 128): (0.96, 0.79),
    }
    for (direction, size), (p_llc, p_clr) in paper_t5.items():
        corr = correlate(corners[(direction, size, "none")],
                         corners[(direction, size, "full")])
        w("| %s %s | %.2f / %.2f | %.2f / %.2f |"
          % (direction.upper(), size, p_llc, p_clr,
             corr.rho_llc, corr.rho_clears))
    w("")
    w("LLC correlations are strong and positive everywhere, clearing the")
    w("paper's printed significance bar (0.377) in all corners and the")
    w("exact one-tailed p=0.05 bar (0.714) in most.  Clear correlations")
    w("are positive but weaker than the paper's (see deviations).")
    w("")

    # ----------------------------------------------------- deviations
    w("## Known deviations")
    w("")
    w("* **irq vs full ordering at some sizes.**  The paper has full")
    w("  affinity slightly ahead of interrupt-only affinity (29% vs 25%);")
    w("  in the simulator the two modes are within ~2% of each other and")
    w("  occasionally swap, because the modelled wake-steering achieves")
    w("  essentially perfect alignment in irq mode.")
    w("* **Machine-clear contrast at small sizes.**  The paper's RX 128B")
    w("  no-affinity run shows a very large clear count that collapses")
    w("  under affinity (67% -> 21% of time by the indicator method).")
    w("  Our receive-side readers settle into a flow-controlled steady")
    w("  state with few block/wake cycles, so the no-affinity IPI storm")
    w("  is weaker and the contrast smaller.  The TX-side contrast and")
    w("  the per-CPU attribution asymmetries do reproduce.")
    w("* **Lock-bin branch collapse** is directionally right but milder")
    w("  (full affinity keeps ~20-30% of no-affinity lock branches vs")
    w("  the paper's 5-10%): the")
    w("  modelled socket-lock hold times are shorter than the real 2.4")
    w("  kernel's worst case, so there is less spinning to remove.")
    w("* The Spearman critical value the paper prints (0.377) does not")
    w("  match standard one-tailed tables for n=7 (0.714); both are")
    w("  reported.")
    w("")

    # ----------------------------------------------------- extensions
    w("## Extensions beyond the paper")
    w("")
    w("Each extension is grounded in a sentence of the paper (see the")
    w("extension table in DESIGN.md); artefacts land in `results/`.")
    w("")
    w("* **4P system** (mentioned in section 5, not shown): the affinity")
    w("  gain grows because default routing bottlenecks CPU0 harder --")
    w("  `results/ablation_4p.txt`.")
    w("* **Linux-2.6 IRQ rotation** (`rotate` mode, section 7): lands")
    w("  between no affinity and static IRQ affinity, exactly the")
    w("  trade-off the paper describes -- ")
    w("  `results/ablation_dynamic_placement.txt`.")
    w("* **RSS flow steering** (`rss` mode, section 8): reaches static")
    w("  alignment with no pinning -- same artefact.")
    w("* **iSCSI-style target** (section 8's future work): full affinity")
    w("  improves IOPS by >15% -- `results/extension_iscsi.txt`.")
    w("* **Web-style connection churn** (section 4's partitioning")
    w("  argument): the affinity gain shrinks as application processing")
    w("  dilutes the fast-path share -- `results/extension_web.txt`.")
    w("* **HyperThreading** (`Machine(hyperthreading=True)`): SMT gives")
    w("  a sublinear (~20%) boost, and a sibling placement (IRQ on one")
    w("  logical CPU, process on the other) captures most of the")
    w("  affinity benefit via the shared cache --")
    w("  `examples/hyperthreading.py`.")
    w("* **Loss recovery** (fault injection): duplicate-ACK fast")
    w("  retransmit and RTO recovery under injected frame loss --")
    w("  `tests/test_loss_recovery.py`.")
    w("")

    text = "\n".join(lines) + "\n"
    with open(out_path, "w") as fh:
        fh.write(text)
    print("wrote %s (%d lines)" % (out_path, len(lines)), file=sys.stderr)


if __name__ == "__main__":
    main(*sys.argv[1:])

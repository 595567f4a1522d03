"""Affinity sweep: regenerate the paper's Figures 3 and 4 end to end.

Sweeps transaction sizes 128B..64KB under all four affinity modes for
one direction and prints the bandwidth/utilization and GHz/Gbps
tables, plus the headline "best gain" numbers the paper quotes in its
abstract (IRQ affinity up to ~25%, full affinity ~30%).

Run:
    python examples/affinity_sweep.py [tx|rx] [--quick]

``--quick`` restricts to three sizes so the sweep finishes in a couple
of minutes; results are cached in .repro-results/ either way.
"""

import sys

from repro.core.experiment import PAPER_SIZES, DEFAULT_CACHE
from repro.core.metrics import best_gain, run_size_sweep
from repro.core.modes import AFFINITY_MODES
from repro.core.parallel import SweepRunner
from repro.core.report import render_figure3, render_figure4


def main(argv):
    direction = "tx"
    sizes = PAPER_SIZES
    for arg in argv:
        if arg in ("tx", "rx"):
            direction = arg
        elif arg == "--quick":
            sizes = (128, 4096, 65536)
        else:
            raise SystemExit("usage: affinity_sweep.py [tx|rx] [--quick]")

    print("Sweeping %s over sizes %s (4 affinity modes each)...\n"
          % (direction.upper(), list(sizes)))
    sweep = run_size_sweep(
        direction,
        sizes=sizes,
        runner=SweepRunner(
            jobs=1, cache=DEFAULT_CACHE,
            progress=lambda msg: print("  " + msg),
        ),
        warmup_ms=14,
        measure_ms=18,
    )

    print()
    print(render_figure3(sweep, sizes, AFFINITY_MODES, direction))
    print()
    print(render_figure4(sweep, sizes, AFFINITY_MODES, direction))
    print()
    print("Headline gains over no affinity (best across sizes):")
    for mode in ("proc", "irq", "full"):
        print("  %-5s +%.1f%%" % (mode, best_gain(sweep, sizes, mode) * 100))
    print("\n(The paper reports: proc ~0%, irq up to ~25%, full ~29-30%.)")


if __name__ == "__main__":
    main(sys.argv[1:])

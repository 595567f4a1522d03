"""Exact per-(CPU, function) event accounting.

This is the sink every :class:`~repro.cpu.core.Cpu` charges into.  It
accumulates the full event vector per (cpu index, function spec) pair
and offers the aggregations the paper's tables need: per functional
bin, per function, per CPU, with or without the measurement of the
idle loop.

``record`` is the hottest non-cache function in the simulator; it takes
the event values as positional scalars (not a list) to avoid building
a temporary per charge.
"""

from repro.cpu.events import (
    BRANCHES,
    BR_MISPREDICTS,
    CYCLES,
    INSTRUCTIONS,
    LLC_MISSES,
    N_EVENTS,
    zero_counts,
)
from repro.cpu.function import BINS


class AccountingViews:
    """The aggregations the paper's tables need, computed over
    ``rows()`` -- shared by both engines' accounting sinks."""

    __slots__ = ()

    def per_function(self, cpu_index=None, include_idle=False):
        """Aggregate vectors by function name.

        Returns ``{fn_name: (spec, vector)}``.  ``cpu_index`` restricts
        to one CPU (Table 4's per-CPU views); the idle loop is excluded
        unless requested.
        """
        out = {}
        for (cpu, spec), vec in self.rows():
            if cpu_index is not None and cpu != cpu_index:
                continue
            if not include_idle and spec.bin == "other":
                continue
            entry = out.get(spec.name)
            if entry is None:
                out[spec.name] = (spec, list(vec))
            else:
                row = entry[1]
                for i in range(N_EVENTS):
                    row[i] += vec[i]
        return out

    def per_bin(self, cpu_index=None):
        """Aggregate vectors by functional bin.

        Returns ``{bin: vector}`` over the paper's seven bins (the
        ``other`` bin -- idle loop, bookkeeping -- is reported too but
        excluded from Table 1 style percentages by the callers).
        """
        out = {name: zero_counts() for name in BINS}
        for (cpu, spec), vec in self.rows():
            if cpu_index is not None and cpu != cpu_index:
                continue
            row = out[spec.bin]
            for i in range(N_EVENTS):
                row[i] += vec[i]
        return out

    def total(self, include_idle=False):
        """Event vector summed over everything."""
        out = zero_counts()
        for (_, spec), vec in self.rows():
            if not include_idle and spec.bin == "other":
                continue
            for i in range(N_EVENTS):
                out[i] += vec[i]
        return out

    def cpus(self):
        """Sorted CPU indices present in the data."""
        return sorted({cpu for (cpu, _), _ in self.rows()})


class ExactAccounting(AccountingViews):
    """Accumulates event vectors keyed by (cpu index, function spec)."""

    def __init__(self):
        self._data = {}
        self.enabled = True

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------

    def record(
        self,
        cpu_index,
        spec,
        cycles,
        instructions,
        branches,
        mispredicts,
        llc_misses,
        l2_hits,
        l3_hits,
        tc_misses,
        itlb_walks,
        dtlb_walks,
        machine_clears,
    ):
        """Accumulate one charge's events (see :meth:`Cpu.charge`)."""
        if not self.enabled:
            return
        key = (cpu_index, spec)
        row = self._data.get(key)
        if row is None:
            row = zero_counts()
            self._data[key] = row
        row[0] += cycles
        row[1] += instructions
        row[2] += branches
        row[3] += mispredicts
        row[4] += llc_misses
        row[5] += l2_hits
        row[6] += l3_hits
        row[7] += tc_misses
        row[8] += itlb_walks
        row[9] += dtlb_walks
        row[10] += machine_clears

    def reset(self):
        """Drop all accumulated data (start of the measurement window)."""
        self._data.clear()

    def rows(self):
        """Iterate ``((cpu_index, spec), vector)`` pairs, first-charge
        order (what :class:`AccountingViews` aggregates)."""
        return self._data.items()


class BinProfile:
    """Derived per-bin metrics for one run: the raw material of Table 1.

    Wraps the output of :meth:`ExactAccounting.per_bin` and computes the
    paper's derived columns: % cycles, CPI, MPI (LLC misses per
    instruction), % branches, % branches mispredicted.
    """

    def __init__(self, per_bin_vectors, work_bits=None):
        self.vectors = per_bin_vectors
        self.work_bits = work_bits
        stack_bins = [b for b in BINS if b != "other"]
        self.total_cycles = sum(per_bin_vectors[b][CYCLES] for b in stack_bins)
        self.total_instructions = sum(
            per_bin_vectors[b][INSTRUCTIONS] for b in stack_bins
        )

    def pct_cycles(self, bin):
        """Share of stack cycles spent in ``bin``."""
        if self.total_cycles <= 0:
            return 0.0
        return self.vectors[bin][CYCLES] / float(self.total_cycles)

    def cpi(self, bin=None):
        """Cycles per instruction for ``bin`` (or the whole stack)."""
        if bin is None:
            cycles, instr = self.total_cycles, self.total_instructions
        else:
            vec = self.vectors[bin]
            cycles, instr = vec[CYCLES], vec[INSTRUCTIONS]
        return cycles / float(instr) if instr else 0.0

    def mpi(self, bin=None):
        """Last-level cache misses per instruction."""
        if bin is None:
            misses = sum(
                self.vectors[b][LLC_MISSES] for b in BINS if b != "other"
            )
            instr = self.total_instructions
        else:
            vec = self.vectors[bin]
            misses, instr = vec[LLC_MISSES], vec[INSTRUCTIONS]
        return misses / float(instr) if instr else 0.0

    def pct_branches(self, bin=None):
        """Branches as a fraction of instructions."""
        if bin is None:
            branches = sum(self.vectors[b][BRANCHES] for b in BINS if b != "other")
            instr = self.total_instructions
        else:
            vec = self.vectors[bin]
            branches, instr = vec[BRANCHES], vec[INSTRUCTIONS]
        return branches / float(instr) if instr else 0.0

    def pct_mispredicted(self, bin=None):
        """Mispredicted branches as a fraction of branches."""
        if bin is None:
            mispred = sum(
                self.vectors[b][BR_MISPREDICTS] for b in BINS if b != "other"
            )
            branches = sum(self.vectors[b][BRANCHES] for b in BINS if b != "other")
        else:
            vec = self.vectors[bin]
            mispred, branches = vec[BR_MISPREDICTS], vec[BRANCHES]
        return mispred / float(branches) if branches else 0.0

    def events_per_work(self, bin, event_index):
        """Event count normalized to work done (per bit transferred).

        The paper's Amdahl analysis compares events *per work done*
        between affinity modes so that throughput differences cancel.
        """
        if not self.work_bits:
            return 0.0
        return self.vectors[bin][event_index] / float(self.work_bits)

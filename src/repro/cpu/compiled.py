"""The compiled-engine CPU: array state plus a thin charge wrapper.

:class:`CompiledCpu` owns the same component set as :class:`~repro.
cpu.core.Cpu` -- three data-cache levels, two TLBs, trace cache,
branch predictor -- but in the ``array('q')`` representations of
:mod:`repro.cpu.arraystate`, and its :meth:`charge` is a ~ten-line
wrapper around ``_enginecore.charge``, which runs the entire hot path
in C over buffers bound once at machine construction.

Everything the machine layer touches between charges (clocks, totals,
skid attribution, machine clears, idle advance, the HT wiring) is the
Python code of :class:`~repro.cpu.core.CpuBase`, shared with the
reference engine; only per-line coherence invalidation from outside
the C core is specific here.  The differential suite
(``tests/test_engine_equivalence.py``) and the golden suite run the
same workloads over both engines and require identical state.
"""

from array import array

from repro.cpu.arraystate import (
    ArrayBranchPredictor,
    ArraySetAssocCache,
    ArrayTlb,
    ArrayTraceCache,
)
from repro.cpu.core import CpuBase

#: Oprofile-skid sampling period, coprime to the quanta (same constant
#: as the pure engine; keep the two in sync).
SKID_PERIOD = 1999


class CompiledCpu(CpuBase):
    """One processor of the simulated SMP, on the compiled engine.

    ``sink`` is the machine's :class:`~repro.prof.slotaccounting.
    ArrayAccounting`; its slot registry numbers the functions the
    branch predictor tracks.
    """

    __slots__ = ("_core", "_state")

    def __init__(self, index, params, costs, memsys, sink, name=None,
                 share_with=None, domain=None):
        super().__init__(index, params, costs, memsys, sink, name=name,
                         share_with=share_with, domain=domain)
        # Same layout as the reference's list, but buffer-exportable so
        # the C engine adds into it directly.
        self.totals = array("q", self.totals)
        #: Bound by :meth:`bind` once the whole machine exists (the C
        #: state captures every CPU's buffers in one build).
        self._core = None
        self._state = None

    def _make_units(self, params):
        return (ArraySetAssocCache(params.l1), ArraySetAssocCache(params.l2),
                ArraySetAssocCache(params.l3), ArrayTlb(params.itlb),
                ArrayTlb(params.dtlb), ArrayTraceCache(params.trace_cache),
                ArrayBranchPredictor(params.bp_capacity, self.sink.registry))

    def bind(self, core, state):
        """Attach the built C engine state (machine-construction time)."""
        self._core = core
        self._state = state

    # ------------------------------------------------------------------
    # The hot path.
    # ------------------------------------------------------------------

    def charge(self, spec, instructions, reads=(), writes=(), extra_cycles=0,
               branches=None, mispredicts=None):
        """Execute one invocation of ``spec``; same contract as
        :meth:`repro.cpu.core.Cpu.charge`."""
        self.last_spec = spec
        sibling = self.sibling
        cycles = self._core.charge(
            self._state,
            self.index,
            spec,
            instructions,
            reads,
            writes,
            extra_cycles,
            -1 if branches is None else branches,
            -1 if mispredicts is None else mispredicts,
            sibling.recent_load if sibling is not None else 0.0,
        )
        self.now += cycles
        self.busy_cycles += cycles
        acc = self._skid_acc + cycles
        if acc >= SKID_PERIOD:
            acc %= SKID_PERIOD
            self.skid_spec = spec
        self._skid_acc = acc
        return cycles

    def invalidate_line(self, line):
        """Drop ``line`` from this core's three data-cache levels (an
        invalidation from Python; the C core's own invalidations hit
        the arrays directly)."""
        self.l1.invalidate(line)
        self.l2.invalidate(line)
        self.l3.invalidate(line)

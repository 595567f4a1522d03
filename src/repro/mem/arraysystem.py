"""Memory system over the flat-array directory (compiled engine).

Drop-in replacement for :class:`~repro.mem.system.MemorySystem` whose
coherence state lives in a :class:`~repro.mem.directory.LineDirectory`
and whose counters live in one ``array('q')`` stats buffer.  The C
core binds both and performs every protocol transition: the charge
path's read-miss and write-exclusivity steps inline, and the DMA entry
points -- the only coherence operations invoked from outside the
charge path -- dispatch to it once ``Machine`` has built the engine
state.  The CPU roster and the bus model are shared with the reference
(:class:`~repro.mem.system.MemorySystemBase`).
"""

from array import array

from repro.cpu.arraystate import stat_property
from repro.mem.directory import LineDirectory
from repro.mem.system import MemorySystemBase

#: ``_stats`` layout (bound by the compiled engine).
MS_INVALIDATIONS = 0
MS_C2C = 1
MS_DMA_LINES_READ = 2
MS_DMA_LINES_WRITTEN = 3
MS_BUS_DELAY = 4


class CompiledMemorySystem(MemorySystemBase):
    """Array-backed state of :class:`~repro.mem.system.MemorySystem`."""

    def __init__(self):
        super().__init__()
        self.directory = LineDirectory()
        self._stats = array("q", [0, 0, 0, 0, 0])
        #: Bound by ``Machine`` once the C engine state exists.
        self._state = None
        self._core = None

    def bind_state(self, core, state):
        self._core = core
        self._state = state

    # -- counters (same names as the reference; machine code assigns) --

    invalidations = stat_property(MS_INVALIDATIONS,
                                  "Copies invalidated by coherence/DMA.")
    c2c_transfers = stat_property(MS_C2C, "Cache-to-cache read misses.")
    dma_lines_read = stat_property(MS_DMA_LINES_READ, "Lines device-read.")
    dma_lines_written = stat_property(MS_DMA_LINES_WRITTEN,
                                      "Lines device-written.")
    bus_delay = stat_property(MS_BUS_DELAY, "Per-fill FSB queuing cycles.")

    # -- DMA (the C core's transitions) ---------------------------------

    def dma_write(self, addr, size):
        self._core.dma_write(self._state, addr, size)

    def dma_read(self, addr, size):
        self._core.dma_read(self._state, addr, size)

    # -- introspection -------------------------------------------------

    def sharers_of(self, line):
        return self.directory.sharers_of(line)

    def owner_of(self, line):
        return self.directory.owner_of(line)

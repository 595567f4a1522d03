"""Unit tests for the coherence directory and DMA behaviour."""

from repro.cpu.events import LLC_MISSES
from repro.mem.layout import CACHE_LINE


def charge_read(rig, cpu, addr, size=CACHE_LINE):
    return rig.cpus[cpu].charge(rig.fn, 10, reads=[(addr, size)])


def charge_write(rig, cpu, addr, size=CACHE_LINE):
    return rig.cpus[cpu].charge(rig.fn, 10, writes=[(addr, size)])


class TestCoherence:
    def test_read_share_both_cpus(self, rig):
        obj = rig.space.alloc("shared", CACHE_LINE)
        charge_read(rig, 0, obj.addr)
        charge_read(rig, 1, obj.addr)
        line = obj.addr // CACHE_LINE
        assert rig.memsys.sharers_of(line) == 0b11
        assert rig.memsys.owner_of(line) == -1

    def test_write_invalidates_other_copy(self, rig):
        obj = rig.space.alloc("shared", CACHE_LINE)
        line = obj.addr // CACHE_LINE
        charge_read(rig, 0, obj.addr)
        charge_read(rig, 1, obj.addr)
        charge_write(rig, 1, obj.addr)
        assert rig.memsys.sharers_of(line) == 0b10
        assert rig.memsys.owner_of(line) == 1
        assert not rig.cpus[0].l1.probe(line)
        assert not rig.cpus[0].l2.probe(line)
        assert not rig.cpus[0].l3.probe(line)

    def test_reread_after_remote_write_misses(self, rig):
        """The producer/consumer bounce that affinity eliminates."""
        obj = rig.space.alloc("tcb", CACHE_LINE)
        charge_read(rig, 0, obj.addr)
        before = rig.cpus[0].totals[LLC_MISSES]
        charge_read(rig, 0, obj.addr)  # warm: no new miss
        assert rig.cpus[0].totals[LLC_MISSES] == before
        charge_write(rig, 1, obj.addr)
        charge_read(rig, 0, obj.addr)  # bounced back: miss again
        assert rig.cpus[0].totals[LLC_MISSES] == before + 1

    def test_dirty_read_is_cache_to_cache(self, rig):
        obj = rig.space.alloc("tcb", CACHE_LINE)
        charge_write(rig, 0, obj.addr)
        assert rig.memsys.c2c_transfers == 0
        charge_read(rig, 1, obj.addr)
        assert rig.memsys.c2c_transfers == 1
        # Ownership downgraded to shared.
        assert rig.memsys.owner_of(obj.addr // CACHE_LINE) == -1

    def test_repeated_local_writes_fast_path(self, rig):
        obj = rig.space.alloc("local", CACHE_LINE)
        charge_write(rig, 0, obj.addr)
        inv_before = rig.memsys.invalidations
        for _ in range(5):
            charge_write(rig, 0, obj.addr)
        assert rig.memsys.invalidations == inv_before


class TestDma:
    def test_dma_write_invalidates_all_cpus(self, rig):
        obj = rig.space.alloc("rxbuf", CACHE_LINE * 4)
        charge_read(rig, 0, obj.addr, obj.size)
        charge_read(rig, 1, obj.addr, obj.size)
        rig.memsys.dma_write(obj.addr, obj.size)
        for line in obj.lines():
            assert rig.memsys.sharers_of(line) == 0
            assert not rig.cpus[0].l3.probe(line)
            assert not rig.cpus[1].l3.probe(line)

    def test_read_after_dma_write_is_cold(self, rig):
        obj = rig.space.alloc("rxbuf", CACHE_LINE * 4)
        charge_read(rig, 0, obj.addr, obj.size)
        before = rig.cpus[0].totals[LLC_MISSES]
        rig.memsys.dma_write(obj.addr, obj.size)
        charge_read(rig, 0, obj.addr, obj.size)
        assert rig.cpus[0].totals[LLC_MISSES] == before + 4

    def test_dma_read_invalidates_by_default(self, rig):
        """On the paper's FSB chipsets, transmit DMA reads invalidate
        CPU copies: transmitted buffers are cold when reused."""
        obj = rig.space.alloc("txbuf", CACHE_LINE * 4)
        charge_write(rig, 0, obj.addr, obj.size)
        before = rig.cpus[0].totals[LLC_MISSES]
        rig.memsys.dma_read(obj.addr, obj.size)
        charge_read(rig, 0, obj.addr, obj.size)
        assert rig.cpus[0].totals[LLC_MISSES] == before + 4

    def test_dma_read_downgrades_ownership(self, rig):
        obj = rig.space.alloc("txbuf", CACHE_LINE)
        charge_write(rig, 0, obj.addr)
        rig.memsys.dma_read(obj.addr, obj.size)
        assert rig.memsys.owner_of(obj.addr // CACHE_LINE) == -1

    def test_dma_counters(self, rig):
        obj = rig.space.alloc("buf", CACHE_LINE * 2)
        rig.memsys.dma_write(obj.addr, obj.size)
        rig.memsys.dma_read(obj.addr, obj.size)
        assert rig.memsys.dma_lines_written == 2
        assert rig.memsys.dma_lines_read == 2

"""Machine-level differential suite: the C core against the reference.

The compiled engine's state transitions exist only in C
(``repro/cpu/_enginecore.c``); the array classes own its buffers and
read them back.  Each test here builds the same two-CPU machine twice,
``Machine(engine="pure")`` over the reference object model and
``Machine(engine="compiled")`` over the C core, drives both through
one seeded random operation sequence and, after *every* operation,
requires the returned cycles and every piece of microarchitectural
state to agree: data-cache sets in LRU order, the trace cache, both
TLBs, the predictor's LRU order and per-function state, every counter
and the per-CPU totals.  Directory contents and accounting rows are
compared at checkpoints.

Geometries are tiny so a few thousand operations exercise eviction,
coherence and DMA invalidation heavily, and the slot registry and the
line directory start small so every run crosses their growth (the C
core must re-bind the reallocated buffers).  The test classes differ
in the operation mix they stress.  Seeds are fixed so a failure
replays exactly.  The machine-level tests skip when the compiled
engine cannot be built; the accounting and directory tests that need
no C run everywhere.
"""

import functools
import random

import pytest

import repro.kernel.machine as machine_module
import repro.mem.arraysystem as arraysystem_module
from repro.cpu.engine import load_core
from repro.cpu.function import FunctionSpec
from repro.cpu.params import CacheGeometry, CostModel, CpuParams, TlbGeometry
from repro.kernel.machine import Machine
from repro.mem.arraysystem import CompiledMemorySystem
from repro.mem.directory import LineDirectory
from repro.mem.layout import CACHE_LINE, PAGE_SIZE
from repro.mem.system import MemorySystem
from repro.prof.accounting import ExactAccounting
from repro.prof.slotaccounting import ArrayAccounting, SlotRegistry

N_OPS = 2000
CHECKPOINT = 250
#: Data pool the random ranges fall in: enough pages to thrash the
#: DTLB, enough lines to grow the directory several times.
POOL_PAGES = 16
#: Most touches are small ones to the pool's first lines, a working
#: set a little larger than L1, so every level both hits and misses.
HOT_LINES = 24

needs_compiled = pytest.mark.skipif(
    load_core() is None, reason="compiled engine unavailable (no cc?)")


def tiny_params(bp_capacity=6):
    return CpuParams(
        l1=CacheGeometry(512, 2, name="L1D"),    # 4 sets x 2 ways
        l2=CacheGeometry(1024, 2, name="L2"),    # 8 sets x 2 ways
        l3=CacheGeometry(2048, 4, name="L3"),    # 8 sets x 4 ways
        itlb=TlbGeometry(2, name="ITLB"),
        dtlb=TlbGeometry(8, name="DTLB"),
        trace_cache=CacheGeometry(1024, 4, name="TC"),  # 4 sets x 4
        bp_capacity=bp_capacity,
    )


@pytest.fixture
def small_tables(monkeypatch):
    """Start the slot registry and the line directory small, so the C
    core has to follow their growth mid-run."""
    monkeypatch.setattr(machine_module, "SlotRegistry",
                        functools.partial(SlotRegistry, capacity=2))
    monkeypatch.setattr(arraysystem_module, "LineDirectory",
                        functools.partial(LineDirectory, initial_slots=16))


# ----------------------------------------------------------------------
# State snapshots: the same plain data from either engine.
# ----------------------------------------------------------------------


def _cache_sets(cache):
    """Per-set tags, MRU first."""
    if hasattr(cache, "sets_snapshot"):
        return cache.sets_snapshot()
    # Reference trace-cache sets are dicts in LRU-to-MRU order.
    return [list(reversed(list(bucket))) if isinstance(bucket, dict)
            else list(bucket) for bucket in cache._sets]


def _predictor(machine, bp):
    """``[(name, invocations seen, residual)]`` in LRU-to-MRU order."""
    if machine.registry is None:
        return [(name, seen, residual)
                for name, (seen, residual) in bp._entries.items()]
    slots = machine.registry._spec_to_slot
    out = []
    for name in bp.tracked_names():
        slot = slots[machine.functions.get(name)]
        out.append((name, bp._seen[slot], bp._residual[slot]))
    return out


def _name(spec):
    return None if spec is None else spec.name


def snapshot(machine):
    """Every per-operation observable of ``machine``."""
    cpus = []
    for cpu in machine.cpus:
        units = []
        for cache in (cpu.l1, cpu.l2, cpu.l3, cpu.trace_cache):
            units.append((_cache_sets(cache), cache.hits, cache.misses))
        for tlb in (cpu.itlb, cpu.dtlb):
            units.append((tlb.resident_pages(), tlb.hits, tlb.walks))
        bp = cpu.branch_predictor
        units.append((_predictor(machine, bp), bp.mispredicts,
                      bp.cold_events))
        cpus.append((units, cpu.now, cpu.busy_cycles, list(cpu.totals),
                     _name(cpu.last_spec), _name(cpu.skid_spec),
                     cpu._skid_acc))
    ms = machine.memsys
    return cpus, (ms.invalidations, ms.c2c_transfers, ms.dma_lines_read,
                  ms.dma_lines_written, ms.bus_delay, ms.bus_utilization)


def checkpoint(machine):
    """Directory contents and accounting, compared less often."""
    directory = machine.memsys.directory
    if isinstance(directory, dict):
        lines = sorted((line, e[0], e[1]) for line, e in directory.items())
    else:
        lines = sorted(directory.items())
    acct = machine.accounting
    rows = [((cpu, spec.name), list(vec)) for (cpu, spec), vec in acct.rows()]
    per_function = {name: list(vec) for name, (_, vec)
                    in acct.per_function(include_idle=True).items()}
    return (lines, rows, per_function, acct.per_bin(), acct.total(),
            acct.cpus())


# ----------------------------------------------------------------------
# The driver.
# ----------------------------------------------------------------------


class Pair:
    """The same machine on both engines, driven in lockstep."""

    def __init__(self, seed, hyperthreading=False, n_funcs=10,
                 bp_capacity=6):
        self.rng = random.Random(seed)
        self.machines = [
            Machine(n_cpus=2, cpu_params=tiny_params(bp_capacity),
                    seed=seed, hyperthreading=hyperthreading, engine=engine)
            for engine in ("pure", "compiled")
        ]
        assert [m.charge_engine for m in self.machines] == [
            "pure", "compiled"]
        spec_rng = random.Random(seed + 1000)
        shapes = [
            dict(code_size=spec_rng.choice([64, 128, 256, 1024, 4096]),
                 branch_frac=spec_rng.choice([0.0, 0.1, 0.2]),
                 mispredict_rate=spec_rng.choice([0.0, 0.01, 0.3, 1.0]),
                 stall_per_instr=spec_rng.choice([0.0, 0.25]),
                 stall_per_call=spec_rng.choice([0, 7]))
            for _ in range(n_funcs)
        ]
        self.specs = [
            [m.functions.register("fn%d" % i,
                                  "other" if i % 4 == 3 else "engine",
                                  **shape)
             for i, shape in enumerate(shapes)]
            for m in self.machines
        ]
        pools = [m.space.alloc_page_aligned("pool", POOL_PAGES * PAGE_SIZE)
                 for m in self.machines]
        assert pools[0].addr == pools[1].addr
        self.pool = pools[0].addr
        self.n_cpus = self.machines[0].n_cpus

    # -- random operands -------------------------------------------------

    def addr_range(self):
        rng = self.rng
        kind = rng.random()
        if kind < 0.7:
            addr = self.pool + rng.randrange(HOT_LINES * CACHE_LINE)
            size = rng.choice([0, 1, 8, 64, 100])
        elif kind < 0.9:
            addr = self.pool + rng.randrange(2 * PAGE_SIZE)
            size = rng.choice([64, 256, 700])
        else:
            addr = self.pool + rng.randrange(POOL_PAGES * PAGE_SIZE)
            size = rng.choice([PAGE_SIZE, 3 * PAGE_SIZE])
        return addr, size

    def line(self):
        return self.addr_range()[0] // CACHE_LINE

    def ranges(self, most):
        return [self.addr_range() for _ in range(self.rng.randrange(most + 1))]

    # -- lockstep application -------------------------------------------

    def apply(self, op):
        """Run ``op(machine, specs)`` on both machines; results must
        match, and so must the full state afterwards."""
        results = [op(m, specs) for m, specs in zip(self.machines, self.specs)]
        assert results[0] == results[1]
        assert snapshot(self.machines[0]) == snapshot(self.machines[1])
        return results[0]

    def check_tables(self):
        assert checkpoint(self.machines[0]) == checkpoint(self.machines[1])

    # -- operations ------------------------------------------------------

    def charge(self, reads=3, writes=2, overrides=True, cpu=None,
               fn=None, instructions=None):
        rng = self.rng
        cpu = rng.randrange(self.n_cpus) if cpu is None else cpu
        fn = rng.randrange(len(self.specs[0])) if fn is None else fn
        if instructions is None:
            instructions = rng.choice([0, 1, 5, 17, 37, 100, 400])
        kwargs = dict(reads=self.ranges(reads), writes=self.ranges(writes),
                      extra_cycles=rng.choice([0, 0, 13]))
        if overrides and rng.random() < 0.2:
            kwargs["branches"] = rng.randrange(50)
        if overrides and rng.random() < 0.15:
            kwargs["mispredicts"] = rng.randrange(5)
        return self.apply(lambda m, specs: m.cpus[cpu].charge(
            specs[fn], instructions, **kwargs))

    def dma(self):
        addr, size = self.addr_range()
        write = self.rng.random() < 0.5
        self.apply(lambda m, specs: (m.memsys.dma_write if write
                                     else m.memsys.dma_read)(addr, size))

    def machine_clear(self):
        rng = self.rng
        cpu = rng.randrange(self.n_cpus)
        fn = rng.randrange(len(self.specs[0]))
        counted, flush = rng.randrange(4), rng.random() < 0.7
        self.apply(lambda m, specs: m.cpus[cpu].machine_clear(
            specs[fn], counted, flush=flush))

    def flush_below(self):
        cpu = self.rng.randrange(self.n_cpus)
        boundary = self.pool // PAGE_SIZE + self.rng.randrange(POOL_PAGES)
        self.apply(lambda m, specs: m.cpus[cpu].dtlb.flush_below(boundary))

    def invalidate_line(self):
        cpu = self.rng.randrange(self.n_cpus)
        line = self.line()
        self.apply(lambda m, specs: m.cpus[cpu].invalidate_line(line))

    def update_bus(self):
        slots = self.rng.randrange(5000)
        window = self.rng.choice([0, 1000, 4000])
        self.apply(lambda m, specs: m.memsys.update_bus(slots, window,
                                                        m.costs))

    def sibling_load(self):
        cpu = self.rng.randrange(self.n_cpus)
        load = self.rng.choice([0.0, 0.3, 1.0])

        def op(m, specs):
            m.cpus[cpu].recent_load = load

        self.apply(op)

    def toggle_accounting(self):
        enabled = self.rng.random() < 0.7

        def op(m, specs):
            m.accounting.enabled = enabled

        self.apply(op)

    def reset_measurement(self):
        self.apply(lambda m, specs: m.reset_measurement())

    def run(self, mix, n_ops=N_OPS):
        """``mix`` is ``[(weight, operation)]``."""
        weights = [w for w, _ in mix]
        ops = [op for _, op in mix]
        for i in range(n_ops):
            self.rng.choices(ops, weights)[0]()
            if i % CHECKPOINT == 0:
                self.check_tables()
        self.check_tables()


def general_mix(pair, charge=None):
    return [
        (30, charge or pair.charge),
        (3, pair.dma),
        (2, pair.machine_clear),
        (1, pair.flush_below),
        (2, pair.invalidate_line),
        (1, pair.update_bus),
        (1, pair.sibling_load),
        (0.3, pair.toggle_accounting),
        (0.1, pair.reset_measurement),
    ]


# ----------------------------------------------------------------------
# Machine-level differential tests (need the C core).
# ----------------------------------------------------------------------


@needs_compiled
@pytest.mark.usefixtures("small_tables")
class TestCacheEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_trace(self, seed):
        pair = Pair(seed)
        pair.run(general_mix(pair))
        l1 = pair.machines[1].cpus[0].l1
        assert l1.hits and l1.misses  # the trace saw both outcomes

    def test_range_generators_consumed_once(self):
        pair = Pair(17)
        base = pair.pool

        def op(m, specs):
            reads = ((base + i * CACHE_LINE, CACHE_LINE) for i in range(3))
            writes = ((base + PAGE_SIZE + i * CACHE_LINE, 8)
                      for i in range(2))
            return m.cpus[0].charge(specs[0], 10, reads=reads, writes=writes)

        pair.apply(op)
        assert pair.machines[1].cpus[0].l1.misses == 5


@needs_compiled
@pytest.mark.usefixtures("small_tables")
class TestTraceCacheEquivalence:
    @pytest.mark.parametrize("seed", [4, 5])
    def test_random_fetch_trace(self, seed):
        # Code only: many functions of mixed sizes through a 4-set
        # trace cache and a 2-entry ITLB.
        pair = Pair(seed, n_funcs=16)
        pair.run([
            (10, functools.partial(pair.charge, reads=0, writes=0)),
            (1, pair.machine_clear),
        ])
        tc = pair.machines[1].cpus[0].trace_cache
        assert tc.hits and tc.misses


@needs_compiled
@pytest.mark.usefixtures("small_tables")
class TestTlbEquivalence:
    @pytest.mark.parametrize("seed", [6, 7, 8])
    def test_random_trace(self, seed):
        pair = Pair(seed)
        pair.run([
            (10, functools.partial(pair.charge, reads=2, writes=1)),
            (3, pair.flush_below),
            (1, pair.dma),
        ])
        assert pair.machines[1].cpus[0].dtlb.walks

    def test_flush_below_keeps_buffer_identity(self):
        # The C engine binds the page buffer once; compaction must not
        # reallocate it, and later charges must see the compacted one.
        pair = Pair(18)
        compiled = pair.machines[1].cpus[0].dtlb
        buf = compiled._pages
        first = pair.pool // PAGE_SIZE
        for page in (1, 9, 2, 8):
            addr = pair.pool + page * PAGE_SIZE
            pair.apply(lambda m, specs: m.cpus[0].charge(
                specs[0], 10, reads=[(addr, 8)]))
        pair.apply(lambda m, specs: m.cpus[0].dtlb.flush_below(first + 5))
        assert compiled._pages is buf
        assert compiled.resident_pages() == [first + 8, first + 9]
        pair.apply(lambda m, specs: m.cpus[0].charge(
            specs[0], 10, reads=[(pair.pool + PAGE_SIZE, 8)]))
        assert compiled.resident_pages()[0] == first + 1


@needs_compiled
@pytest.mark.usefixtures("small_tables")
class TestBranchPredictorEquivalence:
    @pytest.mark.parametrize("seed", [9, 10, 11])
    def test_random_trace(self, seed):
        # More functions than predictor entries; branch and mispredict
        # overrides interleaved with predicted charges.
        pair = Pair(seed, n_funcs=14, bp_capacity=6)
        pair.run([
            (10, functools.partial(pair.charge, reads=1, writes=0)),
            (1, pair.machine_clear),
            (0.2, pair.reset_measurement),
        ])
        bp = pair.machines[1].cpus[0].branch_predictor
        assert bp.cold_events > 6 and bp.mispredicts


@needs_compiled
@pytest.mark.usefixtures("small_tables")
class TestMemorySystemEquivalence:
    @pytest.mark.parametrize("seed", [13, 14])
    @pytest.mark.parametrize("hyperthreading", [True, False])
    def test_random_coherence_trace(self, seed, hyperthreading):
        # Every CPU reads and writes the same hot lines, DMA hits them
        # in both directions; with HT, two logical CPUs per domain.
        pair = Pair(seed, hyperthreading=hyperthreading)
        pair.run(general_mix(pair, functools.partial(pair.charge, reads=2,
                                                     writes=2)))
        memsys = pair.machines[1].memsys
        assert memsys.invalidations and memsys.c2c_transfers

    def test_counter_reset_assignment(self):
        # Machine.reset_measurement assigns these counters directly;
        # the assignment must land in the buffer the C core adds into.
        pair = Pair(19)
        line_addr = pair.pool
        for cpu in (0, 1, 0, 1):
            pair.apply(lambda m, specs: m.cpus[cpu].charge(
                specs[0], 10, writes=[(line_addr, 8)]))
        memsys = pair.machines[1].memsys
        assert memsys.invalidations and memsys.c2c_transfers

        def reset(m, specs):
            m.memsys.invalidations = 0
            m.memsys.c2c_transfers = 0

        pair.apply(reset)
        assert memsys._stats[0] == 0 and memsys._stats[1] == 0
        pair.apply(lambda m, specs: m.cpus[0].charge(
            specs[0], 10, writes=[(line_addr, 8)]))
        assert memsys.invalidations == 1

    def test_bus_update_matches_reference(self):
        costs = CostModel()
        ref = MemorySystem()
        arr = CompiledMemorySystem()
        rng = random.Random(15)
        for _ in range(100):
            slots = rng.randrange(0, 5000)
            window = rng.choice([0, 1000, 4000])
            ref.update_bus(slots, window, costs)
            arr.update_bus(slots, window, costs)
            assert arr.bus_utilization == ref.bus_utilization
            assert arr.bus_delay == ref.bus_delay


class TestLineDirectory:
    @needs_compiled
    @pytest.mark.usefixtures("small_tables")
    def test_random_inserts_against_dict(self):
        # The C core inserts every line a charge touches first; the
        # table starts at 16 slots and must grow past every line.
        pair = Pair(12)
        rng = pair.rng
        for _ in range(300):
            pair.charge(reads=3, writes=2, overrides=False)
        far = [rng.randrange(1 << 40) * CACHE_LINE for _ in range(100)]
        for addr in far:
            cpu = rng.randrange(2)
            kind = rng.choice(["reads", "writes"])
            pair.apply(lambda m, specs: m.cpus[cpu].charge(
                specs[0], 5, **{kind: [(addr, 8)]}))
        pair.check_tables()
        reference = pair.machines[0].memsys.directory
        directory = pair.machines[1].memsys.directory
        assert directory._meta[1] > 0  # grew at least once
        assert len(directory) == len(reference)
        for line, entry in reference.items():
            assert directory.get(line) == tuple(entry)
            assert line in directory
        assert directory.get(max(reference) + 1) is None

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            LineDirectory(initial_slots=48)


# ----------------------------------------------------------------------
# Accounting: the Python record path (machine clears) and the shared
# aggregations, against the reference sink.
# ----------------------------------------------------------------------


def _spec(name, bin="engine"):
    return FunctionSpec(name=name, bin=bin, code_addr=0x1000, code_size=256)


class TestAccountingEquivalence:
    def test_random_charges_match_reference(self):
        rng = random.Random(16)
        specs = [_spec("fn%d" % i, bin=("engine" if i % 3 else "other"))
                 for i in range(40)]
        registry = SlotRegistry(capacity=8)  # force growth mid-trace
        ref = ExactAccounting()
        arr = ArrayAccounting(n_cpus=2, registry=registry)
        for _ in range(N_OPS):
            spec = rng.choice(specs)
            cpu = rng.randrange(2)
            vec = [rng.randrange(100) for _ in range(11)]
            ref.record(cpu, spec, *vec)
            arr.record(cpu, spec, *vec)
        assert arr.rows() == [
            (key, list(vec)) for key, vec in ref.rows()
        ]
        for cpu_index in (None, 0, 1):
            for include_idle in (False, True):
                assert arr.per_function(cpu_index, include_idle) == \
                    ref.per_function(cpu_index, include_idle)
            assert arr.per_bin(cpu_index) == ref.per_bin(cpu_index)
        for include_idle in (False, True):
            assert arr.total(include_idle) == ref.total(include_idle)
        assert arr.cpus() == ref.cpus()

    def test_disabled_records_nothing(self):
        registry = SlotRegistry()
        arr = ArrayAccounting(n_cpus=1, registry=registry)
        arr.enabled = False
        arr.record(0, _spec("fn"), *([1] * 11))
        assert arr.rows() == []
        arr.enabled = True
        arr.record(0, _spec("fn"), *([1] * 11))
        assert len(arr.rows()) == 1

    def test_reset_preserves_slots(self):
        registry = SlotRegistry()
        arr = ArrayAccounting(n_cpus=2, registry=registry)
        spec = _spec("fn")
        arr.record(1, spec, *([2] * 11))
        slot = registry.slot_for(spec)
        arr.reset()
        assert arr.rows() == []
        assert registry.slot_for(spec) == slot

    @needs_compiled
    @pytest.mark.usefixtures("small_tables")
    def test_registry_growth_notifies_branch_predictor(self):
        # Registry capacity 2: ten functions cross three growths, each
        # reallocating the predictor arrays under the C core.
        pair = Pair(20, n_funcs=10, bp_capacity=8)
        for fn in range(10):
            pair.apply(lambda m, specs: m.cpus[0].charge(
                specs[fn], 200, branches=20))
        registry = pair.machines[1].registry
        assert registry.capacity >= 10
        assert pair.machines[1].cpus[0].branch_predictor.tracked_names() \
            == ["fn%d" % i for i in range(2, 10)]
        pair.check_tables()

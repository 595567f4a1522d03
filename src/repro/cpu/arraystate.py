"""Array-backed microarchitectural state for the compiled engine.

These classes hold exactly the state of their reference counterparts
(:class:`~repro.cpu.cache.SetAssocCache`,
:class:`~repro.cpu.cache.TraceCache`, :class:`~repro.cpu.tlb.Tlb`,
:class:`~repro.cpu.branch.BranchPredictor`) in flat ``array('q')`` /
``array('d')`` buffers keyed by ``(set, way)``, instead of per-set
Python lists and dicts.  They own the buffers and nothing else: the
optional C extension (``repro.cpu._enginecore``) binds them once and
performs every charge-path transition over raw int64 loads.  What
stays in Python is read-only introspection and the two mutators the
machine layer calls between charges (:meth:`ArraySetAssocCache.
invalidate` via ``CompiledCpu.invalidate_line``, and
:meth:`ArrayTlb.flush_below` on a context switch).  The differential
suite (``tests/test_engine_equivalence.py``) checks the C transitions
against the reference classes buffer by buffer.

Layout invariants the C code relies on:

* cache sets are ``ways``-long segments of ``_tags``, MRU-first,
  packed (all valid entries precede the first ``-1``);
* TLB entries are one MRU-first packed segment of ``capacity`` pages;
* branch-predictor state is indexed by the machine-wide function slot
  (see :class:`repro.prof.slotaccounting.SlotRegistry`) with an
  intrusive doubly-linked LRU list in ``_prev`` / ``_next``;
* counters live in small ``array('q')`` stats buffers so compiled and
  interpreted readers see the same cells.
"""

from array import array

#: Stats-buffer layout shared with the C extension.
CACHE_HITS = 0
CACHE_MISSES = 1
TLB_HITS = 0
TLB_WALKS = 1
BP_MISPREDICTS = 0
BP_COLD_EVENTS = 1
#: Branch-predictor ``_meta`` layout.
BP_HEAD = 0
BP_TAIL = 1
BP_COUNT = 2


def stat_property(index, doc):
    """A read/write property over one cell of ``self._stats``."""

    def get(self):
        return self._stats[index]

    def set(self, value):
        self._stats[index] = value

    return property(get, set, doc=doc)


class ArraySetAssocCache:
    """Flat-array state of :class:`~repro.cpu.cache.SetAssocCache`."""

    __slots__ = ("geometry", "_tags", "_stats", "_mask", "_ways")

    def __init__(self, geometry):
        self.geometry = geometry
        n_sets = geometry.n_sets
        if n_sets & (n_sets - 1):
            raise ValueError(
                "%s: set count %d is not a power of two"
                % (geometry.name, n_sets)
            )
        self._mask = n_sets - 1
        self._ways = geometry.ways
        self._tags = array("q", [-1]) * (n_sets * geometry.ways)
        self._stats = array("q", [0, 0])

    hits = stat_property(CACHE_HITS, "Lookups that hit.")
    misses = stat_property(CACHE_MISSES, "Lookups that missed (and filled).")

    def probe(self, line):
        """Non-destructive lookup: ``True`` if ``line`` is resident."""
        base = (line & self._mask) * self._ways
        return line in self._tags[base:base + self._ways]

    def invalidate(self, line):
        """Drop ``line`` if resident (coherence / DMA), keeping the set
        packed MRU-first."""
        tags = self._tags
        ways = self._ways
        base = (line & self._mask) * ways
        for i in range(ways):
            tag = tags[base + i]
            if tag == line:
                while i < ways - 1:
                    tags[base + i] = tags[base + i + 1]
                    i += 1
                tags[base + ways - 1] = -1
                return
            if tag == -1:
                return

    def resident_lines(self):
        return [tag for tag in self._tags if tag != -1]

    def sets_snapshot(self):
        """Per-set tag lists, MRU first -- comparable to the reference
        class's ``_sets``."""
        tags = self._tags
        ways = self._ways
        return [[t for t in tags[base:base + ways] if t != -1]
                for base in range(0, len(tags), ways)]

    def __repr__(self):
        return "%s(%r, hits=%d, misses=%d)" % (
            type(self).__name__, self.geometry, self.hits, self.misses)


class ArrayTraceCache(ArraySetAssocCache):
    """Array state of :class:`~repro.cpu.cache.TraceCache`.

    The reference trace cache is behaviourally identical to
    ``SetAssocCache`` (same replacement, counters and geometry), so the
    array form is the same class under the fetch-path name.
    """

    __slots__ = ()


class ArrayTlb:
    """Flat-array state of :class:`~repro.cpu.tlb.Tlb`."""

    __slots__ = ("geometry", "_pages", "_stats", "_capacity")

    def __init__(self, geometry):
        self.geometry = geometry
        self._capacity = geometry.entries
        self._pages = array("q", [-1]) * geometry.entries
        self._stats = array("q", [0, 0])

    hits = stat_property(TLB_HITS, "Translations that hit.")
    walks = stat_property(TLB_WALKS, "Translations that walked the pages.")

    def flush_below(self, boundary_page):
        """In-place compaction keeping pages >= ``boundary_page``.

        The reference reassigns ``_entries``; this buffer is bound by
        the compiled engine and must keep its identity, so survivors
        are compacted to the front and the tail cleared instead.
        """
        pages = self._pages
        out = 0
        for i in range(self._capacity):
            page = pages[i]
            if page == -1:
                break
            if page >= boundary_page:
                pages[out] = page
                out += 1
        for i in range(out, self._capacity):
            pages[i] = -1

    def resident_pages(self):
        """Currently cached page numbers, MRU first."""
        out = []
        for page in self._pages:
            if page == -1:
                break
            out.append(page)
        return out

    def __repr__(self):
        return "ArrayTlb(%r, hits=%d, walks=%d)" % (
            self.geometry, self.hits, self.walks)


class ArrayBranchPredictor:
    """Array state of :class:`~repro.cpu.branch.BranchPredictor`.

    State is indexed by the machine-wide function slot from a
    :class:`~repro.prof.slotaccounting.SlotRegistry` (the machine's
    ``FunctionTable`` keeps names unique, so slots and the names the
    reference keys by are 1:1), with the reference class's
    ``OrderedDict`` LRU realised as an intrusive doubly-linked list:
    ``seen[slot] < 0`` means "not tracked", eviction unlinks the LRU
    head, a hit moves the slot to the tail.
    """

    __slots__ = ("_capacity", "_registry", "_seen", "_residual", "_prev",
                 "_next", "_meta", "_stats")

    def __init__(self, capacity, registry):
        self._capacity = capacity
        self._registry = registry
        slots = registry.capacity
        self._seen = array("q", [-1]) * slots
        self._residual = array("d", [0.0]) * slots
        self._prev = array("q", [-1]) * slots
        self._next = array("q", [-1]) * slots
        self._meta = array("q", [-1, -1, 0])  # head, tail, count
        self._stats = array("q", [0, 0])
        registry.add_grower(self._grow)

    def _grow(self, new_capacity):
        for name in ("_seen", "_prev", "_next"):
            old = getattr(self, name)
            new = array("q", [-1]) * new_capacity
            new[: len(old)] = old
            setattr(self, name, new)
        old = self._residual
        new = array("d", [0.0]) * new_capacity
        new[: len(old)] = old
        self._residual = new

    mispredicts = stat_property(BP_MISPREDICTS, "Mispredictions charged.")
    cold_events = stat_property(BP_COLD_EVENTS, "Functions (re-)entered cold.")

    def tracked_names(self):
        """LRU-to-MRU tracked function names -- comparable to the
        reference's ``_entries`` keys."""
        specs = self._registry.specs
        out = []
        slot = self._meta[BP_HEAD]
        while slot >= 0:
            out.append(specs[slot].name)
            slot = self._next[slot]
        return out

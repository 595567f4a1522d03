"""Layer tracer: spans around calls into each simulator layer.

The simulator carries no tracing of its own host time, so this module
installs it from outside: it replaces the public boundary functions of
each layer (``repro.sim``, ``repro.kernel``, ``repro.net``,
``repro.cpu``, ``_enginecore``, ``repro.mem``, ``repro.prof`` and the
``repro.core`` phases) with wrappers that record one span per call --
name, start, end and parent -- and restores the originals afterwards.

Generator entry points (the net layer's ``net_rx_action``,
``tcp_sendmsg``, ...) are driven by ``Machine._drive`` one resume at a
time, so their wrapper records one span per resume, never one span for
the call that merely creates the generator.

Spans are recorded as a flat event log: ``name id, start`` opens a
span, ``-1, end`` closes the innermost open one, so each span's parent
is the span open around it.  A layer's self time is the duration of
its spans minus the part covered by their child spans
(:func:`self_times`).
"""

import functools
import importlib
import inspect
import itertools
import sys
import time
from array import array
from contextlib import contextmanager

#: The event-log marker that closes a span.
END = -1

#: Log entries buffered in a list before they are packed into an
#: ``array`` chunk (a list append is the cheapest record; the packed
#: chunk keeps a multi-million-span cell in tens of megabytes).
FLUSH_AT = 1 << 20

#: Every boundary the tracer wraps: ``(span name, "module:Class" or
#: "module", attribute)``.  The span name's prefix up to the first dot
#: is the layer that owns the span's self time.
TARGETS = (
    ("cpu.charge", "repro.cpu.core:Cpu", "charge"),
    ("cpu.charge", "repro.cpu.compiled:CompiledCpu", "charge"),
    ("prof.record", "repro.prof.accounting:ExactAccounting", "record"),
    ("prof.record", "repro.prof.slotaccounting:ArrayAccounting", "record"),
    ("mem.field", "repro.mem.layout:MemoryObject", "field"),
    ("mem.dma", "repro.mem.system:MemorySystem", "dma_write"),
    ("mem.dma", "repro.mem.system:MemorySystem", "dma_read"),
    ("mem.dma", "repro.mem.arraysystem:CompiledMemorySystem", "dma_write"),
    ("mem.dma", "repro.mem.arraysystem:CompiledMemorySystem", "dma_read"),
    ("kernel.charge", "repro.kernel.context:ExecContext", "charge"),
    ("kernel.hardirq", "repro.kernel.machine:Machine",
     "deliver_pending_hardirqs"),
    ("kernel.wake_up", "repro.kernel.machine:Machine", "wake_up"),
    ("net.net_rx_action", "repro.net.tcp_input", "net_rx_action"),
    ("net.tcp_rcv_established", "repro.net.tcp_input",
     "tcp_rcv_established"),
    ("net.tcp_sendmsg", "repro.net.tcp_output", "tcp_sendmsg"),
    ("net.tcp_send_ack", "repro.net.tcp_output", "tcp_send_ack"),
    ("net.sys_write", "repro.net.stack:NetworkStack", "sys_write"),
    ("net.sys_read", "repro.net.stack:NetworkStack", "sys_read"),
    ("net.skb_alloc", "repro.net.skbuff:SkbPools", "alloc"),
    ("net.skb_free", "repro.net.skbuff:SkbPools", "free"),
    ("net.base_instructions", "repro.net.params", "base_instructions"),
    ("sim.run", "repro.sim.events:SimulationEngine", "run"),
    ("core.build", "repro.kernel.machine:Machine", "__init__"),
    ("core.build", "repro.net.stack:NetworkStack", "__init__"),
    ("core.flowpop", "repro.net.flowclass", "partition_flows"),
    ("core.flowpop", "repro.net.stack:NetworkStack", "_make_connection"),
    ("core.run", "repro.kernel.machine:Machine", "run_for"),
    ("core.report", "repro.core.experiment:ExperimentResult", "from_machine"),
    ("core.cache_put", "repro.core.experiment:ResultCache", "put"),
    ("faults.check", "repro.faults.invariants:InvariantChecker", "check"),
)


def layer_of(name):
    """The layer a span name belongs to (its prefix up to the dot)."""
    return name.split(".", 1)[0]


def self_times(log, n_names):
    """Self time, inclusive time and span count per name id.

    ``log`` is the flat event sequence described in the module
    docstring.  Self time is each span's duration minus the durations
    of its direct children; inclusive time is the plain duration.
    """
    self_t = [0] * n_names
    incl_t = [0] * n_names
    count = [0] * n_names
    stack = []
    events = iter(log)
    for mark in events:
        t = next(events)
        if mark != END:
            stack.append([mark, t, 0])
            continue
        nid, start, children = stack.pop()
        d = t - start
        self_t[nid] += d - children
        incl_t[nid] += d
        count[nid] += 1
        if stack:
            stack[-1][2] += d
    if stack:
        raise ValueError("%d spans left open" % len(stack))
    return self_t, incl_t, count


def _callback_name(callback):
    """Span name for an event callback: the layer whose module
    defined it, e.g. ``net.callback`` for a NIC completion."""
    target = getattr(callback, "func", callback)
    parts = (getattr(target, "__module__", None) or "").split(".")
    if len(parts) > 1 and parts[0] == "repro":
        return parts[1] + ".callback"
    return "other.callback"


def _resolve(path):
    module_name, _, cls_name = path.partition(":")
    module = importlib.import_module(module_name)
    return module, (getattr(module, cls_name) if cls_name else None)


class _CoreProxy:
    """Per-CPU stand-in for the ``_enginecore`` module whose ``charge``
    is traced; every other attribute reads through to the module."""

    def __init__(self, core, charge):
        self._core = core
        self.charge = charge

    def __getattr__(self, name):
        return getattr(self._core, name)


class LayerTracer:
    """Span recorder plus the patch set that feeds it.  Use as::

        tracer = LayerTracer()
        with tracer.installed():
            with tracer.span("core.cell"):
                run_experiment(config)
        report = tracer.report()
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.name_list = []
        self._name_ids = {}
        self._log = []
        self._chunks = []
        #: Generators created per name id (their spans count resumes).
        self._created = {}
        self._patches = []
        #: Non-span counters: cancelled events, epochs and the events
        #: they carried.
        self.cancels = 0
        self.epochs = 0
        self.epoch_events = 0

    # -- span recording -------------------------------------------------

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.name_list)
            self.name_list.append(name)
        return nid

    def flush(self):
        """Pack the buffered log entries into an ``array`` chunk."""
        if self._log:
            self._chunks.append(array("q", self._log))
            self._log.clear()

    @contextmanager
    def span(self, name):
        """Record one span around the ``with`` body."""
        log = self._log
        log.append(self.name_id(name))
        log.append(self.clock())
        try:
            yield
        finally:
            t = self.clock()
            log.append(END)
            log.append(t)

    def wrap(self, fn, name, copy_metadata=True):
        """``fn`` wrapped so each call (or each generator resume, for a
        generator function) records a span called ``name``.

        ``copy_metadata=False`` skips :func:`functools.update_wrapper`,
        which costs more than the span itself on per-event wrappers."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name)
        nid = self.name_id(name)
        record, clock = self._log.append, self.clock

        def traced(*args, **kwargs):
            record(nid)
            record(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t = clock()
                record(END)
                record(t)

        if not copy_metadata:
            return traced
        return functools.update_wrapper(traced, fn)

    def _wrap_generator(self, fn, name):
        nid = self.name_id(name)
        self._created[nid] = 0
        record, clock, created = self._log.append, self.clock, self._created

        def resumes(gen):
            value = None
            error = None
            while True:
                record(nid)
                record(clock())
                try:
                    if error is None:
                        op = gen.send(value)
                    else:
                        exc, error = error, None
                        op = gen.throw(exc)
                except StopIteration as stop:
                    return stop.value
                finally:
                    t = clock()
                    record(END)
                    record(t)
                try:
                    value = yield op
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:
                    value = None
                    error = exc

        def traced(*args, **kwargs):
            created[nid] += 1
            return resumes(fn(*args, **kwargs))

        return functools.update_wrapper(traced, fn)

    # -- patching -------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, module, attr, wrapped):
        """Patch a module-level function in its module and in every
        ``repro`` module that imported it with ``from ... import``."""
        original = getattr(module, attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, name, wrapped)

    def install(self):
        """Wrap every boundary in :data:`TARGETS`, the per-CPU engine
        core and the event queue (:meth:`_install_sim`)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        # Consumers must be imported before the scan for ``from ...
        # import`` copies of module-level functions.
        for mod in ("repro.core.experiment", "repro.core.scale",
                    "repro.core.parallel", "repro.net.stack"):
            importlib.import_module(mod)
        machine_cls = None
        for name, path, attr in TARGETS:
            module, cls = _resolve(path)
            if cls is None:
                self._patch_function(
                    module, attr, self.wrap(getattr(module, attr), name))
                continue
            raw = vars(cls)[attr]
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self.wrap(raw.__func__,
                                                             name)))
            elif attr == "__init__" and path.endswith(":Machine"):
                machine_cls = cls
            else:
                self._patch(cls, attr, self.wrap(raw, name))
        self._install_machine_init(machine_cls)
        self._install_sim()

    def _install_machine_init(self, machine_cls):
        build = self.wrap(vars(machine_cls)["__init__"], "core.build")
        tracer = self

        def init(machine, *args, **kwargs):
            build(machine, *args, **kwargs)
            # The C engine is bound per CPU after construction; give
            # each CPU a proxy whose charge records an enginecore span.
            for cpu in machine.cpus:
                core = getattr(cpu, "_core", None)
                if core is not None and not isinstance(core, _CoreProxy):
                    cpu._core = _CoreProxy(
                        core, tracer.wrap(core.charge, "enginecore.charge"))

        self._patch(machine_cls, "__init__",
                    functools.update_wrapper(init, build))

    def _install_sim(self):
        """Span ``EventQueue.schedule`` and ``pop_epoch``, count
        cancellations and epoch sizes, and wrap every scheduled
        callback in a span named after the layer that defined it."""
        events, _ = _resolve("repro.sim.events")
        queue_cls, event_cls = events.EventQueue, events.Event
        schedule = self.wrap(vars(queue_cls)["schedule"], "sim.schedule")
        pop_epoch = self.wrap(vars(queue_cls)["pop_epoch"], "sim.pop_epoch")
        cancel = vars(event_cls)["cancel"]
        tracer = self

        def traced_schedule(queue, time, callback, label=""):
            wrapped = tracer.wrap(callback, _callback_name(callback),
                                  copy_metadata=False)
            return schedule(queue, time, wrapped, label)

        def traced_pop_epoch(queue, until=None):
            batch = pop_epoch(queue, until)
            if batch is not None:
                tracer.epochs += 1
                tracer.epoch_events += len(batch)
            if len(tracer._log) > FLUSH_AT:
                tracer.flush()
            return batch

        def traced_cancel(event):
            if not event.cancelled:
                tracer.cancels += 1
            return cancel(event)

        self._patch(queue_cls, "schedule",
                    functools.update_wrapper(traced_schedule, schedule))
        self._patch(queue_cls, "pop_epoch",
                    functools.update_wrapper(traced_pop_epoch, pop_epoch))
        self._patch(event_cls, "cancel",
                    functools.update_wrapper(traced_cancel, cancel))

    def uninstall(self):
        """Restore every patched attribute to its original object."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reporting ------------------------------------------------------

    def report(self):
        """Per-layer self seconds, per-name inclusive seconds and call
        counts, computed from the recorded span tree.  A generator
        entry point's count is generators created, not resumes."""
        self.flush()
        n = len(self.name_list)
        self_t, incl_t, count = self_times(
            itertools.chain.from_iterable(self._chunks), n)
        layers = {}
        for nid, name in enumerate(self.name_list):
            layer = layer_of(name)
            layers[layer] = layers.get(layer, 0) + self_t[nid]
            count[nid] = self._created.get(nid, count[nid])
        return {
            "layer_self_s": {k: v / 1e9 for k, v in layers.items()},
            "incl_s": {name: incl_t[i] / 1e9
                       for i, name in enumerate(self.name_list)},
            "calls": dict(zip(self.name_list, count)),
            "spans": sum(len(chunk) for chunk in self._chunks) // 4,
            "cancels": self.cancels,
            "epochs": self.epochs,
            "epoch_events": self.epoch_events,
        }

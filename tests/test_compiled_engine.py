"""Machine-level equivalence of the pure and compiled charging engines.

The differential suite (test_engine_equivalence) checks the C core's
state against the reference machine after every charge, DMA and
clear.  This suite closes the loop end to end: whole experiments
run under ``engine="pure"`` and ``engine="compiled"`` must produce
byte-identical result payloads -- throughput, per-bin profiles,
coherence counters, everything the paper's tables are built from.

Skips cleanly when the compiled engine cannot be built (no toolchain):
the pure engine is the reference and needs no C compiler.
"""

import json

import pytest

from repro.core.experiment import ExperimentConfig, run_experiment
from repro.cpu.engine import load_core, resolve_engine
from repro.kernel.machine import Machine

compiled_available = load_core() is not None
needs_compiled = pytest.mark.skipif(
    not compiled_available, reason="compiled engine unavailable (no cc?)")

MS = 2_000_000


def run_payload(config, engine, monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", engine)
    result = run_experiment(config, cache=None)
    assert result.charge_engine == engine
    return json.dumps(result._data, sort_keys=True, default=str)


class TestEngineSelection:
    def test_default_is_pure(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        name, core = resolve_engine()
        assert name == "pure" and core is None

    def test_env_selects(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "pure")
        assert resolve_engine()[0] == "pure"

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "auto")
        name, core = resolve_engine("pure")
        assert name == "pure" and core is None

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("jit")

    def test_machine_records_engine(self):
        assert Machine(n_cpus=2, engine="pure").charge_engine == "pure"

    @needs_compiled
    def test_compiled_resolves(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        name, core = resolve_engine("compiled")
        assert name == "compiled" and core is not None
        assert resolve_engine("auto") == (name, core)


@needs_compiled
class TestExperimentEquivalence:
    """Whole-experiment payloads must match byte for byte."""

    def _compare(self, monkeypatch, **kwargs):
        cfg = ExperimentConfig(warmup_ms=2, measure_ms=4, **kwargs)
        pure = run_payload(cfg, "pure", monkeypatch)
        compiled = run_payload(cfg, "compiled", monkeypatch)
        assert pure == compiled

    def test_rx_no_affinity(self, monkeypatch):
        self._compare(monkeypatch, direction="rx", message_size=4096,
                      affinity="none", seed=3)

    def test_tx_full_affinity(self, monkeypatch):
        self._compare(monkeypatch, direction="tx", message_size=8192,
                      affinity="full", seed=5)

    def test_multiqueue_rss(self, monkeypatch):
        self._compare(monkeypatch, direction="rx", message_size=4096,
                      affinity="rss", n_cpus=4, n_queues=4, seed=7)

    def test_web_workload(self, monkeypatch):
        self._compare(monkeypatch, workload="web", direction="rx",
                      message_size=4096, affinity="none", seed=2)

    def test_faulted_run(self, monkeypatch):
        self._compare(monkeypatch, direction="rx", message_size=4096,
                      affinity="none", seed=4, faults="loss=0.01")


@needs_compiled
class TestHyperthreadingEquivalence:
    """SMT machines share per-core array state between siblings; the
    full stack must still match the reference engine exactly."""

    def _run(self, engine):
        from repro.apps.ttcp import TtcpWorkload
        from repro.core.modes import apply_affinity
        from repro.net.params import NetParams
        from repro.net.stack import NetworkStack

        machine = Machine(n_cpus=2, hyperthreading=True, seed=11,
                          engine=engine)
        stack = NetworkStack(machine, NetParams(), n_connections=4,
                             mode="rx", message_size=4096)
        workload = TtcpWorkload(machine, stack, 4096)
        tasks = workload.spawn_all()
        apply_affinity(machine, stack, tasks, "full")
        machine.start()
        stack.start_peers()
        machine.run_for(2 * MS)
        machine.reset_measurement()
        machine.run_for(4 * MS)
        return {
            "totals": [list(c.totals) for c in machine.cpus],
            "busy": [c.busy_cycles for c in machine.cpus],
            "invalidations": machine.memsys.invalidations,
            "c2c": machine.memsys.c2c_transfers,
            "per_bin": {k: list(v)
                        for k, v in machine.accounting.per_bin().items()},
        }

    def test_ht_machine_matches(self):
        assert self._run("pure") == self._run("compiled")


@needs_compiled
class TestCompiledMachineSurface:
    """The machine layer's between-charge surface on CompiledCpu."""

    def test_reset_measurement(self):
        machine = Machine(n_cpus=2, engine="compiled")
        fn = machine.functions.register("t", "engine", branch_frac=0.1)
        machine.cpus[0].charge(fn, 200, reads=[(4096, 256)])
        machine.reset_measurement()
        assert all(v == 0 for v in machine.cpus[0].totals)
        assert machine.accounting.rows() == []
        assert machine.memsys.invalidations == 0
        more = machine.cpus[0].charge(fn, 200, reads=[(4096, 256)])
        assert more > 0 and machine.accounting.rows()

    def test_machine_clear_records(self):
        machine = Machine(n_cpus=2, engine="compiled")
        fn = machine.functions.register("t", "engine")
        cycles = machine.cpus[0].machine_clear(fn, 30)
        assert cycles == machine.costs.machine_clear
        ((key, vec),) = machine.accounting.rows()
        assert key == (0, fn)
        assert vec[-1] == 30  # machine clears ride the last event slot

"""Fault injection: loss recovery on the transmit path.

The paper's testbed is loss-free, but TCP's "corner cases abound"
(section 2) -- the stack implements duplicate-ACK fast retransmit and
RTO-based recovery, exercised here by a fault plan that drops every Nth
transmitted data frame on the wire.
"""

import pytest

from repro.apps.ttcp import TtcpWorkload
from repro.faults.plan import FaultInjector, FaultPlan
from repro.kernel.machine import Machine
from repro.net.params import NetParams
from repro.net.stack import NetworkStack

MS = 2_000_000


def build_lossy(drop_every_n, n=2, size=65536, seed=21):
    machine = Machine(n_cpus=2, seed=seed)
    # Short RTO so timeout recovery fits in a test-sized window.
    stack = NetworkStack(machine, NetParams(rto_ms=10), n_connections=n,
                         mode="tx", message_size=size)
    workload = TtcpWorkload(machine, stack, size)
    workload.spawn_all()
    FaultInjector(machine, FaultPlan(drop_every_n=drop_every_n)).attach(stack)
    machine.start()
    return machine, stack, workload


class TestLossRecovery:
    @pytest.fixture(scope="class")
    def lossy(self):
        machine, stack, workload = build_lossy(50)
        machine.run_for(40 * MS)
        return machine, stack, workload

    def test_frames_were_dropped(self, lossy):
        _, stack, _ = lossy
        assert sum(n.tx_drops for n in stack.nics) > 0

    def test_progress_despite_loss(self, lossy):
        _, stack, workload = lossy
        assert workload.total_bytes() > 0
        for conn in stack.connections:
            assert conn.sock.snd_una > 0

    def test_recovery_mechanisms_fired(self, lossy):
        _, stack, _ = lossy
        recoveries = sum(
            c.fast_retransmits + c.rto_fires for c in stack.connections
        )
        assert recoveries > 0

    def test_retransmissions_cover_drops(self, lossy):
        _, stack, _ = lossy
        drops = sum(n.tx_drops for n in stack.nics)
        retrans = sum(c.retransmitted_segments for c in stack.connections)
        assert retrans >= drops * 0.5  # each drop eventually resent

    def test_peer_stream_is_gapless(self, lossy):
        """The sink's cumulative rcv_nxt implies every byte below it
        arrived: loss recovery preserved stream integrity."""
        _, stack, _ = lossy
        for conn in stack.connections:
            assert conn.peer.rcv_nxt <= conn.sock.snd_nxt
            # And the sender's window view cannot run past the sink.
            assert conn.sock.snd_una <= conn.peer.rcv_nxt

    def test_dup_acks_generated(self, lossy):
        _, stack, _ = lossy
        assert sum(c.peer.dup_acks_sent for c in stack.connections) > 0


class TestLossRateSensitivity:
    def test_more_loss_less_throughput(self):
        results = {}
        for drop in (0, 20):
            machine, stack, workload = build_lossy(drop, n=2, seed=22)
            machine.run_for(25 * MS)
            results[drop] = workload.total_bytes()
        assert results[20] < results[0]

    def test_lossless_run_never_retransmits(self):
        machine, stack, workload = build_lossy(0, n=2)
        machine.run_for(15 * MS)
        assert sum(c.retransmitted_segments for c in stack.connections) == 0
        assert sum(c.fast_retransmits for c in stack.connections) == 0

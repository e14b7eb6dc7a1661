"""Energy-accrual conservation under the deferred (vectorized) lane.

The deferred accrual in :mod:`repro.sim.radio_array` trades per-frame
counter bumps for epoch arithmetic settled at sync points.  The failure
modes of that trade are all conservation bugs: a frame credited to no
one (lost), a frame credited twice (slot settled twice without
re-baselining), or a frame credited under the wrong membership (state
change applied before settling).  These tests pin conservation three
ways:

* full-DES runs at 25 and 1000 clients, where every attached client's
  ``received + ignored`` must equal the array's global frame epoch;
* a 5000-slot direct drive of :class:`RadioArray` against an eager
  per-frame reference model (5000 > MAX_AID, so only the array itself
  can be exercised at this scale);
* crash / ``force_suspend`` mid-window, where release must settle a
  slot exactly once.
"""

import random

import pytest

from repro.experiments.des_run import DesRunConfig, run_trace_des
from repro.faults import FaultPlan
from repro.sim.radio_array import RadioArray
from repro.station.client import ClientCounters
from repro.traces import generate_trace
from tests.sim.oracles import oracle_lanes


class _StubRadio:
    """Duck-typed stand-in for a Client bound to the array."""

    _next_mac = 0

    def __init__(self, aid, ports, listening=False):
        _StubRadio._next_mac += 1
        self.mac = ("stub", _StubRadio._next_mac)
        self.aid = aid
        self.ports = frozenset(ports)
        self.listening = listening
        self.counters = ClientCounters()

    def radio_broadcast_state(self):
        return (self.listening, self.aid, self.ports)


class _StubFrame:
    """Broadcast frame double exposing only the memoized port accessor."""

    def __init__(self, port):
        self._port = port

    def udp_dst_port(self):
        return self._port


def _expected_accrual(stub, port):
    """Eager per-frame reference semantics for one dozing stub."""
    if stub.listening:
        return (0, 0)
    missed = int(
        stub.aid is not None and port is not None and port in stub.ports
    )
    return (1, missed)


class TestFullDesConservation:
    """received + ignored == frames fanned out, for every client."""

    def _assert_conserved(self, scenario, clients, duration, seed=5):
        trace = generate_trace(scenario, seed=seed)
        result = run_trace_des(
            trace,
            DesRunConfig(
                client_count=clients,
                duration_s=duration,
                check_invariants=True,
            ),
        )
        result.close()
        radios = result.medium.radio_array
        assert radios is not None
        assert len(radios) == clients
        total = radios.frames_total
        assert total > 0, "scenario delivered no broadcast traffic"
        for client in result.clients:
            c = client.counters
            assert c.broadcast_frames_received + c.broadcast_frames_ignored == total
            assert (
                c.useful_frames_received + c.useless_frames_received
                == c.broadcast_frames_received
            )
            # No faults injected: HIDE must not cause misses on its own.
            assert c.useful_frames_missed == 0

    def test_conserved_at_25_clients(self):
        self._assert_conserved("Classroom", 25, 10.0)

    @pytest.mark.slow
    def test_conserved_at_1000_clients(self):
        self._assert_conserved("DenseFleet", 1000, 8.0, seed=3)


class TestRadioArrayConservation5k:
    """5000 slots (beyond MAX_AID=2007) against an eager reference model."""

    PORTS = (137, 138, 1900, 5353, 17500)

    def test_randomized_drive_matches_eager_model(self):
        rng = random.Random(20260808)
        radios = RadioArray()
        stubs = []
        expected = {}  # stub -> [ignored, missed]
        for i in range(5000):
            stub = _StubRadio(
                aid=(i + 1) if rng.random() < 0.9 else None,
                ports=rng.sample(self.PORTS, rng.randint(0, 3)),
                listening=rng.random() < 0.1,
            )
            radios.allocate(stub)
            stubs.append(stub)
            expected[stub] = [0, 0]

        detached = []
        for _ in range(400):
            port = rng.choice(self.PORTS + (None,))
            radios.account_broadcast(_StubFrame(port))
            for stub in stubs:
                ignored, missed = _expected_accrual(stub, port)
                expected[stub][0] += ignored
                expected[stub][1] += missed
            action = rng.random()
            if action < 0.15:  # mutate a random slot's state
                stub = rng.choice(stubs)
                kind = rng.randint(0, 2)
                if kind == 0:
                    stub.listening = not stub.listening
                elif kind == 1:
                    stub.ports = frozenset(
                        rng.sample(self.PORTS, rng.randint(0, 3))
                    )
                else:
                    stub.aid = None if stub.aid is not None else 1 + rng.randint(0, 5000)
                radios.refresh(radios.slot_of[stub])
            elif action < 0.20:  # crash mid-window: settle exactly once
                idx = rng.randrange(len(stubs))
                stub = stubs.pop(idx)
                radios.release(stub)
                detached.append(stub)
            elif action < 0.23 and detached:  # rejoin on a recycled slot
                stub = detached.pop()
                radios.allocate(stub)
                stubs.append(stub)
            elif action < 0.30:  # probe boundary
                radios.flush()

        radios.flush()
        assert radios.frames_total == 400
        for stub in stubs + detached:
            assert stub.counters.broadcast_frames_ignored == expected[stub][0], stub.mac
            assert stub.counters.useful_frames_missed == expected[stub][1], stub.mac

        # Settling again without new frames must change nothing.
        before = [
            (s.counters.broadcast_frames_ignored, s.counters.useful_frames_missed)
            for s in stubs
        ]
        radios.flush()
        for stub in list(stubs):
            radios.release(stub)
        after = [
            (s.counters.broadcast_frames_ignored, s.counters.useful_frames_missed)
            for s in stubs
        ]
        assert before == after


class TestMidWindowRelease:
    """A slot released mid-window settles exactly once — never twice."""

    def test_release_settles_once(self):
        radios = RadioArray()
        stub = _StubRadio(aid=1, ports=(5353,))
        radios.allocate(stub)
        for port in (5353, 1900, 5353):
            radios.account_broadcast(_StubFrame(port))
        radios.release(stub)
        assert stub.counters.broadcast_frames_ignored == 3
        assert stub.counters.useful_frames_missed == 2
        # Flush after release: the freed slot must not re-settle.
        radios.flush()
        assert stub.counters.broadcast_frames_ignored == 3
        assert stub.counters.useful_frames_missed == 2

    def test_rejoin_rebaselines_against_current_epoch(self):
        radios = RadioArray()
        stub = _StubRadio(aid=1, ports=(5353,))
        radios.allocate(stub)
        radios.account_broadcast(_StubFrame(5353))
        radios.release(stub)
        # Frames aired while detached are nobody's to accrue.
        radios.account_broadcast(_StubFrame(5353))
        radios.account_broadcast(_StubFrame(5353))
        radios.allocate(stub)
        radios.account_broadcast(_StubFrame(5353))
        radios.flush()
        assert stub.counters.broadcast_frames_ignored == 2
        assert stub.counters.useful_frames_missed == 2

    def test_crash_mid_burst_full_des_matches_reference(self):
        """Fault-plan crash (detach + ``force_suspend``) conserves.

        The crash path releases the slot (settling it) and then clears
        the client's listen flags; a second settle through the clearing
        path would double-count the window.  Reference equality at the
        per-counter level catches exactly that.
        """
        plan = FaultPlan.parse("loss=0.05,seed=13,crash=2@2:4,crash=5@3:6")
        runs = {}
        for backend in ("reference", "vectorized"):
            trace = generate_trace("Classroom", seed=9)
            with oracle_lanes(reference=backend == "reference"):
                result = run_trace_des(
                    trace,
                    DesRunConfig(
                        client_count=8,
                        duration_s=8.0,
                        fault_plan=plan,
                        check_invariants=True,
                    ),
                )
            result.close()
            runs[backend] = result
        crashed = [c for c in runs["vectorized"].clients if c.counters.crashes]
        assert crashed, "fault plan produced no crash"
        for ref_client, vec_client in zip(
            runs["reference"].clients, runs["vectorized"].clients
        ):
            assert ref_client.counters == vec_client.counters
        assert (
            runs["reference"].deterministic_fingerprint()
            == runs["vectorized"].deterministic_fingerprint()
        )

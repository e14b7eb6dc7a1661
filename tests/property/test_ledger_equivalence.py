"""Bit-identity and fault-robustness of the frame-lifecycle ledger.

The ledger rides the same observer seams as the rest of the
observability stack, so it inherits the same two contracts: it must
report *bit-identical* documents whether the production delivery lane
and event queue or their test oracles ran the simulation (the quantiles are pure functions of bucket
counts, so `json.dumps` equality is achievable, not just approximate),
and attaching it must not perturb the deterministic fingerprint at all.
Fault plans then probe the accounting itself: beacon loss starves
clients of BTIMs but the AP still airs every buffered frame at DTIM, so
the ledger must show zero frames lost; bounded clock jitter only ever
*adds* to a delivery time, so delay tails may lengthen but never
shrink.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.des_run import DesRunConfig, run_trace_des
from repro.faults import FaultPlan
from repro.sim.medium import Medium
from repro.traces import generate_trace
from tests.sim.oracles import ReferenceMedium, oracle_lanes

_PLAN = FaultPlan.parse("loss=0.08,beacon=0.01,seed=11,crash=0@2:5")


def _run(
    lane="vectorized",
    scenario="Starbucks",
    seed=7,
    heap=False,
    fault_plan=None,
    ledger=True,
):
    trace = generate_trace(scenario, seed=seed)
    config = DesRunConfig(
        client_count=3,
        duration_s=6.0,
        fault_plan=fault_plan,
        check_invariants=True,
        ledger=ledger,
    )
    with oracle_lanes(heap=heap, reference=lane == "reference"):
        result = run_trace_des(trace, config)
    result.close()
    return result


def _document_bytes(result):
    return json.dumps(result.ledger_document(), sort_keys=True)


class TestLedgerLaneEquivalence:
    """Hypothesis cross product over scenario x seed x event queue."""

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        scenario=st.sampled_from(["Starbucks", "Classroom", "WRL"]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        heap=st.booleans(),
    )
    def test_documents_bit_identical_across_lanes(self, scenario, seed, heap):
        ref = _run("reference", scenario, seed, heap)
        vec = _run("vectorized", scenario, seed, heap)
        assert type(ref.medium) is ReferenceMedium
        assert type(vec.medium) is Medium
        assert _document_bytes(ref) == _document_bytes(vec)
        assert ref.deterministic_fingerprint() == vec.deterministic_fingerprint()

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        backend=st.sampled_from(["reference", "vectorized"]),
    )
    def test_ledger_never_perturbs_the_fingerprint(self, seed, backend):
        with_ledger = _run(backend, seed=seed, ledger=True)
        without = _run(backend, seed=seed, ledger=False)
        assert (
            with_ledger.deterministic_fingerprint()
            == without.deterministic_fingerprint()
        )
        assert without.ledger is None

    def test_documents_identical_under_a_mixed_fault_plan(self):
        """Loss + beacon loss + crash/rejoin perturb both lanes alike."""
        ref = _run("reference", fault_plan=_PLAN)
        vec = _run("vectorized", fault_plan=_PLAN)
        assert _document_bytes(ref) == _document_bytes(vec)


class TestLedgerUnderFaults:
    """Fault plans stress the accounting, not just the equivalence."""

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        beacon_loss=st.sampled_from([0.1, 0.3, 0.6]),
        fault_seed=st.integers(min_value=0, max_value=999),
    )
    def test_beacon_loss_never_loses_frames(
        self, seed, beacon_loss, fault_seed
    ):
        """The AP airs every buffered frame at DTIM whether or not any
        client heard the beacon: beacon loss shifts client wake energy,
        but the frame ledger must balance with zero drops."""
        plan = FaultPlan.parse(f"beacon={beacon_loss},seed={fault_seed}")
        result = _run(scenario="Classroom", seed=seed, fault_plan=plan)
        ledger = result.ledger
        assert ledger.frames_dropped_on_air == 0
        assert ledger.frames_buffer_dropped == 0
        assert (
            ledger.frames_enqueued + ledger.frames_immediate
            == ledger.frames_delivered + ledger.frames_outstanding
        )

    def test_beacon_loss_leaves_delivery_delays_untouched(self):
        """Delivery timing is AP-side (enqueue -> DTIM drain -> air), so
        a client missing the beacon cannot change it."""
        plan = FaultPlan.parse("beacon=0.3,seed=5")
        base = _run(scenario="Classroom").ledger
        lossy = _run(scenario="Classroom", fault_plan=plan).ledger
        assert (
            lossy.merged_delivery_delay().sum
            == base.merged_delivery_delay().sum
        )
        assert lossy.frames_delivered == base.frames_delivered

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        fault_seed=st.integers(min_value=0, max_value=999),
    )
    def test_jitter_only_ever_lengthens_delay_tails(self, seed, fault_seed):
        """delivery_jitter_s() is uniform over [0, jitter]: it can only
        push a delivery later, so the sum and max of the delay
        distribution are monotone in the plan — and no frame is lost."""
        plan = FaultPlan.parse(f"jitter=1e-4,seed={fault_seed}")
        base = _run(scenario="Classroom", seed=seed).ledger
        jittered = _run(
            None, scenario="Classroom", seed=seed, fault_plan=plan
        ).ledger
        base_delay = base.merged_delivery_delay()
        jit_delay = jittered.merged_delivery_delay()
        assert jit_delay.count == base_delay.count
        assert jit_delay.sum >= base_delay.sum
        if base_delay.count:
            assert jit_delay.max >= base_delay.max
        assert jittered.frames_dropped_on_air == 0

    def test_jitter_strictly_lengthens_for_a_busy_seed(self):
        plan = FaultPlan.parse("jitter=1e-4,seed=5")
        base = _run(scenario="Classroom", seed=7).ledger
        jittered = _run(
            None, scenario="Classroom", seed=7, fault_plan=plan
        ).ledger
        assert (
            jittered.merged_delivery_delay().sum
            > base.merged_delivery_delay().sum
        )

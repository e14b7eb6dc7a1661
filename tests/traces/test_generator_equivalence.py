"""Bit-identity of the inlined trace generator against the stdlib oracle.

:class:`repro.traces.generators.TraceGenerator` inlines the
``expovariate``/``choices``/``triangular`` formulas and precomputes the
cumulative weights and triangular constants; ``oracle_generator.py``
keeps the stdlib-call generator it replaced. Every downstream
fingerprint starts from these records, so the two must agree exactly
(``==`` on the frozen records compares every float bit for bit) on
every scenario, seed and beacon schedule the suite can afford.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.generators import TraceGenerator
from repro.traces.scenarios import ALL_SCENARIOS, ScenarioSpec

from tests.traces.oracle_generator import OracleTraceGenerator

#: Scenarios whose full-length trace tops ~10k frames run over their
#: first 300 s, which keeps the suite at a few seconds.
_HEAVY = {"Classroom", "CS_Dept", "WML", "DenseFleet"}

_SPECS = [
    dataclasses.replace(spec, duration_s=300.0) if spec.name in _HEAVY else spec
    for spec in ALL_SCENARIOS
]

#: (beacon_interval_s, dtim_period); None keeps the generator default.
_SCHEDULES = [(None, 1), (None, 3), (0.2048, 1)]


def _pair(spec, seed, beacon_interval_s, dtim_period):
    kwargs = {"dtim_period": dtim_period}
    if beacon_interval_s is not None:
        kwargs["beacon_interval_s"] = beacon_interval_s
    fast = TraceGenerator(spec, **kwargs).generate(seed=seed)
    oracle = OracleTraceGenerator(spec, **kwargs).generate(seed=seed)
    return fast, oracle


@pytest.mark.parametrize("spec", _SPECS, ids=[s.name for s in _SPECS])
@pytest.mark.parametrize("seed", [None, 7, 424242])
@pytest.mark.parametrize(
    "schedule", _SCHEDULES, ids=["dtim1", "dtim3", "beacon204.8ms"]
)
def test_records_match_oracle(spec, seed, schedule):
    fast, oracle = _pair(spec, seed, *schedule)
    assert len(fast.records) > 0
    assert fast.records == oracle.records
    assert (fast.name, fast.duration_s) == (oracle.name, oracle.duration_s)


@st.composite
def scenario_specs(draw):
    return ScenarioSpec(
        name="prop",
        duration_s=draw(st.floats(min_value=5.0, max_value=90.0)),
        # Zero quiet rate exercises the rate <= 0 dwell skip.
        quiet_rate_fps=draw(st.sampled_from([0.0, 0.3, 2.0])),
        burst_rate_fps=draw(st.floats(min_value=1.0, max_value=300.0)),
        quiet_dwell_s=draw(st.floats(min_value=0.05, max_value=20.0)),
        burst_dwell_s=draw(st.floats(min_value=0.05, max_value=5.0)),
        seed=draw(st.integers(min_value=0, max_value=2**32)),
        port_weight_overrides=tuple(
            draw(
                st.lists(
                    st.tuples(
                        st.sampled_from([137, 138, 1900, 5353, 57621]),
                        st.floats(min_value=0.1, max_value=4.0),
                    ),
                    max_size=3,
                )
            )
        ),
    )


@given(
    scenario_specs(),
    st.sampled_from([0.0512, 0.1024, 0.3]),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_random_specs_match_oracle(spec, beacon_interval_s, dtim_period):
    fast, oracle = _pair(spec, None, beacon_interval_s, dtim_period)
    assert fast.records == oracle.records

"""Pin the simulator gauge series names on the calendar queue and the
heap oracle.

``repro_sim_queue_depth`` is the canonical depth series;
``repro_sim_heap_depth`` must survive as an alias with the same value,
because committed ``.prom`` baselines and dashboards reference it.
Both must report the depth of whichever queue is plugged in.
"""

import pytest

from repro.obs.collectors import collect_simulator
from repro.obs.exporters import render_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Simulator
from repro.sim.eventq import CalendarEventQueue
from tests.sim.oracles import HeapEventQueue


@pytest.mark.parametrize(
    "backend",
    [
        pytest.param(HeapEventQueue, id="heap"),
        pytest.param(CalendarEventQueue, id="calendar"),
    ],
)
class TestQueueDepthGauge:
    def test_depth_gauges_agree_and_count_tombstones(self, backend):
        sim = Simulator(queue=backend())
        sim.schedule(0.5, lambda: None)
        sim.schedule(500.0, lambda: None).cancel()  # far-future tombstone
        sim.schedule(9000.0, lambda: None)  # overflow territory
        registry = collect_simulator(sim, MetricsRegistry())
        queue_depth = registry.get("repro_sim_queue_depth", {})
        heap_depth = registry.get("repro_sim_heap_depth", {})
        assert queue_depth is not None and heap_depth is not None
        assert queue_depth.value == heap_depth.value == 3
        assert sim.queue_depth == 3
        assert sim.pending_events == 2  # the tombstone is not live

    def test_series_names_render_in_prometheus_text(self, backend):
        sim = Simulator(queue=backend())
        registry = collect_simulator(sim, MetricsRegistry())
        text = render_prometheus(registry)
        assert "repro_sim_queue_depth 0" in text
        assert "repro_sim_heap_depth 0" in text

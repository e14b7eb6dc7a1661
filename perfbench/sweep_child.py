"""One fresh-interpreter ``run_sweep``, timed at its public boundaries.

Usage: ``python3 perfbench/sweep_child.py '<json spec>'``. Imports
repro, builds the ``SweepSpec`` (scenarios x trace seeds, shared DES
config), calls ``run_sweep`` with the given worker count, and checks
the merged report. Marks are CLOCK_MONOTONIC, like ``des_child.py``;
``dispatch`` is the instant the first cell is handed to ``run_sweep``.

Prints one JSON document on stdout.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    spec = json.loads(sys.argv[1])
    import repro  # noqa: F401
    from repro.experiments.des_run import DesRunConfig
    from repro.experiments.sweep import SweepSpec, run_sweep

    imported = time.perf_counter()
    sweep = SweepSpec(
        scenarios=tuple(spec["scenarios"]),
        seeds=tuple(spec["trace_seeds"]),
        config=DesRunConfig(
            client_count=spec["clients"], duration_s=spec["duration_s"]
        ),
    )
    dispatch = time.perf_counter()
    document = run_sweep(sweep, workers=spec["workers"])
    swept = time.perf_counter()
    telemetry = document["telemetry"]
    result = {
        "totals": document["totals"],
        "failures": document["failures"],
        "merged_fingerprint": document["merged_fingerprint"],
        "workers": document["workers"],
        "cell_wall_s": sum(float(c["wall_s"]) for c in telemetry["cells"]),
    }
    checked = time.perf_counter()
    result["marks"] = {
        "start": START,
        "import": imported,
        "dispatch": dispatch,
        "sweep": swept,
        "end": checked,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

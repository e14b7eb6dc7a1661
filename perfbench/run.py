"""Benchmark of record for the HIDE reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload classroom --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/PROVENANCE.json`` for why each was chosen and
which layers it loads):

* ``classroom``   -- Classroom, 25 clients, HIDE, 600 simulated s.
* ``densefleet``  -- DenseFleet, 1000 clients, HIDE, 10 simulated s.
* ``sweep``       -- ``run_sweep`` over Classroom/Starbucks/WRL x 4 seeds.
* ``portservice`` -- ``repro serve`` under a fixed open-loop load.

The program is measured from outside. Every DES run is a fresh
interpreter (``des_child.py``, ``sweep_child.py``) that times the public
calls into each layer; this parent measures the process wall from spawn
to exit and reads peak RSS and CPU from ``wait4``. The port service runs
as ``repro serve`` in its own process and is loaded by one generator
process (``loadgen_child.py``).

``--trace 0`` runs are untraced and print the end-to-end metrics;
``--trace 1`` adds the traced runs (exact-mode attribution profiler, or
the in-process service replay) and prints the per-layer metrics. Every
metric, including those outside ``BENCHMARK.json``, is printed by name
and unit above the last line, and the full record (inputs, host facts,
checks) is written under ``perfbench/.results/``. The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. A failed output check makes the exit code nonzero.
"""

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = BENCH / ".work"
RESULTS = BENCH / ".results"

#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0

#: The generator fell behind schedule if its p99 lateness exceeds this
#: or it achieved less than ``MIN_ACHIEVED`` of the offered rate.
MAX_LAG_P99_MS = 5.0
MIN_ACHIEVED = 0.99
#: Up to this many late cycles in one run are discarded and run again;
#: one more marks the run invalid. Other tenants of a shared host can
#: hold the generator back for half a minute, three cycles in a row.
MAX_DISCARDED_CYCLES = 6


class ChildFailed(Exception):
    """A child process exited nonzero, timed out, or printed no result."""


def program() -> None:
    """Make the program's pure helpers importable in this process."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Child:
    """One child process, spawned now, with wall/RSS/CPU taken at exit."""

    def __init__(self, script: str, *args: str, cpus=None) -> None:
        self.spawn = time.perf_counter()
        self.stderr = open(WORK / f"{script}.{os.getpid()}.err", "w+b")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / script), *args],
            stdout=subprocess.PIPE,
            stderr=self.stderr,
            env=child_env(),
            cwd=str(ROOT),
        )
        if cpus:
            os.sched_setaffinity(self.proc.pid, cpus)
        self.timer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self.timer.start()

    def finish(self, parse: bool = True):
        """Wait for exit; return the last stdout line as JSON, or all lines."""
        try:
            out = self.proc.stdout.read()
            if self.proc.returncode is None:
                _, status, usage = os.wait4(self.proc.pid, 0)
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.cpu_s = usage.ru_utime + usage.ru_stime
                self.rss_mb = usage.ru_maxrss / 1024.0
            self.exit = time.perf_counter()
        finally:
            self.timer.cancel()
            self.proc.stdout.close()
            self.stderr.seek(0)
            err = self.stderr.read().decode(errors="replace")
            self.stderr.close()
            os.unlink(self.stderr.name)
        self.wall_s = self.exit - self.spawn
        lines = out.decode(errors="replace").strip().splitlines()
        if self.proc.returncode != 0 or not lines:
            raise ChildFailed(
                f"{self.proc.args[1]} exited {self.proc.returncode}: {err[-2000:]}"
            )
        return json.loads(lines[-1]) if parse else lines

    def kill(self) -> None:
        """Stop the child if it still runs, and reap it."""
        if self.stderr.closed:
            return
        if self.proc.returncode is None:
            try:
                self.proc.kill()
            except ProcessLookupError:
                pass
        try:
            self.finish(parse=False)
        except ChildFailed:
            pass


def run_child(script: str, spec: dict):
    child = Child(script, json.dumps(spec))
    try:
        return child, child.finish()
    except BaseException:
        child.kill()
        raise


def repeat(seconds: float, minimum: int, step) -> list:
    """Call ``step(i)`` until ``seconds`` are spent (at least ``minimum``).

    A new step starts only if the slowest step so far would still end
    inside the budget, so a run overshoots ``seconds`` by little.
    """
    deadline = time.perf_counter() + seconds
    results, slowest = [], 0.0
    while True:
        began = time.perf_counter()
        results.append(step(len(results)))
        slowest = max(slowest, time.perf_counter() - began)
        if len(results) >= minimum and time.perf_counter() + slowest > deadline:
            return results


def median_low_index(values) -> int:
    """Index of the lower median, so a median repeat can be reported whole."""
    order = sorted(range(len(values)), key=values.__getitem__)
    return order[(len(values) - 1) // 2]


def derived_seeds(label: str, seed: int, count: int) -> list:
    rng = random.Random(f"{label}:{seed}")
    seeds = []
    while len(seeds) < count:
        candidate = rng.randrange(1, 2**31)
        if candidate not in seeds:
            seeds.append(candidate)
    return seeds


class Outcome:
    """What one benchmark run measured and checked."""

    def __init__(self) -> None:
        self.metrics = {}  # name -> (value, unit)
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.inputs = {}
        self.notes = []

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


# -- DES workloads ------------------------------------------------------

EXACT_COUNTS = (
    "events", "cancelled", "port_msgs_sent", "acks_received",
    "algorithm1_runs", "busy_s",
)

STAGES = (
    ("traces", "traces.build"),
    ("prepare", "des_run.prepare"),
    ("run", "engine.run"),
    ("meter", "energy.meter"),
    ("fingerprint", "obs.fingerprint"),
    ("check", "check"),
)


def summed_counts(document: dict) -> dict:
    total = {}
    for cell in document["cells"]:
        for key, value in cell["counts"].items():
            total[key] = total.get(key, 0) + value
    return total


def misordered(*marks) -> list:
    """Problems for each ``(label, time)`` mark earlier than the one before.

    The marks come from different processes; all read CLOCK_MONOTONIC,
    so a child's marks must fall in order inside its parent-side spawn
    and exit, or the stages taken from them do not describe the wall.
    """
    return [
        f"mark {label} ({at:.6f}) precedes {before_label} ({before:.6f})"
        for (before_label, before), (label, at) in zip(marks, marks[1:])
        if at < before
    ]


def check_des_repeats(outcome: Outcome, runs: list) -> None:
    """Same fingerprints, same exact counts, no invariant violations,
    and the child's marks in order inside the parent's spawn and exit."""
    reference = runs[0][1]["cells"]
    for index, (child, document) in enumerate(runs):
        marks = document["marks"]
        bad = misordered(
            ("spawn", child.spawn), ("start", marks["start"]),
            ("import", marks["import"]), ("first event", marks["first_event"]),
            ("end", marks["end"]), ("exit", child.exit),
        )
        for ref, cell in zip(reference, document["cells"]):
            if cell["fingerprint"] != ref["fingerprint"]:
                bad.append(f"fingerprint of {cell['scenario']}/{cell['seed']} changed")
            for key in EXACT_COUNTS:
                if cell["counts"][key] != ref["counts"][key]:
                    bad.append(f"{key} of {cell['scenario']}/{cell['seed']} changed")
            bad.extend(cell["violations"])
        if bad:
            outcome.failed += 1
            outcome.problems.append(f"repeat {index}: " + "; ".join(bad[:5]))
    outcome.attempted += len(runs)


def put_des_counts(outcome: Outcome, counts: dict) -> None:
    sent = counts["port_msgs_sent"]
    outcome.put("traces.frames", counts["frames"], "count")
    outcome.put("engine.events", counts["events"], "count")
    outcome.put("engine.cancelled", counts["cancelled"], "count")
    outcome.put("engine.pending_at_exit", counts["pending_at_exit"], "count")
    outcome.put("medium.frames_queued", counts["frames_queued"], "count")
    outcome.put("medium.utilization", counts["busy_s"] / counts["duration_s"], "ratio")
    outcome.put("medium.queue_wait_s", counts["queue_wait_s"], "sim_s")
    outcome.put("station.port_msgs_sent", sent, "count")
    outcome.put("station.port_retx", counts["port_retx"], "count")
    outcome.put("station.acks_received", counts["acks_received"], "count")
    outcome.put("station.ack_ratio", counts["acks_received"] / sent if sent else 0.0, "ratio")
    rx = counts["broadcast_rx"]
    outcome.put("station.useful_rx_ratio", counts["useful_rx"] / rx if rx else 0.0, "ratio")
    outcome.put("ap.algorithm1_runs", counts["algorithm1_runs"], "count")


def put_stages(outcome: Outcome, plain: list):
    """Stage times of the lower-median repeat.

    They sum to its wall by construction: the child's stages tile its
    life from the import mark to the end mark, and ``unaccounted_s`` is
    the rest of the parent's spawn-to-exit wall. ``check_des_repeats``
    checks that the marks they are taken from lie in order inside it.
    """
    child, document = plain[median_low_index([c.wall_s for c, _ in plain])]
    marks, stages = document["marks"], document["stages"]
    import_s = marks["import"] - marks["start"]
    unaccounted = (marks["start"] - child.spawn) + (child.exit - marks["end"])
    outcome.put("import_s", import_s, "s")
    outcome.put("unaccounted_s", unaccounted, "s")
    for key, name in STAGES:
        outcome.put(f"{name}_s", stages[key], "s")
        outcome.put(f"{name}_share", stages[key] / child.wall_s, "ratio")
    counts = summed_counts(document)
    outcome.put("engine.us_per_event", stages["run"] / counts["events"] * 1e6, "us")
    put_des_counts(outcome, counts)
    return child, document


def put_traced(outcome: Outcome, plain: list, traced: list) -> None:
    """Per-layer self times from the traced repeats, and their cost."""
    traced_run = statistics.median(doc["stages"]["run"] for _, doc in traced)
    # sim (engine-side helpers other than the medium) and other
    # (unresolved owners) are always reported, so unattributed time shows.
    keys = {key for _, doc in traced for key in doc["self_s"]}
    keys |= {"sim.callbacks_s", "other.callbacks_s"}
    for key in sorted(keys):
        value = statistics.median(doc["self_s"].get(key, 0.0) for _, doc in traced)
        outcome.put(key, value, "s")
        outcome.put(key[: -len("_s")] + "_share", value / traced_run, "ratio")
    outcome.put(
        "ap.algorithm1_s",
        statistics.median(doc["algorithm1_s"] for _, doc in plain),
        "s",
    )
    outcome.put(
        "trace_overhead_fraction",
        statistics.median(c.wall_s for c, _ in traced)
        / statistics.median(c.wall_s for c, _ in plain) - 1.0,
        "ratio",
    )


class DesWorkload:
    """A single DES replay in a fresh interpreter per repeat."""

    def __init__(self, scenario: str, clients: int, duration_s: float, seeded: bool):
        self.scenario = scenario
        self.clients = clients
        self.duration_s = duration_s
        self.seeded = seeded

    def cells(self, seed: int) -> list:
        # None replays the scenario's own trace seed (see PROVENANCE.json).
        trace_seed = derived_seeds(self.scenario, seed, 1)[0] if self.seeded else None
        return [
            {
                "scenario": self.scenario,
                "trace_seed": trace_seed,
                "clients": self.clients,
                "duration_s": self.duration_s,
            }
        ]

    def run(self, seed: int, seconds: float, trace: bool) -> Outcome:
        outcome = Outcome()
        cells = self.cells(seed)
        outcome.inputs = {"cells": cells}

        def step(index: int):
            traced = trace and index % 2 == 1
            return traced, run_child(
                "des_child.py", {"cells": cells, "traced": traced, "meter": True}
            )

        runs = repeat(seconds, 4 if trace else 3, step)
        plain = [run for traced, run in runs if not traced]
        traced = [run for is_traced, run in runs if is_traced]
        check_des_repeats(outcome, plain + traced)
        middle, middle_doc = put_stages(outcome, plain)
        outcome.put("wall_s", middle.wall_s, "s")
        outcome.put(
            "setup_s",
            statistics.median(doc["marks"]["first_event"] - c.spawn for c, doc in plain),
            "s",
        )
        outcome.put("peak_rss_mb", statistics.median(c.rss_mb for c, _ in plain), "MB")
        outcome.put(
            "cpu_us_per_op",
            statistics.median(
                c.cpu_s / summed_counts(doc)["events"] * 1e6 for c, doc in plain
            ),
            "us",
        )
        if trace:
            put_traced(outcome, plain, traced)
        outcome.notes.append(
            f"{len(plain)} untraced + {len(traced)} traced repeats; "
            f"fingerprint {middle_doc['cells'][0]['fingerprint'][:16]}; "
            f"walls {' '.join(f'{c.wall_s:.3f}' for c, _ in plain)}"
        )
        return outcome


# -- sweep --------------------------------------------------------------

SWEEP_SCENARIOS = ("Classroom", "Starbucks", "WRL")
SWEEP_SEEDS = 4
SWEEP_CLIENTS = 25
SWEEP_DURATION_S = 60.0
SWEEP_WORKERS = 2


def merged_fingerprint(cells: list) -> str:
    """The sweep's own ``merge_results`` over a serial replay's cells."""
    program()
    from repro.experiments.sweep import SweepSpec, merge_results

    entries = [cell["sweep_entry"] for cell in cells]
    spec = SweepSpec(
        scenarios=tuple(dict.fromkeys(e["scenario"] for e in entries)),
        seeds=tuple(dict.fromkeys(e["seed"] for e in entries)),
    )
    return merge_results(spec, entries, workers=1)["merged_fingerprint"]


class SweepWorkload:
    def run(self, seed: int, seconds: float, trace: bool) -> Outcome:
        outcome = Outcome()
        trace_seeds = derived_seeds("sweep", seed, SWEEP_SEEDS)
        spec = {
            "scenarios": list(SWEEP_SCENARIOS),
            "trace_seeds": trace_seeds,
            "clients": SWEEP_CLIENTS,
            "duration_s": SWEEP_DURATION_S,
            "workers": SWEEP_WORKERS,
        }
        outcome.inputs = spec
        cells = [
            {"scenario": s, "trace_seed": t, "clients": SWEEP_CLIENTS,
             "duration_s": SWEEP_DURATION_S}
            for s in SWEEP_SCENARIOS for t in trace_seeds
        ]

        def step(index: int):
            kind = ("parallel", "serial", "traced")[index % 3] if trace else "parallel"
            if kind == "parallel":
                return kind, run_child("sweep_child.py", spec)
            return kind, run_child(
                "des_child.py",
                {"cells": cells, "traced": kind == "traced", "meter": False},
            )

        runs = repeat(seconds, 3, step)
        parallel = [run for kind, run in runs if kind == "parallel"]
        serial = [run for kind, run in runs if kind == "serial"]
        traced = [run for kind, run in runs if kind == "traced"]
        reference = parallel[0][1]
        for index, (child, document) in enumerate(parallel):
            marks = document["marks"]
            bad = misordered(
                ("spawn", child.spawn), ("start", marks["start"]),
                ("import", marks["import"]), ("dispatch", marks["dispatch"]),
                ("sweep", marks["sweep"]), ("end", marks["end"]),
                ("exit", child.exit),
            )
            if document["totals"]["failed"]:
                bad.append(f"{document['totals']['failed']} failed cells: {document['failures']}")
            if document["merged_fingerprint"] != reference["merged_fingerprint"]:
                bad.append("merged fingerprint changed")
            if document["totals"]["events"] != reference["totals"]["events"]:
                bad.append("event total changed")
            if bad:
                outcome.failed += 1
                outcome.problems.append(f"sweep repeat {index}: " + "; ".join(bad))
        outcome.attempted += len(parallel)
        if serial or traced:
            check_des_repeats(outcome, serial + traced)
            replayed = merged_fingerprint((serial + traced)[0][1]["cells"])
            if replayed != reference["merged_fingerprint"]:
                outcome.problems.append("serial replay disagrees with the sweep's merged fingerprint")
        if trace:
            # Stage names as for classroom and densefleet, from the replay;
            # import_s and unaccounted_s below are the sweep process's own.
            put_stages(outcome, serial)
            put_traced(outcome, serial, traced)
        walls = [child.wall_s for child, _ in parallel]
        middle, middle_doc = parallel[median_low_index(walls)]
        marks = middle_doc["marks"]
        outcome.put("wall_s", middle.wall_s, "s")
        outcome.put(
            "setup_s",
            statistics.median(doc["marks"]["dispatch"] - c.spawn for c, doc in parallel),
            "s",
        )
        outcome.put("peak_rss_mb", statistics.median(c.rss_mb for c, _ in parallel), "MB")
        outcome.put(
            "cpu_us_per_op",
            statistics.median(
                c.cpu_s / doc["totals"]["events"] * 1e6 for c, doc in parallel
            ),
            "us",
        )
        unaccounted = (marks["start"] - middle.spawn) + (middle.exit - marks["end"])
        outcome.put("import_s", marks["import"] - marks["start"], "s")
        outcome.put("sweep.spec_s", marks["dispatch"] - marks["import"], "s")
        outcome.put("sweep.run_s", marks["sweep"] - marks["dispatch"], "s")
        outcome.put("sweep.check_s", marks["end"] - marks["sweep"], "s")
        outcome.put("unaccounted_s", unaccounted, "s")
        outcome.put(
            "sweep.parallel_efficiency",
            statistics.median(
                doc["cell_wall_s"]
                / (doc["workers"] * (doc["marks"]["sweep"] - doc["marks"]["dispatch"]))
                for _, doc in parallel
            ),
            "ratio",
        )
        outcome.put("sweep.cells", reference["totals"]["cells"], "count")
        outcome.notes.append(
            f"{len(parallel)} sweep processes, {len(serial)} serial + "
            f"{len(traced)} traced replays; merged fingerprint "
            f"{reference['merged_fingerprint'][:16]}"
        )
        return outcome


# -- portservice --------------------------------------------------------

SERVICE_RATE = 20_000.0
SERVICE_CLIENTS = 1000
SERVICE_SHARDS = 4
#: A p99 needs 1000 samples to have 10 beyond it.
MIN_ACK_SAMPLES = 1000
#: Generator endpoints: at most one per CPU.
ENDPOINTS = min(2, os.cpu_count() or 1)
#: With two CPUs or more, the server and the generator get one each.
#: Left to the scheduler, the server's CPU per message read about 33 us
#: in one set of runs and about 42 us in the next; pinned, about 40 us.
_ALLOWED = sorted(os.sched_getaffinity(0))
SERVER_CPUS = {_ALLOWED[0]} if len(_ALLOWED) > 1 else None
GENERATOR_CPUS = {_ALLOWED[1]} if len(_ALLOWED) > 1 else None
#: Datagrams per replay drain, the order of one server wake-up's batch.
REPLAY_BATCH = 32
#: Seconds after the last send before the server is stopped.
DRAIN_GRACE_S = 0.5
#: Extra unloaded start-bind-stop spawns of the server per load cycle.
#: Its setup varied 0.57-0.93 s from one spawn to the next, so three
#: load cycles alone gave too few setup samples for a steady median.
SETUP_PROBES = 3
#: Wall one setup probe takes, with its interpreter start and teardown.
PROBE_S = 1.0


def proc_cpu_s(pid: int) -> float:
    """CPU seconds a live process has run so far, summed over its threads.

    Reads the scheduler's nanosecond runtime, not the 10 ms-tick
    utime/stime, so a few seconds of load are measured to the microsecond.
    """
    total_ns = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/schedstat", encoding="ascii") as stream:
            total_ns += int(stream.read().split()[0])
    return total_ns / 1e9


def wait_for_file(path: Path, child: Child, what: str) -> None:
    """Poll until ``path`` is non-empty; fail if ``child`` exits or 30 s pass."""
    while not path.exists() or not path.stat().st_size:
        if child.proc.poll() is not None or time.perf_counter() - child.spawn > 30:
            raise ChildFailed(f"{what} within 30 s")
        time.sleep(0.0005)


def wait_for_sigterm_handler(child: Child) -> None:
    """Poll until ``child`` catches SIGTERM (``repro serve`` installs its
    handler just after it binds), so a stop right after binding is clean."""
    bit = 1 << (signal.SIGTERM - 1)
    while True:
        with open(f"/proc/{child.proc.pid}/status", encoding="ascii") as stream:
            caught = next(line for line in stream if line.startswith("SigCgt:"))
        if int(caught.split()[1], 16) & bit:
            return
        if child.proc.poll() is not None or time.perf_counter() - child.spawn > 30:
            raise ChildFailed("repro serve did not catch SIGTERM within 30 s")
        time.sleep(0.0005)


def applied(cycle: dict) -> int:
    totals = cycle["state"]["totals"]
    return totals["reports"] + totals["keepalives"]


def quantile(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


PORT_FILE = WORK / "service.port"
STATE_FILE = WORK / "service.state"
MARKS_FILE = WORK / "service.marks"


class ServiceWorkload:
    def start_server(self):
        """Spawn ``repro serve``; return it and when its port file appeared."""
        server = Child(
            "serve_child.py", str(MARKS_FILE),
            "--shards", str(SERVICE_SHARDS),
            "--port-file", str(PORT_FILE),
            "--final-state", str(STATE_FILE),
            cpus=SERVER_CPUS,
        )
        try:
            wait_for_file(PORT_FILE, server, "repro serve did not bind")
        except BaseException:
            server.kill()
            raise
        return server, time.perf_counter()

    def probe_setup(self) -> tuple:
        """Start ``repro serve``, stop it once bound; return its setup
        time and any problems."""
        for path in (PORT_FILE, STATE_FILE, MARKS_FILE):
            if path.exists():
                path.unlink()
        server, bound = self.start_server()
        try:
            wait_for_sigterm_handler(server)
            server.proc.send_signal(signal.SIGTERM)
            server.finish(parse=False)
        except BaseException:
            server.kill()
            raise
        marks = json.loads(MARKS_FILE.read_text())
        problems = misordered(
            ("spawn", server.spawn), ("start", marks["start"]),
            ("import", marks["import"]), ("bound", bound),
            ("serve returned", marks["serve"]), ("exit", server.exit),
        )
        if marks["exit_code"] != 0:
            problems.append(f"repro serve exited {marks['exit_code']}")
        return bound - server.spawn, problems

    def cycle(self, inputs: dict, load_s: float) -> dict:
        """Start the generator, then ``repro serve``; load, stop, collect.

        The generator builds its mix and waits for the server's port
        file before the server is spawned, so the server's setup and its
        load window contain none of the generator's start-up.
        """
        ready_file = WORK / "loadgen.ready"
        for path in (PORT_FILE, ready_file, STATE_FILE, MARKS_FILE):
            if path.exists():
                path.unlink()
        generator = Child(
            "loadgen_child.py",
            json.dumps(
                {
                    "host": "127.0.0.1",
                    "port_file": str(PORT_FILE),
                    "ready_file": str(ready_file),
                    "rate": SERVICE_RATE,
                    "seconds": load_s,
                    "seed": inputs["loadgen_seed"],
                    "clients": SERVICE_CLIENTS,
                    "endpoints": ENDPOINTS,
                }
            ),
            cpus=GENERATOR_CPUS,
        )
        server = None
        try:
            wait_for_file(ready_file, generator, "the generator was not ready")
            server, bound = self.start_server()
            cpu_before = proc_cpu_s(server.proc.pid)
            load = generator.finish()
            time.sleep(DRAIN_GRACE_S)
            cpu_load = proc_cpu_s(server.proc.pid) - cpu_before
            stopped = time.perf_counter()
            server.proc.send_signal(signal.SIGTERM)
            server.finish(parse=False)
        except BaseException:
            if server is not None:
                server.kill()
            generator.kill()
            raise
        state = json.loads(STATE_FILE.read_text())
        marks = json.loads(MARKS_FILE.read_text())
        setup_s = bound - server.spawn
        stop_s = server.exit - stopped
        return {
            "server": server,
            "setup_s": setup_s,
            "stop_s": stop_s,
            "cpu_load_s": cpu_load,
            "load": load,
            "state": state,
            "marks": marks,
            "bound": bound,
            "stopped": stopped,
        }

    def check_cycle(self, outcome: Outcome, index: int, cycle: dict) -> None:
        totals = cycle["state"]["totals"]
        load = cycle["load"]
        bad = []
        if cycle["marks"]["exit_code"] != 0:
            bad.append(f"repro serve exited {cycle['marks']['exit_code']}")
        if totals["shard_errors"] or totals["socket_errors"]:
            bad.append(f"shard errors {totals['shard_errors']}, socket errors {totals['socket_errors']}")
        accounted = (
            totals["reports"] + totals["keepalives"] + totals["rejected"]
            + totals["garbage"] + totals["drops"] + totals["shard_errors"]
        )
        if accounted != totals["datagrams_received"]:
            bad.append(f"server applied+refused {accounted} != received {totals['datagrams_received']}")
        if totals["datagrams_received"] > load["sent"]:
            bad.append(f"server received {totals['datagrams_received']} > sent {load['sent']}")
        if load["acks"] > totals["acks_sent"]:
            bad.append(f"generator got {load['acks']} ACKs, server sent {totals['acks_sent']}")
        if load["acks_unmatched"]:
            bad.append(f"{load['acks_unmatched']} ACKs matched no want-ACK send")
        server, marks = cycle["server"], cycle["marks"]
        bad.extend(misordered(
            ("spawn", server.spawn), ("start", marks["start"]),
            ("import", marks["import"]), ("bound", cycle["bound"]),
            ("t0", load["marks"]["t0"]), ("last send", load["marks"]["last_send"]),
            ("SIGTERM", cycle["stopped"]), ("serve returned", marks["serve"]),
            ("exit", server.exit),
        ))
        if bad:
            outcome.problems.append(f"service cycle {index}: " + "; ".join(bad))

    def valid(self, cycle: dict) -> bool:
        load = cycle["load"]
        return (
            load["lag_p99_ms"] <= MAX_LAG_P99_MS
            and load["achieved_rate"] >= MIN_ACHIEVED * load["offered_rate"]
        )

    def run(self, seed: int, seconds: float, trace: bool) -> Outcome:
        outcome = Outcome()
        outcome.inputs = {
            "rate": SERVICE_RATE,
            "clients": SERVICE_CLIENTS,
            "shards": SERVICE_SHARDS,
            "loadgen_seed": derived_seeds("loadgen", seed, 1)[0],
            # The server's broadcast feed replays the Classroom scenario's
            # own trace seed (see PROVENANCE.json), whatever --seed is.
            "feed_seed": None,
        }
        cycles_n = 1 if trace else 3
        program()
        from repro.service.loadgen import LoadgenConfig

        # Each cycle also pays ~2 s of start, drain and stop. The floor
        # keeps enough want-ACK samples (one per ack_every sends) for a p99.
        ack_every = LoadgenConfig().ack_every
        floor_s = 1.1 * MIN_ACK_SAMPLES * ack_every / SERVICE_RATE / cycles_n
        budget = seconds * (0.45 if trace else 1.0) - cycles_n * SETUP_PROBES * PROBE_S
        load_s = max(floor_s, budget / cycles_n - 2.0)
        outcome.inputs["load_s_per_cycle"] = load_s
        cycles, invalid, setups = [], 0, []
        while len(cycles) < cycles_n:
            while len(setups) < SETUP_PROBES * (len(cycles) + 1):
                setup_s, problems = self.probe_setup()
                setups.append(setup_s)
                outcome.problems.extend(f"setup probe: {p}" for p in problems)
            cycle = self.cycle(outcome.inputs, load_s)
            if self.valid(cycle):
                cycles.append(cycle)
                continue
            invalid += 1
            outcome.notes.append(
                f"generator fell behind (lag p99 {cycle['load']['lag_p99_ms']:.2f} ms, "
                f"achieved {cycle['load']['achieved_rate']:.0f}/s); cycle discarded"
            )
            if invalid > MAX_DISCARDED_CYCLES:
                outcome.problems.append("run invalid: the generator fell behind schedule")
                cycles.append(cycle)
                break
        for index, cycle in enumerate(cycles):
            self.check_cycle(outcome, index, cycle)
        sent = sum(c["load"]["sent"] for c in cycles)
        received = sum(c["state"]["totals"]["datagrams_received"] for c in cycles)
        unanswered = sum(c["load"]["unanswered"] for c in cycles)
        outcome.attempted = sent
        outcome.failed = (sent - sum(applied(c) for c in cycles)) + unanswered
        setups += [c["setup_s"] for c in cycles]
        setup_s = statistics.median(setups)
        stop_s = statistics.median(c["stop_s"] for c in cycles)
        # The server's own time: setup over every spawn, stop over the
        # loaded cycles; the load window and the fixed grace are left out.
        outcome.put("wall_s", setup_s + stop_s, "s")
        outcome.put("setup_s", setup_s, "s")
        outcome.put("service.stop_s", stop_s, "s")
        outcome.put(
            "service.process_wall_s",
            statistics.median(c["server"].wall_s for c in cycles),
            "s",
        )
        outcome.put("peak_rss_mb", statistics.median(c["server"].rss_mb for c in cycles), "MB")
        per_msg = statistics.median(
            c["cpu_load_s"] / max(1, applied(c)) * 1e6 for c in cycles
        )
        outcome.put("cpu_us_per_op", per_msg, "us")
        outcome.put("cpu_us_per_msg", per_msg, "us")
        rtts = [rtt for c in cycles for rtt in c["load"]["rtt_ms"]]
        if len(rtts) < MIN_ACK_SAMPLES:
            outcome.problems.append(
                f"only {len(rtts)} want-ACK samples; p99 needs "
                f"{MIN_ACK_SAMPLES} for 10 beyond it"
            )
        if rtts:
            outcome.put("ack_p50_ms", quantile(rtts, 0.50), "ms")
            outcome.put("ack_p99_ms", quantile(rtts, 0.99), "ms")
        outcome.put("failed_fraction", outcome.failed / max(1, sent), "ratio")
        # import, serve and the rest of one loaded server process's wall.
        middle = cycles[median_low_index([c["server"].wall_s for c in cycles])]
        marks = middle["marks"]
        server = middle["server"]
        outcome.put("import_s", marks["import"] - marks["start"], "s")
        outcome.put("service.serve_s", marks["serve"] - marks["import"], "s")
        outcome.put(
            "unaccounted_s",
            (marks["start"] - server.spawn) + (server.exit - marks["serve"]),
            "s",
        )
        outcome.put("loadgen.sent", sent, "count")
        outcome.put("loadgen.lag_p99_ms", max(c["load"]["lag_p99_ms"] for c in cycles), "ms")
        outcome.put(
            "loadgen.achieved_ratio",
            min(c["load"]["achieved_rate"] / c["load"]["offered_rate"] for c in cycles),
            "ratio",
        )
        outcome.put("service.ack_samples", len(rtts), "count")
        outcome.put("service.kernel_loss", sent - received, "count")
        outcome.put(
            "service.queue_drops",
            sum(c["state"]["totals"]["drops"] for c in cycles),
            "count",
        )
        outcome.put(
            "service.rejected",
            sum(c["state"]["totals"]["rejected"] for c in cycles),
            "count",
        )
        outcome.put(
            "ap.algorithm1_runs",
            sum(c["state"]["totals"]["algorithm1_runs"] for c in cycles),
            "count",
        )
        if trace:
            self.put_latency(outcome, cycles)
            remaining = max(1.0, seconds - sum(c["server"].wall_s for c in cycles))
            self.put_replay(outcome, outcome.inputs["loadgen_seed"], remaining)
        setups = " ".join(f"{value:.3f}" for value in setups)
        stops = " ".join(f"{c['stop_s']:.3f}" for c in cycles)
        outcome.notes.append(
            f"{len(cycles)} load cycles of {load_s:.1f} s at {SERVICE_RATE:.0f} msgs/s; "
            f"setup {setups} s, stop {stops} s"
        )
        return outcome

    def put_latency(self, outcome: Outcome, cycles: list) -> None:
        """The server's own HDR histograms, merged over shards and cycles."""
        program()
        from repro.obs.hdr import HdrHistogram

        merged = {
            name: HdrHistogram.merged(
                HdrHistogram.from_dict(shard["latency"][name])
                for cycle in cycles
                for shard in cycle["state"]["shards"]
            )
            for name in ("queue_wait_ms", "drain_batch_ms", "ack_latency_ms")
        }
        outcome.put("service.queue_wait_p99_ms", merged["queue_wait_ms"].quantile(0.99), "ms")
        outcome.put("service.drain_batch_p50_ms", merged["drain_batch_ms"].quantile(0.50), "ms")
        outcome.put("service.ack_latency_p99_ms", merged["ack_latency_ms"].quantile(0.99), "ms")

    def put_replay(self, outcome: Outcome, loadgen_seed: int, seconds: float) -> None:
        spec = {
            "seed": loadgen_seed,
            "clients": SERVICE_CLIENTS,
            "count": 100_000,
            "endpoints": ENDPOINTS,
            "shards": SERVICE_SHARDS,
            "batch": REPLAY_BATCH,
            "rate": SERVICE_RATE,
        }
        runs = repeat(seconds, 1, lambda _: run_child("replay_child.py", spec)[1])
        for index, document in enumerate(runs):
            for kind in ("untraced", "traced"):
                result = document[kind]
                if (
                    result["applied"] != document["messages"]
                    or result["acks"] != document["want_acks"]
                    or result["errors"]
                ):
                    outcome.problems.append(f"replay {index} ({kind}): {result}")
        count = runs[0]["messages"]
        for key, name in (
            ("route_s", "wire.route_us"),
            ("offer_s", "shard.offer_us"),
            ("drain_s", "shard.drain_us"),
        ):
            value = statistics.median(doc["traced"][key] for doc in runs)
            outcome.put(name, value / count * 1e6, "us")
        outcome.put(
            "trace_overhead_fraction",
            statistics.median(doc["traced"]["wall_s"] for doc in runs)
            / statistics.median(doc["untraced"]["wall_s"] for doc in runs) - 1.0,
            "ratio",
        )


WORKLOADS = {
    "classroom": DesWorkload("Classroom", 25, 600.0, seeded=True),
    "densefleet": DesWorkload("DenseFleet", 1000, 10.0, seeded=False),
    "sweep": SweepWorkload(),
    "portservice": ServiceWorkload(),
}


def warm_up() -> None:
    """Compile the program's bytecode once, so no run pays for it."""
    code = (
        "import repro.cli, repro.experiments.des_run, repro.experiments.sweep, "
        "repro.service.server, repro.service.loadgen, repro.sim.invariants, "
        "repro.obs.profiler"
    )
    subprocess.run(
        [sys.executable, "-c", code], env=child_env(), cwd=str(ROOT),
        check=True, timeout=CHILD_TIMEOUT_S, capture_output=True,
    )


def render(outcome: Outcome) -> str:
    lines = []
    for name in sorted(outcome.metrics):
        value, unit = outcome.metrics[name]
        lines.append(f"  {name:32s} {value:>16.6g} {unit}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # A SIGTERM unwinds like an error, so every child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(exist_ok=True)
    RESULTS.mkdir(exist_ok=True)
    try:
        warm_up()
        outcome = WORKLOADS[args.workload].run(args.seed, args.seconds, bool(args.trace))
    except (ChildFailed, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    if "failed_fraction" not in outcome.metrics:
        outcome.put("failed_fraction", outcome.failed / max(1, outcome.attempted), "ratio")
    correct = not outcome.problems

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    reported = {}
    for entry in wanted:
        if not args.trace and entry["name"] not in outcome.metrics:
            print(f"error: {entry['name']} was not measured", file=sys.stderr)
            return 1
        # A per-layer metric of a layer this workload does not load is 0.
        value, unit = outcome.metrics.get(entry["name"], (0.0, entry["unit"]))
        if unit != entry["unit"]:
            print(f"error: {entry['name']} measured in {unit}, declared {entry['unit']}", file=sys.stderr)
            return 1
        reported[entry["name"]] = {"value": value, "unit": unit}

    host = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "system": platform.system(),
    }
    print(f"{args.workload} seed {args.seed} ({args.seconds:g} s, trace {args.trace}) "
          f"on {host['nproc']} CPUs, Python {host['python']}")
    for note in outcome.notes:
        print(f"  note: {note}")
    for problem in outcome.problems:
        print(f"  CHECK FAILED: {problem}")
    print(render(outcome))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "inputs": outcome.inputs,
        "correct": correct,
        "problems": outcome.problems,
        "notes": outcome.notes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(outcome.metrics.items())},
    }
    record_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": reported,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Open-loop load generator for the ``portservice`` workload.

Sends the mix from ``mix.py`` at a fixed rate: message ``i`` is due at
``t0 + i / rate`` whatever the server does, so a stall shows up as
latency on every message scheduled behind it instead of as less load.
Want-ACK round trips are timed from the send's *due* time. The
generator's own lateness (send time minus due time) is reported, so a
run where the generator fell behind can be marked invalid, not fast.

The generator is started before the server. It builds its whole mix
first, creates the spec's ``ready_file``, and then waits for the
server's ``port_file``; the schedule starts as soon as the port is
known, so neither the generator's start-up nor its mix encoding falls
inside the server's measured life. ``t0`` (the first due time) and
``last_send`` are reported as CLOCK_MONOTONIC marks, comparable with
the parent's clock.

Usage: ``python3 perfbench/loadgen_child.py '<json spec>'``; prints one
JSON report on stdout.
"""

import json
import select
import socket
import sys
import time
from pathlib import Path

#: The generator sleeps at most this long between send batches; the
#: tick bounds how late a message can be on an idle host.
TICK_S = 0.0005
RESTAMP_EVERY = 16
#: After the last send, answers still in flight are awaited this long.
ACK_GRACE_S = 0.5
#: Longest wait for the server's port file before giving up.
PORT_WAIT_S = 30.0


def wait_for_port(path: Path) -> int:
    deadline = time.perf_counter() + PORT_WAIT_S
    while time.perf_counter() < deadline:
        try:
            return int(json.loads(path.read_text())["service_port"])
        except (OSError, ValueError, KeyError):
            time.sleep(0.0005)
    raise SystemExit(f"no service port in {path} within {PORT_WAIT_S:g} s")


def main() -> int:
    spec = json.loads(sys.argv[1])
    from repro.errors import FrameDecodeError
    from repro.service import wire

    from mix import build_mix

    rate = float(spec["rate"])
    count = int(rate * float(spec["seconds"]))
    endpoints = int(spec["endpoints"])
    mix = build_mix(int(spec["seed"]), int(spec["clients"]), count, endpoints)
    socks = []
    for _ in range(endpoints):
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4 << 20)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4 << 20)
        socks.append(sock)
    Path(spec["ready_file"]).write_text("ready\n")
    port = wait_for_port(Path(spec["port_file"]))
    for sock in socks:
        sock.connect((spec["host"], port))
        sock.setblocking(False)

    pending = {}  # (bss, aid) -> (seq, due time)
    rtt_ms = []
    lag_ms = []
    statuses = {}
    acks = unmatched = send_errors = want_acks = 0

    def receive() -> None:
        nonlocal acks, unmatched
        for sock in socks:
            while True:
                try:
                    data = sock.recv(64)
                except (BlockingIOError, InterruptedError):
                    break
                arrived = time.perf_counter()
                try:
                    message = wire.decode_message(data)
                except FrameDecodeError:
                    unmatched += 1
                    continue
                acks += 1
                statuses[message.status] = statuses.get(message.status, 0) + 1
                key = (message.bss, message.aid)
                waiting = pending.get(key)
                if waiting is not None and waiting[0] == message.seq:
                    del pending[key]
                    rtt_ms.append((arrived - waiting[1]) * 1e3)
                else:
                    unmatched += 1

    interval = 1.0 / rate
    t0 = time.perf_counter() + 0.01
    index = 0
    while index < count:
        now = time.perf_counter()
        burst = 0
        while index < count:
            due = t0 + index * interval
            if due > now:
                break
            datagram = mix[index]
            try:
                socks[datagram.endpoint].send(datagram.payload)
            except (BlockingIOError, InterruptedError):
                send_errors += 1
            else:
                lag_ms.append((now - due) * 1e3)
                if datagram.want_ack:
                    want_acks += 1
                    pending[(datagram.bss, datagram.aid)] = (datagram.seq, due)
            index += 1
            burst += 1
            if burst % RESTAMP_EVERY == 0:
                now = time.perf_counter()
        receive()
        wait = min(TICK_S, t0 + index * interval - time.perf_counter())
        if wait > 0:
            select.select(socks, [], [], wait)
    last_send = time.perf_counter()
    # Answers still in flight get a bounded grace period.
    deadline = last_send + ACK_GRACE_S
    while pending and time.perf_counter() < deadline:
        select.select(socks, [], [], 0.01)
        receive()
    for sock in socks:
        sock.close()

    lag_ms.sort()
    span = last_send - t0
    report = {
        "offered_rate": rate,
        "achieved_rate": count / span if span > 0 else 0.0,
        "sent": count - send_errors,
        "send_errors": send_errors,
        "sent_reports": sum(1 for d in mix if len(d.payload) > wire.HEADER_BYTES),
        "want_acks": want_acks,
        "acks": acks,
        "acks_unmatched": unmatched,
        "acks_by_status": {str(k): v for k, v in sorted(statuses.items())},
        "unanswered": len(pending),
        "rtt_ms": rtt_ms,
        "lag_p50_ms": lag_ms[len(lag_ms) // 2] if lag_ms else 0.0,
        "lag_p99_ms": lag_ms[int(len(lag_ms) * 0.99)] if lag_ms else 0.0,
        "lag_max_ms": lag_ms[-1] if lag_ms else 0.0,
        "endpoints": endpoints,
        "marks": {"t0": t0, "last_send": last_send},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""In-process replay of the port-service mix: the ``portservice`` traced run.

Usage: ``python3 perfbench/replay_child.py '<json spec>'``. Rebuilds
the live generator's datagram mix for the same seed and pushes it
through the service's own ingest path, ``wire.peek_route`` ->
``wire.shard_index`` -> ``PortShard.offer`` -> ``PortShard.drain``, in
batches, with a service clock that advances at the offered rate.

Each pass runs twice on fresh shards: once with a single stopwatch
around the whole loop (untraced) and once with a stopwatch around every
call (traced). The traced pass gives per-message costs per layer; the
ratio of the two walls is the cost of tracing.

Prints one JSON document on stdout.
"""

import json
import sys
import time


def replay(mix, shards_n: int, batch: int, rate: float, traced: bool) -> dict:
    from repro.service import wire
    from repro.service.shard import PortShard

    peek, shard_of = wire.peek_route, wire.shard_index
    clock = time.perf_counter
    shards = [PortShard(index=i, queue_capacity=8192) for i in range(shards_n)]
    acks = []

    def sink(payload: bytes, addr) -> None:
        acks.append(payload)

    addr = ("127.0.0.1", 9)
    route_s = offer_s = drain_s = 0.0
    start = clock()
    for base in range(0, len(mix), batch):
        now = base / rate
        if traced:
            for datagram in mix[base:base + batch]:
                t0 = clock()
                bss, aid, mac = peek(datagram.payload)
                shard = shards[shard_of(bss, aid, mac, shards_n)]
                t1 = clock()
                shard.offer(datagram.payload, addr, at=now)
                t2 = clock()
                route_s += t1 - t0
                offer_s += t2 - t1
            t0 = clock()
            for shard in shards:
                shard.drain(now, ack_sink=sink)
            drain_s += clock() - t0
        else:
            for datagram in mix[base:base + batch]:
                bss, aid, mac = peek(datagram.payload)
                shards[shard_of(bss, aid, mac, shards_n)].offer(
                    datagram.payload, addr, at=now
                )
            for shard in shards:
                shard.drain(now, ack_sink=sink)
    wall = clock() - start
    counters = [shard.counters for shard in shards]
    return {
        "wall_s": wall,
        "route_s": route_s,
        "offer_s": offer_s,
        "drain_s": drain_s,
        "applied": sum(c.reports + c.keepalives for c in counters),
        "rejected": sum(c.rejected for c in counters),
        "garbage": sum(c.garbage for c in counters),
        "drops": sum(c.drops for c in counters),
        "errors": sum(c.errors for c in counters),
        "acks": len(acks),
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    from mix import build_mix

    mix = build_mix(
        int(spec["seed"]), int(spec["clients"]), int(spec["count"]),
        int(spec["endpoints"]),
    )
    args = (int(spec["shards"]), int(spec["batch"]), float(spec["rate"]))
    # Warm the interpreter's specialized bytecode before either timed pass.
    replay(mix[:5000], *args, traced=False)
    replay(mix[:5000], *args, traced=True)
    document = {
        "messages": len(mix),
        "want_acks": sum(1 for d in mix if d.want_ack),
        "untraced": replay(mix, *args, traced=False),
        "traced": replay(mix, *args, traced=True),
    }
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())

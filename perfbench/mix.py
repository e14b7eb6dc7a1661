"""The port-service traffic mix, shared by the live generator and the replay.

One schedule per seed: message ``i`` goes to client ``i % clients``
(the loadgen's round-robin cursor), is a keep-alive with the default
``LoadgenConfig.keepalive_fraction`` once the client has reported, and
requests an ACK when ``i`` is a multiple of the default
``LoadgenConfig.ack_every``. Clients are split into one contiguous
slice per endpoint, so each client's sequence numbers stay monotonic
on its own socket.

Datagrams are encoded by the program's own client model
(``repro.service.loadgen.build_clients``), and both values are read
from the program's ``LoadgenConfig``, so the mix follows the loadgen's
default mix if those defaults change.
"""

import random
from typing import List, NamedTuple


class Datagram(NamedTuple):
    endpoint: int
    payload: bytes
    want_ack: bool
    bss: int
    aid: int
    seq: int


def build_mix(seed: int, clients: int, count: int, endpoints: int) -> List[Datagram]:
    """The first ``count`` datagrams of the schedule for ``seed``."""
    from repro.service.loadgen import LoadgenConfig, build_clients

    config = LoadgenConfig(clients=clients, seed=seed, workers=endpoints)
    keepalive_fraction, ack_every = config.keepalive_fraction, config.ack_every
    population = build_clients(config)
    per_endpoint = (clients + endpoints - 1) // endpoints
    rng = random.Random(seed * 7919 + 17)
    mix: List[Datagram] = []
    for index in range(count):
        slot = index % clients
        client = population[slot]
        want_ack = ack_every > 0 and index % ack_every == 0
        payload = client.next_payload(rng.random() < keepalive_fraction, want_ack)
        mix.append(
            Datagram(
                slot // per_endpoint, payload, want_ack,
                client.bss, client.aid, client.seq,
            )
        )
    return mix

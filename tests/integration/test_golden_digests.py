"""Cross-commit goldens: pinned digests of traces and DES fingerprints.

The determinism tests elsewhere compare two runs inside one process,
which cannot see a change that shifts every run the same way. These
digests were computed before the trace generator inlined its stdlib
draws and must not move unless a commit changes the model on purpose;
such a commit re-pins them and says why in CHANGES.md.
"""

import hashlib
import sys

import pytest

from repro.experiments.des_run import DesRunConfig, run_trace_des
from repro.traces import generate_trace
from repro.traces.scenarios import ALL_SCENARIOS

#: SHA-256 over every default-seed record, see :func:`records_digest`.
TRACE_DIGESTS = {
    "Classroom": (
        36861,
        "35a30af073d03af2e8d83e6e8c25454fb826125d5ae4bd7adfb79c94d7a1150f",
    ),
    "CS_Dept": (
        13911,
        "3b80476ba6b23bf28003fc98378aab0010a3101b9acae37781f630ae085c2bf8",
    ),
    "WML": (
        49004,
        "4b3405a3dce5de84f3a345c814577db432b2f839b6a73d98fe0becda7b5ff9c8",
    ),
    "Starbucks": (
        3773,
        "bd549fa20ec04a17aaadc07170a36ee708ed5978c2add2e006c67e7ccd5a3254",
    ),
    "WRL": (
        3419,
        "5cd6cca25bb3ec324716c348754e7a73465b0d018bfd7aeec06dc2696b3c4fe7",
    ),
    "DenseFleet": (
        13803,
        "bc12daa8a236387e21f099ac78604a68084d0cfcbb93d67cdcc9c8398860581d",
    ),
}

#: ``deterministic_fingerprint()`` of default-seed runs:
#: (scenario, clients, simulated seconds) -> digest. Computed on
#: Python 3.11; they hold for interpreters before 3.12 only, see
#: :data:`PRE_312_SUM`.
DES_FINGERPRINTS = {
    ("Classroom", 25, 60.0): (
        "ca0214f23f068afd331d1ec0d8c36e0af3ef10fb7f26644b3e4ff43aca5f04cd"
    ),
    ("DenseFleet", 200, 5.0): (
        "93d615a147bda3e793688ea5516baa0df4be4e913a3c0840a1625b6eb7c6572f"
    ),
}


#: From 3.12 on, the builtin ``sum()`` adds floats with compensated
#: summation. The fingerprint includes wakelock hold time, a ``sum()``
#: of floats serialized by ``repr``, so its last bits may differ there.
#: The trace digests involve no ``sum()`` and are checked everywhere.
PRE_312_SUM = sys.version_info < (3, 12)


def records_digest(records) -> str:
    """SHA-256 over each record's fields, floats in round-trip ``repr``."""
    digest = hashlib.sha256()
    for r in records:
        fields = (
            r.time, r.udp_port, r.length_bytes, r.rate_bps, r.more_data, r.offered_time
        )
        digest.update(repr(fields).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def test_every_scenario_is_pinned():
    assert set(TRACE_DIGESTS) == {spec.name for spec in ALL_SCENARIOS}


@pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
def test_default_seed_trace_digest(name):
    count, expected = TRACE_DIGESTS[name]
    trace = generate_trace(name)
    assert len(trace.records) == count
    assert records_digest(trace.records) == expected


@pytest.mark.parametrize(
    "scenario, clients, duration_s",
    sorted(DES_FINGERPRINTS),
    ids=[f"{s}-{c}-{d:g}s" for s, c, d in sorted(DES_FINGERPRINTS)],
)
@pytest.mark.skipif(
    not PRE_312_SUM,
    reason="DES digests were computed before 3.12's compensated float sum(); "
    "not yet computed on 3.12+",
)
def test_des_fingerprint(scenario, clients, duration_s):
    result = run_trace_des(
        generate_trace(scenario),
        DesRunConfig(client_count=clients, duration_s=duration_s),
    )
    assert result.deterministic_fingerprint() == (
        DES_FINGERPRINTS[(scenario, clients, duration_s)]
    )

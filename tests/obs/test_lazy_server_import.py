"""``http.server`` stays off the import path until a run serves metrics."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_des_run_import_skips_http_server():
    out = _run(
        "import sys, repro, repro.experiments.des_run, repro.obs\n"
        "print('http.server' in sys.modules)"
    )
    assert out == "False"


def test_metrics_server_still_importable_from_package():
    out = _run(
        "import sys\n"
        "from repro.obs import MetricsServer\n"
        "from repro.obs.server import MetricsServer as Direct\n"
        "print(MetricsServer is Direct, 'http.server' in sys.modules)"
    )
    assert out == "True True"


def test_unknown_package_attribute_still_raises():
    import repro.obs

    with pytest.raises(AttributeError):
        repro.obs.NoSuchThing

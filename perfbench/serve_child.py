"""``repro serve`` in its own process, with ``import repro`` timed.

Usage: ``python3 perfbench/serve_child.py <marks path> <serve args...>``.
Runs ``repro.cli.main(["serve", ...])`` until SIGTERM, then writes the
CLOCK_MONOTONIC marks (process start, import done, serve returned) and
the command's exit code as JSON to ``<marks path>``, so the parent can
split the process wall into import, serve, and the unaccounted rest
(interpreter start, teardown), and check the exit code itself.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    marks_path, serve_args = sys.argv[1], sys.argv[2:]
    import repro.cli

    imported = time.perf_counter()
    code = repro.cli.main(["serve", *serve_args])
    served = time.perf_counter()
    with open(marks_path, "w", encoding="utf-8") as stream:
        json.dump(
            {"start": START, "import": imported, "serve": served, "exit_code": code},
            stream,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

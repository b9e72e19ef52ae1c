"""Run ``repro serve`` and count the event runs it steps through the kernels.

Usage::

    python3 perfbench/serve_probe.py COUNTS_JSON serve [serve options]

The server is the program's own (``repro.cli.main``); the only change
is a counting wrapper around the serve layer's columnar stepping
(``repro.serve.session._step_sessions_columnar``), which every session
step — solo or fused — goes through when a run qualifies.  When the
server exits, COUNTS_JSON receives the columnar steps that served
their run and the session events they covered; every other session
event was stepped on the scalar loop.
"""

from __future__ import annotations

import json
import sys


def main(argv) -> int:
    from repro.cli import main as repro_main
    from repro.serve import session

    counts_path, argv = argv[0], argv[1:]
    counts = {"columnar_steps": 0, "columnar_session_events": 0}
    original = session._step_sessions_columnar

    def counted(sessions, events):
        outputs = original(sessions, events)
        if outputs is not None:
            counts["columnar_steps"] += 1
            counts["columnar_session_events"] += len(sessions) * len(events)
        return outputs

    session._step_sessions_columnar = counted
    try:
        return repro_main(argv)
    finally:
        with open(counts_path, "w") as out:
            json.dump(counts, out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

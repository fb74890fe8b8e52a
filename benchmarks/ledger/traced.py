"""Child entry point of the traced run: the program, with spans around it.

``python benchmarks/ledger/traced.py OUT_DIR LAUNCHED <repro argv...>``
does what ``python -m repro <repro argv...>`` does, with the layer
wrappers of :mod:`ledger.layers` installed from outside, and when the
command returns writes the spans to ``OUT_DIR/spans.json`` and the
counters and timestamps to ``OUT_DIR/trace.json``.

``LAUNCHED`` is the harness's ``time.time()`` just before it started
this process: interpreter start-up up to the first line below becomes
the ``cli:interpreter`` span, so what ``python -m repro`` pays before
its own code runs is attributed, not lost.  The harness's own work in
this process (installing the wrappers, serialising the spans) is
reported as ``harness_s`` so it can be kept out of the attribution.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path


def main(argv: list[str]) -> int:
    entered_wall, entered = time.time(), time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from ledger.layers import install
    from ledger.spans import SpanRecorder

    out_dir, launched, program_argv = Path(argv[0]), float(argv[1]), argv[2:]
    recorder = SpanRecorder()
    recorder.spans.append(
        ["cli:interpreter", entered - (entered_wall - launched), entered, -1]
    )
    counters: Counter = Counter()
    importing = recorder.begin("cli:import")
    import repro.cli

    recorder.end(importing)
    harness_start = time.perf_counter()
    install(recorder, counters)
    harness_s = time.perf_counter() - harness_start
    try:
        code = recorder.timed("cli:main", repro.cli.main)(program_argv)
    finally:
        recorder.restore()
    sys.stdout.flush()
    harness_start = time.perf_counter()
    (out_dir / "spans.json").write_text(
        json.dumps(recorder.spans), encoding="utf-8"
    )
    harness_s += time.perf_counter() - harness_start
    (out_dir / "trace.json").write_text(
        json.dumps(
            {
                "counters": dict(counters),
                "harness_s": harness_s,
                "exited_at": time.time(),
            }
        ),
        encoding="utf-8",
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

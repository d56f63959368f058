"""``python -m repro serve`` with the benchmark's per-layer spans.

Usage: ``serve_traced.py SPANS_JSON serve [repro serve options...]``

Installs the span wrappers of ``layers.py``, then runs the repro CLI
unchanged. SIGUSR1 drops the aggregates recorded so far (the load
generator sends it after its untimed warm-up) and answers
``spans reset`` on stdout; on exit the aggregates go to SPANS_JSON.
"""

from __future__ import annotations

import signal
import sys

from layers import Recorder, instrument


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    instrument(recorder)

    def reset(_signum, _frame) -> None:
        recorder.reset()
        print("spans reset", flush=True)

    signal.signal(signal.SIGUSR1, reset)
    from repro.__main__ import main as repro_main
    try:
        return repro_main(argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())

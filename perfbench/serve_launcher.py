"""Run the ``repro`` CLI with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/serve_launcher.py TRACE_OUT serve ...``.
SIGUSR1 drops the spans recorded so far (the server's warm-up); the
spans are written to TRACE_OUT when the CLI returns (SIGINT stops
``repro serve``).
"""

import signal
import sys

from tracing import Recorder, install


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    from repro.cli import main as cli_main

    recorder = Recorder()
    install(recorder)
    signal.signal(signal.SIGUSR1, lambda *_: recorder.reset())
    try:
        return cli_main(argv)
    finally:
        recorder.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main())

"""``repro serve`` with the benchmark's layer wrappers installed.

Usage: ``python serve_traced.py SPANS.json serve GRAPH [repro serve options]``.
Installs the wrappers of :mod:`tracing`, runs the ``repro`` command line
with the remaining arguments, and writes the recorded spans to
``SPANS.json`` once the server has shut down (SIGINT or SIGTERM).
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    from tracing import Recorder, install

    recorder = Recorder()
    install(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(argv[1:])
    finally:
        recorder.dump(argv[0])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

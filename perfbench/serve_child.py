"""Launch ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/serve_child.py SPANS.json serve [ARGS...]``.
The server runs exactly as ``python -m repro serve ARGS`` would, with
every layer boundary of ``spans.LAYERS`` wrapped.  On SIGINT the server
shuts down and the recorded spans are written to ``SPANS.json``.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import load_program  # noqa: E402


def main() -> int:
    """Install the wrappers, serve until interrupted, dump the spans."""
    out_path, cli_args = sys.argv[1], sys.argv[2:]
    load_program()
    from spans import SpanRecorder

    recorder = SpanRecorder().install()
    from repro.cli import main as repro_main

    code = repro_main(cli_args)
    recorder.dump(out_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main())

"""``repro serve`` with the benchmark's span wrappers installed.

Usage, from the root of a checkout::

    python3 perfbench/serve_traced.py SPANS.jsonl [repro serve arguments...]

Installs the wrappers of ``tracing.py``, then runs the ordinary
``repro serve`` command line (which calls ``serve_forever``); when the
server drains on SIGTERM, every span recorded is written to SPANS.jsonl.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402


def main() -> int:
    spans_path, serve_args = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", *serve_args])
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())

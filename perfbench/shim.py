"""Run one incgrade CLI command with tracing installed.

Usage: python3 perfbench/shim.py SPANS_FILE <incgrade arguments>

Installs the wrappers of tracer.py, runs `incgrade.cli.main` on the
arguments, writes the spans to SPANS_FILE and exits with main's code.
incgrade must be importable (the benchmark sets PYTHONPATH to src).
"""

import sys
import time

import tracer


def main():
    path, argv = sys.argv[1], sys.argv[2:]
    # Imported before the clock starts, as the incgrade script imports it,
    # so that start-up includes the import and only the wrapping is removed.
    import incgrade.cli

    started = time.perf_counter_ns()
    spans = tracer.Tracer()
    tracer.install(spans)
    install_ns = time.perf_counter_ns() - started
    code = 1
    try:
        code = incgrade.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        spans.dump(path, install_ns)
    return code


if __name__ == "__main__":
    sys.exit(main())

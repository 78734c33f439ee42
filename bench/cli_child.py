"""Run one dephnet command with the benchmark's spans installed, then
write the spans out.

    python3 bench/cli_child.py TRACE_FILE COMMAND [ARG...]

dephnet must be importable (the benchmark puts src/ on PYTHONPATH).
The exit code is the command's own.
"""
import sys

import dephnet.cli

import tracer


def main() -> int:
    out, args = sys.argv[1], sys.argv[2:]
    spans = tracer.Tracer()
    tracer.install(spans)
    try:
        return dephnet.cli.main(args)
    finally:
        tracer.dump(out, spans.spans)


if __name__ == "__main__":
    sys.exit(main())

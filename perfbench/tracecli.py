"""One branchforms CLI call with the span tracer installed.

    python3 perfbench/tracecli.py TRACE_PATH CLI-ARGUMENTS...

stdout and the exit code are the CLI's own; the trace summary is written
to TRACE_PATH and the spans beside it (see spans.Tracer.write).
"""

import sys

import branchforms.cli as cli

import spans


def main():
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.write(path)


if __name__ == "__main__":
    sys.exit(main())

"""Run one qtnabla command line with the benchmark's spans installed.

Usage: python3 perfbench/launch.py SPANS_FILE CASE_LABEL -- ARGV...

Times the import of ``qtnabla.cli``, wraps the public functions of every
qtnabla module (see tracer.py), calls ``qtnabla.cli.main(ARGV)`` so that
the report goes to standard output as usual, writes the spans to
SPANS_FILE and exits with the command's own exit code.
"""

import sys
from time import perf_counter

import tracer


def main():
    spans_path, label, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launch.py SPANS_FILE CASE_LABEL -- ARGV...")
    spans = tracer.Tracer()
    spans.case = label
    start = perf_counter()
    import qtnabla.cli
    spans.add_span(tracer.IMPORT_SPAN, start, perf_counter())
    tracer.import_all()
    spans.install()
    try:
        return qtnabla.cli.main(argv)
    finally:
        sys.stdout.flush()
        spans.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())

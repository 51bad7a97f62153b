"""Run one fraczeta CLI command with the benchmark's spans installed.

Usage: python tracecli.py SPANS_FILE ARGV...

Behaves like ``python -m fraczeta.cli ARGV...`` (same stdout and exit
code) and writes the spans recorded in the process to SPANS_FILE as JSON.
"""

import json
import sys

import fraczeta.cli
import spans


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    with spans.installed(tracer):
        code = fraczeta.cli.main(argv)
    with open(spans_file, "w") as fp:
        json.dump(tracer.spans, fp)
    return code


if __name__ == "__main__":
    sys.exit(main())

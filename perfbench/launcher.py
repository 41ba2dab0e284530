"""Run one traced weylkit CLI request in a fresh process.

    python3 perfbench/launcher.py SPANS_OUT SUBCOMMAND [ARGS...]

Times the cold ``import weylkit`` as span ``cli.import``, installs the
wrappers of tracing.py, runs ``weylkit.cli.main(argv)`` under span
``cli.<subcommand>`` and writes the spans and counts to SPANS_OUT as JSON.  The exit
code, stdout and stderr are those of ``python -m weylkit``, tracebacks
included, so the traced request is checked like the untraced one.
"""

import json
import sys
from pathlib import Path

from tracing import Installation, Tracer


def main() -> int:
    spans_out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.request = 0
    span = tracer.open("cli.import")
    import weylkit.cli

    tracer.close(span)
    Installation(tracer)
    span = tracer.open(f"cli.{argv[0]}")
    try:
        return weylkit.cli.main(argv)
    finally:
        tracer.close(span)
        spans_out.write_text(json.dumps({"spans": tracer.spans, "counts": tracer.counts}))


if __name__ == "__main__":
    sys.exit(main())

"""Run one ``leftcurtain`` subcommand with tracing on.

Usage: ``python3 perfbench/cli_child.py TRACE_OUT SUBCOMMAND ARGS...``
with the package's ``src`` directory on ``PYTHONPATH``.  Exits with the
subcommand's exit code and writes the spans to ``TRACE_OUT``.
"""

import sys

import spans
from leftcurtain import cli

tracer = spans.Tracer()
spans.install(tracer)
code = cli.main(sys.argv[2:])
tracer.dump(sys.argv[1])
sys.exit(code)

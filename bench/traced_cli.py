"""Run one rgcodes CLI command under the tracer.

Usage: python3 bench/traced_cli.py <rgcodes arguments...>

stdout is exactly the command's output; after the command returns, the
recorder's snapshot is written to stderr as one JSON line.  rgcodes must
be importable (the benchmark sets PYTHONPATH to the checkout's src/).
"""

import json
import sys

import tracer

installation = tracer.install()
from rgcodes import cli  # noqa: E402  (imported by install already)

code = cli.main(sys.argv[1:])
sys.stdout.flush()
sys.stderr.write(json.dumps(installation.recorder.snapshot()) + "\n")
sys.exit(code)

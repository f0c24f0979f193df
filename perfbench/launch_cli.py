"""Traced stand-in for the ``nesteb`` console script.

Usage: python launch_cli.py SPANS_JSON ARGS...

Imports ``nesteb.cli`` (timed as ``cli.import_s``), installs the timing
wrappers, calls ``nesteb.cli.main(ARGS)`` and writes the spans and counts to
SPANS_JSON. Exits with main's return code.
"""

import json
import sys
import time

from probe import Probe

t0 = time.perf_counter()
import nesteb.cli  # noqa: E402

import_s = time.perf_counter() - t0
probe = Probe(timing=True)
probe.install()
rc = nesteb.cli.main(sys.argv[2:])
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump({"import_s": import_s, "spans": probe.spans, "counts": probe.counts}, fh)
sys.exit(rc)

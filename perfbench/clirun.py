"""Run one stellar CLI command in a fresh process and report where its time went.

Usage: python clirun.py ARG...     (with src/ of the checkout on PYTHONPATH)

Imports ``stellar.cli`` and runs ``main(ARG...)``, the work that
``python -m stellar.cli ARG...`` does, with stdout untouched.  On success it
writes one JSON line to stderr with CLOCK_MONOTONIC readings (shared by all
processes on the host): ``start`` when this script began, ``imported`` after
``import stellar.cli`` and ``done`` after the command returned.  The caller
subtracts its own spawn time from ``start`` to get interpreter start-up.  The
line also carries ``vmhwm_kb``, VmHWM from /proc/self/status: the peak resident
set of this process.  ``getrusage`` cannot give that for a child, since the
kernel folds the parent's peak into the child's ``ru_maxrss`` at exec.
"""

import json
import sys
import time

start = time.monotonic()

from stellar.cli import main  # noqa: E402

imported = time.monotonic()
code = main(sys.argv[1:])
sys.stdout.flush()
done = time.monotonic()
with open("/proc/self/status", encoding="ascii") as fh:
    vmhwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"start": start, "imported": imported, "done": done, "vmhwm_kb": vmhwm_kb}), file=sys.stderr)
sys.exit(code)

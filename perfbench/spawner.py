"""Runs child processes on request, one at a time, and times them.

Started by run.py with ``python3 -S`` so that it stays small: a child forked
from it starts from its few megabytes rather than from the benchmark's own
image, so ``RUSAGE_CHILDREN`` here reports the children's own peak RSS.

Protocol, one JSON object per line: the request ``{"argv": [...],
"timeout": s}`` gets the reply ``{"ms", "returncode", "stdout", "stderr",
"timed_out", "maxrss_kb"}``; ``maxrss_kb`` is the peak over all children so far.
"""

import json
import resource
import subprocess
import sys
import time


def main():
    for line in sys.stdin:
        req = json.loads(line)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(req["argv"], capture_output=True, text=True, timeout=req["timeout"])
            reply = {"returncode": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr, "timed_out": False}
        except subprocess.TimeoutExpired:
            reply = {"returncode": None, "stdout": "", "stderr": "", "timed_out": True}
        reply["ms"] = (time.perf_counter() - t0) * 1000
        reply["maxrss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

"""Run one measured program; report its exit code, wall time and peak RSS.

    python3 perfbench/launch.py < spec.json

``spec.json`` holds ``argv``, ``env``, ``cwd``, ``stdout``, ``stderr`` (file
paths) and ``timeout`` (seconds, after which the program is killed). The
result is one JSON object on stdout.

A child's ``ru_maxrss`` includes the resident size of the process that
spawned it, as it stood at the spawn. The benchmark process holds inputs
and outputs and grows to hundreds of MB, so programs are started from
this small process instead and their peak RSS stays their own.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time


def main() -> int:
    spec = json.load(sys.stdin)
    with open(spec["stdout"], "w") as out, open(spec["stderr"], "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(spec["argv"], stdout=out, stderr=err, env=spec["env"], cwd=spec["cwd"])
        signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.alarm(int(spec["timeout"]))
        _, status, usage = os.wait4(proc.pid, 0)
        wall_s = time.perf_counter() - start
        signal.alarm(0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    json.dump({"exit_code": proc.returncode, "wall_s": wall_s,
               "rss_mb": usage.ru_maxrss / 1024.0}, sys.stdout)  # ru_maxrss is in KiB
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Spawns the CLI processes of a benchmark run and reports on each one.

A child's peak resident set as reported by wait4 (``ru_maxrss``) includes
the peak of the process that spawned it, because Linux carries the old
address space's high-water mark across exec.  ``run.py`` grows large while
it builds inputs and runs hapkit in-process, so it spawns CLI processes
through this launcher, which imports only the standard library and stays
small.

Protocol, one JSON object per line: the request on stdin is
``{"argv", "cwd", "env", "stdout", "stderr", "timeout"}`` (stdout and
stderr are file paths); the reply on stdout is
``{"rc", "seconds", "maxrss_kib"}``, with ``rc`` null when the child was
killed at the timeout.
"""

import json
import os
import signal
import subprocess
import sys
import time


class _Timeout(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise _Timeout


def launch(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"], env=request["env"],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        try:
            signal.setitimer(signal.ITIMER_REAL, request["timeout"])
            _, status, usage = os.wait4(proc.pid, 0)
            signal.setitimer(signal.ITIMER_REAL, 0)
            rc = os.waitstatus_to_exitcode(status)
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            rc = None
        seconds = time.perf_counter() - start
    # reaped above: keep Popen from waiting for the pid again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": rc, "seconds": seconds, "maxrss_kib": usage.ru_maxrss}


def main() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)
    for line in sys.stdin:
        print(json.dumps(launch(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()

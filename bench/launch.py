"""Run one command and report its wall time, CPU time and peak RSS.

    python3 -I -S bench/launch.py REPORT.json -- ARGV...

On Linux a child's ru_maxrss starts from the memory high-water mark of the
process that forked it.  The benchmark's own interpreter holds about 20 MB,
so a job forked straight from it reports at least that, whatever the job
itself uses.  This launcher is a bare interpreter (-I -S, only built-in
modules), so the floor it leaves under the job is a few MB.
"""
import os
import sys
import time

report, sep, *argv = sys.argv[1:]
if sep != "--" or not argv:
    sys.exit("usage: launch.py REPORT.json -- ARGV...")
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        os.execvp(argv[0], argv)
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
with open(report, "w") as fh:
    fh.write('{"wall_s": %r, "cpu_s": %r, "maxrss_kb": %d, "exit_code": %d}\n' % (
        wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
        os.waitstatus_to_exitcode(status)))

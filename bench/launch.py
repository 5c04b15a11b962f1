"""Run one command and report its own wall time, CPU time and peak RSS.

    python3 -S bench/launch.py OUT ERR TIMEOUT_S CMD [ARG...]

The command's stdout and stderr go to the files OUT and ERR.  One line
"wall_s cpu_s peak_rss_mb returncode" is printed when it has ended; the
command is killed after TIMEOUT_S seconds.  CPU time and peak RSS are the
command's ``wait4`` rusage, which includes the pool workers it reaped.

Linux carries a process's RSS high-water mark across exec, so a command
spawned straight from the benchmark would report the benchmark's own peak
whenever that is the larger.  This launcher stays small (run it with -S,
and it imports no more than os, signal, sys and time), which keeps that
floor below the peak of any rds command.
"""

import os
import signal
import sys
import time


def main() -> None:
    out, err, timeout_s, *cmd = sys.argv[1:]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawnp(cmd[0], cmd, os.environ, file_actions=actions)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(int(timeout_s))
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    signal.alarm(0)
    print(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status))


if __name__ == "__main__":
    main()

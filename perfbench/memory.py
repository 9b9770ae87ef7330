"""Peak memory of the current process."""


def peak_rss_kb() -> int:
    """Peak resident set since this process's exec, in KiB (VmHWM).

    getrusage() is not used: on Linux its maximum also counts the resident
    memory of the process this one was forked from, here the benchmark.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM line in /proc/self/status")

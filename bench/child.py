"""One benchmark job: run `qwhitney.cli.main` in this fresh interpreter.

    python -I -S bench/child.py SRC TRACE PEAK -- CLI-ARGS...

SRC is the checkout's `src` directory; qwhitney is imported from there and
nowhere else.  TRACE is "-" for an untraced job, or a path prefix where the
span recorder writes its spans when the job ends.  PEAK is "-" or a file
where the job writes its peak RSS in KiB when it ends.  The exit code is
the CLI's.
"""

import os
import resource
import sys

# A runaway job is killed by the kernel instead of stalling the benchmark.
resource.setrlimit(resource.RLIMIT_CPU, (150, 150))


def peak_rss_kib() -> int:
    """High-water RSS of this interpreter's own address space.

    The maxrss of getrusage and wait4 is no use here: on exec Linux carries
    the replaced address space's high-water RSS into it, and subprocess
    starts children with vfork, so that is the benchmark process's peak.
    VmHWM belongs to the address space the exec created.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


src, trace_path, peak_path, sep, *argv = sys.argv[1:]
if sep != "--":
    sys.exit("usage: child.py SRC TRACE PEAK -- CLI-ARGS...")
sys.path.insert(0, src)

recorder = None
if trace_path != "-":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracing

    recorder = tracing.install()

from qwhitney import cli  # noqa: E402

try:
    code = cli.main(argv)
finally:
    if recorder is not None:
        recorder.dump(trace_path)
    if peak_path != "-":
        with open(peak_path, "w", encoding="ascii") as fh:
            fh.write(str(peak_rss_kib()))
sys.exit(code)

"""Fresh-interpreter probe: runs argv lists through ``macwiretap.cli.main``
in-process and prints its own peak RSS as JSON.

    python3 perfbench/probe.py <src dir> <argv-list JSON file>

The parent times the whole launch for set-up time and reads ``peak_rss_kb``
for peak memory.  Output of the calls is captured and discarded.

Peak RSS is the kernel's ``VmHWM``: the high-water mark of this process's
own address space, which starts afresh at exec.  ``ru_maxrss`` would not
do: on Linux it carries the launching process's RSS across exec, so it
could never read below the parent's size.
"""

import contextlib
import io
import json
import sys


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fp:
        for line in fp:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    src, ops_file = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    with open(ops_file, encoding="utf-8") as fp:
        argvs = json.load(fp)
    from macwiretap import cli

    codes = []
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # counted by the parent, which runs the checks
                code = type(exc).__name__
        codes.append(code)
    print(json.dumps({"codes": codes, "peak_rss_kb": peak_rss_kb()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

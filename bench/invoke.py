"""Run one ergoqueue CLI invocation in this fresh interpreter and report its cost.

    python3 bench/invoke.py [--spans FILE] -- CLI-ARGS...

With ``src`` on PYTHONPATH.  Prints, as the last line of standard output, one
JSON object: ``setup_s`` (import ``ergoqueue.cli`` and build its parser),
``run_s`` (``cli.main(argv)`` until both output files are written),
``calibration_s`` (a fixed task timed before set-up and again after the run,
a measure of the machine's speed during this invocation), ``exit``,
``peak_rss_mb`` and ``numpy``.  With ``--spans`` the invocation is traced
(see layertrace.py), the spans go to FILE and the object gains ``layers``.
"""

from __future__ import annotations

import json
import sys
import time

CALIBRATION_ROUNDS = 30_000


def calibration_s() -> float:
    """Time a fixed stdlib-only task: float formatting, big-int shifts, appends.

    It runs no ergoqueue code, so its time moves only with the speed of the
    machine at that moment.
    """
    start = time.perf_counter()
    ones = (1 << 2048) - 1
    cells = []
    bits = 0
    for i in range(CALIBRATION_ROUNDS):
        cells.append(format(i * 0.25, ".17g"))
        bits += (ones >> (i & 1023)).bit_count()
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """High-water resident set of this process's own address space (Linux).

    Not ``ru_maxrss``: across fork and exec that also holds the parent's peak.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]

    calibration = calibration_s()
    start = time.perf_counter()
    from ergoqueue import cli

    cli.build_parser()
    setup_s = time.perf_counter() - start

    tracer = None
    if spans_path is not None:
        import layertrace

        tracer = layertrace.Tracer(trace_id=" ".join(argv)).install()

    start = time.perf_counter()
    code = cli.main(argv)
    run_s = time.perf_counter() - start
    peak_rss = peak_rss_mb()
    calibration += calibration_s()

    report = {
        "setup_s": setup_s,
        "run_s": run_s,
        "calibration_s": calibration,
        "exit": code,
        "peak_rss_mb": peak_rss,
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer is not None:
        tracer.write_spans(spans_path)
        report["layers"] = tracer.summary()
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

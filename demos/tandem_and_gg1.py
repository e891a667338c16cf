"""Two queues in series, then a single-server waiting line.

The tandem check is exact: with 0/1 arrivals and dyadic rates every state
is a dyadic float, so work conservation holds to the last bit, not to a
tolerance.
"""

import numpy as np

from ergoqueue.lindley import run_recursion, tandem_path
from ergoqueue.processes import IIDTable, OdometerProcess, parse_process, rng_for

HORIZON = 20_000
S_FIRST = 0.75
S_SECOND = 0.5
SEED = 12


def main():
    proc = OdometerProcess()
    y = proc.forward(HORIZON, rng_for(SEED))
    first, outs, second = tandem_path(y, S_FIRST, S_SECOND)

    print(f"tandem, {HORIZON} steps, rates {S_FIRST} then {S_SECOND}:")
    print(f"  station 1: input mean {y.mean():.4f}, output mean {outs.mean():.4f}, "
          f"final backlog {first[-1]:.2f}")
    print(f"  station 2: final backlog {second[-1]:.2f}")

    in_minus_out = float(np.sum(y) - np.sum(outs))
    backlog_change = float(first[-1] - first[0])
    print(f"  conservation: inflow - outflow = {in_minus_out}, "
          f"backlog change = {backlog_change}, equal: {in_minus_out == backlog_change}")

    # the first station smooths: its output never exceeds the rate
    print(f"  peak input {y.max():.2f}/step, peak output {outs.max():.2f}/step")
    print()

    # waiting times of successive customers at one server
    service = IIDTable((0.5, 1.0, 2.0), (0.5, 0.3, 0.2))
    gaps = parse_process("iid-table:0.5,1.5,2.5@0.2,0.5,0.3")
    rng = rng_for(SEED + 1)
    services = service.forward(10_000, rng)
    w = run_recursion(0.0, services - gaps.forward(10_000, rng))
    rho = 0.95 / 1.6  # mean service over mean gap
    print(f"single server: load {rho:.3f}")
    print(f"  mean wait {w.mean():.3f}, p99 {np.percentile(w, 99):.2f}, max {w.max():.2f}")
    print(f"  fraction served immediately: {(w == 0.0).mean():.3f}")


if __name__ == "__main__":
    main()

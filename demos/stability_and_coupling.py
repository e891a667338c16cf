"""Forgetting the initial condition.

Runs the same arrival stream through queue recursions started at different
backlogs.  At service rate 0.75 the drift is down and every start ends up
glued to the bottom path; at 0.4 the input mean already exceeds the rate
and the backlog grows without settling.
"""

import numpy as np

from ergoqueue.lindley import forward_couple, run_recursion
from ergoqueue.processes import OdometerProcess, rng_for

SERVICE = 0.75
HORIZON = 50_000
REPLICAS = 200
STARTS = (0.0, 2.0, 10.0, 50.0)
SEED = 7


def main():
    proc = OdometerProcess()
    lo, hi = proc.exact_mean_bounds()
    print(f"arrival mean: {float(lo):.10f} exactly "
          f"(untruncated set adds at most {float(hi - lo):.1e})")
    print(f"service rate {SERVICE}: drift {float(lo) - SERVICE:+.4f}, stable")
    print()

    # one stream, several starting backlogs
    z = proc.forward(HORIZON, rng_for(SEED)) - SERVICE
    paths = [run_recursion(x0, z) for x0 in STARTS]
    merged_at = None
    for k in range(HORIZON + 1):
        vals = {p[k] for p in paths}
        if len(vals) == 1:
            merged_at = k
            break
    print(f"starts {STARTS} merged into one path at step {merged_at}")
    for x0, p in zip(STARTS, paths):
        print(f"  x0={x0:5.1f}: value at merge {p[merged_at]:.2f}, final {p[-1]:.2f}")
    print()

    # coupling times over independent replicas, top start 10
    times = []
    for r in range(REPLICAS):
        y = proc.forward(HORIZON, rng_for(SEED, r))
        res = forward_couple(10.0, [y - SERVICE])
        times.append(res.coupling_time)
    hit = [t for t in times if t is not None]
    print(f"coupling from backlog 10, {REPLICAS} replicas, horizon {HORIZON}:")
    print(f"  coupled {len(hit)}/{REPLICAS}")
    print(f"  time to couple: median {int(np.median(hit))}, "
          f"p90 {int(np.percentile(hit, 90))}, max {max(hit)}")
    print()

    # below the mean nothing settles; show the raw growth instead
    z_bad = proc.forward(HORIZON, rng_for(SEED + 1)) - 0.4
    grown = run_recursion(0.0, z_bad)
    print(f"service 0.4 < E[Y]: backlog after {HORIZON} steps is {grown[-1]:.0f} "
          f"(vs {max(p[-1] for p in paths):.2f} when stable)")


if __name__ == "__main__":
    main()

"""Why the adding-machine queue has no exponential tail.

Long all-ones bursts carry probability 2^-(i+2) but would cost
2^-(decay * offset) = 2^-(2i) under any exponential tail with the matching
decay, so the burst beats the bound at every depth.  The reports below
check that chain exactly, then cross-check one depth by Monte Carlo.
"""

import numpy as np

from ergoqueue.estimators import burst_probability_report, queue_tail_run
from ergoqueue.processes import OdometerProcess, rng_for

MC_BAND = 11
MC_SAMPLES = 1 << 18
SEED = 5


def main():
    print("band   window   offset   burst prob      exponential target   beats it")
    for i in range(11, 21):
        rep = burst_probability_report(i, 1, rng_for(SEED, i))
        print(f"  {i:2d}  {rep.window:7d}  {rep.offset:6d}   "
              f"{str(rep.exact_lower):>13}   {str(rep.target):>17}   {rep.analytic_pass}")
    print()

    rep = burst_probability_report(MC_BAND, MC_SAMPLES, rng_for(SEED))
    n, q = rep.window, rep.offset
    print(f"Monte Carlo at band {MC_BAND}: P(sum over {n} steps > 0.75*{n} + {q})")
    print(f"  {rep.hits} hits in {MC_SAMPLES} windows: p_hat = {rep.p_hat:.3e} "
          f"(se {rep.p_se:.1e})")
    print(f"  exact lower bound {float(rep.exact_lower):.3e}, "
          f"exponential target {float(rep.target):.3e}")
    print()

    # the simulated stationary tail bends the same way: log-survival flattens
    # as the threshold grows, while a geometric tail would keep the same slope
    proc = OdometerProcess()
    thresholds = [0.5 * k for k in range(1, 13)]
    tail = queue_tail_run(proc, 0.75, thresholds, 400_000, rng=rng_for(SEED + 1))
    print(f"simulated queue at s=0.75, horizon 400000 (fitted decay "
          f"{tail.fitted_decay:.3f}):")
    print("  threshold   survival     geometric fit")
    sv = tail.tail.survival
    fit0 = sv[0] * np.exp(tail.fitted_decay * thresholds[0])
    for q, p in zip(thresholds, sv):
        if p == 0.0:
            break
        print(f"    {q:5.1f}     {p:.2e}     {fit0 * np.exp(-tail.fitted_decay * q):.2e}")


if __name__ == "__main__":
    main()

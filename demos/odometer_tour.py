"""A walk along the binary adding-machine orbit.

Everything here is integer arithmetic on counters, so every printed number
is exact: measures are fractions, membership is a residue test, and the orbit
is literally counter minus one per step.
"""

from fractions import Fraction

import numpy as np

from ergoqueue import odometer as od

K = 16  # small precision so the counters are readable


def bits(p):
    return "".join(str(p.bit(l)) for l in range(1, p.precision + 1))


def main():
    p = od.DyadicPoint.from_fraction(Fraction(11, 16), K)
    print(f"point 11/16 at precision {K}: counter {p.counter} = {p.counter:#06x}")
    print(f"  expansion bits (first digit first): {bits(p)}")
    print()

    print("ten forward steps (each subtracts one from the counter):")
    q = p
    for k in range(10):
        q = od.apply_map(q)
        tag = "arrival" if od.in_arrival_set(q) else "       "
        print(f"  step {k + 1:2d}: counter {q.counter:5d}  value {str(q.value):>12}  {tag}")
    print()

    back = od.apply_power(p, -5)
    print(f"five steps backward: counter {back.counter} (= {p.counter} + 5)")
    print()

    # band measures: each band is half as likely as a run twice as long
    print("band  run length  measure      union so far")
    for i in range(0, 9):
        m = od.band_measure(i)
        total = od.arrival_set_measure(i)
        run = od.band(i)[1] or 1  # a seed of band i starts lo arrivals; band 0 holds single ones
        print(f"  {i}   {run:6d}      {str(m):>8}    {str(total):>14}")
    print(f"limit of the union stays below 1/2: at depth 31 it is "
          f"{float(od.arrival_set_measure(31)):.6f}")
    print()

    # a window of consecutive arrivals, read off a seed of band 6
    seed = od.sample_run_seed(6, np.random.default_rng(3), K)
    w = od.membership_window(seed, 80)
    run = int(w.argmin()) if not w.all() else len(w)
    print(f"window of 80 steps from a band-6 run seed (counter {seed.counter}):")
    print("  " + "".join("1" if b else "." for b in w))
    print(f"  leading run of ones: {run} (the band guarantees at least 32)")
    print()

    # the all-ones point is the one place the map has no forward image
    top = od.DyadicPoint((1 << K) - 1, K)
    print(f"counter {top.counter} (all ones) never arrives: "
          f"in_arrival_set = {od.in_arrival_set(top)}")


if __name__ == "__main__":
    main()

"""Queue stability under stationary ergodic arrivals.

Four layers, each usable on its own and importing only layers listed before
it (``processes`` imports ``odometer``); ``cli`` sits on top of all four.
Every name is imported from its module; the package itself exports none.

``lindley``
    One-sided recursions (queue length, waiting time), the backward-supremum
    construction of the stationary state, forward coupling, tandem output.
``odometer``
    Exact adding-machine dynamics on binary expansions: orbits, and the
    arrival bands, with rational measures, whose all-ones runs defeat
    exponential tail bounds.
``processes``
    Stationary input streams (iid, binary Markov, recorded traces, and the
    counter-driven arrival process) behind one interface.
``estimators``
    Scaled log-moment (cumulant) curves, tail decay extraction, empirical
    survival functions, and packaged exact-bound experiments.
"""

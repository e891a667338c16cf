"""Queue stability under stationary ergodic arrivals.

Four layers, each usable on its own and importing only layers listed before
it (``processes`` imports ``odometer``); ``cli`` sits on top of all four:

``lindley``
    One-sided recursions (queue length, waiting time), the backward-supremum
    construction of the stationary state, forward coupling, tandem output.
``odometer``
    Exact adding-machine dynamics on binary expansions: orbits, dyadic
    interval sets with rational measures, and the arrival bands whose
    all-ones runs defeat exponential tail bounds.
``processes``
    Stationary input streams (iid, binary Markov, recorded traces, and the
    counter-driven arrival process) behind one interface.
``estimators``
    Scaled log-moment (cumulant) curves, tail decay extraction, empirical
    survival functions, and packaged exact-bound experiments.
"""

from .lindley import (
    CoupleResult,
    LoynesResult,
    QueueTrace,
    forward_couple,
    loynes_prefix_maxima,
    loynes_sup,
    partial_sums,
    queue_path,
    run_recursion,
    tandem_path,
    waiting_path,
)
from .odometer import (
    DEFAULT_PRECISION,
    DyadicInterval,
    DyadicIntervalSet,
    DyadicPoint,
    ExceptionalPointError,
    OrbitRangeError,
    PrecisionError,
    apply_inverse,
    apply_map,
    apply_power,
    arrival_band,
    arrival_set_components,
    arrival_set_measure,
    arrival_set_measures,
    arrival_set_truncated,
    band_limit,
    first_one_index,
    in_arrival_band,
    in_arrival_set,
    in_run_seed,
    interval_index,
    run_seed_set,
    sample_run_seed,
    uniform_point,
)
from .processes import (
    BinaryMarkov,
    IIDBernoulli,
    IIDTable,
    OdometerProcess,
    ProcessError,
    TraceError,
    TraceProcess,
    parse_process,
    rng_for,
)
from .estimators import (
    BurstCumulantReport,
    BurstParams,
    BurstProbabilityReport,
    CumulantEstimate,
    DecayResult,
    QueueTailReport,
    ScalingFunctions,
    TailEstimate,
    burst_cumulant_report,
    burst_probability_report,
    decay_delta,
    empirical_tail,
    estimate_lambda_grid,
    lambda_from_sums,
    queue_tail_run,
    scaled_lambda_from_sums,
)

__version__ = "0.1.0"

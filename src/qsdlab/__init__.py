"""Quasi-stationary and quasi-ergodic measures of absorbed Markov chains.

Pipeline: describe a kernel with a :class:`~qsdlab.kernels.KernelSpec`,
discretize it with :func:`~qsdlab.kernels.build_operator`, extract the
peripheral spectrum with :func:`~qsdlab.spectral.peripheral_spectrum`, and
read off the conditioned measures and rates in :mod:`qsdlab.qsd`.  Monte
Carlo (:mod:`qsdlab.simulate`) and exact small-chain algebra
(:mod:`qsdlab.oracle`) cross-check the spectral route from two independent
directions.
"""

from . import errors
from .kernels import (
    DiscreteOperator,
    KernelSpec,
    StateGrid,
    build_operator,
    check_h1_modulus,
    check_h2_reachability,
)
from .measures import tv_distance, variation_norm
from .oracle import FiniteChain, exact_qsd_qed, exact_spectrum, lobo_sum
from .qsd import (
    ConditionedLaw,
    CyclicPartition,
    RateFit,
    cesaro_fit,
    cyclic_components,
    fit_yaglom_rate,
    mass_decay_check,
    quasi_ergodic_measure,
    quasi_stationary_measure,
    yaglom_iterate,
)
from .registry import builtin_names, get_spec
from .simulate import (
    ConditionedEstimate,
    TrajectoryBatch,
    estimate_birkhoff,
    estimate_yaglom,
    simulate_batch,
)
from .spectral import (
    SpectralData,
    peripheral_spectrum,
    spectral_radius,
    subdominant_rate,
)

__version__ = "0.1.0"

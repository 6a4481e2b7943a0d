"""Recombination dynamics across a finite set of locations.

The library solves the discrete-time migration-recombination recursion three
independent ways (direct iteration, the labelled-partition linearisation, and
Monte Carlo over the dual jump process), characterises the limiting and
quasi-limiting behaviour, and carries the same programme over to continuous
time. `recolat.cli` exposes everything as a command line tool.
"""

from .partitions import (
    LabelledPartition,
    Partition,
    coarsest,
    enumerate_labelled_partitions,
    enumerate_partitions,
    finest,
    is_refinement,
    meet,
    whole_labelled,
)
from .measures import Distribution, Metapopulation, TypeSpace, recombinator, tensor
from .forward import (
    RecombinationModel,
    backward_from_forward,
    iterate,
    marginal_step,
    migrate,
    recombine,
    step,
)
from .linear import (
    LinearSystem,
    build_base_matrix,
    build_linear_system,
    build_recombinator_vector,
    matrix_power,
    solve_linear,
)
from .lpp import DualityEstimate, duality_estimate, replicate_rng, simulate, two_site_closed_form
from .asymptotics import (
    QldReport,
    StationaryProfile,
    absorption_tail,
    conditioned_law,
    fitted_decay_rate,
    limit_metapopulation,
    qld,
    separating_support,
    stationary_distribution,
)
from .ctime import (
    CtModel,
    CtTrajectory,
    build_generator,
    ct_rhs,
    ct_simulate,
    ct_solve_dual,
    ct_two_site,
    integrate,
)

__all__ = [
    "LabelledPartition",
    "Partition",
    "coarsest",
    "enumerate_labelled_partitions",
    "enumerate_partitions",
    "finest",
    "is_refinement",
    "meet",
    "whole_labelled",
    "Distribution",
    "Metapopulation",
    "TypeSpace",
    "recombinator",
    "tensor",
    "RecombinationModel",
    "backward_from_forward",
    "iterate",
    "marginal_step",
    "migrate",
    "recombine",
    "step",
    "LinearSystem",
    "build_base_matrix",
    "build_linear_system",
    "build_recombinator_vector",
    "matrix_power",
    "solve_linear",
    "DualityEstimate",
    "duality_estimate",
    "replicate_rng",
    "simulate",
    "two_site_closed_form",
    "QldReport",
    "StationaryProfile",
    "absorption_tail",
    "conditioned_law",
    "fitted_decay_rate",
    "limit_metapopulation",
    "qld",
    "separating_support",
    "stationary_distribution",
    "CtModel",
    "CtTrajectory",
    "build_generator",
    "ct_rhs",
    "ct_simulate",
    "ct_solve_dual",
    "ct_two_site",
    "integrate",
]

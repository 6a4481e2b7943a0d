"""Linear embedding of the generation map.

Applying the recombinator of every location-labelled partition to the current
metapopulation turns the nonlinear generation step into one matrix: the
vector of recombinator values evolves by a stochastic transition matrix whose
row for a labelled partition factorises over its blocks, each block
independently drawing a sub-partition from the induced recombination
distribution and a source location per new block from the migration row of
its old label. Iterating is then a matrix power, and the location-alpha
distribution at time t sits in the component of the single-block state
labelled alpha.

One routine, `closure`, builds every matrix of the block process: it visits
the states reachable from the starts, asks each state once for its weighted
successors, sorts the states and assembles a dense matrix, row = source. Its
three callers are `build_linear_system` (the labelled transition matrix T),
`build_base_matrix` (the label-free block matrix) and
`ctime.build_generator` (the jump generator Q, which then sets its diagonal
to minus the row sums). States are sorted by the canonical enumeration order (base
partition by restricted growth string, then label vector). Because a move
never coarsens the base partition, and a refinement never comes earlier in
that order, each matrix is block upper triangular, one block per base
partition.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from .forward import RecombinationModel, migrecomb_probs
from .measures import Distribution, Metapopulation, block_products
from .partitions import LabelledPartition, Partition, glued_labelled, whole_labelled

__all__ = [
    "LinearSystem",
    "build_linear_system",
    "build_recombinator_vector",
    "closure",
    "matrix_power",
    "build_base_matrix",
    "solve_linear",
]


def default_starts(model) -> tuple[LabelledPartition, ...]:
    """One single-block state per location, covering all sites."""
    return tuple(
        whole_labelled(model.sites, alpha) for alpha in range(model.num_locations)
    )


def checked_starts(model, starts=None) -> tuple[LabelledPartition, ...]:
    """`starts`, or `default_starts` when None; each start must cover every
    site of the model and carry only its location labels."""
    if starts is None:
        return default_starts(model)
    starts = tuple(starts)
    full = set(model.sites)
    for s in starts:
        if set(s.base_set) != full:
            raise ValueError(f"start state {s!r} does not cover all sites")
        if any(l >= model.num_locations for l in s.labels):
            raise ValueError(f"start state {s!r} uses labels outside the model")
    return starts


def closure(
    starts: Iterable[Hashable],
    successors: Callable[[Hashable], Iterable[tuple[Hashable, float]]],
    key: Callable,
) -> tuple[list, np.ndarray]:
    """States reachable from `starts`, sorted by `key`, and their dense
    matrix with row = source.

    `successors(state)` yields (target, weight) pairs. It runs once per
    reachable state; weights of a repeated target add up.
    """
    rows = {}
    frontier = list(dict.fromkeys(starts))
    seen = set(frontier)
    while frontier:
        state = frontier.pop()
        rows[state] = row = list(successors(state))
        for target, _ in row:
            if target not in seen:
                seen.add(target)
                frontier.append(target)
    states = sorted(seen, key=key)
    pos = {s: i for i, s in enumerate(states)}
    matrix = np.zeros((len(states), len(states)))
    for state, row in rows.items():
        i = pos[state]
        for target, weight in row:
            matrix[i, pos[target]] += weight
    return states, matrix


def transition_row(
    model: RecombinationModel, bdelta: LabelledPartition
) -> dict[LabelledPartition, float]:
    """One-step law out of `bdelta`: blocks act independently, so the row is
    the product of the per-block laws glued together."""
    partial: list[tuple[tuple, float]] = [((), 1.0)]
    for block, label in bdelta.items:
        law = [
            (piece.items, float(vec[label]))
            for piece, vec in migrecomb_probs(model, block).items()
        ]
        partial = [
            (items + piece, q)
            for items, p in partial
            for piece, w in law
            if (q := p * w) > 0.0
        ]
    row: dict[LabelledPartition, float] = {}
    for items, p in partial:
        target = glued_labelled(items)
        row[target] = row.get(target, 0.0) + p
    return row


def build_recombinator_vector(
    mu: Metapopulation, states: Sequence[LabelledPartition]
) -> np.ndarray:
    """Recombinator values of `mu` along `states`, one row per state."""
    return block_products(mu.as_array(), mu.support, [s.items for s in states])[:, 0]


class LinearSystem:
    """Matrix over the labelled partitions reachable from the start states:
    the transition matrix T of `build_linear_system`, or the jump generator
    Q of `ctime.build_generator`."""

    __slots__ = ("model", "starts", "states", "pos", "matrix")

    def __init__(self, model, starts, states, matrix):
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "starts", tuple(starts))
        object.__setattr__(self, "states", list(states))
        object.__setattr__(self, "pos", {s: i for i, s in enumerate(states)})
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, name, value):
        raise AttributeError("LinearSystem is immutable")


def build_linear_system(
    model: RecombinationModel,
    starts: Sequence[LabelledPartition] | None = None,
) -> LinearSystem:
    """Transition matrix T over the labelled partitions reachable from
    `starts` (default: one single-block state per location)."""
    starts = checked_starts(model, starts)
    states, matrix = closure(
        starts, lambda s: transition_row(model, s).items(), LabelledPartition.sort_key
    )
    return LinearSystem(model, starts, states, matrix)


def base_transition_row(model: RecombinationModel, delta: Partition) -> dict[Partition, float]:
    """Label-free one-step law: each block independently draws its induced
    sub-partition from the recombination distribution restricted to it."""
    partial: list[tuple[tuple, float]] = [((), 1.0)]
    for block in delta.blocks:
        marg = model.marginal_recombination(block)
        partial = [
            (blocks + piece.blocks, p * w)
            for blocks, p in partial
            for piece, w in marg.items()
        ]
    row: dict[Partition, float] = {}
    for blocks, p in partial:
        target = Partition(blocks)
        row[target] = row.get(target, 0.0) + p
    return row


def build_base_matrix(
    model: RecombinationModel, start: Partition | None = None
) -> tuple[list[Partition], np.ndarray]:
    """Transition matrix of the label-free block process over the base
    partitions reachable from `start` (default: the one-block partition)."""
    if start is None:
        start = Partition([model.sites])
    return closure([start], lambda d: base_transition_row(model, d).items(), Partition.rgs)


def matrix_power(matrix: np.ndarray, t: int) -> np.ndarray:
    """Binary powering. Negative powers are refused: numpy would silently
    invert. For t = 1 numpy hands back `matrix` itself, not a copy."""
    if t < 0:
        raise ValueError("negative power")
    return np.linalg.matrix_power(matrix, t)


def solve_linear(
    mu0: Metapopulation,
    model: RecombinationModel,
    t: int,
    system: LinearSystem | None = None,
) -> Metapopulation:
    """Metapopulation after t generations, computed through the linear
    embedding instead of forward iteration."""
    if system is None:
        system = build_linear_system(model)
    if len(mu0) != model.num_locations:
        raise ValueError("initial state has the wrong number of locations")
    weights = build_recombinator_vector(mu0, system.states)
    evolved = matrix_power(system.matrix, t) @ weights
    out = []
    for alpha in range(model.num_locations):
        i = system.pos[whole_labelled(model.sites, alpha)]
        out.append(Distribution(mu0.space, mu0.support, evolved[i], atol=1e-9))
    return Metapopulation(out)

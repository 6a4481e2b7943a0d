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

State spaces are restricted to the closure reachable from the chosen start
states and sorted by the canonical enumeration order (base partition by
restricted growth string, then label vector). Because a transition never
coarsens the base partition, the matrix is block lower triangular in that
order, one block per base partition.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .forward import RecombinationModel, migrecomb_probs
from .measures import Distribution, Metapopulation, block_products
from .partitions import LabelledPartition, Partition, whole_labelled

__all__ = [
    "LinearSystem",
    "build_linear_system",
    "build_recombinator_vector",
    "matrix_power",
    "reachable_partitions",
    "build_base_matrix",
    "solve_linear",
]


def default_starts(model: RecombinationModel) -> tuple[LabelledPartition, ...]:
    """One single-block state per location, covering all sites."""
    return tuple(
        whole_labelled(model.sites, alpha) for alpha in range(model.num_locations)
    )


def _block_laws(model: RecombinationModel, cache: dict, block: tuple[int, ...]):
    """Per-block one-step law: entries (labelled partition of block, prob vector
    indexed by the block's current label)."""
    law = cache.get(block)
    if law is None:
        probs = migrecomb_probs(model, block)
        law = list(probs.entries.items())
        cache[block] = law
    return law


def transition_row(
    model: RecombinationModel,
    bdelta: LabelledPartition,
    _cache: dict | None = None,
) -> dict[LabelledPartition, float]:
    """One-step law out of `bdelta`: blocks act independently, so the row is
    the product of the per-block laws glued together."""
    cache = {} if _cache is None else _cache
    row: dict[LabelledPartition, float] = {}
    partial: list[tuple[tuple, float]] = [((), 1.0)]
    for block, label in bdelta.items:
        law = _block_laws(model, cache, block)
        grown = []
        for items, p in partial:
            for piece, vec in law:
                q = p * vec[label]
                if q > 0.0:
                    grown.append((items + piece.items, q))
        partial = grown
    for items, p in partial:
        target = LabelledPartition(items)
        row[target] = row.get(target, 0.0) + p
    return row


def _sorted_states(states: Iterable[LabelledPartition]) -> list[LabelledPartition]:
    return sorted(states, key=lambda s: s.sort_key())


def build_recombinator_vector(
    mu: Metapopulation, states: Sequence[LabelledPartition]
) -> np.ndarray:
    """Recombinator values of `mu` along `states`, one row per state."""
    return block_products(mu.as_array(), mu.support, [s.items for s in states])[:, 0]


class LinearSystem:
    """Transition matrix over the labelled partitions reachable from the
    start states."""

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
    if starts is None:
        starts = default_starts(model)
    starts = tuple(starts)
    full = set(model.sites)
    for s in starts:
        if set(s.base_set) != full:
            raise ValueError(f"start state {s!r} does not cover all sites")
        if any(l >= model.num_locations for l in s.labels):
            raise ValueError(f"start state {s!r} uses labels outside the model")

    cache: dict = {}
    rows: dict[LabelledPartition, dict[LabelledPartition, float]] = {}
    frontier = list(dict.fromkeys(starts))
    seen = set(frontier)
    while frontier:
        state = frontier.pop()
        row = transition_row(model, state, cache)
        rows[state] = row
        for target in row:
            if target not in seen:
                seen.add(target)
                frontier.append(target)

    states = _sorted_states(seen)
    pos = {s: i for i, s in enumerate(states)}
    matrix = np.zeros((len(states), len(states)))
    for state, row in rows.items():
        i = pos[state]
        for target, p in row.items():
            matrix[i, pos[target]] = p
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


def reachable_partitions(model: RecombinationModel, start: Partition) -> list[Partition]:
    """All base partitions reachable from `start`, canonical order."""
    seen = {start}
    frontier = [start]
    while frontier:
        delta = frontier.pop()
        for target in base_transition_row(model, delta):
            if target not in seen:
                seen.add(target)
                frontier.append(target)
    return sorted(seen, key=lambda p: p.rgs())


def build_base_matrix(
    model: RecombinationModel, start: Partition | None = None
) -> tuple[list[Partition], np.ndarray]:
    """Transition matrix of the label-free block process from `start`."""
    if start is None:
        start = Partition([model.sites])
    states = reachable_partitions(model, start)
    pos = {p: i for i, p in enumerate(states)}
    matrix = np.zeros((len(states), len(states)))
    for delta in states:
        i = pos[delta]
        for target, p in base_transition_row(model, delta).items():
            matrix[i, pos[target]] = p
    return states, matrix


def matrix_power(matrix: np.ndarray, t: int) -> np.ndarray:
    """Plain repeated multiplication for small powers, binary powering above."""
    if t < 0:
        raise ValueError("negative power")
    if t <= 8:
        out = np.eye(matrix.shape[0])
        for _ in range(t):
            out = out @ matrix
        return out
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

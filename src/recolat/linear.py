"""Linear embedding of the generation map.

Applying the recombinator of every location-labelled partition to the current
metapopulation turns the nonlinear generation step into one stochastic matrix
T. Iterating is then a matrix power, and the location-alpha distribution at
time t sits in the component of the single-block state labelled alpha. The
recombinator vector of the initial state is the labelled readout of
`measures`, re-exported here as `build_recombinator_vector`. `start_rows`
picks the start rows of `T^t`, of exp(tQ) or of a two-site block chain and
only then multiplies them into it.

Each block of a state independently draws a sub-partition from the induced
recombination law, and each new block draws its location from the migration
row of its parent's label. So T is the label-free block matrix B fanned out
through the migration matrix M:
T[(delta, a), (delta', b)] = B[delta, delta'] * prod_j M[a_src(j), b_j],
where src(j) is the block of delta holding the first site of new block j.
The jump generator Q of `ctime.build_generator` is built the same way: the
label-free split-rate matrix B_Q fanned out through the identity (fragments
keep their parent's label), plus on each base's label block the Kronecker
sum of the migration generator G over its blocks (one block relabels at a
time), with minus the row sums on the diagonal.

One routine, `closure`, builds B and B_Q, and one, `fan_out`, lifts either
to the labelled states reachable from the starts. States are sorted by the
canonical enumeration order (base partition by restricted growth string,
then label vector). A move never coarsens the base partition, and a
refinement never comes earlier in that order, so each matrix is block upper
triangular, one block per base partition.
"""

from __future__ import annotations

import itertools
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from .forward import RecombinationModel, check_horizon, check_initial
from .measures import Metapopulation, build_recombinator_vector
from .partitions import LabelledPartition, Partition, _fill, _Frozen, whole_labelled

__all__ = [
    "LinearSystem",
    "build_linear_system",
    "build_recombinator_vector",
    "closure",
    "fan_out",
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
    matrix with row = source: the label-free block matrix B or split-rate
    matrix B_Q, over base partitions.

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


class LinearSystem(_Frozen):
    """Matrix over the labelled partitions reachable from the start states:
    the transition matrix T of `build_linear_system`, or the jump generator
    Q of `ctime.build_generator`."""

    __slots__ = ("starts", "states", "pos", "matrix")

    def __init__(self, starts, states, matrix):
        pos = {s: i for i, s in enumerate(states)}
        _fill(self, starts=tuple(starts), states=list(states), pos=pos, matrix=matrix)


def build_linear_system(
    model: RecombinationModel,
    starts: Sequence[LabelledPartition] | None = None,
) -> LinearSystem:
    """Transition matrix T over the labelled partitions reachable from
    `starts` (default: one single-block state per location): the block
    matrix B fanned out through the migration matrix M."""
    starts = checked_starts(model, starts)
    bases, base = closure(
        (s.base for s in starts), lambda d: base_transition_row(model, d).items(), Partition.rgs
    )
    return LinearSystem(starts, *fan_out(starts, bases, base, model.migration))


def fan_out(starts, bases, base, lift, within=None) -> tuple[list, np.ndarray]:
    """Labelled states reachable from `starts` and their dense matrix, from
    the label-free matrix `base` over `bases`: each nonzero base[i, j] fills
    the block of i's label vectors against j's, in product order, times one
    factor lift[a_src(k), b_k] per new block k. `within[k]`, if given, is
    added to the diagonal block of every base of k blocks. States that no
    positive entry reaches (`lift` or `within` may have zeros) are left out."""
    num_loc = len(lift)
    owners = [d.rgs() for d in bases]
    at = np.cumsum([0] + [num_loc ** len(d) for d in bases]).tolist()
    matrix = np.zeros((at[-1], at[-1]))
    for i, j in zip(*np.nonzero(base)):
        fan = base[i, j]
        for axis, block in enumerate(bases[j].blocks, len(bases[i])):
            shape = [1] * (len(bases[i]) + len(bases[j]))
            shape[owners[i][block[0]]] = shape[axis] = num_loc
            fan = fan * lift.reshape(shape)
        matrix[at[i] : at[i + 1], at[j] : at[j + 1]] = fan.reshape(at[i + 1] - at[i], -1)
    if within is not None:
        for i, d in enumerate(bases):
            matrix[at[i] : at[i + 1], at[i] : at[i + 1]] += within[len(d)]

    states = [
        LabelledPartition._from_canonical(tuple(zip(d.blocks, labels)))
        for d in bases
        for labels in itertools.product(range(num_loc), repeat=len(d))
    ]
    reach = np.zeros(len(states), dtype=bool)
    reach[[states.index(s) for s in starts]] = True
    while (grown := reach | (reach @ matrix > 0)).sum() > reach.sum():
        reach = grown
    if reach.all():
        return states, matrix
    keep = np.flatnonzero(reach)
    return [states[k] for k in keep], matrix[np.ix_(keep, keep)]


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


def start_rows(
    law: np.ndarray, mu0: Metapopulation, model, system: LinearSystem
) -> Metapopulation:
    """Rows of the propagated law `law` (T^t or exp(tQ) over the states of
    `system`) at the single-block starts, applied to the recombinator vector
    of `mu0`: the metapopulation at time t. `law[rows]` is all it reads of
    the law, so a law may compute only the rows asked for. It only reads
    out: callers check `mu0` against `model` before they build anything."""
    rows = [system.pos.get(s) for s in default_starts(model)]
    if None in rows:
        raise ValueError(f"the system lacks the single-block start of location {rows.index(None)}")
    evolved = law[rows] @ build_recombinator_vector(mu0, system.states)
    return Metapopulation.from_stack(mu0.space, mu0.support, evolved, atol=1e-9)


def solve_linear(
    mu0: Metapopulation,
    model: RecombinationModel,
    t: int,
    system: LinearSystem | None = None,
) -> Metapopulation:
    """Metapopulation after t generations, computed through the linear
    embedding instead of forward iteration."""
    check_horizon(t, generations=True)
    check_initial(mu0, model, full=True)
    if system is None:
        system = build_linear_system(model)
    return start_rows(matrix_power(system.matrix, t), mu0, model, system)

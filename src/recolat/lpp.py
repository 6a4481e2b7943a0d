"""Monte Carlo over the block-splitting location process, and the two-site
closed form.

The process runs backwards through the generations: a state is a labelled
partition, each block tracking a segment of sites and the location of the
ancestor currently carrying it. Per step every block independently draws a
partition from the full recombination distribution, splits along its induced
trace, and each fragment then draws its new location from the migration row
of the old label; the split happens before the relabelling. Averaging the
recombinator of the final state applied to the initial metapopulation over
replicates estimates the forward solution started from a single-block state.

Replicates use counter-based bit generators keyed by (seed, replicate), so
any replicate can be regenerated in isolation and ensembles are reproducible
regardless of scheduling.
"""

from __future__ import annotations

import weakref
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .forward import RecombinationModel
from .linear import build_recombinator_vector, matrix_power
from .measures import Distribution, Metapopulation, block_products
from .partitions import LabelledPartition, Partition, _by_block_min, whole_labelled

_TABLES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def replicate_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for one replicate: counter-based, keyed by
    (seed, stream)."""
    if seed < 0 or stream < 0:
        raise ValueError("seed and stream must be non-negative")
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


class _StreamPool:
    """Reuses one bit generator across replicates by resetting its key;
    streams are bitwise identical to fresh replicate_rng(seed, stream)."""

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError("seed and stream must be non-negative")
        self._bg = np.random.Philox(key=[seed, 0])
        self.generator = np.random.Generator(self._bg)
        self._key = np.zeros(2, dtype=np.uint64)
        self._key[0] = seed
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64), "key": self._key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def select(self, stream: int) -> np.random.Generator:
        self._key[1] = stream
        self._bg.state = self._state
        return self.generator


def _sampling_tables(model: RecombinationModel):
    tables = _TABLES.get(model)
    if tables is None:
        parts = [tuple(frozenset(b) for b in p.blocks) for p in model.recomb]
        cum_r = np.cumsum(np.fromiter(model.recomb.values(), dtype=float))
        cum_r[-1] = 1.0
        cum_m = np.cumsum(model.migration, axis=1)
        cum_m[:, -1] = 1.0
        # plain lists: bisect beats array searchsorted at these sizes
        tables = (parts, cum_r.tolist(), [row.tolist() for row in cum_m])
        _TABLES[model] = tables
    return tables


@dataclass(frozen=True)
class LppTrajectory:
    """States at 0..t; splitting only refines, so bases are monotone."""

    states: tuple[LabelledPartition, ...]
    absorption_time: int | None

    @property
    def final(self) -> LabelledPartition:
        return self.states[-1]


def lpp_step(
    bdelta: LabelledPartition, model: RecombinationModel, rng: np.random.Generator
) -> LabelledPartition:
    """One backward generation: split every block along an independently
    drawn partition, then relabel each fragment by migration."""
    parts, cum_r, cum_m = _sampling_tables(model)
    blocks = bdelta.items
    split_us = rng.random(len(blocks))
    pieces: list[tuple[tuple[tuple[int, ...], ...], int]] = []
    total = 0
    last = len(parts) - 1
    for (block, label), u in zip(blocks, split_us):
        if len(block) == 1:
            frags: tuple[tuple[int, ...], ...] = (block,)
        else:
            draw = parts[min(bisect_right(cum_r, u), last)]
            bset = frozenset(block)
            frags = tuple(
                tuple(sorted(bset & piece)) for piece in draw if bset & piece
            )
        pieces.append((frags, label))
        total += len(frags)
    label_us = rng.random(total)
    items: list[tuple[tuple[int, ...], int]] = []
    i = 0
    for frags, label in pieces:
        row = cum_m[label]
        lastloc = len(row) - 1
        for frag in frags:
            items.append((frag, min(bisect_right(row, label_us[i]), lastloc)))
            i += 1
    items.sort(key=_by_block_min)
    return LabelledPartition._from_canonical(tuple(items))


def simulate(
    bdelta0: LabelledPartition,
    model: RecombinationModel,
    t: int,
    replicates: int,
    seed: int = 0,
):
    """Yield `replicates` independent trajectories of length t+1.

    Lazy: consume the generator to keep memory flat for large ensembles.
    Replicate i is driven by replicate_rng(seed, i).
    """
    if t < 0:
        raise ValueError("negative horizon")
    if replicates < 1:
        raise ValueError("need at least one replicate")
    nsites = model.num_sites
    if set(bdelta0.base_set) != set(model.sites):
        raise ValueError("start state must cover all sites")
    pool = _StreamPool(seed)
    for rep in range(replicates):
        rng = pool.select(rep)
        states = [bdelta0]
        absorbed = None if len(bdelta0) < nsites else 0
        for k in range(t):
            nxt = lpp_step(states[-1], model, rng)
            states.append(nxt)
            if absorbed is None and len(nxt) == nsites:
                absorbed = k + 1
        yield LppTrajectory(tuple(states), absorbed)


def state_histograms(
    bdelta0: LabelledPartition,
    model: RecombinationModel,
    t: int,
    replicates: int,
    seed: int = 0,
) -> list[dict[LabelledPartition, int]]:
    """Per-generation counts of the ensemble's states."""
    hists: list[dict[LabelledPartition, int]] = [dict() for _ in range(t + 1)]
    for traj in simulate(bdelta0, model, t, replicates, seed):
        for k, state in enumerate(traj.states):
            hists[k][state] = hists[k].get(state, 0) + 1
    return hists


@dataclass(frozen=True)
class DualityEstimate:
    """Monte Carlo estimate of one location's distribution at time t."""

    estimate: Distribution
    stderr: np.ndarray
    replicates: int
    final_counts: dict[LabelledPartition, int]


def duality_estimate(
    location: int,
    mu0: Metapopulation,
    model: RecombinationModel,
    t: int,
    replicates: int,
    seed: int = 0,
) -> DualityEstimate:
    """Estimate the time-t distribution at `location` by averaging the
    recombinator of the simulated final state applied to the initial
    metapopulation.

    Identical final states are grouped before averaging, so the reduction is
    a fixed-order deterministic sum no matter how replicates are scheduled;
    the standard error is the exact per-coordinate sample standard error of
    the grouped ensemble.
    """
    if not 0 <= location < model.num_locations:
        raise ValueError(f"location {location} out of range")
    start = whole_labelled(model.sites, location)
    counts: dict[LabelledPartition, int] = {}
    for traj in simulate(start, model, t, replicates, seed):
        counts[traj.final] = counts.get(traj.final, 0) + 1

    ordered = sorted(counts, key=lambda s: s.sort_key())
    vectors = build_recombinator_vector(mu0, ordered)
    weights = np.array([counts[s] for s in ordered], dtype=float)
    mean = (weights / replicates) @ vectors
    if replicates > 1:
        centered = vectors - mean
        var = (weights @ centered**2) / (replicates - 1)
        stderr = np.sqrt(var / replicates)
    else:
        stderr = np.full_like(mean, np.nan)
    est = Distribution(mu0.space, mu0.support, mean, atol=1e-9)
    return DualityEstimate(est, stderr, replicates, counts)


def two_site_closed_form(
    mu0: Metapopulation, model: RecombinationModel, t: int
) -> Metapopulation:
    """Exact two-site solution: a geometric number of whole-segment
    generations, then one split whose halves migrate independently.

    Only defined for models with exactly two sites.
    """
    if model.num_sites != 2:
        raise ValueError("closed form requires exactly two sites")
    if t < 0:
        raise ValueError("negative horizon")
    r_whole = model.recomb.get(Partition([(0, 1)]), 0.0)
    r_split = model.recomb.get(Partition([(0,), (1,)]), 0.0)
    mig = model.migration
    nloc = model.num_locations
    space = mu0.space

    powers = [matrix_power(mig, k) for k in range(t + 1)]
    stack0 = mu0.stack()
    shape = (nloc,) + space.shape(mu0.support)
    split = [((0,), None), ((1,), None)]
    acc = (r_whole**t) * (powers[t] @ stack0)
    for sigma in range(1, t + 1):
        coeff = r_whole ** (sigma - 1) * r_split
        moved = (powers[t - sigma + 1] @ stack0).reshape(shape)
        cross = block_products(moved, mu0.support, [split])[0]
        acc += coeff * (powers[sigma - 1] @ cross)
    return Metapopulation.from_stack(space, mu0.support, acc, atol=1e-9)

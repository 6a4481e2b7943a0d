"""Monte Carlo over the block-splitting location process, and the two-site
closed form as one matrix power of that process's small block chain.

The process runs backwards through the generations: a state is a labelled
partition, each block tracking a segment of sites and the location of the
ancestor currently carrying it. Per step every block independently draws a
partition from the full recombination distribution, splits along its induced
trace, and each fragment then draws its new location from the migration row
of the old label; the split happens before the relabelling. Averaging the
recombinator of the final state applied to the initial metapopulation over
replicates estimates the forward solution started from a single-block state.
The recombinators of the final states, and the start vector of the two-site
block chain, come from the labelled readout `build_recombinator_vector`.

One seed contract covers `simulate`, `state_histograms` and
`duality_estimate`: one walk steps CHUNK = 1024 replicates together as
integer arrays, and chunk c (replicates c*CHUNK onwards) draws from the
counter-based Philox stream `replicate_rng(seed, c)`. Results depend only on
the arguments, and from the whole-set start at a location `simulate`'s final
states are those `duality_estimate` counts. `lpp_step` is the one-replicate
reference of a step.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .forward import RecombinationModel, check_horizon, check_initial
from .linear import checked_starts, matrix_power
from .measures import Distribution, Metapopulation, build_recombinator_vector
from .partitions import LabelledPartition, Partition, _by_block_min, whole_labelled

# replicates the walk steps together, one stream per chunk; a chunk's
# temporaries, a few (CHUNK, n) arrays and one (CHUNK, n, n) mask, stay small
CHUNK = 1024
KEY_LIMIT = 2**64  # seeds and streams are Philox key words


def replicate_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for one stream: counter-based Philox keyed by
    (seed, stream), both in [0, 2**64)."""
    if not (0 <= seed < KEY_LIMIT and 0 <= stream < KEY_LIMIT):
        raise ValueError(
            f"seed and stream must be in [0, 2**64), got {seed!r} and {stream!r}"
        )
    # an explicit uint64 key: numpy turns a list holding ints >= 2**63 into float64
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _sampling_tables(model: RecombinationModel):
    """The partitions' blocks and the cumulative recombination and migration
    rows that `lpp_step` and `_walk` draw from, kept in the model's `_cache`."""
    if "sampling" not in model._cache:
        parts = [tuple(frozenset(b) for b in p.blocks) for p in model.recomb]
        cum_r = np.cumsum(np.fromiter(model.recomb.values(), dtype=float))
        cum_r[-1] = 1.0
        cum_m = np.cumsum(model.migration, axis=1)
        cum_m[:, -1] = 1.0
        # plain lists: bisect beats array searchsorted at these sizes
        model._cache["sampling"] = (parts, cum_r.tolist(), [row.tolist() for row in cum_m])
    return model._cache["sampling"]


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


def _walk(
    start: LabelledPartition, model: RecombinationModel, t: int, replicates: int, seed: int
):
    """Yield (k, block ids, labels) for generations k = 0..t of each chunk of
    `replicates` runs from `start`, which must cover every site.

    Row i of the (rows, n) arrays is one replicate: each site's block id in
    the canonical RGS of the state's base, and the label of its block.
    """
    n = model.num_sites
    sites = np.arange(n)
    _, cum_r, cum_m = _sampling_tables(model)
    cum_r, cum_m = np.array(cum_r), np.array(cum_m)
    pieces = np.array([p.rgs() for p in model.recomb])  # (partitions, n)
    block0 = np.array(start.base.rgs(), dtype=np.intp)
    label0 = np.array(start.labels, dtype=np.intp)[block0]
    for c, done in enumerate(range(0, replicates, CHUNK)):
        rows = min(CHUNK, replicates - done)
        rng = replicate_rng(seed, c)
        r = np.arange(rows)[:, None]
        block, label = np.tile(block0, (rows, 1)), np.tile(label0, (rows, 1))
        yield 0, block, label
        for k in range(1, t + 1):
            # one partition per block slot, as lpp_step draws per block
            draw = np.searchsorted(cum_r, rng.random((rows, n)), side="right")
            key = block * n + pieces[draw[r, block], sites]
            # renumber fragments by first occurrence: the canonical RGS
            first = (key[:, :, None] == key[:, None, :]).argmax(axis=2)
            rank = np.cumsum(first == sites, axis=1) - 1
            block = rank[r, first]
            # one uniform per new block, inverted on the old label's row
            u = rng.random((rows, n))[r, rank]
            moved = np.zeros_like(label)
            for column in cum_m[:, :-1].T:
                moved += column[label] <= u
            label = moved[r, first]
            yield k, block, label


def _decode(code: list[int], n: int) -> LabelledPartition:
    digits, labels = code[:n], code[n:]
    blocks: list[list[int]] = [[] for _ in range(max(digits) + 1)]
    for site, b in enumerate(digits):
        blocks[b].append(site)
    return LabelledPartition._from_canonical(
        tuple((tuple(b), labels[b[0]]) for b in blocks)
    )


def simulate(
    bdelta0: LabelledPartition,
    model: RecombinationModel,
    t: int,
    replicates: int,
    seed: int = 0,
):
    """Yield `replicates` independent trajectories of length t+1.

    Lazy: only one chunk's paths are held at a time.
    """
    check_horizon(t, generations=True)
    if replicates < 1:
        raise ValueError("need at least one replicate")
    checked_starts(model, [bdelta0])
    n = model.num_sites
    path = []
    for k, block, label in _walk(bdelta0, model, t, replicates, seed):
        path.append(np.concatenate([block, label], axis=1).astype(np.uint16))
        if k < t:
            continue
        for codes in np.stack(path, axis=1):
            states = tuple(_decode(code, n) for code in codes.tolist())
            absorbed = next((j for j, s in enumerate(states) if len(s) == n), None)
            yield LppTrajectory(states, absorbed)
        path = []


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

    Only the last generation of each chunk of the walk is read, and final
    states are merged into counts chunk by chunk, so memory does not grow
    with `replicates`. Identical final states are grouped before averaging,
    so the reduction is a fixed-order deterministic sum; the standard error
    is the exact per-coordinate sample standard error of the grouped
    ensemble.
    """
    if not 0 <= location < model.num_locations:
        raise ValueError(f"location {location} out of range")
    check_horizon(t, generations=True)
    if replicates < 1:
        raise ValueError("need at least one replicate")
    check_initial(mu0, model, full=True)
    n = model.num_sites
    # rows as big-endian uint16 bytes, whose memcmp order is the rows'
    # lexicographic order, the `sort_key` order (site and label numbers fit
    # in 16 bits)
    row_bytes = np.dtype((np.void, 2 * n * 2))
    codes = np.empty(0, dtype=row_bytes)
    tally = np.empty(0, dtype=np.intp)
    start = whole_labelled(model.sites, location)
    for k, block, label in _walk(start, model, t, replicates, seed):
        if k < t:
            continue
        final = np.concatenate([block, label], axis=1).astype(">u2")
        codes, inverse = np.unique(
            np.concatenate([codes, final.view(row_bytes).ravel()]), return_inverse=True
        )
        tally = np.bincount(
            inverse, weights=np.concatenate([tally, np.ones(len(final))])
        ).astype(np.intp)
    ordered = [_decode(code, n) for code in codes.view(">u2").reshape(-1, 2 * n).tolist()]
    counts = dict(zip(ordered, tally.tolist()))

    vectors = build_recombinator_vector(mu0, ordered)
    weights = tally.astype(float)
    mean = (weights / replicates) @ vectors
    if replicates > 1:
        centered = vectors - mean
        var = (weights @ centered**2) / (replicates - 1)
        stderr = np.sqrt(var / replicates)
    else:
        stderr = np.full_like(mean, np.nan)
    est = Distribution(mu0.space, mu0.support, mean, atol=1e-9)
    return DualityEstimate(est, stderr, replicates, counts)


def _two_site_chain(mu0: Metapopulation) -> tuple[np.ndarray, np.ndarray]:
    """Two-site block chain over the L whole states @j, then the L**2 split
    states {0}@j|{1}@k in (j, k) order: its start vector (the recombinators
    of mu0 along those states) and the (L, L**2) selection S of the split
    {0}@a|{1}@a of each @a."""
    nloc = mu0.num_locations
    states = [whole_labelled((0, 1), j) for j in range(nloc)] + [
        LabelledPartition([((0,), j), ((1,), k)]) for j in range(nloc) for k in range(nloc)
    ]
    return build_recombinator_vector(mu0, states), np.eye(nloc * nloc)[:: nloc + 1]


def two_site_closed_form(
    mu0: Metapopulation, model: RecombinationModel, t: int
) -> Metapopulation:
    """Exact two-site solution: the t-th power of the block chain's matrix
    [[r_whole M, r_split S (M kron M)], [0, M kron M]] applied to the start
    vector of `_two_site_chain`; its whole-state rows are the answer. A
    whole state stays whole with probability r_whole, and the two blocks
    of a split migrate independently.

    Only defined for models with exactly two sites.
    """
    if model.num_sites != 2:
        raise ValueError("closed form requires exactly two sites")
    check_horizon(t, generations=True)
    check_initial(mu0, model, full=True)
    r_whole = model.recomb.get(Partition([(0, 1)]), 0.0)
    r_split = model.recomb.get(Partition([(0,), (1,)]), 0.0)
    mig = model.migration
    nloc = model.num_locations
    start, select = _two_site_chain(mu0)
    pair = np.kron(mig, mig)
    chain = np.block([[r_whole * mig, r_split * select @ pair], [np.zeros((nloc**2, nloc)), pair]])
    acc = (matrix_power(chain, t) @ start)[:nloc]
    return Metapopulation.from_stack(mu0.space, mu0.support, acc, atol=1e-9)

"""Long-run behaviour: stationary location weights, the limiting
metapopulation, absorption tails of the block process, and the quasi-limiting
law of the non-absorbed process.

The label-free block process only ever refines its state and is eventually
absorbed in the all-singletons partition whenever the recombination support
is separating (the meet of the support partitions is the all-singletons
partition). Conditioned on non-absorption it settles on the set of reachable
states with maximal sojourn probability; the conditional limit weights are
hitting-time transforms computed by back-substitution along the refinement
order. Labelled versions attach one stationary location weight per block.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .forward import RecombinationModel, check_horizon, check_initial, checked_migration
from .linear import build_base_matrix, build_linear_system
from .measures import Distribution, Metapopulation, recombinator
from .partitions import (
    LabelledPartition,
    Partition,
    coarsest,
    finest,
    meet,
    whole_labelled,
)

_PEAK_RTOL = 1e-12  # sojourn probabilities within this of the max count as maximal


@dataclass(frozen=True)
class StationaryProfile:
    """Stationary row vector of a primitive stochastic matrix, with the
    smallest power at which every entry of the matrix is positive."""

    weights: np.ndarray
    primitivity_index: int


def stationary_distribution(migration) -> StationaryProfile:
    m = checked_migration(migration)
    n = m.shape[0]
    positive = m > 0
    power = positive.copy()
    bound = (n - 1) ** 2 + 1
    index = None
    for k in range(1, bound + 1):
        if power.all():
            index = k
            break
        power = (power.astype(np.int64) @ positive.astype(np.int64)) > 0
    if index is None:
        reach = np.linalg.matrix_power(
            (np.eye(n, dtype=np.int64) + positive.astype(np.int64)), n - 1
        ) > 0
        kind = "reducible" if not reach.all() else "periodic"
        raise ValueError(
            f"migration matrix is not primitive ({kind}); no unique stationary profile"
        )
    rows = np.vstack([m.T - np.eye(n), np.ones(n)])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    q, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    if q.min() <= 0 or np.abs(q @ m - q).max() > 1e-10:
        raise ValueError("failed to compute a positive stationary profile")
    return StationaryProfile(q, index)


def separating_support(model: RecombinationModel) -> bool:
    """True when the meet of the recombination support is all-singletons, so
    every pair of sites is eventually split apart."""
    parts = list(model.recomb)
    acc = parts[0]
    for p in parts[1:]:
        acc = meet(acc, p)
    return acc == finest(model.sites)


def limit_metapopulation(mu0: Metapopulation, model: RecombinationModel) -> Metapopulation:
    """The time-infinity metapopulation: identical across locations, a product
    over sites of stationarily averaged single-site marginals.

    Requires a primitive migration matrix and a separating recombination
    support.
    """
    profile = stationary_distribution(model.migration)
    if not separating_support(model):
        raise ValueError(
            "recombination support never separates some sites; model those "
            "sites merged into a single one"
        )
    check_initial(mu0, model, full=True)
    # marginals commute with the location average, so the limit is the
    # all-singletons recombinator of the stationarily averaged distribution
    mixed = Distribution(mu0.space, mu0.support, profile.weights @ mu0.stack(), atol=1e-9)
    singletons = LabelledPartition(((site,), 0) for site in model.sites)
    limit = recombinator(singletons, Metapopulation([mixed]))
    return Metapopulation([limit] * model.num_locations)


def _transient(states, matrix, start):
    """The closure restricted to the states not yet fully split on the sites
    `start` covers, with the unit vector of `start` over them (zero when
    `start` is fully split)."""
    num_sites = len(start.base_set)
    keep = [i for i, s in enumerate(states) if len(s) < num_sites]
    kept = [states[i] for i in keep]
    v = np.zeros(len(keep))
    if start in kept:
        v[kept.index(start)] = 1.0
    return kept, matrix[np.ix_(keep, keep)], v


def absorption_tail(
    model: RecombinationModel, t_max: int, start: Partition | None = None
) -> np.ndarray:
    """P(block process not yet fully split) for t = 0..t_max.

    Propagates mass through the transient part of the label-free matrix and
    sums what survives; subtracting the absorbed mass from 1 instead would
    cancel catastrophically once the tail falls below machine epsilon.
    """
    check_horizon(t_max, generations=True)
    if start is None:
        start = coarsest(model.sites)
    _, sub, v = _transient(*build_base_matrix(model, start), start)
    out = np.empty(t_max + 1)
    for t in range(t_max + 1):
        out[t] = v.sum()
        if t < t_max:
            v = v @ sub
    return out


@dataclass(frozen=True)
class QldReport:
    """Quasi-limiting behaviour of the block process started at `start`."""

    start: Partition
    max_sojourn: float
    peak_states: list[Partition]
    hitting_weights: dict[Partition, float]
    qlim: dict[Partition, float]
    labelled_qlim: dict[LabelledPartition, float]
    location_weights: np.ndarray


def _hitting_transform(states, mat, eta, peaks):
    """Expected eta^(-hitting time of each peak), restricted to hitting it,
    from every state: one column per peak, solved backwards along the
    refinement order.

    A peak has value 1 in its own column. Its other entries would divide by
    its vanished pivot; they are 0 unless mass flows from it to a state
    that reaches a peak, which cannot happen when peaks only stay or absorb.
    """
    column = {p: k for k, p in enumerate(peaks)}
    h = np.zeros((len(states), len(peaks)))
    for i in reversed(range(len(states))):
        rhs = mat[i] @ h / eta
        if states[i] in column:
            if np.abs(rhs).max() > 1e-300:
                raise ValueError(
                    "divergent expectation: a maximal-sojourn state feeds the target"
                )
            h[i, column[states[i]]] = 1.0
        else:
            h[i] = rhs / (1.0 - mat[i, i] / eta)
    return h


def qld(model: RecombinationModel, start: Partition | None = None) -> QldReport:
    """Quasi-limiting distribution over maximal-sojourn states, with the
    labelled refinement weighted by stationary location weights.

    The default start is the one-block partition; other starts are computed
    the same way over their own reachable closure. With a non-separating
    support the maximal sojourn is 1 and the report degrades to hitting
    probabilities of the never-splitting states.
    """
    if start is None:
        start = coarsest(model.sites)
    transient, sub, v = _transient(*build_base_matrix(model, start), start)
    if not transient:
        raise ValueError("quasi-limit undefined: the start state is already fully split")
    diag = sub.diagonal()
    eta = diag.max()
    if eta <= 0.0:
        raise ValueError("quasi-limit undefined: every step fully splits the state")
    peaks = [p for p, d in zip(transient, diag) if d >= eta * (1.0 - _PEAK_RTOL)]

    g = dict(zip(peaks, v @ _hitting_transform(transient, sub, eta, peaks)))
    # the transform is linear in the boundary values, so the all-peaks value
    # is the sum of the per-peak ones
    g_all = sum(g.values())
    if g_all <= 0.0:
        raise ValueError("quasi-limit undefined: no maximal-sojourn state is reachable")
    qlim = {p: g[p] / g_all for p in peaks}

    profile = stationary_distribution(model.migration)
    q = profile.weights
    labelled: dict[LabelledPartition, float] = {}
    for p in peaks:
        for labels in itertools.product(range(model.num_locations), repeat=len(p)):
            weight = qlim[p]
            for lab in labels:
                weight *= q[lab]
            labelled[LabelledPartition(zip(p.blocks, labels))] = weight
    return QldReport(
        start=start,
        max_sojourn=eta,
        peak_states=peaks,
        hitting_weights=g,
        qlim=qlim,
        labelled_qlim=labelled,
        location_weights=q,
    )


def conditioned_law(
    model: RecombinationModel,
    t: int,
    start: LabelledPartition | None = None,
) -> dict[LabelledPartition, float]:
    """Exact law of the labelled process at time t conditioned on not yet
    being fully split.

    Propagates the restriction of the transition matrix to non-absorbed
    states, renormalising each step; algebraically identical to conditioning
    the t-th matrix power, but immune to underflow at large t.
    """
    check_horizon(t, generations=True)
    if start is None:
        start = whole_labelled(model.sites, 0)
    system = build_linear_system(model, starts=[start])
    kept_states, sub, v = _transient(system.states, system.matrix, start)
    if not v.any():
        raise ValueError("conditioning event has probability zero")
    for _ in range(t):
        v = v @ sub
        total = v.sum()
        if total <= 0.0:
            raise ValueError("conditioning event has probability zero")
        v /= total
    total = v.sum()
    return {s: v[i] / total for i, s in enumerate(kept_states)}


def fitted_decay_rate(errors, t_start: int | None = None, t_end: int | None = None) -> float:
    """Geometric rate fitted by least squares on the log of an error
    trajectory, over [t_start, t_end] (default: the last half)."""
    e = np.asarray(errors, dtype=float)
    if t_end is None:
        t_end = len(e) - 1
    if t_start is None:
        t_start = t_end // 2
    ts = np.arange(t_start, t_end + 1)
    window = e[t_start : t_end + 1]
    mask = window > 1e-300
    if mask.sum() < 2:
        raise ValueError("not enough positive errors to fit a rate")
    slope = np.polyfit(ts[mask], np.log(window[mask]), 1)[0]
    return float(np.exp(slope))

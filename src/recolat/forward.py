"""Forward dynamics: migration followed by recombination, one generation per step.

A model couples a backward migration matrix (row alpha = where location
alpha's individuals came from) with a recombination distribution over
partitions of the full site set. A generation first mixes each location's
distribution by migration and then recombines within each location:
the offspring draws, for each block of a partition sampled from the
recombination distribution, the letters of that block jointly from an
independent parent.

Marginalising commutes with the dynamics: the type distribution on a site
subset U evolves by the same migration-recombination recursion under the
induced recombination law r_U, each partition restricted to U with the
weights of equal restrictions summed (M. Baake & E. Baake, Canad. J. Math.
55, 2003). So one generation map, `step`, serves every support: it
recombines under the law induced on the support of its input, and
`marginal_step` is the same function. `induced_law` computes r_U, and the
rates a continuous-time model induces, through one cached routine.

Recombination is one operator in both time modes, the pull x -> sum of
w_P (R_P(x) - x) over the partitions P that split the support, R_P(x) the
product of x's own block marginals: a generation is x + pull(x) of the
migrated state x = M mu, the continuous drift G omega + pull(omega) with
the rates as weights. `pull` compiles it once per model and support; a
model's `_cache` keeps its induced laws, pulls and sampling tables.

Routes of both time modes check input in one place each: model weights in
`checked_weights`, stochastic matrices in `checked_migration`, initial states
in `check_initial`, horizons in `check_horizon` and sampler starts in
`linear.checked_starts`. Each tests for membership, so NaN fails too.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from .measures import BlockPlan, Metapopulation, TypeSpace
from .partitions import Partition

MASS_ATOL = 1e-12
MIGRATION_ATOL = 1e-9  # matches the constancy tolerance of backward_from_forward


def checked_weights(space: TypeSpace, weights: Mapping, what: str) -> dict[Partition, float]:
    """The positive entries, as floats, of a map from partitions of all sites
    to finite non-negative weights; `what` names a weight in error texts."""
    full = space.sites
    clean: dict[Partition, float] = {}
    for part, weight in weights.items():
        if not isinstance(part, Partition):
            raise ValueError(f"{what} key {part!r} is not a Partition")
        if part.base_set != full:
            raise ValueError(f"partition {part!r} does not cover all sites {full}")
        w = float(weight)
        if not 0 <= w < np.inf:
            raise ValueError(f"negative or non-finite {what} {w!r} for {part!r}")
        if w > 0:
            clean[part] = w
    return clean


def checked_migration(migration) -> np.ndarray:
    """Read-only copy of a row-stochastic matrix: square, finite and
    non-negative, rows summing to one."""
    m = np.array(migration, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("migration matrix must be square")
    if not (np.isfinite(m) & (m >= 0)).all():
        raise ValueError("migration matrix has negative or non-finite entries")
    rows = m.sum(axis=1)
    if not np.abs(rows - 1.0).max() <= MIGRATION_ATOL:
        raise ValueError(f"migration matrix is not row-stochastic: rows sum to {rows}, not 1")
    m.flags.writeable = False
    return m


def check_initial(mu: Metapopulation, model, *, full: bool = False) -> None:
    """Refuse a state on another type space or location count or, if `full`,
    on fewer sites."""
    if mu.space != model.space:
        raise ValueError("initial state is on another type space")
    if full and mu.support != model.sites:
        raise ValueError("initial state must cover all sites")
    if len(mu) != model.num_locations:
        raise ValueError("initial state has the wrong number of locations")


def check_horizon(t, *, generations: bool = False) -> None:
    """Refuse a horizon that is negative, infinite or NaN and, if it counts
    `generations`, one that is not an integer."""
    if not 0 <= t < np.inf:
        raise ValueError("negative or non-finite horizon")
    if generations and not isinstance(t, (int, np.integer)):
        raise ValueError(f"a number of generations must be an integer, got {t!r}")


class RecombinationModel:
    """Type space, recombination distribution and backward migration matrix."""

    __slots__ = ("space", "recomb", "migration", "_cache")

    def __init__(
        self,
        space: TypeSpace,
        recomb: Mapping[Partition, float],
        migration,
    ):
        clean = checked_weights(space, recomb, "recombination probability")
        total = sum(clean.values(), 0.0)
        if not abs(total - 1.0) <= MASS_ATOL:
            raise ValueError(f"recombination probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "recomb", clean)
        object.__setattr__(self, "migration", checked_migration(migration))
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("RecombinationModel is immutable")

    @property
    def num_sites(self) -> int:
        return self.space.num_sites

    @property
    def num_locations(self) -> int:
        return self.migration.shape[0]

    @property
    def sites(self) -> tuple[int, ...]:
        return self.space.sites

    def marginal_recombination(self, sites: Iterable[int]) -> dict[Partition, float]:
        """Recombination distribution induced on a site subset: each support
        partition is restricted to the subset and the weights accumulated."""
        return induced_law(self, self.recomb, sites)


def induced_law(
    model, weights: Mapping[Partition, float], sites: Iterable[int]
) -> dict[Partition, float]:
    """Weights of full-set partitions restricted to a site subset, summed
    over partitions with equal restrictions: the recombination law or the
    split rates a model induces on the subset.

    `model` supplies the site set and its `_cache` dict, which holds the
    result under the sorted subset; callers get a copy.
    """
    key = tuple(sorted(set(sites)))
    if not key:
        raise ValueError("empty site set")
    if not set(key) <= set(model.sites):
        raise ValueError(f"sites {key} not within the model's {model.num_sites} sites")
    if key not in model._cache:
        law: dict[Partition, float] = {}
        for part, w in weights.items():
            sub = part.restrict(key)
            law[sub] = law.get(sub, 0.0) + w
        model._cache[key] = law
    return dict(model._cache[key])


def pull(model, weights: Mapping[Partition, float], support: tuple[int, ...]):
    """The pull on `support` under the law `weights` induce there, as a map
    of raw (locations, dim) stacks: one `BlockPlan`, compiled on first use
    and cached. A law that splits nothing pulls 0."""
    key = ("pull", support)
    if key not in model._cache:
        law = induced_law(model, weights, support)
        split = [part for part in law if len(part) > 1]  # keeping it whole changes nothing
        if not split:
            model._cache[key] = lambda x: 0.0
        else:
            plan = BlockPlan(support, [part.blocks for part in split])
            w = np.array([law[part] for part in split])
            total = w.sum()
            sizes = model.space.shape(support)

            def apply(x):
                prods = plan(x.reshape((len(x),) + sizes))
                return (w @ prods.swapaxes(0, 1)).reshape(x.shape) - total * x

            model._cache[key] = apply
    return model._cache[key]


def backward_from_forward(forward, sizes) -> np.ndarray:
    """Turn a forward migration matrix and location sizes into the backward
    matrix, requiring the sizes to be stationary under forward migration.

    Row alpha of the result gives the law of the source location of an
    individual now at alpha: entry (alpha, beta) is sizes[beta] *
    forward[beta, alpha] / sizes[alpha].
    """
    f = checked_migration(forward)
    c = np.asarray(sizes, dtype=float)
    if c.shape != f.shape[:1] or not (np.isfinite(c) & (c > 0)).all():
        raise ValueError("population sizes must be positive and finite, one per location")
    drift = np.abs(f.T @ c - c).max()
    if drift > 1e-9 * c.max():
        raise ValueError(
            f"population sizes not stationary under forward migration (drift {drift:.3e})"
        )
    return (c[np.newaxis, :] / c[:, np.newaxis]) * f.T


def migrate(mu: Metapopulation, migration) -> Metapopulation:
    """Mix location distributions: location alpha becomes the migration-row-
    alpha convex combination of the current distributions."""
    m = np.asarray(migration, dtype=float)
    if m.shape != (len(mu), len(mu)):
        raise ValueError("migration matrix does not match the number of locations")
    return Metapopulation.from_stack(
        mu.space, mu.support, m @ mu.stack(), atol=1e-9
    )


def recombine(mu: Metapopulation, model: RecombinationModel) -> Metapopulation:
    """Within-location recombination on the support of `mu`, under the
    recombination law induced there: x + pull(x)."""
    if mu.space != model.space:  # the pull reads x at the model's alphabet sizes
        raise ValueError("initial state is on another type space")
    return _recombined(mu.stack(), mu, model)


def _recombined(x: np.ndarray, mu: Metapopulation, model: RecombinationModel) -> Metapopulation:
    """The checked state x + pull(x) of a raw stack on `mu`'s support."""
    acc = x + pull(model, model.recomb, mu.support)(x)
    # the map conserves mass; strip float residue so long trajectories do
    # not accumulate drift
    acc /= acc.sum(axis=1, keepdims=True)
    return Metapopulation.from_stack(mu.space, mu.support, acc, atol=1e-9)


def step(mu: Metapopulation, model: RecombinationModel) -> Metapopulation:
    """One generation: migrate, then recombine. On a site subset U this is
    the induced dynamics under r_U; on a single site, pure migration."""
    check_initial(mu, model)
    return _recombined(model.migration @ mu.stack(), mu, model)


marginal_step = step


def iterate(mu0: Metapopulation, model: RecombinationModel, t: int) -> list[Metapopulation]:
    """Trajectory [mu_0, ..., mu_t]."""
    check_horizon(t, generations=True)
    out = [mu0]
    for _ in range(t):
        out.append(step(out[-1], model))
    return out


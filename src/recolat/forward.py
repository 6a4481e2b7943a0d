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
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from .measures import BlockPlan, Metapopulation, TypeSpace
from .partitions import Partition

MASS_ATOL = 1e-12
MIGRATION_ATOL = 1e-9  # matches the constancy tolerance of backward_from_forward


def checked_migration(migration) -> np.ndarray:
    """Read-only copy of a backward migration matrix: square, non-negative,
    rows summing to one."""
    m = np.array(migration, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("migration matrix must be square")
    if m.min() < 0:
        raise ValueError("migration matrix has negative entries")
    rows = m.sum(axis=1)
    if np.abs(rows - 1.0).max() > MIGRATION_ATOL:
        raise ValueError(f"migration matrix rows sum to {rows}, not 1")
    m.flags.writeable = False
    return m


def check_locations(mu: Metapopulation, model) -> None:
    """Refuse an initial state whose location count is not the model's."""
    if len(mu) != model.num_locations:
        raise ValueError("initial state has the wrong number of locations")


class RecombinationModel:
    """Type space, recombination distribution and backward migration matrix."""

    __slots__ = ("space", "recomb", "migration", "_marginal_cache", "__weakref__")

    def __init__(
        self,
        space: TypeSpace,
        recomb: Mapping[Partition, float],
        migration,
    ):
        full = tuple(range(space.num_sites))
        clean: dict[Partition, float] = {}
        total = 0.0
        for part, weight in recomb.items():
            if not isinstance(part, Partition):
                raise ValueError(f"recombination key {part!r} is not a Partition")
            if part.base_set != full:
                raise ValueError(
                    f"partition {part!r} does not cover all sites {full}"
                )
            w = float(weight)
            if w < 0:
                raise ValueError(f"negative recombination probability for {part!r}")
            total += w
            if w > 0:
                clean[part] = w
        if abs(total - 1.0) > MASS_ATOL:
            raise ValueError(f"recombination probabilities sum to {total!r}, not 1")
        if not clean:
            raise ValueError("recombination distribution is empty")

        object.__setattr__(self, "space", space)
        object.__setattr__(self, "recomb", dict(clean))
        object.__setattr__(self, "migration", checked_migration(migration))
        object.__setattr__(self, "_marginal_cache", {})

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

    @property
    def multiparent_partitions(self) -> tuple[Partition, ...]:
        """Partitions in the support with more than two blocks (more than two
        parents per offspring). Permitted; exposed so callers can flag them."""
        return tuple(p for p in self.recomb if len(p) > 2)

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

    `model` supplies the site set and a `_marginal_cache` dict, keyed by the
    sorted subset, that holds [result for `weights`, compiled `recombine`
    plan or None]; callers get a copy of the result.
    """
    key = tuple(sorted(set(sites)))
    if not key:
        raise ValueError("empty site set")
    if not set(key) <= set(model.sites):
        raise ValueError(f"sites {key} not within the model's {model.num_sites} sites")
    if key not in model._marginal_cache:
        law: dict[Partition, float] = {}
        for part, w in weights.items():
            sub = part.restrict(key)
            law[sub] = law.get(sub, 0.0) + w
        model._marginal_cache[key] = [law, None]
    return dict(model._marginal_cache[key][0])


def backward_from_forward(forward, sizes) -> np.ndarray:
    """Turn a forward migration matrix and location sizes into the backward
    matrix, requiring the sizes to be stationary under forward migration.

    Row alpha of the result gives the law of the source location of an
    individual now at alpha: entry (alpha, beta) is sizes[beta] *
    forward[beta, alpha] / sizes[alpha].
    """
    f = np.asarray(forward, dtype=float)
    c = np.asarray(sizes, dtype=float)
    if f.ndim != 2 or f.shape[0] != f.shape[1] or c.shape != (f.shape[0],):
        raise ValueError("forward matrix must be square with one size per location")
    if f.min() < 0 or np.abs(f.sum(axis=1) - 1.0).max() > MIGRATION_ATOL:
        raise ValueError("forward migration matrix is not row-stochastic")
    if c.min() <= 0:
        raise ValueError("population sizes must be positive")
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
    recombination law induced there; its plan is compiled on first use."""
    entry = model._marginal_cache.get(mu.support)
    if entry is None or entry[1] is None:
        law = model.marginal_recombination(mu.support)
        plan = BlockPlan(mu.support, [[(b, None) for b in part.blocks] for part in law])
        entry = model._marginal_cache[mu.support]
        entry[1] = (plan, np.fromiter(law.values(), dtype=float))
    plan, weights = entry[1]
    acc = np.tensordot(weights, plan(mu.as_array()), axes=1)
    # the map conserves mass; strip float residue so long trajectories do
    # not accumulate drift
    acc /= acc.sum(axis=1, keepdims=True)
    return Metapopulation.from_stack(mu.space, mu.support, acc, atol=1e-9)


def step(mu: Metapopulation, model: RecombinationModel) -> Metapopulation:
    """One generation: migrate, then recombine. On a site subset U this is
    the induced dynamics under r_U; on a single site, pure migration."""
    return recombine(migrate(mu, model.migration), model)


marginal_step = step


def iterate(mu0: Metapopulation, model: RecombinationModel, t: int) -> list[Metapopulation]:
    """Trajectory [mu_0, ..., mu_t]."""
    if t < 0:
        raise ValueError("negative horizon")
    out = [mu0]
    for _ in range(t):
        out.append(step(out[-1], model))
    return out


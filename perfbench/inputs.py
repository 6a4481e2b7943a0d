"""Seeded inputs: model cases as plain data, their config documents, and the
recolat objects built from them.

A case holds only numbers and site tuples, so the reference in reference.py
reads the same inputs as the program without touching recolat. Shapes (sites,
alphabets, locations, supports, horizons, replicate counts) are fixed per
workload; the seed draws only the weights, the migration and the initial
distributions, so every seed asks for the same amount of work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from reference import canon, coarsest, finest, set_partitions

# Weight of the tightly linked pair partition {a,b}|singletons in discrete
# cases. Every other reachable state then stays put with probability at most
# 1 - PAIR_WEIGHT < PAIR_WEIGHT, so the quasi-limit has a spectral gap of at
# least PAIR_WEIGHT / (1 - PAIR_WEIGHT) and t=400 is a large horizon for it.
PAIR_WEIGHT = 0.6
# Fixed weight of the all-singletons partition. Every block then splits with
# probability at least FINEST_WEIGHT a generation, so the recursion reaches
# its limit to round-off within a few hundred generations whatever the seed.
# (With a Dirichlet weight alone it can be ~1e-4, and the reference's
# iteration to the limit then needs some 10^5 generations.)
FINEST_WEIGHT = 0.1


@dataclass
class Case:
    label: str
    mode: str  # "discrete" or "continuous"
    sizes: tuple[int, ...]
    recomb: list  # [(partition, probability or rate)], sites 0-based
    migration: np.ndarray  # backward matrix, or generator in continuous mode
    initial: np.ndarray  # (locations, dim)
    t: float
    dt: float | None = None
    seed: int | None = None
    replicates: int | None = None

    @property
    def n(self) -> int:
        return len(self.sizes)

    @property
    def locations(self) -> int:
        return self.migration.shape[0]

    @property
    def names(self) -> list[str]:
        return [f"L{i}" for i in range(self.locations)]

    def doc(self) -> dict:
        doc = {
            "mode": self.mode,
            "sites": list(self.sizes),
            "locations": self.names,
            "recombination": [
                {"blocks": [[s + 1 for s in b] for b in part], "p": float(w)}
                for part, w in self.recomb
            ],
            "migration": {"backward": self.migration.tolist()},
            "initial": {
                name: {"dense": row.tolist()} for name, row in zip(self.names, self.initial)
            },
            "t": self.t,
        }
        for key in ("dt", "seed", "replicates"):
            if getattr(self, key) is not None:
                doc[key] = getattr(self, key)
        return doc

    def model(self, R):
        space = R.TypeSpace(self.sizes)
        law = {R.Partition(part): float(w) for part, w in self.recomb}
        if self.mode == "discrete":
            return R.RecombinationModel(space, law, self.migration)
        return R.CtModel(space, law, self.migration)

    def metapop(self, R):
        space = R.TypeSpace(self.sizes)
        return R.Metapopulation.from_stack(space, space.sites, self.initial)


def backward_migration(rng, locations: int) -> np.ndarray:
    m = rng.random((locations, locations)) + 0.1
    return m / m.sum(axis=1, keepdims=True)


def migration_generator(rng, locations: int) -> np.ndarray:
    g = rng.random((locations, locations)) * 0.8
    np.fill_diagonal(g, 0.0)
    np.fill_diagonal(g, -g.sum(axis=1))
    return g


def initial_stack(rng, locations: int, sizes) -> np.ndarray:
    return rng.dirichlet(np.ones(int(np.prod(sizes))), size=locations)


def linked_pair_law(rng, n: int, support: str) -> list:
    """Recombination law with PAIR_WEIGHT on {a,b}|singletons for a random
    pair, FINEST_WEIGHT on all singletons, the rest spread by a flat
    Dirichlet over the support: every partition ("full"), or the one-block,
    the pair and the all-singletons partitions ("sparse")."""
    a, b = (int(s) for s in rng.choice(n, size=2, replace=False))
    pair = canon([(a, b)] + [(s,) for s in range(n) if s not in (a, b)])
    if support == "full":
        parts = set_partitions(range(n))
    else:
        parts = sorted({coarsest(n), pair, finest(n)})
    weights = rng.dirichlet(np.ones(len(parts))) * (1.0 - PAIR_WEIGHT - FINEST_WEIGHT)
    weights[parts.index(pair)] += PAIR_WEIGHT
    weights[parts.index(finest(n))] += FINEST_WEIGHT
    return list(zip(parts, weights.tolist()))


def proper_rates(rng, n: int, scale: float) -> list:
    """A rate in [0, scale) on every partition with more than one block."""
    return [(p, float(rng.uniform(0.0, scale))) for p in set_partitions(range(n)) if len(p) > 1]


def discrete_case(rng, label, sizes, locations, support, t, **extra) -> Case:
    return Case(
        label, "discrete", tuple(sizes), linked_pair_law(rng, len(sizes), support),
        backward_migration(rng, locations), initial_stack(rng, locations, sizes), t, **extra,
    )


def continuous_case(rng, label, sizes, locations, rate_scale, t, dt) -> Case:
    return Case(
        label, "continuous", tuple(sizes), proper_rates(rng, len(sizes), rate_scale),
        migration_generator(rng, locations), initial_stack(rng, locations, sizes), t, dt=dt,
    )


def one_block_heavy_case(rng, label, n, locations, t) -> Case:
    """Sparse support with most weight on the one-block partition, so blocks
    survive many generations: one block 0.78, {a,b}|{c,...} and
    {a,b,c}|{d,...} 0.07 each for a random site order, all singletons 0.08.
    The weights are fixed so that the sampler's work does not depend on the
    seed."""
    order = [int(s) for s in rng.permutation(n)]
    p1 = canon([order[:2], order[2:]])
    p2 = canon([order[:3], order[3:]])
    law = [(coarsest(n), 0.78), (p1, 0.07), (p2, 0.07), (finest(n), 0.08)]
    sizes = (2,) * n
    return Case(
        label, "discrete", sizes, [(p, float(w)) for p, w in law],
        backward_migration(rng, locations), initial_stack(rng, locations, sizes), t,
    )

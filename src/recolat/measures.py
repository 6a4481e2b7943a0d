"""Probability distributions over multilocus type spaces.

A type space assigns each site a finite alphabet; a distribution lives on the
product alphabet of a *support* (an ascending tuple of sites) and stores its
weights densely in mixed-radix order, first support site slowest. That order
is exactly numpy's C order for the shape given by the per-site alphabet
sizes, so marginalising is an axis sum and the tensor product is an outer
product followed by an axis permutation. `block_products` is the one
array-level recombinator kernel that every solver route evaluates; routes
that evaluate one state list at every step (`ct_rhs`, `recombine`) keep it
compiled as a `BlockPlan`. `tensor` stays as a measure-level utility.

A distribution with empty support is the scalar 1: the neutral factor of the
tensor product. Constructors validate rather than repair: weights that are
negative, NaN or do not sum to one (within tolerance) are rejected.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .partitions import LabelledPartition


class TypeSpace:
    """Per-site alphabet sizes of the sequence space."""

    __slots__ = ("alphabet_sizes",)

    def __init__(self, alphabet_sizes: Iterable[int]):
        sizes = tuple(int(s) for s in alphabet_sizes)
        if not sizes:
            raise ValueError("empty site set")
        if any(s < 1 for s in sizes):
            raise ValueError("alphabet sizes must be at least 1")
        object.__setattr__(self, "alphabet_sizes", sizes)

    def __setattr__(self, name, value):
        raise AttributeError("TypeSpace is immutable")

    @property
    def num_sites(self) -> int:
        return len(self.alphabet_sizes)

    @property
    def sites(self) -> tuple[int, ...]:
        return tuple(range(len(self.alphabet_sizes)))

    def shape(self, support: Sequence[int]) -> tuple[int, ...]:
        return tuple(self.alphabet_sizes[s] for s in support)

    def dim(self, support: Sequence[int]) -> int:
        out = 1
        for s in support:
            out *= self.alphabet_sizes[s]
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, TypeSpace) and self.alphabet_sizes == other.alphabet_sizes

    def __hash__(self) -> int:
        return hash(self.alphabet_sizes)

    def __repr__(self) -> str:
        return f"TypeSpace{self.alphabet_sizes}"


def _checked_support(space: TypeSpace, support: Iterable[int]) -> tuple[int, ...]:
    sup = tuple(support)
    if any(not isinstance(s, (int, np.integer)) or s < 0 or s >= space.num_sites for s in sup):
        raise ValueError(f"support {sup} not within sites 0..{space.num_sites - 1}")
    if tuple(sorted(set(sup))) != sup:
        raise ValueError(f"support {sup} must be strictly ascending")
    return tuple(int(s) for s in sup)


class Distribution:
    """A probability vector over the product alphabet of a site subset."""

    __slots__ = ("space", "support", "weights")

    def __init__(
        self,
        space: TypeSpace,
        support: Iterable[int],
        weights,
        *,
        atol: float = 1e-12,
    ):
        sup = _checked_support(space, support)
        w = np.asarray(weights, dtype=float).reshape(-1).copy()
        if w.shape != (space.dim(sup),):
            raise ValueError(
                f"weights have length {w.shape[0]}, support {sup} needs {space.dim(sup)}"
            )
        if not w.min(initial=0.0) >= -atol:
            raise ValueError(f"negative or non-finite weight {w.min():.3e}")
        total = w.sum()
        if not abs(total - 1.0) <= atol:
            raise ValueError(f"weights sum to {total}, not 1")
        w.flags.writeable = False
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "weights", w)

    def __setattr__(self, name, value):
        raise AttributeError("Distribution is immutable")

    @classmethod
    def point_mass(cls, space: TypeSpace, support: Iterable[int], letters: Sequence[int]) -> "Distribution":
        sup = _checked_support(space, support)
        if len(letters) != len(sup):
            raise ValueError("one letter per support site required")
        w = np.zeros(space.dim(sup))
        idx = 0
        for a, s in zip(letters, sup):
            if not 0 <= a < space.alphabet_sizes[s]:
                raise ValueError(f"letter {a} out of range at site {s}")
            idx = idx * space.alphabet_sizes[s] + a
        w[idx] = 1.0
        return cls(space, sup, w)

    @classmethod
    def uniform(cls, space: TypeSpace, support: Iterable[int]) -> "Distribution":
        sup = _checked_support(space, support)
        k = space.dim(sup)
        return cls(space, sup, np.full(k, 1.0 / k))

    @classmethod
    def scalar_one(cls, space: TypeSpace) -> "Distribution":
        """The empty-support distribution, neutral under the tensor product."""
        return cls(space, (), np.ones(1))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.space.shape(self.support)

    def as_array(self) -> np.ndarray:
        """Weights reshaped to one axis per support site (C order)."""
        return self.weights.reshape(self.shape)

    def marginalise(self, keep: Iterable[int]) -> "Distribution":
        """Marginal onto `keep`, which must be a subset of the support.

        An empty `keep` gives the scalar-1 distribution.
        """
        keep_t = tuple(sorted(set(keep)))
        if not set(keep_t) <= set(self.support):
            raise ValueError(f"sites {set(keep_t) - set(self.support)} not in support")
        drop_axes = tuple(
            i for i, s in enumerate(self.support) if s not in keep_t
        )
        w = self.as_array().sum(axis=drop_axes) if drop_axes else self.as_array()
        return Distribution(self.space, keep_t, w.reshape(-1), atol=1e-8)

    def __repr__(self) -> str:
        return f"Distribution(support={self.support}, weights={np.array2string(self.weights, precision=5)})"


def tensor(factors: Sequence[Distribution]) -> Distribution:
    """Product measure of distributions with pairwise disjoint supports.

    The result's support is the sorted union; its axes are permuted from the
    concatenation order into global site order before flattening.
    """
    if not factors:
        raise ValueError("tensor of no factors")
    space = factors[0].space
    concat: list[int] = []
    for f in factors:
        if f.space != space:
            raise ValueError("factors live on different type spaces")
        concat.extend(f.support)
    if len(set(concat)) != len(concat):
        raise ValueError("factor supports overlap")
    big = factors[0].as_array()
    for f in factors[1:]:
        big = np.multiply.outer(big, f.as_array())
    order = np.argsort(np.array(concat, dtype=int), kind="stable") if concat else ()
    big = np.transpose(big, order)
    return Distribution(space, tuple(sorted(concat)), big.reshape(-1), atol=1e-8)


class Metapopulation:
    """One distribution per location, all on the same support."""

    __slots__ = ("dists",)

    def __init__(self, dists: Iterable[Distribution]):
        ds = tuple(dists)
        if not ds:
            raise ValueError("need at least one location")
        sup = ds[0].support
        space = ds[0].space
        for d in ds[1:]:
            if d.support != sup or d.space != space:
                raise ValueError("location distributions disagree on support")
        object.__setattr__(self, "dists", ds)

    def __setattr__(self, name, value):
        raise AttributeError("Metapopulation is immutable")

    @property
    def space(self) -> TypeSpace:
        return self.dists[0].space

    @property
    def support(self) -> tuple[int, ...]:
        return self.dists[0].support

    @property
    def num_locations(self) -> int:
        return len(self.dists)

    def __getitem__(self, location: int) -> Distribution:
        return self.dists[location]

    def __iter__(self):
        return iter(self.dists)

    def __len__(self) -> int:
        return len(self.dists)

    def marginalise(self, keep: Iterable[int]) -> "Metapopulation":
        return Metapopulation(d.marginalise(keep) for d in self.dists)

    def stack(self) -> np.ndarray:
        """Weights as a (locations, dim) matrix."""
        return np.stack([d.weights for d in self.dists])

    def as_array(self) -> np.ndarray:
        """Weights as a (locations, *alphabet sizes) array, one axis per
        support site."""
        return self.stack().reshape((len(self.dists),) + self.dists[0].shape)

    @classmethod
    def from_stack(
        cls, space: TypeSpace, support: Sequence[int], matrix, *, atol: float = 1e-12
    ) -> "Metapopulation":
        m = np.asarray(matrix, dtype=float)
        return cls(Distribution(space, support, row, atol=atol) for row in m)

    def __repr__(self) -> str:
        return f"Metapopulation({len(self.dists)} locations, support={self.support})"


class BlockPlan:
    """`block_products` compiled for one (support, state list): call it on a
    stack to evaluate. A plan holds no array of any stack, so one plan
    serves any number of stacks."""

    __slots__ = ("own", "covered", "blocks", "entries", "depth", "slots")

    def __init__(self, support: Sequence[int], states: Sequence):
        support = tuple(support)
        kinds = {label is None for items in states for _, label in items}
        if len(kinds) > 1:
            raise ValueError("labels of one call must be all None or all int")
        self.own = False not in kinds
        width = max(map(len, states), default=0)
        entries: dict = {}  # (block, normalised) -> marginal entry
        # per block slot: (entry, label) -> table row, and the row each state
        # reads; an empty slot reads a row of ones, entry -1
        rows: list = [{} for _ in range(width)]
        codes = [[None] * len(states) for _ in range(width)]
        for i, items in enumerate(states):
            for k, (block, label) in enumerate(items):
                key = (entries.setdefault((block, k > 0), len(entries)), label)
                codes[k][i] = rows[k].setdefault(key, len(rows[k]))
            for k in range(len(items), width):
                codes[k][i] = rows[k].setdefault((-1, None), len(rows[k]))
        by_block: dict = {}
        for (block, normed), e in entries.items():
            by_block.setdefault(block, [None, None])[normed] = e
        covered = {s for block in by_block for s in block}
        self.covered = tuple(s in covered for s in support)
        self.blocks = [
            (tuple(a for a, s in enumerate(support, 1) if s not in block), raw, normed)
            for block, (raw, normed) in by_block.items()
        ]
        self.entries = len(entries)
        self.depth = max(map(len, rows), default=0)
        self.slots = [(list(keys), np.array(slot, dtype=np.intp)) for keys, slot in zip(rows, codes)]

    def __call__(self, stack: np.ndarray) -> np.ndarray:
        shape = tuple(size if c else 1 for size, c in zip(stack.shape[1:], self.covered))
        mass = np.add.reduce(stack, tuple(range(1, stack.ndim)), keepdims=True)
        # marginals keep their summed axes as size 1; the last entry is the
        # ones of an empty slot
        margs = [None] * self.entries + [1.0]
        for drop, raw, normed in self.blocks:
            marg = np.add.reduce(stack, drop, keepdims=True) if drop else stack
            if raw is not None:
                margs[raw] = marg
            if normed is not None:
                margs[normed] = marg / mass
        table = np.empty((self.depth, stack.shape[0] if self.own else 1) + shape)
        flat = table.reshape(table.shape[:2] + (-1,))
        prod = factor = None
        for keys, codes in self.slots:
            for j, (e, label) in enumerate(keys):
                table[j] = margs[e] if label is None else margs[e][label]
            if prod is None:
                prod = flat.take(codes, axis=0)
                continue
            if factor is None:
                factor = np.empty_like(prod)
            # codes are in range; mode "raise" would buffer the output
            flat.take(codes, axis=0, out=factor, mode="clip")
            np.multiply(prod, factor, out=prod)
        return prod


def block_products(stack: np.ndarray, support: Sequence[int], states: Sequence) -> np.ndarray:
    """The recombinator kernel: the product of block marginals, per state.

    `stack` is a raw (locations, *alphabet sizes) array with one axis per
    site of `support`. A state is a sequence of (block, label) pairs, a block
    being a tuple of support sites. Label None takes each location's own
    marginal, so the product has a row per location; an int label reads that
    location's marginal. The labels of one call are all None or all int.
    Returns (states, rows, dim), dim covering the sites the states cover; all
    states of one call must give the same shape.

    Mass contract: every block marginal after the first is divided by the
    total mass of its location, so a product carries its first block's mass
    exactly once. On the simplex this changes nothing; off it, products keep
    the mass of their row, which makes the recombination drift conserve
    mass. A one-block state returns its marginal unchanged.

    The kernel runs in two steps, and this function does both; callers that
    evaluate one state list again and again keep the `BlockPlan` instead.
    Compiling numbers the distinct blocks and, for each block slot (a
    state's first block, its second, ...), the distinct (block, label)
    factors that slot reads, and builds an integer table of the factor each
    state reads there: its first block reads the raw marginal, later blocks
    the mass-normalised one, and an empty slot a row of ones. Evaluating sums
    each distinct block's marginal once and divides it by the mass once,
    both kept at their summed shape. Then, slot by slot, it copies the slot's
    factors into a table broadcast to (factors, rows, dim), gathers each
    state's factor from it and multiplies it into the products in place;
    factors are multiplied in block order, so the loop runs over at most the
    number of sites and never over states. Besides the marginals, the peak
    is three output-sized arrays: the products, the gathered factors and the
    slot table, which has at most one factor per state. Summed axes are kept
    as size 1, so marginals broadcast straight into global site order, with
    no transpose and no limit on the site count.
    """
    return BlockPlan(support, states)(stack)


def recombinator(bdelta: LabelledPartition, mu: Metapopulation) -> Distribution:
    """Pull one marginal per labelled block and glue them multiplicatively.

    Block (d, l) contributes the marginal of location l's distribution onto
    the sites d; the result is the product over blocks, a distribution on
    the base set of `bdelta`.
    """
    if not set(bdelta.base_set) <= set(mu.support):
        raise ValueError("labelled partition exceeds the metapopulation support")
    for _, label in bdelta.items:
        if not 0 <= label < mu.num_locations:
            raise ValueError(f"label {label} outside the {mu.num_locations} locations")
    weights = block_products(mu.as_array(), mu.support, [bdelta.items])[0, 0]
    return Distribution(mu.space, bdelta.base_set, weights, atol=1e-8)

"""Probability distributions over multilocus type spaces.

A type space assigns each site a finite alphabet; a distribution lives on the
product alphabet of a *support* (an ascending tuple of sites) and stores its
weights densely in mixed-radix order, first support site slowest. That order
is exactly numpy's C order for the shape given by the per-site alphabet
sizes, so marginalising is an axis sum and the tensor product is an outer
product followed by an axis permutation.

Every solver route reads its product measures from one of two kernels,
split by traffic. `BlockPlan` serves the routes that evaluate one list of
own-label products again and again (`ct_rhs`, `recombine`): compiled once,
it makes one pass over the support sites that leaves every block marginal
in one compact row per location and forms each block slot's factors with
one gather. `build_recombinator_vector` is the one labelled readout, for the
recombinators of location-labelled partitions that the exact routes, the
dual Monte Carlo and `recombinator` read: one axis sum per distinct block,
then per base partition one gather at the states' labels and a broadcast
product. `tensor` stays as a measure-level utility.

A metapopulation is the state every solver route works on: one read-only
(locations, dim) matrix, one row per location, all on the same support. Its
rows are checked once, by the same check a distribution makes of its weights,
and `stack`, `as_array` and `mu[a]` read the matrix without copying it.

A distribution with empty support is the scalar 1: the neutral factor of the
tensor product. Constructors validate rather than repair: weights that are
negative, NaN or do not sum to one (within tolerance) are rejected.
"""

from __future__ import annotations

import math
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


def _checked_weights(space: TypeSpace, support: Iterable[int], w: np.ndarray, atol: float) -> tuple[int, ...]:
    """The checked support of a weight vector, or of a matrix with one weight
    vector per row, after refusing a wrong length and then the first row
    with a negative or non-finite weight or a sum off one by more than
    `atol`. `w` becomes read-only."""
    sup = _checked_support(space, support)
    if w.shape[-1] != space.dim(sup):
        raise ValueError(
            f"weights have length {w.shape[-1]}, support {sup} needs {space.dim(sup)}"
        )
    rows = w.reshape(-1, w.shape[-1])
    low = rows.min(axis=1, initial=0.0)
    total = rows.sum(axis=1)
    bad = ~((low >= -atol) & (np.abs(total - 1.0) <= atol))
    if bad.any():
        i = bad.argmax()
        if not low[i] >= -atol:
            raise ValueError(f"negative or non-finite weight {low[i]:.3e}")
        raise ValueError(f"weights sum to {total[i]}, not 1")
    w.flags.writeable = False
    return sup


def _fill(obj, **fields) -> None:
    """Set the fields of an immutable measure."""
    for name, value in fields.items():
        object.__setattr__(obj, name, value)


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
        w = np.array(weights, dtype=float).reshape(-1)
        sup = _checked_weights(space, support, w, atol)
        _fill(self, space=space, support=sup, weights=w)

    def __setattr__(self, name, value):
        raise AttributeError("Distribution is immutable")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.space.shape(self.support)

    def as_array(self) -> np.ndarray:
        """Weights reshaped to one axis per support site (C order)."""
        return self.weights.reshape(self.shape)

    def marginalise(self, keep: Iterable[int]) -> "Distribution":
        """Marginal onto `keep`, which must be a subset of the support: the
        one-location case of `Metapopulation.marginalise`. An empty `keep`
        gives the scalar-1 distribution."""
        return Metapopulation([self]).marginalise(keep)[0]

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
    """One distribution per location, all on the same support, held as one
    read-only (locations, dim) matrix.

    The matrix is checked once, when the state is made; `stack` and
    `as_array` hand it out without a copy, and `mu[a]` is a view of row a,
    not checked again, so rows that a route accepted at a looser tolerance
    stay readable.
    """

    __slots__ = ("space", "support", "matrix")

    def __init__(self, dists: Iterable[Distribution]):
        ds = tuple(dists)
        if not ds:
            raise ValueError("need at least one location")
        sup = ds[0].support
        space = ds[0].space
        for d in ds[1:]:
            if d.support != sup or d.space != space:
                raise ValueError("location distributions disagree on support")
        m = np.stack([d.weights for d in ds])
        m.flags.writeable = False
        _fill(self, space=space, support=sup, matrix=m)

    def __setattr__(self, name, value):
        raise AttributeError("Metapopulation is immutable")

    @property
    def num_locations(self) -> int:
        return len(self.matrix)

    def __getitem__(self, location: int) -> Distribution:
        row = object.__new__(Distribution)
        _fill(row, space=self.space, support=self.support, weights=self.matrix[location])
        return row

    def __iter__(self):
        return (self[a] for a in range(len(self.matrix)))

    def __len__(self) -> int:
        return len(self.matrix)

    def marginalise(self, keep: Iterable[int]) -> "Metapopulation":
        """Marginal of every location onto `keep`, a subset of the support:
        one axis sum of the matrix. An empty `keep` gives the scalar 1."""
        keep_t = tuple(sorted(set(keep)))
        if not set(keep_t) <= set(self.support):
            raise ValueError(f"sites {set(keep_t) - set(self.support)} not in support")
        m = _marginals(self.as_array(), self.support, keep_t).reshape(len(self.matrix), -1)
        return Metapopulation.from_stack(self.space, keep_t, m, atol=1e-8)

    def stack(self) -> np.ndarray:
        """Weights as a (locations, dim) matrix: the read-only matrix itself."""
        return self.matrix

    def as_array(self) -> np.ndarray:
        """Weights as a (locations, *alphabet sizes) array, one axis per
        support site: a read-only view of the matrix."""
        return self.matrix.reshape((len(self.matrix),) + self.space.shape(self.support))

    @classmethod
    def from_stack(
        cls, space: TypeSpace, support: Sequence[int], matrix, *, atol: float = 1e-12
    ) -> "Metapopulation":
        """A copy of `matrix`, one row per location, each row checked as
        `Distribution` checks its weights."""
        m = np.array(matrix, dtype=float)
        if m.ndim != 2 or not len(m):
            raise ValueError("need a (locations, dim) matrix with at least one location")
        sup = _checked_weights(space, support, m, atol)
        mu = object.__new__(cls)
        _fill(mu, space=space, support=sup, matrix=m)
        return mu

    def __repr__(self) -> str:
        return f"Metapopulation({len(self.matrix)} locations, support={self.support})"


def _marginals(array: np.ndarray, support: Sequence[int], keep) -> np.ndarray:
    """Every location's marginal onto the sites `keep` of a (locations,
    *alphabet sizes) array on `support`: one axis sum that keeps the summed
    axes."""
    return np.add.reduce(array, tuple(a for a, s in enumerate(support, 1) if s not in keep), keepdims=True)


_ALL = slice(None)  # a pass step that keeps every pattern of its part


class BlockPlan:
    """The own-label recombinator kernel, compiled for one (support, state
    list): call it on a raw (locations, *alphabet sizes) stack, one axis per
    support site. A state is a sequence of blocks (tuples of support sites),
    each read at every location's own marginal. Returns (states, locations,
    dim), a transposed view, dim covering the sites the states cover.

    Mass contract: every block marginal after the first is divided by its
    location's total mass, so a product keeps the mass of its row exactly
    once, and the recombination drift conserves mass off the simplex too. A
    one-block state returns its marginal unchanged.

    Compiling for a stack's alphabet sizes plans one pass over the sites,
    last site first (`_site_pass`), that keeps or sums each site for every
    block marginal, one site at a time. Each marginal is then an affine
    function of its letters. Per location, the table holds the compact
    marginals, then the same divided by the mass, then a one for the empty
    slots of states with fewer blocks. Each block slot (a state's first
    block, its second, ...) gathers its factors from the table with one
    index, in the smallest unsigned dtype: the first slot from the raw
    marginals, later slots from the divided ones. The factors multiply in
    place, in block order. The numpy calls of an evaluation grow with the
    sites and slots, not with the blocks or states, and besides the table
    the peak is the products, one gathered factor and the slots' index
    tables. A plan holds no stack; it compiles again for a stack of other
    alphabet sizes.
    """

    __slots__ = ("masks", "codes", "sizes", "passes", "gathers")

    def __init__(self, support: Sequence[int], states: Sequence[Sequence[tuple]]):
        width = max(map(len, states), default=0) or 1
        # per block slot and state: the block read there (-1 for an empty slot)
        self.codes = codes = [[-1] * len(states) for _ in range(width)]
        rows: dict = {}
        for i, blocks in enumerate(states):
            for k, block in enumerate(blocks):
                codes[k][i] = rows.setdefault(block, len(rows))
        bit = {s: 1 << i for i, s in enumerate(support)}
        self.masks = [sum(bit[s] for s in block) for block in rows]  # per block, its site mask
        self.sizes = None

    def _compile(self, sizes: tuple[int, ...]) -> None:
        self.passes, total, layout = _site_pass(self.masks, sizes)
        columns = 2 * total + 1
        dt = np.min_scalar_type(columns)  # holds every index
        # key of output entry x for a block: its column at x's letters, read
        # off a view of the column numbers with the block's strides
        union = 0
        for b in self.masks:
            union |= b
        covered = [j for j in range(len(sizes)) if union >> j & 1]
        shape = tuple(sizes[j] for j in covered)
        numbers = np.arange(columns, dtype=dt)
        keys = np.empty((len(self.masks) + 1, math.prod(shape)), dt)  # the last row serves empty slots
        for key, b in zip(keys, self.masks):
            base, st, _ = layout[b]
            step = dict(zip([j for j in covered if b >> j & 1], st))
            strides = tuple(step.get(j, 0) * numbers.itemsize for j in covered)
            key.reshape(shape)[...] = np.ndarray(shape, dt, numbers, base * numbers.itemsize, strides)
        keys[-1] = 2 * total
        codes = np.array(self.codes, dtype=np.intp)
        gathers = np.empty(codes.shape + keys.shape[1:], dt)
        keys.take(codes[0], axis=0, out=gathers[0])
        keys[:-1] += total  # later slots read the mass-normalised marginals
        keys.take(codes[1:], axis=0, out=gathers[1:])
        self.gathers = list(gathers)
        self.sizes = sizes

    def __call__(self, stack: np.ndarray) -> np.ndarray:
        if stack.shape[1:] != self.sizes:
            self._compile(stack.shape[1:])
        # (locations, letters of the sites not yet passed, pattern entries)
        marg = stack[..., np.newaxis]
        for keep, drop in self.passes:
            kept = summed = None
            if keep is not None:
                kept = marg[..., keep] if type(keep) is slice else marg.take(keep, axis=-1)
                kept = kept.reshape(kept.shape[:-2] + (-1,))
            if type(drop) is slice:
                summed = np.add.reduce(marg[..., drop], -2)
            elif drop is not None:
                summed = np.add.reduce(marg, -2).take(drop, axis=-1)
            marg = None  # a pruned step frees the previous site's array here
            marg = summed if kept is None else kept if summed is None else np.concatenate((kept, summed), axis=-1)
        mass = np.add.reduce(stack, tuple(range(1, stack.ndim)), keepdims=True)
        table = np.concatenate((marg, marg / mass.reshape(len(marg), 1), np.ones((len(marg), 1))), axis=1)
        first, *rest = self.gathers
        prod = table.take(first, axis=1)
        for idx in rest:
            prod *= table.take(idx, axis=1)
        return prod.transpose(1, 0, 2)


def _site_pass(masks: list, sizes: tuple):
    """The pass over the sites of a stack with these alphabet sizes that
    leaves the marginal of every block in `masks` (site bitmasks) in one
    compact row per location: its steps, the row length, and the layout of
    every mask's marginal in the row.

    A pattern is the set of already passed sites that a marginal keeps. The
    pass holds the entries of every live pattern side by side on one
    trailing axis, with one axis left per site not yet passed. Going from
    the last site to the first, it folds the site into the entries of the
    patterns that some needed block extends with it, sums it out of those
    that some block extends without it, and drops the rest, by a slice when
    the survivors form one range and by a `take` otherwise."""
    need = set(masks) or {0}
    # pattern -> (base, strides, sizes) of its kept sites, first site first:
    # the affine map from a pattern's letters to its entries
    layout = {0: (0, (), ())}
    total = 1
    # per step: (the kept part's selection, the summed part's selection); a
    # selection is None for an empty part, else a slice or a take index
    passes = []
    for j in reversed(range(len(sizes))):
        d, bit = sizes[j], 1 << j
        allowed = {b & -bit for b in need}  # the needed patterns of passed sites
        keep, s_keep, kept = _part(layout, total, [p for p in layout if p | bit in allowed])
        drop, s_drop, dropped = _part(layout, total, [p for p in layout if p in allowed])
        passes.append((keep, drop))
        # a kept site becomes the slowest axis of its patterns
        layout = {p | bit: (base, (s_keep,) + st, (d,) + dims) for p, (base, st, dims) in kept.items()}
        for p, (base, st, dims) in dropped.items():
            layout[p] = (d * s_keep + base, st, dims)
        total = d * s_keep + s_drop
    return passes, total, layout


def _part(layout: dict, total: int, chosen: list):
    """One part of a pass step: (its selection, its entry count, the layout
    of its patterns). The selection is None for an empty part, a slice when
    the chosen patterns' entries form one range (the layout shifts with
    it), else the `take` index that packs them one after another."""
    if not chosen:
        return None, 0, {}
    if len(chosen) == len(layout):
        return _ALL, total, layout
    index, packed = [], {}
    for p in chosen:
        base, st, dims = layout[p]
        packed[p] = (len(index), _packed(dims), dims)
        pos = [base]
        for stride, d in zip(st, dims):
            pos = [x + a * stride for x in pos for a in range(d)]
        index += pos
    low = min(index)
    if max(index) - low > len(index) - 1:
        return np.array(index), len(index), packed
    shifted = {}
    for p in chosen:
        base, st, dims = layout[p]
        shifted[p] = (base - low, st, dims)
    return slice(low, low + len(index)), len(index), shifted


def _packed(dims) -> tuple:
    """Strides of a contiguous C-order block of the given axis sizes."""
    st, step = [], 1
    for d in reversed(dims):
        st.append(step)
        step *= d
    return tuple(reversed(st))


def build_recombinator_vector(
    mu: Metapopulation, states: Sequence[LabelledPartition]
) -> np.ndarray:
    """Recombinator values of `mu` along `states`, one row per state: the one
    readout of products of block marginals at labels. Each distinct block's
    marginal is one axis sum that keeps the summed axes, so the marginals of
    one base partition broadcast in global site order. Per base partition,
    the states on it gather each block's marginal at their labels and
    multiply the factors in block order. All states cover the same sites.

    No factor is divided by its location's mass, so a product of k blocks
    carries the product of its k rows' masses: it is exact on the simplex,
    and off it by the tolerance the rows were accepted at, k times over.
    """
    stack = mu.as_array()
    bases: dict = {}  # blocks -> (positions, label vectors) of the states on them
    for i, state in enumerate(states):
        blocks, labels = zip(*state.items)
        rows, columns = bases.setdefault(blocks, ([], []))
        rows.append(i)
        columns.append(labels)
    marginals: dict = {}
    out = np.empty((len(states), mu.space.dim(states[0].base_set)))
    for blocks, (rows, columns) in bases.items():
        prod = None
        for block, labels in zip(blocks, np.array(columns, dtype=np.intp).T):
            marg = marginals.get(block)
            if marg is None:
                marg = marginals[block] = _marginals(stack, mu.support, block)
            prod = marg[labels] if prod is None else prod * marg[labels]
        out[rows] = prod.reshape(len(rows), -1)
    return out


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
    weights = build_recombinator_vector(mu, [bdelta])[0]
    return Distribution(mu.space, bdelta.base_set, weights, atol=1e-8)

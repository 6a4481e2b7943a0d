"""Probability distributions over multilocus type spaces.

A type space assigns each site a finite alphabet; a distribution lives on the
product alphabet of a *support* (an ascending tuple of sites) and stores its
weights densely in mixed-radix order, first support site slowest. That order
is exactly numpy's C order for the shape given by the per-site alphabet
sizes, so marginalising is an axis sum and the tensor product is an outer
product followed by an axis permutation. `block_products` is the one
array-level recombinator kernel that every solver route evaluates; routes
that evaluate one state list at every step (`ct_rhs`, `recombine`) keep it
compiled as a `BlockPlan`. The kernel makes one pass over the support sites
that leaves every block marginal it reads in one compact row per location,
lays the raw and mass-normalised rows side by side in one table, and forms
each block slot's factors with one gather from that table. `tensor` stays
as a measure-level utility.

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
        return Metapopulation(d.marginalise(keep) for d in self)

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


_ALL = slice(None)  # a pass step that keeps every pattern of its part


class BlockPlan:
    """`block_products` compiled for one (support, state list): call it on a
    stack to evaluate. A plan holds no array of any stack, so one plan
    serves any number of stacks; its index tables are built for the alphabet
    sizes of the first stack it evaluates, and rebuilt when a stack has
    other sizes.

    Building the plan numbers the distinct (block, label) factors and
    records, per block slot (a state's first block, its second, ...), the
    factor each state reads there. Compiling for the alphabet sizes plans
    the site pass (`_site_pass`), after which every block marginal is an
    affine function of its letters. So each factor's table column at every
    output entry is read off a strided view of the column numbers, and
    adding the slot's half (raw for a first block, mass-normalised after
    it) gives one gather index per slot and state, in the smallest unsigned
    dtype.
    """

    __slots__ = ("own", "masks", "factors", "labels", "codes", "empty", "sizes", "passes", "halves", "gathers")

    def __init__(self, support: Sequence[int], states: Sequence):
        width = max(map(len, states), default=0) or 1
        # per block slot and state: the factor read there (-1 for an empty
        # slot); a factor is a distinct (block, label) pair
        self.codes = codes = [[-1] * len(states) for _ in range(width)]
        self.empty = False
        rows: dict = {}
        for i, items in enumerate(states):
            if len(items) < width:
                self.empty = True
            for k, item in enumerate(items):
                row = rows.get(item)
                if row is None:
                    row = rows[item] = len(rows)
                codes[k][i] = row
        kinds = {label is None for _, label in rows}
        if len(kinds) > 1:
            raise ValueError("labels of one call must be all None or all int")
        self.own = False not in kinds
        bit = {s: 1 << i for i, s in enumerate(support)}
        masks: dict = {}  # block -> its site mask
        for block, _ in rows:
            if block not in masks:
                masks[block] = sum(bit[s] for s in block)
        # distinct masks, then per factor the index of its mask and its label
        self.masks = sorted(set(masks.values()))
        index = {b: i for i, b in enumerate(self.masks)}
        self.factors = [index[masks[block]] for block, _ in rows]
        self.labels = [label or 0 for _, label in rows]
        self.sizes = None

    def _compile(self, sizes: tuple[int, ...]) -> None:
        self.passes, total, layout = _site_pass(self.masks, sizes)
        # table columns per location: the raw marginals, the mass-normalised
        # ones if any state has a second block, a one if a slot is empty
        width = len(self.codes)
        self.halves = 1 if width == 1 else 2
        stride = self.halves * total + self.empty
        columns = (max(self.labels, default=0) + 1) * stride
        dt = np.min_scalar_type(columns)  # holds every index
        # key of output entry x for a factor: its column at x's letters, read
        # off a view of the column numbers with its block's strides
        union = 0
        for b in self.masks:
            union |= b
        covered = [j for j in range(len(sizes)) if union >> j & 1]
        shape = tuple(sizes[j] for j in covered)
        numbers = np.arange(columns, dtype=dt)
        views = []
        for b in self.masks:
            base, st, _ = layout[b]
            step = dict(zip([j for j in covered if b >> j & 1], st))
            views.append((base, tuple(step.get(j, 0) * numbers.itemsize for j in covered)))
        keys = np.empty((len(self.factors) + 1, math.prod(shape)), dt)  # the last row serves empty slots
        for key, m, label in zip(keys, self.factors, self.labels):
            base, strides = views[m]
            offset = (base + label * stride) * numbers.itemsize
            key.reshape(shape)[...] = np.ndarray(shape, dt, numbers, offset, strides)
        keys[-1] = self.halves * total
        codes = np.array(self.codes, dtype=np.intp)
        gathers = np.empty(codes.shape + keys.shape[1:], dt)
        keys.take(codes[0], axis=0, out=gathers[0])
        if width > 1:  # later slots read the mass-normalised half
            keys[:-1] += total
            keys.take(codes[1:], axis=0, out=gathers[1:])
        self.gathers = list(gathers)
        self.sizes = sizes

    def __call__(self, stack: np.ndarray) -> np.ndarray:
        if stack.shape[1:] != self.sizes:
            self._compile(stack.shape[1:])
        # (locations, letters of the sites not yet passed, pattern entries)
        marg = stack[..., np.newaxis]
        for fold, keep, drop in self.passes:
            kept = summed = None
            if fold:
                kept = marg[..., keep] if type(keep) is slice else marg.take(keep, axis=-1)
                kept = kept.reshape(kept.shape[: -1 - fold] + (-1,))
            if type(drop) is slice:
                summed = np.add.reduce(marg[..., drop], -2)
            elif drop is not None:
                summed = np.add.reduce(marg, -2).take(drop, axis=-1)
            marg = None  # a pruned step frees the previous site's array here
            marg = summed if kept is None else kept if summed is None else np.concatenate((kept, summed), axis=-1)
        table = marg
        if self.halves == 2 or self.empty:
            parts = [marg]
            if self.halves == 2:
                mass = np.add.reduce(stack, tuple(range(1, stack.ndim)), keepdims=True)
                parts.append(marg / mass.reshape(len(marg), 1))
            if self.empty:
                parts.append(np.ones((len(marg), 1)))
            table = np.concatenate(parts, axis=1)
        first, *rest = self.gathers
        if self.own:
            prod = table.take(first, axis=1)
            for idx in rest:
                prod *= table.take(idx, axis=1)
            return prod.transpose(1, 0, 2)
        # fancy indexing casts a small index in buffered chunks; take would
        # copy it to intp at full size
        flat = table.reshape(-1)
        prod = flat[first]
        for idx in rest:
            prod *= flat[idx]
        return prod[:, np.newaxis]


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
    union, inter = 0, -1
    for b in need:
        union, inter = union | b, inter & b
    # pattern -> (base, strides, sizes) of its kept sites, first site first:
    # the affine map from a pattern's letters to its entries
    layout = {0: (0, (), ())}
    total = 1
    # per step: (site axes the kept part folds, its selection, the summed
    # part's selection or None); a selection is a slice or a take index
    passes = []
    for j in reversed(range(len(sizes))):
        d, bit = sizes[j], 1 << j
        if inter & bit:  # every block keeps the site
            keep, s_keep, kept, drop, s_drop, dropped = _ALL, total, layout, None, 0, {}
        elif union & bit:
            allowed = {b & -bit for b in need}  # the needed patterns of passed sites
            keep, s_keep, kept = _part(layout, total, [p for p in layout if p | bit in allowed])
            drop, s_drop, dropped = _part(layout, total, [p for p in layout if p in allowed])
        else:  # no block keeps the site
            keep, s_keep, kept, drop, s_drop, dropped = None, 0, {}, _ALL, total, layout
        if keep is _ALL and drop is None and passes and passes[-1][2] is None:
            passes[-1] = (passes[-1][0] + 1, passes[-1][1], None)  # one reshape folds both
        else:
            passes.append((0 if keep is None else 1, keep, drop))
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
    Evaluating makes one pass over the support sites, last site first, that
    keeps or sums each site for every block marginal the states read, so
    each marginal entry is one sum over the dropped sites taken one site at
    a time. It then puts, per location, the compact marginals, the same
    divided by the location's mass, and a one for empty slots side by side
    in one table, and for each block slot gathers every state's factor from
    that table with one precomputed index and multiplies it into the
    products in place, in block order. The numpy calls of one evaluation
    grow with the number of sites and of slots, never with the number of
    blocks or states. Besides the compact marginals, the peak is the
    products, one gathered factor and the index tables of the slots. With
    labels None the result is a transposed view of a (rows, states, dim)
    array.
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

"""Set partitions and location-labelled partitions of small site sets.

Sites are 0-based ints everywhere inside the library; 1-based indices only
appear in serialised documents. A partition is kept in canonical form: each
block sorted ascending, blocks ordered by their smallest element. Because
blocks are ordered by minimum, scanning the sites in increasing order visits
the blocks in first-occurrence order, so the canonical order coincides with
the restricted-growth encoding used for enumeration.

Enumeration order is fixed: restricted growth strings in lexicographic
order (coarsest partition first, all-singletons last), and for labelled
partitions the base partitions in that order with label vectors in
mixed-radix order, first block slowest. Matrix-valued modules index their
state spaces by this order.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def _canonical_blocks(blocks: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    out = []
    seen: set[int] = set()
    for raw in blocks:
        block = tuple(sorted(set(raw)))
        if not block:
            raise ValueError("empty block")
        for s in block:
            if not isinstance(s, int) or isinstance(s, bool) or s < 0:
                raise ValueError(f"bad site index {s!r}: sites are non-negative ints")
            if s in seen:
                raise ValueError(f"site {s} appears in more than one block")
            seen.add(s)
        out.append(block)
    if not out:
        raise ValueError("empty site set")
    out.sort(key=lambda b: b[0])
    return tuple(out)


class _Frozen:
    """Base of the library's immutable values: each sets its slots once,
    when it is made, and refuses every later assignment."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


def _fill(obj, **fields) -> None:
    """Set the fields of an immutable value."""
    for name, value in fields.items():
        object.__setattr__(obj, name, value)


class Partition(_Frozen):
    """A partition of a finite site set into disjoint non-empty blocks."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: Iterable[Iterable[int]]):
        object.__setattr__(self, "blocks", _canonical_blocks(blocks))

    @property
    def base_set(self) -> tuple[int, ...]:
        return tuple(sorted(s for b in self.blocks for s in b))

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.blocks)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash(self.blocks)

    def __repr__(self) -> str:
        inner = "|".join(",".join(str(s) for s in b) for b in self.blocks)
        return f"Partition[{inner}]"

    def restrict(self, sites: Iterable[int]) -> "Partition":
        """Induced partition on a non-empty subset of the base set. The
        blocks of a canonical partition cut down to the subset are disjoint
        and sorted, so they are only re-ordered, not validated again."""
        v = frozenset(sites)
        kept = [cut for cut in (tuple(filter(v.__contains__, b)) for b in self.blocks) if cut]
        if not v or sum(map(len, kept)) != len(v):
            _check_subset(v, self.base_set)  # names what is wrong
        kept.sort(key=lambda b: b[0])
        part = object.__new__(Partition)
        object.__setattr__(part, "blocks", tuple(kept))
        return part

    def rgs(self) -> tuple[int, ...]:
        """Restricted growth string: per site (ascending), the index of its block."""
        idx = {s: i for i, b in enumerate(self.blocks) for s in b}
        return tuple(idx[s] for s in sorted(idx))


class LabelledPartition(_Frozen):
    """A partition whose blocks each carry a location label (an int)."""

    __slots__ = ("items",)

    def __init__(self, items: Iterable[tuple[Iterable[int], int]]):
        pairs = []
        for raw_block, label in items:
            if not isinstance(label, int) or isinstance(label, bool) or label < 0:
                raise ValueError(f"bad location label {label!r}")
            pairs.append((tuple(sorted(set(raw_block))), label))
        _canonical_blocks(b for b, _ in pairs)  # validates disjointness
        pairs.sort(key=lambda it: it[0][0])
        object.__setattr__(self, "items", tuple(pairs))

    @classmethod
    def _from_canonical(cls, items: tuple[tuple[tuple[int, ...], int], ...]) -> "LabelledPartition":
        # trusted fast path: caller guarantees canonical, disjoint items
        lp = object.__new__(cls)
        object.__setattr__(lp, "items", items)
        return lp

    @property
    def base(self) -> Partition:
        return Partition(b for b, _ in self.items)

    @property
    def base_set(self) -> tuple[int, ...]:
        return tuple(sorted(s for b, _ in self.items for s in b))

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(l for _, l in self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[tuple[tuple[int, ...], int]]:
        return iter(self.items)

    def __eq__(self, other) -> bool:
        return isinstance(other, LabelledPartition) and self.items == other.items

    def __hash__(self) -> int:
        return hash(self.items)

    def __repr__(self) -> str:
        inner = "|".join(
            ",".join(str(s) for s in b) + f"@{l}" for b, l in self.items
        )
        return f"LabelledPartition[{inner}]"

    def restrict(self, sites: Iterable[int]) -> "LabelledPartition":
        """Induced labelled partition: blocks intersected, labels inherited."""
        v = _check_subset(sites, self.base_set)
        kept = []
        for b, l in self.items:
            cut = tuple(s for s in b if s in v)
            if cut:
                kept.append((cut, l))
        return LabelledPartition(kept)

    def sort_key(self):
        return (self.base.rgs(), self.labels)


def _by_block_min(item):
    return item[0][0]


def glued_labelled(items: Iterable[tuple[tuple[int, ...], int]]) -> LabelledPartition:
    """Trusted construction from disjoint, sorted blocks in any order, such as
    the fragments of split blocks put back together: sorts them by smallest
    site and skips validation. Inner loops use it (`lpp_step` sorts its own
    list in place by the same key); input from outside goes through
    `LabelledPartition`."""
    return LabelledPartition._from_canonical(tuple(sorted(items, key=_by_block_min)))


def _check_subset(sites: Iterable[int], base: tuple[int, ...]) -> frozenset[int]:
    v = frozenset(sites)
    if not v:
        raise ValueError("empty site set")
    if not v <= frozenset(base):
        raise ValueError(f"sites {sorted(v - frozenset(base))} not in base set")
    return v


def coarsest(sites: Iterable[int]) -> Partition:
    """The one-block partition of the given sites."""
    return Partition([tuple(sites)])


def finest(sites: Iterable[int]) -> Partition:
    """The all-singletons partition of the given sites."""
    return Partition([(s,) for s in sites])


def whole_labelled(sites: Iterable[int], label: int) -> LabelledPartition:
    """Single block covering `sites`, carrying `label`."""
    return LabelledPartition([(tuple(sites), label)])


def _rgs_strings(m: int) -> Iterator[tuple[int, ...]]:
    # lexicographic: digit i ranges over 0..max(previous)+1, ascending
    a = [0] * m

    def rec(i: int, mx: int) -> Iterator[tuple[int, ...]]:
        if i == m:
            yield tuple(a)
            return
        for v in range(mx + 2):
            a[i] = v
            yield from rec(i + 1, max(mx, v))

    return rec(0, -1)


def enumerate_partitions(sites: Iterable[int]) -> list[Partition]:
    """All partitions of `sites`, restricted-growth-string lexicographic order."""
    u = tuple(sorted(set(sites)))
    if not u:
        raise ValueError("empty site set")
    out = []
    for rgs in _rgs_strings(len(u)):
        nblocks = max(rgs) + 1
        blocks: list[list[int]] = [[] for _ in range(nblocks)]
        for site, digit in zip(u, rgs):
            blocks[digit].append(site)
        out.append(Partition(blocks))
    return out


def is_refinement(finer: Partition, coarser: Partition) -> bool:
    """True when every block of `finer` sits inside a block of `coarser`.

    Reflexive: a partition refines itself. Both arguments must share a base set.
    """
    if finer.base_set != coarser.base_set:
        raise ValueError("partitions have different base sets")
    owner = {s: i for i, b in enumerate(coarser.blocks) for s in b}
    for b in finer.blocks:
        first = owner[b[0]]
        if any(owner[s] != first for s in b[1:]):
            return False
    return True


def meet(p: Partition, q: Partition) -> Partition:
    """Coarsest common refinement: all non-empty pairwise block intersections."""
    if p.base_set != q.base_set:
        raise ValueError("partitions have different base sets")
    blocks = []
    for b in p.blocks:
        bs = set(b)
        for c in q.blocks:
            cut = bs.intersection(c)
            if cut:
                blocks.append(tuple(sorted(cut)))
    return Partition(blocks)

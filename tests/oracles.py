"""Brute-force reference implementations used to pin expected values.

Everything here is written independently of the library internals: different
algorithms, no shared helpers, numpy only for plain array arithmetic; the
library's LabelledPartition is only the type `enumerate_labelled_partitions`
returns. Slow is fine; these run on tiny inputs.
"""

import itertools
from functools import lru_cache, reduce

import numpy as np

from recolat.partitions import LabelledPartition


# ---------------------------------------------------------------- counting

@lru_cache(maxsize=None)
def bell(n: int) -> int:
    if n == 0:
        return 1
    # B(n+1) = sum_k C(n,k) B(k)
    total = 0
    for k in range(n):
        total += _binom(n - 1, k) * bell(k)
    return total


def _binom(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def labelled_partition_count(m: int, locations: int) -> int:
    return sum(stirling2(m, k) * locations**k for k in range(1, m + 1))


# ------------------------------------------------------- brute enumeration

def brute_partitions(sites):
    """All partitions as frozensets of frozensets, by first-element recursion."""
    sites = sorted(sites)
    if not sites:
        return [frozenset()]
    first, rest = sites[0], sites[1:]
    out = []
    for k in range(len(rest) + 1):
        for comb in itertools.combinations(rest, k):
            block = frozenset((first,) + comb)
            remaining = [s for s in rest if s not in comb]
            if remaining:
                for sub in brute_partitions(remaining):
                    out.append(sub | {block})
            else:
                out.append(frozenset({block}))
    return out


def enumerate_labelled_partitions(sites, num_locations):
    """All location-labelled partitions of `sites` as LabelledPartitions:
    base partitions of `brute_partitions` sorted by restricted growth
    string, then label vectors in mixed-radix order, first block slowest."""
    if num_locations < 1:
        raise ValueError("need at least one location")

    def growth_string(part):
        owner = {s: i for i, b in enumerate(sorted(part, key=min)) for s in b}
        return tuple(owner[s] for s in sorted(owner))

    out = []
    for part in sorted(brute_partitions(sites), key=growth_string):
        blocks = [tuple(sorted(b)) for b in sorted(part, key=min)]
        for labels in itertools.product(range(num_locations), repeat=len(blocks)):
            out.append(LabelledPartition(zip(blocks, labels)))
    return out


def brute_is_refinement(finer, coarser) -> bool:
    """Set-theoretic containment check on frozenset-of-frozenset partitions."""
    return all(any(b <= c for c in coarser) for b in finer)


def brute_meet(p, q):
    return frozenset(
        b & c for b in p for c in q if b & c
    )


# ------------------------------------------------ brute measure operations

def brute_index(letters, sizes):
    """Mixed-radix rank of a letter tuple, first position slowest."""
    idx = 0
    for a, s in zip(letters, sizes):
        idx = idx * s + a
    return idx


def brute_marginal(weights, support, sizes_by_site, keep):
    """Marginalise a dense vector over `support` onto `keep` by full enumeration."""
    keep = sorted(keep)
    ksizes = [sizes_by_site[s] for s in keep]
    out = np.zeros(int(np.prod(ksizes)) if keep else 1)
    ranges = [range(sizes_by_site[s]) for s in support]
    for letters in itertools.product(*ranges):
        by_site = dict(zip(support, letters))
        sub = tuple(by_site[s] for s in keep)
        out[brute_index(sub, ksizes)] += weights[
            brute_index(letters, [sizes_by_site[s] for s in support])
        ]
    return out


def brute_tensor(factors, sizes_by_site):
    """Product measure of (support, weights) factors, by full enumeration."""
    supports = [f[0] for f in factors]
    union = sorted(s for sup in supports for s in sup)
    usizes = [sizes_by_site[s] for s in union]
    out = np.zeros(int(np.prod(usizes)) if union else 1)
    ranges = [range(sizes_by_site[s]) for s in union]
    for letters in itertools.product(*ranges):
        by_site = dict(zip(union, letters))
        val = 1.0
        for sup, w in factors:
            sub = tuple(by_site[s] for s in sup)
            val *= w[brute_index(sub, [sizes_by_site[s] for s in sup])]
        out[brute_index(letters, usizes)] = val
    return out


def loop_block_products(stack, support, states):
    """The recombinator kernel as a plain loop over states and blocks, with
    the kernel's arithmetic (keepdims axis sums, later blocks divided by the
    row mass, factors multiplied left to right), so results match bitwise."""
    mass = np.add.reduce(stack, tuple(range(1, stack.ndim)), keepdims=True)
    out = []
    for items in states:
        prod = None
        for block, label in items:
            drop = tuple(a for a, s in enumerate(support, 1) if s not in block)
            marg = reduce(lambda m, a: np.add.reduce(m, a, keepdims=True), reversed(drop), stack)
            if prod is not None:
                marg = marg / mass
            factor = marg if label is None else marg[label : label + 1]
            prod = factor if prod is None else prod * factor
        out.append(prod)
    rows = max(p.shape[0] for p in out)
    return np.stack([np.broadcast_to(p, (rows,) + p.shape[1:]).reshape(rows, -1) for p in out])


# ------------------------------------------------ labelled transition rows

def _canonical_items(pairs):
    """(block, label) pairs as sorted block tuples ordered by smallest site."""
    return tuple(sorted(((tuple(sorted(b)), l) for b, l in pairs), key=lambda it: it[0][0]))


def brute_labelled_row(model, items):
    """One-step law out of the labelled partition `items` ((block, label)
    pairs), from the product formula over every partition of its sites: a
    labelled refinement (eps, b) gets, per old block d, the total weight of
    the support partitions that cut d into eps's blocks inside d, times one
    factor M[label of d, b_j] per block j of eps inside d. Keys are
    canonical item tuples; zero entries are left out."""
    sites = sorted(s for b, _ in items for s in b)
    support = [(frozenset(frozenset(b) for b in part.blocks), w) for part, w in model.recomb.items()]
    m = np.asarray(model.migration)
    row = {}
    for eps in brute_partitions(sites):
        weight, parent = 1.0, {}
        for d, label in items:
            d = frozenset(d)
            inside = {b for b in eps if b <= d}
            if sum(len(b) for b in inside) != len(d):
                weight = 0.0  # eps does not refine the old partition
                break
            cut = sum(w for part, w in support if {b & d for b in part if b & d} == inside)
            weight *= cut
            parent.update((b, label) for b in inside)
        if weight == 0.0:
            continue
        blocks = sorted(eps, key=min)
        for labels in itertools.product(range(m.shape[0]), repeat=len(blocks)):
            p = weight
            for b, l in zip(blocks, labels):
                p *= m[parent[b], l]
            if p > 0.0:
                key = _canonical_items(zip(blocks, labels))
                row[key] = row.get(key, 0.0) + p
    return row


def brute_labelled_system(model, starts):
    """States reachable from `starts` (item tuples) through positive
    entries of `brute_labelled_row`, in canonical order (restricted growth
    string of the blocks, then labels), and their dense matrix."""
    rows, frontier = {}, [_canonical_items(s) for s in starts]
    while frontier:
        state = frontier.pop()
        if state not in rows:
            rows[state] = brute_labelled_row(model, state)
            frontier.extend(rows[state])

    def order(state):
        owner = {s: i for i, (b, _) in enumerate(state) for s in b}
        return tuple(owner[s] for s in sorted(owner)), tuple(l for _, l in state)

    states = sorted(rows, key=order)
    pos = {s: i for i, s in enumerate(states)}
    matrix = np.zeros((len(states), len(states)))
    for state, row in rows.items():
        for target, p in row.items():
            matrix[pos[state], pos[target]] = p
    return states, matrix

"""Independent reference and property checks for the benchmark.

Everything here is written from the model's definition with plain numpy and
shares no code with recolat. A partition is a tuple of sorted site tuples in
canonical order; a recombination law is a list of (partition, weight).

The forward map is the definition itself: mix the locations by the backward
migration matrix, then replace each location's distribution by
sum_delta r_delta * (product over the blocks of delta of the block marginal).
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np


class CheckFailure(Exception):
    """A program output disagrees with the reference or breaks a property."""


# ------------------------------------------------------------------ partitions

def canon(blocks) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(tuple(sorted(b)) for b in blocks if b))


def set_partitions(sites) -> list[tuple[tuple[int, ...], ...]]:
    """Every partition of `sites`, by placing each site into an existing
    block or a new one."""
    sites = sorted(sites)
    out: list[list[list[int]]] = [[]]
    for s in sites:
        grown = []
        for blocks in out:
            for i in range(len(blocks)):
                grown.append(blocks[:i] + [blocks[i] + [s]] + blocks[i + 1:])
            grown.append(blocks + [[s]])
        out = grown
    return [canon(p) for p in out]


def restrict(part, block) -> tuple[tuple[int, ...], ...]:
    keep = set(block)
    return canon([s for s in b if s in keep] for b in part)


def coarsest(n: int):
    return (tuple(range(n)),)


def finest(n: int):
    return tuple((s,) for s in range(n))


# ---------------------------------------------------------------- forward map

def forward_step(stack, sizes, recomb, migration) -> np.ndarray:
    """One generation of the nonlinear recursion on an (L, dim) stack."""
    n = len(sizes)
    nd = (migration @ stack).reshape((stack.shape[0],) + tuple(sizes))
    out = np.zeros_like(nd)
    for part, weight in recomb:
        product = 1.0
        for block in part:
            dropped = tuple(1 + s for s in range(n) if s not in block)
            product = product * nd.sum(axis=dropped, keepdims=True)
        out += weight * product
    out = out.reshape(stack.shape)
    # Mass 1 is a fixed point the map repels (total mass m goes to
    # sum_delta r_delta m^|delta|), so renormalise: exact on the simplex, and
    # it keeps round-off from growing over long horizons.
    return out / out.sum(axis=1, keepdims=True)


def forward_trajectory(case, t: int) -> list[np.ndarray]:
    states = [np.array(case.initial, dtype=float)]
    for _ in range(t):
        states.append(forward_step(states[-1], case.sizes, case.recomb, case.migration))
    return states


def long_run(case, min_steps: int = 200, max_steps: int = 20_000) -> np.ndarray:
    """Forward map iterated until one more generation moves nothing above
    1e-15 (at least `min_steps` generations)."""
    x = np.array(case.initial, dtype=float)
    for k in range(max_steps):
        nxt = forward_step(x, case.sizes, case.recomb, case.migration)
        done = k >= min_steps and np.abs(nxt - x).max() < 1e-15
        x = nxt
        if done:
            return x
    raise CheckFailure(f"{case.label}: reference did not settle in {max_steps} generations")


def stationary(migration) -> np.ndarray:
    values, vectors = np.linalg.eig(np.asarray(migration, dtype=float).T)
    v = np.real(vectors[:, int(np.argmin(np.abs(values - 1.0)))])
    return v / v.sum()


# ------------------------------------------------------- label-free block chain

def block_law(recomb, block) -> dict:
    """Law of the sub-partition that one generation cuts `block` into."""
    law: dict = {}
    for part, weight in recomb:
        sub = restrict(part, block)
        law[sub] = law.get(sub, 0.0) + weight
    return law


def base_row(recomb, delta) -> dict:
    """One-step law of the label-free block process: blocks split independently."""
    row = {(): 1.0}
    for block in delta:
        row = {
            prefix + sub: p * q
            for prefix, p in row.items()
            for sub, q in block_law(recomb, block).items()
        }
    out: dict = {}
    for blocks, p in row.items():
        key = canon(blocks)
        out[key] = out.get(key, 0.0) + p
    return out


def base_chain(recomb, n: int):
    """States reachable from the one-block partition and their rows."""
    start = coarsest(n)
    rows = {}
    frontier = [start]
    while frontier:
        delta = frontier.pop()
        if delta in rows:
            continue
        rows[delta] = base_row(recomb, delta)
        frontier.extend(d for d in rows[delta] if d not in rows)
    return rows


def sojourn_peaks(recomb, n: int):
    """(eta, peak partitions): the largest probability of staying put among
    reachable states that are not fully split, and the states attaining it."""
    rows = base_chain(recomb, n)
    stay = {d: row.get(d, 0.0) for d, row in rows.items() if d != finest(n)}
    eta = max(stay.values())
    return eta, sorted(d for d, s in stay.items() if s >= eta * (1.0 - 1e-12))


def absorption_tail(recomb, n: int, t_max: int) -> np.ndarray:
    """P(the block process from one block is not fully split by t)."""
    rows = base_chain(recomb, n)
    states = sorted(rows)
    pos = {d: i for i, d in enumerate(states)}
    mat = np.zeros((len(states), len(states)))
    for d, row in rows.items():
        for target, p in row.items():
            mat[pos[d], pos[target]] += p
    alive = np.array([d != finest(n) for d in states])
    v = np.zeros(len(states))
    v[pos[coarsest(n)]] = 1.0
    out = np.empty(t_max + 1)
    for t in range(t_max + 1):
        out[t] = v[alive].sum()
        v = v @ mat
    return out


# ----------------------------------------------------------- Monte Carlo band

# Bonferroni over every coordinate a check can compare: at most
# MC_MAX_COORDS_PER_RUN coordinates in one run, MC_RUNS_PER_CHECK runs in one
# evaluation of the benchmark, and a family-wise false-alarm rate of
# MC_FAMILY_ALPHA. The derivation is in README.md.
MC_FAMILY_ALPHA = 1e-3
MC_RUNS_PER_CHECK = 100
MC_MAX_COORDS_PER_RUN = 10_000
MC_COORD_ALPHA = MC_FAMILY_ALPHA / (MC_RUNS_PER_CHECK * MC_MAX_COORDS_PER_RUN)
MC_Z = NormalDist().inv_cdf(1.0 - MC_COORD_ALPHA / 2.0)
MC_FLOOR = math.log(1.0 / MC_COORD_ALPHA)  # divided by the replicate count


def mc_band(stderr, replicates: int) -> np.ndarray:
    return MC_Z * np.asarray(stderr, dtype=float) + MC_FLOOR / replicates


# ------------------------------------------------------------------ checking

class Reference:
    """Reference solutions, optionally shifted by `perturb` (mass moved from
    coordinate 1 to coordinate 0 of every location) to prove the checks bite."""

    def __init__(self, perturb: float = 0.0):
        self.perturb = perturb

    def _shift(self, stack: np.ndarray) -> np.ndarray:
        if self.perturb:
            stack = stack.copy()
            stack[:, 0] += self.perturb
            stack[:, 1] -= self.perturb
        return stack

    def forward(self, case, t: int) -> list[np.ndarray]:
        return [self._shift(s) for s in forward_trajectory(case, t)]

    def limit(self, case) -> np.ndarray:
        return self._shift(long_run(case))


class Checker:
    """Collects the worst deviation of every check; raises on the first breach."""

    def __init__(self):
        self.worst: dict[str, tuple[float, float]] = {}
        self.mc_coords = 0

    def _record(self, kind: str, err: float, tol: float, what: str) -> None:
        key = f"{kind}@{tol:.0e}"
        self.worst[key] = (max(self.worst.get(key, (0.0, tol))[0], err), tol)
        if not err <= tol:  # also catches nan
            raise CheckFailure(f"{what}: deviation {err:.3e} exceeds {tol:.1e}")

    def close(self, kind: str, what: str, actual, expected, tol: float) -> None:
        a = np.asarray(actual, dtype=float)
        e = np.asarray(expected, dtype=float)
        if a.shape != e.shape:
            raise CheckFailure(f"{what}: shape {a.shape} differs from reference {e.shape}")
        self._record(kind, float(np.abs(a - e).max()) if a.size else 0.0, tol, what)

    def distribution(self, what: str, stack, mass_tol: float = 1e-9) -> None:
        s = np.atleast_2d(np.asarray(stack, dtype=float))
        self._record("mass", float(np.abs(s.sum(axis=1) - 1.0).max()), mass_tol, f"{what} mass")
        self._record("negative", float(max(0.0, -s.min())), 1e-12, f"{what} negative weight")

    def mc(self, what: str, estimate, stderr, replicates: int, expected) -> None:
        est = np.asarray(estimate, dtype=float)
        band = mc_band(stderr, replicates)
        ratio = float((np.abs(est - np.asarray(expected, dtype=float)) / band).max())
        self.mc_coords += est.size
        if self.mc_coords > MC_MAX_COORDS_PER_RUN:
            raise CheckFailure(
                f"{self.mc_coords} Monte Carlo coordinates compared in one run; the band "
                f"assumes at most {MC_MAX_COORDS_PER_RUN}"
            )
        self._record("mc_band_ratio", ratio, 1.0, f"{what} Monte Carlo band")

    def holds(self, what: str, condition: bool) -> None:
        if not condition:
            raise CheckFailure(what)

    def summary(self) -> str:
        return ", ".join(f"{k} {v[0]:.2e}" for k, v in sorted(self.worst.items()))

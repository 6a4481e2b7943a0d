"""Continuous-time migration-recombination.

The state evolves by a nonlinear ODE: a linear migration flow given by a
Markov generator over locations plus, for every partition with positive
rate, a recombination drift towards the corresponding product measure.
Three routes to the solution live here: fixed-step RK4 on the ODE, the
exact linearisation through the generator of the labelled partitioning
jump process (solved with a matrix exponential), and for two sites one
exponential of a small block generator (L whole, L**2 split states).
Splitting and relabelling are separate jump events: fragments of a split
block keep their parent's label until a relabel event moves them. The
generator is assembled by `linear.closure`, the routine that also builds the
label-free block matrix behind the discrete T; `build_generator` only
supplies the jump rates and sets the diagonal to minus the row sums.

The drift is G omega + pull(omega), with the recombination pull of
`forward.pull`, the operator the discrete map adds to the migrated state;
the rates take the place of the probabilities. It is compiled into one
`BlockPlan` over the split partitions at the first `ct_rhs` call and kept
on the model. One pass over the sites leaves the marginal of every block in
a compact table, one gather per block slot forms all the products from it,
and one matrix product weights them by the rates. Marginals after the first
are divided by the location's mass, so each pull keeps the mass of its row:
the flow conserves mass for any mass, not only on the simplex, and RK4
round-off does not grow. Unnormalised products would give dm/dt = sum of
rho * (m**blocks - m), for which m = 1 is an unstable fixed point. scipy is
imported only by the two routes that exponentiate a matrix.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .forward import check_horizon, check_initial, checked_weights, induced_law, pull
from .linear import LinearSystem, checked_starts, closure, start_rows
from .lpp import _two_site_chain, replicate_rng
from .measures import Metapopulation, TypeSpace
from .partitions import LabelledPartition, Partition, glued_labelled

GENERATOR_ATOL = 1e-12
# t_end/dt within this of a whole number k means k RK4 steps
GRID_RTOL = 1e-9


def checked_generator(generator) -> np.ndarray:
    """Read-only copy of a migration generator: square and finite,
    non-negative off the diagonal, rows summing to zero."""
    gen = np.array(generator, dtype=float)
    if gen.ndim != 2 or gen.shape[0] != gen.shape[1]:
        raise ValueError("migration generator must be square")
    off = gen - np.diag(np.diag(gen))
    if not (np.isfinite(gen) & (off >= 0)).all():
        raise ValueError("negative off-diagonal or non-finite migration rate")
    if not np.abs(gen.sum(axis=1)).max() <= GENERATOR_ATOL:
        raise ValueError("generator rows must sum to zero")
    gen.flags.writeable = False
    return gen


class CtModel:
    """Recombination rates per partition plus a migration generator."""

    __slots__ = ("space", "rates", "generator", "_cache")

    def __init__(self, space: TypeSpace, rates, generator):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "rates", checked_weights(space, rates, "rate"))
        object.__setattr__(self, "generator", checked_generator(generator))
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("CtModel is immutable")

    @property
    def num_sites(self) -> int:
        return len(self.space.alphabet_sizes)

    @property
    def num_locations(self) -> int:
        return self.generator.shape[0]

    @property
    def sites(self) -> tuple[int, ...]:
        return self.space.sites

    def marginal_rates(self, sites) -> dict[Partition, float]:
        """Rates of the induced splitting events on a site subset: total rate
        of full-set partitions sharing each restriction."""
        return induced_law(self, self.rates, sites)


def ct_rhs(state, model: CtModel) -> np.ndarray:
    """Right-hand side of the flow on a raw (locations, dim) stack: migration
    drift plus rate-weighted pull towards each partition's product measure.
    Rows sum to zero. The pull is `forward.pull`, the one `step` applies."""
    stack = state.stack() if isinstance(state, Metapopulation) else np.asarray(state, float)
    return model.generator @ stack + pull(model, model.rates, model.sites)(stack)


@dataclass(frozen=True)
class CtTrajectory:
    """RK4 output: times, states, and the largest observed normalisation
    drift (monitored, never corrected)."""

    times: np.ndarray
    states: list[Metapopulation]
    max_drift: float

    @property
    def final(self) -> Metapopulation:
        return self.states[-1]

    def at(self, t: float) -> Metapopulation:
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > 1e-9:
            raise ValueError(f"time {t} is not on the integration grid")
        return self.states[i]


def integrate(omega0: Metapopulation, model: CtModel, t_end: float, dt: float) -> CtTrajectory:
    """Classic fixed-step RK4 on the grid k*dt, with a final partial step
    that lands exactly on t_end. The step count is fixed up front, so a
    ratio t_end/dt that is whole up to round-off adds no sliver step."""
    if not 0 < dt < np.inf:
        raise ValueError("dt must be positive and finite")
    check_horizon(t_end)
    check_initial(omega0, model, full=True)
    steps = math.ceil(t_end / dt - GRID_RTOL)
    times = np.arange(steps + 1) * dt
    times[-1] = t_end
    stack = omega0.stack()
    states = [omega0]
    drift = float(np.abs(stack.sum(axis=1) - 1.0).max())
    for k in range(1, steps + 1):
        h = dt if k < steps else t_end - times[k - 1]
        k1 = ct_rhs(stack, model)
        k2 = ct_rhs(stack + 0.5 * h * k1, model)
        k3 = ct_rhs(stack + 0.5 * h * k2, model)
        k4 = ct_rhs(stack + h * k3, model)
        stack = stack + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if stack.min() < -1e-9:
            raise ValueError("step size too large")
        drift = max(drift, float(np.abs(stack.sum(axis=1) - 1.0).max()))
        states.append(
            Metapopulation.from_stack(model.space, model.sites, stack, atol=1e-7)
        )
    return CtTrajectory(times, states, drift)


def _jump_targets(state: LabelledPartition, model: CtModel):
    """All single-event moves out of `state` with their rates."""
    items = state.items
    for i, (block, label) in enumerate(items):
        if len(block) > 1:
            for sub, rho in model.marginal_rates(block).items():
                if len(sub) == 1:
                    continue  # no actual split
                pieces = tuple((b, label) for b in sub.blocks)
                yield glued_labelled(items[:i] + pieces + items[i + 1 :]), rho
        row = model.generator[label]
        for beta in range(model.num_locations):
            if beta != label and row[beta] > 0:
                moved = items[:i] + ((block, beta),) + items[i + 1 :]
                yield LabelledPartition._from_canonical(moved), row[beta]


def build_generator(model: CtModel, starts=None) -> LinearSystem:
    """Jump-process generator Q over the labelled partitions reachable from
    `starts` (default: one single-block state per location): one block
    splits (fragments keep its label) or one block relabels."""
    starts = checked_starts(model, starts)
    states, q = closure(starts, lambda s: _jump_targets(s, model), LabelledPartition.sort_key)
    np.fill_diagonal(q, -q.sum(axis=1))
    return LinearSystem(starts, states, q)


def ct_solve_dual(
    omega0: Metapopulation,
    model: CtModel,
    t: float,
    generator: LinearSystem | None = None,
) -> Metapopulation:
    """Solution via the linearisation: exponentiate the jump-process
    generator, apply to the recombinator vector of the initial state, read
    off the single-block components."""
    from scipy.linalg import expm  # scipy loads only for the routes that need it

    check_horizon(t)
    check_initial(omega0, model, full=True)
    if generator is None:
        generator = build_generator(model)
    return start_rows(expm(t * generator.matrix), omega0, model, generator)


def ct_two_site(omega0: Metapopulation, model: CtModel, t: float) -> Metapopulation:
    """Two-site solution: the exponential of the block chain's generator
    [[G - rho I, rho S], [0, G kron I + I kron G]] applied to the start
    vector of `lpp._two_site_chain`; its whole-state rows are the answer. A
    whole state splits at rate rho, both blocks keeping its label, and the
    blocks of a split migrate independently (Van Loan's block form of the
    integral over the split time)."""
    from scipy.linalg import expm  # scipy loads only for the routes that need it

    if model.num_sites != 2:
        raise ValueError("closed-form solution requires exactly two sites")
    check_horizon(t)
    check_initial(omega0, model, full=True)
    rho = model.rates.get(Partition([(model.sites[0],), (model.sites[1],)]), 0.0)
    gen = model.generator
    nloc = model.num_locations
    start, select = _two_site_chain(omega0)
    eye = np.eye(nloc)
    pair = np.kron(gen, eye) + np.kron(eye, gen)
    chain = np.block([[gen - rho * eye, rho * select], [np.zeros((nloc**2, nloc)), pair]])
    out = (expm(t * chain) @ start)[:nloc]
    return Metapopulation.from_stack(model.space, model.sites, out, atol=1e-8)


@dataclass(frozen=True)
class CtJumpChain:
    """One sampled trajectory of the labelled partitioning jump process."""

    times: tuple[float, ...]
    states: tuple[LabelledPartition, ...]

    def state_at(self, t: float) -> LabelledPartition:
        i = bisect_right(self.times, t) - 1
        if i < 0:
            raise ValueError("time before the chain starts")
        return self.states[i]


def ct_simulate(
    start: LabelledPartition,
    model: CtModel,
    t_end: float,
    replicates: int,
    seed: int,
):
    """Gillespie sampling of the jump process: exponential holding times at
    the total outgoing rate, jump chosen proportionally to the event rates.
    One counter-based stream per replicate, unlike the chunked discrete walk."""
    check_horizon(t_end)
    if replicates < 1:
        raise ValueError("need at least one replicate")
    checked_starts(model, [start])
    for rep in range(replicates):
        rng = replicate_rng(seed, rep)
        t = 0.0
        state = start
        times = [0.0]
        states = [start]
        while True:
            moves = list(_jump_targets(state, model))
            total = sum(rate for _, rate in moves)
            if total <= 0:
                break
            t += rng.exponential(1.0 / total)
            if t > t_end:
                break
            u = rng.random() * total
            acc = 0.0
            for target, rate in moves:
                acc += rate
                if u < acc:
                    state = target
                    break
            times.append(t)
            states.append(state)
        yield CtJumpChain(tuple(times), tuple(states))

"""Continuous-time migration-recombination.

The state evolves by a nonlinear ODE: a linear migration flow given by a
Markov generator over locations plus, for every partition with positive
rate, a recombination drift towards the corresponding product measure.
Three routes to the solution live here: fixed-step RK4 on the ODE, the
exact linearisation through the generator of the labelled partitioning
jump process (solved with a matrix exponential), and for two sites a
one-dimensional integral formula evaluated by adaptive Simpson quadrature.
Splitting and relabelling are separate jump events: fragments of a split
block keep their parent's label until a relabel event moves them. The
generator is assembled by `linear.closure`, the routine that also builds the
label-free block matrix behind the discrete T; `build_generator` only
supplies the jump rates and sets the diagonal to minus the row sums.

The drift's product measures come from the recombinator kernel of
`measures`: a `CtModel` compiles its split partitions into one `BlockPlan`
at construction, and every `ct_rhs` call evaluates that plan, whose
marginals after the first are divided by the location's mass. Each pull
then keeps the mass of its row, so the flow conserves mass for any mass,
not only on the simplex, and RK4 round-off does not grow. Unnormalised
products would give dm/dt = sum of rho * (m**blocks - m), for which m = 1
is an unstable fixed point.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .forward import check_locations, induced_law
from .linear import LinearSystem, checked_starts, closure, start_rows
from .lpp import replicate_rng
from .measures import BlockPlan, Metapopulation, TypeSpace
from .partitions import LabelledPartition, Partition, glued_labelled

GENERATOR_ATOL = 1e-12
# t_end/dt within this of a whole number k means k RK4 steps
GRID_RTOL = 1e-9


def checked_generator(generator) -> np.ndarray:
    """Read-only copy of a migration generator: square, non-negative off the
    diagonal, rows summing to zero."""
    gen = np.array(generator, dtype=float)
    if gen.ndim != 2 or gen.shape[0] != gen.shape[1]:
        raise ValueError("migration generator must be square")
    off = gen - np.diag(np.diag(gen))
    if off.min() < 0:
        raise ValueError("negative off-diagonal migration rate")
    if np.abs(gen.sum(axis=1)).max() > GENERATOR_ATOL:
        raise ValueError("generator rows must sum to zero")
    gen.flags.writeable = False
    return gen


class CtModel:
    """Recombination rates per partition plus a migration generator."""

    __slots__ = ("space", "rates", "generator", "_pulls", "_marginal_cache")

    def __init__(self, space: TypeSpace, rates, generator):
        full = space.sites
        clean: dict[Partition, float] = {}
        for part, rho in rates.items():
            if part.base_set != full:
                raise ValueError(f"rate partition {part} does not cover all sites")
            rho = float(rho)
            if not np.isfinite(rho) or rho < 0:
                raise ValueError(f"negative or non-finite rate {rho!r}")
            if rho > 0:
                clean[part] = clean.get(part, 0.0) + rho
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "rates", dict(clean))
        object.__setattr__(self, "generator", checked_generator(generator))
        # keeping everything together changes nothing, so only splits pull
        split = [part for part in clean if len(part) > 1]
        plan = BlockPlan(space.sites, [[(b, None) for b in part.blocks] for part in split])
        rhos = np.array([clean[p] for p in split])
        object.__setattr__(self, "_pulls", (plan, rhos, rhos.sum()))
        object.__setattr__(self, "_marginal_cache", {})

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
    Rows sum to zero."""
    stack = state.stack() if isinstance(state, Metapopulation) else np.asarray(state, float)
    out = model.generator @ stack
    plan, rhos, total = model._pulls
    if rhos.size:
        prods = plan(stack.reshape((stack.shape[0],) + model.space.alphabet_sizes))
        prods = prods.reshape(rhos.size, -1)
        out += (rhos @ prods).reshape(stack.shape) - total * stack
    return out


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
    if not 0 <= t_end < np.inf:
        raise ValueError("negative or non-finite horizon")
    if omega0.support != model.sites:
        raise ValueError("initial state must cover all sites")
    if len(omega0) != model.num_locations:
        raise ValueError("one distribution per location required")
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
    if t < 0:
        raise ValueError("negative horizon")
    if omega0.support != model.sites:
        raise ValueError("initial state must cover all sites")
    if generator is None:
        generator = build_generator(model)
    return start_rows(expm(t * generator.matrix), omega0, model, generator)


def _adaptive_simpson(f, a, b, tol):
    """Vector-valued adaptive Simpson to absolute (max-norm) tolerance."""

    def simpson(fa, fm, fb, h):
        return (h / 6.0) * (fa + 4.0 * fm + fb)

    def recurse(a, fa, m, fm, b, fb, whole, tol, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = f(lm)
        frm = f(rm)
        left = simpson(fa, flm, fm, m - a)
        right = simpson(fm, frm, fb, b - m)
        err = np.abs(left + right - whole).max()
        if err < 15.0 * tol or depth >= 40:
            return left + right + (left + right - whole) / 15.0
        return recurse(a, fa, lm, flm, m, fm, left, 0.5 * tol, depth + 1) + recurse(
            m, fm, rm, frm, b, fb, right, 0.5 * tol, depth + 1
        )

    if b <= a:
        return np.zeros_like(f(a))
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    return recurse(a, fa, m, fm, b, fb, simpson(fa, fm, fb, b - a), tol, 0)


def ct_two_site(omega0: Metapopulation, model: CtModel, t: float) -> Metapopulation:
    """Two-site solution by conditioning on the last splitting time: a
    no-split term plus an integral over the split time, each factor a plain
    matrix exponential of the migration generator."""
    if model.num_sites != 2:
        raise ValueError("closed-form solution requires exactly two sites")
    if t < 0:
        raise ValueError("negative horizon")
    if omega0.support != model.sites:
        raise ValueError("initial state must cover all sites")
    check_locations(omega0, model)
    fin = Partition([(model.sites[0],), (model.sites[1],)])
    rho = model.rates.get(fin, 0.0)
    gen = model.generator
    stack0 = omega0.stack()
    shape = model.space.shape(model.sites)
    term1 = np.exp(-rho * t) * (expm(t * gen) @ stack0)
    if rho > 0 and t > 0:
        split = BlockPlan(model.sites, [[(b, None) for b in fin.blocks]])

        def integrand(sigma):
            mixed = expm((t - sigma) * gen) @ stack0
            prod = split(mixed.reshape((-1,) + shape))[0]
            weights = np.exp(-rho * sigma) * expm(sigma * gen)
            return (weights @ prod).reshape(-1)

        integral = _adaptive_simpson(integrand, 0.0, t, 1e-10)
        term1 = term1 + rho * integral.reshape(term1.shape)
    return Metapopulation.from_stack(model.space, model.sites, term1, atol=1e-8)


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
    if t_end < 0:
        raise ValueError("negative horizon")
    if replicates < 1:
        raise ValueError("need at least one replicate")
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

"""Input checks that every solution route shares: the type space, location
count and support of the initial state, the horizon, and a linear system
that lacks a location's start. Also the semigroup law that every exact route
obeys, and the symmetries every route respects: renumbering the locations
or reversing the sites."""

import numpy as np
import pytest

from recolat.asymptotics import absorption_tail, conditioned_law, limit_metapopulation
from recolat.ctime import (
    CtModel,
    build_generator,
    ct_simulate,
    ct_solve_dual,
    ct_two_site,
    integrate,
)
from recolat.forward import RecombinationModel, iterate, marginal_step, step
from recolat.linear import build_linear_system, solve_linear
from recolat.lpp import duality_estimate, simulate, two_site_closed_form
from recolat.measures import Metapopulation, TypeSpace
from recolat.partitions import Partition, enumerate_partitions, whole_labelled

import factories

ROUTES = {
    "solve_linear": lambda mu, m, ct: solve_linear(mu, m, 3),
    "duality_estimate": lambda mu, m, ct: duality_estimate(0, mu, m, 2, 10, seed=1),
    "two_site_closed_form": lambda mu, m, ct: two_site_closed_form(mu, m, 3),
    "limit_metapopulation": lambda mu, m, ct: limit_metapopulation(mu, m),
    "ct_solve_dual": lambda mu, m, ct: ct_solve_dual(mu, ct, 0.5),
    "ct_two_site": lambda mu, m, ct: ct_two_site(mu, ct, 0.5),
    "iterate": lambda mu, m, ct: iterate(mu, m, 3),
    "step": lambda mu, m, ct: step(mu, m),
    "marginal_step": lambda mu, m, ct: marginal_step(mu.marginalise([1]), m),
    "integrate": lambda mu, m, ct: integrate(mu, ct, 0.5, 0.1),
}

# every route that takes a horizon, called at horizon t
HORIZON_ROUTES = {
    "iterate": lambda t, mu, m, ct: iterate(mu, m, t),
    "duality_estimate": lambda t, mu, m, ct: duality_estimate(0, mu, m, t, 10, seed=1),
    "simulate": lambda t, mu, m, ct: list(simulate(whole_labelled(m.sites, 0), m, t, 10)),
    "two_site_closed_form": lambda t, mu, m, ct: two_site_closed_form(mu, m, t),
    "absorption_tail": lambda t, mu, m, ct: absorption_tail(m, t),
    "conditioned_law": lambda t, mu, m, ct: conditioned_law(m, t),
    "ct_solve_dual": lambda t, mu, m, ct: ct_solve_dual(mu, ct, t),
    "ct_two_site": lambda t, mu, m, ct: ct_two_site(mu, ct, t),
    "integrate": lambda t, mu, m, ct: integrate(mu, ct, t, 0.1),
    "ct_simulate": lambda t, mu, m, ct: list(
        ct_simulate(whole_labelled(ct.sites, 0), ct, t, 10, seed=1)
    ),
}


@pytest.mark.parametrize("locations", [1, 3])
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_wrong_location_count_rejected(route, locations):
    rng = np.random.default_rng(1501)
    model = factories.two_site_model(rng, 2)
    ct = factories.random_ct_model(rng, 2, 2)
    mu0 = factories.random_metapop(rng, model.space, locations)
    with pytest.raises(ValueError, match="^initial state has the wrong number of locations$"):
        ROUTES[route](mu0, model, ct)


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_initial_state_on_another_space_rejected(route):
    # a state on alphabets (3, 2) used to pass for a model on (2, 3): integrate
    # reshaped its rows by the model's sizes, and ct_two_site returned
    # ct_solve_dual's numbers labelled with the model's space
    rng = np.random.default_rng(1507)
    space = TypeSpace((2, 3))
    halves = {Partition([(0, 1)]): 0.6, Partition([(0,), (1,)]): 0.4}
    model = RecombinationModel(space, halves, [[0.7, 0.3], [0.4, 0.6]])
    ct = CtModel(space, {Partition([(0,), (1,)]): 0.8}, [[-0.5, 0.5], [0.3, -0.3]])
    mu0 = factories.random_metapop(rng, TypeSpace((3, 2)), 2)
    with pytest.raises(ValueError, match="^initial state is on another type space$"):
        ROUTES[route](mu0, model, ct)


# the routes of ROUTES that read every site of the initial state; the forward
# step and iteration also run the induced dynamics on a site subset
FULL_SUPPORT_ROUTES = sorted(set(ROUTES) - {"iterate", "step", "marginal_step"})


@pytest.mark.parametrize("route", FULL_SUPPORT_ROUTES)
def test_initial_state_on_fewer_sites_rejected(route):
    # solve_linear, duality_estimate and two_site_closed_form used to raise a
    # bare KeyError from the recombinator kernel here
    rng = np.random.default_rng(1505)
    model = factories.two_site_model(rng, 2)
    ct = factories.random_ct_model(rng, 2, 2)
    mu0 = factories.random_metapop(rng, model.space, 2).marginalise([1])
    with pytest.raises(ValueError, match="^initial state must cover all sites$"):
        ROUTES[route](mu0, model, ct)


@pytest.mark.parametrize("t", [-1, float("nan")])
@pytest.mark.parametrize("route", sorted(HORIZON_ROUTES))
def test_bad_horizon_rejected(route, t):
    # a NaN horizon used to pass every `t < 0` check
    rng = np.random.default_rng(1503)
    model = factories.two_site_model(rng, 2)
    ct = factories.random_ct_model(rng, 2, 2)
    mu0 = factories.random_metapop(rng, model.space, 2)
    with pytest.raises(ValueError, match="^negative or non-finite horizon$"):
        HORIZON_ROUTES[route](t, mu0, model, ct)


# the discrete routes, which count generations
GENERATION_ROUTES = {
    "iterate": lambda t, mu, m: iterate(mu, m, t),
    "solve_linear": lambda t, mu, m: solve_linear(mu, m, t),
    "duality_estimate": lambda t, mu, m: duality_estimate(0, mu, m, t, 10, seed=1),
    "two_site_closed_form": lambda t, mu, m: two_site_closed_form(mu, m, t),
    "absorption_tail": lambda t, mu, m: absorption_tail(m, t),
}


@pytest.mark.parametrize("route", sorted(GENERATION_ROUTES))
def test_fractional_generation_count_rejected(route):
    # such a horizon used to reach range() or matrix_power and raise TypeError
    rng = np.random.default_rng(1504)
    model = factories.two_site_model(rng, 2)
    mu0 = factories.random_metapop(rng, model.space, 2)
    with pytest.raises(ValueError, match="^a number of generations must be an integer, got 2.5$"):
        GENERATION_ROUTES[route](2.5, mu0, model)
    for whole in (2, np.int64(2)):
        GENERATION_ROUTES[route](whole, mu0, model)


def test_system_without_a_start_is_refused():
    # location 0 only ever draws from itself, so location 1's start is never reached
    space = TypeSpace((2, 2, 2))
    parts = enumerate_partitions(range(3))
    model = RecombinationModel(space, {p: 1 / len(parts) for p in parts}, [[1, 0], [0.5, 0.5]])
    mu0 = factories.random_metapop(np.random.default_rng(1502), space, 2)
    system = build_linear_system(model, starts=[whole_labelled(model.sites, 0)])
    assert len(system.states) == 5
    assert whole_labelled(model.sites, 1) not in system.pos
    with pytest.raises(ValueError, match="start of location 1"):
        solve_linear(mu0, model, 2, system=system)

    ct = CtModel(space, {parts[-1]: 1.0}, [[0, 0], [1, -1]])
    gen = build_generator(ct, starts=[whole_labelled(ct.sites, 0)])
    assert whole_labelled(ct.sites, 1) not in gen.pos
    with pytest.raises(ValueError, match="start of location 1"):
        ct_solve_dual(mu0, ct, 0.5, generator=gen)


# each exact route as a map (initial state, model, horizon) -> state at that
# horizon, with a seeded model of at most three sites and two horizons s, t
FLOWS = {
    "solve_linear": (lambda rng: factories.random_model(rng, 3, 2), solve_linear, 2, 3),
    "two_site_closed_form": (
        lambda rng: factories.two_site_model(rng, 3), two_site_closed_form, 4, 7
    ),
    "ct_solve_dual": (lambda rng: factories.random_ct_model(rng, 3, 2), ct_solve_dual, 0.4, 0.9),
    "ct_two_site": (lambda rng: factories.random_ct_model(rng, 2, 3, 4.0), ct_two_site, 0.7, 2.5),
}


@pytest.mark.parametrize("route", sorted(FLOWS))
def test_flow_is_a_semigroup(route):
    # solving t from the state at s is solving s + t from the start
    make, solve, s, t = FLOWS[route]
    rng = np.random.default_rng(1506)
    model = make(rng)
    mu0 = factories.random_metapop(rng, model.space, model.num_locations)
    twice = solve(solve(mu0, model, s), model, t).stack()
    once = solve(mu0, model, s + t).stack()
    assert np.abs(twice - once).max() < 1e-13


# each route as a map (initial state, model) -> state, with the kind of its
# model and its site count
SYMMETRIC_ROUTES = {
    "iterate": (False, 3, lambda mu, m: iterate(mu, m, 4)[-1]),
    "solve_linear": (False, 3, lambda mu, m: solve_linear(mu, m, 4)),
    "two_site_closed_form": (False, 2, lambda mu, m: two_site_closed_form(mu, m, 4)),
    "limit_metapopulation": (False, 3, limit_metapopulation),
    "ct_solve_dual": (True, 3, lambda mu, m: ct_solve_dual(mu, m, 0.6)),
    "ct_two_site": (True, 2, lambda mu, m: ct_two_site(mu, m, 0.6)),
    "integrate": (True, 3, lambda mu, m: integrate(mu, m, 0.6, 0.05).final),
}


def _symmetry_case(route):
    """A seeded model of the route's kind on alphabets (2, 3) or (2, 3, 4)
    with three locations and every partition in its support, so that some
    block skips a site, and an initial state on it."""
    continuous, n, solve = SYMMETRIC_ROUTES[route]
    rng = np.random.default_rng(1508)
    space = TypeSpace((2, 3, 4)[:n])
    parts = enumerate_partitions(range(n))
    weights = dict(zip(parts, rng.dirichlet(np.ones(len(parts)))))
    moves = rng.random((3, 3)) + 0.1
    if continuous:
        generator = moves - np.diag(moves.sum(axis=1))
        model = CtModel(space, {p: 2 * w for p, w in weights.items() if len(p) > 1}, generator)
    else:
        model = RecombinationModel(space, weights, moves / moves.sum(axis=1, keepdims=True))
    return model, factories.random_metapop(rng, space, 3), solve


def _parts(model):
    """A model's weights and its location matrix."""
    if isinstance(model, CtModel):
        return model.rates, model.generator
    return model.recomb, model.migration


@pytest.mark.parametrize("route", sorted(SYMMETRIC_ROUTES))
def test_renumbering_locations_permutes_the_rows(route):
    # P M P^T (or P G P^T) with the initial rows permuted by P
    model, mu0, solve = _symmetry_case(route)
    perm = [2, 0, 1]
    weights, matrix = _parts(model)
    moved = type(model)(model.space, weights, matrix[np.ix_(perm, perm)])
    start = Metapopulation.from_stack(mu0.space, mu0.support, mu0.stack()[perm])
    want = solve(mu0, model).stack()[perm]
    assert np.abs(solve(start, moved).stack() - want).max() < 1e-13


@pytest.mark.parametrize("route", sorted(SYMMETRIC_ROUTES))
def test_reversing_the_sites_reverses_the_axes(route):
    # site s becomes n-1-s: every partition is mirrored, the alphabets and
    # the site axes of the initial state are reversed
    model, mu0, solve = _symmetry_case(route)
    n = model.num_sites
    flip = (0,) + tuple(range(n, 0, -1))  # the location axis, then the sites reversed
    weights, matrix = _parts(model)
    mirrored = {Partition([[n - 1 - s for s in b] for b in p.blocks]): w for p, w in weights.items()}
    space = TypeSpace(model.space.alphabet_sizes[::-1])
    reversed_model = type(model)(space, mirrored, matrix)
    rows = mu0.as_array().transpose(flip).reshape(3, -1)
    got = solve(Metapopulation.from_stack(space, space.sites, rows), reversed_model)
    want = solve(mu0, model).as_array()
    assert np.abs(got.as_array().transpose(flip) - want).max() < 1e-13

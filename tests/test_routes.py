"""Input checks that every solution route shares: the location count and
support of the initial state, the horizon, and a linear system that lacks a
location's start. Also the semigroup law that every exact route obeys."""

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
from recolat.measures import TypeSpace
from recolat.partitions import enumerate_partitions, whole_labelled

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

"""Input checks that every solution route shares: the location count of the
initial state, and a linear system that lacks a location's start."""

import numpy as np
import pytest

from recolat.asymptotics import limit_metapopulation
from recolat.ctime import CtModel, build_generator, ct_solve_dual, ct_two_site
from recolat.forward import RecombinationModel
from recolat.linear import build_linear_system, solve_linear
from recolat.lpp import duality_estimate, two_site_closed_form
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

import itertools

import numpy as np
import pytest

from recolat.ctime import ct_rhs
from recolat.forward import (
    RecombinationModel,
    backward_from_forward,
    checked_migration,
    induced_law,
    iterate,
    marginal_step,
    migrate,
    pull,
    recombine,
    step,
)
from recolat.measures import Metapopulation, TypeSpace
from recolat.partitions import Partition, finest

import factories

RNG = np.random.default_rng(714)


class TestBackwardFromForward:
    def test_frozen_two_location_example(self):
        forward = [[0.9, 0.1], [0.2, 0.8]]
        sizes = [2.0, 1.0]
        # stationarity: (2,1) @ columns reproduces (2,1); backward entries by hand
        back = backward_from_forward(forward, sizes)
        np.testing.assert_allclose(back, [[0.9, 0.1], [0.2, 0.8]], atol=1e-15)
        assert np.abs(back.sum(axis=1) - 1.0).max() < 1e-12

    def test_doubly_stochastic_gives_transpose(self):
        forward = np.array([[0.5, 0.3, 0.2], [0.2, 0.6, 0.2], [0.3, 0.1, 0.6]])
        back = backward_from_forward(forward, np.ones(3))
        np.testing.assert_allclose(back, forward.T, atol=1e-15)

    def test_rejects_non_stationary_sizes(self):
        forward = [[0.9, 0.1], [0.2, 0.8]]
        with pytest.raises(ValueError, match="not stationary under forward migration"):
            backward_from_forward(forward, [1.0, 1.0])

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="row-stochastic"):
            backward_from_forward([[0.9, 0.2], [0.2, 0.8]], [2.0, 1.0])
        with pytest.raises(ValueError, match="positive"):
            backward_from_forward([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])


class TestModelValidation:
    def test_weights_must_sum_to_one(self):
        ts = TypeSpace((2, 2))
        with pytest.raises(ValueError, match="sum"):
            RecombinationModel(ts, {Partition([[0, 1]]): 0.9}, np.eye(2))

    def test_partition_must_cover_sites(self):
        ts = TypeSpace((2, 2, 2))
        with pytest.raises(ValueError, match="cover"):
            RecombinationModel(ts, {Partition([[0, 1]]): 1.0}, np.eye(2))

    def test_zero_entries_dropped(self):
        ts = TypeSpace((2, 2))
        model = RecombinationModel(
            ts,
            {Partition([[0, 1]]): 1.0, Partition([[0], [1]]): 0.0},
            np.eye(2),
        )
        assert list(model.recomb) == [Partition([[0, 1]])]

    def test_migration_must_be_stochastic(self):
        ts = TypeSpace((2, 2))
        rec = {Partition([[0, 1]]): 1.0}
        with pytest.raises(ValueError, match="rows sum"):
            RecombinationModel(ts, rec, [[0.9, 0.2], [0.2, 0.8]])
        with pytest.raises(ValueError, match="negative"):
            RecombinationModel(ts, rec, [[1.1, -0.1], [0.0, 1.0]])

    def test_multiparent_partitions_accepted(self):
        ts = TypeSpace((2, 2, 2))
        three_blocks = Partition([[0], [1], [2]])
        model = RecombinationModel(ts, {three_blocks: 1.0}, np.eye(2))
        assert model.recomb == {three_blocks: 1.0}
        two_blocks = factories.two_site_model(RNG, 2)
        assert max(map(len, two_blocks.recomb)) == 2


def _random_migration(rng, locations):
    mig = rng.random((locations, locations)) + 0.1
    return mig / mig.sum(axis=1, keepdims=True)


class TestNonFiniteInput:
    """NaN compares false both ways, so it used to slip past every check
    written as a test for violation."""

    def test_nan_recombination_weight_rejected(self):
        # {whole: nan, split: 0.5} used to pass as the law {split: 0.5} of mass 0.5
        split = float(np.random.default_rng(1601).uniform(0.1, 0.9))
        recomb = {Partition([[0, 1]]): float("nan"), Partition([[0], [1]]): split}
        with pytest.raises(ValueError, match="non-finite recombination probability"):
            RecombinationModel(TypeSpace((2, 2)), recomb, np.eye(2))

    def test_nan_migration_entry_rejected(self):
        rng = np.random.default_rng(1602)
        mig = _random_migration(rng, 3)
        mig[tuple(rng.integers(3, size=2))] = np.nan
        with pytest.raises(ValueError, match="non-finite entries"):
            checked_migration(mig)
        with pytest.raises(ValueError, match="non-finite entries"):
            RecombinationModel(TypeSpace((2,)), {Partition([[0]]): 1.0}, mig)

    def test_nan_forward_matrix_or_size_rejected(self):
        rng = np.random.default_rng(1603)
        forward = _random_migration(rng, 3)
        sizes = np.ones(3)
        sizes[rng.integers(3)] = np.nan
        with pytest.raises(ValueError, match="positive"):
            backward_from_forward(forward, sizes)
        forward[tuple(rng.integers(3, size=2))] = np.nan
        with pytest.raises(ValueError, match="non-finite entries"):
            backward_from_forward(forward, np.ones(3))


class TestMarginalRecombination:
    def test_nonmonotone_sojourn_model_pair_marginal(self):
        model = factories.nonmonotone_sojourn_model()
        marg = model.marginal_recombination((0, 1))
        # {0,1} stays whole under both the one-block and the paired partition
        assert marg[Partition([[0, 1]])] == pytest.approx(0.5)
        assert marg[Partition([[0], [1]])] == pytest.approx(0.5)

    def test_cross_pair_marginal(self):
        model = factories.nonmonotone_sojourn_model()
        marg = model.marginal_recombination((0, 2))
        # only the one-block partition keeps sites 0 and 2 together
        assert marg[Partition([[0, 2]])] == pytest.approx(0.4)
        assert marg[Partition([[0], [2]])] == pytest.approx(0.6)

    def test_sums_to_one_and_full_set_is_identity(self):
        model = factories.random_model(RNG, 4, 2)
        for r in range(1, 5):
            for sub in itertools.combinations(range(4), r):
                marg = model.marginal_recombination(sub)
                assert abs(sum(marg.values()) - 1.0) < 1e-12
        assert model.marginal_recombination(range(4)) == pytest.approx(model.recomb)

    def test_single_site_is_trivial(self):
        model = factories.random_model(RNG, 3, 2)
        assert model.marginal_recombination((1,)) == pytest.approx(
            {Partition([[1]]): 1.0}
        )


@pytest.mark.parametrize("kind", ["discrete", "continuous"])
def test_induced_laws_are_the_models_own(kind):
    # the cache is keyed by site subset alone, so a law passed beside the
    # model could be answered with another; the model is its law's one source
    rng = np.random.default_rng(715)
    if kind == "discrete":
        model = factories.random_model(rng, 4, 2)
        own, state = model.recomb, factories.random_metapop(rng, model.space, 2)
        iterate(state, model, 2)
    else:
        model = factories.random_ct_model(rng, 4, 2)
        own, state = model.rates, factories.random_metapop(rng, model.space, 2)
        ct_rhs(state, model)
    other = {finest(range(4)): 1.0}
    with pytest.raises(TypeError):
        induced_law(model, other, model.sites)
    with pytest.raises(TypeError):
        pull(model, other, model.sites)
    subsets = [u for r in range(1, 5) for u in itertools.combinations(range(4), r)]
    for u in subsets:
        induced_law(model, u)
    for u in subsets:
        fresh: dict = {}
        for part, w in own.items():
            sub = part.restrict(u)
            fresh[sub] = fresh.get(sub, 0.0) + w
        assert induced_law(model, u) == fresh


class TestMigrate:
    def test_two_location_hand_computation(self):
        ts = TypeSpace((2,))
        mu = Metapopulation.from_stack(ts, (0,), [[1.0, 0.0], [0.0, 1.0]])
        out = migrate(mu, [[0.75, 0.25], [0.5, 0.5]])
        np.testing.assert_allclose(out[0].weights, [0.75, 0.25])
        np.testing.assert_allclose(out[1].weights, [0.5, 0.5])

    def test_identity_matrix_is_noop(self):
        space = TypeSpace((2, 2))
        mu = factories.random_metapop(RNG, space, 3)
        out = migrate(mu, np.eye(3))
        for a in range(3):
            np.testing.assert_allclose(out[a].weights, mu[a].weights)


class TestRecombine:
    def test_product_measures_are_fixed_points(self):
        model = factories.random_model(RNG, 3, 2)
        mu = factories.random_product_metapop(RNG, model.space, 2)
        out = recombine(mu, model)
        for a in range(2):
            np.testing.assert_allclose(out[a].weights, mu[a].weights, atol=1e-13)

    def test_whole_partition_is_noop(self):
        ts = TypeSpace((2, 2))
        model = RecombinationModel(ts, {Partition([[0, 1]]): 1.0}, np.eye(2))
        mu = factories.random_metapop(RNG, ts, 2)
        out = recombine(mu, model)
        for a in range(2):
            np.testing.assert_allclose(out[a].weights, mu[a].weights)

    def test_full_split_gives_site_product(self):
        ts = TypeSpace((2, 2))
        model = RecombinationModel(ts, {Partition([[0], [1]]): 1.0}, np.eye(2))
        mu = factories.random_metapop(RNG, ts, 1)
        out = recombine(mu, model)
        a = mu[0].marginalise((0,)).weights
        b = mu[0].marginalise((1,)).weights
        np.testing.assert_allclose(out[0].weights, np.outer(a, b).ravel(), atol=1e-14)

    def test_state_on_another_space_rejected(self):
        # (3, 2) and (2, 3) have the same dim, so only the check tells them apart
        model = RecombinationModel(TypeSpace((2, 3)), {Partition([[0], [1]]): 1.0}, np.eye(2))
        mu = factories.random_metapop(np.random.default_rng(1910), TypeSpace((3, 2)), 2)
        with pytest.raises(ValueError, match="another type space"):
            recombine(mu, model)


class TestStep:
    def test_agrees_with_probability_weighted_route(self):
        for n, loc in [(2, 1), (2, 3), (3, 2), (4, 2)]:
            model = factories.random_model(RNG, n, loc)
            mu = factories.random_metapop(RNG, model.space, loc)
            a = step(mu, model)
            b = marginal_step(mu, model)
            for alpha in range(loc):
                np.testing.assert_allclose(
                    a[alpha].weights, b[alpha].weights, atol=1e-12
                )

    def test_is_recombine_after_migrate(self):
        model = factories.random_model(RNG, 2, 2)
        mu = factories.random_metapop(RNG, model.space, 2)
        want = recombine(migrate(mu, model.migration), model)
        np.testing.assert_allclose(step(mu, model).stack(), want.stack())

    def test_single_site_reduces_to_migration(self):
        model = factories.random_model(RNG, 1, 3)
        mu = factories.random_metapop(RNG, model.space, 3)
        out = step(mu, model)
        want = migrate(mu, model.migration)
        for a in range(3):
            np.testing.assert_allclose(out[a].weights, want[a].weights, atol=1e-14)

    def test_mass_preserved(self):
        model = factories.random_model(RNG, 3, 2)
        mu = factories.random_metapop(RNG, model.space, 2)
        for nu in step(mu, model):
            assert abs(nu.weights.sum() - 1.0) <= 1e-12


class TestIterate:
    def test_lengths_and_prefix_property(self):
        model = factories.random_model(RNG, 2, 2)
        mu = factories.random_metapop(RNG, model.space, 2)
        traj = iterate(mu, model, 4)
        assert len(traj) == 5
        np.testing.assert_array_equal(traj[0][0].weights, mu[0].weights)
        again = iterate(mu, model, 2)
        np.testing.assert_allclose(traj[2][1].weights, again[2][1].weights)

    def test_negative_horizon_rejected(self):
        model = factories.random_model(RNG, 2, 2)
        mu = factories.random_metapop(RNG, model.space, 2)
        with pytest.raises(ValueError, match="negative"):
            iterate(mu, model, -1)

    def test_one_checked_state_per_generation(self, monkeypatch):
        # a generation checks the state it returns and no state in between
        import recolat.measures

        rng = np.random.default_rng(1905)
        model = factories.random_model(rng, 3, 2)
        mu = factories.random_metapop(rng, model.space, 2)
        checked = recolat.measures._checked_weights
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return checked(*args, **kwargs)

        monkeypatch.setattr(recolat.measures, "_checked_weights", counted)
        iterate(mu, model, 5)
        assert len(calls) == 5


class TestMarginalConsistency:
    def test_marginal_step_commutes_with_marginalisation(self):
        for n, loc in [(1, 2), (2, 1), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)]:
            model = factories.random_model(RNG, n, loc)
            mu = factories.random_metapop(RNG, model.space, loc)
            stepped = step(mu, model)
            for r in range(1, n + 1):
                for sub in itertools.combinations(range(n), r):
                    via_full = stepped.marginalise(sub)
                    via_marg = marginal_step(mu.marginalise(sub), model)
                    for a in range(loc):
                        np.testing.assert_allclose(
                            via_full[a].weights, via_marg[a].weights, atol=1e-12
                        )

    def test_single_site_marginal_is_pure_migration(self):
        model = factories.random_model(RNG, 3, 3)
        mu = factories.random_metapop(RNG, model.space, 3)
        one = mu.marginalise((2,))
        out = marginal_step(one, model)
        want = migrate(one, model.migration)
        for a in range(3):
            np.testing.assert_allclose(out[a].weights, want[a].weights, atol=1e-13)

    def test_full_support_equals_step(self):
        model = factories.random_model(RNG, 3, 2)
        mu = factories.random_metapop(RNG, model.space, 2)
        a = step(mu, model)
        b = marginal_step(mu, model)
        for alpha in range(2):
            np.testing.assert_allclose(a[alpha].weights, b[alpha].weights, atol=1e-12)

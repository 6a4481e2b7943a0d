import itertools

import numpy as np
import pytest

from recolat.forward import (
    RecombinationModel,
    backward_from_forward,
    iterate,
    marginal_step,
    migrate,
    migrecomb_probs,
    recombine,
    step,
)
from recolat.measures import Metapopulation, TypeSpace
from recolat.partitions import LabelledPartition, Partition

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

    def test_multiparent_partitions_flagged_not_rejected(self):
        ts = TypeSpace((2, 2, 2))
        three_blocks = Partition([[0], [1], [2]])
        model = RecombinationModel(ts, {three_blocks: 1.0}, np.eye(2))
        assert model.multiparent_partitions == (three_blocks,)
        two_blocks = factories.two_site_model(RNG, 2)
        assert two_blocks.multiparent_partitions == ()


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

    def test_half_steps_interleaved(self):
        model = factories.random_model(RNG, 2, 2)
        mu = factories.random_metapop(RNG, model.space, 2)
        pairs = iterate(mu, model, 3, include_half_steps=True)
        times = [t for t, _ in pairs]
        assert times == [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        half = pairs[1][1]
        want = migrate(mu, model.migration)
        np.testing.assert_allclose(half[1].weights, want[1].weights)
        full = pairs[2][1]
        want2 = step(mu, model)
        np.testing.assert_allclose(full[0].weights, want2[0].weights)

    def test_negative_horizon_rejected(self):
        model = factories.random_model(RNG, 2, 2)
        mu = factories.random_metapop(RNG, model.space, 2)
        with pytest.raises(ValueError, match="negative"):
            iterate(mu, model, -1)


def _prob(probs, location, bdelta):
    vec = probs.get(bdelta)
    return 0.0 if vec is None else float(vec[location])


class TestMigRecombProbs:
    def test_rows_normalised(self):
        model = factories.random_model(RNG, 3, 3)
        for sub in [(0,), (0, 2), (0, 1, 2)]:
            probs = migrecomb_probs(model, sub)
            total = np.sum(np.stack(list(probs.values())), axis=0)
            np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_single_site_entries_are_migration_rows(self):
        model = factories.random_model(RNG, 3, 2)
        probs = migrecomb_probs(model, (1,))
        for lab in range(2):
            bd = LabelledPartition([((1,), lab)])
            for alpha in range(2):
                assert _prob(probs, alpha, bd) == pytest.approx(
                    model.migration[alpha, lab]
                )

    def test_explicit_value(self):
        model = factories.nonmonotone_sojourn_model()
        probs = migrecomb_probs(model, (0, 1, 2, 3))
        bd = LabelledPartition([((0, 1), 0), ((2, 3), 1)])
        for alpha in range(2):
            want = 0.1 * model.migration[alpha, 0] * model.migration[alpha, 1]
            assert _prob(probs, alpha, bd) == pytest.approx(want)

    def test_absent_entry_is_zero(self):
        model = factories.two_site_model(RNG, 2)
        probs = migrecomb_probs(model, (0, 1))
        assert _prob(probs, 0, LabelledPartition([((0, 1), 1)])) > 0
        # labels outside the model never appear among the entries
        assert _prob(probs, 0, LabelledPartition([((0, 1), 7)])) == 0.0

    def test_cached_law_is_handed_out_as_read_only_copies(self):
        model = factories.random_model(RNG, 3, 2)
        first = migrecomb_probs(model, (0, 2))
        first.clear()
        again = migrecomb_probs(model, (2, 0))
        assert again
        for vec in again.values():
            with pytest.raises(ValueError):
                vec[0] = 0.5


class TestMarginalConsistency:
    def test_marginal_step_commutes_with_marginalisation(self):
        model = factories.random_model(RNG, 3, 2)
        mu = factories.random_metapop(RNG, model.space, 2)
        stepped = step(mu, model)
        for r in range(1, 4):
            for sub in itertools.combinations(range(3), r):
                via_full = stepped.marginalise(sub)
                via_marg = marginal_step(mu.marginalise(sub), model)
                for a in range(2):
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

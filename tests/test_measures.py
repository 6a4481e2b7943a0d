import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from recolat.measures import (
    BlockPlan,
    Distribution,
    Metapopulation,
    TypeSpace,
    build_recombinator_vector,
    recombinator,
    tensor,
)
from recolat.ctime import integrate
from recolat.partitions import LabelledPartition, whole_labelled

import factories
import oracles

RNG = np.random.default_rng(20260815)


def random_dist(space, support, rng=RNG):
    w = rng.dirichlet(np.ones(space.dim(support)))
    return Distribution(space, support, w)


def random_metapop(space, locations, support=None, rng=RNG):
    sup = space.sites if support is None else support
    return Metapopulation(random_dist(space, sup, rng) for _ in range(locations))


class TestTypeSpace:
    def test_shape_and_dim(self):
        ts = TypeSpace((2, 3, 2))
        assert ts.num_sites == 3
        assert ts.shape((0, 2)) == (2, 2)
        assert ts.dim((0, 1, 2)) == 12
        assert ts.dim(()) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            TypeSpace(())
        with pytest.raises(ValueError):
            TypeSpace((2, 0))


class TestDistributionConstruction:
    def test_mixed_radix_first_site_slowest(self):
        ts = TypeSpace((2, 2, 2))
        d = Distribution(ts, (0, 1, 2), np.eye(8)[5])
        assert d.as_array()[1, 0, 1] == 1.0  # 1*4 + 0*2 + 1
        ts2 = TypeSpace((2, 3))
        d2 = Distribution(ts2, (0, 1), np.eye(6)[5])
        assert d2.as_array()[1, 2] == 1.0  # 1*3 + 2

    def test_rejects_unnormalised(self):
        ts = TypeSpace((2,))
        with pytest.raises(ValueError, match="sum"):
            Distribution(ts, (0,), [0.5, 0.5 + 1e-9])
        # within tolerance is fine
        Distribution(ts, (0,), [0.5, 0.5 + 1e-13])

    def test_rejects_negative(self):
        ts = TypeSpace((2,))
        with pytest.raises(ValueError, match="negative"):
            Distribution(ts, (0,), [1.5, -0.5])

    def test_rejects_nan(self):
        # NaN weights used to pass both the sign and the sum check
        rng = np.random.default_rng(1609)
        space = TypeSpace((2, 3))
        stack = rng.dirichlet(np.ones(6), size=2)
        stack[tuple(rng.integers((2, 6)))] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Distribution(space, (0, 1), stack[np.isnan(stack).any(axis=1)][0])
        with pytest.raises(ValueError, match="non-finite"):
            Metapopulation.from_stack(space, (0, 1), stack, atol=1e-9)

    def test_rejects_wrong_length(self):
        ts = TypeSpace((2, 2))
        with pytest.raises(ValueError, match="length"):
            Distribution(ts, (0, 1), [1.0, 0.0])

    def test_rejects_bad_support(self):
        ts = TypeSpace((2, 2))
        with pytest.raises(ValueError, match="ascending"):
            Distribution(ts, (1, 0), np.full(4, 0.25))
        with pytest.raises(ValueError, match="support"):
            Distribution(ts, (0, 5), np.full(4, 0.25))

    def test_weights_read_only(self):
        ts = TypeSpace((2,))
        d = Distribution(ts, (0,), [0.25, 0.75])
        with pytest.raises(ValueError):
            d.weights[0] = 0.0

    def test_scalar_one(self):
        ts = TypeSpace((2, 2))
        one = Distribution(ts, (), [1.0])
        assert one.support == ()
        assert one.weights.tolist() == [1.0]


class TestMarginalise:
    @pytest.mark.parametrize("sizes", [(2, 2, 2), (2, 3, 2), (3, 2, 4)])
    def test_against_brute_force(self, sizes):
        ts = TypeSpace(sizes)
        d = random_dist(ts, ts.sites)
        for r in range(1, len(sizes) + 1):
            for keep in itertools.combinations(ts.sites, r):
                got = d.marginalise(keep)
                want = oracles.brute_marginal(d.weights, list(ts.sites), dict(enumerate(sizes)), list(keep))
                assert got.support == keep
                np.testing.assert_allclose(got.weights, want, atol=1e-14)

    def test_preserves_mass(self):
        ts = TypeSpace((2, 3, 2, 2))
        d = random_dist(ts, ts.sites)
        for keep in [(0,), (1, 3), (0, 1, 2, 3)]:
            assert abs(d.marginalise(keep).weights.sum() - 1.0) <= 1e-12

    def test_full_support_is_identity(self):
        ts = TypeSpace((2, 2))
        d = random_dist(ts, ts.sites)
        np.testing.assert_array_equal(d.marginalise(ts.sites).weights, d.weights)

    def test_tower_property(self):
        ts = TypeSpace((2, 2, 3, 2))
        d = random_dist(ts, ts.sites)
        via = d.marginalise((0, 2, 3)).marginalise((2,))
        direct = d.marginalise((2,))
        np.testing.assert_allclose(via.weights, direct.weights, atol=1e-14)

    def test_empty_keep_gives_scalar(self):
        ts = TypeSpace((2, 2))
        d = random_dist(ts, ts.sites)
        one = d.marginalise(())
        assert one.support == ()
        assert abs(one.weights[0] - 1.0) < 1e-12

    def test_outside_support_rejected(self):
        ts = TypeSpace((2, 2, 2))
        d = random_dist(ts, (0, 1))
        with pytest.raises(ValueError, match="not in support"):
            d.marginalise((2,))


class TestTensor:
    def test_against_brute_force(self):
        ts = TypeSpace((2, 3, 2, 2))
        a = random_dist(ts, (0, 2))
        b = random_dist(ts, (1,))
        c = random_dist(ts, (3,))
        got = tensor([a, b, c])
        want = oracles.brute_tensor(
            [(list(a.support), a.weights), (list(b.support), b.weights), (list(c.support), c.weights)],
            dict(enumerate(ts.alphabet_sizes)),
        )
        assert got.support == (0, 1, 2, 3)
        np.testing.assert_allclose(got.weights, want, atol=1e-14)

    def test_factor_order_irrelevant(self):
        ts = TypeSpace((2, 2, 3))
        a, b = random_dist(ts, (1,)), random_dist(ts, (0, 2))
        np.testing.assert_allclose(tensor([a, b]).weights, tensor([b, a]).weights)

    def test_scalar_one_neutral(self):
        ts = TypeSpace((2, 2))
        d = random_dist(ts, ts.sites)
        got = tensor([Distribution(ts, (), [1.0]), d])
        np.testing.assert_allclose(got.weights, d.weights)

    def test_marginal_onto_factor_recovers_it(self):
        ts = TypeSpace((2, 3, 2))
        a, b = random_dist(ts, (0, 2)), random_dist(ts, (1,))
        prod = tensor([a, b])
        np.testing.assert_allclose(prod.marginalise((0, 2)).weights, a.weights, atol=1e-14)
        np.testing.assert_allclose(prod.marginalise((1,)).weights, b.weights, atol=1e-14)

    def test_product_marginalisation_splits(self):
        # marginal of a product = product of the factor marginals
        ts = TypeSpace((2, 2, 3, 2, 2))
        a, b = random_dist(ts, (0, 2, 4)), random_dist(ts, (1, 3))
        for w in [(0, 1), (2, 3, 4), (0,), (1, 2)]:
            lhs = tensor([a, b]).marginalise(w)
            ua = tuple(s for s in a.support if s in w)
            ub = tuple(s for s in b.support if s in w)
            rhs = tensor([a.marginalise(ua), b.marginalise(ub)])
            np.testing.assert_allclose(lhs.weights, rhs.weights, atol=1e-14)

    def test_overlap_rejected(self):
        ts = TypeSpace((2, 2))
        a, b = random_dist(ts, (0, 1)), random_dist(ts, (1,))
        with pytest.raises(ValueError, match="overlap"):
            tensor([a, b])


class TestMetapopulation:
    def test_support_consistency(self):
        ts = TypeSpace((2, 2))
        with pytest.raises(ValueError, match="support"):
            Metapopulation([random_dist(ts, (0, 1)), random_dist(ts, (0,))])

    def test_stack_round_trip(self):
        ts = TypeSpace((2, 2))
        mu = random_metapop(ts, 3)
        again = Metapopulation.from_stack(ts, mu.support, mu.stack())
        for a in range(3):
            np.testing.assert_array_equal(again[a].weights, mu[a].weights)

    def test_stack_is_the_one_read_only_matrix(self):
        ts = TypeSpace((2, 3))
        mu = random_metapop(ts, 2)
        assert mu.stack() is mu.stack()
        assert mu.as_array().shape == (2, 2, 3)
        assert np.shares_memory(mu.as_array(), mu.stack())
        assert all(np.shares_memory(d.weights, mu.stack()) for d in mu)
        with pytest.raises(ValueError, match="read-only"):
            mu.stack()[0, 0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            mu[1].weights[0] = 0.5

    def test_from_stack_builds_no_distribution_and_copies(self, monkeypatch):
        rows = np.random.default_rng(1616).dirichlet(np.ones(4), size=3)
        def refuse(self, *args, **kwargs):
            raise AssertionError("from_stack built a Distribution")

        monkeypatch.setattr(Distribution, "__init__", refuse)
        mu = Metapopulation.from_stack(TypeSpace((2, 2)), (0, 1), rows)
        before = rows.copy()
        rows[0] = 0.25
        assert rows.flags.writeable
        np.testing.assert_array_equal(mu.stack(), before)
        assert [d.weights.tolist() for d in mu] == before.tolist()

    def test_marginalise_builds_no_distribution(self, monkeypatch):
        rng = np.random.default_rng(1618)
        ts = TypeSpace((2, 3, 2))
        mu = random_metapop(ts, 3, rng=rng)
        want = mu.as_array().sum(axis=(1, 3)).reshape(3, -1)
        def refuse(self, *args, **kwargs):
            raise AssertionError("marginalise built a Distribution")

        monkeypatch.setattr(Distribution, "__init__", refuse)
        got = mu.marginalise([1])
        assert got.support == (1,) and got.space == ts
        np.testing.assert_allclose(got.stack(), want, rtol=0, atol=1e-16)
        scalar = mu.marginalise([])
        assert scalar.support == () and scalar.stack().shape == (3, 1)
        np.testing.assert_allclose(scalar.stack(), 1.0, rtol=0, atol=1e-15)
        with pytest.raises(ValueError, match=r"^sites \{3\} not in support$"):
            got.marginalise([1, 3])

    def test_rows_accepted_at_a_loose_tolerance_stay_readable(self):
        # RK4 states are accepted at 1e-7; the rows must read back although
        # a Distribution would refuse them at its default 1e-12
        rng = np.random.default_rng(1617)
        model = factories.random_ct_model(rng, 2, 2)
        rows = rng.dirichlet(np.ones(4), size=2) * (1.0 + 5e-8)
        omega = Metapopulation.from_stack(model.space, model.sites, rows, atol=1e-7)
        with pytest.raises(ValueError, match="sum"):
            Distribution(model.space, model.sites, omega[0].weights)
        assert [d.weights.tolist() for d in omega] == omega.stack().tolist()
        final = integrate(omega, model, 0.5, 0.05).final
        for a in range(2):
            np.testing.assert_array_equal(final[a].weights, final.stack()[a])
            assert abs(final[a].weights.sum() - 1.0) > 1e-12

    def test_bad_second_row_reported_with_its_own_value(self):
        ts = TypeSpace((2,))
        with pytest.raises(ValueError, match=r"^weights sum to 1\.1, not 1$"):
            Metapopulation.from_stack(ts, (0,), [[0.5, 0.5], [0.3, 0.8]])
        with pytest.raises(ValueError, match=r"^negative or non-finite weight -2\.000e-01$"):
            Metapopulation.from_stack(ts, (0,), [[0.5, 0.5], [1.2, -0.2], [0.3, 0.8]])


class TestRecombinator:
    def brute(self, bdelta, mu):
        ts = mu.space
        sizes = dict(enumerate(ts.alphabet_sizes))
        base = bdelta.base_set
        out = np.zeros(ts.dim(base))
        for letters in itertools.product(*(range(sizes[s]) for s in base)):
            by_site = dict(zip(base, letters))
            val = 1.0
            for block, label in bdelta.items:
                marg = oracles.brute_marginal(
                    mu[label].weights, list(mu.support), sizes, list(block)
                )
                sub = tuple(by_site[s] for s in block)
                val *= marg[oracles.brute_index(sub, [sizes[s] for s in block])]
            out[oracles.brute_index(letters, [sizes[s] for s in base])] = val
        return out

    def test_against_brute_force(self):
        ts = TypeSpace((2, 2, 3))
        mu = random_metapop(ts, 2)
        cases = [
            LabelledPartition([((0, 1, 2), 0)]),
            LabelledPartition([((0, 2), 1), ((1,), 0)]),
            LabelledPartition([((0,), 0), ((1,), 1), ((2,), 0)]),
            LabelledPartition([((1, 2), 1)]),
        ]
        for bdelta in cases:
            got = recombinator(bdelta, mu)
            assert got.support == bdelta.base_set
            np.testing.assert_allclose(got.weights, self.brute(bdelta, mu), atol=1e-14)

    def test_single_whole_block_is_marginal(self):
        ts = TypeSpace((2, 2))
        mu = random_metapop(ts, 3)
        got = recombinator(whole_labelled((0, 1), 2), mu)
        np.testing.assert_array_equal(got.weights, mu[2].weights)

    def test_normalised(self):
        ts = TypeSpace((2, 2, 2, 2))
        mu = random_metapop(ts, 2)
        bdelta = LabelledPartition([((0, 3), 0), ((1,), 1), ((2,), 1)])
        assert abs(recombinator(bdelta, mu).weights.sum() - 1.0) <= 1e-12

    def test_blockwise_product_rule(self):
        # gluing labelled partitions of disjoint site sets multiplies their outputs
        ts = TypeSpace((2, 2, 2))
        mu = random_metapop(ts, 2)
        left = LabelledPartition([((0,), 1), ((1,), 0)])
        right = LabelledPartition([((2,), 1)])
        glued = LabelledPartition(list(left.items) + list(right.items))
        lhs = recombinator(glued, mu)
        rhs = tensor([recombinator(left, mu), recombinator(right, mu)])
        np.testing.assert_allclose(lhs.weights, rhs.weights, atol=1e-14)

    def test_label_out_of_range(self):
        ts = TypeSpace((2, 2))
        mu = random_metapop(ts, 2)
        with pytest.raises(ValueError, match="location"):
            recombinator(whole_labelled((0, 1), 5), mu)


def kernel_oracle(stack, space, support, states):
    """Products of `Distribution.marginalise` factors glued by `tensor`,
    each row scaled by the mass of its first block's location."""
    flat = stack.reshape(stack.shape[0], -1)
    mass = flat.sum(axis=1)
    dists = [Distribution(space, support, row / m) for row, m in zip(flat, mass)]
    out = []
    for items in states:
        own = any(label is None for _, label in items)
        rows = []
        for a in range(len(dists)) if own else [0]:
            locs = [a if label is None else label for _, label in items]
            prod = tensor([dists[loc].marginalise(block) for (block, _), loc in zip(items, locs)])
            rows.append(mass[locs[0]] * prod.weights)
        out.append(rows)
    return np.array(out)


def random_blocks(rng, sites):
    """A random set partition of `sites` as ascending blocks in random order."""
    ids = rng.integers(0, len(sites), size=len(sites))
    blocks = [tuple(s for s, i in zip(sites, ids) if i == b) for b in np.unique(ids)]
    return [blocks[i] for i in rng.permutation(len(blocks))]


def random_stack(rng, space, locations, support, mass=(1.0, 1.0)):
    """(locations, *alphabet sizes) weights with row masses drawn from `mass`."""
    rows = rng.dirichlet(np.ones(space.dim(support)), size=locations)
    rows *= rng.uniform(*mass, size=(locations, 1))
    return rows.reshape((locations,) + space.shape(support))


def own_labels(states):
    """States given as block lists, as (block, None) pairs for the oracles."""
    return [[(block, None) for block in blocks] for blocks in states]


def own_products(stack, support, states):
    """`BlockPlan` on states given as (block, None) pairs, as the oracles take them."""
    return BlockPlan(support, [[block for block, _ in items] for items in states])(stack)


def readout(stack, space, support, states):
    """`build_recombinator_vector` on states given as (block, label) pairs,
    on the metapopulation whose rows are those of `stack`."""
    mu = Metapopulation.from_stack(space, support, stack.reshape(len(stack), -1))
    return build_recombinator_vector(mu, [LabelledPartition(items) for items in states])


def loop_readout(stack, support, states):
    """The readout's arithmetic one state at a time: per block, in the
    canonical order, the block's marginal at its label, one `np.add.reduce`
    that keeps the summed axes, multiplied in."""
    out = []
    for items in states:
        prod = 1.0
        for block, label in LabelledPartition(items).items:
            drop = tuple(a for a, s in enumerate(support, 1) if s not in block)
            prod = prod * np.add.reduce(stack, drop, keepdims=True)[label]
        out.append(prod.reshape(-1))
    return np.array(out)


class TestBlockProducts:
    def test_random_supports_and_block_orders(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(1, 6))
            space = TypeSpace(rng.integers(1, 4, size=n))
            locations = int(rng.integers(1, 4))
            support = tuple(int(s) for s in np.flatnonzero(rng.random(n) < 0.7)) or (0,)
            covered = [s for s in support if rng.random() < 0.8] or [support[-1]]
            own = rng.random() < 0.5
            states = [
                [
                    (b, None if own else int(rng.integers(locations)))
                    for b in random_blocks(rng, covered)
                ]
                for _ in range(int(rng.integers(1, 6)))
            ]
            stack = random_stack(rng, space, locations, support)
            want = kernel_oracle(stack, space, support, states)
            if own:
                got = own_products(stack, support, states)
                assert got.shape == (len(states), locations, space.dim(covered))
                np.testing.assert_array_equal(got, oracles.loop_block_products(stack, support, states))
            else:
                got = readout(stack, space, support, states)
                assert got.shape == (len(states), space.dim(covered))
                np.testing.assert_array_equal(got, loop_readout(stack, support, states))
                want = want[:, 0]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_one_block_states_and_mixed_lengths(self):
        rng = np.random.default_rng(9)
        space = TypeSpace((2, 2, 3, 2))
        support = (0, 1, 2, 3)
        stack = random_stack(rng, space, 2, support)
        states = [
            [((0, 1, 2, 3), 1)],
            [((2,), 0), ((0, 3), 1), ((1,), 0)],
            [((3,), 1), ((0,), 0), ((1,), 1), ((2,), 0)],
            [((1, 3), 0), ((0, 2), 0)],
        ]
        got = readout(stack, space, support, states)
        np.testing.assert_allclose(got, kernel_oracle(stack, space, support, states)[:, 0], rtol=1e-12)
        # a one-block state is its marginal, unchanged
        np.testing.assert_array_equal(got[0], stack[1].reshape(-1))
        sub = BlockPlan(support, [[(0, 2)]])(stack)[0]
        np.testing.assert_array_equal(sub, stack.sum(axis=(2, 4)).reshape(2, -1))

    def test_fourteen_sites(self):
        rng = np.random.default_rng(10)
        space = TypeSpace((2,) * 14)
        stack = random_stack(rng, space, 2, space.sites)
        states = [random_blocks(rng, list(space.sites)) for _ in range(3)]
        states.append([(0, 13), tuple(range(1, 13))])
        got = BlockPlan(space.sites, states)(stack)
        assert got.shape == (4, 2, 2**14)
        want = kernel_oracle(stack, space, space.sites, own_labels(states))
        np.testing.assert_allclose(got, want, rtol=1e-11)

    def test_off_simplex_products_keep_row_mass(self):
        rng = np.random.default_rng(11)
        space = TypeSpace((2, 3, 2))
        stack = random_stack(rng, space, 3, space.sites, mass=(0.2, 5.0))
        mass = stack.reshape(3, -1).sum(axis=1)
        states = [random_blocks(rng, [0, 1, 2]) for _ in range(5)]
        states.append([(0,), (1,), (2,)])
        got = BlockPlan(space.sites, states)(stack)
        np.testing.assert_allclose(got.sum(axis=2), np.tile(mass, (6, 1)), rtol=1e-12)
        want = kernel_oracle(stack, space, space.sites, own_labels(states))
        np.testing.assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("own", [True, False])
    def test_peak_memory_is_three_outputs(self, own):
        # few states with many small blocks: the marginals are tiny, and a
        # table of every marginal broadcast to full size would be far larger
        # than the products
        rng = np.random.default_rng(13)
        space = TypeSpace((4,) * 7)
        stack = random_stack(rng, space, 2, space.sites)
        states = [
            [((s,), None if own else s % 2) for s in space.sites],
            [((s,), None if own else 1) for s in reversed(space.sites)],
        ]
        if own:
            run = lambda: own_products(stack, space.sites, states)
        else:
            mu = Metapopulation.from_stack(space, space.sites, stack.reshape(2, -1))
            labelled = [LabelledPartition(items) for items in states]
            run = lambda: build_recombinator_vector(mu, labelled)
        tracemalloc.start()
        try:
            got = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * got.nbytes + 2**16
        want = kernel_oracle(stack, space, space.sites, states)
        np.testing.assert_allclose(got, want if own else want[:, 0], rtol=1e-12)

    def test_one_plan_many_stacks(self):
        rng = np.random.default_rng(12)
        space = TypeSpace((3, 2, 2))
        states = [[(0,), (1, 2)], [(2,), (0,), (1,)], [(0, 1, 2)]]
        plan = BlockPlan(space.sites, states)
        first = random_stack(rng, space, 2, space.sites)
        second = random_stack(rng, space, 2, space.sites, mass=(0.5, 2.0))
        a = plan(first)
        kept = a.copy()
        b = plan(second)
        np.testing.assert_array_equal(a, kept)
        np.testing.assert_array_equal(a, BlockPlan(space.sites, states)(first))
        np.testing.assert_array_equal(b, BlockPlan(space.sites, states)(second))
        want = kernel_oracle(second, space, space.sites, own_labels(states))
        np.testing.assert_allclose(b, want, rtol=1e-12)
        assert not np.allclose(a, b)


    @pytest.mark.parametrize("sizes", [(8, 3, 9), (9, 8), (2, 9, 8, 3)])
    def test_pairwise_summed_alphabets_off_simplex(self, sizes):
        # numpy sums an axis of 8 or more letters pairwise, so the order in
        # which the site pass sums may round differently from the oracle's
        rng = np.random.default_rng(16)
        space = TypeSpace(sizes)
        stack = random_stack(rng, space, 3, space.sites, mass=(0.2, 5.0))
        states = [random_blocks(rng, list(space.sites)) for _ in range(6)]
        got = BlockPlan(space.sites, states)(stack)
        want = kernel_oracle(stack, space, space.sites, own_labels(states))
        np.testing.assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("sizes", [(8, 3, 9), (9, 8), (2, 9, 8, 3)])
    def test_readout_of_pairwise_summed_alphabets(self, sizes):
        rng = np.random.default_rng(20)
        space = TypeSpace(sizes)
        stack = random_stack(rng, space, 3, space.sites)
        states = [
            [(b, int(rng.integers(3))) for b in random_blocks(rng, list(space.sites))]
            for _ in range(6)
        ]
        got = readout(stack, space, space.sites, states)
        want = kernel_oracle(stack, space, space.sites, states)[:, 0]
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_one_plan_two_stacks_of_one_shape(self):
        rng = np.random.default_rng(17)
        space = TypeSpace((2, 3, 2, 2))
        states = [random_blocks(rng, list(space.sites)) for _ in range(8)]
        plan = BlockPlan(space.sites, states)
        first = random_stack(rng, space, 3, space.sites)
        second = random_stack(rng, space, 3, space.sites, mass=(0.3, 3.0))
        a = plan(first)
        kept = a.copy()
        b = plan(second)
        np.testing.assert_array_equal(a, kept)
        want = [kernel_oracle(s, space, space.sites, own_labels(states)) for s in (first, second)]
        np.testing.assert_allclose(a, want[0], rtol=1e-12)
        np.testing.assert_allclose(b, want[1], rtol=1e-12)

    @pytest.mark.parametrize("own", [True, False])
    def test_support_sites_no_block_covers(self, own):
        rng = np.random.default_rng(18)
        space = TypeSpace((2, 3, 2, 3, 2))
        support = space.sites
        covered = [0, 2, 3]
        states = [
            [(b, None if own else int(rng.integers(2))) for b in random_blocks(rng, covered)]
            for _ in range(5)
        ]
        stack = random_stack(rng, space, 2, support, mass=(0.5, 2.0))
        if own:
            got = own_products(stack, support, states)
            assert got.shape == (5, 2, 12)
            want = kernel_oracle(stack, space, support, states)
        else:
            # the readout reads a metapopulation, whose rows lie on the simplex
            stack = stack / stack.sum(axis=(1, 2, 3, 4, 5), keepdims=True)
            got = readout(stack, space, support, states)
            assert got.shape == (5, 12)
            want = kernel_oracle(stack, space, support, states)[:, 0]
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_ct_rhs_five_sites(self):
        from test_ctime import _brute_rhs

        from recolat.ctime import ct_rhs

        rng = np.random.default_rng(19)
        for _ in range(3):
            model = factories.random_ct_model(rng, 5, 3)
            om = factories.random_metapop(rng, model.space, 3)
            np.testing.assert_allclose(ct_rhs(om, model), _brute_rhs(om, model), rtol=1e-12, atol=1e-14)


@given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=8, max_size=8))
def test_marginal_mass_preserved_random(ws):
    ts = TypeSpace((2, 2, 2))
    w = np.array(ws)
    d = Distribution(ts, ts.sites, w / w.sum())
    for keep in [(0,), (0, 2), (1,)]:
        assert abs(d.marginalise(keep).weights.sum() - 1.0) <= 1e-12

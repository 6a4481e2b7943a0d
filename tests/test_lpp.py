import warnings

import numpy as np
import pytest
import scipy.stats

from recolat.forward import RecombinationModel, iterate
from recolat.linear import build_linear_system, solve_linear, start_rows
from recolat.lpp import (
    CHUNK,
    DualityEstimate,
    duality_estimate,
    lpp_step,
    replicate_rng,
    simulate,
    state_histograms,
    two_site_closed_form,
)
from recolat.measures import TypeSpace
from recolat.partitions import (
    LabelledPartition,
    Partition,
    finest,
    is_refinement,
    whole_labelled,
)

import factories
import oracles

RNG = np.random.default_rng(2718)


class TestRngStreams:
    def test_deterministic_per_key(self):
        a = replicate_rng(7, 3).random(4)
        b = replicate_rng(7, 3).random(4)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = replicate_rng(7, 0).random(4)
        b = replicate_rng(7, 1).random(4)
        assert not np.array_equal(a, b)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            replicate_rng(-1, 0)
        with pytest.raises(ValueError):
            replicate_rng(0, -1)

    def test_small_keys_keep_their_streams(self):
        want = np.random.Generator(np.random.Philox(key=[7, 3])).random(4)
        np.testing.assert_array_equal(replicate_rng(7, 3).random(4), want)

    def test_keys_from_two_to_the_63_are_distinct(self):
        # a list key turns into float64 from 2**63 up, merging neighbours
        a = replicate_rng(2**63, 0).random(4)
        b = replicate_rng(2**63 + 1, 0).random(4)
        assert not np.array_equal(a, b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            top = replicate_rng(2**64 - 1, 2**64 - 1).random(4)
        assert not np.array_equal(top, replicate_rng(2**64 - 2, 2**64 - 1).random(4))

    def test_keys_beyond_64_bits_rejected(self):
        with pytest.raises(ValueError, match=r"2\*\*64"):
            replicate_rng(2**64, 0)
        with pytest.raises(ValueError, match=r"2\*\*64"):
            replicate_rng(0, 2**64)
        model = factories.random_model(np.random.default_rng(64), 2, 2)
        mu0 = factories.random_metapop(np.random.default_rng(65), model.space, 2)
        with pytest.raises(ValueError, match=r"2\*\*64"):
            duality_estimate(0, mu0, model, 1, 10, seed=2**64)

    def test_simulate_and_duality_estimate_share_one_contract(self):
        # 2 500 replicates span three chunks
        rng = np.random.default_rng(1406)
        model = factories.random_model(rng, 3, 2)
        mu0 = factories.random_metapop(rng, model.space, 2)
        for alpha in range(2):
            start = whole_labelled(model.sites, alpha)
            tallies: dict[LabelledPartition, int] = {}
            for traj in simulate(start, model, 4, 2500, seed=9):
                tallies[traj.final] = tallies.get(traj.final, 0) + 1
            est = duality_estimate(alpha, mu0, model, 4, 2500, seed=9)
            assert tallies == est.final_counts


class TestSimulate:
    def test_reproducible_and_lazy(self):
        model = factories.random_model(RNG, 3, 2)
        start = whole_labelled(model.sites, 0)
        gen = simulate(start, model, 4, 6, seed=11)
        assert iter(gen) is gen  # lazy generator
        first = [t.states for t in gen]
        second = [t.states for t in simulate(start, model, 4, 6, seed=11)]
        assert first == second
        third = [t.states for t in simulate(start, model, 4, 6, seed=12)]
        assert first != third

    def test_monotone_refinement_and_absorption(self):
        model = factories.random_model(RNG, 3, 2)
        start = whole_labelled(model.sites, 1)
        for traj in simulate(start, model, 8, 50, seed=5):
            assert len(traj.states) == 9
            for prev, nxt in zip(traj.states, traj.states[1:]):
                assert is_refinement(nxt.base, prev.base)
            absorbed_at = [
                k for k, s in enumerate(traj.states) if len(s) == model.num_sites
            ]
            if traj.absorption_time is None:
                assert not absorbed_at
            else:
                assert traj.absorption_time == absorbed_at[0]
                # once fully split, later states stay fully split
                assert absorbed_at == list(
                    range(traj.absorption_time, len(traj.states))
                )

    def test_immediate_split_model(self):
        ts = TypeSpace((2, 2))
        model = RecombinationModel(
            ts, {finest(range(2)): 1.0}, [[0.5, 0.5], [0.5, 0.5]]
        )
        for traj in simulate(whole_labelled((0, 1), 0), model, 3, 10, seed=1):
            assert traj.absorption_time == 1

    def test_input_validation(self):
        model = factories.random_model(RNG, 3, 2)
        with pytest.raises(ValueError, match="cover"):
            list(simulate(whole_labelled((0, 1), 0), model, 2, 3))
        start = whole_labelled(model.sites, 0)
        with pytest.raises(ValueError, match="negative"):
            list(simulate(start, model, -1, 3))
        with pytest.raises(ValueError, match="replicate"):
            list(simulate(start, model, 2, 0))


    def test_start_label_outside_the_model_rejected(self):
        # a start labelled 5 on 2 locations used to end in an IndexError
        model = factories.random_model(np.random.default_rng(1607), 2, 2)
        with pytest.raises(ValueError, match="labels outside the model"):
            list(simulate(whole_labelled(model.sites, 5), model, 2, 3))


class TestOneStepLaw:
    def test_empirical_frequencies_match_transition_row(self):
        model = factories.random_model(RNG, 2, 2)
        start = whole_labelled(model.sites, 0)
        row = oracles.brute_labelled_row(model, start.items)
        n = 20000
        counts: dict[tuple, int] = {}
        for traj in simulate(start, model, 1, n, seed=3):
            s = traj.states[1]
            counts[s.items] = counts.get(s.items, 0) + 1
        assert set(counts) <= set(row)
        for state, p in row.items():
            got = counts.get(state, 0) / n
            band = 5 * np.sqrt(p * (1 - p) / n) + 1e-9
            assert abs(got - p) <= band, (state, got, p)

    def test_simulate_from_mixed_label_two_block_start(self):
        model = factories.random_model(np.random.default_rng(1407), 3, 2)
        start = LabelledPartition([((0, 2), 1), ((1,), 0)])
        row = oracles.brute_labelled_row(model, start.items)
        n = 20000
        counts: dict[tuple, int] = {}
        for traj in simulate(start, model, 1, n, seed=12):
            assert traj.states[0] == start
            s = traj.states[1]
            counts[s.items] = counts.get(s.items, 0) + 1
        assert set(counts) <= set(row)
        for state, p in row.items():
            got = counts.get(state, 0) / n
            assert abs(got - p) <= 5 * np.sqrt(p * (1 - p) / n) + 1e-9, (state, got, p)

    def test_two_block_start_splits_independently(self):
        model = factories.random_model(RNG, 3, 2)
        start = LabelledPartition([((0, 1), 0), ((2,), 1)])
        row = oracles.brute_labelled_row(model, start.items)
        n = 20000
        counts: dict[tuple, int] = {}
        rng = replicate_rng(17, 0)
        for _ in range(n):
            s = lpp_step(start, model, rng)
            counts[s.items] = counts.get(s.items, 0) + 1
        for state, p in row.items():
            if p < 5e-4:
                continue
            got = counts.get(state, 0) / n
            assert abs(got - p) <= 5 * np.sqrt(p * (1 - p) / n) + 1e-9

    def test_split_and_relabel_independent(self):
        # the fragment containing site 0 picks its new location independently
        # of whether the block split
        model = factories.two_site_model(RNG, 2, r_split=0.4)
        start = whole_labelled((0, 1), 0)
        rng = replicate_rng(23, 0)
        table = np.zeros((2, 2))
        for _ in range(20000):
            out = lpp_step(start, model, rng)
            split = 1 if len(out) == 2 else 0
            label0 = dict(out.items)[(0,) if split else (0, 1)]
            table[split, label0] += 1
        res = scipy.stats.chi2_contingency(table)
        assert res.pvalue > 1e-3


class TestDuality:
    def test_estimate_matches_forward_solution(self):
        model = factories.random_model(RNG, 2, 2)
        mu0 = factories.random_metapop(RNG, model.space, 2)
        exact = iterate(mu0, model, 3)[-1]
        for alpha in range(2):
            est = duality_estimate(alpha, mu0, model, t=3, replicates=30000, seed=8)
            assert isinstance(est, DualityEstimate)
            assert abs(est.estimate.weights.sum() - 1.0) < 1e-9
            diff = np.abs(est.estimate.weights - exact[alpha].weights)
            assert np.all(diff <= 4 * est.stderr + 1e-12)

    def test_grouped_reduction_deterministic(self):
        model = factories.random_model(RNG, 3, 2)
        mu0 = factories.random_metapop(RNG, model.space, 2)
        a = duality_estimate(0, mu0, model, t=2, replicates=500, seed=9)
        b = duality_estimate(0, mu0, model, t=2, replicates=500, seed=9)
        np.testing.assert_array_equal(a.estimate.weights, b.estimate.weights)
        np.testing.assert_array_equal(a.stderr, b.stderr)
        assert sum(a.final_counts.values()) == 500

    def test_zero_variance_when_final_state_deterministic(self):
        ts = TypeSpace((2, 2))
        model = RecombinationModel(
            ts, {finest(range(2)): 1.0}, np.eye(2)
        )
        mu0 = factories.random_metapop(RNG, ts, 2)
        est = duality_estimate(0, mu0, model, t=2, replicates=200, seed=4)
        np.testing.assert_array_equal(est.stderr, 0.0)

    def test_location_out_of_range(self):
        model = factories.random_model(RNG, 2, 2)
        mu0 = factories.random_metapop(RNG, model.space, 2)
        with pytest.raises(ValueError, match="location"):
            duality_estimate(5, mu0, model, 1, 10)


class TestBatchedSampler:
    @pytest.mark.parametrize("t", [1, 2])
    def test_final_state_law_matches_matrix_power(self, t):
        rng = np.random.default_rng(1401)
        model = factories.random_model(rng, 3, 2)
        mu0 = factories.random_metapop(rng, model.space, 2)
        system = build_linear_system(model)
        start = whole_labelled(model.sites, 1)
        row = np.linalg.matrix_power(system.matrix, t)[system.pos[start]]
        n = 40000
        counts = duality_estimate(1, mu0, model, t, n, seed=31 + t).final_counts
        assert set(counts) <= set(system.pos)
        tested = 0
        for j, p in enumerate(row):
            if p < 1e-4:
                continue
            got = counts.get(system.states[j], 0) / n
            assert abs(got - p) <= 5 * np.sqrt(p * (1 - p) / n), (system.states[j], got, p)
            tested += 1
        assert tested > 3

    def test_bitwise_reproducible_across_chunks(self):
        rng = np.random.default_rng(1402)
        model = factories.random_model(rng, 3, 3)
        mu0 = factories.random_metapop(rng, model.space, 3)
        a = duality_estimate(2, mu0, model, t=3, replicates=CHUNK + 1, seed=5)
        b = duality_estimate(2, mu0, model, t=3, replicates=CHUNK + 1, seed=5)
        np.testing.assert_array_equal(a.estimate.weights, b.estimate.weights)
        np.testing.assert_array_equal(a.stderr, b.stderr)
        assert list(a.final_counts.items()) == list(b.final_counts.items())
        assert sum(a.final_counts.values()) == CHUNK + 1
        # chunk 0 draws the same stream whatever follows it
        first = duality_estimate(2, mu0, model, t=3, replicates=CHUNK, seed=5).final_counts
        assert set(first) <= set(a.final_counts)
        extra = sorted(k - first.get(s, 0) for s, k in a.final_counts.items())
        assert extra == [0] * (len(extra) - 1) + [1]
        c = duality_estimate(2, mu0, model, t=3, replicates=CHUNK + 1, seed=6)
        assert not np.array_equal(a.estimate.weights, c.estimate.weights)

    def test_final_states_canonical_and_sorted(self):
        rng = np.random.default_rng(1403)
        model = factories.random_model(rng, 4, 3)
        mu0 = factories.random_metapop(rng, model.space, 3)
        states = list(duality_estimate(0, mu0, model, 3, 3000, seed=2).final_counts)
        assert len(states) > 20
        for s in states:
            checked = LabelledPartition(s.items)
            assert s == checked and hash(s) == hash(checked)
            assert s.base_set == model.sites
        assert states == sorted(states, key=lambda s: s.sort_key())

    def test_nine_sites_sparse_support_matches_iteration(self):
        rng = np.random.default_rng(1404)
        # too many labelled states for the linear route; iteration is the check
        sites = range(9)
        recomb = {
            Partition([sites]): 0.5,
            Partition([(0, 1, 2, 3), (4, 5, 6, 7, 8)]): 0.2,
            Partition([(0, 2, 4, 6, 8), (1, 3, 5, 7)]): 0.2,
            finest(sites): 0.1,
        }
        model = RecombinationModel(TypeSpace((2,) * 9), recomb, [[0.7, 0.3], [0.4, 0.6]])
        mu0 = factories.random_metapop(rng, model.space, 2)
        exact = iterate(mu0, model, 4)[-1]
        for alpha in range(2):
            est = duality_estimate(alpha, mu0, model, 4, 20000, seed=40 + alpha)
            diff = np.abs(est.estimate.weights - exact[alpha].weights)
            assert np.all(diff <= 4 * est.stderr + 1e-12)

    def test_fourteen_sites_smoke(self):
        rng = np.random.default_rng(1405)
        sites = range(14)
        recomb = {
            Partition([sites]): 0.5,
            Partition([range(7), range(7, 14)]): 0.2,
            finest(sites): 0.3,
        }
        space = TypeSpace((2,) + (1,) * 13)
        model = RecombinationModel(space, recomb, [[0.5, 0.5], [0.2, 0.8]])
        mu0 = factories.random_metapop(rng, space, 2)
        est = duality_estimate(1, mu0, model, 6, 3000, seed=14)
        assert sum(est.final_counts.values()) == 3000
        assert any(len(s) == 14 for s in est.final_counts)
        for s in est.final_counts:
            assert s == LabelledPartition(s.items) and s.base_set == model.sites
        np.testing.assert_allclose(est.estimate.weights, iterate(mu0, model, 6)[-1][1].weights,
                                   atol=5 * est.stderr.max())


class TestHistograms:
    def test_counts_sum_to_replicates(self):
        model = factories.random_model(RNG, 2, 2)
        start = whole_labelled(model.sites, 0)
        hists = state_histograms(start, model, 3, 250, seed=6)
        assert len(hists) == 4
        assert all(sum(h.values()) == 250 for h in hists)
        assert hists[0] == {start: 250}


class TestTwoSiteClosedForm:
    @pytest.mark.parametrize("t", [0, 1, 2, 7, 19, 32])
    def test_matches_iteration(self, t):
        model = factories.two_site_model(RNG, 3)
        mu0 = factories.random_metapop(RNG, model.space, 3)
        want = iterate(mu0, model, t)[-1]
        got = two_site_closed_form(mu0, model, t)
        for a in range(3):
            np.testing.assert_allclose(got[a].weights, want[a].weights, atol=1e-12)

    def test_degenerate_supports(self):
        ts = TypeSpace((2, 2))
        mig = [[0.8, 0.2], [0.3, 0.7]]
        mu0 = factories.random_metapop(RNG, ts, 2)
        never = RecombinationModel(ts, {Partition([(0, 1)]): 1.0}, mig)
        got = two_site_closed_form(mu0, never, 5)
        want = iterate(mu0, never, 5)[-1]
        always = RecombinationModel(ts, {finest(range(2)): 1.0}, mig)
        got2 = two_site_closed_form(mu0, always, 5)
        want2 = iterate(mu0, always, 5)[-1]
        for a in range(2):
            np.testing.assert_allclose(got[a].weights, want[a].weights, atol=1e-13)
            np.testing.assert_allclose(got2[a].weights, want2[a].weights, atol=1e-13)

    def test_requires_two_sites(self):
        model = factories.random_model(RNG, 3, 2)
        mu0 = factories.random_metapop(RNG, model.space, 2)
        with pytest.raises(ValueError, match="two sites"):
            two_site_closed_form(mu0, model, 3)

    @pytest.mark.parametrize("locations", [1, 2, 3])
    def test_chain_is_the_general_assembly(self, locations, monkeypatch):
        # the hand-built chain is an independent route, so it is compared
        # with the closure's T entry by entry, not only through its outputs
        import recolat.lpp

        seen = []

        def capture(law, mu0, model, system):
            seen.append(system)
            return start_rows(law, mu0, model, system)

        monkeypatch.setattr(recolat.lpp, "start_rows", capture)
        rng = np.random.default_rng(3300 + locations)
        model = factories.two_site_model(rng, locations)
        two_site_closed_form(factories.random_metapop(rng, model.space, locations), model, 3)
        general = build_linear_system(model)
        assert seen[0].states == general.states
        np.testing.assert_allclose(seen[0].matrix, general.matrix, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("locations", [1, 2, 3, 4])
    def test_matches_linear_system(self, locations):
        # one power of the block chain stays exact at long horizons too,
        # where a sum over the split time gathers round-off
        rng = np.random.default_rng(3100 + locations)
        for sizes in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            space = TypeSpace(sizes)
            split = float(rng.uniform(0.1, 0.9))
            mig = rng.random((locations, locations)) + 0.1
            model = RecombinationModel(
                space,
                {Partition([(0, 1)]): 1.0 - split, finest(range(2)): split},
                mig / mig.sum(axis=1, keepdims=True),
            )
            mu0 = factories.random_metapop(rng, space, locations)
            system = build_linear_system(model)
            for t in (0, 1, 50, 5000):
                got = two_site_closed_form(mu0, model, t).stack()
                want = solve_linear(mu0, model, t, system=system).stack()
                assert np.abs(got - want).max() < 1e-14, (sizes, t)

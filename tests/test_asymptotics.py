"""Long-run behaviour: stationary weights, limits, absorption, QLD.

Frozen expectations come from exact rational back-substitution done by hand
for the four-site reference model (eta = 1/2, both peak states carry hitting
weight 1 and conditional probability 1/2) and from a fraction-arithmetic
brute-force propagation of the label-free chain, renormalised each step,
which reproduces the same split at t = 2000.
"""

import itertools

import numpy as np
import pytest

import factories
from recolat.asymptotics import (
    QldReport,
    absorption_tail,
    conditioned_law,
    fitted_decay_rate,
    limit_metapopulation,
    qld,
    separating_support,
    stationary_distribution,
)
from recolat.forward import RecombinationModel, iterate, step
from recolat.linear import build_base_matrix, build_linear_system, matrix_power
from recolat.lpp import simulate
from recolat.measures import Distribution, Metapopulation, TypeSpace, tensor
from recolat.partitions import (
    LabelledPartition,
    Partition,
    coarsest,
    finest,
    whole_labelled,
)

RNG = np.random.default_rng(20260815)


class TestStationary:
    def test_two_location_example(self):
        prof = stationary_distribution([[0.9, 0.1], [0.2, 0.8]])
        assert np.allclose(prof.weights, [2 / 3, 1 / 3], atol=1e-12)
        assert prof.primitivity_index == 1

    def test_doubly_stochastic_gives_uniform(self):
        m = np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
        prof = stationary_distribution(m)
        assert np.allclose(prof.weights, 1 / 3, atol=1e-12)

    def test_fixed_point_property_random(self):
        for _ in range(10):
            L = int(RNG.integers(1, 6))
            m = RNG.random((L, L)) + 0.05
            m /= m.sum(axis=1, keepdims=True)
            q = stationary_distribution(m).weights
            assert np.abs(q @ m - q).max() < 1e-12
            assert abs(q.sum() - 1.0) < 1e-12
            assert q.min() > 0

    def test_primitivity_index_needs_powers(self):
        # positive only from the second power
        m = np.array([[0.0, 1.0], [0.5, 0.5]])
        prof = stationary_distribution(m)
        assert prof.primitivity_index == 2

    def test_permutation_matrix_is_periodic(self):
        with pytest.raises(ValueError, match="periodic"):
            stationary_distribution([[0.0, 1.0], [1.0, 0.0]])

    def test_block_diagonal_is_reducible(self):
        m = np.eye(4)
        with pytest.raises(ValueError, match="reducible"):
            stationary_distribution(m)

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError, match="row-stochastic"):
            stationary_distribution([[0.9, 0.2], [0.2, 0.8]])


    def test_rejects_nan_silently(self, capfd):
        # LAPACK used to print DLASCL errors to the terminal before raising
        rng = np.random.default_rng(1608)
        m = rng.random((3, 3)) + 0.1
        m /= m.sum(axis=1, keepdims=True)
        m[tuple(rng.integers(3, size=2))] = np.nan
        with pytest.raises(ValueError, match="non-finite entries"):
            stationary_distribution(m)
        assert capfd.readouterr() == ("", "")


class TestLimit:
    def test_limit_reached_at_t200(self):
        for _ in range(3):
            n = int(RNG.integers(2, 5))
            loc = int(RNG.integers(1, 4))
            model = factories.random_model(RNG, n, loc)
            mu0 = factories.random_metapop(RNG, model.space, loc)
            lim = limit_metapopulation(mu0, model)
            final = iterate(mu0, model, 200)[-1]
            assert np.abs(final.stack() - lim.stack()).max() < 1e-9

    def test_limit_is_location_independent_product(self):
        model = factories.random_model(RNG, 3, 3)
        mu0 = factories.random_metapop(RNG, model.space, 3)
        lim = limit_metapopulation(mu0, model)
        stack = lim.stack()
        assert np.abs(stack - stack[0]).max() == 0.0
        # product structure: equals tensor of its own one-site marginals
        d = lim[0]
        prod = tensor([d.marginalise((s,)) for s in model.sites])
        assert np.abs(d.weights - prod.weights).max() < 1e-12

    def test_matches_hand_built_formula(self):
        model = factories.random_model(RNG, 3, 2)
        mu0 = factories.random_metapop(RNG, model.space, 2)
        q = stationary_distribution(model.migration).weights
        # independent construction straight from the averaged marginals
        arrays = []
        for s in model.sites:
            arrays.append(q @ mu0.marginalise((s,)).stack())
        expected = arrays[0]
        for a in arrays[1:]:
            expected = np.multiply.outer(expected, a)
        lim = limit_metapopulation(mu0, model)
        assert np.abs(lim[0].weights - expected.reshape(-1)).max() < 1e-14

    def test_fixed_point_inputs_are_their_own_limit(self):
        model = factories.random_model(RNG, 3, 2)
        mu0 = factories.random_metapop(RNG, model.space, 2)
        lim = limit_metapopulation(mu0, model)
        again = step(lim, model)
        assert np.abs(again.stack() - lim.stack()).max() < 1e-12
        assert np.abs(limit_metapopulation(lim, model).stack() - lim.stack()).max() < 1e-12

    def test_single_location_gives_marginal_product(self):
        model = factories.random_model(RNG, 3, 1)
        mu0 = factories.random_metapop(RNG, model.space, 1)
        lim = limit_metapopulation(mu0, model)
        prod = tensor([mu0[0].marginalise((s,)) for s in model.sites])
        assert np.abs(lim[0].weights - prod.weights).max() < 1e-14

    def test_rejects_non_separating_support(self):
        space = TypeSpace((2, 2, 2))
        paired = Partition([(0, 1), (2,)])
        model = RecombinationModel(
            space,
            {coarsest((0, 1, 2)): 0.5, paired: 0.5},
            [[0.9, 0.1], [0.2, 0.8]],
        )
        assert not separating_support(model)
        mu0 = factories.random_metapop(RNG, space, 2)
        with pytest.raises(ValueError, match="merged"):
            limit_metapopulation(mu0, model)

    def test_rejects_periodic_migration(self):
        space = TypeSpace((2, 2))
        model = RecombinationModel(
            space,
            {finest((0, 1)): 0.5, coarsest((0, 1)): 0.5},
            [[0.0, 1.0], [1.0, 0.0]],
        )
        mu0 = factories.random_metapop(RNG, space, 2)
        with pytest.raises(ValueError, match="periodic"):
            limit_metapopulation(mu0, model)

    def test_geometric_decay_rate_below_one(self):
        model = factories.random_model(RNG, 3, 2)
        mu0 = factories.random_metapop(RNG, model.space, 2)
        lim = limit_metapopulation(mu0, model).stack()
        traj = iterate(mu0, model, 60)
        errs = [np.abs(s.stack() - lim).max() for s in traj]
        rate = fitted_decay_rate(errs, 30, 60)
        assert 0.0 < rate < 1.0


class TestFittedRate:
    def test_recovers_exact_geometric(self):
        errs = 3.7 * 0.62 ** np.arange(100)
        assert abs(fitted_decay_rate(errs) - 0.62) < 1e-12

    def test_window_selection(self):
        # two regimes; fitting the tail isolates the slow rate
        t = np.arange(200)
        errs = 0.3**t + 1e-4 * 0.9**t
        assert abs(fitted_decay_rate(errs, 150, 199) - 0.9) < 1e-6

    def test_needs_positive_errors(self):
        with pytest.raises(ValueError, match="positive"):
            fitted_decay_rate(np.zeros(50))


class TestAbsorptionTail:
    def test_two_sites_geometric(self):
        model = factories.two_site_model(RNG, 2, r_split=0.3)
        tail = absorption_tail(model, 40)
        assert np.abs(tail - 0.7 ** np.arange(41)).max() < 1e-12

    def test_tail_monotone_and_bounded(self):
        model = factories.random_model(RNG, 4, 2)
        tail = absorption_tail(model, 60)
        assert tail[0] == 1.0
        assert ((tail[1:] - tail[:-1]) <= 1e-15).all()
        assert (tail >= -1e-15).all() and (tail <= 1.0 + 1e-15).all()

    def test_immediate_split_support(self):
        space = TypeSpace((2, 2, 2))
        model = RecombinationModel(
            space, {finest((0, 1, 2)): 1.0}, [[0.9, 0.1], [0.2, 0.8]]
        )
        tail = absorption_tail(model, 5)
        assert tail[0] == 1.0
        assert np.abs(tail[1:]).max() == 0.0

    def test_start_already_absorbed(self):
        model = factories.random_model(RNG, 3, 2)
        tail = absorption_tail(model, 3, start=finest(model.sites))
        assert np.abs(tail).max() == 0.0

    def test_start_on_a_site_subset_is_the_induced_model(self):
        # a start on sites {0, 1} of three used to count "fully split"
        # against all three sites, so it was never absorbed: the tail read
        # all ones and qld reported eta = 1 with its peak at {0}|{1}
        start = Partition([(0, 1)])
        space = TypeSpace((2, 2, 2))
        model = RecombinationModel(
            space, {coarsest((0, 1, 2)): 0.5, finest((0, 1, 2)): 0.5}, [[0.9, 0.1], [0.2, 0.8]]
        )
        assert np.abs(absorption_tail(model, 5, start=start) - 0.5 ** np.arange(6)).max() < 1e-15
        rep = qld(model, start=start)
        assert rep.max_sojourn == 0.5 and rep.peak_states == [start]
        rng = np.random.default_rng(1801)
        for _ in range(6):
            model = factories.random_model(rng, 3, 2)
            law = model.marginal_recombination(start.base_set)
            induced = RecombinationModel(TypeSpace((2, 2)), law, model.migration)
            np.testing.assert_allclose(
                absorption_tail(model, 8, start=start), absorption_tail(induced, 8), rtol=0, atol=1e-15
            )
            if law.get(start, 0.0) > 0:  # else every step splits, and qld is undefined
                got, want = qld(model, start=start), qld(induced)
                assert got.peak_states == want.peak_states
                assert abs(got.max_sojourn - want.max_sojourn) < 1e-15
                for p in want.peak_states:
                    assert abs(got.qlim[p] - want.qlim[p]) < 1e-15

    def test_matches_monte_carlo(self):
        model = factories.random_model(RNG, 3, 2)
        tail = absorption_tail(model, 8)
        reps = 20000
        start = whole_labelled(model.sites, 0)
        counts = np.zeros(9)
        for traj in simulate(start, model, 8, reps, seed=71):
            hit = traj.absorption_time if traj.absorption_time is not None else 9
            counts[:hit] += 1.0  # still unsplit strictly before the hit
        emp = counts / reps
        sigma = np.sqrt(np.maximum(tail * (1 - tail), 1e-12) / reps)
        assert (np.abs(emp - tail) < 5 * sigma + 1e-9).all()

    def test_log_slope_approaches_eta(self):
        model = factories.nonmonotone_sojourn_model()
        rep = qld(model)
        tail = absorption_tail(model, 200)
        slope = fitted_decay_rate(tail, 100, 200)
        assert abs(slope - rep.max_sojourn) < 1e-9

    def test_lower_bound_constant_exists(self):
        # tail >= c * eta^t with an explicit positive c over t <= 200
        model = factories.nonmonotone_sojourn_model()
        eta = qld(model).max_sojourn
        tail = absorption_tail(model, 200)
        ratio = tail / eta ** np.arange(201)
        c = ratio.min()
        assert c > 0
        assert (tail >= c * eta ** np.arange(201) - 1e-300).all()
        # the ratio stabilises instead of collapsing towards zero
        assert ratio[200] > 0.5 * ratio[100]


def _brute_conditioned_base(model, start, t):
    """Independent route: power the label-free matrix, renormalise on the
    non-absorbed states at the end (exact conditioning, small t only)."""
    states, mat = build_base_matrix(model, start)
    pos = {p: i for i, p in enumerate(states)}
    v = np.zeros(len(states))
    v[pos[start]] = 1.0
    v = v @ matrix_power(mat, t)
    fin = finest(model.sites)
    if fin in pos:
        v[pos[fin]] = 0.0
    return {p: v[pos[p]] / v.sum() for p in states if v[pos[p]] > 0}


class TestQld:
    def test_reference_model_report(self):
        model = factories.nonmonotone_sojourn_model()
        rep = qld(model)
        assert rep.max_sojourn == 0.5
        left = Partition([(0, 1), (2,), (3,)])
        right = Partition([(0,), (1,), (2, 3)])
        assert set(rep.peak_states) == {left, right}
        # hand back-substitution gives hitting weight exactly 1 for each peak
        assert abs(rep.hitting_weights[left] - 1.0) < 1e-12
        assert abs(rep.hitting_weights[right] - 1.0) < 1e-12
        assert abs(rep.qlim[left] - 0.5) < 1e-12
        assert abs(rep.qlim[right] - 0.5) < 1e-12

    def test_reference_model_sojourn_non_monotone(self):
        # a coarser state can out-sit a finer one and vice versa
        model = factories.nonmonotone_sojourn_model()
        states, mat = build_base_matrix(model, coarsest(model.sites))
        pos = {p: i for i, p in enumerate(states)}
        d_whole = mat[pos[coarsest(model.sites)], pos[coarsest(model.sites)]]
        paired = Partition([(0, 1), (2, 3)])
        d_paired = mat[pos[paired], pos[paired]]
        half = Partition([(0, 1), (2,), (3,)])
        d_half = mat[pos[half], pos[half]]
        assert d_whole == 0.4 and d_paired == 0.25 and d_half == 0.5
        assert d_paired < d_whole < d_half

    def test_two_sites_whole_is_the_peak(self):
        model = factories.two_site_model(RNG, 3, r_split=0.4)
        rep = qld(model)
        whole = coarsest(model.sites)
        assert rep.peak_states == [whole]
        assert abs(rep.max_sojourn - 0.6) < 1e-15
        assert abs(rep.qlim[whole] - 1.0) < 1e-12
        # labelled weights over single-block labels equal q
        q = stationary_distribution(model.migration).weights
        for alpha in range(3):
            bd = whole_labelled(model.sites, alpha)
            assert abs(rep.labelled_qlim[bd] - q[alpha]) < 1e-12

    def test_labelled_weights_sum_to_one(self):
        for _ in range(5):
            model = factories.random_model(RNG, int(RNG.integers(2, 5)), int(RNG.integers(1, 4)))
            rep = qld(model)
            assert abs(sum(rep.labelled_qlim.values()) - 1.0) < 1e-10
            assert abs(sum(rep.qlim.values()) - 1.0) < 1e-12
            for p, prob in rep.qlim.items():
                assert p in set(rep.peak_states)
                assert prob >= 0

    def test_hitting_weight_identity(self):
        # the normaliser equals the sum of per-state hitting weights
        for _ in range(5):
            model = factories.random_model(RNG, int(RNG.integers(3, 5)), 2)
            rep = qld(model)
            total = sum(rep.hitting_weights.values())
            renorm = sum(rep.qlim.values())
            for p in rep.peak_states:
                assert abs(rep.qlim[p] - rep.hitting_weights[p] / total * renorm) < 1e-10

    def test_quasi_limit_undefined_on_sure_split(self):
        space = TypeSpace((2, 2, 2))
        model = RecombinationModel(
            space, {finest((0, 1, 2)): 1.0}, [[0.9, 0.1], [0.2, 0.8]]
        )
        with pytest.raises(ValueError, match="quasi-limit undefined"):
            qld(model)

    def test_start_already_split(self):
        model = factories.random_model(RNG, 3, 2)
        with pytest.raises(ValueError, match="quasi-limit undefined"):
            qld(model, start=finest(model.sites))

    def test_symmetric_start_splits_evenly(self):
        model = factories.nonmonotone_sojourn_model()
        rep = qld(model, start=Partition([(0, 1), (2, 3)]))
        vals = sorted(rep.qlim.values())
        assert abs(vals[0] - 0.5) < 1e-12 and abs(vals[1] - 0.5) < 1e-12

    def test_peak_states_only_stay_or_absorb(self):
        for _ in range(10):
            model = factories.random_model(RNG, int(RNG.integers(2, 5)), 2)
            states, mat = build_base_matrix(model, coarsest(model.sites))
            pos = {p: i for i, p in enumerate(states)}
            rep = qld(model)
            fin = finest(model.sites)
            for p in rep.peak_states:
                stay = mat[pos[p], pos[p]]
                split = mat[pos[p], pos[fin]]
                assert abs(stay + split - 1.0) < 1e-12

    def test_non_separating_support_degrades_to_hitting_law(self):
        space = TypeSpace((2, 2, 2))
        paired = Partition([(0, 1), (2,)])
        model = RecombinationModel(
            space,
            {paired: 0.4, coarsest((0, 1, 2)): 0.6},
            [[0.9, 0.1], [0.2, 0.8]],
        )
        # sites 0,1 are never separated: the meet state traps the chain
        assert not separating_support(model)
        rep = qld(model)
        assert rep.max_sojourn == 1.0
        assert rep.peak_states == [paired]
        assert abs(rep.qlim[paired] - 1.0) < 1e-12


class TestConditionedLaw:
    def test_time_zero_is_point_mass(self):
        model = factories.random_model(RNG, 3, 2)
        start = whole_labelled(model.sites, 1)
        law = conditioned_law(model, 0, start=start)
        assert abs(law[start] - 1.0) < 1e-15
        assert abs(sum(law.values()) - 1.0) < 1e-12

    def test_matches_direct_power_conditioning(self):
        model = factories.random_model(RNG, 3, 2)
        start = whole_labelled(model.sites, 0)
        law = conditioned_law(model, 6, start=start)
        base = {}
        for s, p in law.items():
            base[s.base] = base.get(s.base, 0.0) + p
        brute = _brute_conditioned_base(model, coarsest(model.sites), 6)
        for p in set(brute) | set(base):
            assert abs(base.get(p, 0.0) - brute.get(p, 0.0)) < 1e-12

    def test_converges_to_labelled_qld(self):
        model = factories.nonmonotone_sojourn_model()
        rep = qld(model)
        law = conditioned_law(model, 400)
        tv = 0.5 * sum(
            abs(law.get(s, 0.0) - w) for s, w in rep.labelled_qlim.items()
        ) + 0.5 * sum(w for s, w in law.items() if s not in rep.labelled_qlim)
        assert tv < 1e-8

    def test_limit_is_start_label_independent(self):
        model = factories.random_model(RNG, 3, 3)
        a = conditioned_law(model, 300, start=whole_labelled(model.sites, 0))
        b = conditioned_law(model, 300, start=whole_labelled(model.sites, 2))
        keys = set(a) | set(b)
        assert max(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys) < 1e-9

    def test_impossible_conditioning(self):
        space = TypeSpace((2, 2))
        model = RecombinationModel(
            space, {finest((0, 1)): 1.0}, [[0.9, 0.1], [0.2, 0.8]]
        )
        with pytest.raises(ValueError, match="probability zero"):
            conditioned_law(model, 1)

    def test_sums_to_one_each_time(self):
        model = factories.random_model(RNG, 3, 2)
        for t in (1, 3, 10, 50):
            law = conditioned_law(model, t)
            assert abs(sum(law.values()) - 1.0) < 1e-10


class TestSingletonLimit:
    def test_fully_split_labels_approach_product_of_q(self):
        # P(state = all singletons with labels a) -> prod_i q(a_i)
        for n, loc in ((2, 2), (3, 2), (3, 3)):
            model = factories.random_model(RNG, n, loc)
            q = stationary_distribution(model.migration).weights
            system = build_linear_system(
                model, starts=[whole_labelled(model.sites, 0)]
            )
            power = matrix_power(system.matrix, 300)
            row = power[system.pos[whole_labelled(model.sites, 0)]]
            for labels in itertools.product(range(loc), repeat=n):
                bd = LabelledPartition(
                    ((s,), lab) for s, lab in zip(model.sites, labels)
                )
                expected = np.prod([q[l] for l in labels])
                assert abs(row[system.pos[bd]] - expected) < 1e-9

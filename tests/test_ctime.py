"""Continuous-time solvers: RK4, generator exponential, two-site block exponential."""

import numpy as np
import pytest

import factories
from recolat.ctime import (
    DENSE_STATES,
    CtModel,
    build_generator,
    ct_rhs,
    ct_simulate,
    ct_solve_dual,
    ct_two_site,
    integrate,
)
from recolat.forward import recombine
from recolat.linear import build_recombinator_vector, start_rows
from recolat.measures import Distribution, Metapopulation, TypeSpace, tensor
from recolat.partitions import (
    LabelledPartition,
    Partition,
    coarsest,
    enumerate_partitions,
    finest,
    is_refinement,
    whole_labelled,
)

RNG = np.random.default_rng(88)


def _conservative(rows):
    g = np.asarray(rows, dtype=float)
    np.fill_diagonal(g, 0.0)
    np.fill_diagonal(g, -g.sum(axis=1))
    return g


class TestCtModel:
    def test_zero_rates_dropped(self):
        space = TypeSpace((2, 2))
        model = CtModel(
            space,
            {finest((0, 1)): 0.0, coarsest((0, 1)): 1.5},
            np.zeros((2, 2)),
        )
        assert list(model.rates) == [coarsest((0, 1))]

    def test_rejects_negative_rate(self):
        space = TypeSpace((2, 2))
        with pytest.raises(ValueError, match="negative or non-finite"):
            CtModel(space, {finest((0, 1)): -0.1}, np.zeros((2, 2)))

    def test_rejects_partial_partition(self):
        space = TypeSpace((2, 2, 2))
        with pytest.raises(ValueError, match="cover all sites"):
            CtModel(space, {Partition([(0, 1)]): 1.0}, np.zeros((2, 2)))

    def test_rejects_bad_generator(self):
        space = TypeSpace((2, 2))
        with pytest.raises(ValueError, match="sum to zero"):
            CtModel(space, {finest((0, 1)): 1.0}, [[-1.0, 0.9], [0.5, -0.5]])
        with pytest.raises(ValueError, match="off-diagonal"):
            CtModel(space, {finest((0, 1)): 1.0}, [[0.1, -0.1], [0.5, -0.5]])
        with pytest.raises(ValueError, match="square"):
            CtModel(space, {finest((0, 1)): 1.0}, [[0.0, 0.0]])

    def test_nan_generator_entry_rejected(self):
        # any NaN, on the diagonal or off it, used to pass both checks
        rng = np.random.default_rng(1604)
        gen = _conservative(rng.random((3, 3)))
        gen[tuple(rng.integers(3, size=2))] = np.nan
        with pytest.raises(ValueError, match="non-finite migration rate"):
            CtModel(TypeSpace((2, 2)), {finest((0, 1)): 1.0}, gen)

    def test_rejects_non_partition_key(self):
        # used to raise AttributeError on the tuple's missing base_set
        gen = _conservative(np.random.default_rng(1605).random((2, 2)))
        with pytest.raises(ValueError, match="is not a Partition"):
            CtModel(TypeSpace((2, 2)), {(0, 1): 1.0}, gen)

    def test_marginal_rates_accumulate(self):
        space = TypeSpace((2, 2, 2))
        fin3 = finest((0, 1, 2))
        mixed = Partition([(0, 1), (2,)])
        model = CtModel(space, {fin3: 0.5, mixed: 0.7}, np.zeros((2, 2)))
        pair = model.marginal_rates((0, 1))
        assert abs(pair[Partition([(0,), (1,)])] - 0.5) < 1e-15
        assert abs(pair[Partition([(0, 1)])] - 0.7) < 1e-15
        single = model.marginal_rates((2,))
        assert abs(single[Partition([(2,)])] - 1.2) < 1e-15

    def test_marginal_rates_hand_out_a_copy(self):
        # clearing a returned dict once emptied the cache the generator reads
        model = factories.random_ct_model(np.random.default_rng(1), 3, 2)
        model.marginal_rates(model.sites).clear()
        assert len(build_generator(model).states) == 22

    def test_building_compiles_no_plan(self, monkeypatch):
        # the pull is compiled by the first ct_rhs; the dual route needs none
        import recolat.measures

        def refuse(*args, **kwargs):
            raise AssertionError("a BlockPlan was compiled")

        rng = np.random.default_rng(1906)
        monkeypatch.setattr(recolat.measures.BlockPlan, "__init__", refuse)
        model = factories.random_ct_model(rng, 3, 2)
        om = factories.random_metapop(rng, model.space, 2)
        out = ct_solve_dual(om, model, 0.7)
        assert np.abs(out.stack().sum(axis=1) - 1.0).max() < 1e-12
        with pytest.raises(AssertionError, match="compiled"):
            ct_rhs(om, model)


def _brute_rhs(omega, model):
    """Independent right-hand side on Metapopulation objects."""
    stack = omega.stack()
    mig = model.generator @ stack
    rec = np.zeros_like(stack)
    for part, rho in model.rates.items():
        for loc in range(len(omega)):
            prod = tensor([omega[loc].marginalise(b) for b in part.blocks])
            rec[loc] += rho * (prod.weights - omega[loc].weights)
    return mig + rec


class TestRhs:
    def test_zero_model_zero_derivative(self):
        space = TypeSpace((2, 2))
        model = CtModel(space, {}, np.zeros((3, 3)))
        om = factories.random_metapop(RNG, space, 3)
        assert np.abs(ct_rhs(om, model)).max() == 0.0

    def test_rows_sum_to_zero(self):
        for _ in range(5):
            model = factories.random_ct_model(RNG, int(RNG.integers(2, 5)), 2)
            om = factories.random_metapop(RNG, model.space, 2)
            d = ct_rhs(om, model)
            assert np.abs(d.sum(axis=1)).max() < 1e-14

    def test_matches_brute_evaluation(self):
        for _ in range(5):
            n = int(RNG.integers(2, 5))
            loc = int(RNG.integers(1, 4))
            model = factories.random_ct_model(RNG, n, loc)
            om = factories.random_metapop(RNG, model.space, loc)
            assert np.abs(ct_rhs(om, model) - _brute_rhs(om, model)).max() < 1e-14

    def test_fourteen_sites(self):
        # regression: the right-hand side used to run out of einsum letters
        # beyond 13 sites
        rng = np.random.default_rng(1414)
        n = 14
        space = TypeSpace((2,) * n)
        rates = {
            Partition([range(0, n, 2), range(1, n, 2)]): 0.8,
            Partition([(0, 13), range(1, 13)]): 0.5,
            finest(range(n)): 0.3,
        }
        model = CtModel(space, rates, _conservative(rng.random((2, 2))))
        om = factories.random_metapop(rng, space, 2)
        d = ct_rhs(om, model)
        assert np.abs(d.sum(axis=1)).max() < 1e-14
        assert np.abs(d - _brute_rhs(om, model)).max() < 1e-14

    def test_stationary_product_state_is_fixed_point(self):
        model = factories.random_ct_model(RNG, 3, 2)
        # stationary row vector of the generator
        gen = model.generator
        rows = np.vstack([gen.T, np.ones(2)])
        rhs = np.zeros(3)
        rhs[-1] = 1.0
        q, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
        factors = [
            Distribution(model.space, (s,), RNG.dirichlet(np.ones(2)))
            for s in model.sites
        ]
        prod = tensor(factors)
        om = Metapopulation([prod, prod])
        # same product measure everywhere kills both terms
        assert np.abs(ct_rhs(om, model)).max() < 1e-14
        del q

    def test_whole_set_rate_is_inert(self):
        space = TypeSpace((2, 2))
        om = factories.random_metapop(RNG, space, 2)
        gen = _conservative(RNG.random((2, 2)))
        with_whole = CtModel(space, {finest((0, 1)): 0.7, coarsest((0, 1)): 5.0}, gen)
        without = CtModel(space, {finest((0, 1)): 0.7}, gen)
        assert np.abs(ct_rhs(om, with_whole) - ct_rhs(om, without)).max() == 0.0

    def test_whole_set_rate_alone_is_migration(self):
        rng = np.random.default_rng(1907)
        space = TypeSpace((2, 3))
        model = CtModel(space, {coarsest((0, 1)): 2.5}, _conservative(rng.random((3, 3))))
        om = factories.random_metapop(rng, space, 3)
        np.testing.assert_array_equal(ct_rhs(om, model), model.generator @ om.stack())

    def test_raw_stack_of_wrong_width_rejected(self):
        # two locations of a two-site binary model: a (2, 2) stack is not
        # one location of dim 4
        rng = np.random.default_rng(1908)
        model = CtModel(TypeSpace((2, 2)), {finest((0, 1)): 0.7}, _conservative(rng.random((2, 2))))
        for shape in [(2, 2), (2, 8)]:
            with pytest.raises(ValueError):
                ct_rhs(rng.random(shape), model)

    def test_drift_is_the_discrete_maps_pull(self):
        # rates equal to recombination probabilities and no migration: the
        # drift is the change one recombination step makes
        rng = np.random.default_rng(1909)
        for n, loc in [(2, 1), (3, 2), (4, 3)]:
            model = factories.random_model(rng, n, loc)
            ct = CtModel(model.space, model.recomb, np.zeros((loc, loc)))
            mu = factories.random_metapop(rng, model.space, loc)
            change = recombine(mu, model).stack() - mu.stack()
            np.testing.assert_allclose(ct_rhs(mu, ct), change, rtol=0, atol=1e-15)


class TestIntegrate:
    def test_zero_horizon(self):
        model = factories.random_ct_model(RNG, 2, 2)
        om = factories.random_metapop(RNG, model.space, 2)
        traj = integrate(om, model, 0.0, 0.1)
        assert len(traj.states) == 1
        assert traj.final is om

    def test_grid_and_final_partial_step(self):
        model = factories.random_ct_model(RNG, 2, 2)
        om = factories.random_metapop(RNG, model.space, 2)
        traj = integrate(om, model, 0.55, 0.1)
        assert abs(traj.times[-1] - 0.55) < 1e-12
        assert len(traj.times) == 7
        assert np.abs(np.diff(traj.times)[:-1] - 0.1).max() < 1e-12
        traj.at(0.55)
        with pytest.raises(ValueError, match="integration grid"):
            traj.at(0.33)

    @pytest.mark.parametrize("t_end, dt, steps", [(0.9, 0.3, 3), (1.0, 1e-4, 10_000)])
    def test_grid_lands_exactly_on_t_end(self, t_end, dt, steps):
        # regression: the grid used to accumulate t += dt and end at
        # 0.8999999999999999 and 0.9999999999999062 here
        rng = np.random.default_rng(21)
        space = TypeSpace((2,))
        model = CtModel(space, {}, _conservative(rng.random((2, 2))))
        om = factories.random_metapop(rng, space, 2)
        traj = integrate(om, model, t_end, dt)
        assert traj.times[-1] == t_end
        assert len(traj.times) == steps + 1
        assert traj.at(t_end) is traj.final

    @pytest.mark.parametrize("t_end", [-0.1, float("nan"), float("inf")])
    def test_bad_horizon_rejected(self, t_end):
        # a NaN horizon used to return the initial state as the solution
        model = factories.random_ct_model(RNG, 2, 2)
        om = factories.random_metapop(RNG, model.space, 2)
        with pytest.raises(ValueError, match="horizon"):
            integrate(om, model, t_end, 0.1)

    @pytest.mark.parametrize("dt", [0.0, -0.1, float("nan"), float("inf")])
    def test_bad_step_rejected(self, dt):
        # an infinite step would take no step and call the initial state the
        # solution at t_end
        model = factories.random_ct_model(RNG, 2, 2)
        om = factories.random_metapop(RNG, model.space, 2)
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            integrate(om, model, 1.0, dt)

    def test_calls_ct_rhs_four_times_per_step(self, monkeypatch):
        # profilers and the benchmark tracer count RHS evaluations by
        # replacing the module attribute, so integrate must call it there
        import recolat.ctime

        calls = []

        def counted(state, model):
            calls.append(1)
            return ct_rhs(state, model)

        monkeypatch.setattr(recolat.ctime, "ct_rhs", counted)
        model = factories.random_ct_model(RNG, 3, 2)
        om = factories.random_metapop(RNG, model.space, 2)
        traj = integrate(om, model, 0.55, 0.1)
        assert len(traj.times) == 7
        assert len(calls) == 4 * 6

    def test_one_checked_path_per_integrate(self, monkeypatch):
        # the whole path is checked once, and the states are read-only views
        # of it, not one checked copy per step
        import recolat.measures

        rng = np.random.default_rng(2101)
        model = factories.random_ct_model(rng, 3, 2)
        om = factories.random_metapop(rng, model.space, 2)
        checked = recolat.measures._checked_weights
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return checked(*args, **kwargs)

        monkeypatch.setattr(recolat.measures, "_checked_weights", counted)
        traj = integrate(om, model, 0.55, 0.1)
        assert len(calls) == 1
        assert len(traj.states) == 7 and traj.states[0] is om
        assert all(not mu.stack().flags.writeable for mu in traj.states)
        assert traj.states[1].stack().base is traj.final.stack().base

    def test_conservation_drift_small(self):
        model = factories.random_ct_model(RNG, 3, 2)
        om = factories.random_metapop(RNG, model.space, 2)
        traj = integrate(om, model, 2.0, 1e-3)
        assert traj.max_drift < 1e-8

    def test_strong_recombination_conserves_mass(self):
        # regression: here sum of rho * (blocks - 1) * t is 50, and the drift
        # used to pull the mass away from 1 until a state was rejected
        rng = np.random.default_rng(1)
        space = TypeSpace((2,) * 4)
        rates = {
            p: float(rng.uniform(0.0, 2.0))
            for p in enumerate_partitions(range(4))
            if len(p) > 1
        }
        model = CtModel(space, rates, _conservative(rng.random((3, 3))))
        om = factories.random_metapop(rng, space, 3)
        traj = integrate(om, model, 2.0, 1e-2)
        assert traj.max_drift < 1e-12
        dual = ct_solve_dual(om, model, 2.0)
        assert np.abs(traj.final.stack() - dual.stack()).max() < 1e-8

    def test_large_step_rejected(self):
        space = TypeSpace((2, 2))
        model = CtModel(space, {finest((0, 1)): 80.0}, np.zeros((2, 2)))
        om = Metapopulation(
            [
                Distribution(space, (0, 1), [0.97, 0.01, 0.01, 0.01]),
                Distribution(space, (0, 1), [0.01, 0.01, 0.01, 0.97]),
            ]
        )
        with pytest.raises(ValueError, match="step size too large"):
            integrate(om, model, 2.0, 0.5)

    def test_matches_dual_solution(self):
        for _ in range(3):
            n = int(RNG.integers(2, 4))
            model = factories.random_ct_model(RNG, n, 2)
            om = factories.random_metapop(RNG, model.space, 2)
            traj = integrate(om, model, 1.0, 1e-3)
            dual = ct_solve_dual(om, model, 1.0)
            assert np.abs(traj.final.stack() - dual.stack()).max() < 1e-8

    def test_convergence_order_near_four(self):
        model = factories.random_ct_model(RNG, 2, 2)
        om = factories.random_metapop(RNG, model.space, 2)
        ref = ct_solve_dual(om, model, 1.0).stack()
        e1 = np.abs(integrate(om, model, 1.0, 0.02).final.stack() - ref).max()
        e2 = np.abs(integrate(om, model, 1.0, 0.01).final.stack() - ref).max()
        order = np.log2(e1 / e2)
        assert 3.7 < order < 4.3


def _brute_jump_rates(state, model):
    """Independent enumeration of the outgoing events of one state."""
    out = {}
    items = list(state.items)
    for i, (block, label) in enumerate(items):
        if len(block) > 1:
            for part, rho in model.rates.items():
                sub = part.restrict(block)
                if len(sub) == 1:
                    continue
                pieces = [(b, label) for b in sub.blocks]
                tgt = LabelledPartition(items[:i] + pieces + items[i + 1 :])
                out[tgt] = out.get(tgt, 0.0) + rho
        for beta in range(model.num_locations):
            rate = model.generator[label, beta]
            if beta != label and rate > 0:
                tgt = LabelledPartition(items[:i] + [(block, beta)] + items[i + 1 :])
                out[tgt] = out.get(tgt, 0.0) + rate
    return out


class TestGenerator:
    def test_single_site_generator_is_migration(self):
        gen = [[-1.0, 0.6, 0.4], [0.2, -0.5, 0.3], [0.1, 0.2, -0.3]]
        model = CtModel(TypeSpace((3,)), {}, gen)
        lg = build_generator(model)
        assert np.abs(lg.matrix - np.asarray(gen)).max() < 1e-15

    def test_rows_sum_to_zero_offdiag_nonneg(self):
        for _ in range(5):
            model = factories.random_ct_model(RNG, int(RNG.integers(2, 5)), int(RNG.integers(1, 4)))
            lg = build_generator(model)
            q = lg.matrix
            assert np.abs(q.sum(axis=1)).max() < 1e-12
            off = q - np.diag(np.diag(q))
            assert off.min() >= 0.0

    def test_rates_match_independent_enumeration(self):
        model = factories.random_ct_model(RNG, 3, 2)
        lg = build_generator(model)
        for s in lg.states:
            brute = _brute_jump_rates(s, model)
            row = lg.matrix[lg.pos[s]]
            for tgt, rate in brute.items():
                assert abs(row[lg.pos[tgt]] - rate) < 1e-12
            listed = {t for t, r in zip(lg.states, row) if r > 0 and t != s}
            assert listed == set(brute)

    def test_splits_keep_the_parent_label(self):
        space = TypeSpace((2, 2))
        model = CtModel(
            space, {finest((0, 1)): 1.0}, _conservative(RNG.random((2, 2)))
        )
        lg = build_generator(model)
        start = whole_labelled((0, 1), 1)
        row = lg.matrix[lg.pos[start]]
        split_target = LabelledPartition([((0,), 1), ((1,), 1)])
        assert row[lg.pos[split_target]] == 1.0
        mixed = LabelledPartition([((0,), 0), ((1,), 1)])
        assert row[lg.pos[mixed]] == 0.0

    def test_bad_starts_rejected(self):
        model = factories.random_ct_model(RNG, 3, 2)
        with pytest.raises(ValueError, match="cover"):
            build_generator(model, [whole_labelled((0, 1), 0)])
        with pytest.raises(ValueError, match="labels"):
            build_generator(model, [whole_labelled((0, 1, 2), 5)])


def _brute_generator(model, starts):
    """States reachable from `starts` through `_brute_jump_rates`, sorted by
    restricted growth string and then labels, and their generator: the jump
    rates off the diagonal, minus the row sums on it."""
    rows, frontier = {}, list(starts)
    while frontier:
        state = frontier.pop()
        if state not in rows:
            rows[state] = _brute_jump_rates(state, model)
            frontier.extend(rows[state])

    def order(state):
        owner = {s: i for i, (b, _) in enumerate(state.items) for s in b}
        return tuple(owner[s] for s in sorted(owner)), tuple(l for _, l in state.items)

    states = sorted(rows, key=order)
    pos = {s: i for i, s in enumerate(states)}
    q = np.zeros((len(states), len(states)))
    for state, row in rows.items():
        for target, rate in row.items():
            q[pos[state], pos[target]] = rate
    np.fill_diagonal(q, -q.sum(axis=1))
    return states, q


class TestAgainstBruteGenerator:
    """Q against a closure of the brute-force jump rates: the same states in
    the same order, and the same entries."""

    ORACLE_RNG = np.random.default_rng(98)
    # labels only move down, 2 -> 1 -> 0
    DOWNWARD = np.array([[0.0, 0.0, 0.0], [0.5, -0.5, 0.0], [0.0, 0.2, -0.2]])

    @staticmethod
    def check(model, starts=None):
        lg = build_generator(model, starts)
        states, q = _brute_generator(model, lg.starts)
        assert lg.states == states
        np.testing.assert_allclose(lg.matrix, q, rtol=0, atol=1e-15)
        return lg

    @pytest.mark.parametrize("n,loc", [(n, loc) for n in (1, 2, 3, 4) for loc in (1, 2, 3)])
    def test_default_last_location_and_two_block_starts(self, n, loc):
        model = factories.random_ct_model(self.ORACLE_RNG, n, loc)
        sites = model.sites
        self.check(model)
        self.check(model, [whole_labelled(sites, loc - 1)])
        if n > 1:
            self.check(model, [LabelledPartition([(sites[:1], loc - 1), (sites[1:], 0)])])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_generator_with_zeros_reaches_a_strict_subset(self, n):
        base = factories.random_ct_model(self.ORACLE_RNG, n, 3)
        model = CtModel(base.space, base.rates, self.DOWNWARD)
        sites = model.sites
        for label in (0, 1):
            lg = self.check(model, [whole_labelled(sites, label)])
            assert all(max(s.labels) <= label for s in lg.states)
            assert len({s.base for s in lg.states}) > 1
        self.check(model, [whole_labelled(sites, 2)])
        self.check(model)
        lg = self.check(model, [LabelledPartition([(sites[:1], 1), (sites[1:], 0)])])
        assert all(2 not in s.labels for s in lg.states)


def _dense_start_rows(om, model, t, lg):
    """The solution from the dense exp(tQ): its single-block start rows
    against the recombinator vector of `om`."""
    from scipy.linalg import expm

    rows = [lg.pos[whole_labelled(model.sites, a)] for a in range(model.num_locations)]
    return expm(t * lg.matrix)[rows] @ build_recombinator_vector(om, lg.states)


def _count_dense_expm(monkeypatch):
    import scipy.linalg

    calls = []
    dense = scipy.linalg.expm

    def counted(a):
        calls.append(len(a))
        return dense(a)

    monkeypatch.setattr(scipy.linalg, "expm", counted)
    return calls


class TestSolveBranches:
    """`ct_solve_dual` propagates only the start rows from 256 states on,
    while ||tQ||_1 is at most the state count, and forms the dense
    exponential otherwise; both give the dense start rows."""

    @pytest.mark.parametrize("t, dense", [(0.0, False), (0.5, False), (50.0, True)])
    def test_390_states_both_branches(self, t, dense, monkeypatch):
        model = factories.random_ct_model(np.random.default_rng(9), 5, 2)
        om = factories.random_metapop(np.random.default_rng(90), model.space, 2)
        lg = build_generator(model)
        assert len(lg.states) == 390 >= DENSE_STATES
        assert (t * np.abs(lg.matrix).sum(axis=0).max() > 390) == dense
        want = _dense_start_rows(om, model, t, lg)
        calls = _count_dense_expm(monkeypatch)
        got = ct_solve_dual(om, model, t, generator=lg).stack()
        assert calls == ([390] if dense else [])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n, loc, t", [(2, 1, 0.9), (3, 2, 0.4), (3, 3, 0.7), (4, 2, 3.0)])
    def test_small_generators_stay_dense(self, n, loc, t, monkeypatch):
        # under 100 states, at horizons the product branch would take from 256 on
        rng = np.random.default_rng(2102 + n * loc)
        model = factories.random_ct_model(rng, n, loc)
        om = factories.random_metapop(rng, model.space, loc)
        lg = build_generator(model)
        want = _dense_start_rows(om, model, t, lg)
        calls = _count_dense_expm(monkeypatch)
        got = ct_solve_dual(om, model, t, generator=lg).stack()
        assert len(lg.states) < DENSE_STATES and calls == [len(lg.states)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_wide_exact_shape_forms_no_dense_exponential(self, monkeypatch):
        # five sites, two locations, a rate on every proper partition: 454
        # states, where the start rows cost a fraction of the dense expm
        import scipy.linalg

        rng = np.random.default_rng(2103)
        parts = [p for p in enumerate_partitions(range(5)) if len(p) > 1]
        model = CtModel(
            TypeSpace((2,) * 5),
            {p: float(rng.uniform(0.0, 0.2)) for p in parts},
            _conservative(rng.random((2, 2))),
        )
        om = factories.random_metapop(rng, model.space, 2)
        lg = build_generator(model)
        assert len(lg.states) == 454
        want = _dense_start_rows(om, model, 0.5, lg)

        def refuse(*args, **kwargs):
            raise AssertionError("the dense exponential was formed")

        monkeypatch.setattr(scipy.linalg, "expm", refuse)
        got = ct_solve_dual(om, model, 0.5).stack()
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestDualSolver:
    def test_time_zero_identity(self):
        model = factories.random_ct_model(RNG, 3, 2)
        om = factories.random_metapop(RNG, model.space, 2)
        out = ct_solve_dual(om, model, 0.0)
        assert np.abs(out.stack() - om.stack()).max() < 1e-12

    def test_conservation(self):
        model = factories.random_ct_model(RNG, 3, 3)
        om = factories.random_metapop(RNG, model.space, 3)
        out = ct_solve_dual(om, model, 1.7)
        assert np.abs(out.stack().sum(axis=1) - 1.0).max() < 1e-10

    def test_semigroup_property(self):
        model = factories.random_ct_model(RNG, 3, 2)
        om = factories.random_metapop(RNG, model.space, 2)
        direct = ct_solve_dual(om, model, 1.5)
        hop = ct_solve_dual(ct_solve_dual(om, model, 0.9), model, 0.6)
        assert np.abs(direct.stack() - hop.stack()).max() < 1e-10

    def test_pure_migration_is_matrix_exponential(self):
        from scipy.linalg import expm

        gen = _conservative(RNG.random((3, 3)))
        model = CtModel(TypeSpace((2, 2)), {}, gen)
        om = factories.random_metapop(RNG, model.space, 3)
        out = ct_solve_dual(om, model, 1.2)
        expected = expm(1.2 * gen) @ om.stack()
        assert np.abs(out.stack() - expected).max() < 1e-12

    def test_generator_reuse(self):
        model = factories.random_ct_model(RNG, 3, 2)
        lg = build_generator(model)
        om = factories.random_metapop(RNG, model.space, 2)
        a = ct_solve_dual(om, model, 0.8, generator=lg)
        b = ct_solve_dual(om, model, 0.8)
        assert np.abs(a.stack() - b.stack()).max() == 0.0


class TestTwoSite:
    def test_requires_two_sites(self):
        model = factories.random_ct_model(RNG, 3, 2)
        om = factories.random_metapop(RNG, model.space, 2)
        with pytest.raises(ValueError, match="two sites"):
            ct_two_site(om, model, 1.0)

    @pytest.mark.parametrize("locations", [1, 2, 3])
    def test_chain_is_the_general_generator(self, locations, monkeypatch):
        # the hand-built generator is an independent route, so it is
        # compared with the closure's Q entry by entry, not only through
        # its outputs
        import recolat.ctime

        seen = []

        def capture(law, omega0, model, system):
            seen.append(system)
            return start_rows(law, omega0, model, system)

        monkeypatch.setattr(recolat.ctime, "start_rows", capture)
        rng = np.random.default_rng(3400 + locations)
        model = factories.random_ct_model(rng, 2, locations)
        ct_two_site(factories.random_metapop(rng, model.space, locations), model, 0.7)
        general = build_generator(model)
        assert seen[0].states == general.states
        np.testing.assert_allclose(seen[0].matrix, general.matrix, rtol=0, atol=1e-15)

    def test_no_split_rate_is_pure_migration(self):
        from scipy.linalg import expm

        space = TypeSpace((2, 2))
        gen = _conservative(RNG.random((2, 2)))
        model = CtModel(space, {coarsest((0, 1)): 3.0}, gen)
        om = factories.random_metapop(RNG, space, 2)
        out = ct_two_site(om, model, 1.4)
        expected = expm(1.4 * gen) @ om.stack()
        assert np.abs(out.stack() - expected).max() < 1e-12

    def test_classical_decay_without_migration(self):
        space = TypeSpace((2, 2))
        rho = 0.8
        model = CtModel(space, {finest((0, 1)): rho}, np.zeros((2, 2)))
        om = factories.random_metapop(RNG, space, 2)
        t = 1.3
        nd = om.stack().reshape(2, 2, 2)
        prod = np.einsum("za,zb->zab", nd.sum(axis=2), nd.sum(axis=1)).reshape(2, 4)
        expected = np.exp(-rho * t) * om.stack() + (1 - np.exp(-rho * t)) * prod
        out = ct_two_site(om, model, t)
        assert np.abs(out.stack() - expected).max() < 1e-10

    def test_three_way_agreement(self):
        for _ in range(3):
            model = factories.random_ct_model(RNG, 2, 2)
            om = factories.random_metapop(RNG, model.space, 2)
            traj = integrate(om, model, 2.0, 1e-3)
            for t in (0.5, 1.0, 2.0):
                a = traj.at(t).stack()
                b = ct_solve_dual(om, model, t).stack()
                c = ct_two_site(om, model, t).stack()
                assert np.abs(a - b).max() < 1e-8
                assert np.abs(b - c).max() < 1e-8

    def test_time_zero(self):
        model = factories.random_ct_model(RNG, 2, 2)
        om = factories.random_metapop(RNG, model.space, 2)
        out = ct_two_site(om, model, 0.0)
        assert np.abs(out.stack() - om.stack()).max() < 1e-14

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_dual_exponential(self, seed):
        # both are one matrix exponential, with no quadrature error on top
        rng = np.random.default_rng(4100 + seed)
        locations = 1 + seed % 4
        space = TypeSpace((2 + seed % 2, 2 + seed // 10))
        rho = (0.3, 1.7, 5.0, 12.0)[seed // 4 % 4]
        model = CtModel(space, {finest((0, 1)): rho}, _conservative(rng.random((locations,) * 2)))
        om = factories.random_metapop(rng, space, locations)
        gen = build_generator(model)
        for t in (0.6, 5.0, 11.0):
            got = ct_two_site(om, model, t).stack()
            want = ct_solve_dual(om, model, t, generator=gen).stack()
            assert np.abs(got - want).max() < 1e-14, t


class TestJumpSampler:
    def test_reproducible(self):
        model = factories.random_ct_model(RNG, 3, 2)
        start = whole_labelled(model.sites, 0)
        a = list(ct_simulate(start, model, 2.0, 5, seed=4))
        b = list(ct_simulate(start, model, 2.0, 5, seed=4))
        assert a == b
        c = list(ct_simulate(start, model, 2.0, 5, seed=5))
        assert a != c

    def test_monotone_refinement(self):
        model = factories.random_ct_model(RNG, 4, 2)
        start = whole_labelled(model.sites, 1)
        for chain in ct_simulate(start, model, 3.0, 20, seed=9):
            assert chain.times[0] == 0.0
            assert chain.states[0] == start
            assert all(chain.times[i] < chain.times[i + 1] for i in range(len(chain.times) - 1))
            assert chain.times[-1] <= 3.0
            for a, b in zip(chain.states, chain.states[1:]):
                assert is_refinement(b.base, a.base)

    def test_absorbing_state_stops(self):
        space = TypeSpace((2, 2))
        model = CtModel(space, {finest((0, 1)): 2.0}, np.zeros((2, 2)))
        fully_split = LabelledPartition([((0,), 0), ((1,), 0)])
        chains = list(ct_simulate(fully_split, model, 5.0, 3, seed=1))
        for c in chains:
            assert c.states == (fully_split,)

    def test_start_label_outside_the_model_rejected(self):
        # a start labelled 5 on 2 locations used to end in an IndexError
        model = factories.random_ct_model(np.random.default_rng(1606), 2, 2)
        with pytest.raises(ValueError, match="labels outside the model"):
            list(ct_simulate(whole_labelled(model.sites, 5), model, 1.0, 3, seed=1))

    def test_state_at_lookup(self):
        model = factories.random_ct_model(RNG, 3, 2)
        start = whole_labelled(model.sites, 0)
        chain = next(iter(ct_simulate(start, model, 2.0, 1, seed=2)))
        assert chain.state_at(0.0) == start
        assert chain.state_at(chain.times[-1]) == chain.states[-1]
        with pytest.raises(ValueError, match="before the chain"):
            chain.state_at(-0.5)

    def test_first_jump_statistics(self):
        # one-block start, only the full split possible: holding time ~ Exp(rho)
        space = TypeSpace((2, 2))
        rho = 1.7
        model = CtModel(space, {finest((0, 1)): rho}, np.zeros((2, 2)))
        start = whole_labelled((0, 1), 0)
        times = []
        for chain in ct_simulate(start, model, 50.0, 4000, seed=13):
            assert len(chain.states) == 2
            times.append(chain.times[1])
        mean = np.mean(times)
        sd = 1.0 / rho / np.sqrt(len(times))
        assert abs(mean - 1.0 / rho) < 5 * sd

    def test_empirical_law_matches_exponential_of_generator(self):
        # fraction of chains in each state at a fixed time vs expm row
        from scipy.linalg import expm

        model = factories.random_ct_model(RNG, 2, 2)
        lg = build_generator(model)
        start = whole_labelled((0, 1), 0)
        t_probe = 0.7
        reps = 4000
        counts = {}
        for chain in ct_simulate(start, model, t_probe, reps, seed=21):
            s = chain.state_at(t_probe)
            counts[s] = counts.get(s, 0) + 1
        probs = expm(t_probe * lg.matrix)[lg.pos[start]]
        for s, p in zip(lg.states, probs):
            emp = counts.get(s, 0) / reps
            sd = np.sqrt(max(p * (1 - p), 1e-12) / reps)
            assert abs(emp - p) < 5 * sd + 1e-9

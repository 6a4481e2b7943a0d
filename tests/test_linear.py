import itertools

import numpy as np
import pytest

from recolat.ctime import CtModel, build_generator
from recolat.forward import RecombinationModel, iterate, step
from recolat.linear import (
    base_transition_row,
    build_base_matrix,
    build_linear_system,
    build_recombinator_vector,
    default_starts,
    matrix_power,
    solve_linear,
)
from recolat.measures import TypeSpace
from recolat.partitions import (
    LabelledPartition,
    Partition,
    coarsest,
    enumerate_partitions,
    is_refinement,
    whole_labelled,
)

import factories
import oracles

RNG = np.random.default_rng(99)
# the base-matrix and generator cases of the structure test draw from their
# own generator, so the models of the other tests in this module stay as
# they are
STRUCTURE_RNG = np.random.default_rng(98)
STRUCTURE_SHAPES = [(2, 2), (3, 2), (3, 3), (4, 2)]


def brute_marginal_recomb(model, sites):
    sites = frozenset(sites)
    out = {}
    for part, w in model.recomb.items():
        blocks = frozenset(
            frozenset(b) & sites for b in part.blocks if frozenset(b) & sites
        )
        out[blocks] = out.get(blocks, 0.0) + w
    return out


def brute_base_entry(model, delta, eps):
    """Independent product formula for the label-free transition matrix."""
    if not is_refinement(eps, delta):
        return 0.0
    val = 1.0
    for d in delta.blocks:
        marg = brute_marginal_recomb(model, d)
        induced = frozenset(
            frozenset(b) & frozenset(d)
            for b in eps.blocks
            if frozenset(b) & frozenset(d)
        )
        val *= marg.get(induced, 0.0)
    return val


class TestStructure:
    @pytest.mark.parametrize(
        "builder,n,loc",
        [pytest.param("T", n, loc, id=f"{n}-{loc}") for n, loc in STRUCTURE_SHAPES]
        + [
            pytest.param(builder, n, loc, id=f"{builder}-{n}-{loc}")
            for builder in ("base", "Q")
            for n, loc in STRUCTURE_SHAPES
        ],
    )
    def test_rows_stochastic_and_triangular(self, builder, n, loc):
        """T and the block matrix are stochastic, Q is a generator, and every
        move of each goes to a refinement of its source's base partition."""
        if builder == "T":
            sys = build_linear_system(factories.random_model(RNG, n, loc))
            bases, matrix = [s.base for s in sys.states], sys.matrix
        elif builder == "base":
            bases, matrix = build_base_matrix(factories.random_model(STRUCTURE_RNG, n, loc))
        else:
            sys = build_generator(factories.random_ct_model(STRUCTURE_RNG, n, loc))
            bases, matrix = [s.base for s in sys.states], sys.matrix
        off = matrix - np.diag(np.diag(matrix))
        assert (off if builder == "Q" else matrix).min() >= 0.0
        np.testing.assert_allclose(
            matrix.sum(axis=1), 0.0 if builder == "Q" else 1.0, atol=1e-12
        )
        for i, j in zip(*np.nonzero(matrix)):
            assert is_refinement(bases[j], bases[i])
            if bases[j] != bases[i]:
                assert j > i  # block upper triangular in canonical order

    def test_states_sorted_and_start_present(self):
        model = factories.random_model(RNG, 3, 2)
        sys = build_linear_system(model)
        keys = [s.sort_key() for s in sys.states]
        assert keys == sorted(keys)
        for s in default_starts(model):
            assert s in sys.pos

    def test_base_states_match_labelled_bases(self):
        model = factories.random_model(RNG, 3, 2)
        sys = build_linear_system(model)
        base_states, _ = build_base_matrix(model, sys.starts[0].base)
        assert {s.base for s in sys.states} == set(base_states)

    def test_bad_starts_rejected(self):
        model = factories.random_model(RNG, 3, 2)
        with pytest.raises(ValueError, match="cover"):
            build_linear_system(model, [whole_labelled((0, 1), 0)])
        with pytest.raises(ValueError, match="labels"):
            build_linear_system(model, [whole_labelled((0, 1, 2), 5)])


class TestFactorisation:
    def test_entry_factorises_over_blocks(self):
        model = factories.random_model(RNG, 3, 2)
        sys = build_linear_system(model)
        m = model.migration
        for i, a in enumerate(sys.states):
            for j, b in enumerate(sys.states):
                if not is_refinement(b.base, a.base):
                    assert sys.matrix[i, j] == 0.0
                    continue
                base_part = brute_base_entry(model, a.base, b.base)
                label_part = 1.0
                for block, lab in a.items:
                    for _, gamma in b.restrict(block).items:
                        label_part *= m[lab, gamma]
                np.testing.assert_allclose(
                    sys.matrix[i, j], base_part * label_part, atol=1e-14
                )

    def test_label_sum_collapses_to_base_matrix(self):
        model = factories.random_model(RNG, 3, 2)
        sys = build_linear_system(model)
        base_states, base_matrix = build_base_matrix(model, sys.starts[0].base)
        base_pos = {p: i for i, p in enumerate(base_states)}
        for i, a in enumerate(sys.states):
            sums = {}
            for j, b in enumerate(sys.states):
                sums[b.base] = sums.get(b.base, 0.0) + sys.matrix[i, j]
            ib = base_pos[a.base]
            for eps, val in sums.items():
                np.testing.assert_allclose(
                    val, base_matrix[ib, base_pos[eps]], atol=1e-12
                )

    def test_base_matrix_against_brute_product(self):
        model = factories.random_model(RNG, 4, 2)
        states, mat = build_base_matrix(model)
        np.testing.assert_allclose(mat.sum(axis=1), 1.0, atol=1e-12)
        for i, a in enumerate(states):
            for j, b in enumerate(states):
                np.testing.assert_allclose(
                    mat[i, j], brute_base_entry(model, a, b), atol=1e-14
                )


class TestKnownSystems:
    def test_single_site_matrix_is_migration(self):
        model = factories.random_model(RNG, 1, 3)
        sys = build_linear_system(model)
        assert len(sys.states) == 3
        np.testing.assert_allclose(sys.matrix, model.migration, atol=1e-15)

    def test_identity_migration_freezes_labels(self):
        ts = TypeSpace((2, 2))
        model = RecombinationModel(
            ts,
            {Partition([[0, 1]]): 0.3, Partition([[0], [1]]): 0.7},
            np.eye(2),
        )
        sys = build_linear_system(model, [whole_labelled((0, 1), 0)])
        assert all(set(s.labels) == {0} for s in sys.states)
        assert len(sys.states) == 2

    def test_pointmass_whole_keeps_single_block(self):
        ts = TypeSpace((2, 2, 2))
        model = RecombinationModel(
            ts, {coarsest(range(3)): 1.0}, [[0.5, 0.5], [0.25, 0.75]]
        )
        sys = build_linear_system(model)
        assert all(len(s) == 1 for s in sys.states)
        np.testing.assert_allclose(sys.matrix, model.migration, atol=1e-15)

    def test_explicit_value(self):
        model = factories.nonmonotone_sojourn_model()
        sys = build_linear_system(model)
        paired = sys.pos[LabelledPartition([((0, 1), 0), ((2, 3), 1)])]
        for alpha in range(2):
            want = 0.1 * model.migration[alpha, 0] * model.migration[alpha, 1]
            whole = sys.pos[whole_labelled(model.sites, alpha)]
            assert sys.matrix[whole, paired] == pytest.approx(want)

    def test_nonmonotone_sojourn_model_sojourn_entries_exact(self):
        model = factories.nonmonotone_sojourn_model()
        states, mat = build_base_matrix(model)
        pos = {p: i for i, p in enumerate(states)}
        whole = pos[coarsest(range(4))]
        paired = pos[Partition([[0, 1], [2, 3]])]
        assert mat[whole, whole] == 0.4
        assert mat[paired, paired] == 0.25


class TestRecombinatorVector:
    def test_start_components_recover_state(self):
        model = factories.random_model(RNG, 3, 2)
        mu = factories.random_metapop(RNG, model.space, 2)
        sys = build_linear_system(model)
        vec = build_recombinator_vector(mu, sys.states)
        for alpha in range(2):
            got = vec[sys.pos[whole_labelled(model.sites, alpha)]]
            np.testing.assert_array_equal(got, mu[alpha].weights)

    def test_one_step_recursion(self):
        # recombinator vector of the stepped state = matrix @ recombinator vector
        for n, loc in [(2, 2), (3, 2), (3, 3)]:
            model = factories.random_model(RNG, n, loc)
            mu = factories.random_metapop(RNG, model.space, loc)
            sys = build_linear_system(model)
            lhs = build_recombinator_vector(step(mu, model), sys.states)
            rhs = sys.matrix @ build_recombinator_vector(mu, sys.states)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestSolveLinear:
    @pytest.mark.parametrize("t", [0, 1, 3, 8, 12])
    def test_matches_forward_iteration(self, t):
        model = factories.random_model(RNG, 3, 2)
        mu = factories.random_metapop(RNG, model.space, 2)
        direct = iterate(mu, model, t)[-1]
        lin = solve_linear(mu, model, t)
        for a in range(2):
            np.testing.assert_allclose(
                lin[a].weights, direct[a].weights, atol=1e-10
            )

    def test_product_initial_state(self):
        model = factories.random_model(RNG, 3, 2)
        mu = factories.random_product_metapop(RNG, model.space, 2)
        lin = solve_linear(mu, model, 5)
        direct = iterate(mu, model, 5)[-1]
        for a in range(2):
            np.testing.assert_allclose(lin[a].weights, direct[a].weights, atol=1e-10)

    def test_reusing_prebuilt_system(self):
        model = factories.random_model(RNG, 2, 2)
        sys = build_linear_system(model)
        mu = factories.random_metapop(RNG, model.space, 2)
        a = solve_linear(mu, model, 4, system=sys)
        b = solve_linear(mu, model, 4)
        for alpha in range(2):
            np.testing.assert_array_equal(a[alpha].weights, b[alpha].weights)

    def test_calls_power_and_vector_once(self, monkeypatch):
        # profilers and the benchmark tracer time these stages by replacing
        # the module attributes, so solve_linear must call them there
        import recolat.linear

        calls = []
        for name in ("matrix_power", "build_recombinator_vector"):
            original = getattr(recolat.linear, name)

            def counted(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(recolat.linear, name, counted)
        rng = np.random.default_rng(5)
        model = factories.random_model(rng, 3, 2)
        solve_linear(factories.random_metapop(rng, model.space, 2), model, 6)
        assert sorted(calls) == ["build_recombinator_vector", "matrix_power"]


class TestMatrixPower:
    def test_powering_paths_agree(self):
        m = RNG.random((6, 6))
        m /= m.sum(axis=1, keepdims=True)
        repeated = np.eye(6)
        for t in range(65):
            if t in (0, 1, 5, 8, 9, 17, 64):
                np.testing.assert_allclose(matrix_power(m, t), repeated, atol=1e-13)
            repeated = repeated @ m

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            matrix_power(np.eye(2), -1)


class TestReachability:
    def test_reachable_set_closed_under_transitions(self):
        model = factories.random_model(RNG, 4, 2)
        states, _ = build_base_matrix(model, coarsest(range(4)))
        sset = set(states)
        for delta in states:
            assert set(base_transition_row(model, delta)) <= sset

    def test_narrow_support_restricts_reachability(self):
        ts = TypeSpace((2, 2, 2))
        model = RecombinationModel(
            ts,
            {Partition([[0, 1], [2]]): 0.5, Partition([[0], [1], [2]]): 0.5},
            [[0.6, 0.4], [0.3, 0.7]],
        )
        states, _ = build_base_matrix(model, coarsest(range(3)))
        got = {p for p in states}
        want = {
            coarsest(range(3)),
            Partition([[0, 1], [2]]),
            Partition([[0], [1], [2]]),
        }
        assert got == want


class TestTrustedStates:
    def test_inner_loop_states_match_validated_ones(self):
        # with every partition in the support, fragments of a split block can
        # precede blocks on their left, so glued targets must be re-sorted
        n, loc = 4, 2
        space = TypeSpace((2,) * n)
        parts = enumerate_partitions(range(n))
        weights = RNG.dirichlet(np.ones(len(parts)))
        mig = RNG.random((loc, loc)) + 0.1
        model = RecombinationModel(
            space, dict(zip(parts, weights)), mig / mig.sum(axis=1, keepdims=True)
        )
        gen = RNG.random((loc, loc))
        np.fill_diagonal(gen, 0.0)
        np.fill_diagonal(gen, -gen.sum(axis=1))
        ct = CtModel(space, {p: 1.0 + RNG.random() for p in parts if len(p) > 1}, gen)
        systems = [build_linear_system(model), build_generator(ct)]
        states = [s for sys in systems for s in sys.states]
        assert any(a[-1] > b[0] for s in states for (a, _), (b, _) in zip(s, s.items[1:]))
        for s in states:
            valid = LabelledPartition(s.items)
            assert s == valid and hash(s) == hash(valid)
        for sys in systems:
            assert len({LabelledPartition(s.items) for s in sys.states}) == len(sys.states)


class TestAgainstBruteRows:
    """T against a closure of the brute-force product-formula rows: the same
    states in the same order, and the same entries."""

    ORACLE_RNG = np.random.default_rng(97)
    SPARSE_MIGRATION = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.2, 0.8]])

    @staticmethod
    def check(model, starts=None):
        sys = build_linear_system(model, starts)
        states, matrix = oracles.brute_labelled_system(model, [s.items for s in sys.starts])
        assert [s.items for s in sys.states] == states
        np.testing.assert_allclose(sys.matrix, matrix, rtol=0, atol=1e-15)
        return sys

    @pytest.mark.parametrize("n,loc", [(n, loc) for n in (1, 2, 3, 4) for loc in (1, 2, 3)])
    def test_default_last_location_and_two_block_starts(self, n, loc):
        model = factories.random_model(self.ORACLE_RNG, n, loc)
        sites = model.sites
        self.check(model)
        self.check(model, [whole_labelled(sites, loc - 1)])
        if n > 1:
            self.check(model, [LabelledPartition([(sites[:1], loc - 1), (sites[1:], 0)])])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_migration_with_zeros_reaches_a_strict_subset(self, n):
        # labels only move down, 2 -> 1 -> 0, so a start at 0 or 1 never
        # reaches label 2
        base = factories.random_model(self.ORACLE_RNG, n, 3)
        model = RecombinationModel(base.space, base.recomb, self.SPARSE_MIGRATION)
        sites = model.sites
        for label in (0, 1):
            sys = self.check(model, [whole_labelled(sites, label)])
            assert all(max(s.labels) <= label for s in sys.states)
            assert len({s.base for s in sys.states}) > 1
        self.check(model, [whole_labelled(sites, 2)])
        self.check(model)
        two = LabelledPartition([(sites[:1], 1), (sites[1:], 0)])
        sys = self.check(model, [two])
        assert all(2 not in s.labels for s in sys.states)

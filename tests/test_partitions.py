import itertools

import pytest
from hypothesis import given, strategies as st

from recolat.partitions import (
    LabelledPartition,
    Partition,
    coarsest,
    enumerate_partitions,
    finest,
    is_refinement,
    glued_labelled,
    meet,
    whole_labelled,
)

import oracles


def as_fs(p: Partition):
    return frozenset(frozenset(b) for b in p.blocks)


def random_partition_strategy(max_sites=6):
    # a partition is determined by a restricted growth string
    def build(digits):
        blocks = {}
        mx = -1
        for site, d in enumerate(digits):
            d = min(d, mx + 1)
            mx = max(mx, d)
            blocks.setdefault(d, []).append(site)
        return Partition(blocks.values())

    return st.lists(
        st.integers(min_value=0, max_value=max_sites - 1),
        min_size=1,
        max_size=max_sites,
    ).map(build)


class TestCanonicalForm:
    def test_blocks_sorted_and_deduplicated(self):
        p = Partition([[3, 1], [2], [0, 4]])
        assert p.blocks == ((0, 4), (1, 3), (2,))

    def test_equal_regardless_of_input_order(self):
        assert Partition([[2], [1, 3]]) == Partition([[3, 1], [2]])
        assert hash(Partition([[2], [1, 3]])) == hash(Partition([[3, 1], [2]]))

    def test_usable_as_dict_key(self):
        d = {Partition([[0, 1]]): "a", Partition([[0], [1]]): "b"}
        assert d[Partition([[1, 0]])] == "a"

    def test_overlapping_blocks_rejected(self):
        with pytest.raises(ValueError, match="more than one block"):
            Partition([[0, 1], [1, 2]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            Partition([])
        with pytest.raises(ValueError, match="empty"):
            Partition([[0], []])

    def test_labelled_canonical_and_hashable(self):
        lp = LabelledPartition([((2,), 1), ((0, 1), 0)])
        assert lp.items == (((0, 1), 0), ((2,), 1))
        assert lp.base == Partition([[0, 1], [2]])
        assert lp.labels == (0, 1)
        assert lp == LabelledPartition([((0, 1), 0), ((2,), 1)])

    def test_labelled_bad_label(self):
        with pytest.raises(ValueError, match="label"):
            LabelledPartition([((0,), -1)])


class TestEnumeration:
    def test_counts_match_bell_numbers(self):
        # oracle: Bell numbers via the binomial recurrence
        for m in range(1, 7):
            assert oracles.bell(m) == len(oracles.brute_partitions(range(m)))
            assert len(enumerate_partitions(range(m))) == oracles.bell(m)
        assert oracles.bell(5) == 52

    def test_matches_brute_force_set(self):
        for m in range(1, 6):
            got = {as_fs(p) for p in enumerate_partitions(range(m))}
            want = set(oracles.brute_partitions(range(m)))
            assert got == want

    def test_order_first_coarsest_last_finest(self):
        ps = enumerate_partitions([0, 1, 2])
        assert len(ps) == 5
        assert ps[0] == coarsest([0, 1, 2])
        assert ps[-1] == finest([0, 1, 2])

    def test_rgs_lexicographic(self):
        for m in (3, 4, 5):
            seqs = [p.rgs() for p in enumerate_partitions(range(m))]
            assert seqs == sorted(seqs)
            assert len(set(seqs)) == len(seqs)

    def test_order_is_linear_extension_of_refinement(self):
        # needed downstream: matrices indexed this way are block triangular
        for m in (2, 3, 4):
            ps = enumerate_partitions(range(m))
            for i, p in enumerate(ps):
                for q in ps[i + 1 :]:
                    assert not (is_refinement(p, q) and p != q)

    def test_works_on_sparse_site_sets(self):
        ps = enumerate_partitions([1, 3])
        assert ps == [Partition([[1, 3]]), Partition([[1], [3]])]

    def test_empty_site_set_rejected(self):
        with pytest.raises(ValueError, match="empty site set"):
            enumerate_partitions([])


class TestLabelledEnumeration:
    def test_frozen_counts(self):
        assert len(oracles.enumerate_labelled_partitions([0, 1], 2)) == 6
        assert len(oracles.enumerate_labelled_partitions([0, 1, 2], 3)) == 57

    def test_count_formula(self):
        for m, loc in itertools.product((1, 2, 3, 4), (1, 2, 3)):
            got = len(oracles.enumerate_labelled_partitions(range(m), loc))
            assert got == oracles.labelled_partition_count(m, loc)

    def test_all_distinct_and_labels_in_range(self):
        lps = oracles.enumerate_labelled_partitions(range(3), 2)
        assert len(set(lps)) == len(lps)
        assert all(0 <= l < 2 for lp in lps for l in lp.labels)

    def test_grouped_by_base_in_partition_order(self):
        lps = oracles.enumerate_labelled_partitions(range(3), 2)
        bases = [lp.base for lp in lps]
        order = enumerate_partitions(range(3))
        ranks = [order.index(b) for b in bases]
        assert ranks == sorted(ranks)
        # first block is the slowest label digit
        first_group = [lp for lp in lps if lp.base == order[0]]
        assert [lp.labels for lp in first_group] == [(0,), (1,)]


class TestRefinement:
    def test_against_brute_force(self):
        for m in (2, 3, 4):
            ps = enumerate_partitions(range(m))
            for p, q in itertools.product(ps, ps):
                assert is_refinement(p, q) == oracles.brute_is_refinement(
                    as_fs(p), as_fs(q)
                )

    def test_partial_order_axioms(self):
        ps = enumerate_partitions(range(4))
        for p in ps:
            assert is_refinement(p, p)
        for p, q in itertools.product(ps, ps):
            if is_refinement(p, q) and is_refinement(q, p):
                assert p == q
        for p, q, r in itertools.product(ps, ps, ps):
            if is_refinement(p, q) and is_refinement(q, r):
                assert is_refinement(p, r)

    def test_extremes(self):
        for p in enumerate_partitions(range(4)):
            assert is_refinement(finest(range(4)), p)
            assert is_refinement(p, coarsest(range(4)))

    def test_base_set_mismatch(self):
        with pytest.raises(ValueError, match="base sets"):
            is_refinement(Partition([[0]]), Partition([[0], [1]]))


class TestMeet:
    def test_against_brute_force(self):
        ps = enumerate_partitions(range(4))
        for p, q in itertools.product(ps, ps):
            assert as_fs(meet(p, q)) == oracles.brute_meet(as_fs(p), as_fs(q))

    def test_lattice_laws(self):
        ps = enumerate_partitions(range(3))
        for p, q in itertools.product(ps, ps):
            assert meet(p, q) == meet(q, p)
            assert meet(p, p) == p
        for p, q, r in itertools.product(ps, ps, ps):
            assert meet(meet(p, q), r) == meet(p, meet(q, r))

    def test_greatest_lower_bound(self):
        ps = enumerate_partitions(range(4))
        for p, q in itertools.product(ps, ps):
            m = meet(p, q)
            assert is_refinement(m, p) and is_refinement(m, q)
            for r in ps:
                if is_refinement(r, p) and is_refinement(r, q):
                    assert is_refinement(r, m)

    @given(random_partition_strategy(), random_partition_strategy())
    def test_meet_refines_both_random(self, p, q):
        base = set(p.base_set) | set(q.base_set)
        p2 = Partition(list(p.blocks) + [[s] for s in base - set(p.base_set)])
        q2 = Partition(list(q.blocks) + [[s] for s in base - set(q.base_set)])
        m = meet(p2, q2)
        assert is_refinement(m, p2) and is_refinement(m, q2)


class TestInduced:
    def test_partition_restriction(self):
        p = Partition([[0, 1, 3], [2, 4]])
        assert p.restrict([0, 2, 3]) == Partition([[0, 3], [2]])

    def test_labelled_keeps_labels(self):
        lp = LabelledPartition([((0, 1, 3), 1), ((2, 4), 0)])
        assert lp.restrict([1, 2, 3]) == LabelledPartition([((1, 3), 1), ((2,), 0)])

    def test_composition(self):
        p = Partition([[0, 1, 3], [2, 4], [5]])
        assert p.restrict([0, 2, 3, 4]).restrict([2, 3]) == p.restrict([2, 3])

    def test_trusted_restriction_matches_constructor(self):
        # restrict skips the validating constructor; it must build the same object
        for n in range(1, 6):
            for p in enumerate_partitions(range(n)):
                for k in range(1, n + 1):
                    for sub in itertools.combinations(range(n), k):
                        got = p.restrict(sub)
                        want = Partition([s for s in b if s in sub] for b in p.blocks if set(b) & set(sub))
                        assert got == want and hash(got) == hash(want)
                        assert got.blocks == want.blocks and type(got.blocks[0]) is tuple

    def test_errors(self):
        p = Partition([[0, 1]])
        with pytest.raises(ValueError, match="empty site set"):
            p.restrict([])
        with pytest.raises(ValueError, match="not in base set"):
            p.restrict([0, 7])


class TestUnionOverBlocks:
    """Gluing one labelled partition per block of delta is a bijection onto
    the labelled refinements of delta, with `restrict` as its inverse."""

    def exhaustive_family(self, delta, locations):
        per_block = [
            oracles.enumerate_labelled_partitions(d, locations) for d in delta.blocks
        ]
        for combo in itertools.product(*per_block):
            yield dict(zip(delta.blocks, combo))

    @staticmethod
    def glued(family):
        items = [it for piece in family.values() for it in piece.items]
        glued = glued_labelled(items)
        assert glued == LabelledPartition(items)
        return glued

    @pytest.mark.parametrize("m,locations", [(2, 2), (3, 2), (4, 2), (4, 3)])
    def test_bijection_with_labelled_refinements(self, m, locations):
        all_lps = oracles.enumerate_labelled_partitions(range(m), locations)
        for delta in enumerate_partitions(range(m)):
            refining = [
                lp for lp in all_lps if is_refinement(lp.base, delta)
            ]
            built = set()
            count = 0
            for family in self.exhaustive_family(delta, locations):
                glued = self.glued(family)
                built.add(glued)
                count += 1
                # round trip back to the family
                for d in delta.blocks:
                    assert glued.restrict(d) == family[d]
            assert count == len(built) == len(refining)
            assert built == set(refining)

    def test_round_trip_from_refinement(self):
        delta = Partition([[0, 1], [2, 3]])
        beps = LabelledPartition([((0,), 1), ((1,), 0), ((2, 3), 1)])
        family = {d: beps.restrict(d) for d in delta.blocks}
        assert self.glued(family) == beps


@given(random_partition_strategy())
def test_rgs_round_trip(p):
    seqs = p.rgs()
    rebuilt: dict[int, list[int]] = {}
    for site, d in zip(sorted(p.base_set), seqs):
        rebuilt.setdefault(d, []).append(site)
    assert Partition(rebuilt.values()) == p


def _immutable_values():
    from recolat.ctime import CtModel
    from recolat.forward import RecombinationModel
    from recolat.linear import build_linear_system
    from recolat.measures import Distribution, Metapopulation, TypeSpace

    one = TypeSpace((2,))
    model = RecombinationModel(one, {Partition([[0]]): 1.0}, [[1.0]])
    return [
        Partition([[0], [1]]),
        LabelledPartition([((0, 1), 0)]),
        one,
        Distribution(one, (0,), [0.5, 0.5]),
        Metapopulation.from_stack(one, (0,), [[0.5, 0.5]]),
        model,
        CtModel(one, {}, [[0.0]]),
        build_linear_system(model),
    ]


@pytest.mark.parametrize("index", range(8))
def test_values_refuse_assignment(index):
    # every value class takes its refusal, and its text, from one base
    value = _immutable_values()[index]
    with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
        value.anything = None

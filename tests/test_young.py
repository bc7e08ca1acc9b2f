from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as reference
from conftest import partition_count
from partcat.coeff import POLY_T
from partcat.errors import CapExceededError
from partcat.pcat import braiding, identity
from partcat.young import (
    LABEL_SIZE_CAP,
    WINDOW_CAP,
    YoungDiagram,
    all_partitions_upto,
    block_of,
    count_infinite_blocks,
    group_algebra_product,
    infinite_blocks,
    mu_seq,
    negligible_class,
    partitions_of,
    pt_power_idempotent,
    same_block,
    young_symmetrizer,
)

Y = YoungDiagram

diagrams_st = st.lists(st.integers(min_value=1, max_value=5), max_size=4).map(
    lambda parts: Y(tuple(sorted(parts, reverse=True)))
)


class TestYoungDiagram:
    def test_canonicalization(self):
        assert Y((3, 1, 0, 0)).parts == (3, 1)
        assert Y(()).size == 0
        assert Y((2, 2)).part(1) == 2 and Y((2, 2)).part(5) == 0

    def test_invalid(self):
        with pytest.raises(ValueError):
            Y((1, 2))

    def test_partition_enumeration(self):
        for n in range(9):
            assert sum(1 for _ in partitions_of(n)) == partition_count(n)


class TestMuSeq:
    def test_symbolic_empty(self):
        got = [e.render() for e in mu_seq(Y(()), None, 3)]
        assert got == ["t", "-1", "-2", "-3"]

    def test_integer(self):
        assert mu_seq(Y((1,)), 0, 4) == [-1, 0, -2, -3, -4]

    def test_symbolic_with_parts(self):
        got = [e.render() for e in mu_seq(Y((3, 1)), None, 4)]
        assert got == ["t - 4", "2", "-1", "-3", "-4"]


class TestSameBlock:
    def test_examples(self):
        assert same_block(Y(()), Y((1,)), 0)
        assert not same_block(Y(()), Y((2,)), 0)
        assert same_block(Y((2, 1)), Y((2, 1)), 7)

    def test_symbolic(self):
        assert same_block(Y((2, 1)), Y((2, 1)), None)
        assert not same_block(Y((2, 1)), Y((3,)), None)

    @settings(max_examples=60, deadline=None)
    @given(a=diagrams_st, b=diagrams_st, d=st.integers(min_value=0, max_value=6))
    def test_symmetric(self, a, b, d):
        assert same_block(a, b, d) == same_block(b, a, d)
        assert same_block(a, a, d)

    @settings(max_examples=40, deadline=None)
    @given(a=diagrams_st, d=st.integers(min_value=0, max_value=5))
    def test_consistent_with_block_of(self, a, d):
        desc = block_of(a, d, bound=a.size + d + 2)
        for member in desc.members:
            assert same_block(a, member, d)

    def test_transitive_through_members(self):
        desc = block_of(Y(()), 0, 5)
        members = desc.members
        for x in members:
            for y in members:
                assert same_block(x, y, 0)


class TestBlockOf:
    def test_column_chain(self):
        desc = block_of(Y(()), 0, 3)
        assert desc.block_type == "infinite"
        assert [m.parts for m in desc.members] == [(), (1,), (1, 1), (1, 1, 1)]
        assert desc.index_of_query == 0

    def test_trivial_block(self):
        desc = block_of(Y((1,)), 1, 6)
        assert desc.block_type == "trivial"
        assert desc.members == (Y((1,)),)
        assert desc.index_of_query == 0

    def test_links_to_bigger(self):
        desc = block_of(Y((1,)), 5, 6)
        assert desc.block_type == "infinite"
        assert Y((5,)) in desc.members
        assert desc.index_of_query == 0

    def test_non_members_fail_same_block(self):
        desc = block_of(Y(()), 0, 4)
        for lam in all_partitions_upto(3):
            if lam not in desc.members:
                assert not same_block(Y(()), lam, 0)

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            block_of(Y((3,)), 1, 2)

    def test_members_share_the_block(self):
        desc = block_of(Y((1,)), 5, 8)
        for member in desc.members:
            other = block_of(member, 5, 8)
            assert other.members == desc.members


class TestAgainstRemovalSearch:
    """The criterion against the removal search and label scan it replaced
    (``reference_kernels.block_search``), over every label of size <= 9 at
    every d <= 9.

    Labels that share a block have shifted content multisets with equal
    sums of squares, (d - |la|)^2 + sum_k ((la_k - k)^2 - k^2) (the common
    tail cancels), so only labels passing that test are given to
    ``same_block``."""

    @staticmethod
    def squares(lam, d):
        return (d - lam.size) ** 2 + sum((p - k) ** 2 - k * k for k, p in enumerate(lam.parts, 1))

    @pytest.mark.parametrize("d", range(10))
    def test_block_of(self, d):
        labels = [(mu, self.squares(mu, d)) for mu in all_partitions_upto(15)]
        for lam in all_partitions_upto(9):
            q = self.squares(lam, d)
            linked = [mu for mu, r in labels if r == q and same_block(lam, mu, d)]
            block_type, members, index, _ = reference.block_search(lam, d, lam.size)
            assert negligible_class(lam, d) == (not (block_type == "infinite" and index == 0))
            for bound in (max(lam.size, d + 4), 15):
                desc = block_of(lam, d, bound)
                block_type, members, index, _ = reference.block_search(lam, d, bound)
                assert (desc.block_type, desc.members, desc.index_of_query) == (
                    block_type, members, index,
                ), (lam, d, bound)
                assert set(desc.members) == {mu for mu in linked if mu.size <= bound}

    @pytest.mark.parametrize("d", range(9))
    def test_infinite_blocks(self, d):
        assert infinite_blocks(d, d + 4) == reference.infinite_blocks_scan(d, d + 4)


class TestNegligible:
    def test_examples(self):
        assert negligible_class(Y(()), 0) is False
        assert negligible_class(Y((1,)), 0) is True
        assert negligible_class(Y((5,)), 5) is True
        assert negligible_class(Y((1,)), 1) is True  # trivial block


class TestCounts:
    @pytest.mark.parametrize("d", [0, 1, 2, 3, 4, 5])
    def test_matches_partition_count(self, d):
        assert count_infinite_blocks(d, d + 4) == partition_count(d)

    def test_stable_in_bound(self):
        for d in (0, 2, 3):
            base = count_infinite_blocks(d, d + 4)
            assert count_infinite_blocks(d, d + 6) == base

    def test_symbolic_blocks_are_singletons(self):
        for lam in all_partitions_upto(5):
            for other in all_partitions_upto(5):
                if lam != other:
                    assert not same_block(lam, other, None)

    def test_minimal_members(self):
        blocks = infinite_blocks(2, 6)
        minima = sorted(m[0].parts for m in blocks)
        assert minima == [(), (1,)]

    def test_bound_too_small(self):
        with pytest.raises(ValueError):
            count_infinite_blocks(3, 4)


class TestCaps:
    def test_label_size_cap(self):
        with pytest.raises(CapExceededError, match="labels up to size 21"):
            infinite_blocks(2, LABEL_SIZE_CAP + 1)

    def test_window_cap(self):
        with pytest.raises(CapExceededError, match="window"):
            block_of(Y((1,)), 10**6, 10**6 + 4)
        with pytest.raises(CapExceededError, match="window"):
            same_block(Y((1,)), Y((2,)), 10**6)
        # negligible_class is the closed criterion and builds no window:
        # (1) is the least member of its infinite block, as at d = 5
        assert negligible_class(Y((1,)), WINDOW_CAP - 7) is negligible_class(Y((1,)), 5) is False
        assert negligible_class(Y((1,)), 10**6) is False


class TestSymmetrizer:
    def test_trivial(self):
        assert young_symmetrizer(Y((1,))) == {(0,): Fraction(1)}

    def test_row_and_sign(self):
        assert young_symmetrizer(Y((2,))) == {
            (0, 1): Fraction(1, 2),
            (1, 0): Fraction(1, 2),
        }
        assert young_symmetrizer(Y((1, 1))) == {
            (0, 1): Fraction(1, 2),
            (1, 0): Fraction(-1, 2),
        }

    @pytest.mark.parametrize(
        "parts", [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1), (2, 2), (3, 1)]
    )
    def test_idempotent(self, parts):
        y = young_symmetrizer(Y(parts))
        assert group_algebra_product(y, y) == y

    def test_orthogonal_images(self):
        # two-sided products vanish between distinct labels of equal size
        from itertools import permutations

        for n in (2, 3):
            labels = list(partitions_of(n))
            for a in labels:
                for b in labels:
                    if a == b:
                        continue
                    ya, yb = young_symmetrizer(a), young_symmetrizer(b)
                    for sigma in permutations(range(n)):
                        mid = {tuple(sigma): Fraction(1)}
                        prod = group_algebra_product(
                            ya, group_algebra_product(mid, yb)
                        )
                        assert prod == {}

    def test_cap(self):
        with pytest.raises(CapExceededError):
            young_symmetrizer(Y((7,)))


class TestPtPowerIdempotent:
    def test_small(self):
        assert pt_power_idempotent(Y((1,))) == identity(1)
        swap = braiding(1, 1)
        assert pt_power_idempotent(Y((2,))) == (identity(2) + swap).scale(
            POLY_T.from_fraction(Fraction(1, 2))
        )

    @pytest.mark.parametrize("parts", [(1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2)])
    def test_idempotent(self, parts):
        p = pt_power_idempotent(Y(parts))
        assert (p @ p) == p

    def test_cap(self):
        with pytest.raises(CapExceededError):
            pt_power_idempotent(Y((6,)))

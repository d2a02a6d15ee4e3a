import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multisep import (
    DomainError,
    Partition,
    ResourceError,
    bell_number,
    iter_k_partitions,
    stirling2,
    unique_k_partitions,
)
from multisep.partitions import k_partition_rows


def enumerate_partitions_reference(n):
    """Independent recursion: insert element n-1 into every block of every
    partition of n-1 elements, or open a new block."""
    if n == 1:
        return [[[0]]]
    smaller = enumerate_partitions_reference(n - 1)
    out = []
    for part in smaller:
        for i in range(len(part)):
            out.append([b + [n - 1] if j == i else list(b) for j, b in enumerate(part)])
        out.append([list(b) for b in part] + [[n - 1]])
    return out


class TestStirling:
    def test_known_values(self):
        assert stirling2(4, 2) == 7
        assert stirling2(10, 3) == 9330

    def test_large_value_near_quoted_magnitude(self):
        exact = stirling2(20, 8)
        assert abs(exact - 1.5e13) / 1.5e13 < 0.05

    def test_boundaries(self):
        for n in range(1, 8):
            assert stirling2(n, 1) == 1
            assert stirling2(n, n) == 1

    def test_domain(self):
        with pytest.raises(DomainError):
            stirling2(3, 4)
        with pytest.raises(DomainError):
            stirling2(3, 0)

    def test_recurrence(self):
        # S(n,k) = k S(n-1,k) + S(n-1,k-1), an independent identity
        for n in range(3, 12):
            for k in range(2, n):
                assert stirling2(n, k) == k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)

    def test_bell_cross_check(self):
        for n in range(1, 11):
            assert bell_number(n) == len(enumerate_partitions_reference(n))


class TestEnumeration:
    def test_three_choose_two(self):
        parts = unique_k_partitions(3, 2)
        assert [p.blocks for p in parts] == [
            ((0,), (1, 2)), ((0, 1), (2,)), ((0, 2), (1,)),
        ]

    def test_count_matches_formula(self):
        for n in range(1, 11):
            for k in range(1, n + 1):
                assert len(unique_k_partitions(n, k)) == stirling2(n, k)

    def test_all_singletons(self):
        (part,) = unique_k_partitions(4, 4)
        assert part.blocks == ((0,), (1,), (2,), (3,))

    def test_no_duplicates(self):
        parts = unique_k_partitions(6, 3)
        assert len({p.blocks for p in parts}) == len(parts)

    def test_sorted_output_is_noop(self):
        parts = unique_k_partitions(5, 3)
        assert [p.blocks for p in parts] == sorted(p.blocks for p in parts)

    def test_cap(self):
        with pytest.raises(ResourceError) as err:
            list(iter_k_partitions(12, 4, cap=1000))
        assert str(stirling2(12, 4)) in str(err.value)

    @pytest.mark.parametrize("rows", [1, 5, 1 << 14])
    def test_rows_match_iter_order(self, rows):
        for n in range(1, 8):
            for k in range(1, n + 1):
                got = [tuple(r) for chunk in k_partition_rows(n, k, rows=rows)
                       for r in chunk]
                want = []
                for part in iter_k_partitions(n, k):
                    row = [0] * n
                    for block, labels in enumerate(part.blocks):
                        for x in labels:
                            row[x] = block
                    want.append(tuple(row))
                assert got == want
                assert all(len(chunk) <= rows
                           for chunk in k_partition_rows(n, k, rows=rows))

    def test_rows_cap_checked_first(self):
        with pytest.raises(ResourceError) as err:
            next(k_partition_rows(12, 4, cap=1000))
        assert str(stirling2(12, 4)) in str(err.value)

    @given(st.integers(min_value=1, max_value=7), st.data())
    @settings(max_examples=30, deadline=None)
    def test_canonical_form(self, n, data):
        k = data.draw(st.integers(min_value=1, max_value=n))
        for part in iter_k_partitions(n, k):
            assert part.k == k and part.n == n
            assert part.blocks[0][0] == 0
            firsts = [b[0] for b in part.blocks]
            assert firsts == sorted(firsts)
            labels = sorted(x for b in part.blocks for x in b)
            assert labels == list(range(n))


class TestPartitionType:
    def test_validation(self):
        with pytest.raises(DomainError):
            Partition([(0, 1), (1, 2)])     # overlap
        with pytest.raises(DomainError):
            Partition([(0,), (2,)])         # gap
        with pytest.raises(DomainError):
            Partition([(1,), (0, 2)])       # not anchored at the lowest label

    def test_str(self):
        assert str(Partition([(0,), (1, 2)])) == "{0|12}"

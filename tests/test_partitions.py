import itertools
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multisep import (
    DomainError,
    Lattice,
    Partition,
    ResourceError,
    bell_number,
    iter_k_partitions,
    stirling2,
    unique_k_partitions,
)
from multisep import partitions
from multisep.partitions import k_partition_rows, orbit_representatives, partition_count


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

    def test_explicit_sum(self):
        # S(n,k) = sum_i (-1)^i C(k,i) (k-i)^n / k!, an independent closed form
        for n in range(1, 40):
            for k in range(1, n + 1):
                total = sum((-1) ** i * comb(k, i) * (k - i) ** n for i in range(k + 1))
                assert stirling2(n, k) == total // factorial(k)
                assert total % factorial(k) == 0

    def test_partition_count_of_bipartitions(self):
        for n in range(2, 40):
            assert partition_count(n, 2, cap=None) == 2 ** (n - 1) - 1

    def test_recurrence(self):
        # S(n,k) = k S(n-1,k) + S(n-1,k-1), an independent identity
        for n in range(3, 12):
            for k in range(2, n):
                assert stirling2(n, k) == k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)

    def test_bell_cross_check(self):
        for n in range(1, 11):
            assert bell_number(n) == len(enumerate_partitions_reference(n))


def restricted_growth_reference(n, k):
    """Every restricted-growth string with k blocks, by brute force over all
    of range(k)^n: label 0 opens block 0, and each label joins an open
    block or opens the next one.  Sorted lexicographically."""
    out = []
    for s in itertools.product(range(k), repeat=n):
        top = -1
        for b in s:
            if b > top + 1:
                break
            top = max(top, b)
        else:
            if top == k - 1:
                out.append(s)
    return sorted(out)


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

    def test_order_matches_brute_force_reference(self):
        for n in range(1, 8):
            for k in range(1, n + 1):
                want = [tuple(tuple(i for i, b in enumerate(s) if b == block)
                              for block in range(k))
                        for s in restricted_growth_reference(n, k)]
                assert [p.blocks for p in iter_k_partitions(n, k)] == want

    def test_errors_raised_on_first_item(self):
        for args, error in (((12, 4, 1000), ResourceError), ((3, 0), DomainError),
                            ((0, 1), DomainError)):
            parts = iter_k_partitions(*args)
            with pytest.raises(error):
                next(parts)

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


def _image(blocks, perm):
    """The partition of sites perm[i] that `blocks` makes of sites i."""
    return frozenset(frozenset(int(perm[x]) for x in block) for block in blocks)


def _lattices(n):
    """Ring, chain and a custom lattice of n sites, as
    (name, automorphism rows) pairs."""
    lattices = [("chain", Lattice.chain(n))]
    if n >= 3:
        lattices.append(("ring", Lattice.ring(n)))
    # a star of two spokes plus a tail: only a few dihedral maps survive
    lattices.append(("custom", Lattice(n, [(0, i) for i in range(1, min(n, 3))]
                                       + [(i, i + 1) for i in range(2, n - 1)])))
    return [(name, lattice.automorphisms()) for name, lattice in lattices]


def _kept(n, k, group):
    """The partitions whose rows orbit_representatives keeps, chunk by
    chunk of k_partition_rows, as the E_ksep search walks them."""
    return [Partition([[i for i, b in enumerate(row) if b == block] for block in range(k)])
            for chunk in k_partition_rows(n, k)
            for row in orbit_representatives(chunk, group).tolist()]


class TestOrbitRepresentatives:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_every_orbit_exactly_once(self, n):
        for name, group in _lattices(n):
            for k in range(1, n + 1):
                orbits = {frozenset(_image(p.blocks, perm) for perm in group)
                          for p in iter_k_partitions(n, k)}
                kept = [frozenset(_image(p.blocks, perm) for perm in group)
                        for p in _kept(n, k, group)]
                assert len(kept) == len(set(kept)), (name, n, k)
                assert set(kept) == orbits, (name, n, k)

    def test_kept_rows_are_in_enumeration_order(self):
        group = Lattice.ring(7).automorphisms()
        for k in range(1, 8):
            order = {p: i for i, p in enumerate(iter_k_partitions(7, k))}
            positions = [order[p] for p in _kept(7, k, group)]
            assert positions == sorted(positions)

    @pytest.mark.parametrize("n,counts", [
        (6, {2: 7, 3: 14, 4: 11, 5: 3, 6: 1}),
        (8, {4: 137}),
        (10, {2: 43, 3: 538, 5: 2271}),
    ])
    def test_dihedral_orbit_counts(self, n, counts):
        group = Lattice.ring(n).automorphisms()
        for k, count in counts.items():
            assert len(_kept(n, k, group)) == count

    def test_trivial_group_keeps_every_row(self):
        # a path 0-1-2-3 with a pendant site 4 on site 1: no rotation or
        # reflection maps its edges onto themselves
        group = Lattice(5, [(0, 1), (1, 2), (2, 3), (1, 4)]).automorphisms()
        assert group.tolist() == [[0, 1, 2, 3, 4]]
        for k in range(1, 6):
            assert _kept(5, k, group) == list(iter_k_partitions(5, k))

    def test_no_symmetries_is_the_plain_enumeration(self):
        # the identity alone keeps every row
        for n in range(1, 8):
            for k in range(1, n + 1):
                want = [tuple(tuple(i for i, b in enumerate(s) if b == block)
                              for block in range(k))
                        for s in restricted_growth_reference(n, k)]
                assert [p.blocks for p in _kept(n, k, np.arange(n)[None])] == want

    def test_compares_columns_past_integer_keys(self):
        """At n = 20, k = 19 a base-k key of a row needs 19^20 > 2^63."""
        from multisep import Lattice
        n, k = 20, 19
        group = Lattice.ring(n).automorphisms()
        rows = np.concatenate(list(k_partition_rows(n, k)))

        def relabel(row):
            number = {}
            return tuple(number.setdefault(b, len(number)) for b in row)

        want = [row for row in rows.tolist()
                if all(tuple(row) <= relabel([row[p] for p in perm]) for perm in group)]
        assert orbit_representatives(rows, group).tolist() == want
        assert len(want) == 10  # one pair of sites, 1 to 10 apart


def _least_image_rows(rows, group):
    """Brute-force filter: the rows whose base-k key is the least over
    their images under every permutation of `group`, each image renumbered
    by the rank of its blocks' first positions."""
    n = rows.shape[1]
    k = int(rows.max()) + 1
    weights = k ** np.arange(n - 1, -1, -1, dtype=np.int64)  # k^n < 2^63 at n, k <= 10
    own = rows.astype(np.int64) @ weights
    least = own.copy()
    for perm in group:
        image = rows[:, perm]
        first = np.stack([(image == b).argmax(axis=1) for b in range(k)], axis=1)
        rank = np.argsort(np.argsort(first, axis=1), axis=1)
        least = np.minimum(least, np.take_along_axis(rank, image, axis=1) @ weights)
    return rows[own == least]


class TestStackedOrbitFilter:
    """orbit_representatives renumbers the images under several
    permutations in one stacked pass; the rows it keeps, and their order,
    are those of a least-image filter."""

    @pytest.mark.parametrize("n", range(3, 11))
    @pytest.mark.parametrize("lattice", [Lattice.ring, Lattice.chain])
    def test_equals_the_least_image_filter(self, lattice, n):
        group = lattice(n).automorphisms()
        for k in range(1, n + 1):
            rows = np.concatenate(list(k_partition_rows(n, k)))
            want = _least_image_rows(rows, group)
            assert np.array_equal(orbit_representatives(rows, group), want), (n, k)
            by_chunk = [orbit_representatives(chunk, group) for chunk in k_partition_rows(n, k)]
            assert np.array_equal(np.concatenate(by_chunk), want), (n, k)

    @pytest.mark.parametrize("stacked", [1, 7, 100])
    def test_any_pass_size(self, monkeypatch, stacked):
        monkeypatch.setattr(partitions, "_STACKED_ROWS", stacked)
        group = Lattice.ring(6).automorphisms()
        for k in range(1, 7):
            rows = np.concatenate(list(k_partition_rows(6, k)))
            assert np.array_equal(orbit_representatives(rows, group),
                                  _least_image_rows(rows, group)), k

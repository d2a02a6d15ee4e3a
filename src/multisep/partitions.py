"""Canonical k-partitions of subsystem label sets and their counts.

A k-partition of {0, ..., n-1} is kept in canonical form: blocks are
internally sorted, pairwise disjoint, cover the full label set, and are
ordered by their smallest element -- so label 0 always sits in block 0.
This keeps exactly one representative per partition and avoids the
k!-fold degeneracy of enumerating ordered block tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np

from .errors import DomainError, ResourceError

# Enumeration refuses to run past this many partitions unless overridden.
DEFAULT_ENUMERATION_CAP = 10 ** 6


@dataclass(frozen=True)
class Partition:
    """Canonical k-partition of {0, ..., n-1}."""

    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, blocks):
        blocks = tuple(tuple(sorted(int(x) for x in b)) for b in blocks)
        object.__setattr__(self, "blocks", blocks)
        if not blocks or any(not b for b in blocks):
            raise DomainError("partition blocks must be non-empty")
        labels = [x for b in blocks for x in b]
        n = len(labels)
        if sorted(labels) != list(range(n)):
            raise DomainError(f"blocks {blocks} do not partition 0..{n - 1}")
        firsts = [b[0] for b in blocks]
        if firsts != sorted(firsts):
            raise DomainError(f"blocks {blocks} are not ordered by smallest element")

    @property
    def n(self):
        return sum(len(b) for b in self.blocks)

    @property
    def k(self):
        return len(self.blocks)

    def __str__(self):
        return "{" + "|".join("".join(str(x) for x in b) for b in self.blocks) + "}"


def _check_nk(n, k):
    n, k = int(n), int(k)
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    if not 1 <= k <= n:
        raise DomainError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    return n, k


def stirling2(n, k):
    """Number of k-partitions of an n-element set, exactly.

    Evaluates the alternating-sign sum
        S(n,k) = sum_{i=1}^{k} (-1)^(k-i) i^(n-1) / ((i-1)! (k-i)!)
    with exact rational arithmetic; intermediate terms overflow 64-bit
    integers near n = 25, hence Fraction.
    """
    n, k = _check_nk(n, k)
    total = Fraction(0)
    for i in range(1, k + 1):
        total += Fraction((-1) ** (k - i) * i ** (n - 1), factorial(i - 1) * factorial(k - i))
    if total.denominator != 1:
        raise AssertionError(f"stirling2({n},{k}) did not reduce to an integer: {total}")
    return int(total)


def bell_number(n):
    """Total number of partitions of an n-element set."""
    return sum(stirling2(n, k) for k in range(1, n + 1))


def iter_k_partitions(n, k, cap=DEFAULT_ENUMERATION_CAP):
    """Yield every canonical k-partition of {0, ..., n-1}.

    Deterministic restricted-growth-string order; streaming, so criteria
    can fold over partitions without materialising the list.  Raises
    ResourceError (carrying the count) if S(n,k) exceeds the cap.
    """
    n, k = _check_nk(n, k)
    count = stirling2(n, k)
    if cap is not None and count > cap:
        raise ResourceError(
            f"enumeration of {count} {k}-partitions of {n} labels exceeds the cap {cap}"
        )

    assignment = [0] * n

    def grow(pos, used):
        if pos == n:
            if used == k:
                blocks = [[] for _ in range(k)]
                for label, b in enumerate(assignment):
                    blocks[b].append(label)
                yield Partition(blocks)
            return
        limit = min(used, k - 1)
        for b in range(limit + 1):
            new_used = max(used, b + 1)
            # remaining positions must still be able to open k blocks
            if new_used + (n - pos - 1) < k:
                continue
            assignment[pos] = b
            yield from grow(pos + 1, new_used)

    yield from grow(0, 0)


def partition_count(n, k, cap=DEFAULT_ENUMERATION_CAP):
    """S(n,k), or ResourceError (carrying the count) if it exceeds the cap."""
    count = 2 ** (n - 1) - 1 if k == 2 else stirling2(n, k)
    if cap is not None and count > cap:
        raise ResourceError(
            f"enumeration of {count} {k}-partitions of {n} labels exceeds the cap {cap}"
        )
    return count


def k_partition_rows(n, k, cap=DEFAULT_ENUMERATION_CAP, rows=1 << 14):
    """Every canonical k-partition of {0, ..., n-1} as restricted-growth rows.

    Yields integer arrays of shape (m, n), m <= rows, whose row r puts
    label i into block row[r, i]; over all chunks the rows follow the
    order of iter_k_partitions.  Prefixes grow one label at a time, depth
    first, and every batch that exceeds `rows` is split, so memory stays
    bounded for any count.  The cap is checked before anything is built.
    """
    n, k = _check_nk(n, k)
    partition_count(n, k, cap)
    labels = np.arange(k, dtype=np.int8 if k < 128 else np.int64)
    stack = [(np.zeros((1, 1), dtype=labels.dtype), np.ones(1, dtype=np.int64))]
    while stack:
        prefix, used = stack.pop()
        pos = prefix.shape[1]
        if pos == n:
            yield prefix
            continue
        opened = np.maximum(used[:, None], labels + 1)
        # a label joins an open block or opens the next one, and the
        # remaining labels must still be able to open all k blocks
        ok = (labels <= used[:, None]) & (opened + (n - pos - 1) >= k)
        r, b = np.nonzero(ok)
        prefix = np.concatenate([prefix[r], labels[b, None]], axis=1)
        used = opened[r, b]
        for start in reversed(range(0, len(prefix), rows)):
            stack.append((prefix[start:start + rows], used[start:start + rows]))


def unique_k_partitions(n, k, cap=DEFAULT_ENUMERATION_CAP):
    """All canonical k-partitions, sorted lexicographically by block contents."""
    parts = list(iter_k_partitions(n, k, cap=cap))
    parts.sort(key=lambda p: p.blocks)
    return parts


def iter_bipartitions(n, cap=DEFAULT_ENUMERATION_CAP):
    """Shorthand for the 2**(n-1) - 1 bipartitions of {0, ..., n-1}."""
    return iter_k_partitions(n, 2, cap=cap)

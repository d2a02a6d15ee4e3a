"""Canonical k-partitions of subsystem label sets and their counts.

A k-partition of {0, ..., n-1} is kept in canonical form: blocks are
internally sorted, pairwise disjoint, cover the full label set, and are
ordered by their smallest element -- so label 0 always sits in block 0.
This keeps exactly one representative per partition and avoids the
k!-fold degeneracy of enumerating ordered block tuples.  Under a group
of site permutations, orbit_representatives keeps one row of
k_partition_rows per orbit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError

# Enumeration refuses to run past this many partitions unless overridden.
DEFAULT_ENUMERATION_CAP = 10 ** 6

# Rows orbit_representatives renumbers in one pass: the images of a
# chunk of k_partition_rows under as many permutations as fit.
_STACKED_ROWS = 1 << 14


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
    """Number of k-partitions of an n-element set, exactly: the recurrence
    S(m, j) = j S(m-1, j) + S(m-1, j-1) in Python integers, one row per m."""
    n, k = _check_nk(n, k)
    row = [1] + [0] * k  # S(0, j) for j = 0..k
    for m in range(1, n + 1):
        for j in range(min(m, k), 0, -1):
            row[j] = j * row[j] + row[j - 1]
        row[0] = 0
    return row[k]


def bell_number(n):
    """Total number of partitions of an n-element set."""
    return sum(stirling2(n, k) for k in range(1, n + 1))


def iter_k_partitions(n, k, cap=DEFAULT_ENUMERATION_CAP):
    """Yield every canonical k-partition of {0, ..., n-1}.

    Deterministic restricted-growth-string order; streaming, so criteria
    can fold over partitions without materialising the list.  Raises
    ResourceError (carrying the count) if S(n,k) exceeds the cap.  A
    Partition view of k_partition_rows.
    """
    n, k = _check_nk(n, k)
    for chunk in k_partition_rows(n, k, cap):
        for row in chunk.tolist():
            blocks = [[] for _ in range(k)]
            for label, b in enumerate(row):
                blocks[b].append(label)
            yield Partition(blocks)


def partition_count(n, k, cap=DEFAULT_ENUMERATION_CAP):
    """S(n,k), or ResourceError (carrying the count) if it exceeds the cap."""
    count = stirling2(n, k)
    if cap is not None and count > cap:
        raise ResourceError(
            f"enumeration of {count} {k}-partitions of {n} labels exceeds the cap {cap}"
        )
    return count


def k_partition_rows(n, k, cap=DEFAULT_ENUMERATION_CAP, rows=1 << 14):
    """Every canonical k-partition of {0, ..., n-1} as restricted-growth rows.

    Yields integer arrays of shape (m, n), m <= rows, whose row r puts
    label i into block row[r, i]; over all chunks the rows follow
    restricted-growth-string order.  Prefixes grow one label at a time, depth
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


def _relabelled(rows):
    """rows with their blocks renumbered in order of first occurrence,
    the restricted-growth form of the same partitions."""
    m, n = rows.shape
    at = np.arange(m)
    number = np.full((m, n), -1, dtype=rows.dtype)  # [r, b]: block b's new number
    opened = np.zeros(m, dtype=rows.dtype)
    out = np.empty_like(rows)
    for i in range(n):
        block = rows[:, i]
        fresh = number[at, block] < 0
        number[at[fresh], block[fresh]] = opened[fresh]
        opened += fresh
        out[:, i] = number[at, block]
    return out


def orbit_representatives(rows, symmetries):
    """The restricted-growth rows that are lexicographically least among
    their images under the site permutations `symmetries`.

    Each image permutes the columns of a row by one permutation and
    renumbers its blocks by first occurrence.  The images under several
    permutations are stacked and renumbered in one _relabelled pass, at
    most _STACKED_ROWS rows a pass (one permutation's images a pass when
    the rows alone are more).  Rows are compared column by column, never
    as integer keys, which would overflow for large k and n.  Over a
    group the least row of an orbit is kept and no other; for any set of
    permutations the least row of an orbit is no greater than any of its
    images, so every orbit keeps at least one row.
    """
    rows = np.asarray(rows)
    m, n = rows.shape
    perms = np.asarray(symmetries, dtype=np.intp).reshape(-1, n)
    perms = perms[(perms != np.arange(n)).any(axis=1)]  # not the identity
    keep = np.ones(m, dtype=bool)
    step = max(1, _STACKED_ROWS // max(m, 1))
    for start in range(0, len(perms), step):
        group = perms[start:start + step]
        images = _relabelled(rows[:, group].swapaxes(0, 1).reshape(-1, n))
        diff = (images.reshape(len(group), m, n) - rows).reshape(-1, n)
        first = (diff != 0).argmax(axis=1)  # column 0 where the two are equal
        keep &= (diff[np.arange(len(diff)), first] >= 0).reshape(len(group), m).all(axis=0)
    return rows[keep]


def unique_k_partitions(n, k, cap=DEFAULT_ENUMERATION_CAP):
    """All canonical k-partitions, sorted lexicographically by block contents."""
    parts = list(iter_k_partitions(n, k, cap=cap))
    parts.sort(key=lambda p: p.blocks)
    return parts


def iter_bipartitions(n, cap=DEFAULT_ENUMERATION_CAP):
    """Shorthand for the 2**(n-1) - 1 bipartitions of {0, ..., n-1}."""
    return iter_k_partitions(n, 2, cap=cap)

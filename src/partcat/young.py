"""Young diagrams, block combinatorics, and symmetrizer idempotents.

The block of an indecomposable labelled by a Young diagram at an integer
parameter d is governed by the shifted content sequence
(d - |la|, la_1 - 1, la_2 - 2, ...): two labels share a block exactly when
those sequences agree as multisets.  All multiset reasoning is reduced to
a finite window; beyond it both sequences are the common tail -k.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial
from typing import Dict, Iterator, List, Optional

from .coeff import POLY_T, RingTag
from .errors import CapExceededError
from .pcat import Morphism, PartitionDiagram


@dataclass(frozen=True)
class YoungDiagram:
    """An integer partition, stored as a weakly decreasing tuple."""

    parts: tuple = ()

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts if p)
        if any(p < 0 for p in parts):
            raise ValueError("parts must be nonnegative")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing")
        object.__setattr__(self, "parts", parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def part(self, k: int) -> int:
        """The k-th part, 1-based, zero beyond the stored parts."""
        return self.parts[k - 1] if 1 <= k <= len(self.parts) else 0

    def __repr__(self):
        return f"Young{self.parts}"


def partitions_of(n: int, largest: Optional[int] = None) -> Iterator[YoungDiagram]:
    """All partitions of n, in reverse lexicographic order."""
    largest = n if largest is None else min(largest, n)
    if n == 0:
        yield YoungDiagram(())
        return
    for first in range(largest, 0, -1):
        for rest in partitions_of(n - first, first):
            yield YoungDiagram((first,) + rest.parts)


def all_partitions_upto(bound: int) -> Iterator[YoungDiagram]:
    for n in range(bound + 1):
        yield from partitions_of(n)


# ---------------------------------------------------------------------------
# shifted content sequences and blocks


def mu_seq(lam: YoungDiagram, t: Optional[int], length: int):
    """First length+1 entries of (t - |la|, la_1 - 1, la_2 - 2, ...).

    With integer t the entries are ints; with t = None (symbolic) they are
    polynomial elements in t.
    """
    if length < 1:
        raise ValueError("length must be at least 1")
    if t is None:
        head = POLY_T.parameter() - POLY_T.from_fraction(lam.size)
        return [head] + [
            POLY_T.from_fraction(lam.part(k) - k) for k in range(1, length + 1)
        ]
    return [t - lam.size] + [lam.part(k) - k for k in range(1, length + 1)]


def _window_entries(lam: YoungDiagram, d: int, floor: int) -> List[int]:
    """All entries of the shifted content sequence that are >= floor.

    Requires floor <= -len(parts) - 1 so the tail below is exactly
    {-k : k > -floor}; asserted by callers via their window choice.
    """
    entries = [d - lam.size]
    k = 1
    while True:
        e = lam.part(k) - k
        if e < floor and k > len(lam.parts):
            break
        if e >= floor:
            entries.append(e)
        k += 1
    return entries


def same_block(lam: YoungDiagram, other: YoungDiagram, t: Optional[int]) -> bool:
    """Whether the two labels share a block at parameter t.

    Symbolic t: only equal diagrams.  Integer t: the shifted content
    sequences must agree as multisets; entries below the window bound are
    the common tail, so the finite comparison decides it.
    """
    if t is None:
        return lam == other
    window = (
        max(len(lam.parts), len(other.parts))
        + lam.size
        + other.size
        + abs(t)
        + 2
    )
    return Counter(_window_entries(lam, t, -window)) == Counter(
        _window_entries(other, t, -window)
    )


@dataclass(frozen=True)
class BlockDescriptor:
    """Canonical block data for one query diagram at integer parameter d."""

    t_value: int
    key: tuple
    block_type: str  # "trivial" | "infinite"
    members: tuple  # known members with size <= the requested bound, by size
    index_of_query: int

    def to_dict(self) -> dict:
        return {
            "type": self.block_type,
            "members": [list(m.parts) for m in self.members],
            "index": self.index_of_query,
        }


def _member_from_removal(sorted_entries: List[int], remove_at: int) -> Optional[YoungDiagram]:
    """Reconstruct the diagram whose decreasing part is the sequence minus
    one entry; None when the leftover is not a valid diagram shape."""
    rest = sorted_entries[:remove_at] + sorted_entries[remove_at + 1 :]
    parts = []
    prev = None
    for i, r in enumerate(rest, start=1):
        if prev is not None and r >= prev:
            return None  # duplicate or increase: not strictly decreasing
        prev = r
        p = r + i
        if p < 0:
            return None
        if parts and p > parts[-1]:
            return None
        parts.append(p)
    # the window is padded so the sequence must land exactly on the tail
    if parts and parts[-1] != 0:
        return None
    return YoungDiagram(tuple(p for p in parts if p))


def block_of(lam: YoungDiagram, d: int, bound: int) -> BlockDescriptor:
    """Enumerate the block members of size <= bound and classify the block.

    Members arise by choosing which multiset entry plays the head role
    d - |member|; the leftover entries must re-assemble into a diagram.
    Infiniteness is decided by removal at two consecutive pure-tail
    positions beyond the window.
    """
    if d < 0:
        raise ValueError("d must be a nonnegative integer")
    if bound < lam.size:
        raise ValueError("bound must be at least |lambda|")
    window = bound + lam.size + len(lam.parts) + abs(d) + 4
    entries = sorted(_window_entries(lam, d, -window), reverse=True)

    members = {}
    for idx, s in enumerate(entries):
        if idx and entries[idx - 1] == s:
            continue  # same value: identical removal result
        size = d - s
        if size < 0 or size > bound:
            continue
        candidate = _member_from_removal(entries, idx)
        if candidate is not None and candidate.size == size:
            members[candidate] = True

    # pure-tail removals decide infiniteness: test two consecutive values
    # below the window, padding so the reconstruction sees its tail landing
    tail_ok = []
    for k in (window + 1, window + 2):
        full = entries + [-j for j in range(window + 1, k + 2)]
        tail_ok.append(_member_from_removal(full, full.index(-k)) is not None)
    infinite = all(tail_ok)

    ordered = tuple(sorted(members, key=lambda m: (m.size, m.parts)))
    if lam not in members:
        raise AssertionError("query diagram missing from its own block")
    key = _block_key(entries)
    return BlockDescriptor(
        t_value=d,
        key=key,
        block_type="infinite" if infinite else "trivial",
        members=ordered,
        index_of_query=ordered.index(lam),
    )


def _block_key(sorted_entries: List[int]) -> tuple:
    """Strip the maximal pure-tail suffix -K, -(K+1), ... from the sorted
    entry list; what remains is a block invariant."""
    cut = len(sorted_entries)
    while cut > 0 and sorted_entries[cut - 1] == -(cut - 1):
        cut -= 1
    return tuple(sorted_entries[:cut])


def negligible_class(lam: YoungDiagram, d: int) -> bool:
    """True iff the label is not the minimal member of an infinite block,
    i.e. the identity of the corresponding indecomposable is negligible."""
    desc = block_of(lam, d, bound=lam.size)
    return not (desc.block_type == "infinite" and desc.index_of_query == 0)


def infinite_blocks(d: int, bound: int) -> List[tuple]:
    """Member lists (size <= bound, ascending) of the distinct infinite
    blocks seen among labels of size <= bound."""
    if bound < d + 4:
        raise ValueError("bound must be at least d + 4 for a stable count")
    seen: Dict[tuple, tuple] = {}
    for lam in all_partitions_upto(bound):
        desc = block_of(lam, d, bound=max(bound, lam.size))
        if desc.block_type == "infinite":
            seen.setdefault(desc.key, desc.members)
    return sorted(seen.values(), key=lambda ms: (ms[0].size, ms[0].parts))


def count_infinite_blocks(d: int, bound: int) -> int:
    """Number of distinct infinite-block keys among labels of size <= bound."""
    return len(infinite_blocks(d, bound))


# ---------------------------------------------------------------------------
# Young symmetrizers


def _perm_compose(p: tuple, q: tuple) -> tuple:
    """(p . q)(i) = p(q(i)), matching diagram composition order."""
    return tuple(p[q[i]] for i in range(len(p)))


def _perm_sign(p: tuple) -> int:
    seen = [False] * len(p)
    sign = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _canonical_tableau(lam: YoungDiagram) -> List[List[int]]:
    rows = []
    counter = 0
    for p in lam.parts:
        rows.append(list(range(counter, counter + p)))
        counter += p
    return rows


def _group_from_cells(cells: List[List[int]], n: int) -> List[tuple]:
    """All permutations of range(n) preserving each cell setwise."""
    perms = [tuple(range(n))]
    for cell in cells:
        new_perms = []
        for sub in permutations(cell):
            base = list(range(n))
            for pos, val in zip(cell, sub):
                base[pos] = val
            for p in perms:
                new_perms.append(_perm_compose(tuple(base), p))
        perms = new_perms
    return perms


@lru_cache(maxsize=None)
def _standard_tableaux_count(parts: tuple) -> int:
    """Hook length formula."""
    lam = YoungDiagram(parts)
    n = lam.size
    if n == 0:
        return 1
    cols = [0] * (lam.parts[0] if lam.parts else 0)
    for p in lam.parts:
        for c in range(p):
            cols[c] += 1
    hooks = 1
    for r, p in enumerate(lam.parts):
        for c in range(p):
            hooks *= (p - c) + (cols[c] - r) - 1
    return factorial(n) // hooks


def young_symmetrizer(lam: YoungDiagram, cap: int = 6) -> Dict[tuple, Fraction]:
    """The idempotent (f/n!) a b in the group algebra, for the canonical
    row-reading tableau: a runs over row permutations, b over signed
    column permutations."""
    n = lam.size
    if n > cap:
        raise CapExceededError(f"young_symmetrizer capped at |lambda| <= {cap}")
    rows = _canonical_tableau(lam)
    cols: List[List[int]] = []
    if lam.parts:
        for c in range(lam.parts[0]):
            cols.append([rows[r][c] for r in range(len(rows)) if lam.parts[r] > c])
    scale = Fraction(_standard_tableaux_count(lam.parts), factorial(n))
    out: Dict[tuple, Fraction] = {}
    for p in _group_from_cells(rows, n):
        for q in _group_from_cells(cols, n):
            perm = _perm_compose(p, q)
            coeff = scale * _perm_sign(q)
            acc = out.get(perm, Fraction(0)) + coeff
            if acc:
                out[perm] = acc
            else:
                out.pop(perm, None)
    return out


def group_algebra_product(
    x: Dict[tuple, Fraction], y: Dict[tuple, Fraction]
) -> Dict[tuple, Fraction]:
    out: Dict[tuple, Fraction] = {}
    for p, cp in x.items():
        for q, cq in y.items():
            r = _perm_compose(p, q)
            acc = out.get(r, Fraction(0)) + cp * cq
            if acc:
                out[r] = acc
            else:
                out.pop(r, None)
    return out


def pt_power_idempotent(lam: YoungDiagram, ring: RingTag = POLY_T, cap: int = 5) -> Morphism:
    """Image of the symmetrizer under permutations acting on n strands."""
    n = lam.size
    if n > cap:
        raise CapExceededError(f"pt_power_idempotent capped at |lambda| <= {cap}")
    element = young_symmetrizer(lam, cap=max(cap, n))
    terms = {}
    for perm, coeff in element.items():
        d = PartitionDiagram(n, n, tuple((i, n + perm[i]) for i in range(n)))
        terms[d] = coeff
    return Morphism(n, n, ring, terms)

"""Young diagrams, block combinatorics, and symmetrizer idempotents.

The block of an indecomposable labelled by a Young diagram at an integer
parameter d is governed by the shifted content sequence
(d - |la|, la_1 - 1, la_2 - 2, ...): two labels share a block exactly when
those sequences agree as multisets.  All multiset reasoning is reduced to
a finite window; beyond it both sequences are the common tail -k.

Blocks are classified by the Comes-Ostrik criterion: a repeated entry makes
the block trivial, and otherwise each entry, removed as the head, gives one
member.  The work of a block query is linear in its window, and
``infinite_blocks`` builds one block per partition of d, p(d) of them, each
over a window that grows with the label-size bound; both are capped
(``WINDOW_CAP``, ``LABEL_SIZE_CAP``) before anything is built.
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

# Largest window of shifted-content entries a block query may build: block_of
# on (1) at d = 4995 (window 10,000) takes about 8 ms; at d = 10^6 the removal
# search this replaced took 4.3 s and 185 MB.
WINDOW_CAP = 10_000
# Largest label-size bound infinite_blocks takes; since the bound is at least
# d + 4 it also caps d.  The p(16) = 231 blocks at bound 20 take 18-31 ms,
# p(20) = 627 at bound 24 60-77 ms and p(24) = 1575 at bound 28 0.17-0.24 s.
LABEL_SIZE_CAP = 20


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


def _require_window(window: int):
    if window > WINDOW_CAP:
        raise CapExceededError(f"block window of {window} entries is over cap {WINDOW_CAP}")


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
    _require_window(window)
    return Counter(_window_entries(lam, t, -window)) == Counter(
        _window_entries(other, t, -window)
    )


@dataclass(frozen=True)
class BlockDescriptor:
    """Canonical block data for one query diagram at integer parameter d."""

    t_value: int
    block_type: str  # "trivial" | "infinite"
    members: tuple  # known members with size <= the requested bound, by size
    index_of_query: int

    def to_dict(self) -> dict:
        return {
            "type": self.block_type,
            "members": [list(m.parts) for m in self.members],
            "index": self.index_of_query,
        }


def _require_d(d: int):
    if d < 0:
        raise ValueError("d must be a nonnegative integer")


def block_of(lam: YoungDiagram, d: int, bound: int) -> BlockDescriptor:
    """Classify the block and list its members of size <= bound.

    Comes-Ostrik: the block is trivial when the shifted content sequence
    repeats an entry.  Otherwise it is infinite, and removing any entry s
    leaves the decreasing sequence r_1 > r_2 > ... of the member with
    head s = d - |member| and parts r_i + i.
    """
    _require_d(d)
    if bound < lam.size:
        raise ValueError("bound must be at least |lambda|")
    window = bound + lam.size + len(lam.parts) + abs(d) + 4
    _require_window(window)
    entries = sorted(_window_entries(lam, d, -window), reverse=True)
    if len(set(entries)) < len(entries):
        return BlockDescriptor(d, "trivial", (lam,), 0)
    # descending heads give ascending sizes d - s
    members = tuple(
        YoungDiagram(tuple(r + i for i, r in enumerate(entries[:at] + entries[at + 1 :], 1)))
        for at, s in enumerate(entries)
        if 0 <= d - s <= bound
    )
    return BlockDescriptor(d, "infinite", members, members.index(lam))


def negligible_class(lam: YoungDiagram, d: int) -> bool:
    """True iff the label is not the minimal member of an infinite block,
    i.e. (d - |la|, la) is not a partition of d and the identity of the
    corresponding indecomposable is negligible."""
    _require_d(d)
    return lam.size + lam.part(1) > d


def infinite_blocks(d: int, bound: int) -> List[tuple]:
    """Member lists (size <= bound, ascending) of the infinite blocks at d:
    one per partition nu of d, whose least member is nu without its first
    row."""
    if bound < d + 4:
        raise ValueError("bound must be at least d + 4 for a stable count")
    if bound > LABEL_SIZE_CAP:
        raise CapExceededError(f"labels up to size {bound} are over cap {LABEL_SIZE_CAP}")
    _require_d(d)
    blocks = [block_of(YoungDiagram(nu.parts[1:]), d, bound).members for nu in partitions_of(d)]
    return sorted(blocks, key=lambda ms: (ms[0].size, ms[0].parts))


def count_infinite_blocks(d: int, bound: int) -> int:
    """Number of infinite blocks at d, p(d)."""
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

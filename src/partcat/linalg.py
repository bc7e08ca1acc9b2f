"""Exact linear elimination: the one engine behind every solve in partcat.

:class:`Span` is an incrementally built row space of sparse vectors
(dicts {key: scalar}) over an exact field.  Keys may be any orderable
values; the pivot of each stored row is its smallest key.  Scalars are
raw payloads: ``Fraction`` over Q, :class:`RingElement` otherwise.  Each
stored row also records which of the added vectors it combines, so a
vector in the span can be written in the added vectors.

:func:`kernel` (right kernel of a dense matrix, for the radical) and
:func:`rank` are built on the same reduction.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


class Span:
    """Row space over the field with ``zero`` and ``one``, one add at a time."""

    def __init__(self, zero, one):
        self.zero = zero
        self.one = one
        self.rows: list = []  # (pivot, row scaled to pivot one, {add index: coefficient})
        self.count = 0  # add calls so far, rejected ones included

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: dict, taken: Optional[dict] = None) -> dict:
        """vec minus its components along the stored pivots.

        The multiples of the added vectors subtracted are summed into
        ``taken``, if given.
        """
        vec = dict(vec)
        zero = self.zero
        for pivot, row, combo in self.rows:
            c = vec.get(pivot)
            if c:
                for k, v in row.items():
                    w = vec.get(k, zero) - c * v
                    if w:
                        vec[k] = w
                    else:
                        vec.pop(k, None)
                if taken is not None:
                    for idx, v in combo.items():
                        taken[idx] = taken.get(idx, zero) + c * v
        return vec

    def add(self, vec: dict) -> bool:
        """Add vec; True iff it was independent of the span and was kept."""
        taken: dict = {}
        vec = self._reduce(vec, taken)
        index = self.count
        self.count += 1
        if not vec:
            return False
        pivot = min(vec)
        inv = self.one / vec[pivot]
        combo = {idx: -v * inv for idx, v in taken.items()}
        combo[index] = inv
        self.rows.append((pivot, {k: v * inv for k, v in vec.items()}, combo))
        return True

    def coordinates(self, vec: dict) -> Optional[list]:
        """c with vec = sum of c[i] times the i-th added vector, or None if
        vec is outside the span; one entry per add call."""
        taken: dict = {}
        if self._reduce(vec, taken):
            return None
        out = [self.zero] * self.count
        for idx, v in taken.items():
            out[idx] = v
        return out

    def contains(self, vec: dict) -> bool:
        return not self._reduce(vec)

    def residual(self, vec: dict) -> dict:
        return self._reduce(vec)


def kernel(rows: Sequence[Sequence], zero, one) -> List[dict]:
    """Right kernel of a dense matrix, as sparse dicts over its columns.

    The rows are reduced to reduced echelon form R; for each free column j
    (ascending) the basis vector is {j: one, p: -R[p][j]} over the pivot
    columns p (ascending) where R[p][j] is nonzero.
    """
    span = Span(zero, one)
    for r in rows:
        span.add({j: x for j, x in enumerate(r) if x})
    done = Span(zero, one)  # back-substitution, largest pivot first
    for pivot, row, _ in sorted(span.rows, key=lambda entry: entry[0], reverse=True):
        done.rows.append((pivot, done.residual(row), {}))
    echelon = {pivot: row for pivot, row, _ in done.rows}
    pivots = sorted(echelon)
    basis = []
    for j in range(len(rows[0]) if rows else 0):
        if j in echelon:
            continue
        vec = {j: one}
        for p in pivots:
            c = echelon[p].get(j)
            if c:
                vec[p] = -c
        basis.append(vec)
    return basis


def rank(rows: Sequence[Sequence]) -> int:
    """Rank of a dense matrix of Fractions or RingElements over one field."""
    vecs = [{j: x for j, x in enumerate(r) if x} for r in rows]
    entry = next((x for vec in vecs for x in vec.values()), None)
    if entry is None:
        return 0
    span = Span(entry - entry, entry**0)
    return sum(span.add(vec) for vec in vecs)

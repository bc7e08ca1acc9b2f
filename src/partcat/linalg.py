"""Exact linear elimination: the one engine behind every solve in partcat.

:class:`Span` is an incrementally built row space of sparse vectors
(dicts {key: scalar}) over an exact field.  Keys may be any orderable
values; the pivot of each stored row is its smallest key.  Scalars are
payloads of one ring, the ``RingTag`` each routine is given, and all
arithmetic and zero tests go through that ring.  Each stored row also
records which of the added vectors it combines, so a vector in the span
can be written in the added vectors.

:func:`kernel` (right kernel of a dense matrix, for the radical) and
:func:`rank` are built on the same reduction.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .coeff import RingTag


class Span:
    """Row space over the field ``ring``, one add at a time."""

    def __init__(self, ring: RingTag):
        self.ring = ring
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
        ring = self.ring
        add, sub, mul, is_zero, zero = ring.add, ring.sub, ring.mul, ring.is_zero, ring.zero_payload
        for pivot, row, combo in self.rows:
            c = vec.get(pivot)
            if c is None or is_zero(c):
                continue
            for k, v in row.items():
                w = sub(vec.get(k, zero), mul(c, v))
                if is_zero(w):
                    vec.pop(k, None)
                else:
                    vec[k] = w
            if taken is not None:
                for idx, v in combo.items():
                    taken[idx] = add(taken.get(idx, zero), mul(c, v))
        return vec

    def add(self, vec: dict) -> bool:
        """Add vec; True iff it was independent of the span and was kept."""
        taken: dict = {}
        vec = self._reduce(vec, taken)
        index = self.count
        self.count += 1
        if not vec:
            return False
        ring = self.ring
        mul, neg = ring.mul, ring.neg
        pivot = min(vec)
        inv = ring.inv(vec[pivot])
        combo = {idx: mul(neg(v), inv) for idx, v in taken.items()}
        combo[index] = inv
        self.rows.append((pivot, {k: mul(v, inv) for k, v in vec.items()}, combo))
        return True

    def coordinates(self, vec: dict) -> Optional[list]:
        """c with vec = sum of c[i] times the i-th added vector, or None if
        vec is outside the span; one entry per add call."""
        taken: dict = {}
        if self._reduce(vec, taken):
            return None
        out = [self.ring.zero_payload] * self.count
        for idx, v in taken.items():
            out[idx] = v
        return out

    def contains(self, vec: dict) -> bool:
        return not self._reduce(vec)

    def residual(self, vec: dict) -> dict:
        return self._reduce(vec)


def _sparse_rows(rows: Sequence[Sequence], ring: RingTag) -> List[dict]:
    is_zero = ring.is_zero
    return [{j: x for j, x in enumerate(r) if not is_zero(x)} for r in rows]


def kernel(rows: Sequence[Sequence], ring: RingTag) -> List[dict]:
    """Right kernel of a dense matrix over ``ring``, as sparse dicts over its columns.

    The rows are reduced to reduced echelon form R; for each free column j
    (ascending) the basis vector is {j: one, p: -R[p][j]} over the pivot
    columns p (ascending) where R[p][j] is nonzero.
    """
    span = Span(ring)
    for vec in _sparse_rows(rows, ring):
        span.add(vec)
    done = Span(ring)  # back-substitution, largest pivot first
    for pivot, row, _ in sorted(span.rows, key=lambda entry: entry[0], reverse=True):
        done.rows.append((pivot, done.residual(row), {}))
    echelon = {pivot: row for pivot, row, _ in done.rows}
    pivots = sorted(echelon)
    basis = []
    for j in range(len(rows[0]) if rows else 0):
        if j in echelon:
            continue
        vec = {j: ring.one_payload}
        for p in pivots:
            c = echelon[p].get(j)
            if c is not None:
                vec[p] = ring.neg(c)
        basis.append(vec)
    return basis


def rank(rows: Sequence[Sequence], ring: RingTag) -> int:
    """Rank of a dense matrix of payloads of the field ``ring``."""
    span = Span(ring)
    return sum(span.add(vec) for vec in _sparse_rows(rows, ring))

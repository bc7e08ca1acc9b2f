"""Small exact linear algebra over the coefficient fields.

Matrices are lists of rows of :class:`RingElement` values sharing a field
tag.  Only what the algebra toolkit needs is provided: the rank, through
reduced row echelon form.  A fraction-free integer path keeps plain-Q
computations fast.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from .coeff import RingElement, RingTag


def _is_q(tag: RingTag) -> bool:
    return tag.kind == "Q"


def rank(rows: Sequence[Sequence[RingElement]]) -> int:
    rows = [list(r) for r in rows if any(x for x in r)]
    if not rows:
        return 0
    tag = rows[0][0].tag
    if _is_q(tag):
        return _int_rank([[x.data for x in r] for r in rows])
    return len(rref(rows)[0])


def _int_rank(rows: list[list[Fraction]]) -> int:
    """Rank by integer fraction-free elimination with row gcd reduction."""
    mat = []
    for r in rows:
        den = 1
        for x in r:
            den = den * x.denominator // gcd(den, x.denominator)
        ints = [int(x * den) for x in r]
        g = 0
        for v in ints:
            g = gcd(g, v)
        if g:
            mat.append([v // g for v in ints])
    if not mat:
        return 0
    ncols = len(mat[0])
    rk = 0
    col = 0
    while col < ncols and rk < len(mat):
        piv = None
        best = None
        for i in range(rk, len(mat)):
            v = mat[i][col]
            if v and (best is None or abs(v) < best):
                piv, best = i, abs(v)
        if piv is None:
            col += 1
            continue
        mat[rk], mat[piv] = mat[piv], mat[rk]
        prow = mat[rk]
        pval = prow[col]
        for i in range(rk + 1, len(mat)):
            row = mat[i]
            v = row[col]
            if v:
                for j in range(col, ncols):
                    row[j] = row[j] * pval - prow[j] * v
                g = 0
                for x in row:
                    g = gcd(g, x)
                if g > 1:
                    for j in range(ncols):
                        row[j] //= g
        rk += 1
        col += 1
    return rk


def rref(rows: Sequence[Sequence[RingElement]]):
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = mat[r][col].inv()
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                c = mat[i][col]
                mat[i] = [a - c * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots

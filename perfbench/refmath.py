"""Reference combinatorics for the output checks, written apart from partcat.

Nothing here imports the program under test, or sympy: benchmark children
import this module, and must load nothing the program itself does not.
Diagram compositions, enumerations, Bell and Catalan numbers and exact ranks
are recomputed from their definitions.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd

# ---------------------------------------------------------------------------
# numbers


def bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def ballot_dims(n: int) -> list:
    """Cell-module dimensions of TL_n, one per through-strand count."""
    return [comb(n, k) - (comb(n, k - 1) if k else 0) for k in range(n // 2 + 1)]


def partition_count(n: int) -> int:
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            table[m] += table[m - part]
    return table[n]


# ---------------------------------------------------------------------------
# enumeration


def rg_partitions(n: int) -> list:
    """Set partitions of range(n) as block tuples, in restricted-growth order."""
    out = []
    labels = [0] * n

    def rec(i: int, top: int):
        if i == n:
            blocks: dict = {}
            for point, lab in enumerate(labels):
                blocks.setdefault(lab, []).append(point)
            out.append(tuple(tuple(blocks[k]) for k in sorted(blocks)))
            return
        for v in range(top + 2):
            labels[i] = v
            rec(i + 1, max(top, v))

    if n == 0:
        return [()]
    rec(1, 0)
    return out


def rg_string(blocks, points: int) -> str:
    """Restricted-growth word of a set partition given as blocks."""
    owner = [0] * points
    for blk in blocks:
        for p in blk:
            owner[p] = min(blk)
    seen: dict = {}
    return "".join(chr(48 + seen.setdefault(o, len(seen))) for o in owner)


def digest(words) -> str:
    return hashlib.sha256("\n".join(sorted(words)).encode()).hexdigest()


@lru_cache(maxsize=None)
def partitions_digest(points: int) -> str:
    """Digest of all set partitions of ``points`` points, each written as the
    repr of its canonical blocks: ascending blocks ordered by minimum."""
    return digest(repr(b) for b in rg_partitions(points))


def noncrossing(n: int) -> list:
    """Non-crossing perfect matchings of n strands to n strands (2n points).

    Points are labelled as partcat labels them: bottom 0..n-1 left to
    right, top n..2n-1 left to right; the disk boundary runs along the
    bottom and back along the top.
    """
    boundary = list(range(n)) + [2 * n - 1 - j for j in range(n)]

    def rec(pos):
        if not pos:
            yield ()
            return
        first = pos[0]
        for k in range(1, len(pos), 2):
            for left in rec(pos[1:k]):
                for right in rec(pos[k + 1 :]):
                    yield ((first, pos[k]),) + left + right

    out = []
    for matching in rec(tuple(range(2 * n))):
        out.append(tuple(sorted(tuple(sorted((boundary[x], boundary[y]))) for x, y in matching)))
    return out


# ---------------------------------------------------------------------------
# diagram kernels


def _find(parent, v):
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def compose_partition(g_blocks, f_blocks, a: int, b: int, c: int):
    """g after f for f: a -> b and g: b -> c; returns (blocks, interior parts).

    Planar matchings compose the same way: their blocks are pairs, and the
    interior parts are the closed loops.
    """
    parent = list(range(a + b + c))
    for blk in f_blocks:
        for p in blk[1:]:
            parent[_find(parent, p)] = _find(parent, blk[0])
    for blk in g_blocks:
        for p in blk[1:]:
            parent[_find(parent, a + p)] = _find(parent, a + blk[0])
    classes: dict = {}
    for v in range(a + b + c):
        classes.setdefault(_find(parent, v), []).append(v)
    out, interior = [], 0
    for members in classes.values():
        outer = [v if v < a else v - b for v in members if v < a or v >= a + b]
        if outer:
            out.append(tuple(outer))
        else:
            interior += 1
    return tuple(sorted(out)), interior


def closure_components(blocks, n: int) -> int:
    """Components after joining bottom i to top n+i of an n -> n diagram."""
    parent = list(range(2 * n))
    for blk in blocks:
        for p in blk[1:]:
            parent[_find(parent, p)] = _find(parent, blk[0])
    for i in range(n):
        parent[_find(parent, i)] = _find(parent, n + i)
    return len({_find(parent, v) for v in range(2 * n)})


def tl_e(i: int, n: int) -> tuple:
    """Cup-cap generator on strands i, i+1 (1-based) as sorted pairs."""
    pairs = [(i - 1, i), (n + i - 1, n + i)]
    pairs += [(k, n + k) for k in range(n) if k not in (i - 1, i)]
    return tuple(sorted(pairs))


# ---------------------------------------------------------------------------
# exact rank


def rank(rows) -> int:
    """Rank over Q of a rational matrix by fraction-free integer elimination."""
    mat = []
    for row in rows:
        den = 1
        for x in row:
            den = den * Fraction(x).denominator // gcd(den, Fraction(x).denominator)
        ints = [int(Fraction(x) * den) for x in row]
        if any(ints):
            mat.append(ints)
    rk = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = next((i for i in range(rk, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rk], mat[piv] = mat[piv], mat[rk]
        prow = mat[rk]
        pv = prow[col]
        for i in range(rk + 1, len(mat)):
            row = mat[i]
            v = row[col]
            if v:
                g = 0
                for j in range(col, ncols):
                    row[j] = row[j] * pv - prow[j] * v
                    g = gcd(g, row[j])
                if g > 1:
                    for j in range(col, ncols):
                        row[j] //= g
        rk += 1
        if rk == len(mat):
            break
    return rk


def trace_form(basis, compose, param: Fraction) -> list:
    """B[i][j] = Tr(left multiplication by b_i b_j) in a monomial algebra."""
    index = {lbl: i for i, lbl in enumerate(basis)}
    n = len(basis)
    table = [[None] * n for _ in range(n)]
    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            lbl, loops = compose(bi, bj)
            table[i][j] = (index[lbl], param**loops)
    traces = [sum((table[m][k][1] for k in range(n) if table[m][k][0] == k), Fraction(0)) for m in range(n)]
    return [[table[i][j][1] * traces[table[i][j][0]] for j in range(n)] for i in range(n)]


@lru_cache(maxsize=None)
def partition_trace_form(n: int, t: Fraction):
    basis = rg_partitions(2 * n)
    form = trace_form(basis, lambda g, f: compose_partition(g, f, n, n, n), Fraction(t))
    return basis, form


@lru_cache(maxsize=None)
def partition_semisimple_dim(n: int, t: Fraction) -> int:
    return rank(partition_trace_form(n, t)[1])


@lru_cache(maxsize=None)
def tl_trace_form(n: int, delta: Fraction):
    basis = noncrossing(n)
    form = trace_form(basis, lambda g, f: compose_partition(g, f, n, n, n), Fraction(delta))
    return basis, form


@lru_cache(maxsize=None)
def tl_semisimple_dim(n: int, delta: Fraction) -> int:
    return rank(tl_trace_form(n, delta)[1])


def mobius_weight(blocks) -> int:
    out = 1
    for blk in blocks:
        k = len(blk)
        out *= (-1) ** (k - 1) * factorial(k - 1)
    return out

"""Point-level reference kernels for diagrams of either kind.

These are the union-find-over-points kernels the library used before it
stored diagrams as restricted-growth words.  They read only ``bottom``,
``top`` and ``parts`` and return canonical parts (each part ascending,
parts ordered by minimum), so they check the word kernels from outside.
The coefficient sums at the end are the pairwise loops the library ran
before its sums of products normalized once per output coefficient.
``jw_two_sided`` is the Jones-Wenzl recursion the library used before the
one-sided one.
"""

from fractions import Fraction
from functools import lru_cache


def _find(parent: list, v: int) -> int:
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _union(parent: list, a: int, b: int):
    ra, rb = _find(parent, a), _find(parent, b)
    if ra != rb:
        parent[rb] = ra


def _canonical(parts) -> tuple:
    return tuple(sorted((tuple(sorted(p)) for p in parts), key=lambda p: p[0]))


def compose(g, f):
    """Stack g over f: (canonical parts of g after f, interior part count)."""
    a, b, c = f.bottom, f.top, g.top
    parent = list(range(a + b + c))
    for part in f.parts:
        for p in part[1:]:
            _union(parent, part[0], p)
    for part in g.parts:
        for p in part[1:]:
            _union(parent, a + part[0], a + p)
    classes = {}
    for v in range(a + b + c):
        classes.setdefault(_find(parent, v), []).append(v)
    interior = 0
    out = []
    for members in classes.values():
        outer = [v if v < a else v - b for v in members if v < a or v >= a + b]
        if outer:
            out.append(outer)
        else:
            interior += 1
    return _canonical(out), interior


def tensor(f, g) -> tuple:
    """Parts of f (x) g: g's points go right of f's in both rows."""
    a, b, c = f.bottom, f.top, g.bottom
    parts = [[p if p < a else p + c for p in part] for part in f.parts]
    parts += [[a + p if p < c else a + b + p for p in part] for part in g.parts]
    return _canonical(parts)


def dual(f) -> tuple:
    """Parts of the flipped diagram: the rows trade places."""
    a, b = f.bottom, f.top
    return _canonical([[p + b if p < a else p - a for p in part] for part in f.parts])


def closure(f) -> int:
    """Components of the trace closure of an endomorphism diagram."""
    n = f.bottom
    parent = list(range(2 * n))
    for part in f.parts:
        for p in part[1:]:
            _union(parent, part[0], p)
    for i in range(n):
        _union(parent, i, n + i)
    return len({_find(parent, v) for v in range(2 * n)})


# ---------------------------------------------------------------------------
# coefficient sums the pairwise way, each product and partial sum normalized


def compose_pairwise(g, f):
    """g @ f summed pair by pair with the ring's ``mul`` and ``add``, over
    diagrams composed by ``compose`` above."""
    ring = g.ring
    add, mul, is_zero = ring.add, ring.mul, ring.is_zero
    acc = {}
    for fd, fc in f.terms.items():
        for gd, gc in g.terms.items():
            parts, loops = compose(gd, fd)
            diagram = g.kind.diagram(f.source, g.target, parts)
            coeff = mul(fc, gc)
            if loops:
                coeff = mul(coeff, ring.power(ring.parameter_payload(), loops))
            old = acc.get(diagram)
            merged = coeff if old is None else add(old, coeff)
            if is_zero(merged):
                acc.pop(diagram, None)
            else:
                acc[diagram] = merged
    return type(g).from_payloads(f.source, g.target, ring, acc)


def trace_pairwise(f):
    """The categorical trace of an endomorphism, summed term by term."""
    ring = f.ring
    total = ring.zero_payload
    for d, c in f.terms.items():
        total = ring.add(total, ring.mul(c, ring.power(ring.parameter_payload(), closure(d))))
    return total


def euclid_gcd(a: tuple, b: tuple) -> tuple:
    """Monic gcd of coefficient tuples (constant term first) by Euclid's
    algorithm over ``Fraction``; () when both are zero."""
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    while b:
        r = a[:]
        while len(r) >= len(b):
            q = r[-1] / b[-1]
            shift = len(r) - len(b)
            for i, c in enumerate(b):
                r[shift + i] -= q * c
            while r and r[-1] == 0:
                r.pop()
        a, b = b, r
    return tuple(c / a[-1] for c in a) if a else ()


# ---------------------------------------------------------------------------
# Jones-Wenzl projectors by Wenzl's two-sided recursion


@lru_cache(maxsize=None)
def jw_two_sided(n: int, ring):
    """The n-strand Jones-Wenzl projector by the single-step recursion
    jw(n) = w - ([n-1]/[n]) w e_{n-1} w with w = jw(n-1) (x) id, which
    composes w with itself.  Raises ``ProjectorUndefinedError`` when some
    [k], 2 <= k <= n, vanishes."""
    from partcat.errors import ProjectorUndefinedError
    from partcat.tl import quantum_int, tl_e, tl_identity

    if n <= 1:
        return tl_identity(n, ring)
    for k in range(2, n + 1):
        if not quantum_int(k, ring):
            raise ProjectorUndefinedError(f"jw({n}) undefined: quantum integer [{k}] vanishes")
    wide = jw_two_sided(n - 1, ring).tensor(tl_identity(1, ring))
    ratio = quantum_int(n - 1, ring) / quantum_int(n, ring)
    return wide - ((wide @ tl_e(n - 1, n, ring)) @ wide).scale(ratio)


# ---------------------------------------------------------------------------
# summand labels by the scan over every tensor power


def local_functional(A, e: dict) -> dict:
    """{diagram D: f(e D e)} for a primitive idempotent e of A, read through
    A/rad: e D e projects to f(e D e) times e's image, and to a multiple
    of it for every D, else AssertionError (e is not primitive)."""
    from partcat import algkit

    ring = A.tag
    Q = algkit._quotient(A)
    e_bar = Q.project(e)
    key = min(e_bar)
    e_key_inv = ring.inv(e_bar[key])
    f = {}
    for i, label in enumerate(A.labels):
        x_bar = Q.project(A.mul(A.mul(e, {i: ring.one_payload}), e))
        c = ring.mul(x_bar.get(key, ring.zero_payload), e_key_inv)
        assert x_bar == A.scale(e_bar, c), "e D e is not a multiple of e modulo the radical"
        f[label] = c
    return f


def identify_summand_scan(A, e: dict):
    """(winning partitions, tensor power) for a primitive idempotent e of
    A = End([A_n]) at a bound t, by the scan ``algkit.identify_summand``
    ran before it read the power from propagating numbers.

    For k = 0, 1, ..., n: the power is the first k at which the identity
    of [A_k] pairs, and the winners are the partitions of k whose
    symmetrizer cut pairs.  A cut y pairs when f(e g y h e) != 0 for some
    g, h in the full Hom(k, n) x Hom(n, k), composed by ``compose`` above;
    f is the local functional of eAe read through A/rad
    (``local_functional``), not through the regular trace as
    ``algkit.identify_summand`` reads it.
    """
    from partcat.pcat import PartitionDiagram, hom_basis, identity
    from partcat.young import partitions_of, pt_power_idempotent

    ring = A.tag
    add, mul, is_zero = ring.add, ring.mul, ring.is_zero
    n = A.labels[0].bottom
    f = local_functional(A, e)

    def pairs(k: int, mid_terms) -> bool:
        for h in hom_basis(n, k):
            for g in hom_basis(k, n):
                total = ring.zero_payload
                for mid, c in mid_terms:
                    gm_parts, l1 = compose(g, mid)
                    parts, l2 = compose(PartitionDiagram(k, n, gm_parts), h)
                    loops = ring.power(ring.parameter_payload(), l1 + l2)
                    total = add(total, mul(mul(c, loops), f[PartitionDiagram(n, n, parts)]))
                if not is_zero(total):
                    return True
        return False

    for k in range(n + 1):
        if pairs(k, identity(k, ring).terms.items()):
            cuts = [(lam, pt_power_idempotent(lam, ring).terms.items()) for lam in partitions_of(k)]
            return [lam for lam, y in cuts if pairs(k, y)], k
    return [], None

"""Point-level reference kernels for diagrams of either kind.

These are the union-find-over-points kernels the library used before it
stored diagrams as restricted-growth words.  They read only ``bottom``,
``top`` and ``parts`` and return canonical parts (each part ascending,
parts ordered by minimum), so they check the word kernels from outside.
The coefficient sums at the end are the pairwise loops the library ran
before its sums of products normalized once per output coefficient.
"""

from fractions import Fraction


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

"""Point-level reference kernels for diagrams of either kind.

These are the union-find-over-points kernels the library used before it
stored diagrams as restricted-growth words.  They read only ``bottom``,
``top`` and ``parts`` and return canonical parts (each part ascending,
parts ordered by minimum), so they check the word kernels from outside.
"""


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

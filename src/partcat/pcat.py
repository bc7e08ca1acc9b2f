"""Partition diagrams and the symmetric tensor category they span.

A diagram in Hom([A_a], [A_b]) is a set partition of a+b points, encoded
0..a-1 for the bottom (source) row and a..a+b-1 for the top (target) row.
Morphisms are finite linear combinations of diagrams over one of the exact
coefficient rings (the shared core in ``lincomb``); composition multiplies
by parameter^l where l counts the interior parts of the stacked join.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, Optional, Sequence

from .coeff import POLY_T, RingElement, RingTag
from .errors import CapExceededError
from .lincomb import DiagramKind, LinComb, from_dict, negligible, to_dict
from .lincomb import compose, dual, specialize, tensor, trace  # noqa: F401 (public pcat names)

DEFAULT_CAP = 10


# ---------------------------------------------------------------------------
# diagrams


@dataclass(frozen=True)
class PartitionDiagram:
    """A set partition of a+b labelled points, as a morphism [A_a] -> [A_b].

    Blocks are stored canonically: each block ascending, blocks ordered by
    their minimum.  Equality and hashing are structural.
    """

    bottom: int
    top: int
    blocks: tuple

    def __post_init__(self):
        if self.bottom < 0 or self.top < 0:
            raise ValueError("negative diagram sizes")
        canon = tuple(sorted((tuple(sorted(b)) for b in self.blocks), key=lambda b: b[0]))
        object.__setattr__(self, "blocks", canon)
        seen = []
        for block in canon:
            if not block:
                raise ValueError("empty block")
            seen.extend(block)
        if sorted(seen) != list(range(self.bottom + self.top)):
            raise ValueError("blocks must partition the point set")

    @property
    def points(self) -> int:
        return self.bottom + self.top

    @property
    def parts(self) -> tuple:
        return self.blocks

    def __repr__(self):
        body = ",".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)
        return f"Diagram({self.bottom}->{self.top}; {body})"


def _raw_diagram(bottom: int, top: int, blocks) -> PartitionDiagram:
    """Construct without re-validation; blocks must have sorted elements."""
    d = object.__new__(PartitionDiagram)
    object.__setattr__(d, "bottom", bottom)
    object.__setattr__(d, "top", top)
    object.__setattr__(d, "blocks", tuple(sorted(blocks, key=lambda b: b[0])))
    return d


def _uf_find(parent: list, v: int) -> int:
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _uf_union(parent: list, a: int, b: int):
    ra, rb = _uf_find(parent, a), _uf_find(parent, b)
    if ra != rb:
        parent[rb] = ra


@lru_cache(maxsize=1 << 18)
def _compose_diagrams(g: PartitionDiagram, f: PartitionDiagram):
    """Stack g over f; returns (resulting diagram, interior part count)."""
    a, b, c = f.bottom, f.top, g.top
    parent = list(range(a + b + c))
    for block in f.blocks:
        first = block[0]
        for p in block[1:]:
            _uf_union(parent, first, p)
    for block in g.blocks:
        first = a + block[0]
        for p in block[1:]:
            _uf_union(parent, first, a + p)
    classes: Dict[int, list] = {}
    for v in range(a + b + c):
        classes.setdefault(_uf_find(parent, v), []).append(v)
    interior = 0
    out_blocks = []
    for members in classes.values():
        outer = [v if v < a else v - b for v in members if v < a or v >= a + b]
        if outer:
            out_blocks.append(tuple(outer))
        else:
            interior += 1
    # members come out ascending, and the outer relabelling is monotone
    return _raw_diagram(a, c, out_blocks), interior


def _tensor_parts(f, g) -> list:
    """The parts of f (x) g: g's points go right of f's in both rows."""
    a, b, c = f.bottom, f.top, g.bottom
    parts = [tuple(p if p < a else p + c for p in part) for part in f.parts]
    parts += [tuple(a + p if p < c else a + b + p for p in part) for part in g.parts]
    # both shifts are monotone, so the points of a part stay sorted
    return parts


def _dual_parts(f) -> list:
    """The parts of the flipped diagram: the rows trade places."""
    a, b = f.bottom, f.top
    return [tuple(sorted((p + b) if p < a else (p - a) for p in part)) for part in f.parts]


@lru_cache(maxsize=1 << 16)
def _tensor_diagrams(f: PartitionDiagram, g: PartitionDiagram) -> PartitionDiagram:
    return _raw_diagram(f.bottom + g.bottom, f.top + g.top, _tensor_parts(f, g))


@lru_cache(maxsize=1 << 16)
def _dual_diagram(f: PartitionDiagram) -> PartitionDiagram:
    return _raw_diagram(f.top, f.bottom, _dual_parts(f))


@lru_cache(maxsize=1 << 16)
def _closure_parts(f) -> int:
    """Components of the trace closure of an endomorphism diagram of any kind."""
    n = f.bottom
    parent = list(range(2 * n))
    for part in f.parts:
        first = part[0]
        for p in part[1:]:
            _uf_union(parent, first, p)
    for i in range(n):
        _uf_union(parent, i, n + i)
    return len({_uf_find(parent, v) for v in range(2 * n)}) if n else 0


# ---------------------------------------------------------------------------
# morphisms


def _hom_diagrams(a: int, b: int, cap: Optional[int] = None) -> Iterator[PartitionDiagram]:
    """The diagrams of Hom([A_a], [A_b]), lazily, after the cap check."""
    _check_cap(a + b, cap)
    # set_partitions yields the canonical encoding, so nothing to re-validate
    return (_raw_diagram(a, b, blocks) for blocks in set_partitions(a + b))


PARTITION = DiagramKind(
    name="partition",
    var="t",
    diagram=PartitionDiagram,
    field="blocks",
    doc_kind=None,
    compose=_compose_diagrams,
    tensor=_tensor_diagrams,
    dual=_dual_diagram,
    closure=_closure_parts,
    basis=_hom_diagrams,
)


class Morphism(LinComb):
    """A finite linear combination of partition diagrams a -> b."""

    __slots__ = ()
    kind = PARTITION
    # perfbench/tracer.py wraps these through vars(Morphism), so they are bound here
    __matmul__, tensor, trace = LinComb.__matmul__, LinComb.tensor, LinComb.trace


# ---------------------------------------------------------------------------
# generators


def zero(source: int, target: int, ring: RingTag = POLY_T) -> Morphism:
    return Morphism(source, target, ring, {})


def diagram_morphism(diagram: PartitionDiagram, ring: RingTag = POLY_T, coeff=1) -> Morphism:
    return Morphism(diagram.bottom, diagram.top, ring, {diagram: ring.from_fraction(coeff)})


def identity(n: int, ring: RingTag = POLY_T) -> Morphism:
    d = PartitionDiagram(n, n, tuple((i, n + i) for i in range(n)))
    return diagram_morphism(d, ring)


def permutation(sigma: Sequence[int], ring: RingTag = POLY_T) -> Morphism:
    """The diagram pairing bottom i with top sigma(i) (0-based)."""
    n = len(sigma)
    if sorted(sigma) != list(range(n)):
        raise ValueError("not a bijection")
    d = PartitionDiagram(n, n, tuple((i, n + sigma[i]) for i in range(n)))
    return diagram_morphism(d, ring)


def braiding(a: int, b: int, ring: RingTag = POLY_T) -> Morphism:
    """The block transposition [A_a] (x) [A_b] -> [A_b] (x) [A_a]."""
    n = a + b
    blocks = [(i, n + b + i) for i in range(a)] + [(a + j, n + j) for j in range(b)]
    return diagram_morphism(PartitionDiagram(n, n, tuple(blocks)), ring)


def ev(n: int, ring: RingTag = POLY_T) -> Morphism:
    d = PartitionDiagram(2 * n, 0, tuple((i, n + i) for i in range(n)))
    return diagram_morphism(d, ring)


def coev(n: int, ring: RingTag = POLY_T) -> Morphism:
    d = PartitionDiagram(0, 2 * n, tuple((i, n + i) for i in range(n)))
    return diagram_morphism(d, ring)


def mu(n: int, ring: RingTag = POLY_T) -> Morphism:
    """Multiplication [A_n] (x) [A_n] -> [A_n]: parts {i, n+i, i'}."""
    d = PartitionDiagram(2 * n, n, tuple((i, n + i, 2 * n + i) for i in range(n)))
    return diagram_morphism(d, ring)


def unit(n: int, ring: RingTag = POLY_T) -> Morphism:
    """Unit 1 -> [A_n]: n singleton top parts."""
    d = PartitionDiagram(0, n, tuple((i,) for i in range(n)))
    return diagram_morphism(d, ring)


def counit(n: int, ring: RingTag = POLY_T) -> Morphism:
    return unit(n, ring).dual()


def dim(n: int, ring: RingTag = POLY_T) -> RingElement:
    """Categorical dimension of [A_n] (= parameter^n)."""
    return identity(n, ring).trace()


# ---------------------------------------------------------------------------
# dense enumeration: hom bases, Gram matrices, negligibility


def set_partitions(n: int) -> Iterator[tuple]:
    """All set partitions of range(n) in restricted-growth order.

    Blocks come out sorted by minimum element, matching the canonical
    diagram encoding.
    """
    if n == 0:
        yield ()
        return
    rgs = [0] * n

    def rec(i: int, maxval: int):
        if i == n:
            blocks: Dict[int, list] = {}
            for p, b in enumerate(rgs):
                blocks.setdefault(b, []).append(p)
            yield tuple(tuple(blocks[k]) for k in sorted(blocks))
            return
        for v in range(maxval + 2):
            rgs[i] = v
            yield from rec(i + 1, max(maxval, v))

    yield from rec(1, 0)


def _check_cap(points: int, cap: Optional[int]):
    cap = DEFAULT_CAP if cap is None else cap
    if points > cap:
        raise CapExceededError(
            f"{points} points exceeds the configured cap {cap} (Bell growth)"
        )


def hom_basis(a: int, b: int, cap: Optional[int] = None) -> list:
    """All diagrams in Hom([A_a], [A_b]), Bell(a+b) of them."""
    return list(_hom_diagrams(a, b, cap))


def gram_matrix(a: int, b: int, ring: RingTag = POLY_T, cap: Optional[int] = None):
    """G[i][j] = trace(dual(basis_j) . basis_i) over the Hom(a, b) basis."""
    morphs = [diagram_morphism(d, ring) for d in hom_basis(a, b, cap)]
    duals = [m.dual() for m in morphs]
    return [[(dj @ mi).trace() for dj in duals] for mi in morphs]


is_negligible = negligible


# ---------------------------------------------------------------------------
# JSON interchange

morphism_to_dict = to_dict


def morphism_from_dict(obj) -> Morphism:
    return from_dict(obj, Morphism)

"""The Temperley-Lieb category: planar matchings over the loop rings.

Points use the same labelling as partition diagrams (bottom 0..a-1, top
a..a+b-1); planarity is checked against the boundary order of the disk.
Closed loops created by stacking evaluate to the loop parameter d, the
polynomial variable of the delta rings.  Morphisms are linear combinations
over the shared core in ``lincomb``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Tuple

from .coeff import RATFUN_D, RingElement, RingTag
from .errors import CapExceededError, ProjectorUndefinedError
from .lincomb import DiagramKind, LinComb, from_dict, negligible, to_dict
from .pcat import _closure_parts, _compose, _Diagram, _dual, _tensor

DEFAULT_STRAND_CAP = 16


class TLDiagram(_Diagram):
    """A non-crossing perfect matching of a+b boundary points.

    Stored like a partition diagram, as the restricted-growth word of its
    pairs; ``pairs`` is the canonical form (each pair ascending, ordered by
    minimum).
    """

    __slots__ = ()
    _cover_error = "pairs must perfectly match the point set"
    pairs = _Diagram.parts

    def __init__(self, bottom: int, top: int, pairs):
        if (bottom + top) % 2:
            raise ValueError("odd number of boundary points")
        super().__init__(bottom, top, pairs)
        if any(len(p) != 2 for p in self.pairs):
            raise ValueError(self._cover_error)
        # planar iff the pairs nest like brackets along the boundary
        open_pairs: List[int] = []
        for k in map(self.word.__getitem__, _boundary(bottom, top)):
            if open_pairs and open_pairs[-1] == k:
                open_pairs.pop()
            else:
                open_pairs.append(k)
        if open_pairs:
            raise ValueError("crossing pairs are not allowed")

    def __repr__(self):
        body = ",".join(f"({i},{j})" for i, j in self.pairs)
        return f"TL({self.bottom}->{self.top}; {body})"


def _boundary(a: int, b: int) -> List[int]:
    """The points in disk-boundary order: bottom left-to-right, then top right-to-left."""
    return [*range(a), *range(a + b - 1, a - 1, -1)]


# ---------------------------------------------------------------------------
# diagram-level operations: pcat's word kernels, cached per kind

_tl_compose = lru_cache(maxsize=1 << 17)(_compose)
_tl_tensor = lru_cache(maxsize=1 << 16)(_tensor)
_tl_dual = lru_cache(maxsize=1 << 16)(_dual)


def noncrossing_matchings(a: int, b: int, cap: Optional[int] = None) -> List[TLDiagram]:
    """All diagrams in Hom(a, b): Catalan((a+b)/2) when a+b is even."""
    cap = DEFAULT_STRAND_CAP if cap is None else cap
    if a + b > cap:
        raise CapExceededError(f"{a + b} boundary points exceeds cap {cap}")
    if (a + b) % 2:
        return []

    def rec(points: Tuple[int, ...]):
        """Non-crossing matchings of points listed in boundary order."""
        if not points:
            yield ()
            return
        for k in range(1, len(points), 2):
            for inner in rec(points[1:k]):
                for outer in rec(points[k + 1 :]):
                    yield ((points[0], points[k]),) + inner + outer

    return [TLDiagram(a, b, matching) for matching in rec(tuple(_boundary(a, b)))]


# ---------------------------------------------------------------------------
# morphisms

TL = DiagramKind(
    name="tl",
    var="d",
    diagram=TLDiagram,
    field="pairs",
    doc_kind="tl",
    compose=_tl_compose,
    tensor=_tl_tensor,
    dual=_tl_dual,
    closure=_closure_parts,
    basis=noncrossing_matchings,
)


class TLMorphism(LinComb):
    """A finite linear combination of planar matchings a -> b."""

    __slots__ = ()
    kind = TL
    # perfbench/tracer.py wraps this through vars(TLMorphism), so it is bound here
    __matmul__ = LinComb.__matmul__


# ---------------------------------------------------------------------------
# generators and hom bases


def tl_identity(n: int, ring: RingTag = RATFUN_D) -> TLMorphism:
    d = TLDiagram(n, n, tuple((i, n + i) for i in range(n)))
    return TLMorphism(n, n, ring, {d: ring.one()})


def tl_e(i: int, n: int, ring: RingTag = RATFUN_D) -> TLMorphism:
    """Cup-cap generator on strands i, i+1 (1-based, i < n)."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"e_{i} undefined on {n} strands")
    return TLMorphism(n, n, ring, {_e_diagram(i, n): ring.one()})


def _e_diagram(i: int, n: int) -> TLDiagram:
    pairs = [(i - 1, i), (n + i - 1, n + i)]
    pairs += [(k, n + k) for k in range(n) if k not in (i - 1, i)]
    return TLDiagram(n, n, tuple(pairs))


def standard_generators(n: int) -> List[TLDiagram]:
    """The diagrams of e_1 .. e_{n-1}, which generate End(n)."""
    return [_e_diagram(i, n) for i in range(1, n)]


def tl_hom_dimension(a: int, b: int, cap: Optional[int] = None) -> int:
    return len(noncrossing_matchings(a, b, cap))


# ---------------------------------------------------------------------------
# quantum integers and Jones-Wenzl projectors


def quantum_int(n: int, ring: RingTag = RATFUN_D) -> RingElement:
    """[n] by the recursion [0] = 0, [1] = 1, [n+1] = d [n] - [n-1]."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    prev, cur = ring.zero(), ring.one()
    if n == 0:
        return prev
    param = ring.parameter()
    for _ in range(n - 1):
        prev, cur = cur, param * cur - prev
    return cur


def l_q(ring: RingTag, search_bound: int = 64) -> Optional[int]:
    """Smallest l >= 1 with [l+1] = 0 in the ring, None for generic rings.

    Polynomial and rational-function rings are generic.  For bound
    rational values and number fields the vanishing level, if any, is
    within the search bound at desk scale (rational loop values vanish
    only at 0 and +-1; number fields are built from levels <= 24).
    """
    if ring.generic:
        return None
    for l in range(1, search_bound + 1):
        if not quantum_int(l + 1, ring):
            return l
    return None


@lru_cache(maxsize=None)
def jw(n: int, ring: RingTag = RATFUN_D) -> TLMorphism:
    """The projector on n strands killed by every cup-cap generator.

    Built by the single-step recursion
    jw(n) = jw(n-1) (x) id - ([n-1]/[n]) (jw(n-1) (x) id) e_{n-1} (jw(n-1) (x) id),
    defined when [k] is invertible for 2 <= k <= n.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n <= 1:
        return tl_identity(n, ring)
    for k in range(2, n + 1):
        if not quantum_int(k, ring):
            raise ProjectorUndefinedError(
                f"jw({n}) undefined: quantum integer [{k}] vanishes"
            )
    prev = jw(n - 1, ring)
    wide = prev.tensor(tl_identity(1, ring))
    ratio = quantum_int(n - 1, ring) / quantum_int(n, ring)
    return wide - ((wide @ tl_e(n - 1, n, ring)) @ wide).scale(ratio)


def steinberg(l: int, ring: RingTag) -> TLMorphism:
    """The projector on l-1 strands at vanishing level l (trace [l] != 0)."""
    if l < 2:
        raise ValueError("l must be at least 2")
    if l_q(ring) != l:
        raise ProjectorUndefinedError(f"ring does not have vanishing level {l}")
    return jw(l - 1, ring)


def jw_negligible(n: int, ring: RingTag) -> bool:
    """Whether the n-strand projector has zero categorical trace ([n+1] = 0)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return not quantum_int(n + 1, ring)


tl_negligible = negligible


# ---------------------------------------------------------------------------
# block linkage


def tl_block(i: int, l: Optional[int]) -> str:
    """Canonical block id for the weight-i indecomposable at level l.

    Generic rings (l None): every weight is its own semisimple block.
    At level l: weights with [i+1] = 0 (on a wall) form singleton
    semisimple blocks; the rest are grouped by the reflection orbit
    i ~ 2m(l+1) - 2 - i, labelled by the orbit minimum.
    """
    if i < 0:
        raise ValueError("weights are nonnegative")
    if l is None:
        return f"generic:{i}"
    if l < 2:
        raise ValueError("l must be at least 2")
    ell = l + 1
    if (i + 1) % ell == 0:
        return f"wall:{i}"
    period = 2 * ell
    rep = min(i % period, (-2 - i) % period)
    return f"reg:{rep}"


# ---------------------------------------------------------------------------
# JSON interchange


tl_to_dict = to_dict


def tl_from_dict(obj) -> TLMorphism:
    return from_dict(obj, TLMorphism)

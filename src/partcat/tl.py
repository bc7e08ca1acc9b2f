"""The Temperley-Lieb category: planar matchings over the loop rings.

Points use the same labelling as partition diagrams (bottom 0..a-1, top
a..a+b-1); planarity is checked against the boundary order of the disk.
Closed loops created by stacking evaluate to the loop parameter d, the
polynomial variable of the delta rings.  Morphisms are linear combinations
over the shared core in ``lincomb``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .coeff import RATFUN_D, RingElement, RingTag
from .errors import CapExceededError, ProjectorUndefinedError
from .lincomb import DiagramKind, LinComb, compose, from_dict, negligible, tensor, to_dict, trace
from .pcat import _closure_parts, _dual_parts, _tensor_parts

DEFAULT_STRAND_CAP = 16


@dataclass(frozen=True)
class TLDiagram:
    """A non-crossing perfect matching of a+b boundary points."""

    bottom: int
    top: int
    pairs: tuple

    def __post_init__(self):
        canon = tuple(sorted(tuple(sorted(p)) for p in self.pairs))
        object.__setattr__(self, "pairs", canon)
        n = self.bottom + self.top
        if n % 2:
            raise ValueError("odd number of boundary points")
        seen = sorted(q for p in canon for q in p)
        if seen != list(range(n)):
            raise ValueError("pairs must perfectly match the point set")
        order = _boundary_positions(self.bottom, self.top)
        arcs = sorted((min(order[i], order[j]), max(order[i], order[j])) for i, j in canon)
        for a in range(len(arcs)):
            for b in range(a + 1, len(arcs)):
                (x1, y1), (x2, y2) = arcs[a], arcs[b]
                if x1 < x2 < y1 < y2:
                    raise ValueError("crossing pairs are not allowed")

    @property
    def points(self) -> int:
        return self.bottom + self.top

    @property
    def parts(self) -> tuple:
        return self.pairs

    def __repr__(self):
        body = ",".join(f"({i},{j})" for i, j in self.pairs)
        return f"TL({self.bottom}->{self.top}; {body})"


def _boundary_positions(a: int, b: int) -> Dict[int, int]:
    """Walk the disk boundary: bottom left-to-right, then top right-to-left."""
    out = {i: i for i in range(a)}
    for j in range(b):
        out[a + b - 1 - j] = a + j
    return out


def _raw_tl(bottom: int, top: int, pairs) -> TLDiagram:
    """Construct without re-validation; each pair must be sorted."""
    d = object.__new__(TLDiagram)
    object.__setattr__(d, "bottom", bottom)
    object.__setattr__(d, "top", top)
    object.__setattr__(d, "pairs", tuple(sorted(pairs)))
    return d


# ---------------------------------------------------------------------------
# diagram-level operations


@lru_cache(maxsize=1 << 17)
def _tl_compose(g: TLDiagram, f: TLDiagram):
    """Stack g over f; returns (diagram, closed loop count)."""
    a, b, c = f.bottom, f.top, g.top
    link: Dict[int, List[int]] = {v: [] for v in range(a + b + c)}
    for i, j in f.pairs:
        link[i].append(j)
        link[j].append(i)
    for i, j in g.pairs:
        link[a + i].append(a + j)
        link[a + j].append(a + i)
    outer = [v for v in range(a + b + c) if v < a or v >= a + b]
    seen = set()
    pairs = []
    for start in outer:
        if start in seen:
            continue
        seen.add(start)
        prev, cur = start, link[start][0]
        while a <= cur < a + b:
            seen.add(cur)
            nxt = [w for w in link[cur] if w != prev]
            prev, cur = cur, nxt[0] if nxt else prev
        seen.add(cur)
        pairs.append(
            tuple(
                sorted(v if v < a else v - b for v in (start, cur))
            )
        )
    loops = 0
    for v in range(a, a + b):
        if v in seen:
            continue
        loops += 1
        prev, cur = v, link[v][0]
        seen.add(v)
        while cur != v:
            seen.add(cur)
            nxt = [w for w in link[cur] if w != prev]
            # a doubled edge closes a two-point loop: step back to finish
            prev, cur = cur, (nxt or [prev])[0]
    return _raw_tl(a, c, pairs), loops


@lru_cache(maxsize=1 << 16)
def _tl_tensor(f: TLDiagram, g: TLDiagram) -> TLDiagram:
    return _raw_tl(f.bottom + g.bottom, f.top + g.top, _tensor_parts(f, g))


@lru_cache(maxsize=1 << 16)
def _tl_dual(f: TLDiagram) -> TLDiagram:
    return _raw_tl(f.top, f.bottom, _dual_parts(f))


def noncrossing_matchings(a: int, b: int, cap: Optional[int] = None) -> List[TLDiagram]:
    """All diagrams in Hom(a, b): Catalan((a+b)/2) when a+b is even."""
    cap = DEFAULT_STRAND_CAP if cap is None else cap
    if a + b > cap:
        raise CapExceededError(f"{a + b} boundary points exceeds cap {cap}")
    if (a + b) % 2:
        return []
    order = _boundary_positions(a, b)
    by_position = {pos: point for point, pos in order.items()}

    def rec(positions: Tuple[int, ...]):
        if not positions:
            yield ()
            return
        first = positions[0]
        for k in range(1, len(positions), 2):
            left = positions[1:k]
            right = positions[k + 1 :]
            for lhs in rec(left):
                for rhs in rec(right):
                    yield ((first, positions[k]),) + lhs + rhs

    out = []
    for matching in rec(tuple(range(a + b))):
        pairs = tuple(
            tuple(sorted((by_position[x], by_position[y]))) for x, y in matching
        )
        out.append(TLDiagram(a, b, pairs))
    return out


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
    pairs = [(i - 1, i), (n + i - 1, n + i)]
    pairs += [(k, n + k) for k in range(n) if k not in (i - 1, i)]
    d = TLDiagram(n, n, tuple(pairs))
    return TLMorphism(n, n, ring, {d: ring.one()})


def tl_hom_dimension(a: int, b: int, cap: Optional[int] = None) -> int:
    return len(noncrossing_matchings(a, b, cap))


tl_compose = compose
tl_tensor = tensor
tl_trace = trace


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
    if ring.kind in ("poly", "ratfun"):
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

"""Partition diagrams and the symmetric tensor category they span.

A diagram in Hom([A_a], [A_b]) is a set partition of a+b points, encoded
0..a-1 for the bottom (source) row and a..a+b-1 for the top (target) row,
and stored as its restricted-growth word (block index per point).  The
word kernels here (compose, tensor, dual, trace closure) serve the
Temperley-Lieb kind too.
Morphisms are finite linear combinations of diagrams over one of the exact
coefficient rings (the shared core in ``lincomb``); composition multiplies
by parameter^l where l counts the interior parts of the stacked join.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import factorial
from typing import Iterator, Optional, Sequence

from .coeff import POLY_T, RingElement, RingTag
from .errors import CapExceededError
from .lincomb import DiagramKind, LinComb, from_dict, negligible, to_dict

DEFAULT_CAP = 10


# ---------------------------------------------------------------------------
# diagrams


class _Diagram:
    """A set partition of bottom+top labelled points, of either diagram kind.

    Stored as its restricted-growth word: ``word[p]`` is the index of point
    p's block, blocks numbered by first occurrence, and ``nblocks`` counts
    them.  Equality and the hash (computed once) use ``(bottom, word)``;
    the canonical ``parts`` (each ascending, ordered by minimum) are derived
    on first use.  Diagrams are values: never assign to one.
    """

    __slots__ = ("bottom", "top", "word", "nblocks", "_hash", "_parts")
    _cover_error = "parts must partition the point set"

    def __init__(self, bottom: int, top: int, parts):
        if bottom < 0 or top < 0:
            raise ValueError("negative diagram sizes")
        canon = sorted([tuple(sorted(part)) for part in parts])
        if not all(canon):
            raise ValueError("empty block")
        if sorted([p for part in canon for p in part]) != list(range(bottom + top)):
            raise ValueError(self._cover_error)
        word = [0] * (bottom + top)
        for k, part in enumerate(canon):
            for p in part:
                word[p] = k
        self.bottom, self.top, self.word, self.nblocks = bottom, top, tuple(word), len(canon)
        self._hash = hash((bottom, self.word))
        self._parts = tuple(canon)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.bottom == other.bottom and self.word == other.word

    def __hash__(self):
        return self._hash

    @property
    def parts(self) -> tuple:
        if self._parts is None:
            self._parts = _blocks_of(self.word, self.nblocks)
        return self._parts


_new = object.__new__


def _raw(cls, bottom: int, top: int, word: tuple, nblocks: int):
    """A diagram of type ``cls`` from a restricted-growth word, not re-validated."""
    d = _new(cls)
    d.bottom, d.top, d.word, d.nblocks = bottom, top, word, nblocks
    d._hash = hash((bottom, word))
    d._parts = None
    return d


def _blocks_of(word: tuple, nblocks: int) -> tuple:
    """The blocks of a restricted-growth word, ascending and ordered by minimum."""
    blocks = [[] for _ in range(nblocks)]
    for p, k in enumerate(word):
        blocks[k].append(p)
    return tuple(map(tuple, blocks))


class PartitionDiagram(_Diagram):
    """A set partition of a+b labelled points, as a morphism [A_a] -> [A_b].

    ``blocks`` is the canonical form: each block ascending, blocks ordered
    by their minimum.
    """

    __slots__ = ()
    _cover_error = "blocks must partition the point set"
    blocks = _Diagram.parts

    def __repr__(self):
        body = ",".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)
        return f"Diagram({self.bottom}->{self.top}; {body})"


# ---------------------------------------------------------------------------
# kernels over words, shared with the Temperley-Lieb kind (each returns
# diagrams of its arguments' type)


def _relabel(labels) -> tuple:
    """Renumber labels by first occurrence: (restricted-growth word, block count)."""
    first: dict = {}
    number = first.setdefault
    return tuple([number(x, len(first)) for x in labels]), len(first)


def _join(parent: list, pairs) -> int:
    """Union each pair of labels; returns how many unions merged two classes.

    Every root is the least label of its class, so every pointer goes to a
    smaller label and one ascending pass of ``parent[v] = parent[parent[v]]``
    afterwards maps each label to its root.
    """
    merges = 0
    for x, y in pairs:
        while parent[x] != x:
            x = parent[x]
        while parent[y] != y:
            y = parent[y]
        if x != y:
            if x < y:
                parent[y] = x
            else:
                parent[x] = y
            merges += 1
    return merges


def _compose(g, f):
    """Stack g over f; returns (g after f, the number of closed components).

    Union-find runs over the blocks, f's numbered 0..nf-1 and g's after
    them, joined through the middle points.  Renumbering the outer points'
    classes by first occurrence gives the canonical word; the classes that
    touch no outer point are the closed components.
    """
    a, b, nf = f.bottom, f.top, f.nblocks
    fw, gw = f.word, g.word
    size = nf + g.nblocks
    parent = list(range(size))
    merges = _join(parent, zip(fw[a:], [nf + y for y in gw[:b]]))
    for v in range(size):
        parent[v] = parent[parent[v]]
    # _relabel fused with the root lookup: a separate pass costs this hot
    # kernel about a tenth of its time
    first: dict = {}
    number = first.setdefault
    word = [number(parent[x], len(first)) for x in fw[:a]]
    word += [number(parent[nf + y], len(first)) for y in gw[b:]]
    nblocks = len(first)
    return _raw(type(f), a, g.top, tuple(word), nblocks), size - merges - nblocks


def _tensor(f, g):
    """f (x) g: g's points go right of f's in both rows."""
    a, c, nf = f.bottom, g.bottom, f.nblocks
    fw, gw = f.word, [nf + x for x in g.word]
    word, nblocks = _relabel([*fw[:a], *gw[:c], *fw[a:], *gw[c:]])
    return _raw(type(f), a + c, f.top + g.top, word, nblocks)


def _dual(f):
    """The flipped diagram: the rows trade places."""
    a, w = f.bottom, f.word
    word, nblocks = _relabel(w[a:] + w[:a])
    return _raw(type(f), f.top, a, word, nblocks)


_compose_diagrams = lru_cache(maxsize=1 << 18)(_compose)
_tensor_diagrams = lru_cache(maxsize=1 << 16)(_tensor)
_dual_diagram = lru_cache(maxsize=1 << 16)(_dual)


@lru_cache(maxsize=1 << 16)
def _closure_parts(f) -> int:
    """Components of the trace closure of an endomorphism diagram of any kind."""
    n, w = f.bottom, f.word
    return f.nblocks - _join(list(range(f.nblocks)), zip(w[:n], w[n:]))


# ---------------------------------------------------------------------------
# morphisms


def _hom_diagrams(a: int, b: int, cap: Optional[int] = None) -> Iterator[PartitionDiagram]:
    """The diagrams of Hom([A_a], [A_b]), lazily, after the size and cap checks."""
    if a < 0 or b < 0:
        raise ValueError("negative diagram sizes")
    _check_cap(a + b, cap)
    return (_raw(PartitionDiagram, a, b, word, k) for word, k in _rg_words(a + b))


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
# orbit coordinates
#
# The orbit basis of Benkart-Halverson (*Partition algebras and the
# invariant theory of the symmetric group*, 2019) is defined by
# d_pi = sum over the coarsenings rho of pi of o_rho.  At t = N, o_pi sends
# an index tuple to those whose equal indices are exactly pi's blocks.  The
# change of basis is unitriangular over Z, so an equality checked in orbit
# coordinates is an exact certificate over the ring.  Orbit terms are
# stored as the PartitionDiagram of their set partition.


def _matchings(left: tuple, right: tuple) -> Iterator[tuple]:
    """Every partial matching of ``left`` with ``right``, as (l, r) pairs."""
    if not left:
        yield ()
        return
    x, rest = left[0], left[1:]
    yield from _matchings(rest, right)
    for i, y in enumerate(right):
        for m in _matchings(rest, right[:i] + right[i + 1 :]):
            yield ((x, y),) + m


def _merges(cls, bottom: int, top: int, labels: list, left: tuple, right: tuple) -> tuple:
    """The diagrams whose blocks are the classes of ``labels``, with the
    pairs of each partial matching of ``left`` with ``right`` merged."""
    out = []
    for m in _matchings(left, right):
        into = dict((r, l) for l, r in m)
        word, nblocks = _relabel([into.get(x, x) for x in labels])
        out.append(_raw(cls, bottom, top, word, nblocks))
    return tuple(out)


@lru_cache(maxsize=1 << 16)
def _orbit_compose(g, f):
    """o_g after o_f as (c, the nu_M): o_g o_f = sum of (t - |nu_M|)_c o_{nu_M}.

    The product is 0, returned as (0, ()), unless f's top row and g's
    bottom row induce the same partition of the middle points; then each
    middle class joins one block of f to one of g.  The nu_M are the stack
    with each pair of a partial matching M of f's bottom-only blocks with
    g's top-only blocks merged, and c counts the joined blocks that touch
    only the middle: their indices must differ from each other and from
    the |nu_M| outer blocks' indices.
    """
    a, b, nf = f.bottom, f.top, f.nblocks
    fw, gw = f.word, g.word
    link: dict = {}  # g's middle block -> f's
    back: dict = {}
    for x, y in zip(fw[a:], gw[:b]):
        if link.setdefault(y, x) != x or back.setdefault(x, y) != y:
            return 0, ()
    lower, upper = set(fw[:a]), set(gw[b:])
    closed = sum(1 for x, y in back.items() if x not in lower and y not in upper)
    bottom_only = tuple(sorted(lower - back.keys()))
    top_only = tuple(sorted(nf + y for y in upper - link.keys()))
    labels = [*fw[:a], *[link[y] if y in link else nf + y for y in gw[b:]]]
    return closed, _merges(type(f), a, g.top, labels, bottom_only, top_only)


@lru_cache(maxsize=1 << 16)
def _orbit_tensor(f, g) -> tuple:
    """The terms of o_f (x) o_g: f beside g with the pairs of each partial
    matching of f's blocks with g's merged."""
    a, c, nf = f.bottom, g.bottom, f.nblocks
    fw, gw = f.word, [nf + x for x in g.word]
    labels = [*fw[:a], *gw[:c], *fw[a:], *gw[c:]]
    right = tuple(range(nf, nf + g.nblocks))
    return _merges(type(f), a + c, f.top + g.top, labels, tuple(range(nf)), right)


@lru_cache(maxsize=1 << 12)
def _coarsenings(d) -> tuple:
    """Every coarsening of d, in the order of the set partitions P of d's
    blocks that ``_rg_words(d.nblocks)`` gives: P's restricted-growth word
    composed with d's is again restricted-growth."""
    cls, a, b, w = type(d), d.bottom, d.top, d.word
    return tuple(_raw(cls, a, b, tuple([p[x] for x in w]), k) for p, k in _rg_words(d.nblocks))


@lru_cache(maxsize=16)
def _mobius(k: int) -> tuple:
    """The Moebius function mu(0, P) of the partition lattice, for each set
    partition P of k points in ``_rg_words`` order: the product over P's
    blocks of (-1)^(m-1) (m-1)!, for a block of m points."""
    out = []
    for p, _ in _rg_words(k):
        weight = 1
        for m in Counter(p).values():
            weight *= (-1) ** (m - 1) * factorial(m - 1)
        out.append(weight)
    return tuple(out)


def _falling(ring: RingTag, k: int, c: int):
    """The payload (t - k)(t - k - 1)...(t - k - c + 1), t the ring's parameter."""
    sub, mul, embed = ring.sub, ring.mul, ring.embed
    out = ring.one_payload
    for i in range(k, k + c):
        out = mul(out, sub(ring.parameter_payload(), embed(i)))
    return out


ORBIT = DiagramKind(
    name="orbit",
    var="t",
    diagram=PartitionDiagram,
    field="blocks",
    doc_kind=None,
    compose=None,  # a product of orbit elements is a sum: OrbitMorphism's own @
    tensor=None,  # and tensor
    dual=_dual_diagram,  # the flip maps o_pi to o_(flipped pi)
    closure=None,  # no trace or basis in these coordinates: use from_orbit
    basis=None,
)


class OrbitMorphism(LinComb, reader=False):
    """A morphism a -> b in orbit coordinates: a combination of the o_pi.

    Sums, scalar multiples, equality, the dual and specialization are the
    shared core's.  There is no document kind: convert with ``from_orbit``.
    """

    __slots__ = ()
    kind = ORBIT

    def __matmul__(self, other):
        """Composition self after other, by the orbit product."""
        self._require_composable(other)
        ring = self.ring
        mul, addmul, acc_value, is_zero = ring.mul, ring.addmul, ring.acc_value, ring.is_zero
        acc: dict = {}
        get = acc.get
        for fd, fc in other.terms.items():
            for gd, gc in self.terms.items():
                closed, products = _orbit_compose(gd, fd)
                for d in products:
                    x = mul(gc, _falling(ring, d.nblocks, closed)) if closed else gc
                    acc[d] = addmul(get(d), fc, x, 0)
        terms = {}
        for d, sums in acc.items():
            coeff = acc_value(sums)
            if not is_zero(coeff):
                terms[d] = coeff
        return self._new(other.source, self.target, terms)

    def tensor(self, other):
        self._require_same(other)
        mul, is_zero = self.ring.mul, self.ring.is_zero
        acc = {}
        for fd, fc in self.terms.items():
            for gd, gc in other.terms.items():
                coeff = mul(fc, gc)
                if not is_zero(coeff):
                    # a product's restrictions to the two sides give back
                    # (fd, gd), and its cross joins the matching: no repeats
                    for d in _orbit_tensor(fd, gd):
                        acc[d] = coeff
        return self._new(self.source + other.source, self.target + other.target, acc)


def to_orbit(m: Morphism) -> OrbitMorphism:
    """m in orbit coordinates: each diagram is the sum over its coarsenings."""
    add = m.ring.add
    terms: dict = {}
    for d, c in m.terms.items():
        for rho in _coarsenings(d):
            terms[rho] = add(terms[rho], c) if rho in terms else c
    return OrbitMorphism.from_payloads(m.source, m.target, m.ring, terms)


def from_orbit(m: OrbitMorphism) -> Morphism:
    """m in diagram coordinates, by Moebius inversion over coarsenings."""
    ring = m.ring
    add, mul, embed = ring.add, ring.mul, ring.embed
    terms: dict = {}
    for d, c in m.terms.items():
        for rho, weight in zip(_coarsenings(d), _mobius(d.nblocks)):
            x = mul(c, embed(weight))
            terms[rho] = add(terms[rho], x) if rho in terms else x
    return Morphism.from_payloads(m.source, m.target, ring, terms)


def permute_top(sigma: Sequence[int], m: OrbitMorphism) -> OrbitMorphism:
    """``to_orbit(permutation(sigma)) @ m``, without expanding the permutation.

    Composing with a permutation diagram moves m's top point i to top
    sigma(i).  The relabelling preserves coarsening, so it takes o_f to
    o_(sigma f) with the same coefficient.
    """
    a, b = m.source, m.target
    if sorted(sigma) != list(range(b)):
        raise ValueError(f"not a permutation of the {b} top points")
    terms = {}
    for d, c in m.terms.items():
        w = d.word
        labels = list(w)
        for i in range(b):
            labels[a + sigma[i]] = w[a + i]
        word, k = _relabel(labels)
        terms[_raw(PartitionDiagram, a, b, word, k)] = c
    return m._new(a, b, terms)


# ---------------------------------------------------------------------------
# generators


def zero(source: int, target: int, ring: RingTag = POLY_T) -> Morphism:
    return Morphism(source, target, ring, {})


def diagram_morphism(diagram: PartitionDiagram, ring: RingTag = POLY_T, coeff=1) -> Morphism:
    return Morphism(diagram.bottom, diagram.top, ring, {diagram: coeff})


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


def standard_generators(n: int) -> list:
    """The diagrams s_i, p_i, b_i (in that order) that generate End([A_n])
    (Halverson-Ram, *Partition algebras*, 2005): s_i swaps strands i and
    i+1, p_i cuts strand i, b_i joins strands i and i+1 in one block."""

    def replace(strands, blocks):
        kept = [(k, n + k) for k in range(n) if k not in strands]
        return PartitionDiagram(n, n, tuple(kept + blocks))

    swaps = [replace((i, i + 1), [(i, n + i + 1), (i + 1, n + i)]) for i in range(n - 1)]
    cuts = [replace((i,), [(i,), (n + i,)]) for i in range(n)]
    joins = [replace((i, i + 1), [(i, i + 1, n + i, n + i + 1)]) for i in range(n - 1)]
    return swaps + cuts + joins


def dim(n: int, ring: RingTag = POLY_T) -> RingElement:
    """Categorical dimension of [A_n] (= parameter^n)."""
    return identity(n, ring).trace()


# ---------------------------------------------------------------------------
# dense enumeration: hom bases, Gram matrices, negligibility


def _rg_words(n: int) -> Iterator[tuple]:
    """(word, block count) for every restricted-growth word of length n, in
    lexicographic order: word[0] = 0 and word[i] <= 1 + max(word[:i]).

    An odometer steps through the prefixes one short of n; each prefix
    yields its words with every possible last label.
    """
    if n == 0:
        yield (), 0
        return
    word = [0] * (n - 1)
    blocks = [1] * (n - 1)  # blocks[i]: block count of word[:i + 1]
    while True:
        prefix = tuple(word)
        k = blocks[-1] if word else 0
        for v in range(k):
            yield prefix + (v,), k
        yield prefix + (k,), k + 1
        i = n - 2  # the last point that can still take a larger label
        while i > 0 and word[i] == blocks[i - 1]:
            i -= 1
        if i <= 0:
            return
        word[i] += 1
        blocks[i] = blocks[i - 1] + (word[i] == blocks[i - 1])
        word[i + 1 :] = [0] * (n - 2 - i)
        blocks[i + 1 :] = [blocks[i]] * (n - 2 - i)


def set_partitions(n: int) -> Iterator[tuple]:
    """All set partitions of range(n) in restricted-growth order.

    Blocks come out sorted by minimum element, matching the canonical
    diagram encoding.
    """
    for word, k in _rg_words(n):
        yield _blocks_of(word, k)


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

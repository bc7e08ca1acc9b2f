"""Finite-dimensional algebra toolkit over the exact coefficient fields.

Endomorphism algebras of small diagram objects are captured as sparse
structure-constant tables.  The radical is the kernel of the regular
trace form (characteristic zero), idempotents are split in the
semisimple quotient and Newton-lifted back, and primitive summands are
labelled by pairing ranks against tensor powers and symmetrizer cuts.

Algebra elements are sparse dicts {basis index: scalar}.  Scalars are
payloads of the algebra's ring ``tag``, and all their arithmetic and zero
tests go through that ring (see :class:`~partcat.coeff.RingTag`).  Every
linear solve here (radical, quotient projection, spans, minimal
polynomials, commutants, corner coordinates, pairing ranks) goes through
:mod:`partcat.linalg`.

Building a FinDimAlgebra certifies its table: the unit is checked as a
two-sided identity on every basis element, and associativity is checked
completely by Light's test (Clifford-Preston, *The Algebraic Theory of
Semigroups* I, 1961).  The elements a with (xa)y = x(ay) for all x, y
form a subalgebra, so it suffices to check every triple (b_i, g, b_k)
with g in a generating set S: dim^2 |S| triples, not dim^3.  S is itself
certified: a walk from the unit by right multiplication by S spans the
whole algebra.  End algebras offer their standard generators (e_i; s_i,
p_i, b_i) first; the walk adds basis elements wherever it stalls.

The images of S generate the semisimple quotient Q = A/rad, so the
center Z(Q) is their commutant: one elimination over |S| constraints,
with no sampling and no check loop (the standard reduction of
Friedl-Ronyai, *Polynomial time solutions of some problems in
computational algebra*, 1985).  The split of an idempotent e takes the
central idempotents of eQe from e Z(Q) all at once, then splits each
matrix component by zero divisors.
"""

from __future__ import annotations

import math
import random
from dataclasses import InitVar, dataclass
from fractions import Fraction
from functools import reduce
from typing import Callable, Dict, List, Optional, Sequence

from .coeff import RATFUN_D, RATFUN_T, RingElement, RingTag, bound_q, tag_to_json
from .coeff import _pderiv, _pdivmod, _peval, _pgcd, _pscale  # exact coefficient-tuple helpers
from .errors import (
    AmbiguousSummandError,
    CapExceededError,
    SplitError,
    TagMismatchError,
)
from .linalg import Span, kernel, rank
from .lincomb import _powers, to_dict
from .pcat import Morphism, hom_basis
from .young import YoungDiagram, partitions_of, pt_power_idempotent
from . import pcat, tl

PARTITION_DIM_CAP = 250  # Bell(2n) bound: n <= 3
TL_STRAND_CAP = 6


@dataclass
class FinDimAlgebra:
    """Basis-indexed structure constants over an exact field.

    ``generators`` holds the basis indices that the associativity check
    certified as generating the algebra.
    """

    tag: RingTag
    labels: list
    table: list  # table[i][j] = {k: coefficient payload}
    unit: dict  # sparse vector
    kind: str
    to_morphism_fn: Optional[Callable] = None
    candidates: InitVar[Sequence[int]] = ()  # basis indices tried first as generators

    def __post_init__(self, candidates):
        self.dim = len(self.labels)
        self._traces = None
        self._radical = None
        self._quotient = None
        self._flat = None  # for a monomial table: per cell, its one (k, coefficient) or None
        if all(len(cell) <= 1 for row in self.table for cell in row):
            self._flat = [[next(iter(cell.items()), None) for cell in row] for row in self.table]
        self._check_unit()
        self.generators = self._generators(candidates)
        self._check_associativity()

    # -- arithmetic on sparse vectors -----------------------------------

    def mul(self, x: dict, y: dict) -> dict:
        ring = self.tag
        add, mul, is_zero = ring.add, ring.mul, ring.is_zero
        acc: dict = {}
        flat = self._flat
        if flat is not None:
            for i, xi in x.items():
                row = flat[i]
                for j, yj in y.items():
                    cell = row[j]
                    if cell is None:
                        continue
                    k, s = cell
                    c = mul(mul(xi, yj), s)
                    v = acc.get(k)
                    if v is None:
                        if not is_zero(c):
                            acc[k] = c
                    else:
                        v = add(v, c)
                        if is_zero(v):
                            del acc[k]
                        else:
                            acc[k] = v
            return acc
        table = self.table
        for i, xi in x.items():
            row = table[i]
            for j, yj in y.items():
                c = mul(xi, yj)
                for k, s in row[j].items():
                    v = acc.get(k)
                    v = mul(c, s) if v is None else add(v, mul(c, s))
                    if is_zero(v):
                        acc.pop(k, None)
                    else:
                        acc[k] = v
        return acc

    def add(self, x: dict, y: dict) -> dict:
        one = self.tag.one_payload
        return _combine(self.tag, {0: one, 1: one}, (x, y))

    def scale(self, x: dict, c) -> dict:
        """c x, for c an element of the algebra's ring or a rational."""
        return _combine(self.tag, {0: self.tag.coerce(c)}, (x,))

    def sub(self, x: dict, y: dict) -> dict:
        one = self.tag.one_payload
        return _combine(self.tag, {0: one, 1: self.tag.neg(one)}, (x, y))

    def is_idempotent(self, x: dict) -> bool:
        return self.mul(x, x) == x

    # -- conversions ------------------------------------------------------

    def from_morphism(self, m) -> dict:
        if m.ring != self.tag:
            raise TagMismatchError(f"{m.ring} vs {self.tag}")
        index = {lbl: i for i, lbl in enumerate(self.labels)}
        out = {}
        for d, c in m.terms.items():
            if d not in index:
                raise ValueError("morphism is not supported on the algebra basis")
            out[index[d]] = c
        return out

    def to_morphism(self, vec: dict):
        if self.to_morphism_fn is None:
            raise ValueError("this algebra has no diagram realization")
        return self.to_morphism_fn(vec)

    # -- construction checks -----------------------------------------------

    def _check_unit(self):
        for i in range(self.dim):
            b = {i: self.tag.one_payload}
            if self.mul(self.unit, b) != b or self.mul(b, self.unit) != b:
                raise ValueError("unit is not a two-sided identity")

    def _generators(self, candidates: Sequence[int]) -> List[int]:
        """Basis indices S that generate the algebra.

        The certificate is a walk from the unit by right multiplication by
        S that spans every basis element.  Each candidate, then each basis
        element, that the walk has not yet reached joins S.
        """
        one = self.tag.one_payload
        span = Span(self.tag)
        span.add(self.unit)
        reached = [self.unit]  # every element here has been multiplied by gens
        gens: List[int] = []
        for g in [*candidates, *range(self.dim)]:
            if span.dim == self.dim:
                break
            if span.contains({g: one}):
                continue
            gens.append(g)
            old = len(reached)
            for r, x in enumerate(reached):  # the loop reaches what it appends
                for h in gens if r >= old else (g,):
                    w = self.mul(x, {h: one})
                    if span.add(w):
                        reached.append(w)
        return gens

    def _check_associativity(self):
        """Light's test: (b_i g) b_k = b_i (g b_k) for every generator g.

        The elements a with (xa)y = x(ay) for all x, y form a subalgebra
        that contains the unit, so it is the whole algebra once it
        contains a generating set.
        """
        ring, table = self.tag, self.table
        columns = list(zip(*table))  # columns[k][m] = table[m][k]
        for j in self.generators:
            g_row = table[j]
            for i, row in enumerate(table):
                ig = row[j]
                for k, column in enumerate(columns):
                    if _combine(ring, ig, column) != _combine(ring, g_row[k], row):
                        raise ValueError(
                            f"structure constants not associative at {(i, j, k)}"
                        )

    # -- regular representation ---------------------------------------------

    def regular_traces(self) -> list:
        """Tr of left multiplication by each basis element."""
        if self._traces is None:
            add, zero = self.tag.add, self.tag.zero_payload
            self._traces = [
                reduce(add, (cell[i] for i, cell in enumerate(row) if i in cell), zero)
                for row in self.table
            ]
        return self._traces

    def trace_form(self) -> list:
        """B[i][j] = Tr_reg(b_i b_j), as payloads."""
        add, mul, zero = self.tag.add, self.tag.mul, self.tag.zero_payload
        traces = self.regular_traces()
        return [
            [reduce(add, (mul(c, traces[k]) for k, c in cell.items()), zero) for cell in row]
            for row in self.table
        ]


def _combine(ring: RingTag, x: dict, vectors) -> dict:
    """The sum over m of x[m] vectors[m], for sparse x and sparse vectors."""
    add, mul, is_zero = ring.add, ring.mul, ring.is_zero
    acc: dict = {}
    for m, c in x.items():
        for k, s in vectors[m].items():
            v = acc.get(k)
            v = mul(c, s) if v is None else add(v, mul(c, s))
            if is_zero(v):
                acc.pop(k, None)
            else:
                acc[k] = v
    return acc


# ---------------------------------------------------------------------------
# endomorphism algebras


def _bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def _end_algebra(cls, n: int, tag: RingTag, basis: list, generators: list) -> FinDimAlgebra:
    """End(n) in the diagram kind of ``cls``, over the given Hom(n, n) basis;
    ``generators`` are the diagrams tried first by the associativity check."""
    compose = cls.kind.compose
    index = {d: i for i, d in enumerate(basis)}
    powers = _powers(tag)
    table = []
    for bi in basis:
        row = []
        for bj in basis:
            d, loops = compose(bi, bj)
            row.append({index[d]: powers[loops]})
        table.append(row)
    ident = cls.kind.diagram(n, n, tuple((i, n + i) for i in range(n)))

    def to_morphism(vec):
        return cls.from_payloads(n, n, tag, {basis[i]: c for i, c in vec.items()})

    return FinDimAlgebra(
        tag, list(basis), table, {index[ident]: tag.one_payload}, cls.kind.name, to_morphism,
        [index[g] for g in generators],
    )


def end_algebra_partition(n: int, t=None) -> FinDimAlgebra:
    """End([A_n]) over Q at t (or the rational-function field if t is None)."""
    if _bell(2 * n) > PARTITION_DIM_CAP:
        raise CapExceededError(
            f"End([A_{n}]) dimension Bell({2 * n}) exceeds {PARTITION_DIM_CAP}"
        )
    tag = RATFUN_T if t is None else bound_q(Fraction(t), "t")
    return _end_algebra(Morphism, n, tag, hom_basis(n, n), pcat.standard_generators(n))


def end_algebra_tl(n: int, ring: Optional[RingTag] = None) -> FinDimAlgebra:
    """End of the n-strand object in the planar matching category."""
    if n > TL_STRAND_CAP:
        raise CapExceededError(f"TL end algebras capped at {TL_STRAND_CAP} strands")
    tag = RATFUN_D if ring is None else ring
    return _end_algebra(
        tl.TLMorphism, n, tag, tl.noncrossing_matchings(n, n), tl.standard_generators(n)
    )


def end_algebra(source: str, n: int, *, t=None, ring: Optional[RingTag] = None,
                cut=None) -> FinDimAlgebra:
    """Dispatching constructor: source is "partition" or "tl"."""
    if source == "partition":
        algebra = end_algebra_partition(n, t)
    elif source == "tl":
        algebra = end_algebra_tl(n, ring)
    else:
        raise ValueError(f"unknown end-algebra source {source!r}")
    if cut is not None:
        algebra = corner_algebra(algebra, cut)
    return algebra


def corner_algebra(A: FinDimAlgebra, e) -> FinDimAlgebra:
    """The corner eAe with basis obtained by row reduction of e b e."""
    e_vec = A.from_morphism(e) if not isinstance(e, dict) else e
    if not A.is_idempotent(e_vec):
        raise ValueError("cut element is not idempotent")
    ring = A.tag
    span = Span(ring)
    vectors = []
    kept_attempts = []
    for i in range(A.dim):
        v = A.mul(A.mul(e_vec, {i: ring.one_payload}), e_vec)
        if span.add(v):
            vectors.append(v)
            kept_attempts.append(i)

    def corner_coords(x: dict) -> dict:
        coords = span.coordinates(x)
        if coords is None:
            raise SplitError("product left the corner span")
        return {
            pos: coords[attempt]
            for pos, attempt in enumerate(kept_attempts)
            if not ring.is_zero(coords[attempt])
        }

    table = []
    for x in vectors:
        row = [corner_coords(A.mul(x, y)) for y in vectors]
        table.append(row)
    unit = corner_coords(e_vec)

    def to_morphism(vec):
        return A.to_morphism(_combine(ring, vec, vectors))

    labels = [f"corner{k}" for k in range(len(vectors))]
    return FinDimAlgebra(A.tag, labels, table, unit, "corner", to_morphism)


# ---------------------------------------------------------------------------
# radical and semisimple quotient


def radical(A: FinDimAlgebra) -> list:
    """Basis of the Jacobson radical: the kernel of Tr_reg(xy)."""
    if A._radical is None:
        A._radical = kernel(A.trace_form(), A.tag)
    return A._radical


def radical_morphisms(A: FinDimAlgebra) -> list:
    return [A.to_morphism(v) for v in radical(A)]


class _Quotient:
    """The semisimple quotient A/rad in complement coordinates.

    Complement coordinates are the A-basis indices not used as radical
    pivots, so projection is reduction by the radical's echelon rows and
    the section embeds a quotient vector as the same sparse dict.
    """

    def __init__(self, A: FinDimAlgebra):
        self.A = A
        span = Span(A.tag)
        for v in radical(A):
            span.add(v)
        self.rad_span = span
        rad_pivots = {p for p, _, _ in span.rows}
        self.coords = [i for i in range(A.dim) if i not in rad_pivots]
        self.basis = [{i: A.tag.one_payload} for i in self.coords]  # each is its own projection
        self.unit = self.project(A.unit)
        self.center = None  # a basis of Z(A/rad), once a split asks for it

    @property
    def dim(self):
        return len(self.coords)

    def project(self, x: dict) -> dict:
        return self.rad_span.residual(x)

    def mul(self, x: dict, y: dict) -> dict:
        return self.project(self.A.mul(x, y))


# ---------------------------------------------------------------------------
# splitting in the semisimple quotient


def _rational_roots(coeffs: Sequence):
    """The rational roots of a polynomial over Q; coefficients ascending.

    Returns ``([(q, p, mult)], rest)``: every root p/q in lowest terms
    (q > 0) with its multiplicity, sorted by (mult, q, -p), and the degree
    of the cofactor that has no rational root.

    Candidates come from p-adic lifting (Loos, *Computing rational zeros of
    integral polynomials by p-adic expansion*, 1983).  With g the
    squarefree part and a its leading coefficient, the roots y = a r of the
    monic G(y) = a^(m-1) g(y/a) are integers.  Each root of G modulo the
    first prime at which all of them are simple is lifted by Newton's
    iteration until the modulus passes twice a bound on |y|; every
    candidate is then confirmed by exact division.
    """
    scale = math.lcm(*(c.denominator for c in coeffs))
    f = [int(c * scale) for c in reversed(coeffs)]  # integers, top first
    while f and not f[0]:
        f.pop(0)
    if len(f) <= 1:
        return [], 0
    ascending = tuple(reversed(f))
    g = _pdivmod(ascending, _pgcd(ascending, _pderiv(ascending)))[0]
    den = math.lcm(*(c.denominator for c in g))
    g = [int(c * den) for c in reversed(g)]
    a = g[0]
    bound = abs(a) + max(abs(c) for c in g[1:])  # |a r| < |a| (1 + max |g_i / a|)
    monic = [1] + [c * a ** (i - 1) for i, c in enumerate(g) if i]
    slope = [c * (len(monic) - 1 - i) for i, c in enumerate(monic[:-1])]
    for prime in _primes():
        reduced = [c % prime for c in monic]
        residues = [y for y in range(prime) if _horner(reduced, y) % prime == 0]
        if all(_horner(slope, y) % prime for y in residues):
            break
    roots = []
    for y in residues:
        modulus = prime
        while modulus <= 2 * bound:
            modulus *= modulus
            y = (y - _horner(monic, y) * pow(_horner(slope, y), -1, modulus)) % modulus
        r = Fraction(y if 2 * y < modulus else y - modulus, a)
        mult = 0
        while (quotient := _divide_linear(f, r.numerator, r.denominator)) is not None:
            f = quotient
            mult += 1
        if mult:
            roots.append((r.denominator, r.numerator, mult))
    roots.sort(key=lambda root: (root[2], root[0], -root[1]))
    return roots, len(f) - 1


def _primes():
    p = 2
    while True:
        if all(p % k for k in range(2, math.isqrt(p) + 1)):
            yield p
        p += 1


def _horner(f: List[int], x: int) -> int:
    """f(x) for integer coefficients top first."""
    acc = 0
    for c in f:
        acc = acc * x + c
    return acc


def _divide_linear(f: List[int], p: int, q: int) -> Optional[List[int]]:
    """f / (q x - p) over Z (coefficients top first), or None if it is inexact."""
    out = []
    carry = 0
    for c in f[:-1]:
        h, r = divmod(c + carry, q)
        if r:
            return None
        out.append(h)
        carry = h * p
    return out if f[-1] + carry == 0 else None


class _SplitContext:
    """Shared state for splitting inside one semisimple quotient."""

    def __init__(self, Q: _Quotient, seed: int):
        self.Q = Q
        self.A = Q.A
        self.ring = Q.A.tag
        self.mul = Q.mul  # products inside the quotient
        self.rng = random.Random(seed)

    def minpoly(self, x: dict, unit: dict) -> List[Fraction]:
        """Monic minimal polynomial of x in the unital corner with unit."""
        ring = self.ring
        span = Span(ring)
        span.add(unit)
        cur = self.mul(unit, x)
        while span.add(cur):
            cur = self.mul(cur, x)
        coords = span.coordinates(cur)[:-1]  # drop cur's rejected add
        return [ring.neg(c) for c in coords] + [ring.one_payload]

    def poly_at(self, coeffs: Sequence, x: dict, unit: dict) -> dict:
        """The polynomial with rational coefficients ``coeffs`` at x."""
        acc: dict = {}
        for c in reversed(list(coeffs)):
            acc = self.mul(acc, x)
            if c:
                acc = self.A.add(acc, self.A.scale(unit, c))
        return acc

    def center_of(self, e: dict) -> List[dict]:
        """A basis of the center of the corner eQe, for Q = A/rad.

        Z(Q) is the commutant of the images of ``A.generators``, which
        generate Q; it is computed once per quotient.  In a semisimple
        algebra e cuts each simple block to a smaller simple block, so
        Z(eQe) = e Z(Q).
        """
        Q, one = self.Q, self.ring.one_payload
        if Q.center is None:
            Q.center = self._commutant([Q.project({g: one}) for g in self.A.generators])
        if e == Q.unit:
            return Q.center
        span = Span(self.ring)
        return [z for z in (self.mul(e, z) for z in Q.center) if span.add(z)]

    def _commutant(self, generators: List[dict]) -> List[dict]:
        """A basis of the elements of Q that commute with the generators.

        Augmented elimination over the Q-basis: commutator coordinates
        sort before the bookkeeping coordinates, so a row reduced to pure
        bookkeeping is a kernel combination of the basis.
        """
        ring, basis = self.ring, self.Q.basis
        elim = Span(ring)
        combos = []
        for idx, v in enumerate(basis):
            row: dict = {(1, idx, 0): ring.one_payload}
            for gno, y in enumerate(generators):
                comm = self.A.sub(self.mul(v, y), self.mul(y, v))
                for k, c in comm.items():
                    row[(0, gno, k)] = c
            red = elim.residual(row)
            if any(key[0] == 0 for key in red):
                elim.add(red)
            else:  # basis[idx] plus earlier basis vectors: nonzero and independent
                combos.append(_combine(ring, {key[1]: c for key, c in red.items()}, basis))
        return combos

    # -- splitting ----------------------------------------------------------

    def split_groups(self, e: dict, corner: List[dict]) -> List[List[dict]]:
        """Primitive idempotents refining e, grouped by matrix component.

        The center of eQe yields every central primitive idempotent at
        once; each component is then split by zero divisors.  Idempotents
        in one group are conjugate modulo the radical, so their images are
        isomorphic summands.
        """
        if len(corner) <= 1:
            return [[e]]
        if not self.ring.splits_over_q:
            raise SplitError(f"idempotent refinement is only supported over Q, not {self.ring.name}")
        components = self._central_components(self.center_of(e), e)
        return [self._split_component(c, self._cut_corner(corner, c, central=True))
                for c in components]

    def _central_components(self, center: List[dict], e: dict) -> List[dict]:
        """Refine e by every central element: the component idempotents."""
        parts = [e]
        for z in center:
            nxt = []
            for p in parts:
                nxt.extend(self._central_split(self.mul(p, z), p))  # p z = p z p: z is central
            parts = nxt
        return parts

    def _split_component(self, e: dict, corner: List[dict]) -> List[dict]:
        """Zero-divisor refinement inside a single matrix component."""
        if len(corner) <= 1:
            return [e]
        f = self._proper_idempotent(e, corner)
        g = self.A.sub(e, f)
        out = []
        for part in (f, g):
            sub = self._cut_corner(corner, part, central=False)
            out.extend(self._split_component(part, sub))
        return out

    def _central_split(self, z: dict, e: dict) -> List[dict]:
        """The idempotents h_r(z) for the roots r of the minimal polynomial
        m of z, with h_r = m / (x - r) divided by its value at r."""
        coeffs = self.minpoly(z, e)
        roots, rest = _rational_roots(coeffs)
        if rest:
            raise SplitError(f"the algebra is not split over Q: a central minimal "
                             f"polynomial has a factor of degree {rest} without rational roots")
        if any(mult > 1 for _, _, mult in roots):
            raise SplitError("minimal polynomial not squarefree in a semisimple quotient")
        if len(roots) == 1:
            return [e]
        parts = []
        for q, p, _ in roots:
            r = Fraction(p, q)
            h = _pdivmod(coeffs, (-r, 1))[0]
            parts.append(self.poly_at(_pscale(h, 1 / _peval(h, r)), z, e))
        return parts

    def _cut_corner(self, corner: List[dict], f: dict, central: bool) -> List[dict]:
        span = Span(self.ring)
        out = []
        for v in corner:
            w = self.mul(f, v) if central else self.mul(self.mul(f, v), f)
            if span.add(w):
                out.append(w)
        return out

    def _proper_idempotent(self, e: dict, corner: List[dict]) -> dict:
        """An idempotent of the corner of e other than 0 and e.

        A sample y whose minimal polynomial has a rational root p/q and is
        not x - p/q gives the zero divisor q y - p e.  Any other sample is
        redrawn, even one whose minimal polynomial is a product of
        nonlinear factors, which a full factorization over Q could cut by.
        No minimal polynomial met splitting End([A_n]) (n <= 3) or TL_n
        (n <= 5) at 0, 1, 2 has a nonlinear factor.
        """
        for attempt in range(24):
            y = self._sample(corner, attempt)
            if not y:
                continue
            roots, rest = _rational_roots(self.minpoly(y, e))
            if not roots or (len(roots) == 1 and roots[0][2] == 1 and not rest):
                continue  # y has no rational root, or is a scalar: resample
            q, p, _ = roots[0]
            x = self.poly_at((-p, q), y, e)
            if not x:
                continue
            # solve x f = x with f in the left ideal (corner) x
            span = Span(self.ring)
            gens = []
            for v in corner:
                w = self.mul(v, x)
                if span.add(w):
                    gens.append(w)
            products = Span(self.ring)
            for w in gens:
                products.add(self.mul(x, w))
            sol = products.coordinates(x)
            if sol is None:
                continue
            f = _combine(self.ring, dict(enumerate(sol)), gens)
            if f and f != e and self.mul(f, f) == f:
                return f
        raise SplitError("failed to find a proper idempotent within the attempt bound")

    def _sample(self, corner: List[dict], attempt: int) -> dict:
        if attempt < len(corner):
            return corner[attempt]
        return self._random_combination(corner, 5)

    def _random_combination(self, vectors: List[dict], bound: int) -> dict:
        """A combination of vectors with seeded integer weights in [-bound, bound]."""
        draws = [self.rng.randrange(-bound, bound + 1) for _ in vectors]
        embed = self.ring.embed
        return _combine(self.ring, {m: embed(c) for m, c in enumerate(draws) if c}, vectors)


# ---------------------------------------------------------------------------
# public splitting API


@dataclass
class IdempotentDecomposition:
    algebra: FinDimAlgebra
    idempotents: List[dict]
    primitive: List[bool]
    component: List[int]  # primitives sharing an id have isomorphic images

    def morphisms(self) -> list:
        return [self.algebra.to_morphism(v) for v in self.idempotents]

    def __len__(self):
        return len(self.idempotents)


def split_idempotent(A: FinDimAlgebra, e, seed: int = 0) -> IdempotentDecomposition:
    """Refine an idempotent into primitive orthogonal idempotents.

    Splitting happens in the semisimple quotient Q: the central
    idempotents of eQe come from e Z(Q) in one pass, then zero divisors
    split each matrix component.  The pieces are lifted through the
    radical by the Newton iteration 3e^2 - 2e^3.
    """
    e_vec = A.from_morphism(e) if not isinstance(e, dict) else dict(e)
    if not e_vec:
        return IdempotentDecomposition(A, [], [], [])
    if not A.is_idempotent(e_vec):
        raise ValueError("input is not idempotent")
    if A._quotient is None:
        A._quotient = _Quotient(A)
    Q = A._quotient
    ctx = _SplitContext(Q, seed)
    e_bar = Q.project(e_vec)
    corner = Q.basis if e_bar == Q.unit else ctx._cut_corner(Q.basis, e_bar, central=False)
    groups = ctx.split_groups(e_bar, corner)
    prims = [f_bar for group in groups for f_bar in group]
    comp_ids = [gid for gid, group in enumerate(groups) for _ in group]
    lifted = _lift_orthogonal(A, Q, e_vec, prims)
    if reduce(A.add, lifted, {}) != e_vec:
        raise SplitError("lifted idempotents do not sum to the input")
    for i, f in enumerate(lifted):
        for g in lifted[i + 1 :]:
            if A.mul(f, g) or A.mul(g, f):
                raise SplitError("lifted idempotents are not orthogonal")
    return IdempotentDecomposition(A, lifted, [True] * len(lifted), comp_ids)


def _lift_orthogonal(A: FinDimAlgebra, Q: _Quotient, e: dict, prims: List[dict]) -> List[dict]:
    lifted = []
    g = dict(e)
    for idx, f_bar in enumerate(prims):
        if idx == len(prims) - 1:
            y = g
            if not A.is_idempotent(y):
                raise SplitError("residual corner is not idempotent")
        else:
            y = A.mul(A.mul(g, f_bar), g)
            y = _newton_idempotent(A, y)
        lifted.append(y)
        g = A.sub(g, y)
    return lifted


def _newton_idempotent(A: FinDimAlgebra, y: dict, bound: int = 60) -> dict:
    for _ in range(bound):
        yy = A.mul(y, y)
        if yy == y:
            return y
        yyy = A.mul(yy, y)
        y = A.sub(A.scale(yy, 3), A.scale(yyy, 2))
    raise SplitError("idempotent lifting did not stabilize within the bound")


# ---------------------------------------------------------------------------
# JSON interchange


def algebra_to_dict(A: FinDimAlgebra) -> dict:
    """Dump an algebra: labels, unit, and structure constants as strings."""

    def label_json(label):
        parts = getattr(label, "parts", None)  # corner algebras label by name
        return str(label) if parts is None else [list(p) for p in parts]

    obj = {"kind": A.kind, "dim": A.dim}
    tag_to_json(A.tag, obj)
    obj["labels"] = [label_json(lbl) for lbl in A.labels]
    render = A.tag.render
    obj["unit"] = {str(k): render(c) for k, c in sorted(A.unit.items())}
    obj["structure"] = [
        [
            [[k, render(c)] for k, c in sorted(cell.items())]
            for cell in row
        ]
        for row in A.table
    ]
    return obj


def decomposition_to_list(dec: "IdempotentDecomposition") -> list:
    """IdempotentDecomposition as a list of morphism JSON documents."""
    out = []
    for m, comp, prim in zip(dec.morphisms(), dec.component, dec.primitive):
        doc = to_dict(m)
        doc["primitive"] = prim
        doc["component"] = comp
        out.append(doc)
    return out


# ---------------------------------------------------------------------------
# summand identification


@dataclass(frozen=True)
class SummandLabel:
    diagram: YoungDiagram
    dim: RingElement
    tensor_power: int


_END_CACHE: Dict[tuple, FinDimAlgebra] = {}


def _cached_partition_algebra(n: int, t) -> FinDimAlgebra:
    key = (n, Fraction(t))
    if key not in _END_CACHE:
        _END_CACHE[key] = end_algebra_partition(n, t)
    return _END_CACHE[key]


def _local_functional(A: FinDimAlgebra, e_vec: dict):
    """The scalar c with x = c e mod rad(eAe), for a primitive e."""
    span = Span(A.tag)
    for r in radical(A):
        v = A.mul(A.mul(e_vec, r), e_vec)
        span.add(v)
    e_attempt = span.count  # attempt index the idempotent will occupy
    if not span.add(e_vec):
        raise ValueError("idempotent lies in the radical corner")

    def functional(x: dict):
        coords = span.coordinates(x)
        if coords is None:
            raise ValueError(
                "corner element outside span(radical, e): the idempotent is not primitive"
            )
        return coords[e_attempt]

    return functional


def identify_summand(n: int, e, d, cap: int = 3) -> SummandLabel:
    """Label the image of a primitive idempotent in End([A_n]) at t = d.

    The label is the unique partition whose symmetrizer cut pairs
    nontrivially with the summand at the first tensor power where the
    summand appears; anything else raises, never a silent guess.
    """
    if n > cap:
        raise CapExceededError(f"identify_summand capped at n <= {cap}")
    A = _cached_partition_algebra(n, d)
    ring = A.tag
    add, mul, one = ring.add, ring.mul, ring.one_payload
    e_vec = A.from_morphism(e) if not isinstance(e, dict) else e
    if not A.is_idempotent(e_vec):
        raise ValueError("input is not idempotent")
    e_mor = A.to_morphism(e_vec)

    fn = _local_functional(A, e_vec)
    # pairing values through each End basis diagram
    sandwich = {}
    for i, label in enumerate(A.labels):
        x = A.mul(A.mul(e_vec, {i: one}), e_vec)
        sandwich[label] = fn(x)
    index = {label: i for i, label in enumerate(A.labels)}

    powers = _powers(ring)

    def pairing_rank(mid_terms) -> int:
        """Rank of [f(e g (mid) h e)] over the Hom bases at power k."""
        rows = []
        for h in homs_down:
            row = []
            for g in homs_up:
                acc = ring.zero_payload
                for mid, c_mid in mid_terms:
                    gm, l1 = pcat._compose_diagrams(g, mid)
                    dm, l2 = pcat._compose_diagrams(gm, h)
                    weight = mul(c_mid, sandwich[dm])
                    if l1 + l2:
                        weight = mul(weight, powers[l1 + l2])
                    acc = add(acc, weight)
                row.append(acc)
            rows.append(row)
        return rank(rows, ring)

    for k in range(n + 1):
        homs_down = hom_basis(n, k)  # candidate maps X -> [A_k], pre-cut by e
        homs_up = hom_basis(k, n)
        idk = pcat.identity(k, ring).sorted_terms()[0][0]
        if pairing_rank([(idk, one)]) == 0:
            continue
        winners = []
        for lam in partitions_of(k):
            cut = pt_power_idempotent(lam, ring)
            r = pairing_rank(cut.terms.items())
            if r:
                winners.append((lam, r))
        if len(winners) != 1:
            raise AmbiguousSummandError(
                f"summand at power {k} pairs with {len(winners)} labels",
                [w[0] for w in winners],
            )
        lam, r = winners[0]
        return SummandLabel(diagram=lam, dim=e_mor.trace(), tensor_power=k)
    raise AmbiguousSummandError("summand does not pair with any tensor power", [])

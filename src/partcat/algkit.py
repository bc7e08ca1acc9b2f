"""Finite-dimensional algebra toolkit over the exact coefficient fields.

Endomorphism algebras of small diagram objects are captured as sparse
structure-constant tables.  The radical is the kernel of the regular
trace form (characteristic zero), idempotents are split in the
semisimple quotient and Newton-lifted back, and primitive summands are
labelled by a nonzero pairing against a symmetrizer cut at the tensor
power their least propagating number names.  The pairing reads the local
functional of the primitive corner eAe from the regular trace,
f(e x e) = Tr_reg(e x) / Tr_reg(e): Tr_reg kills the nilpotent part of
eAe and is cyclic, and Tr_reg(e) = dim eA > 0.

Algebra elements are sparse dicts {basis index: scalar}.  Scalars are
payloads of the algebra's ring ``tag``, and all their arithmetic and zero
tests go through that ring (see :class:`~partcat.coeff.RingTag`).  The
one exception is the integer kernel of a monomial table over Q (every End
algebra's): products, Light's test and the unit check run on integer
structure constants over one common denominator, and each output
coefficient is divided once (see :class:`FinDimAlgebra`).  Every
linear solve here (radical, quotient projection, spans, minimal
polynomials, commutants, corner coordinates) goes through
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
computational algebra*, 1985).  Refining the unit by Z(Q) gives the
simple blocks c of Q once per quotient, and an idempotent e is split by
zero divisors inside each block, in the corner of e c.  A summand is
labelled only when this split leaves its idempotent whole: primitivity
has the one certificate.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from fractions import Fraction
from functools import reduce
from typing import Callable, List, Optional, Sequence

from .coeff import RATFUN_D, RATFUN_T, RingElement, RingTag, bound_q, tag_to_json
from .coeff import _pderiv, _pdivmod, _peval, _pgcd, _pscale  # exact coefficient-tuple helpers
from .errors import (
    AmbiguousSummandError,
    CapExceededError,
    SplitError,
    TagMismatchError,
)
from .linalg import Span, kernel
from .lincomb import to_dict
from .pcat import Morphism, diagram_morphism, hom_basis
from .young import YoungDiagram, partitions_of, pt_power_idempotent
from . import pcat, tl

PARTITION_DIM_CAP = 250  # Bell(2n) bound: n <= 3
TL_STRAND_CAP = 6


@dataclass
class FinDimAlgebra:
    """Basis-indexed structure constants over an exact field.

    ``generators`` holds the basis indices that the associativity check
    certified as generating the algebra.

    A monomial table (every product of two basis elements is a multiple
    of one basis element, as in every End algebra: one diagram times
    t^loops) over a ring that writes its payloads as integers (Q, see
    ``RingTag.to_z``) is also kept as an integer table S with one
    denominator D: the constant of b_i b_j is S_ij / D.  At t = p/q in
    lowest terms, S_ij = p^l q^(L-l) for the l loops of the product and
    D = q^L for the most loops L in the table.  ``mul`` writes x and y as
    X / dx and Y / dy, sums X_i Y_j S_ij in Python integers and divides
    each output coefficient once by dx dy D.  Every step is exact integer
    arithmetic, and the quotient is the canonical payload, so the product
    is the one the payload-by-payload sum gives, in fewer operations.
    Other tables (rational-function and number-field scalars, corner
    algebras with longer cells) multiply payload by payload.
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
        self._flat = None  # the integer table: per cell, its (k, S_ij) or None for zero
        self._den = 1  # its denominator D
        if self.tag.to_z is not None and all(len(cell) <= 1 for row in self.table for cell in row):
            self._flat = [[None] * self.dim for _ in range(self.dim)]
            constants, self._den = self.tag.to_z(
                {(i, j, k): c for i, row in enumerate(self.table)
                 for j, cell in enumerate(row) for k, c in cell.items()}
            )
            for (i, j, k), s in constants.items():
                if s:
                    self._flat[i][j] = (k, s)
        self._check_unit()
        self.generators = self._generators(candidates)
        self._check_associativity()

    # -- arithmetic on sparse vectors -----------------------------------

    def mul(self, x: dict, y: dict) -> dict:
        ring = self.tag
        flat = self._flat
        if flat is not None:
            X, dx = ring.to_z(x)
            Y, dy = ring.to_z(y)
            Y = list(Y.items())
            acc: dict = {}
            get = acc.get
            for i, xi in X.items():
                row = flat[i]
                for j, yj in Y:
                    cell = row[j]
                    if cell is not None:
                        k, s = cell
                        acc[k] = get(k, 0) + xi * yj * s
            from_z, den = ring.from_z, dx * dy * self._den
            return {k: from_z(v, den) for k, v in acc.items() if v}
        return _combine(ring, x, {i: _combine(ring, y, self.table[i]) for i in x})  # sum x_i (b_i y)

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
        if self._flat is not None:
            return self._check_associativity_flat()
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

    def _check_associativity_flat(self):
        """Light's test on the integer table: (b_i g) b_k and b_i (g b_k)
        are each one cell times another, compared as (index, S S')."""
        flat = self._flat
        zero_row = [None] * self.dim
        for j in self.generators:
            g_row = flat[j]
            for i, row in enumerate(flat):
                ig = row[j]
                ig_row, s = (flat[ig[0]], ig[1]) if ig else (zero_row, 0)
                for k, (left, gk) in enumerate(zip(ig_row, g_row)):
                    right = row[gk[0]] if gk else None
                    if (left and (left[0], s * left[1])) != (right and (right[0], gk[1] * right[1])):
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

    def regular_trace(self, x: dict):
        """Tr_reg(x), Tr of left multiplication by x, as a payload."""
        add, mul, zero = self.tag.add, self.tag.mul, self.tag.zero_payload
        traces = self.regular_traces()
        return reduce(add, (mul(c, traces[k]) for k, c in x.items()), zero)

    def trace_form(self) -> list:
        """B[i][j] = Tr_reg(b_i b_j), as payloads."""
        return [[self.regular_trace(cell) for cell in row] for row in self.table]


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
    powers = tag.powers
    table = []
    for bi in basis:
        row = []
        for bj in basis:
            d, loops = compose(bi, bj)
            c = powers[loops]
            row.append({} if tag.is_zero(c) else {index[d]: c})
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
    the section embeds a quotient vector as the same sparse dict.  The
    reduction is linear, so it is kept as a matrix: ``image[k]`` is the
    projection of basis element k, and x projects to sum_k x_k image[k].
    """

    def __init__(self, A: FinDimAlgebra):
        self.A = A
        one = A.tag.one_payload
        span = Span(A.tag)
        for v in radical(A):
            span.add(v)
        rad_pivots = {p for p, _, _ in span.rows}
        self.coords = [i for i in range(A.dim) if i not in rad_pivots]
        self.basis = [{i: one} for i in self.coords]  # each is its own projection
        self.image = [span.residual({k: one}) for k in range(A.dim)]
        self.unit = self.project(A.unit)
        self.blocks = None  # the simple blocks (c, basis of cQc), once a split asks for them

    @property
    def dim(self):
        return len(self.coords)

    def project(self, x: dict) -> dict:
        return _combine(self.A.tag, x, self.image)

    def mul(self, x: dict, y: dict) -> dict:
        return self.project(self.A.mul(x, y))


def _quotient(A: FinDimAlgebra) -> _Quotient:
    """A/rad, built on first use; the split and the labelling share it."""
    if A._quotient is None:
        A._quotient = _Quotient(A)
    return A._quotient


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
    # the gcd is primitive over Z, so by Gauss's lemma g has integer coefficients
    g = list(reversed(_pdivmod(ascending, _pgcd(ascending, _pderiv(ascending)))[0]))
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

    def __init__(self, Q: _Quotient):
        self.Q = Q
        self.A = Q.A
        self.ring = Q.A.tag
        self.mul = Q.mul  # products inside the quotient

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

    def center_of(self) -> List[dict]:
        """A basis of the center Z(Q) of Q = A/rad: the commutant of the
        images of ``A.generators``, which generate Q."""
        one = self.ring.one_payload
        return self._commutant([self.Q.project({g: one}) for g in self.A.generators])

    def blocks(self) -> List[tuple]:
        """The simple blocks of Q, each as (c, a basis of cQc), found once per
        quotient: refining the unit by Z(Q) gives every central primitive
        idempotent c at once.  cQc is M_m(Q) when Q is split: m^2 = dim cQc."""
        Q = self.Q
        if Q.blocks is None:
            parts = [Q.unit]
            for z in self.center_of():  # p z = p z p: z is central
                parts = [c for p in parts for c in self._central_split(self.mul(p, z), p)]
            Q.blocks = [(c, self._cut_corner(Q.basis, c, central=True)) for c in parts]
        return Q.blocks

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

    def split_groups(self, e: dict) -> List[List[dict]]:
        """Primitive idempotents refining an idempotent e of Q, by block.

        In a block c, f = e c is idempotent (c is central), and each nonzero
        f is split by zero divisors in fQf: cQc when f = c, else cut from
        cQc.  Idempotents in one group are conjugate modulo the radical, so
        their images are isomorphic summands.  Over a ring other than Q,
        only an e with a one-dimensional corner eQe is split (to itself).
        """
        if not self.ring.splits_over_q:
            if len(self._cut_corner(self.Q.basis, e, central=False)) > 1:
                raise SplitError(f"idempotent refinement is only supported over Q, not {self.ring.name}")
            return [[e]]
        groups = []
        for c, corner in self.blocks():
            f = self.mul(e, c)
            if f:
                fQf = corner if f == c else self._cut_corner(corner, f, central=False)
                groups.append(self._split_component(f, fQf))
        return groups

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
            parts.append(self.poly_at(_pscale(h, Fraction(1, _peval(h, r))), z, e))
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

        Each corner basis element y is tried once, in order.  If the
        minimal polynomial of y has a rational root p/q and is not
        x - p/q, then q y - p e is a zero divisor, and its left ideal
        holds the idempotent.  Elements that are scalars or have no
        rational root are passed over, even one whose minimal polynomial
        is a product of nonlinear factors, which a full factorization
        over Q could cut by.  If no basis element serves, SplitError.
        In the splits of End([A_n]) (n <= 3) and TL_3..TL_5 at 0, 1, 2,
        the first or second element served every time.
        """
        for y in corner:
            roots, rest = _rational_roots(self.minpoly(y, e))
            if not roots or (len(roots) == 1 and roots[0][2] == 1 and not rest):
                continue  # y has no rational root, or is a scalar
            q, p, _ = roots[0]
            x = self.poly_at((-p, q), y, e)  # nonzero: y is not a scalar
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
        raise SplitError("no corner basis element gives a proper idempotent")


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


def split_idempotent(A: FinDimAlgebra, e) -> IdempotentDecomposition:
    """Refine an idempotent into primitive orthogonal idempotents.

    Splitting happens in the semisimple quotient Q, one simple block of
    Q at a time (see ``_SplitContext.split_groups``); the blocks are found
    once per quotient.  The pieces are lifted through the radical by the
    Newton iteration 3e^2 - 2e^3.
    """
    e_vec = A.from_morphism(e) if not isinstance(e, dict) else dict(e)
    if not e_vec:
        return IdempotentDecomposition(A, [], [], [])
    if not A.is_idempotent(e_vec):
        raise ValueError("input is not idempotent")
    Q = _quotient(A)
    groups = _SplitContext(Q).split_groups(Q.project(e_vec))
    prims = [f_bar for group in groups for f_bar in group]
    comp_ids = [gid for gid, group in enumerate(groups) for _ in group]
    lifted = _lift_orthogonal(A, Q, e_vec, prims)
    _check_orthogonal(A, e_vec, lifted)
    return IdempotentDecomposition(A, lifted, [True] * len(lifted), comp_ids)


def _check_orthogonal(A: FinDimAlgebra, e: dict, parts: List[dict]) -> None:
    """SplitError unless ``parts`` are orthogonal idempotents summing to e.

    Each part f_i and each prefix sum g_i = f_1 + ... + f_i must be
    idempotent: 2k - 1 products, not the k(k - 1) of the pairwise check.
    That suffices in characteristic 0.  If f, g and f + g are idempotent,
    then fg + gf = 0; multiplying by f on the left and on the right gives
    fg = -fgf = gf, so 2fg = 0 and fg = gf = 0.  For g = g_(i-1) and
    f = f_i this gives g f_i = f_i g = 0.  The parts of g are orthogonal by
    induction, so f_j g = g f_j = f_j for j < i, and then
    f_j f_i = f_j g f_i = 0 and f_i f_j = f_i g f_j = 0.
    """
    prefix: dict = {}
    for i, f in enumerate(parts):
        if not A.is_idempotent(f):
            raise SplitError("a lifted part is not idempotent")
        prefix = A.add(prefix, f)
        if i and not A.is_idempotent(prefix):
            raise SplitError("lifted idempotents are not orthogonal")
    if prefix != e:
        raise SplitError("lifted idempotents do not sum to the input")


def _lift_orthogonal(A: FinDimAlgebra, Q: _Quotient, e: dict, prims: List[dict]) -> List[dict]:
    lifted = []
    g = dict(e)
    for idx, f_bar in enumerate(prims):
        if idx == len(prims) - 1:
            y = g  # _check_orthogonal checks that it is idempotent
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


def _propagating(d) -> int:
    """The number of blocks of d that meet both rows."""
    w = d.word
    return len(set(w[: d.bottom]).intersection(w[d.bottom :]))


@dataclass(frozen=True)
class SummandLabel:
    diagram: YoungDiagram
    dim: RingElement
    tensor_power: int


def _local_functional(A: FinDimAlgebra, e: dict) -> list:
    """f(e b_i e) for each basis element b_i, for e primitive, as
    Tr_reg(e b_i) / Tr_reg(e) (see ``identify_summand``)."""
    ring, one = A.tag, A.tag.one_payload
    scale = ring.inv(A.regular_trace(e))
    return [ring.mul(A.regular_trace(A.mul(e, {i: one})), scale) for i in range(A.dim)]


def identify_summand(A: FinDimAlgebra, e) -> SummandLabel:
    """Label the image of a primitive idempotent e of A = End([A_n]) at t = d.

    e is certified primitive by the split's own certificate:
    ``split_idempotent`` leaves e whole exactly when e's image cuts a
    one-dimensional corner of Q = A/rad.  So every x in eAe is f(x) e + r
    with r in e rad e, and f is the local functional of eAe.  It is read
    from the regular trace, f(e D e) = Tr_reg(e D) / Tr_reg(e), with one
    product e D per basis diagram and no projection: r is nilpotent, so
    Tr_reg(r) = 0; left multiplication is a representation, so
    Tr_reg(e D e) = Tr_reg(e e D); and Tr_reg(e) = dim eA, the rank of
    a -> e a, is a positive integer, nonzero in characteristic 0.

    The tensor power is the least propagating number k (blocks meeting both
    rows) of a diagram D with f(e D e) != 0: D factors through [A_k] with no
    closed loop, and every product through [A_k] is t^l times a diagram
    with at most k.  The label is the unique partition whose symmetrizer
    cut pairs nontrivially at k, through g and h with exactly k propagating
    blocks (f vanishes below k); anything else raises, never a silent guess.
    """
    if A.kind != pcat.PARTITION.name or A.tag.value is None:
        raise ValueError("identify_summand needs End([A_n]) at a bound value of t")
    n = A.labels[0].bottom
    ring = A.tag
    e_vec = A.from_morphism(e) if not isinstance(e, dict) else e
    if not e_vec:  # a nonzero idempotent is not nilpotent, so never in the radical
        raise ValueError("the idempotent is zero")
    if len(split_idempotent(A, e_vec)) != 1:  # which also rejects a non-idempotent
        raise ValueError("the idempotent is not primitive: the split refines it")
    f = dict(zip(A.labels, _local_functional(A, e_vec)))
    add, mul, is_zero, zero = ring.add, ring.mul, ring.is_zero, ring.zero_payload
    k = min(_propagating(d) for d, c in f.items() if not is_zero(c))
    homs_down = [diagram_morphism(h, ring) for h in hom_basis(n, k) if _propagating(h) == k]
    homs_up = [diagram_morphism(g, ring) for g in hom_basis(k, n) if _propagating(g) == k]

    def pairs(y) -> bool:
        """Whether f(e g y h e) is nonzero for some g, h with k propagating blocks."""
        for h in homs_down:
            yh = y @ h
            for g in homs_up:
                terms = (g @ yh).terms.items()
                if not is_zero(reduce(add, (mul(c, f[d]) for d, c in terms), zero)):
                    return True
        return False

    winners = [lam for lam in partitions_of(k) if pairs(pt_power_idempotent(lam, ring))]
    if len(winners) != 1:
        raise AmbiguousSummandError(
            f"summand at power {k} pairs with {len(winners)} labels",
            winners,
        )
    return SummandLabel(diagram=winners[0], dim=A.to_morphism(e_vec).trace(), tensor_power=k)

"""Finite-dimensional algebra toolkit over the exact coefficient fields.

Endomorphism algebras of small diagram objects are captured as sparse
structure-constant tables.  The radical comes from the regular trace
form (characteristic zero), idempotents are split in the semisimple
quotient and Newton-lifted back, and primitive summands are labelled by
pairing ranks against tensor powers and symmetrizer cuts.

Algebra elements are sparse dicts {basis index: scalar}.  Scalars are
raw payloads: Fraction for Q tags, RingElement otherwise; both support
the arithmetic the routines use.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .coeff import RATFUN_D, RATFUN_T, RingElement, RingTag, bound_q
from .coeff import _pdivmod, _pmul, _pxgcd  # exact Fraction-tuple helpers
from .errors import (
    AmbiguousSummandError,
    CapExceededError,
    SplitError,
    TagMismatchError,
)
from .lincomb import _tag_to_json, to_dict
from .pcat import Morphism, hom_basis
from .young import YoungDiagram, partitions_of, pt_power_idempotent
from . import pcat, tl

PARTITION_DIM_CAP = 250  # Bell(2n) bound: n <= 3
TL_STRAND_CAP = 6
FULL_ASSOC_CHECK_MONOMIAL = 150  # flattened full check below this dimension
FULL_ASSOC_CHECK_DIM = 40
ASSOC_SAMPLES = 300
ROOT_SEARCH_LIMIT = 10**6  # largest |a_0|, |a_n| searched for rational roots


def _raw(tag: RingTag, x: RingElement):
    return x.data if tag.kind == "Q" else x


def _unraw(tag: RingTag, x) -> RingElement:
    return RingElement(tag, x) if tag.kind == "Q" else x


@dataclass
class FinDimAlgebra:
    """Basis-indexed structure constants over an exact field."""

    tag: RingTag
    labels: list
    table: list  # table[i][j] = {k: raw coefficient}
    unit: dict  # raw sparse vector
    kind: str
    to_morphism_fn: Optional[Callable] = None

    def __post_init__(self):
        self.dim = len(self.labels)
        self.zero = _raw(self.tag, self.tag.zero())
        self.one = _raw(self.tag, self.tag.one())
        self._traces = None
        self._radical = None
        self._quotient = None
        if self._is_monomial():
            self._flat = [
                [next(iter(cell.items()), None) for cell in row] for row in self.table
            ]
        else:
            self._flat = None
        self._check_unit()
        self._check_associativity()

    # -- arithmetic on sparse vectors -----------------------------------

    def mul(self, x: dict, y: dict) -> dict:
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
                    c = xi * yj * s
                    v = acc.get(k)
                    if v is None:
                        if c:
                            acc[k] = c
                    else:
                        v = v + c
                        if v:
                            acc[k] = v
                        else:
                            del acc[k]
            return acc
        table = self.table
        for i, xi in x.items():
            row = table[i]
            for j, yj in y.items():
                c = xi * yj
                for k, s in row[j].items():
                    v = acc.get(k)
                    v = c * s if v is None else v + c * s
                    if v:
                        acc[k] = v
                    else:
                        acc.pop(k, None)
        return acc

    @staticmethod
    def add(x: dict, y: dict) -> dict:
        acc = dict(x)
        for k, v in y.items():
            w = acc.get(k)
            w = v if w is None else w + v
            if w:
                acc[k] = w
            else:
                acc.pop(k, None)
        return acc

    @staticmethod
    def scale(x: dict, c) -> dict:
        if not c:
            return {}
        return {k: v * c for k, v in x.items()}

    def sub(self, x: dict, y: dict) -> dict:
        return self.add(x, self.scale(y, -self.one))

    def is_idempotent(self, x: dict) -> bool:
        return self.mul(x, x) == x

    # -- conversions ------------------------------------------------------

    def from_morphism(self, m) -> dict:
        index = {lbl: i for i, lbl in enumerate(self.labels)}
        out = {}
        for d, c in m.terms.items():
            if d not in index:
                raise ValueError("morphism is not supported on the algebra basis")
            if c.tag != self.tag:
                raise TagMismatchError(f"{c.tag} vs {self.tag}")
            out[index[d]] = _raw(self.tag, c)
        return out

    def to_morphism(self, vec: dict):
        if self.to_morphism_fn is None:
            raise ValueError("this algebra has no diagram realization")
        return self.to_morphism_fn(vec)

    # -- construction checks -----------------------------------------------

    def _check_unit(self):
        for i in range(self.dim):
            b = {i: self.one}
            if self.mul(self.unit, b) != b or self.mul(b, self.unit) != b:
                raise ValueError("unit is not a two-sided identity")

    def _check_associativity(self):
        n = self.dim
        if self._flat is not None and n <= FULL_ASSOC_CHECK_MONOMIAL:
            # flattened full check: products of basis elements are monomial
            flat = self._flat
            for i in range(n):
                row_i = flat[i]
                for j in range(n):
                    ij = row_i[j]
                    for k in range(n):
                        left = None
                        if ij is not None:
                            m, c = ij
                            cell = flat[m][k]
                            if cell is not None:
                                left = (cell[0], c * cell[1])
                        right = None
                        jk = flat[j][k]
                        if jk is not None:
                            m, c = jk
                            cell = row_i[m]
                            if cell is not None:
                                right = (cell[0], c * cell[1])
                        if left != right:
                            raise ValueError(
                                f"structure constants not associative at {(i, j, k)}"
                            )
            return
        if n <= FULL_ASSOC_CHECK_DIM:
            triples = (
                (i, j, k) for i in range(n) for j in range(n) for k in range(n)
            )
        else:
            rng = random.Random(1202)
            triples = (
                (rng.randrange(n), rng.randrange(n), rng.randrange(n))
                for _ in range(ASSOC_SAMPLES)
            )
        for i, j, k in triples:
            bi, bj, bk = {i: self.one}, {j: self.one}, {k: self.one}
            left = self.mul(self.mul(bi, bj), bk)
            right = self.mul(bi, self.mul(bj, bk))
            if left != right:
                raise ValueError(f"structure constants not associative at {(i, j, k)}")

    def _is_monomial(self) -> bool:
        return all(
            len(cell) <= 1 for row in self.table for cell in row
        )

    # -- regular representation ---------------------------------------------

    def regular_traces(self) -> list:
        """Tr of left multiplication by each basis element."""
        if self._traces is None:
            self._traces = [
                sum(
                    (self.table[k][i].get(i, self.zero) for i in range(self.dim)),
                    self.zero,
                )
                for k in range(self.dim)
            ]
        return self._traces

    def trace_form(self) -> list:
        """B[i][j] = Tr_reg(b_i b_j)."""
        traces = self.regular_traces()
        out = []
        for i in range(self.dim):
            row = []
            for j in range(self.dim):
                acc = self.zero
                for k, c in self.table[i][j].items():
                    acc = acc + c * traces[k]
                row.append(acc)
            out.append(row)
        return out


# ---------------------------------------------------------------------------
# raw-scalar row reduction


class _RawSpan:
    """Row space tracker over raw scalars; ambient coordinates are dict keys."""

    def __init__(self, zero, one):
        self.zero = zero
        self.one = one
        self.rows: List[Tuple[int, dict, list]] = []  # (pivot, vector, combo)
        self.count = 0

    @property
    def dim(self):
        return len(self.rows)

    def _reduce(self, vec: dict, combo: Optional[dict]):
        vec = dict(vec)
        for pivot, row, cmb in self.rows:
            c = vec.get(pivot)
            if c:
                for k, v in row.items():
                    w = vec.get(k, self.zero) - c * v
                    if w:
                        vec[k] = w
                    else:
                        vec.pop(k, None)
                if combo is not None:
                    for idx, v in enumerate(cmb):
                        if v:
                            combo[idx] = combo.get(idx, self.zero) - c * v
        return vec, combo

    def add(self, vec: dict) -> bool:
        combo = {self.count: self.one}
        self.count += 1
        vec, combo = self._reduce(vec, combo)
        if not vec:
            return False
        pivot = min(vec)
        inv = self.one / vec[pivot]
        vec = {k: v * inv for k, v in vec.items()}
        dense = [self.zero] * self.count
        for idx, v in combo.items():
            dense[idx] = v * inv
        self.rows.append((pivot, vec, dense))
        return True

    def coordinates(self, vec: dict) -> Optional[list]:
        out = [self.zero] * self.count
        vec = dict(vec)
        for pivot, row, cmb in self.rows:
            c = vec.get(pivot)
            if c:
                for k, v in row.items():
                    w = vec.get(k, self.zero) - c * v
                    if w:
                        vec[k] = w
                    else:
                        vec.pop(k, None)
                for idx, v in enumerate(cmb):
                    if v:
                        out[idx] = out[idx] + c * v
        if vec:
            return None
        return out

    def contains(self, vec: dict) -> bool:
        return self.coordinates(vec) is not None

    def residual(self, vec: dict) -> dict:
        return self._reduce(vec, None)[0]


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


def _end_algebra(cls, n: int, tag: RingTag, basis: list) -> FinDimAlgebra:
    """End(n) in the diagram kind of ``cls``, over the given Hom(n, n) basis."""
    compose = cls.kind.compose
    index = {d: i for i, d in enumerate(basis)}
    param = _raw(tag, tag.parameter())
    one = _raw(tag, tag.one())
    table = []
    for bi in basis:
        row = []
        for bj in basis:
            d, loops = compose(bi, bj)
            row.append({index[d]: param**loops if loops else one})
        table.append(row)
    ident = cls.kind.diagram(n, n, tuple((i, n + i) for i in range(n)))

    def to_morphism(vec):
        return cls(n, n, tag, {basis[i]: _unraw(tag, c) for i, c in vec.items()})

    return FinDimAlgebra(tag, list(basis), table, {index[ident]: one}, cls.kind.name, to_morphism)


def end_algebra_partition(n: int, t=None) -> FinDimAlgebra:
    """End([A_n]) over Q at t (or the rational-function field if t is None)."""
    if _bell(2 * n) > PARTITION_DIM_CAP:
        raise CapExceededError(
            f"End([A_{n}]) dimension Bell({2 * n}) exceeds {PARTITION_DIM_CAP}"
        )
    tag = RATFUN_T if t is None else bound_q(Fraction(t), "t")
    return _end_algebra(Morphism, n, tag, hom_basis(n, n))


def end_algebra_tl(n: int, ring: Optional[RingTag] = None) -> FinDimAlgebra:
    """End of the n-strand object in the planar matching category."""
    if n > TL_STRAND_CAP:
        raise CapExceededError(f"TL end algebras capped at {TL_STRAND_CAP} strands")
    tag = RATFUN_D if ring is None else ring
    return _end_algebra(tl.TLMorphism, n, tag, tl.noncrossing_matchings(n, n))


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
    span = _RawSpan(A.zero, A.one)
    vectors = []
    kept_attempts = []
    for i in range(A.dim):
        v = A.mul(A.mul(e_vec, {i: A.one}), e_vec)
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
            if attempt < len(coords) and coords[attempt]
        }

    table = []
    for x in vectors:
        row = [corner_coords(A.mul(x, y)) for y in vectors]
        table.append(row)
    unit = corner_coords(e_vec)

    def to_morphism(vec):
        amb: dict = {}
        for k, c in vec.items():
            amb = A.add(amb, A.scale(vectors[k], c))
        return A.to_morphism(amb)

    labels = [f"corner{k}" for k in range(len(vectors))]
    return FinDimAlgebra(A.tag, labels, table, unit, "corner", to_morphism)


# ---------------------------------------------------------------------------
# radical and semisimple quotient


def _raw_nullspace(rows: list, zero, one) -> list:
    """Right kernel of a dense square raw matrix, as sparse dicts."""
    n = len(rows)
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, n) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = one / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(n):
            if i != r and mat[i][col]:
                c = mat[i][col]
                mat[i] = [a - c * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == n:
            break
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for j in free:
        vec = {j: one}
        for i, pc in enumerate(pivots):
            c = mat[i][j]
            if c:
                vec[pc] = -c
        basis.append(vec)
    return basis


def radical(A: FinDimAlgebra) -> list:
    """Basis of the Jacobson radical: the kernel of Tr_reg(xy)."""
    if A._radical is None:
        A._radical = _raw_nullspace(A.trace_form(), A.zero, A.one)
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
        span = _RawSpan(A.zero, A.one)
        for v in radical(A):
            span.add(v)
        self.rad_span = span
        rad_pivots = {p for p, _, _ in span.rows}
        self.coords = [i for i in range(A.dim) if i not in rad_pivots]
        self.unit = self.project(A.unit)

    @property
    def dim(self):
        return len(self.coords)

    def project(self, x: dict) -> dict:
        return self.rad_span.residual(x)

    def mul(self, x: dict, y: dict) -> dict:
        return self.project(self.A.mul(x, y))


# ---------------------------------------------------------------------------
# splitting in the semisimple quotient


def _factor_over_q(coeffs: List[Fraction]):
    """Irreducible factorization over Q; coefficients ascending.

    Returns [(factor, multiplicity)] exactly as sympy's ``factor_list``
    over QQ does: each factor a primitive integer polynomial with positive
    leading coefficient, sorted by (length, multiplicity, coefficients
    from the top).  Rational roots are peeled off by exact division; a
    root-free cofactor of degree 2 or 3 is irreducible.  Anything else
    (a cofactor of degree >= 4, or end coefficients too large to search
    for roots) goes to sympy.
    """
    scale = math.lcm(*(c.denominator for c in coeffs))
    f = [int(c * scale) for c in reversed(coeffs)]  # integers, top first
    while f and not f[0]:
        f.pop(0)
    if len(f) <= 1:
        return []
    content = math.gcd(*f) * (1 if f[0] > 0 else -1)
    f = [c // content for c in f]
    found = {}
    power = 0
    while not f[-1]:
        f.pop()
        power += 1
    if power:
        found[(1, 0)] = power
    if len(f) > 1 and max(f[0], abs(f[-1])) > ROOT_SEARCH_LIMIT:
        return _factor_over_q_sympy(coeffs)
    # every rational root p/q of f, in lowest terms, has p | a_0 and q | a_n
    tops = _divisors(f[0])
    for p in _divisors(abs(f[-1])):
        for q in tops:
            if math.gcd(p, q) != 1:
                continue
            for root in (p, -p):
                while len(f) > 1:
                    quotient = _divide_linear(f, root, q)
                    if quotient is None:
                        break
                    found[(q, -root)] = found.get((q, -root), 0) + 1
                    f = quotient
    if len(f) > 4:
        return _factor_over_q_sympy(coeffs)
    if len(f) > 1:
        found[tuple(f)] = 1
    ordered = sorted(found.items(), key=lambda item: (len(item[0]), item[1], item[0]))
    return [([Fraction(c) for c in reversed(fac)], mult) for fac, mult in ordered]


def _divisors(n: int) -> List[int]:
    small = [k for k in range(1, math.isqrt(n) + 1) if n % k == 0]
    return small + [n // k for k in reversed(small) if k * k != n]


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


def _factor_over_q_sympy(coeffs: List[Fraction]):
    """The general case of _factor_over_q; sympy is imported only here."""
    import sympy

    x = sympy.Symbol("x")
    expr = sum(
        sympy.Rational(c.numerator, c.denominator) * x**i
        for i, c in enumerate(coeffs)
    )
    _, factors = sympy.Poly(expr, x, domain="QQ").factor_list()
    out = []
    for fac, mult in factors:
        cs = [Fraction(0)] * (fac.degree() + 1)
        for monom, coef in zip(fac.monoms(), fac.coeffs()):
            cs[monom[0]] = Fraction(coef.p, coef.q)
        out.append((cs, mult))
    return out


class _SplitContext:
    """Shared state for splitting inside one semisimple quotient."""

    def __init__(self, Q: _Quotient, seed: int):
        self.Q = Q
        self.A = Q.A
        self.zero = self.A.zero
        self.one = self.A.one
        self.rng = random.Random(seed)
        if self.A.tag.kind != "Q":
            # splitting needs exact factorization; only supported over Q
            self.q_field = False
        else:
            self.q_field = True

    # products inside the quotient
    def mul(self, x, y):
        return self.Q.mul(x, y)

    def minpoly(self, x: dict, unit: dict) -> List[Fraction]:
        """Monic minimal polynomial of x in the unital corner with unit."""
        span = _RawSpan(self.zero, self.one)
        powers = [unit]
        span.add(unit)
        cur = unit
        while True:
            cur = self.mul(cur, x)
            if not span.add(cur):
                coords = span.coordinates(cur)
                deg = len(powers)
                coeffs = [self.zero] * (deg + 1)
                for i, c in enumerate(coords):
                    coeffs[i] = -c
                coeffs[deg] = self.one
                return coeffs
            powers.append(cur)

    def poly_at(self, coeffs: Sequence, x: dict, unit: dict) -> dict:
        acc: dict = {}
        for c in reversed(list(coeffs)):
            acc = self.mul(acc, x)
            if c:
                acc = self.A.add(acc, self.A.scale(unit, c))
        return acc

    def center_of(self, basis: List[dict], unit: dict) -> List[dict]:
        """Center of the span (a unital subalgebra) by commutant descent.

        Commuting with a couple of seeded combinations usually pins the
        center; certification against the whole basis feeds any offender
        back as a new constraint, so the result is exact, not heuristic.
        """

        def combo() -> dict:
            out: dict = {}
            for v in basis:
                c = Fraction(self.rng.randrange(-9, 10))
                if c:
                    out = self.A.add(out, self.A.scale(v, self.one * c))
            return out

        trials = [combo(), combo()]
        candidates = list(basis)
        while True:
            candidates = self._commutant(candidates, trials)
            offender = self._certify_center(candidates, basis)
            if offender is None:
                return candidates
            trials.append(offender)

    def _commutant(self, candidates: List[dict], trials: List[dict]) -> List[dict]:
        """Intersection of span(candidates) with the commutant of trials.

        Augmented elimination: commutator coordinates sort before the
        bookkeeping coordinates, so a row reduced to pure bookkeeping is
        a kernel combination of the candidates.
        """
        if not candidates:
            return []
        elim = _RawSpan(self.zero, self.one)
        combos = []
        for idx, v in enumerate(candidates):
            row: dict = {(1, idx, 0): self.one}
            for tno, y in enumerate(trials):
                comm = self.A.sub(self.mul(v, y), self.mul(y, v))
                for k, c in comm.items():
                    row[(0, tno, k)] = c
            red = elim.residual(row)
            if any(key[0] == 0 for key in red):
                elim.add(red)
            else:
                combo: dict = {}
                for key, c in red.items():
                    combo = self.A.add(combo, self.A.scale(candidates[key[1]], c))
                if combo:
                    combos.append(combo)
        span = _RawSpan(self.zero, self.one)
        basis = []
        for z in combos:
            if span.add(z):
                basis.append(z)
        return basis

    def _certify_center(self, center: List[dict], basis: List[dict]) -> Optional[dict]:
        for z in center:
            for v in basis:
                if self.mul(z, v) != self.mul(v, z):
                    return v
        return None

    # -- main recursion ---------------------------------------------------

    def split_groups(self, e: dict, corner: List[dict]) -> List[List[dict]]:
        """Primitive idempotents refining e, grouped by matrix component.

        Idempotents in one group are conjugate modulo the radical, so
        their images are isomorphic summands.
        """
        if len(corner) <= 1:
            return [[e]]
        if not self.q_field:
            raise SplitError(
                f"idempotent refinement is only supported over Q, not {self.A.tag.kind}"
            )
        center = self.center_of(corner, e)
        components = self._central_components(center, e)
        if len(components) == 1:
            return [self._split_component(e, corner)]
        groups = []
        for comp in components:
            sub = self._cut_corner(corner, comp, central=True)
            groups.extend(self.split_groups(comp, sub))
        return groups

    def _central_components(self, center: List[dict], e: dict) -> List[dict]:
        """Refine e by every central element: the component idempotents."""
        parts = [e]
        for z in center:
            nxt = []
            for p in parts:
                zz = self.mul(self.mul(p, z), p)
                nxt.extend(self._central_split(zz, p))
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
        coeffs = self.minpoly(z, e)
        factors = _factor_over_q(coeffs)
        if any(mult > 1 for _, mult in factors):
            raise SplitError("minimal polynomial not squarefree in a semisimple quotient")
        if len(factors) == 1:
            return [e]
        whole = [c for c in coeffs]
        parts = []
        for fac, _ in factors:
            h, rem = _pdivmod(tuple(whole), tuple(fac))
            if rem:
                raise SplitError("inconsistent factorization")
            g, u, _ = _pxgcd(h, tuple(fac))
            if len(g) != 1:
                raise SplitError("factors not coprime")
            scaled = _pmul(tuple(u), h)
            scaled = tuple(c / g[0] for c in scaled)
            parts.append(self.poly_at(scaled, z, e))
        return parts

    def _cut_corner(self, corner: List[dict], f: dict, central: bool) -> List[dict]:
        span = _RawSpan(self.zero, self.one)
        out = []
        for v in corner:
            w = self.mul(f, v) if central else self.mul(self.mul(f, v), f)
            if span.add(w):
                out.append(w)
        return out

    def _proper_idempotent(self, e: dict, corner: List[dict]) -> dict:
        for attempt in range(24):
            y = self._sample(corner, attempt)
            if not y:
                continue
            coeffs = self.minpoly(y, e)
            factors = _factor_over_q(coeffs)
            divisor = None
            if len(factors) > 1 or factors[0][1] > 1:
                divisor = factors[0][0]
            if divisor is None:
                continue  # irreducible: y generates a field, resample
            x = self.poly_at(divisor, y, e)
            if not x:
                continue
            # solve x f = x with f in the left ideal (corner) x
            span = _RawSpan(self.zero, self.one)
            gens = []
            for v in corner:
                w = self.mul(v, x)
                if span.add(w):
                    gens.append(w)
            prods = [self.mul(x, w) for w in gens]
            sol = self._solve_combo(prods, x)
            if sol is None:
                continue
            f: dict = {}
            for c, w in zip(sol, gens):
                if c:
                    f = self.A.add(f, self.A.scale(w, c))
            if f and f != e and self.mul(f, f) == f:
                return f
        raise SplitError("failed to find a proper idempotent within the attempt bound")

    def _sample(self, corner: List[dict], attempt: int) -> dict:
        if attempt < len(corner):
            return corner[attempt]
        combo: dict = {}
        for v in corner:
            c = Fraction(self.rng.randrange(-5, 6))
            if c:
                combo = self.A.add(combo, self.A.scale(v, self.one * c))
        return combo

    def _solve_combo(self, vectors: List[dict], target: dict) -> Optional[list]:
        span = _RawSpan(self.zero, self.one)
        for v in vectors:
            span.add(v)
        coords = span.coordinates(target)
        if coords is None:
            return None
        # coordinates come back indexed by insertion attempt = input position
        return coords + [self.zero] * (len(vectors) - len(coords))


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

    Splitting happens in the semisimple quotient (central characters
    first, then zero divisors inside matrix components) and the pieces
    are lifted through the radical by the Newton iteration 3e^2 - 2e^3.
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
    if e_bar == Q.unit:
        corner = [Q.project({i: A.one}) for i in Q.coords]
    else:
        span = _RawSpan(A.zero, A.one)
        corner = []
        for i in Q.coords:
            v = Q.mul(Q.mul(e_bar, {i: A.one}), e_bar)
            if span.add(v):
                corner.append(v)
    groups = ctx.split_groups(e_bar, corner)
    prims, comp_ids = [], []
    for gid, group in enumerate(groups):
        for f_bar in group:
            prims.append(f_bar)
            comp_ids.append(gid)
    lifted = _lift_orthogonal(A, Q, e_vec, prims)
    total: dict = {}
    for f in lifted:
        total = A.add(total, f)
    if total != e_vec:
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
        y = A.sub(A.scale(yy, 3 * A.one), A.scale(yyy, 2 * A.one))
    raise SplitError("idempotent lifting did not stabilize within the bound")


# ---------------------------------------------------------------------------
# JSON interchange


def algebra_to_dict(A: FinDimAlgebra) -> dict:
    """Dump an algebra: labels, unit, and structure constants as strings."""

    def label_json(label):
        parts = getattr(label, "parts", None)  # corner algebras label by name
        return str(label) if parts is None else [list(p) for p in parts]

    obj = {"kind": A.kind, "dim": A.dim}
    _tag_to_json(A.tag, obj)
    obj["labels"] = [label_json(lbl) for lbl in A.labels]
    obj["unit"] = {str(k): _unraw(A.tag, c).render() for k, c in sorted(A.unit.items())}
    obj["structure"] = [
        [
            [[k, _unraw(A.tag, c).render()] for k, c in sorted(cell.items())]
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
    span = _RawSpan(A.zero, A.one)
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
        return coords[e_attempt] if len(coords) > e_attempt else A.zero

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
    tag = A.tag
    e_vec = A.from_morphism(e) if not isinstance(e, dict) else e
    if not A.is_idempotent(e_vec):
        raise ValueError("input is not idempotent")
    e_mor = A.to_morphism(e_vec)

    fn = _local_functional(A, e_vec)
    # pairing values through each End basis diagram
    sandwich = {}
    for i, label in enumerate(A.labels):
        x = A.mul(A.mul(e_vec, {i: A.one}), e_vec)
        sandwich[label] = fn(x)
    index = {label: i for i, label in enumerate(A.labels)}

    param = _raw(tag, tag.parameter())

    def pairing_rank(mid_terms) -> int:
        """Rank of [f(e g (mid) h e)] over the Hom bases at power k."""
        rows = []
        for h in homs_down:
            row = []
            for g in homs_up:
                acc = A.zero
                for mid, c_mid in mid_terms:
                    gm, l1 = pcat._compose_diagrams(g, mid)
                    dm, l2 = pcat._compose_diagrams(gm, h)
                    weight = c_mid * sandwich[dm]
                    if l1 + l2:
                        weight = weight * param ** (l1 + l2)
                    acc = acc + weight
                row.append(_unraw(tag, acc))
            rows.append(row)
        from .linalg import rank

        return rank(rows)

    for k in range(n + 1):
        homs_down = hom_basis(n, k)  # candidate maps X -> [A_k], pre-cut by e
        homs_up = hom_basis(k, n)
        idk = pcat.identity(k, tag).sorted_terms()[0][0]
        if pairing_rank([(idk, A.one)]) == 0:
            continue
        winners = []
        for lam in partitions_of(k):
            cut = pt_power_idempotent(lam, tag)
            mid_terms = [(dgm, _raw(tag, c)) for dgm, c in cut.terms.items()]
            r = pairing_rank(mid_terms)
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

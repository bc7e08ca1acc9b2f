"""Distinguished idempotents on [A_n] and the algebra structure they carry.

``x_n`` is the Moebius-inverted sum over coarsenings of the identity
diagram; its image behaves like a configuration of n distinct points.
This module builds the associated structure maps (multiplication, unit,
module actions, the point-insertion maps and their images ``x_{n,j}``,
and the relative tensor realizations tau/nu) and verifies the defining
identities as exact equalities of linear combinations over Q[t].

The structure maps and every family but ``xn_idempotent`` live in orbit
coordinates (``pcat.OrbitMorphism``), where x_n is the single term o_id
and x_{n,j} the single term Theta_j(o_id): a map that sandwiches x_n has a
handful of terms there, against hundreds of diagrams.  The generators
are converted once by ``pcat.to_orbit``.  The change of basis is
unitriangular over Z, so a check passes in orbit coordinates exactly when
it passes on diagrams.  ``x_n``, ``trace_x``, the ``xn_idempotent`` family
and ``object_split_check`` stay on diagrams, as the definition-level
witnesses.  Apart from x_n, x_{n+1} and the x_{n,j}, each map is built the
first time a check reads it, so a family composes only the maps it uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import factorial
from typing import Dict, List, Optional, Sequence

from .coeff import POLY_T, RATFUN_T, RingElement, RingTag
from .errors import CapExceededError
from .lincomb import LinComb
from .pcat import (
    Morphism,
    OrbitMorphism,
    PartitionDiagram,
    _falling,
    _raw,
    braiding,
    coev,
    diagram_morphism,
    ev,
    identity,
    mu,
    permute_top,
    set_partitions,
    to_orbit,
    unit,
)

# feasibility bounds per verification family (configurable per call)
FAMILY_CAPS = {
    "xn_idempotent": 6,
    "deltalg": 4,
    "deltaj": 4,
    "dplus1": 4,
    "ortho": 5,
    "psi": 4,
    "azero": 3,
    "nondegenerate": 3,
}

FAMILIES = tuple(FAMILY_CAPS)


def mobius_coarsening(blocks: Sequence[Sequence[int]]) -> int:
    """prod over blocks B of (-1)^(|B|-1) (|B|-1)!.

    This is the Moebius weight of a coarsening of the all-singletons
    partition in the partition lattice.
    """
    seen: set = set()
    out = 1
    for block in blocks:
        if not block:
            raise ValueError("empty block")
        for p in block:
            if p in seen:
                raise ValueError("blocks are not disjoint")
            seen.add(p)
        k = len(block)
        out *= (-1) ** (k - 1) * factorial(k - 1)
    return out


@lru_cache(maxsize=None)
def x_n(n: int, ring: RingTag = POLY_T) -> Morphism:
    """The self-dual idempotent on [A_n] cutting out n distinct points.

    Sum over set partitions P of the n strands of mobius_coarsening(P)
    times the diagram merging the identity strands along P.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    terms: Dict[PartitionDiagram, int] = {}
    for blocks in set_partitions(n):
        weight = mobius_coarsening(blocks)
        merged = tuple(
            tuple(sorted([i for i in blk] + [n + i for i in blk])) for blk in blocks
        )
        terms[PartitionDiagram(n, n, merged)] = weight
    return Morphism(n, n, ring, terms)


# ---------------------------------------------------------------------------
# point-insertion maps


def _theta_diagram(d: PartitionDiagram, j: int, add_source: bool, add_target: bool) -> PartitionDiagram:
    """Insert a fresh strand-(n+1) point into the part containing strand j.

    ``add_source`` appends a new bottom point to the part of bottom point
    j-1; ``add_target`` a new top point to the part of top point j-1.  Both
    may be combined (the endomorphism variant).  Each new point repeats an
    earlier point's block, so the word stays restricted-growth.
    """
    a, w = d.bottom, d.word
    # the other row may have fewer than j points, so index only the row that grows
    bottom = w[:a] + ((w[j - 1],) if add_source else ())
    top = w[a:] + ((w[a + j - 1],) if add_target else ())
    return _raw(PartitionDiagram, len(bottom), len(top), bottom + top, d.nblocks)


def theta(f, j: int, variant: str):
    """Linear extension of the strand-insertion map, on diagrams or in
    orbit coordinates (it maps d_pi to d_pi' and o_pi to o_pi' alike).

    variant "source": Hom(A_n, X) -> Hom(A_{n+1}, X);
    variant "target": Hom(X, A_n) -> Hom(X, A_{n+1});
    variant "endo":   End(A_n) -> End(A_{n+1}) (both at once).
    """
    if variant not in ("source", "target", "endo"):
        raise ValueError(f"unknown theta variant {variant!r}")
    add_source = variant in ("source", "endo")
    add_target = variant in ("target", "endo")
    n = f.source if add_source else f.target
    if not 1 <= j <= n:
        raise ValueError(f"j = {j} out of range 1..{n}")
    add = f.ring.add
    terms: dict = {}
    for d, c in f.terms.items():
        nd = _theta_diagram(d, j, add_source, add_target)
        terms[nd] = add(terms[nd], c) if nd in terms else c
    return type(f).from_payloads(
        f.source + (1 if add_source else 0),
        f.target + (1 if add_target else 0),
        f.ring,
        terms,
    )


def theta_mu(n: int, j: int, ring: RingTag = POLY_T) -> Morphism:
    """The image of the multiplication map under strand insertion at j.

    A single diagram [A_{n+1}] (x) [A_{n+1}] -> [A_{n+1}]: strand i keeps
    its three-point part {i, i, i'}, and all three new points join the
    part of strand j.
    """
    if not 1 <= j <= n:
        raise ValueError(f"j = {j} out of range 1..{n}")
    m = n + 1

    def c1(i):  # first source copy, 1-based strand i
        return i - 1

    def c2(i):
        return m + i - 1

    def ct(i):
        return 2 * m + i - 1

    blocks = []
    for i in range(1, n + 1):
        part = [c1(i), c2(i), ct(i)]
        if i == j:
            part += [c1(m), c2(m), ct(m)]
        blocks.append(tuple(sorted(part)))
    return diagram_morphism(PartitionDiagram(2 * m, m, tuple(blocks)), ring)


def x_nj(n: int, j: int, ring: RingTag = POLY_T) -> Morphism:
    """The idempotent x_{n,j} = Theta_j(x_n) on [A_{n+1}]."""
    return theta(x_n(n, ring), j, "endo")


# ---------------------------------------------------------------------------
# structure maps, in orbit coordinates


@lru_cache(maxsize=256)
def _orbit(generator, *args) -> OrbitMorphism:
    """``generator(*args)`` (mu, braiding, identity, ...) in orbit coordinates,
    converted once.  Each has at most n blocks, so Bell(n) terms; the
    braiding of n strands past n, Bell(2n) terms, is applied by
    ``pcat.permute_top`` instead."""
    return to_orbit(generator(*args))


def _orbit_x(n: int, ring: RingTag) -> OrbitMorphism:
    """x_n in orbit coordinates: the single term o_id."""
    (id_n,) = identity(n, ring).terms
    return OrbitMorphism(n, n, ring, {id_n: 1})


def compose_chain(factors: Sequence[LinComb]) -> LinComb:
    """Compose left-to-right as written: factors[0] is applied last."""
    out = factors[0]
    for f in factors[1:]:
        out = out @ f
    return out


@dataclass(frozen=True)
class DeltaMaps:
    """The structure maps attached to the n-points object and its modules,
    in orbit coordinates.

    ``x``, ``x_next`` and ``x_j`` are held; every other map is built from
    the chain its comment names the first time it is read, then kept.
    """

    n: int
    ring: RingTag
    x: OrbitMorphism  # x_n
    x_next: OrbitMorphism  # x_{n+1}
    x_j: tuple  # x_{n,j} for j = 1..n

    @cached_property
    def mult(self) -> OrbitMorphism:  # x_n mu_n (x_n (x) x_n)
        return compose_chain([self.x, _orbit(mu, self.n, self.ring), self.x.tensor(self.x)])

    @cached_property
    def unit(self) -> OrbitMorphism:  # x_n 1_n
        return self.x @ _orbit(unit, self.n, self.ring)

    @cached_property
    def alpha(self) -> tuple:  # per j: x_{n,j} Theta^j_target(x_n) x_n
        return tuple(
            compose_chain([xj, theta(self.x, j, "target"), self.x])
            for j, xj in enumerate(self.x_j, 1)
        )

    @cached_property
    def psi(self) -> OrbitMorphism:  # x_{n+1} (mu_n (x) id) (x_n (x) x_{n+1})
        xn, xn1 = self.x, self.x_next
        mun_id = _orbit(mu, self.n, self.ring).tensor(_orbit(identity, 1, self.ring))
        return compose_chain([xn1, mun_id, xn.tensor(xn1)])

    @cached_property
    def tau(self) -> OrbitMorphism:  # identity realization on the double module
        xn, xn1 = self.x, self.x_next
        b11 = _orbit(braiding, 1, 1, self.ring)
        id1 = _orbit(identity, 1, self.ring)
        return compose_chain(
            [xn.tensor(b11), xn1.tensor(id1), xn.tensor(b11), xn1.tensor(id1)]
        )

    @cached_property
    def nu(self) -> OrbitMorphism:  # identity realization on the triple module
        xn, xn1, ring = self.x, self.x_next, self.ring
        return compose_chain(
            [
                xn.tensor(_orbit(braiding, 1, 2, ring)),
                xn1.tensor(_orbit(identity, 2, ring)),
                xn.tensor(_orbit(braiding, 2, 1, ring)),
                self.tau.tensor(_orbit(identity, 1, ring)),
            ]
        )

    @cached_property
    def mult_plus(self) -> OrbitMorphism:  # x_{n+1} (x_n (x) mu_1) tau
        return compose_chain([self.x_next, self.x.tensor(_orbit(mu, 1, self.ring)), self.tau])

    @cached_property
    def unit_plus(self) -> OrbitMorphism:  # x_{n+1} (x_n (x) 1_1)
        return self.x_next @ self.x.tensor(_orbit(unit, 1, self.ring))

    @cached_property
    def braid_plus(self) -> OrbitMorphism:  # tau (x_n (x) beta_{1,1}) tau
        return compose_chain([self.tau, self.x.tensor(_orbit(braiding, 1, 1, self.ring)), self.tau])

    @cached_property
    def ev_plus(self) -> OrbitMorphism:  # x_n (x_n (x) ev_1) tau
        return compose_chain([self.x, self.x.tensor(_orbit(ev, 1, self.ring)), self.tau])

    @cached_property
    def coev_plus(self) -> OrbitMorphism:  # tau (x_n (x) coev_1) x_n
        return compose_chain([self.tau, self.x.tensor(_orbit(coev, 1, self.ring)), self.x])

    @cached_property
    def mult_tensor_id(self) -> OrbitMorphism:
        # (x_n (x) beta_{1,1}) (x_{n+1} (x) id_1) (x_n (x) beta_{1,1}) (mult_plus (x) id_1)
        xn, ring = self.x, self.ring
        b11 = _orbit(braiding, 1, 1, ring)
        id1 = _orbit(identity, 1, ring)
        return compose_chain(
            [
                xn.tensor(b11),
                self.x_next.tensor(id1),
                xn.tensor(b11),
                self.mult_plus.tensor(id1),
            ]
        )


def delta_maps(n: int, ring: RingTag = POLY_T) -> DeltaMaps:
    """The structure maps of the n-points object in orbit coordinates, each
    built on first use.

    Only x_n, x_{n+1} and the x_{n,j}, single orbit terms, are built here;
    every other map is composed exactly, as a linear combination, when a
    caller first reads it.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    xn = _orbit_x(n, ring)
    xj = tuple(theta(xn, j, "endo") for j in range(1, n + 1))
    return DeltaMaps(n=n, ring=ring, x=xn, x_next=_orbit_x(n + 1, ring), x_j=xj)


# ---------------------------------------------------------------------------
# verification reports


@dataclass
class Check:
    label: str
    left: object
    right: object
    passed: bool
    difference: object = None


@dataclass
class VerificationReport:
    family: str
    n: int
    checks: List[Check] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, label: str, left, right):
        diff = left - right
        self.checks.append(Check(label, left, right, diff.is_zero(), diff))

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "checks": [{"label": c.label, "pass": c.passed} for c in self.checks],
            "overall": self.overall,
        }

    def summary_lines(self) -> List[str]:
        lines = [
            f"{c.label}: {'pass' if c.passed else 'FAIL'}" for c in self.checks
        ]
        lines.append(
            f"{self.family}(n={self.n}): "
            f"{'all pass' if self.overall else 'FAILED'}"
        )
        return lines


def _family_cap(family: str, n: int, cap: Optional[int]):
    if family not in FAMILY_CAPS:
        raise ValueError(f"unknown verification family {family!r}")
    bound = FAMILY_CAPS[family] if cap is None else cap
    if n > bound:
        raise CapExceededError(
            f"family {family} capped at n <= {bound} (got n = {n})"
        )


def verify_suite(
    family: str,
    n: int,
    ring: RingTag = POLY_T,
    j: Optional[int] = None,
    cap: Optional[int] = None,
) -> VerificationReport:
    """Evaluate both sides of every displayed identity in a family.

    All comparisons are exact equalities of canonical linear combinations
    over the polynomial ring, so a pass certifies the identity for every
    parameter value at once.  ``xn_idempotent`` compares diagrams; the
    other families compare orbit coordinates.
    """
    _family_cap(family, n, cap)
    report = VerificationReport(family, n)

    if family == "xn_idempotent":
        xn = x_n(n, ring)
        report.add("x^2 = x", xn @ xn, xn)
        report.add("x* = x", xn.dual(), xn)
        return report

    maps = delta_maps(n, ring)
    xn, xn1, xj = maps.x, maps.x_next, maps.x_j
    id1 = _orbit(identity, 1, ring)

    if family == "deltalg":
        swap = [*range(n, 2 * n), *range(n)]  # braiding(n, n) as a permutation
        report.add(
            "D1",
            maps.mult @ maps.mult.tensor(xn),
            maps.mult @ xn.tensor(maps.mult),
        )
        report.add("D2-left", maps.mult @ maps.unit.tensor(xn), xn)
        report.add("D2-right", maps.mult @ xn.tensor(maps.unit), xn)
        report.add(
            "D3",
            maps.mult @ permute_top(swap, xn.tensor(xn)),
            maps.mult,
        )
        return report

    if family == "deltaj":
        js = [j] if j is not None else list(range(1, n + 1))
        idn = _orbit(identity, n, ring)
        for jj in js:
            if not 1 <= jj <= n:
                raise ValueError(f"j = {jj} out of range 1..{n}")
            k = jj - 1
            tmu = _orbit(theta_mu, n, jj, ring)
            inner = compose_chain([xj[k], theta(xn, jj, "target"), maps.mult])
            lhs = compose_chain([xj[k], tmu, inner.tensor(xj[k])])
            rhs = compose_chain(
                [
                    xj[k],
                    tmu,
                    maps.alpha[k].tensor(
                        compose_chain([xj[k], tmu, maps.alpha[k].tensor(xj[k])])
                    ),
                ]
            )
            report.add(f"Dj1[j={jj}]", lhs, rhs)
            up, down = theta(idn, jj, "target"), theta(idn, jj, "source")
            report.add(f"Dj2[j={jj}]", compose_chain([xj[k], up, xn, down, xj[k]]), xj[k])
            report.add(f"Dj3[j={jj}]", compose_chain([xn, down, xj[k], up, xn]), xn)
        return report

    if family == "dplus1":
        mun_id = _orbit(mu, n, ring).tensor(id1)
        lhs = compose_chain([xn1, mun_id, maps.mult.tensor(xn1)])
        rhs = compose_chain([xn1, mun_id, xn.tensor(maps.psi)])
        report.add("Dplus1", lhs, rhs)
        return report

    if family == "ortho":
        zero_next = OrbitMorphism(n + 1, n + 1, ring)
        total = xn1
        for piece in xj:
            total = total + piece
        report.add("sum", xn.tensor(id1), total)
        for jj in range(1, n + 1):
            report.add(f"x_(n,{jj}) x_(n+1) = 0", xj[jj - 1] @ xn1, zero_next)
            report.add(f"x_(n+1) x_(n,{jj}) = 0", xn1 @ xj[jj - 1], zero_next)
        for jj in range(1, n + 1):
            for kk in range(1, n + 1):
                expected = xj[jj - 1] if jj == kk else zero_next
                report.add(
                    f"x_(n,{jj}) x_(n,{kk})",
                    xj[jj - 1] @ xj[kk - 1],
                    expected,
                )
        return report

    if family == "psi":
        idem, zero_next = xn.tensor(id1), OrbitMorphism(n + 1, n + 1, ring)
        mult_id = maps.mult.tensor(id1)
        lhs = compose_chain([xn1, _orbit(mu, n, ring).tensor(id1), xn.tensor(xn1 @ idem)])
        rhs = xn1 @ mult_id
        report.add("Psi[top]", lhs, rhs)
        for jj in range(1, n + 1):
            k = jj - 1
            lhs = compose_chain(
                [xj[k], _orbit(theta_mu, n, jj, ring), maps.alpha[k].tensor(xj[k] @ idem)]
            )
            rhs = xj[k] @ mult_id
            report.add(f"Psi[j={jj}]", lhs, rhs)
        # mutual inverse checks for the column/row matrices
        summands = [xn1] + list(xj)
        inv_psi = zero_next
        for piece in summands:
            inv_psi = inv_psi + compose_chain([idem, piece, piece, idem])
        report.add("PsiInv Psi = id", inv_psi, idem)
        for a, pa in enumerate(summands):
            for b, pb in enumerate(summands):
                entry = compose_chain([pa, idem, idem, pb])
                expected = pa if a == b else zero_next
                report.add(f"Psi PsiInv[{a},{b}]", entry, expected)
        return report

    if family == "azero":
        b11 = _orbit(braiding, 1, 1, ring)
        lhs = compose_chain([maps.mult_plus, maps.mult_tensor_id, maps.nu])
        rhs = compose_chain(
            [
                maps.mult_plus,
                xn.tensor(b11),
                maps.mult_plus.tensor(id1),
                xn.tensor(_orbit(braiding, 1, 2, ring)),
                xn1.tensor(_orbit(identity, 2, ring)),
                maps.nu,
            ]
        )
        report.add("assoc", lhs, rhs)
        unit_left = compose_chain(
            [
                maps.mult_plus,
                xn.tensor(b11),
                xn1.tensor(id1),
                xn.tensor(b11),
                maps.unit_plus.tensor(id1),
            ]
        )
        report.add("unit-left", unit_left, xn1)
        unit_right = compose_chain(
            [maps.mult_plus, xn.tensor(b11), maps.unit_plus.tensor(id1), xn1]
        )
        report.add("unit-right", unit_right, xn1)
        report.add(
            "comm",
            compose_chain([maps.mult_plus, xn.tensor(b11), maps.tau]),
            maps.mult_plus,
        )
        return report

    if family == "nondegenerate":
        id_tensor_coev = compose_chain(
            [xn.tensor(_orbit(braiding, 2, 1, ring)), maps.coev_plus.tensor(id1), xn1]
        )
        trace_map = compose_chain(
            [maps.ev_plus, maps.braid_plus, maps.mult_tensor_id, id_tensor_coev]
        )
        pairing = compose_chain(
            [xn1, (trace_map @ maps.mult_plus).tensor(id1), id_tensor_coev]
        )
        report.add("pairing = id", pairing, xn1)
        return report

    raise ValueError(f"unknown verification family {family!r}")


# ---------------------------------------------------------------------------
# dimensions and the object-level splitting check


def trace_x(n: int, ring: RingTag = POLY_T, cap: int = 8) -> RingElement:
    """trace(x_n); equals the falling factorial t(t-1)...(t-n+1)."""
    if n > cap:
        raise CapExceededError(f"trace_x capped at n <= {cap}")
    return x_n(n, ring).trace()


def falling_factorial(n: int, ring: RingTag = POLY_T) -> RingElement:
    """t(t-1)...(t-n+1), the weight the orbit product gives n closed blocks."""
    return RingElement(ring, _falling(ring, 0, n))


def object_split_check(d: int, cap: Optional[int] = None) -> VerificationReport:
    """Object-level splitting of x_{d+1} (x) id and its dimension data.

    Checks (i) the insertion idempotents refine x_{d+1} (x) id_[pt],
    (ii) the d+1 point configuration has dimension zero at t = d, and
    (iii) the relative dimension ratio is t-(d+1), hence -1 at t = d.
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    if cap is None:
        cap = 3
    if d > cap:
        raise CapExceededError(f"object_split_check capped at d <= {cap}")
    n = d + 1
    ring = POLY_T
    report = VerificationReport("object_split", d)
    total = x_n(n + 1, ring)
    for j in range(1, n + 1):
        total = total + x_nj(n, j, ring)
    report.add("ortho at n = d+1", x_n(n, ring).tensor(identity(1, ring)), total)

    dim_delta = trace_x(n, ring)
    at_d = dim_delta.evaluate(d)
    report.add("dim at t = d", at_d, at_d.tag.zero())

    ratio = trace_x(n + 1, RATFUN_T) / trace_x(n, RATFUN_T)
    expected = RATFUN_T.parameter() - RATFUN_T.from_fraction(n)
    report.add("relative dimension = t - (d+1)", ratio, expected)
    value = ratio.evaluate(d)
    report.add("relative dimension at t = d", value, value.tag.from_fraction(-1))
    return report

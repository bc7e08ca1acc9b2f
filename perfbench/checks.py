"""Output checks, run by the parent after each child's timer has stopped.

Every check compares against a computation made apart from partcat (see
``refmath``) or a property the method must have; no stored output is used.
Coefficients are compared in sympy: rational functions in Q(t) or Q(d), and
number-field values as remainders modulo a minimal polynomial that sympy
derives on its own.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache

import sympy
from sympy import QQ, Poly, Symbol
from sympy.polys.fields import field

import refmath
import workloads

T_FIELD, T = field("t", QQ)
D_FIELD, D = field("d", QQ)
X = Symbol("x")


class CheckError(Exception):
    pass


def require(cond, message: str):
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# sympy references


def parse(text: str, var: str = "t"):
    """A coefficient-grammar string as an element of Q(var)."""
    require(isinstance(text, str), f"coefficient {text!r} is not a string")
    fld = T_FIELD if var == "t" else D_FIELD
    return fld.from_expr(sympy.sympify(text.replace("^", "**")))


def quantum(n: int):
    """[n] in Q(d) by [0] = 0, [1] = 1, [k+1] = d [k] - [k-1]."""
    prev, cur = D * 0, D**0
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, D * cur - prev
    return cur


@lru_cache(maxsize=None)
def level_minpoly(level: int) -> Poly:
    """Minimal polynomial over Q of q + 1/q, for q a root of unity of the least
    order whose square has order level + 1."""
    m = level + 1
    order = m if m % 2 else 2 * m
    return Poly(sympy.minimal_polynomial(2 * sympy.cos(2 * sympy.pi / order), X), X, domain=QQ)


def mod(value, m: Poly) -> Poly:
    """A polynomial element of Q(d) reduced modulo m."""
    require(value.denom.is_ground, f"number-field value {value} is not a polynomial")
    return Poly(value.as_expr().subs(Symbol("d"), X), X, domain=QQ).rem(m)


def falling_factorial(n: int):
    out = T**0
    for k in range(n):
        out = out * (T - k)
    return out


def hook_content(parts):
    """prod over cells (t + content) / hook length."""
    cols = [sum(1 for p in parts if p > c) for c in range(parts[0] if parts else 0)]
    out = T**0
    for r, p in enumerate(parts):
        for c in range(p):
            out = out * (T + (c - r)) / ((p - c) + (cols[c] - r) - 1)
    return out


FAMILY_CHECKS = {
    "xn_idempotent": lambda n: 2,
    "deltalg": lambda n: 4,
    "deltaj": lambda n: 3 * n,
    "dplus1": lambda n: 1,
    "ortho": lambda n: 1 + 2 * n + n * n,
    "psi": lambda n: 2 + n + (n + 1) ** 2,
    "azero": lambda n: 4,
    "nondegenerate": lambda n: 1,
    "object_split": lambda n: 4,
}


# ---------------------------------------------------------------------------
# shared checks


def cli_json(payload: dict):
    require(payload["code"] == 0, f"exit code {payload['code']}: {payload['err'][-200:]}")
    try:
        return json.loads(payload["out"])
    except json.JSONDecodeError as exc:
        raise CheckError(f"stdout is not JSON: {exc}") from exc


def check_verify(doc: dict, family: str, n: int):
    require(doc.get("family") == family and doc.get("n") == n, f"report is for {doc.get('family')} n={doc.get('n')}")
    require(doc.get("overall") is True, f"{family}: overall is not true")
    checks = doc.get("checks", [])
    want = FAMILY_CHECKS[family](n)
    require(len(checks) == want, f"{family}(n={n}): {len(checks)} checks, expected {want}")
    bad = [c.get("label") for c in checks if c.get("pass") is not True]
    require(not bad, f"{family}: checks not passed: {bad}")


def check_gram(doc: dict, n: int):
    matrix = doc.get("matrix")
    basis = refmath.rg_partitions(2 * n)
    size = refmath.bell(2 * n)
    require(doc.get("a") == n and doc.get("b") == n, "gram reports the wrong object")
    require(len(matrix) == size and all(len(r) == size for r in matrix), f"gram is not {size}x{size}")
    powers = {}
    for text in {x for row in matrix for x in row}:
        value = parse(text, "t")
        k = next((k for k in range(2 * n + 1) if value == T**k), None)
        require(k is not None, f"gram entry {text!r} is not a monic power of t")
        powers[text] = k
    for i in range(size):
        for j in range(i):
            require(powers[matrix[i][j]] == powers[matrix[j][i]], f"gram not symmetric at ({i}, {j})")
        require(powers[matrix[i][i]] == len(basis[i]),
                f"gram diagonal {i} is t^{powers[matrix[i][i]]}, expected t^{len(basis[i])}")


def _terms(doc: dict, m=None) -> dict:
    """A TL morphism document over Q(d) or Q[d]/(m) as {pairs: coefficient}."""
    out = {}
    for term in doc["terms"]:
        key = tuple(sorted(tuple(sorted(p)) for p in term["pairs"]))
        value = parse(term["coeff"], "d")
        out[key] = mod(value, m) if m is not None else value
    return out


def _is_zero(value, m) -> bool:
    return mod(value, m).is_zero if m is not None else value == 0


def check_projector(doc: dict, n: int, m=None):
    """Jones-Wenzl properties: Catalan(n) terms, identity coefficient 1,
    trace [n+1], and e_i p = 0 for every cup-cap generator e_i."""
    require(doc.get("kind") == "tl" and doc.get("source") == n and doc.get("target") == n,
            f"not a TL endomorphism of {n} strands")
    require(len(doc["terms"]) == refmath.catalan(n), f"jw({n}) has {len(doc['terms'])} terms")
    raw = {tuple(sorted(tuple(sorted(p)) for p in t["pairs"])): parse(t["coeff"], "d") for t in doc["terms"]}
    ident = tuple((i, n + i) for i in range(n))
    require(ident in raw and raw[ident] == D**0, f"jw({n}): identity coefficient is not 1")
    trace = sum((c * D ** refmath.closure_components(pairs, n) for pairs, c in raw.items()), D * 0)
    want = quantum(n + 1)
    if m is not None:
        require(mod(trace, m) == mod(want, m), f"trace of jw({n}) is not [{n + 1}] modulo m")
    else:
        require(trace == want, f"trace of jw({n}) is {trace}, expected [{n + 1}] = {want}")
    for i in range(1, n):
        e = refmath.tl_e(i, n)
        acc = {}
        for pairs, c in raw.items():
            out, loops = refmath.compose_partition(e, pairs, n, n, n)
            acc[out] = acc.get(out, D * 0) + c * D**loops
        require(all(_is_zero(v, m) for v in acc.values()), f"e_{i} jw({n}) is not zero")


def check_modulus(doc: dict) -> Poly:
    """The minimal polynomial of the number field at the workload's level,
    after checking that the document's modulus is that polynomial."""
    m = level_minpoly(workloads.LEVEL)
    got = Poly(parse(doc["minpoly"], "d").as_expr().subs(Symbol("d"), X), X, domain=QQ)
    require(got == m, f"number field modulus {doc['minpoly']} is not {m.as_expr()}")
    return m


def check_same_terms(square: dict, projector: dict, m=None):
    require(square.get("source") == projector.get("source"), "p @ p has the wrong shape")
    require(_terms(square, m) == _terms(projector, m), "p @ p differs from p")


def _partition_terms(doc: dict, var: str) -> dict:
    return {tuple(sorted(tuple(sorted(b)) for b in t["blocks"])): parse(t["coeff"], var) for t in doc["terms"]}


# ---------------------------------------------------------------------------
# the checker


class Checker:
    """Checks one workload's payloads, each distinct payload once."""

    def __init__(self, workload: str, session=None):
        self.workload = workload
        self.session = session
        self.passed = set()

    def prepare(self):
        """Build the reference data before timing starts."""
        if self.workload == "identities":
            refmath.partitions_digest(9)
        elif self.workload == "splitting":
            refmath.tl_semisimple_dim(workloads.RADICAL_TL, Fraction(1))
            for d in (0, 1, 2):
                refmath.partition_semisimple_dim(2, Fraction(d))
                refmath.tl_semisimple_dim(workloads.SPLIT_TL, Fraction(d))
        else:
            level_minpoly(workloads.LEVEL)

    def check(self, name: str, payload, key: str):
        """Raise CheckError unless the payload of ``name`` is right."""
        if key in self.passed:
            return
        if self.workload == "session":
            self.check_session(payload)
        else:
            getattr(self, "_" + self.workload.replace("-", "_"))(name, payload)
        self.passed.add(key)

    # -- identities -------------------------------------------------------

    def _identities(self, name: str, p: dict):
        if name == "verify-xn_idempotent":
            n = workloads.XN
            check_verify(cli_json(p), "xn_idempotent", n)
            require(parse(p["trace_x"], "t") == falling_factorial(n), f"trace_x({n}) != t(t-1)...(t-{n - 1})")
        elif name.startswith("verify-"):
            check_verify(cli_json(p), name[len("verify-"):], 3)
        elif name == "gram-2":
            check_gram(cli_json(p), 2)
        elif name == "hom_basis-5-4":
            bell = refmath.bell(9)
            require(p["count"] == bell and p["distinct"] == bell,
                    f"hom_basis(5, 4): {p['count']} diagrams, {p['distinct']} distinct; Bell(9) = {bell}")
            require(p["shapes"] == [[5, 4]], f"hom_basis(5, 4) shapes {p['shapes']}")
            require(p["digest"] == refmath.partitions_digest(9), "hom_basis(5, 4) is not the set of partitions of 9 points")
        else:
            raise CheckError(f"no check for {name}")

    # -- splitting ---------------------------------------------------------

    def _splitting(self, name: str, p: dict):
        if name.startswith("decompose-"):
            d = int(name.rsplit("d", 1)[1])
            doc = cli_json(p)
            require(doc["n"] == 2 and Fraction(doc["t"]) == d, "decompose reports the wrong case")
            total = sum(s["count"] * sympy.Rational(s["dim"]) for s in doc["summands"])
            require(total == d**2, f"decompose at d={d}: sum count*dim = {total}, expected {d ** 2}")
            squares = sum(s["count"] ** 2 for s in doc["summands"])
            want = refmath.partition_semisimple_dim(2, Fraction(d))
            require(squares == want, f"decompose at d={d}: sum count^2 = {squares}, dim A/rad = {want}")
        elif name.startswith(f"split-tl{workloads.SPLIT_TL}-"):
            n = workloads.SPLIT_TL
            d = int(name.rsplit("d", 1)[1])
            require(p["dim"] == refmath.catalan(n), f"TL_{n} has dimension {p['dim']}")
            sizes = {}
            total = {}
            for doc in p["idempotents"]:
                require(doc.get("kind") == "tl" and doc["source"] == doc["target"] == n, f"not a TL_{n} element")
                sizes[doc["component"]] = sizes.get(doc["component"], 0) + 1
                for term in doc["terms"]:
                    key = tuple(sorted(tuple(q) for q in term["pairs"]))
                    total[key] = total.get(key, 0) + sympy.Rational(term["coeff"])
            squares = sum(s * s for s in sizes.values())
            want = refmath.tl_semisimple_dim(n, Fraction(d))
            require(squares == want, f"TL_{n} at d={d}: sum size^2 = {squares}, dim A/rad = {want}")
            if d == 2:
                require(sorted(sizes.values()) == sorted(refmath.ballot_dims(n)),
                        f"TL_{n} at d=2: component sizes {sorted(sizes.values())}")
            ident = tuple((i, n + i) for i in range(n))
            require(all(v == (1 if k == ident else 0) for k, v in total.items()) and total.get(ident) == 1,
                    f"TL_{n} at d={d}: idempotents do not sum to the identity")
        elif name == f"radical-tl{workloads.RADICAL_TL}-d1":
            n = workloads.RADICAL_TL
            basis, form = refmath.tl_trace_form(n, Fraction(1))
            index = {b: i for i, b in enumerate(basis)}
            order = [index[tuple(sorted(tuple(sorted(q)) for q in lbl))] for lbl in p["labels"]]
            want = len(basis) - refmath.tl_semisimple_dim(n, Fraction(1))
            require(len(p["vectors"]) == want, f"radical of TL_{n} at d=1 has dim {len(p['vectors'])}, expected {want}")
            rows = []
            for vec in p["vectors"]:
                v = {order[int(k)]: Fraction(c) for k, c in vec.items()}
                for row in form:
                    require(sum(row[j] * c for j, c in v.items()) == 0, "radical vector outside the trace form's kernel")
                rows.append([v.get(j, 0) for j in range(len(basis))])
            require(refmath.rank(rows) == want, "radical vectors are not independent")
        else:
            raise CheckError(f"no check for {name}")

    # -- jones-wenzl -------------------------------------------------------

    def _jones_wenzl(self, name: str, p: dict):
        if name == "tl-jw-5":
            check_projector(cli_json(p), 5)
        elif name == "tl-jw-6-level":
            doc = cli_json(p)
            m = check_modulus(doc)
            check_projector(doc, 6, m)
        elif name == "jw4-squared-ratfun":
            check_projector(p["projector"], 4)
            check_same_terms(p["square"], p["projector"])
        elif name == "jw5-squared-numberfield":
            m = check_modulus(p["square"])
            check_modulus(p["projector"])
            check_projector(p["projector"], 5, m)
            check_same_terms(p["square"], p["projector"], m)
        else:
            raise CheckError(f"no check for {name}")

    # -- session -----------------------------------------------------------

    def check_session(self, payloads: dict):
        """Relations across one round of session requests (failed ones skipped)."""
        s = self.session
        m = level_minpoly(workloads.LEVEL)
        ok = {k: v for k, v in payloads.items() if v is not None}

        def out(name):
            return cli_json(ok[name])

        def value(ring, text):
            if ring == "Qdelta":
                return mod(parse(text, "d"), m)
            return parse(text, "t")

        def times(ring, a, b):
            return (a * b).rem(m) if ring == "Qdelta" else a * b

        for name, p in ok.items():
            if name.startswith("malformed."):
                require(p["code"] == 2, f"{name}: exit code {p['code']}, expected 2")
                require(p["out"] == "", f"{name}: wrote to stdout")
                require(p["err"].count("\n") == 1 and p["err"].endswith("\n"),
                        f"{name}: stderr is not one line: {p['err']!r}")
            else:
                require(p["code"] == 0, f"{name}: exit code {p['code']}: {p['err'][-200:]}")
            for path, text in p.get("files", {}).items():
                require(text is not None, f"{name}: {path} was not written")
        for ring in workloads.SESSION_RINGS:
            if {f"{ring}.trace-gf", f"{ring}.trace-fg"} <= ok.keys():
                gf = value(ring, out(f"{ring}.trace-gf")["trace"])
                fg = value(ring, out(f"{ring}.trace-fg")["trace"])
                require(gf == fg, f"{ring}: trace(g f) != trace(f g)")
                if f"{ring}.trace-gf2" in ok:
                    tt = value(ring, out(f"{ring}.trace-gf2")["trace"])
                    require(tt == times(ring, gf, gf), f"{ring}: trace(h (x) h) != trace(h)^2")
        if {"Qat.dual", "Qat.dual-dual", "Qat.read-write"} <= ok.keys():
            f_doc = s.files["Qat-f.json"]
            (dual_text,) = ok["Qat.dual"]["files"].values()
            (twice,) = ok["Qat.dual-dual"]["files"].values()
            (rw,) = ok["Qat.read-write"]["files"].values()
            require(twice == rw, "dual(dual(f)) and a read-write pass of f differ in bytes")
            require(_partition_terms(json.loads(twice), "t") == _partition_terms(f_doc, "t"),
                    "dual(dual(f)) != f")
            a, b = f_doc["source"], f_doc["target"]
            flipped = {"terms": [{"blocks": [[p + b if p < a else p - a for p in blk] for blk in t["blocks"]],
                                  "coeff": t["coeff"]} for t in f_doc["terms"]]}
            require(_partition_terms(json.loads(dual_text), "t") == _partition_terms(flipped, "t"),
                    "dual(f) does not flip f")
        if {"tl.trace-gf", "tl.trace-fg"} <= ok.keys():
            require(parse(out("tl.trace-gf")["trace"], "d") == parse(out("tl.trace-fg")["trace"], "d"),
                    "TL: trace(g f) != trace(f g)")
        if "dim" in ok:
            require(parse(out("dim")["dim"], "t") == T**s.dim_n, f"dim --n {s.dim_n} is not t^{s.dim_n}")
        if "gram-2" in ok:
            check_gram(out("gram-2"), 2)
        if "trace-symmetrizer" in ok:
            sym = parse(out("trace-symmetrizer")["trace"], "t")
            require(sym == hook_content((2, 1)), "trace of the (2,1) symmetrizer is not the hook-content product")
            if "negligible-symmetrizer" in ok:
                require(out("negligible-symmetrizer")["negligible"] is False or sym == 0,
                        "an idempotent with nonzero trace is called negligible")
        if "negligible-x2-t1" in ok:
            require(out("negligible-x2-t1")["negligible"] is True, "x_2 at t = 1 is not negligible")
        if "block-of" in ok:
            doc = out("block-of")
            members = doc["block"]["members"]
            require(members[doc["block"]["index"]] == [2, 1], "block-of does not list its query")
        if "blocks" in ok:
            doc = out("blocks")
            want = refmath.partition_count(2)
            require(doc["infinite_blocks"] == want == len(doc["blocks"]),
                    f"blocks at d=2: {doc['infinite_blocks']} infinite blocks, expected p(2) = {want}")
            for members in doc["blocks"]:
                sizes = [sum(mm) for mm in members]
                require(sizes == sorted(sizes), "block members are not ordered by size")
        if "tl.quantum" in ok:
            require(parse(out("tl.quantum")["quantum"], "d") == quantum(5), "[5] disagrees with the recursion")
        if "tl.quantum-level" in ok:
            doc = out("tl.quantum-level")
            require(mod(parse(doc["quantum"], "d"), m) == mod(quantum(5), m), "[5] mod m disagrees")
            require(doc["l_q"] == workloads.LEVEL, f"vanishing level {doc['l_q']}")
        if {"tl.block", "tl.block-reflected"} <= ok.keys():
            a, b = out("tl.block")["block"], out("tl.block-reflected")["block"]
            require(a == b and a.startswith("reg:"), f"weights 1 and 3 at l=2 in blocks {a}, {b}")
        if "verify-object_split" in ok:
            check_verify(out("verify-object_split"), "object_split", 1)

"""The benchmark's workloads: fixed lists of operations, and the session inputs.

An operation is either a CLI verb run through ``cli.main`` or, where no verb
exists, a call into the library.  Library calls are written as functions of
the imported partcat package, so this module imports nothing of the program
itself: the parent process never loads partcat.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import refmath

WORKLOADS = ("identities", "splitting", "jones-wenzl", "session")

SESSION_DIR = Path("perfbench/out/session")
SESSION_RINGS = ("Qt", "Qat", "Qratfun", "Qdelta")
SESSION_T = Fraction(5, 2)
LEVEL = 8  # vanishing level of the number field Q[d]/(m), m of degree 3
TERMS = 5  # terms per seeded random morphism
# distinct diagrams in g f and f g: fixed so that every seed asks the same amount of work
GF_TERMS, FG_TERMS = 9, 18
TL_TERMS, TL_GF_TERMS, TL_FG_TERMS = 3, 2, 6
IDENTITY_FAMILIES = ("deltalg", "deltaj", "dplus1", "ortho", "psi", "azero", "nondegenerate")
XN = 5  # x_n of verify --family xn_idempotent, and trace_x(XN)
SPLIT_TL = 4  # TL_n whose unit split_idempotent splits
RADICAL_TL = 5  # TL_n at d = 1 whose radical is taken


@dataclass(frozen=True)
class Op:
    """One operation: ``argv`` for a CLI verb, else ``call`` names a LIBRARY entry."""

    name: str
    argv: tuple = ()
    call: str = ""
    reads: tuple = ()  # files the verb writes, read back after the timer

    def to_json(self) -> dict:
        return {"name": self.name, "argv": list(self.argv), "call": self.call, "reads": list(self.reads)}

    @staticmethod
    def from_json(obj: dict) -> "Op":
        return Op(obj["name"], tuple(obj["argv"]), obj["call"], tuple(obj["reads"]))


def cold_ops(workload: str) -> list:
    if workload == "identities":
        ops = [Op(f"verify-{fam}", ("verify", "--json", "--family", fam, "--n", "3"))
               for fam in IDENTITY_FAMILIES]
        ops += [
            Op("verify-xn_idempotent", call="xn_idempotent"),
            Op("gram-2", ("gram", "--n", "2", "--json")),
            Op("hom_basis-5-4", call="hom_basis_5_4"),
        ]
        return ops
    if workload == "splitting":
        ops = [Op(f"decompose-2-d{d}", ("decompose", "--n", "2", "--d", str(d), "--json"))
               for d in (0, 1, 2)]
        ops += [Op(f"split-tl{SPLIT_TL}-d{d}", call=f"split_tl_d{d}") for d in (0, 1, 2)]
        ops += [Op(f"radical-tl{RADICAL_TL}-d1", call="radical_tl_d1")]
        return ops
    if workload == "jones-wenzl":
        return [
            Op("tl-jw-5", ("tl", "jw", "--n", "5", "--json")),
            Op("tl-jw-6-level", ("tl", "jw", "--n", "6", "--l", str(LEVEL), "--json")),
            Op("jw4-squared-ratfun", call="jw4_squared"),
            Op("jw5-squared-numberfield", call="jw5_squared_nf"),
        ]
    raise KeyError(workload)


# ---------------------------------------------------------------------------
# library calls: (timed call and its rendering, payload built after the timer)


def _capture_verify(pc):
    return pc.run_cli(["verify", "--json", "--family", "xn_idempotent", "--n", str(XN)]), \
        pc.delta.trace_x(XN).render()


def _xn_payload(pc, result):
    (code, out, err), trace = result
    return {"code": code, "out": out, "err": err, "trace_x": trace}


def _hom_basis(pc):
    return pc.pcat.hom_basis(5, 4, cap=9)


def _hom_basis_payload(pc, basis):
    words = [repr(d.blocks) for d in basis]
    return {
        "count": len(basis),
        "distinct": len(set(words)),
        "shapes": sorted({(d.bottom, d.top) for d in basis}),
        "digest": refmath.digest(words),
    }


def _split_tl(d):
    def call(pc):
        A = pc.algkit.end_algebra_tl(SPLIT_TL, pc.coeff.bound_q(d, "d"))
        dec = pc.algkit.split_idempotent(A, A.unit)
        return A, pc.algkit.decomposition_to_list(dec)
    return call


def _split_payload(pc, result):
    A, docs = result
    return {"dim": A.dim, "idempotents": docs}


def _radical_tl(pc):
    A = pc.algkit.end_algebra_tl(RADICAL_TL, pc.coeff.bound_q(1, "d"))
    return A, pc.algkit.radical(A)


def _radical_payload(pc, result):
    A, vectors = result
    return {
        "labels": [[list(p) for p in lbl.pairs] for lbl in A.labels],
        "vectors": [{str(k): str(v) for k, v in vec.items()} for vec in vectors],
    }


def _jw4_squared(pc):
    p = pc.tl.jw(4)
    return pc.tl.tl_to_dict(p @ p)


def _jw5_squared_nf(pc):
    ring = pc.coeff.number_field(pc.coeff.chebyshev_minpoly(LEVEL), "d")
    p = pc.tl.jw(5, ring)
    return pc.tl.tl_to_dict(p @ p)


def _squared_payload(n, nf):
    def payload(pc, square):
        ring = pc.coeff.number_field(pc.coeff.chebyshev_minpoly(LEVEL), "d") if nf else pc.coeff.RATFUN_D
        return {"square": square, "projector": pc.tl.tl_to_dict(pc.tl.jw(n, ring))}
    return payload


LIBRARY = {
    "xn_idempotent": (_capture_verify, _xn_payload),
    "hom_basis_5_4": (_hom_basis, _hom_basis_payload),
    "split_tl_d0": (_split_tl(0), _split_payload),
    "split_tl_d1": (_split_tl(1), _split_payload),
    "split_tl_d2": (_split_tl(2), _split_payload),
    "radical_tl_d1": (_radical_tl, _radical_payload),
    "jw4_squared": (_jw4_squared, _squared_payload(4, False)),
    "jw5_squared_nf": (_jw5_squared_nf, _squared_payload(5, True)),
}


# ---------------------------------------------------------------------------
# session inputs


@dataclass
class Session:
    """Seeded inputs of the session workload: files to write and requests."""

    seed: int
    files: dict = field(default_factory=dict)  # file name -> document
    ops: list = field(default_factory=list)
    dim_n: int = 0

    def path(self, name: str) -> str:
        return str(SESSION_DIR / name)


def _rand_diagram(rng: random.Random, points: int) -> tuple:
    labels, top = [], -1
    for _ in range(points):
        lab = rng.randint(0, top + 1)
        top = max(top, lab)
        labels.append(lab)
    blocks: dict = {}
    for p, lab in enumerate(labels):
        blocks.setdefault(lab, []).append(p)
    return tuple(tuple(b) for b in blocks.values())


def _rand_poly(rng: random.Random, var: str, degree: int) -> str:
    while True:
        cs = [rng.randint(-3, 3) for _ in range(degree + 1)]
        if any(cs):
            break
    parts = []
    for k in range(degree, -1, -1):
        c = cs[k]
        if c:
            mono = "" if k == 0 else (var if k == 1 else f"{var}^{k}")
            body = str(abs(c)) if not mono else (mono if abs(c) == 1 else f"{abs(c)}*{mono}")
            parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _rand_coeff(rng: random.Random, ring: str, position: int) -> str:
    if ring == "Qt":
        return _rand_poly(rng, "t", 2)
    if ring == "Qat":
        return f"{rng.choice([-1, 1]) * rng.randint(1, 7)}/{rng.randint(1, 5)}"
    if ring == "Qratfun":
        # denominators by position, so the gcd work does not depend on the seed
        return f"({_rand_poly(rng, 't', 1)})/(t + {1 + position % 3})"
    return _rand_poly(rng, "d", 2)


def _ring_fields(ring: str) -> dict:
    if ring == "Qat":
        return {"ring": "Q", "t": str(SESSION_T)}
    if ring == "Qdelta":
        return {"ring": "Qdelta", "minpoly": "d^3 - 3*d + 1"}
    return {"ring": ring}


def _rand_morphism(rng: random.Random, ring: str, a: int, b: int, terms: int) -> dict:
    chosen: dict = {}
    while len(chosen) < terms:
        blocks = _rand_diagram(rng, a + b)
        chosen[refmath.rg_string(blocks, a + b)] = blocks
    items = list(chosen.values())
    rng.shuffle(items)  # readers must canonicalize term order
    doc = {"source": a, "target": b, **_ring_fields(ring)}
    doc["terms"] = [{"blocks": [list(reversed(blk)) for blk in blocks], "coeff": _rand_coeff(rng, ring, i)}
                    for i, blocks in enumerate(items)]
    return doc


def _rand_tl(rng: random.Random, a: int, b: int, terms: int) -> dict:
    n = (a + b) // 2
    # matchings of a -> b are those of n -> n with points relabelled around the disk
    picks = rng.sample(refmath.noncrossing(n), terms)
    boundary_nn = list(range(n)) + [2 * n - 1 - j for j in range(n)]
    pos_nn = {pt: i for i, pt in enumerate(boundary_nn)}
    boundary_ab = list(range(a)) + [a + b - 1 - j for j in range(b)]
    doc = {"kind": "tl", "source": a, "target": b, "ring": "Qratfun", "terms": []}
    for i, m in enumerate(picks):
        pairs = [sorted((boundary_ab[pos_nn[x]], boundary_ab[pos_nn[y]])) for x, y in m]
        doc["terms"].append({"pairs": pairs, "coeff": f"({_rand_poly(rng, 'd', 1)})/(d + {1 + i % 3})"})
    return doc


def _diagram_count(f: dict, g: dict) -> int:
    """Distinct diagrams in g after f, composed by the benchmark itself."""
    a, b, c = f["source"], f["target"], g["target"]

    def shapes(doc):
        return [tuple(tuple(sorted(x)) for x in t.get("blocks", t.get("pairs"))) for t in doc["terms"]]

    return len({refmath.compose_partition(gd, fd, a, b, c)[0] for fd in shapes(f) for gd in shapes(g)})


def _rand_pair(rng: random.Random, make, gf_terms: int, fg_terms: int):
    """Draw f, g until g f and f g have the given numbers of distinct diagrams."""
    while True:
        f, g = make()
        if _diagram_count(f, g) == gf_terms and _diagram_count(g, f) == fg_terms:
            return f, g


def _identity_doc(ring: str, n: int) -> dict:
    return {"source": n, "target": n, **_ring_fields(ring),
            "terms": [{"blocks": [[i, n + i] for i in range(n)], "coeff": "1"}]}


def _x2_at_t1() -> dict:
    """x_2 bound at t = 1: negligible, since the 2-point configuration has dimension t(t-1)."""
    terms = []
    for blocks in refmath.rg_partitions(2):
        merged = [sorted(list(blk) + [2 + i for i in blk]) for blk in blocks]
        terms.append({"blocks": merged, "coeff": str(refmath.mobius_weight(blocks))})
    return {"source": 2, "target": 2, "ring": "Q", "t": "1", "terms": terms}


def _malformed() -> dict:
    return {
        "bad-json": "{broken",
        "missing-terms": {"source": 1, "target": 1, "ring": "Qt"},
        "bad-coefficient": {"source": 1, "target": 1, "ring": "Qt",
                            "terms": [{"blocks": [[0, 1]], "coeff": "t//2"}]},
        # the two documents below raise TypeError out of cli.main today
        "coeff-number": {"source": 1, "target": 1, "ring": "Qt",
                         "terms": [{"blocks": [[0, 1]], "coeff": 3}]},
        "terms-number": {"source": 1, "target": 1, "ring": "Qt", "terms": 5},
    }


def session(seed: int) -> Session:
    """Generate the session workload for a seed.

    Structure is fixed (term counts, degrees, request list); only the
    diagrams and coefficient values depend on the seed.
    """
    rng = random.Random(seed)
    s = Session(seed)
    ops = s.ops
    for ring in SESSION_RINGS:
        s.files[f"{ring}-f.json"], s.files[f"{ring}-g.json"] = _rand_pair(
            rng, lambda: (_rand_morphism(rng, ring, 2, 3, TERMS), _rand_morphism(rng, ring, 3, 2, TERMS)),
            GF_TERMS, FG_TERMS)
        f, g = s.path(f"{ring}-f.json"), s.path(f"{ring}-g.json")
        gf, fg = s.path(f"{ring}-gf.json"), s.path(f"{ring}-fg.json")
        ops.append(Op(f"{ring}.compose-gf", ("compose", "-f", f, "-g", g, "-o", gf), reads=(gf,)))
        ops.append(Op(f"{ring}.compose-fg", ("compose", "-f", g, "-g", f, "-o", fg), reads=(fg,)))
        ops.append(Op(f"{ring}.trace-gf", ("trace", "-f", gf, "--json")))
        ops.append(Op(f"{ring}.trace-fg", ("trace", "-f", fg, "--json")))
        if ring in ("Qt", "Qdelta"):
            tt = s.path(f"{ring}-gf2.json")
            ops.append(Op(f"{ring}.tensor-gf-gf", ("tensor", "-f", gf, "-g", gf, "-o", tt), reads=(tt,)))
            ops.append(Op(f"{ring}.trace-gf2", ("trace", "-f", tt, "--json")))
        if ring == "Qat":
            s.files["Qat-id3.json"] = _identity_doc(ring, 3)
            f1, f2, rw = s.path("Qat-f1.json"), s.path("Qat-f2.json"), s.path("Qat-rw.json")
            ops.append(Op("Qat.dual", ("dual", "-f", f, "-o", f1), reads=(f1,)))
            ops.append(Op("Qat.dual-dual", ("dual", "-f", f1, "-o", f2), reads=(f2,)))
            ops.append(Op("Qat.read-write", ("compose", "-f", f, "-g", s.path("Qat-id3.json"), "-o", rw),
                          reads=(rw,)))
    s.files["tl-f.json"], s.files["tl-g.json"] = _rand_pair(
        rng, lambda: (_rand_tl(rng, 2, 4, TL_TERMS), _rand_tl(rng, 4, 2, TL_TERMS)), TL_GF_TERMS, TL_FG_TERMS)
    tf, tg = s.path("tl-f.json"), s.path("tl-g.json")
    tgf, tfg = s.path("tl-gf.json"), s.path("tl-fg.json")
    ops += [
        Op("tl.compose-gf", ("tl", "compose", "-f", tf, "-g", tg, "-o", tgf), reads=(tgf,)),
        Op("tl.compose-fg", ("tl", "compose", "-f", tg, "-g", tf, "-o", tfg), reads=(tfg,)),
        Op("tl.trace-gf", ("tl", "trace", "-f", tgf, "--json")),
        Op("tl.trace-fg", ("tl", "trace", "-f", tfg, "--json")),
    ]
    s.dim_n = 2 + seed % 3
    y = s.path("y21.json")
    s.files["x2-t1.json"] = _x2_at_t1()
    ops += [
        Op("dim", ("dim", "--n", str(s.dim_n), "--json")),
        Op("gram-2", ("gram", "--n", "2", "--json")),
        Op("symmetrizer", ("symmetrizer", "--lambda", "2,1", "-o", y, "--json"), reads=(y,)),
        Op("trace-symmetrizer", ("trace", "-f", y, "--json")),
        Op("negligible-x2-t1", ("negligible", "-f", s.path("x2-t1.json"), "--json")),
        Op("negligible-symmetrizer", ("negligible", "-f", y, "--json")),
        Op("block-of", ("block-of", "--lambda", "2,1", "--d", "3", "--json")),
        Op("blocks", ("blocks", "--d", "2", "--json")),
        Op("tl.quantum", ("tl", "quantum", "--n", "5", "--json")),
        Op("tl.quantum-level", ("tl", "quantum", "--n", "5", "--l", str(LEVEL), "--json")),
        Op("tl.block", ("tl", "block", "--n", "1", "--l", "2", "--json")),
        Op("tl.block-reflected", ("tl", "block", "--n", "3", "--l", "2", "--json")),
        Op("verify-object_split", ("verify", "--family", "object_split", "--d", "1", "--json")),
    ]
    for name, doc in _malformed().items():
        s.files[f"bad-{name}.json"] = doc
        ops.append(Op(f"malformed.{name}", ("trace", "-f", s.path(f"bad-{name}.json"), "--json")))
    return s


def write_session(s: Session) -> Path:
    """Write the session's input files and request list; returns the list's path."""
    SESSION_DIR.mkdir(parents=True, exist_ok=True)
    for old in SESSION_DIR.glob("*.json"):
        old.unlink()
    for name, doc in s.files.items():
        text = doc if isinstance(doc, str) else json.dumps(doc, indent=2) + "\n"
        (SESSION_DIR / name).write_text(text)
    requests = SESSION_DIR / "requests.json"
    requests.write_text(json.dumps([op.to_json() for op in s.ops]))
    return requests


def payload_hash(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()

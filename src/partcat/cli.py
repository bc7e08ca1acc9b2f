"""Command-line front end.

Exit codes: 0 success (or verified), 1 a verification ran and failed,
2 usage or input errors, 3 a resource cap was exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import algkit, delta, pcat, tl, young
from .coeff import (
    QQ,
    RATFUN_D,
    RING_KINDS,
    RingTag,
    bound_q,
    chebyshev_minpoly,
    number_field,
    parse_coefficient,
)
from .errors import (
    CapExceededError,
    CoeffParseError,
    PartcatError,
    SchemaError,
)
from .lincomb import from_dict, negligible, to_dict


def _emit(args, payload: dict, lines):
    if getattr(args, "json", False):
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        for line in lines:
            sys.stdout.write(line + "\n")


def _write_morphism(path: str, m):
    Path(path).write_text(json.dumps(to_dict(m), indent=2) + "\n")


def read_morphism_file(path: str):
    """Load a morphism JSON document of the kind it names."""
    text = Path(path).read_text()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc.msg}", f"offset {exc.pos}") from exc
    except RecursionError:
        raise SchemaError("invalid JSON: nested too deeply") from None
    return from_dict(obj)


def _output_morphism(args, m):
    if getattr(args, "output", None):
        _write_morphism(args.output, m)
    else:
        sys.stdout.write(json.dumps(to_dict(m), indent=2) + "\n")


def _rational(text: str) -> Fraction:
    """A rational parameter value written in the coefficient grammar."""
    return QQ.coerce(parse_coefficient(text, QQ))


def _ring_from_args(args, var: str = "t") -> RingTag:
    name = getattr(args, "ring", None) or ("Qt" if var == "t" else "Qratfun")
    tval = getattr(args, "t", None)
    if name == "Q":
        if tval is None:
            raise CoeffParseError("ring Q needs --t", 0)
        return bound_q(_rational(tval), var)
    if name == "Qt":
        return RingTag("poly", var)
    if name == "Qratfun":
        return RingTag("ratfun", var)
    if name == "Qdelta":
        minpoly = getattr(args, "minpoly", None)
        if minpoly is None:
            raise CoeffParseError("ring Qdelta needs --minpoly", 0)
        return number_field(minpoly, "d")
    raise CoeffParseError(f"unknown ring {name}", 0)


def _parse_lambda(text) -> young.YoungDiagram:
    if not text:
        return young.YoungDiagram(())
    try:
        parts = tuple(int(p) for p in str(text).split(",") if p != "")
        return young.YoungDiagram(parts)
    except ValueError as exc:
        raise CoeffParseError(f"bad --lambda value: {exc}", 0) from exc


# ---------------------------------------------------------------------------
# verb handlers


def _cmd_compose(args) -> int:
    f = read_morphism_file(args.f)
    g = read_morphism_file(args.g)
    _output_morphism(args, g @ f)
    return 0


def _cmd_tensor(args) -> int:
    f = read_morphism_file(args.f)
    g = read_morphism_file(args.g)
    _output_morphism(args, f.tensor(g))
    return 0


def _cmd_dual(args) -> int:
    _output_morphism(args, read_morphism_file(args.f).dual())
    return 0


def _cmd_trace(args) -> int:
    value = read_morphism_file(args.f).trace()
    _emit(args, {"trace": value.render()}, [f"trace: {value.render()}"])
    return 0


def _cmd_dim(args) -> int:
    ring = _ring_from_args(args)
    value = pcat.dim(args.n, ring)
    _emit(args, {"n": args.n, "dim": value.render()}, [f"dim([A_{args.n}]) = {value.render()}"])
    return 0


def _cmd_gram(args) -> int:
    ring = _ring_from_args(args)
    matrix = pcat.gram_matrix(args.n, args.n, ring, cap=args.bound)
    rendered = [[x.render() for x in row] for row in matrix]
    lines = ["  ".join(row) for row in rendered]
    _emit(args, {"a": args.n, "b": args.n, "matrix": rendered}, lines)
    return 0


def _cmd_negligible(args) -> int:
    verdict = negligible(read_morphism_file(args.f), cap=args.bound)
    _emit(args, {"negligible": verdict}, [f"negligible: {verdict}"])
    return 0


def _report_exit(args, report) -> int:
    payload = report.to_dict()
    _emit(args, payload, report.summary_lines())
    return 0 if report.overall else 1


def _cmd_verify(args) -> int:
    family = args.family
    if family == "object_split":
        if args.d is None:
            raise CoeffParseError("object_split needs --d", 0)
        report = delta.object_split_check(args.d, cap=args.bound if args.bound else 3)
        return _report_exit(args, report)
    if args.n is None:
        raise CoeffParseError("verify needs --n", 0)
    report = delta.verify_suite(family, args.n, j=args.j, cap=args.bound)
    return _report_exit(args, report)


def _cmd_blocks(args) -> int:
    bound = args.bound if args.bound is not None else args.d + 4
    blocks = young.infinite_blocks(args.d, bound)
    payload = {
        "d": args.d,
        "bound": bound,
        "infinite_blocks": len(blocks),
        "blocks": [[list(m.parts) for m in members] for members in blocks],
    }
    lines = [f"infinite blocks at d={args.d} (labels up to size {bound}): {len(blocks)}"]
    for members in blocks:
        lines.append("  " + " < ".join(str(list(m.parts)) for m in members))
    _emit(args, payload, lines)
    return 0


def _cmd_block_of(args) -> int:
    lam = _parse_lambda(getattr(args, "lam", None))
    if args.d is None:
        raise CoeffParseError("block-of needs --d", 0)
    bound = args.bound if args.bound is not None else max(lam.size, args.d + 4)
    desc = young.block_of(lam, args.d, bound)
    payload = {"lambda": list(lam.parts), "d": args.d, "block": desc.to_dict()}
    lines = [
        f"block of {list(lam.parts)} at d={args.d}: {desc.block_type}",
        "members: " + ", ".join(str(list(m.parts)) for m in desc.members),
        f"index of query: {desc.index_of_query}",
        f"negligible: {young.negligible_class(lam, args.d)}",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_symmetrizer(args) -> int:
    lam = _parse_lambda(getattr(args, "lam", None))
    element = young.young_symmetrizer(lam)
    terms = [
        {"perm": list(perm), "coeff": str(coeff)}
        for perm, coeff in sorted(element.items())
    ]
    payload = {"lambda": list(lam.parts), "terms": terms}
    lines = [f"y_{list(lam.parts)} on {lam.size} strands:"] + [
        f"  {t['coeff']} * {t['perm']}" for t in terms
    ]
    if getattr(args, "output", None):
        _write_morphism(args.output, young.pt_power_idempotent(lam))
    _emit(args, payload, lines)
    return 0


def _cmd_decompose(args) -> int:
    if args.d is not None:
        tval = Fraction(args.d)
    elif args.t is not None:
        tval = _rational(args.t)
    else:
        raise CoeffParseError("decompose needs --d or --t", 0)
    A = algkit._cached_partition_algebra(args.n, tval)  # identify_summand reuses it
    dec = algkit.split_idempotent(A, A.unit)
    reps = {}
    sizes = {}
    for vec, comp in zip(dec.idempotents, dec.component):
        reps.setdefault(comp, vec)
        sizes[comp] = sizes.get(comp, 0) + 1
    summands = []
    for comp in sorted(reps):
        label = algkit.identify_summand(args.n, reps[comp], tval, cap=args.n)
        summands.append(
            {
                "lambda": list(label.diagram.parts),
                "dim": label.dim.render(),
                "count": sizes[comp],
            }
        )
    summands.sort(key=lambda s: (sum(s["lambda"]), s["lambda"]))
    payload = {"n": args.n, "t": str(tval), "summands": summands}
    lines = [f"[A_{args.n}] at t={tval}: {len(dec)} primitive summands"] + [
        f"  L({s['lambda']}) x{s['count']}  dim={s['dim']}" for s in summands
    ]
    _emit(args, payload, lines)
    return 0


def _tl_ring(args) -> RingTag:
    if getattr(args, "delta", None) is not None:
        return bound_q(_rational(args.delta), "d")
    if getattr(args, "l", None) is not None:
        return number_field(chebyshev_minpoly(args.l), "d")
    return RATFUN_D


def _cmd_tl(args) -> int:
    op = args.op
    if op == "jw":
        _output_morphism(args, tl.jw(args.n, _tl_ring(args)))
        return 0
    if op == "quantum":
        ring = _tl_ring(args)
        value = tl.quantum_int(args.n, ring)
        level = tl.l_q(ring)
        payload = {"n": args.n, "quantum": value.render(), "l_q": level}
        _emit(args, payload, [f"[{args.n}] = {value.render()}  (l_q = {level})"])
        return 0
    if op == "steinberg":
        if args.l is None:
            raise CoeffParseError("steinberg needs --l", 0)
        ring = _tl_ring(args)
        f = tl.steinberg(args.l, ring)
        _output_morphism(args, f)
        return 0
    if op == "negligible":
        if args.f:
            return _cmd_negligible(args)
        verdict = tl.jw_negligible(args.n, _tl_ring(args))
        _emit(args, {"negligible": verdict}, [f"negligible: {verdict}"])
        return 0
    if op == "block":
        ident = tl.tl_block(args.n, args.l)
        _emit(args, {"weight": args.n, "l": args.l, "block": ident}, [f"block: {ident}"])
        return 0
    if op == "compose":
        if args.f is None or args.g is None:
            raise ValueError("tl compose needs -f and -g")
        return _cmd_compose(args)
    if op == "trace":
        if args.f is None:
            raise ValueError("tl trace needs -f")
        return _cmd_trace(args)
    raise CoeffParseError(f"unknown tl operation {op!r}", 0)


# ---------------------------------------------------------------------------
# parser


def _nonnegative(text: str) -> int:
    """A ``--bound`` value: a cap below zero is a usage error, not a cap."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, not {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partcat",
        description="Exact computations in partition and Temperley-Lieb categories.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, *, files=0, output=False, ring=False, n=False, bound=False):
        p.add_argument("--json", action="store_true", help="emit JSON output")
        if files >= 1:
            p.add_argument("-f", required=True, help="morphism JSON input")
        if files >= 2:
            p.add_argument("-g", required=True, help="second morphism JSON input")
        if output:
            p.add_argument("-o", dest="output", help="write morphism JSON here")
        if ring:
            p.add_argument("--ring", choices=list(RING_KINDS))
            p.add_argument("--t", help="parameter value (ring Q)")
            p.add_argument("--minpoly", help="minimal polynomial (ring Qdelta)")
        if n:
            p.add_argument("--n", type=int, required=True)
        if bound:
            p.add_argument("--bound", type=_nonnegative, default=None)

    p = sub.add_parser("compose", help="compose two morphisms (g after f)")
    common(p, files=2, output=True)
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("tensor", help="tensor two morphisms")
    common(p, files=2, output=True)
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("dual", help="flip a morphism")
    common(p, files=1, output=True)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("trace", help="categorical trace of an endomorphism")
    common(p, files=1)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("dim", help="categorical dimension of [A_n]")
    common(p, ring=True, n=True)
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("gram", help="Gram matrix of the Hom(n, n) basis")
    common(p, ring=True, n=True, bound=True)
    p.set_defaults(func=_cmd_gram)

    p = sub.add_parser("negligible", help="trace-pairing negligibility test")
    common(p, files=1, bound=True)
    p.set_defaults(func=_cmd_negligible)

    p = sub.add_parser("verify", help="machine-check an identity family")
    common(p, bound=True)
    p.add_argument(
        "--family",
        required=True,
        choices=list(delta.FAMILIES) + ["object_split"],
    )
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--j", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("blocks", help="infinite blocks at an integer parameter")
    common(p, bound=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=_cmd_blocks)

    p = sub.add_parser("block-of", help="block data of one Young diagram")
    common(p, bound=True)
    p.add_argument("--lambda", dest="lam", default="")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=_cmd_block_of)

    p = sub.add_parser("symmetrizer", help="Young symmetrizer idempotent")
    common(p, output=True)
    p.add_argument("--lambda", dest="lam", default="")
    p.set_defaults(func=_cmd_symmetrizer)

    p = sub.add_parser("decompose", help="split End([A_n]) into summands")
    common(p, n=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--t", default=None)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("tl", help="Temperley-Lieb operations")
    p.add_argument(
        "op",
        choices=["jw", "quantum", "steinberg", "negligible", "block", "compose", "trace"],
    )
    p.add_argument("--json", action="store_true")
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--delta", default=None, help="rational loop value")
    p.add_argument("--bound", type=_nonnegative, default=None)
    p.add_argument("-f", default=None)
    p.add_argument("-g", default=None)
    p.add_argument("-o", dest="output", default=None)
    p.set_defaults(func=_cmd_tl)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CapExceededError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (CoeffParseError, SchemaError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (PartcatError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer tracing of partcat from outside the program.

``install`` wraps the public functions and methods of each layer, and every
reference another partcat module holds to a wrapped function.  Each wrapped
call is a span: name, start, end and the span that caused it.  Self time is
a span's duration minus the durations of the wrapped calls inside it.

Hot spans (scalar arithmetic, algebra products, diagram compositions) run
millions of times, so they are folded into per-name totals as they close;
the coarse spans are also kept whole and written out at exit.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

RING_KINDS = ("Q", "poly", "ratfun", "numberfield")
ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__pow__", "inv")

# per-layer metric -> (span name, what is taken): calls, incl (outermost
# duration, so recursion is not counted twice), self, or a count
LAYER_METRICS = {
    "cli.requests": ("cli.main", "calls"),
    "cli.read_s": ("cli.read", "incl"),
    "coeff.parse_calls": ("coeff.parse", "calls"),
    "coeff.parse_s": ("coeff.parse", "incl"),
    "coeff.render_calls": ("coeff.render", "calls"),
    "coeff.render_s": ("coeff.render", "incl"),
    **{f"coeff.{k}.ops": (f"coeff.{k}", "calls") for k in RING_KINDS},
    **{f"coeff.{k}.s": (f"coeff.{k}", "self") for k in RING_KINDS},
    "pcat.compose_calls": ("pcat.compose", "calls"),
    "pcat.compose_s": ("pcat.compose", "self"),
    "pcat.compose_pairs": ("pcat.compose_pairs", "count"),
    "pcat.kernel_hits": ("pcat.kernel_hits", "count"),
    "pcat.kernel_misses": ("pcat.kernel_misses", "count"),
    "pcat.tensor_s": ("pcat.tensor", "self"),
    "pcat.trace_s": ("pcat.trace", "self"),
    "pcat.hom_basis_s": ("pcat.hom_basis", "incl"),
    "pcat.diagrams_enumerated": ("pcat.diagrams_enumerated", "count"),
    "tl.compose_calls": ("tl.compose", "calls"),
    "tl.compose_pairs": ("tl.compose_pairs", "count"),
    "tl.compose_s": ("tl.compose", "self"),
    "tl.kernel_hits": ("tl.kernel_hits", "count"),
    "tl.kernel_misses": ("tl.kernel_misses", "count"),
    "tl.jw_s": ("tl.jw", "incl"),
    "delta.maps_s": ("delta.maps", "incl"),
    "delta.verify_s": ("delta.verify", "self"),
    "delta.checks": ("delta.checks", "count"),
    "algkit.algebras_built": ("algkit.build", "calls"),
    "algkit.build_s": ("algkit.build", "incl"),
    "algkit.mul_calls": ("algkit.mul", "calls"),
    "algkit.mul_s": ("algkit.mul", "self"),
    "algkit.radical_s": ("algkit.radical", "incl"),
    "algkit.center_s": ("algkit.center", "incl"),
    "algkit.minpoly_calls": ("algkit.minpoly", "calls"),
    "algkit.split_s": ("algkit.split", "self"),
    "algkit.identify_s": ("algkit.identify", "incl"),
    "linalg.rank_calls": ("linalg.rank", "calls"),
    "linalg.rank_s": ("linalg.rank", "incl"),
    "young.symmetrizer_s": ("young.symmetrizer", "incl"),
    "young.block_calls": ("young.block", "calls"),
    "young.block_s": ("young.block", "incl"),
}
COLUMN = {"calls": 0, "incl": 1, "self": 2}


class Tracer:
    def __init__(self):
        self.stack = []  # one [child seconds] cell per open wrapped call
        self.depth = {}  # span name -> open calls of that name
        self.totals = {}  # span name -> [calls, outermost seconds, self seconds]
        self.counts = {}
        self.spans = []  # coarse spans: [name, start, end, parent index]
        self.open_spans = []
        self.kernels = []  # (layer, lru-cached kernel)
        self.before = {}
        self.trace = []  # per operation: spans and totals, written at exit

    def add(self, key: str, amount: int):
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, fn, name, *, keyed=False, span=False, pre=None, post=None):
        """A wrapper recording each call of ``fn`` as a span called ``name``.

        With ``keyed`` the name is suffixed with the ring kind of the first
        argument, a RingElement.
        """
        stack, depth, totals = self.stack, self.depth, self.totals
        spans, open_spans, clock = self.spans, self.open_spans, time.perf_counter

        def wrapper(*args, **kwargs):
            key = name + args[0].tag.kind if keyed else name
            if pre is not None:
                pre(self, args)
            level = depth.get(key, 0)
            depth[key] = level + 1
            cell = [0.0]
            stack.append(cell)
            if span:
                spans.append([key, 0.0, 0.0, open_spans[-1] if open_spans else -1])
                open_spans.append(len(spans) - 1)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                depth[key] = level
                rec = totals.get(key)
                if rec is None:
                    rec = totals[key] = [0, 0.0, 0.0]
                rec[0] += 1
                if level == 0:
                    rec[1] += dt
                rec[2] += dt - cell[0]
                if span:
                    spans[open_spans.pop()][1:3] = [t0, t1]
            if post is not None:
                post(self, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per operation ----------------------------------------------------

    def begin(self):
        self.totals.clear()
        self.counts.clear()
        self.spans.clear()
        self.before = {layer: fn.cache_info() for layer, fn in self.kernels}

    def end(self, op_name: str) -> dict:
        """Per-layer metrics of the operation since ``begin``."""
        for layer, fn in self.kernels:
            info, old = fn.cache_info(), self.before[layer]
            self.add(f"{layer}.kernel_hits", info.hits - old.hits)
            self.add(f"{layer}.kernel_misses", info.misses - old.misses)
        self.trace.append({"op": op_name, "spans": [list(s) for s in self.spans],
                           "totals": {k: list(v) for k, v in self.totals.items()},
                           "counts": dict(self.counts)})
        out = {}
        for metric, (key, what) in LAYER_METRICS.items():
            if what == "count":
                value = self.counts.get(key, 0)
            else:
                rec = self.totals.get(key)
                value = rec[COLUMN[what]] if rec else 0
            if value:
                out[metric] = value
        return out

    def write(self, path: str):
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(json.dumps(self.trace))


def _count_pairs(layer):
    def pre(tracer, args):
        tracer.add(f"{layer}.compose_pairs", len(args[0].terms) * len(args[1].terms))
    return pre


def _count_diagrams(tracer, basis):
    tracer.add("pcat.diagrams_enumerated", len(basis))


def _count_checks(tracer, report):
    tracer.add("delta.checks", len(report.checks))


def _replace_everywhere(orig, wrapped):
    """Point every partcat module-level reference to ``orig`` at ``wrapped``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "partcat" or mod_name.startswith("partcat.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapped)


def install(pc) -> Tracer:
    """Wrap partcat's layers in place; returns the tracer that records them."""
    tracer = Tracer()
    functions = [
        (pc.cli, "main", "cli.main", dict(span=True)),
        (pc.cli, "read_morphism_file", "cli.read", dict(span=True)),
        (pc.coeff, "parse_coefficient", "coeff.parse", {}),
        (pc.pcat, "hom_basis", "pcat.hom_basis", dict(span=True, post=_count_diagrams)),
        (pc.tl, "jw", "tl.jw", dict(span=True)),
        (pc.delta, "delta_maps", "delta.maps", dict(span=True)),
        (pc.delta, "verify_suite", "delta.verify", dict(span=True, post=_count_checks)),
        (pc.delta, "object_split_check", "delta.verify", dict(span=True, post=_count_checks)),
        (pc.algkit, "end_algebra_partition", "algkit.build", dict(span=True)),
        (pc.algkit, "end_algebra_tl", "algkit.build", dict(span=True)),
        (pc.algkit, "radical", "algkit.radical", dict(span=True)),
        (pc.algkit, "split_idempotent", "algkit.split", dict(span=True)),
        (pc.algkit, "identify_summand", "algkit.identify", dict(span=True)),
        (pc.linalg, "rank", "linalg.rank", dict(span=True)),
        (pc.young, "young_symmetrizer", "young.symmetrizer", dict(span=True)),
        (pc.young, "pt_power_idempotent", "young.symmetrizer", dict(span=True)),
        (pc.young, "block_of", "young.block", {}),
        (pc.young, "infinite_blocks", "young.block", dict(span=True)),
    ]
    for module, attr, name, opts in functions:
        orig = getattr(module, attr)
        _replace_everywhere(orig, tracer.wrap(orig, name, **opts))

    methods = [
        (pc.coeff.RingElement, "render", "coeff.render", {}),
        *[(pc.coeff.RingElement, op, "coeff.", dict(keyed=True)) for op in ARITHMETIC],
        (pc.pcat.Morphism, "__matmul__", "pcat.compose", dict(pre=_count_pairs("pcat"))),
        (pc.pcat.Morphism, "tensor", "pcat.tensor", {}),
        (pc.pcat.Morphism, "trace", "pcat.trace", {}),
        (pc.tl.TLMorphism, "__matmul__", "tl.compose", dict(pre=_count_pairs("tl"))),
        (pc.algkit.FinDimAlgebra, "mul", "algkit.mul", {}),
        (pc.algkit._SplitContext, "center_of", "algkit.center", dict(span=True)),
        (pc.algkit._SplitContext, "minpoly", "algkit.minpoly", {}),
    ]
    for cls, attr, name, opts in methods:
        setattr(cls, attr, tracer.wrap(vars(cls)[attr], name, **opts))

    tracer.kernels = [("pcat", pc.pcat._compose_diagrams), ("tl", pc.tl._tl_compose)]
    return tracer

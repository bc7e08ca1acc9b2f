"""Exact computations in partition and Temperley-Lieb diagram categories."""

from . import algkit, coeff, delta, lincomb, linalg, pcat, tl, young
from .coeff import (
    POLY_D,
    POLY_T,
    QQ,
    RATFUN_D,
    RATFUN_T,
    RingElement,
    RingTag,
    bound_q,
    chebyshev_minpoly,
    number_field,
    parse_coefficient,
)
from .pcat import Morphism, PartitionDiagram

__version__ = "0.1.0"

__all__ = [
    "algkit",
    "coeff",
    "delta",
    "lincomb",
    "linalg",
    "pcat",
    "tl",
    "young",
    "Morphism",
    "PartitionDiagram",
    "POLY_D",
    "POLY_T",
    "QQ",
    "RATFUN_D",
    "RATFUN_T",
    "RingElement",
    "RingTag",
    "bound_q",
    "chebyshev_minpoly",
    "number_field",
    "parse_coefficient",
    "__version__",
]

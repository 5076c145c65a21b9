"""Exact extreme values of characters on compact simple Lie groups."""

from .polynomials import QQ, Poly, qq, qq_str
from .rootdata import (
    EnumerationCapError,
    InvalidTypeError,
    RootDatum,
    build_root_datum,
    cartan_matrix,
    corners,
    weyl_elements,
    weyl_min_trace,
    weyl_orbit,
)

__version__ = "0.1.0"

__all__ = [
    "QQ",
    "Poly",
    "qq",
    "qq_str",
    "EnumerationCapError",
    "InvalidTypeError",
    "RootDatum",
    "build_root_datum",
    "cartan_matrix",
    "corners",
    "weyl_elements",
    "weyl_min_trace",
    "weyl_orbit",
    "__version__",
]

"""Exact tools for the module category of affine gl(1|1).

Fusion products, composition series, spectral flow, Jacobi-variable
characters, simple-current extension analysis, and exact/numeric
verification of the correlator differential equation, all over exact
rational arithmetic, cross-checked by a brute-force matrix oracle for the
finite-dimensional modules.
"""

from .errors import Gl11Error, NotDeterminedError, OracleError
from .labels import (
    AtypicalA,
    FormalSum,
    ModuleLabel,
    ProjectiveP,
    TypicalV,
    VermaV0,
    contragredient,
    delta,
    epsilon,
    epsilon2,
    k_decompose,
    parse_label,
    projective_cover,
    render_label,
    spectral_flow,
    top_dim,
)
from .fusion import fuse, fuse_formal, k_ring_check

__all__ = [
    "AtypicalA",
    "FormalSum",
    "Gl11Error",
    "ModuleLabel",
    "NotDeterminedError",
    "OracleError",
    "ProjectiveP",
    "TypicalV",
    "VermaV0",
    "contragredient",
    "delta",
    "epsilon",
    "epsilon2",
    "fuse",
    "fuse_formal",
    "k_decompose",
    "k_ring_check",
    "parse_label",
    "projective_cover",
    "render_label",
    "spectral_flow",
    "top_dim",
]

__version__ = "0.1.0"

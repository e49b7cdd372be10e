"""ramforge: exact construction and machine verification of totally
ramified local-field extensions with nonintegral upper ramification breaks,
plus the finite p-group engine behind the group-theoretic side conditions.

The base field is K = F_p((pi)) for an odd prime p.  `laurent` provides
truncated exact series arithmetic, `astower` arithmetic and break-certifying
reduction in a degree-p Artin-Schreier extension, `ramcalc` the upper/lower
break calculus, `pgroups` the H(n, d) / A(n, d) group families and their
analysis, and `forge` the certificate builders and verifier tying it all
together.  The `ramforge` CLI exposes the same functionality.
"""

from . import astower, forge, laurent, pgroups, ramcalc
from .astower import ASElement, ASExtension, BreakOutcome, as_reduce_F, as_reduce_K
from .forge import (
    Certificate,
    P3Parameters,
    build_p3_tower,
    derive_chat,
    derive_nonint,
    pick_parameters,
    verify_certificate,
)
from .laurent import LaurentSeries, monomial, parse_series, series_make, wp
from .ramcalc import (
    BreakMultiset,
    compose_disjoint,
    fact1_resolve,
    lower_to_upper,
    parse_multiset,
    upper_to_lower,
)

__version__ = "0.1.0"

__all__ = [
    "ASElement",
    "ASExtension",
    "BreakMultiset",
    "BreakOutcome",
    "Certificate",
    "LaurentSeries",
    "P3Parameters",
    "as_reduce_F",
    "as_reduce_K",
    "astower",
    "build_p3_tower",
    "compose_disjoint",
    "derive_chat",
    "derive_nonint",
    "fact1_resolve",
    "forge",
    "laurent",
    "lower_to_upper",
    "monomial",
    "parse_multiset",
    "parse_series",
    "pgroups",
    "pick_parameters",
    "ramcalc",
    "series_make",
    "upper_to_lower",
    "verify_certificate",
    "wp",
]

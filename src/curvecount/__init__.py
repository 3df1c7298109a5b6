"""Exact enumerative geometry for lines and conics on hypersurfaces.

Two independent integration backends over the same intersection rings:

* a symbolic one, multiplying Schubert classes through Littlewood-Richardson
  coefficients and reducing projective-bundle towers against the tautological
  relation, and
* a fixed-point one, summing torus weights over the finitely many fixed
  points (Bott's residue formula).

All arithmetic is exact.  Coefficients and fixed-point numerators are plain
integers, rational only where an integrand carries a p/q scalar, and every
public result is a :class:`fractions.Fraction`.
"""

from .bott import UnsupportedExpressionError, WeightCollisionError, bott_integrate
from .bundles import (
    BundleExpr,
    Dual,
    Grassmannian,
    InvalidBundleError,
    ProjBundle,
    RelO,
    Space,
    Sym,
    TautQuot,
    TautSub,
    TensorLine,
    Trivial,
    WhitneyQuotient,
    rank,
)
from .chern import chern_classes, euler_class, segre_classes, total_chern
from .chow import (
    ChowElement,
    SpaceMismatchError,
    basis,
    integrate,
    pullback,
    pushforward,
    sigma,
    unit,
    zero,
    zeta,
)
from .counts import (
    DEGENERATE_CONIC_ASSUMPTION,
    Check,
    DegreeMismatchError,
    HypersurfaceProblem,
    count_curves,
    dimension_ledger,
    integral,
)
from .gwdt import (
    InvariantTable,
    MissingDivisorError,
    am_localization_verify,
    aspinwall_morrison_factor,
    dt_from_gw,
    gw_from_dt,
)
from .symfunc import (
    Partition,
    enumerate_partitions,
    lr_coefficient,
    partition,
    pieri_multiply,
)

__version__ = "0.1.0"

__all__ = [
    "BundleExpr",
    "Check",
    "ChowElement",
    "DEGENERATE_CONIC_ASSUMPTION",
    "DegreeMismatchError",
    "Dual",
    "Grassmannian",
    "HypersurfaceProblem",
    "InvalidBundleError",
    "InvariantTable",
    "MissingDivisorError",
    "Partition",
    "ProjBundle",
    "RelO",
    "Space",
    "SpaceMismatchError",
    "Sym",
    "TautQuot",
    "TautSub",
    "TensorLine",
    "Trivial",
    "UnsupportedExpressionError",
    "WeightCollisionError",
    "WhitneyQuotient",
    "am_localization_verify",
    "aspinwall_morrison_factor",
    "basis",
    "bott_integrate",
    "chern_classes",
    "count_curves",
    "dimension_ledger",
    "dt_from_gw",
    "enumerate_partitions",
    "euler_class",
    "gw_from_dt",
    "integral",
    "integrate",
    "lr_coefficient",
    "partition",
    "pieri_multiply",
    "pullback",
    "pushforward",
    "rank",
    "segre_classes",
    "sigma",
    "total_chern",
    "unit",
    "zero",
    "zeta",
]
